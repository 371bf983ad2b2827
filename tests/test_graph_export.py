"""`agc graph` output for every corpus file, pinned by its sha256: a change
to the graph code that moves, adds or drops a vertex or an edge shows here."""

import hashlib
import json

import pytest

from agc.cli import main
from agc.graph import CommutingGraph
from agc.groupfile import load_group

DIGESTS = {  # file stem: sha256 of the JSON output, then of the DOT output
    "a4": ("2ddf74fd724c9726ed34f83ab03a1833ee3c39c638d545f607ff5820ed09cd6c",
           "5397640e54f4ed2458c0d435404cb6dce5088c165a6954bb15487cf8ca61acd8"),
    "a4xc2": ("955b13f1a374549235a30e7c22aef61bb80fbbd975634f59bbeace2c1a131489",
              "8afd4bae45c55d702f11a2b8ccc00969a9f232b31a56faa4291d57691333ef3e"),
    "c11-c5": ("19d6c23bc302530d33790f12edd3815eacca0794bb110cb440306cee7f86581a",
               "56ea30773e1c5b004e6ba0bb7c7394c5c176d5382ecf2593b94bde5d2f263eee"),
    "c12": ("58c7b2dedb2019bf5e7e4324724c51ae20e9ff56bdb96941f4744538e8bc6273",
            "9370afeb8cd27d745de1336955af81cd6ecf135f85f31ee483831ac8d6df92c0"),
    "c13-c4": ("d1d0b5cec8e2d9c539eb3afd082e7b8a1fe57e38df11aac27cf472f89faef670",
               "6795d4e11fccf2e0487c1183cb68f117ed99874d8c6a5f4bc38ab330e40232a8"),
    "c15": ("61401d5518ccec46e621981956dfa5b830a627ec24301cdad01af6c2a56f5b93",
            "9370afeb8cd27d745de1336955af81cd6ecf135f85f31ee483831ac8d6df92c0"),
    "c2sqxw60": ("adf134c8c26974c02512f41d33b2ffa58f20fdd1ccb3fc094e13aa32019200fc",
                 "d9dcb76b3c954ac9fa692a5b34300b83f04e632fef0ef554c4f57e94fb34aa71"),
    "c2xc2": ("a070b5b013a3f7ba5fe18ae27b09392cd785dd094e7b0e314ae49b79dd72cba6",
              "9370afeb8cd27d745de1336955af81cd6ecf135f85f31ee483831ac8d6df92c0"),
    "c2xc2xc2": ("e027cfab194e99e2be8a8583649e26a0cdb9133bee9989821d6c4c5dff4de7b6",
                 "9370afeb8cd27d745de1336955af81cd6ecf135f85f31ee483831ac8d6df92c0"),
    "c2xg126": ("841901276b20ffc4198c2ac102da08f3e85c5d0cd4ac82b104a215df8317b9ef",
                "b9b41487f4a446e98baed680c5d33e9efb92d6de906f9289a6cfe421b8122d0c"),
    "c2xw60": ("d45955c9ed5f887dee443eb50c241b5054650a4ab08504f6e0c3e7cb1f350fcb",
               "b38051a259961d2e5185bdad8ad231d165c84831df41323052cd93f64165ab68"),
    "c3sq-c2": ("ae550f7c0e1d39311e687cbfa8b646c321e2e6163e752b3f919c1b0cbe10ea2f",
                "a467459d7f19f77f17681f75fee1682520df0b0d1630aedd649938613d6306c6"),
    "c3xf20": ("9a87fe8a81455c0a2401a7034ebc35fff9708383e25cbe0601080444f73b7f31",
               "9c612ab71e217e01fdb9288b1459ad8bb925d900bb8ede8a7dd1dd93eddc0dc5"),
    "c3xw60": ("9d99e8ffd28840859e76cd0a5aa367f611a64b98804b2bd5441fcb35681d84e6",
               "5d5e466a473db20376810b812208d50b1117f07ea6a4c332601f97f23b8da307"),
    "c4xw60": ("d70d43dad8458e38216037928f8f60152916f6215158be90bd7b9572df51d78c",
               "f684acbe87393b2261f6ce92bb014fcbff244a4c736ec2b7f215dca117435293"),
    "c5sq-c3": ("64ba1472d0a50fb8667dfb87d7f04875087f022387540f7c16caefbaff77d373",
                "66356c783afc5f6879408ff3e51b71059e4f09185e21c18881ab9c9db70e60f3"),
    "c5sq-c4": ("62bd739a09b7282a0637f92b1ee22eda3cc4eb2ec4a35bc4a818d41102ef5796",
                "efaf8c833c986066a643f54406a419b21c220ebe66e5dbec104dde5ac30d7701"),
    "c5xw60": ("6ebf04450c0f6d8b021fa98fd91c1c6fad90394815679017e4985dc8c8cd7495",
               "84a593246a702991172753be6af4921b4489f86e3a9e7e16295dd9436594a2a5"),
    "c6": ("4f8b6cf6275b2a85fe5e8fa238e6467a27757f6a57d791dc0f6454b73f994791",
           "9370afeb8cd27d745de1336955af81cd6ecf135f85f31ee483831ac8d6df92c0"),
    "c6xw60": ("8de6fb36f072945fa2ee0d9c52abebf61b56e8b2f804c7e3e22e243d8caf12c2",
               "2facbaa2e1f5704cf36df739f6e5835cf36d4a4ee8ffb3125d09b75e5599e552"),
    "c7-c3": ("d238b096a11c1949fe14fd6c21658d41357c28a13ff7f5f41ce3393ab87fc9c8",
              "ef6d4b6595defedbdb671eb55eb028d021f1458db5ae696b6b927aed713a96da"),
    "c7sq-s3": ("494710002a918ad2e53f6461dbe11dacd807a305a676f6278264b743df42860a",
                "caf3acab4b5232a1c52123b72ccea25baa905c5f5a8758f89f4f827cac8f71aa"),
    "d10": ("74cfe613fe588e346075efd06f0be3b509207fa6d74c83587b9fe00c56664956",
            "40a78da325069d61386ce28032787d4d27de37baf25b74a57867b08322da1197"),
    "d12": ("22342a3e600887bfc06a6409b6e9e2a92300cc175fdd00e3aa7e17296fbc5140",
            "d2546252ef5a55ab2fa435ac2acc2bb1b4a03668b0d119d974ab4b52e538863a"),
    "d8": ("082e7a61c1fd1323ef21a54c9a927bab4e9d30fbf4ee2eed2c06ff91f20007bf",
           "f5de84b6dbf8ec4de67f10031459d9f9b7126e5036dccb357a7331781586fcc8"),
    "diameter4-witness": ("810d0622cc57127e547a3eccc02eaa9ba8d4b2f50f37ed76ee9bff8dff880cc5",
                          "91e8f1c8baa24b511a85c479b73f05da30a7fc0056fbe6cecfe128e53ce251bf"),
    "diameter6-witness": ("5aeb38d00334eefae1a3bba9ca9738d711feaff659985f986391b7b84bd6d608",
                          "3f33d13feff86c1af368c9cb20fb74660d2e9c01032fd94bd8ea00940caa9c88"),
    "dic3": ("6ec9739a311f3d1d242a845e13e04613daf1a983384b541288decebab202d607",
             "975b48f448a03b875d7e188fcfc4c1530060e09a96ea4aaf589076d9d8f5bb5f"),
    "dic3xc5": ("1bf5929882ac633c0e3ab9d84ae0160acfe37a7934ea7791667d9111c4077296",
                "a54fb90cc80bc027c0bb5347ef539b503781058ca806057521e4bbea8ed418d6"),
    "f20": ("a174520d8d906f8f4a4fd6981f2a711da6523a3dc810e4ec32f4028f106f990c",
            "ec2d4f025182d1efebcc7ff6154ac4deacfac2edee1abf51d7e4b105a11e1fed"),
    "f21xf39": ("83e608d59af1bee1dc67bf2e7a18590b340eb3e94282fe11121545a62d426f8f",
                "891fbceabf31ae5cc6f151e240929f538fd22feb8a19eb2487184a2d74a8b39f"),
    "f42": ("096bcb8a21e0d7b801c5af53290eed563f9babfa6a006268f3274d1c341551b4",
            "55af3fa76f6d81dbd8ef0425ac9a6ec5173a4645c4437772cb3ff10c3e5b0d8c"),
    "g126": ("c269a1b7b70ab1cf8b6b11cc515b650162227082a6750a0062ee8722f9594425",
             "7168d395ebb90d8eb51d0cd394f7c60da43991ae40da9e87f0c068c08807df8b"),
    "q8": ("f2c1c3e4a63e812dce421de674732c8d3d944e8d5fd3e1c7f395b24b1bbd7b20",
           "f5de84b6dbf8ec4de67f10031459d9f9b7126e5036dccb357a7331781586fcc8"),
    "s3": ("848525bdb6c89ca7b289bd64a5d2c7b4f62731846697f5d8816c397ee83230cb",
           "ca002d3778a4a03cd2bf29bbfeee34a16deabec577ea5d31aebb2f3e0617ed25"),
    "s3xs3": ("e8272632127a92567cd7fbd5c84162cce76b05b9e28abc3cacb13aead6d1fb80",
              "4c1c7aa8976eae14528de3444789e2f85c1e485532490d7290772ba500226b35"),
    "s4": ("3804b95e4607671fcbd728a0e15fbd5299e46a577d06a50edbd375f3eeee6386",
           "9fea443e781619c2b406e3b4bb9cae4537c3cb8d5b3375ea12845d68cfc70798"),
}


def test_every_corpus_file_has_a_digest(corpus_dir):
    assert sorted(p.stem for p in corpus_dir.glob("*.json")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_graph_export_is_byte_identical(name, corpus_dir, tmp_path):
    for fmt, want in zip(("json", "dot"), DIGESTS[name]):
        out = tmp_path / f"{name}.{fmt}"
        assert main(["graph", str(corpus_dir / f"{name}.json"), "--format", fmt,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, fmt


def _cyclic_times_s3(m: int) -> dict:
    """C_m × S3 on m + 3 points: an m-cycle, and a transposition and a
    3-cycle of the last three points.  Its commuting graph has
    (7m² − 5m)/2 edges."""
    tail = list(range(m))
    return {"name": f"c{m}xs3", "degree": m + 3, "generators": [
        [(i + 1) % m for i in range(m)] + [m, m + 1, m + 2],
        tail + [m + 1, m, m + 2],
        tail + [m + 1, m + 2, m]]}


def test_graph_export_streams_under_an_address_space_cap(tmp_path, address_space_allowance):
    """C500 × S3 has order 3000, 873 250 edges and a 9.9 MB JSON export.
    The export is written a block of rows at a time, so it runs with 128 MB
    of address space to spare; holding every edge as a Python pair, then
    the whole text, took about 200 MB more and raised MemoryError here."""
    m = 500
    group_file = tmp_path / "c500xs3.json"
    group_file.write_text(json.dumps(_cyclic_times_s3(m)))
    out = tmp_path / "graph.json"
    with address_space_allowance(128 << 20):
        assert main(["graph", str(group_file), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith('{"group":"c500xs3","order":3000,"vertices":[') and text.endswith("]]}\n")
    assert text.count("[") == 2 + (7 * m * m - 5 * m) // 2  # the two lists, then one per edge


@pytest.mark.parametrize("m", [1, 2, 5, 40])
def test_streamed_exports_equal_the_whole_texts(m, tmp_path, capsysbinary):
    """The JSON export, to a file and to standard output, is ``json.dumps``
    of the whole object {group, order, vertices, edges}, and the DOT export
    the vertex lines, then one line per edge; the graph of C40 × S3 spans
    several blocks of rows."""
    group_file = tmp_path / "g.json"
    group_file.write_text(json.dumps(_cyclic_times_s3(m)))
    G = load_group(group_file)
    g = CommutingGraph(G)
    assert m < 40 or len(g._row_blocks) > 1
    edges = g.edge_list()
    want_json = json.dumps({"group": G.name, "order": G.order,
                            "vertices": g.vertices.tolist(),
                            "edges": [list(e) for e in edges]}, separators=(",", ":")) + "\n"
    want_dot = "\n".join(["graph commuting {", *(f"  {v};" for v in g.vertices.tolist()),
                          *(f"  {a} -- {b};" for a, b in edges), "}"]) + "\n"
    for fmt, want in (("json", want_json), ("dot", want_dot)):
        out = tmp_path / f"out.{fmt}"
        assert main(["graph", str(group_file), "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == want, fmt
        assert main(["graph", str(group_file), "--format", fmt]) == 0
        assert capsysbinary.readouterr().out == want.encode(), fmt
