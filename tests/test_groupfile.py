import json

import pytest

from agc.errors import FormatError, GroupTooLarge, MalformedPermutation
from agc.groupfile import (
    GroupFile,
    group_to_file,
    load_group,
    parse_group_file,
    save_group,
    serialize_group_file,
)
from agc.constructions import symmetric


def test_round_trip_is_byte_exact(tmp_path):
    G = symmetric(3)
    path = tmp_path / "s3.json"
    save_group(G, path)
    first = path.read_bytes()
    H = load_group(path)
    assert H.order == 6 and H.name == "S3"
    save_group(H, path)
    assert path.read_bytes() == first


def test_serialized_key_order():
    gf = GroupFile(degree=3, generators=((1, 0, 2),), name="X")
    text = serialize_group_file(gf)
    obj = json.loads(text)
    assert list(obj.keys()) == ["name", "degree", "generators"]
    gf2 = GroupFile(degree=3, generators=((1, 0, 2),))
    assert list(json.loads(serialize_group_file(gf2)).keys()) == [
        "degree", "generators"]


def test_parse_rejects_bad_json():
    with pytest.raises(FormatError):
        parse_group_file("{not json")


@pytest.mark.parametrize("payload", [
    '{"degree": 3}',
    '{"generators": [[0, 1, 2]]}',
    '{"degree": "3", "generators": [[0, 1, 2]]}',
    '{"degree": 3, "generators": [[0, 1]]}',
    '{"degree": 3, "generators": "abc"}',
    '{"degree": 0, "generators": []}',
    # a format error is found before a non-permutation in an earlier generator
    pytest.param('{"degree": 3, "generators": [[0, 0, 1], [0, 1]]}',
                 id="non-bijection-then-short"),
    pytest.param("[" * 100000, id="deeply-nested"),
    # a lone surrogate, which JSON can escape but no UTF-8 output can hold
    pytest.param('{"name": "s3\\ud800", "degree": 1, "generators": []}', id="surrogate-name"),
    *(pytest.param(f'{{"degree": 3, "generators": [[0, {image}, 2]]}}', id=f"image-{kind}")
      for kind, image in (("true", "true"), ("false", "false"), ("float", "1.0"),
                          ("string", '"1"'), ("null", "null"), ("list", "[1]"))),
])
def test_parse_rejects_malformed_documents(payload):
    with pytest.raises(FormatError):
        parse_group_file(payload)


def test_parse_rejects_non_bijective_generator(tmp_path):
    """The parse checks the format only, and hands the generators on as it
    read them; loading the file rejects one that is not a permutation, in
    ``closure``."""
    text = '{"degree": 3, "generators": [[0, 0, 1]]}'
    assert parse_group_file(text).generators == [[0, 0, 1]]
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(MalformedPermutation):
        load_group(path)


def test_load_group_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(FormatError):
        load_group(path)


def test_load_group_respects_max_order(tmp_path):
    G = symmetric(4)
    path = tmp_path / "s4.json"
    save_group(G, path)
    with pytest.raises(GroupTooLarge):
        load_group(path, max_order=10)


def test_group_to_file_uses_generators():
    G = symmetric(3)
    gf = group_to_file(G)
    assert gf.degree == 3
    assert len(gf.generators) == len(G.generators)
