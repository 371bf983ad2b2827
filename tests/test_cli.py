import gc
import importlib
from functools import cached_property
import json
import os
from pathlib import Path
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

import agc
from agc.cli import _analyze_one, build_parser, main
from agc.groupfile import (GroupFile, group_to_file, load_group, save_group,
                           serialize_group_file)
from agc.perm import DEFAULT_MAX_ORDER, Subgroup, full_subgroup, prime_divisors
from agc.constructions import alternating, cyclic, symmetric
from agc.products import direct_product
from agc.structure import derived_series, sylow_subgroups, sylow_system
from agc.verify import group_report

from oracles import brute_center, brute_centralizer


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.json"
    save_group(symmetric(3), path)
    return str(path)


def test_analyze_exit_zero_and_report(s3_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", s3_file, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fingerprint"]["order"] == 6
    statuses = {c["id"]: c["status"] for c in report["checks"]}
    assert statuses["derived-center-intersection"] == "pass"


def test_analyze_malformed_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["analyze", str(bad)]) == 1
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1


def test_analyze_of_a_long_cycle_exits_one(tmp_path, capsys, address_space_cap):
    """One cycle on 100 000 points has an order past the default cap; the
    closure stops at the cap before it makes any element row."""
    path = tmp_path / "cycle.json"
    cycle = list(range(1, 100_000)) + [0]
    path.write_text(serialize_group_file(GroupFile(100_000, [cycle])))
    assert main(["analyze", str(path)]) == 1
    assert "order cap" in capsys.readouterr().err


def test_analyze_of_a_trivial_group_of_huge_degree(tmp_path, capsys, address_space_cap):
    """A file of 41 bytes may name a degree of 10^9 with no generators.
    Its closure makes nothing of the degree's size, and its report, timings
    aside, is the trivial group's report on one point."""
    reports = []
    for degree in (1_000_000_000, 1):
        path, out = tmp_path / f"trivial{degree}.json", tmp_path / f"report{degree}.json"
        path.write_text(serialize_group_file(GroupFile(degree, [])))
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for check in report["checks"]:
            del check["millis"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_max_order_flag(tmp_path, capsys):
    s4 = tmp_path / "s4.json"
    save_group(symmetric(4), s4)
    assert main(["--max-order", "10", "analyze", str(s4)]) == 1
    assert main(["--max-order", "100", "analyze", str(s4)]) == 0
    # a cap below 1 admits only the trivial group; it does not lift the cap
    capsys.readouterr()
    for cap in ("0", "-1"):
        assert main([f"--max-order={cap}", "analyze", str(s4)]) == 1
        assert capsys.readouterr().err.startswith("error:")
    # the default is the library's
    assert build_parser().parse_args(["analyze", str(s4)]).max_order == DEFAULT_MAX_ORDER


def test_witness_emit_and_reanalyze(tmp_path, capsys):
    emitted = tmp_path / "w60.json"
    assert main(["witness", "diameter-4", "--emit", str(emitted)]) == 0
    G = load_group(emitted)
    assert G.order == 60
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(emitted), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    statuses = {c["id"]: c for c in report["checks"]}
    assert statuses["connected-diameter-le-6"]["witness"]["diameter"] == 4
    assert statuses["metabelian-diameter-le-4"]["status"] == "pass"


def test_witness_computes_one_diameter(tmp_path, monkeypatch):
    """The fingerprint check reads the analysis the builder returns."""
    graph = importlib.import_module("agc.graph")
    diameter = graph.CommutingGraph.diameter
    orders = []

    def counted(self):
        orders.append(self.group.order)
        return diameter(self)

    monkeypatch.setattr(graph.CommutingGraph, "diameter", counted)
    assert main(["witness", "diameter-6", "--emit", str(tmp_path / "w.json")]) == 0
    assert orders.count(1500) == 1


def test_witness_fingerprint_defect_exits_three(monkeypatch, capsys):
    witness = importlib.import_module("agc.witness")
    wrong = {**witness.WITNESS_FINGERPRINTS["diameter-4"], "diameter": 5}
    monkeypatch.setitem(witness.WITNESS_FINGERPRINTS, "diameter-4", wrong)
    assert main(["witness", "diameter-4"]) == 3
    assert "fingerprint defect" in capsys.readouterr().err


def test_witness_unknown_name(capsys):
    assert main(["witness", "nosuch"]) == 1


def test_graph_formats(s3_file, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["graph", s3_file, "--format", "dot", "--out", str(dot)]) == 0
    assert dot.read_text().startswith("graph")
    js = tmp_path / "g.json"
    assert main(["graph", s3_file, "--format", "json", "--out", str(js)]) == 0
    payload = json.loads(js.read_text())
    assert payload["order"] == 6


@pytest.mark.parametrize("name", ["d12", "s4", "q8"])
def test_graph_output_matches_brute_centralizer_edges(name, corpus_dir, tmp_path):
    """`agc graph` writes, in both formats, the noncentral elements and the
    commuting pairs a < b among them, listed by a and then b."""
    path = corpus_dir / f"{name}.json"
    G = load_group(path)
    central = set(brute_center(G))
    vertices = [x for x in range(G.order) if x not in central]
    edges = [(a, b) for a in vertices for b in brute_centralizer(G, a)
             if b > a and b not in central]
    dot = "graph commuting {\n" + "".join(f"  {v};\n" for v in vertices) \
        + "".join(f"  {a} -- {b};\n" for a, b in edges) + "}\n"
    js = json.dumps({"group": G.name, "order": G.order, "vertices": vertices,
                     "edges": [list(e) for e in edges]}, separators=(",", ":")) + "\n"
    for fmt, want in (("dot", dot), ("json", js)):
        out = tmp_path / f"{name}.{fmt}"
        assert main(["graph", str(path), "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == want, fmt


def test_corpus_command(tmp_path, capsys):
    src = tmp_path / "groups"
    src.mkdir()
    save_group(symmetric(3), src / "s3.json")
    save_group(symmetric(4), src / "s4.json")
    out = tmp_path / "out"
    assert main(["corpus", str(src), "--out", str(out)]) == 0
    reports = json.loads((out / "reports.json").read_text())
    assert len(reports["reports"]) == 2
    csv_lines = (out / "summary.csv").read_text().splitlines()
    assert csv_lines[0].startswith("name,order,derived_length")
    assert len(csv_lines) == 3


def test_corpus_of_a_directory_without_group_files_exits_one(tmp_path, capsys):
    assert main(["corpus", str(tmp_path)]) == 1
    assert "no group files" in capsys.readouterr().err


def test_corpus_lists_reports_and_rows_in_one_order(tmp_path, capsys):
    """An unnamed file is placed by its file stem in reports.json as in
    summary.csv: S3 as ``a.json`` without a name comes after S3 named Zed."""
    src, out = tmp_path / "groups", tmp_path / "out"
    src.mkdir()
    rows = group_to_file(symmetric(3)).generators
    (src / "a.json").write_text(serialize_group_file(GroupFile(3, rows)))
    (src / "b.json").write_text(serialize_group_file(GroupFile(3, rows, "Zed")))
    assert main(["corpus", str(src), "--out", str(out)]) == 0
    reports = json.loads((out / "reports.json").read_text())["reports"]
    names = [line.split(",")[0] for line in
             (out / "summary.csv").read_text().splitlines()[1:]]
    assert names == ["Zed", "a"]
    assert [r["fingerprint"]["name"] for r in reports] == ["Zed", None]


def _run_fresh(script: str, *args: str, cwd) -> list:
    """The JSON lines that ``script`` prints in a fresh interpreter that
    imports agc from this checkout."""
    src = str(Path(agc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_commands_below_two_jobs_load_no_pool_or_masked_arrays(corpus_dir, tmp_path):
    """A command imports only what it runs.  In a fresh interpreter each,
    ``analyze``, ``corpus --jobs 1``, ``witness`` and ``graph`` leave the
    process pool's modules, ``numpy.ma`` and ``dataclasses`` (whose classes
    generate their methods at import) unloaded; only ``witness`` loads
    ``agc.witness`` and ``agc.constructions``, only ``analyze`` and
    ``corpus`` load ``agc.verify``, and ``graph`` leaves ``agc.classify``
    unloaded.  The pool itself is covered by the ``--jobs 3`` run in
    test_acceptance."""
    commands = [
        ["analyze", str(corpus_dir / "s4.json"), "--out", str(tmp_path / "s4.json")],
        ["corpus", str(corpus_dir), "--jobs", "1", "--out", str(tmp_path / "corpus")],
        ["witness", "diameter-4", "--emit", str(tmp_path / "witness.json")],
        ["graph", str(corpus_dir / "s4.json"), "--out", str(tmp_path / "s4.graph.json")],
    ]
    script = (
        "import json, sys\n"
        "from agc.cli import main\n"
        "argv = json.loads(sys.argv[1])\n"
        "code = main(argv)\n"
        "loaded = [m for m in ('numpy.ma', 'concurrent.futures', 'multiprocessing',\n"
        "                      'dataclasses', 'agc.constructions', 'agc.witness',\n"
        "                      'agc.verify', 'agc.classify')\n"
        "          if m in sys.modules]\n"
        "print(json.dumps([argv[0], code, loaded]))\n"
    )
    assert [_run_fresh(script, json.dumps(argv), cwd=tmp_path)[0] for argv in commands] == [
        ["analyze", 0, ["agc.verify", "agc.classify"]],
        ["corpus", 0, ["agc.verify", "agc.classify"]],
        ["witness", 0, ["agc.constructions", "agc.witness", "agc.classify"]],
        ["graph", 0, []],
    ]


# the names agc exports, pinned: its lazy namespace lists and resolves each
PACKAGE_NAMES = [
    "AgcError", "CheckRecord", "Classification", "CommutingGraph", "DerivedSeries",
    "DiameterResult", "FiniteGroup", "FormatError", "GroupAnalysis", "GroupFile",
    "GroupTooLarge", "InvalidAction", "MalformedPermutation", "NotComplement",
    "NotNormal", "NotSolvable", "PrimeNotDividing", "Subgroup", "SylowSystem",
    "abelian", "alternating", "build_witness", "center", "centralizer", "classify",
    "closure", "conjugacy_classes", "constructions", "corollary_class", "cyclic",
    "derived_series", "derived_subgroup", "dicyclic", "dihedral", "direct_product",
    "errors", "fitting_subgroup", "full_subgroup", "generated_subgroup", "graph",
    "group_fingerprint", "group_report", "group_to_file", "groupfile",
    "is_2frobenius", "is_a_group", "is_frobenius", "is_solvable", "load_group",
    "matrix_action_group", "metacyclic", "minimal_normal_subgroups",
    "normal_subgroups", "normalizer", "p_part", "parse_group_file", "perm",
    "prime_divisors", "products", "quaternion", "quotient", "run_all_checks",
    "satisfies_hypothesis", "save_group", "semidirect_product",
    "serialize_group_file", "structure", "sylow_subgroup", "sylow_subgroups",
    "sylow_system", "symmetric", "system_normalizer", "trivial_subgroup", "verify",
    "witness", "witness_fingerprint",
]


def test_import_agc_loads_nothing_until_a_name_is_used(tmp_path):
    """In a fresh interpreter, ``import agc`` loads no ``agc`` module and no
    numpy, and lists the same names as before.  Each name, the five that
    perfbench/test_bench_inputs.py imports among them, then resolves to the
    object its defining module holds: a submodule to itself."""
    script = (
        "import importlib, json, sys, types\n"
        "import agc\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.startswith('agc.') or m.split('.')[0] == 'numpy')\n"
        "print(json.dumps([loaded, dir(agc), agc.__all__]))\n"
        "for name in json.loads(sys.argv[1]):\n"
        "    value = getattr(agc, name)\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        home, same = value.__name__, value is importlib.import_module(f'agc.{name}')\n"
        "    else:\n"
        "        home = value.__module__\n"
        "        same = getattr(importlib.import_module(home), name) is value\n"
        "    print(json.dumps([name, home.startswith('agc.') and same]))\n"
    )
    (loaded, names, exported), *resolved = _run_fresh(
        script, json.dumps(PACKAGE_NAMES), cwd=tmp_path)
    assert loaded == []
    assert names == exported == PACKAGE_NAMES
    assert resolved == [[name, True] for name in PACKAGE_NAMES]
    for name in ("cyclic", "direct_product", "group_fingerprint", "group_report",
                 "load_group"):
        assert name in PACKAGE_NAMES
    with pytest.raises(AttributeError, match="nosuch"):
        agc.nosuch


def test_corpus_pool_gets_no_more_workers_than_files(tmp_path, monkeypatch, capsys):
    """``corpus --jobs 1000`` over three files asks for a pool of three
    workers, and writes what ``--jobs 1`` writes, byte for byte but for the
    timings.  The pool is a serial stand-in, so no process is started."""
    import concurrent.futures

    def output():
        return re.sub(r'"millis": [-+.0-9e]+', '"millis": 0', capsys.readouterr().out)

    src = tmp_path / "groups"
    src.mkdir()
    for name, G in (("s3", symmetric(3)), ("c5", cyclic(5)), ("a4", alternating(4))):
        save_group(G, src / f"{name}.json")
    assert main(["corpus", str(src), "--jobs", "1"]) == 0
    serial = output()
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert main(["corpus", str(src), "--jobs", "1000"]) == 0
    assert workers == [3]
    assert output() == serial
    # fewer than one job is a usage error, not a run in this process
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_:
            main(["corpus", str(src), "--jobs", jobs])
        assert exit_.value.code == 1, jobs
        captured = capsys.readouterr()
        assert captured.out == "" and "error: argument --jobs" in captured.err, jobs
    assert workers == [3]


def test_usage_errors_exit_with_the_input_code(capsys):
    """argparse exits 2 on a usage error, and ``agc`` keeps 2 for a check
    failure: a missing argument, an option that is not an integer and an
    unknown command each exit 1 with the usage message on stderr, while
    ``--help`` still exits 0."""
    for argv in (["analyze"], ["corpus", "corpus", "--jobs", "x"],
                 ["--max-order", "y", "analyze", "f.json"], ["nosuch"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: agc") and "error: " in err, argv
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: agc")


def test_corpus_skips_corrupt_files_unless_strict(tmp_path, capsys):
    src = tmp_path / "groups"
    src.mkdir()
    save_group(symmetric(3), src / "s3.json")
    (src / "broken.json").write_text("{nope")
    out1 = tmp_path / "out1"
    assert main(["corpus", str(src), "--out", str(out1)]) == 0
    reports = json.loads((out1 / "reports.json").read_text())
    assert len(reports["skipped"]) == 1
    assert main(["corpus", str(src), "--strict", "--out",
                 str(tmp_path / "out2")]) == 1


def test_corpus_skips_undecodable_and_deeply_nested_files(tmp_path, capsys):
    huge = b'{"degree":2,"generators":[[1,%d]]}' % 10 ** 30
    for bad in (b"\xff\xfe\x00", b"[" * 100000, huge):
        src = tmp_path / "groups"
        src.mkdir(exist_ok=True)
        save_group(symmetric(4), src / "s4.json")
        (src / "bad.json").write_bytes(bad)
        out = tmp_path / "out"
        assert main(["corpus", str(src), "--out", str(out)]) == 0
        reports = json.loads((out / "reports.json").read_text())
        assert len(reports["reports"]) == 1 and len(reports["skipped"]) == 1
        assert main(["corpus", str(src), "--strict", "--out", str(out)]) == 1


def test_unwritable_output_is_an_error_not_a_traceback(s3_file, tmp_path, monkeypatch,
                                                       capsys):
    """An output path in a missing directory, an output path that is a
    directory (also '.' and '/', whose names are empty), or a corpus output
    directory that is a regular file, exits 1 with one error line and leaves
    no temporary file; the corpus command fails so before it analyses any
    file."""
    cli, analysed = importlib.import_module("agc.cli"), []
    monkeypatch.setattr(cli, "_analyze_one",
                        lambda work: analysed.append(work) or _analyze_one(work))
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing"
    regular = tmp_path / "regular"
    regular.write_text("")
    for argv in (["analyze", s3_file, "--out", str(missing / "r.json")],
                 ["witness", "diameter-4", "--emit", str(missing / "w.json")],
                 ["corpus", str(tmp_path), "--out", str(regular)]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
    assert analysed == []
    directory = tmp_path / "dir"
    (directory / "reports.json").mkdir(parents=True)
    for argv in (["analyze", s3_file, "--out", "."],
                 ["analyze", s3_file, "--out", str(directory)],
                 ["witness", "diameter-4", "--emit", "/"],
                 ["graph", s3_file, "--out", str(directory)],
                 ["corpus", str(tmp_path), "--out", str(directory)]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
    assert not list(tmp_path.rglob("*.tmp"))


def test_main_freezes_the_heap_at_exit_once_per_process(s3_file, tmp_path):
    """``main`` registers one exit handler however often it runs in a
    process, and whatever its exit codes, and by exit the heap is frozen: a
    handler registered before ``main`` runs after ``main``'s."""
    script = (
        "import atexit, gc, json, sys\n"
        "atexit.register(lambda: print(json.dumps(gc.get_freeze_count() > 0)))\n"
        "from agc.cli import main\n"
        "before = atexit._ncallbacks()\n"
        "codes = [main(json.loads(argv)) for argv in sys.argv[1:]]\n"
        "print(json.dumps([codes, atexit._ncallbacks() - before]))\n"
    )
    runs = [["graph", s3_file, "--out", str(tmp_path / "g.json")],
            ["witness", "nosuch"],
            ["analyze", s3_file, "--out", str(tmp_path / "a.json")]]
    assert _run_fresh(script, *map(json.dumps, runs), cwd=tmp_path) == [[[0, 1, 0], 1], True]


def test_corpus_skips_a_name_no_utf8_can_hold(tmp_path, capsys):
    """A JSON escape can spell a lone surrogate, which no UTF-8 output can
    hold: the file is skipped, ``--strict`` exits 1, and every output is
    whole, with no temporary file left behind."""
    src = tmp_path / "groups"
    src.mkdir()
    save_group(symmetric(3), src / "s3.json")
    (src / "bad.json").write_text('{"name": "s3\\ud800", "degree": 3, '
                                  '"generators": [[1, 0, 2], [1, 2, 0]]}')
    out = tmp_path / "out"
    assert main(["corpus", str(src), "--out", str(out)]) == 0
    reports = json.loads((out / "reports.json").read_text())
    assert [entry["file"] for entry in reports["skipped"]] == [str(src / "bad.json")]
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("S3,")
    assert main(["corpus", str(src), "--strict", "--out", str(out)]) == 1
    assert main(["analyze", str(src / "bad.json")]) == 1
    assert capsys.readouterr().err.count("not encodable as UTF-8") == 3
    assert not list(tmp_path.rglob("*.tmp"))


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    """Under the C locale, with UTF-8 mode off, a non-ASCII group name
    reaches summary.csv and standard output as UTF-8."""
    src = tmp_path / "groups"
    src.mkdir()
    save_group(symmetric(3), src / "s3.json")
    rows = group_to_file(symmetric(3)).generators
    (src / "s3e.json").write_text(serialize_group_file(GroupFile(3, rows, "s3-é")),
                                  encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(agc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}
    script = "import sys; from agc.cli import main; sys.exit(main())"
    for out in ([], ["--out", str(tmp_path / "out")]):
        proc = subprocess.run([sys.executable, "-c", script, "corpus", str(src), *out],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        text = proc.stdout if not out else (tmp_path / "out" / "summary.csv").read_bytes()
        assert "\ns3-é,6,".encode() in text
    assert not list(tmp_path.rglob("*.tmp"))


def test_write_output_removes_its_temporary_on_any_error(tmp_path):
    cli = importlib.import_module("agc.cli")
    with pytest.raises(UnicodeEncodeError):
        cli._write_output("s3\ud800", str(tmp_path / "out.txt"))
    assert list(tmp_path.iterdir()) == []


def test_corpus_missing_directory(tmp_path, capsys):
    assert main(["corpus", str(tmp_path / "nope")]) == 1


def _analyze_counting_calls(path, monkeypatch):
    """Runs ``_analyze_one`` on a group file and returns its row and the
    calls of the functions that compute shared invariants, as (name, args,
    result), with the loaded group."""
    modules = {name: importlib.import_module(f"agc.{name}") for name in (
        "classify", "cli", "graph", "products", "structure", "verify", "witness")}
    structure = modules["structure"]
    counted = {
        structure.derived_series: "derived_series",
        structure.center: "center",
        structure.fitting_subgroup: "fitting_subgroup",
        structure.sylow_subgroup: "sylow_subgroup",
        structure.conjugacy_classes: "conjugacy_classes",
        modules["products"].quotient: "quotient",
        modules["classify"].classify: "classify",
        modules["verify"].run_all_checks: "run_all_checks",
        modules["cli"].load_group: "load_group",
    }
    calls = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, result))
            return result
        return wrapper

    for module in modules.values():
        for attr, value in list(vars(module).items()):
            name = next((n for f, n in counted.items() if f is value), None)
            if name is not None:
                monkeypatch.setattr(module, attr, wrap(name, value))

    _, report, row, err = _analyze_one((str(path), DEFAULT_MAX_ORDER))
    assert err is None and row["all_pass"]
    (G,) = [result for name, _, result in calls if name == "load_group"]
    return row, calls, G


def _on_group(calls, G, name):
    """The calls of ``name`` on G, passed as the group or as its full subgroup."""
    return [(args, result) for n, args, result in calls if n == name and (
        args[0] is G or isinstance(args[0], Subgroup) and args[0].parent is G
        and args[0].order == G.order)]


def test_analyze_one_computes_each_invariant_once(corpus_dir, monkeypatch):
    """The report and the summary row of a corpus item share one analysis,
    which builds each Sylow subgroup of G once, for the A-group test, the
    Fitting subgroup and the Sylow system alike, and G/Z once.  G has a
    centre, so it is neither Frobenius nor 2-Frobenius and G/F(G) is not
    built.  G/Z grows no Sylow subgroups: it takes G's images."""
    _, calls, G = _analyze_counting_calls(corpus_dir / "c2xw60.json", monkeypatch)
    assert sum(name == "classify" for name, _, _ in calls) == 1
    assert sum(name == "run_all_checks" for name, _, _ in calls) == 1
    for name in ("derived_series", "center", "fitting_subgroup"):
        assert len(_on_group(calls, G, name)) == 1, name
    assert len(_on_group(calls, G, "conjugacy_classes")) <= 1
    primes = [args[1] for args, _ in _on_group(calls, G, "sylow_subgroup")]
    assert sorted(primes) == prime_divisors(G.order)
    quotients = _on_group(calls, G, "quotient")
    ((_, Z),) = _on_group(calls, G, "center")
    assert 1 < Z.order < G.order
    ((_, F),) = _on_group(calls, G, "fitting_subgroup")
    assert 1 < F.order < G.order
    # G/Z is the one quotient made, and no Sylow subgroup is grown in it
    ((args, _),) = quotients
    assert np.array_equal(args[1].members, Z.members)
    grown_in = [args[0].parent if isinstance(args[0], Subgroup) else args[0]
                for n, args, _ in calls if n == "sylow_subgroup"]
    assert all(H is G for H in grown_in)


def test_corpus_analyses_derive_37_series(corpus_dir, monkeypatch):
    """The Frobenius and 2-Frobenius tests read G/F(G) and G/Z without
    asking whether they are solvable, as every quotient of a solvable group
    is: the corpus analyses make 37 derived-series calls, where asking made
    77, and 51 when only G/Z was asked."""
    structure = importlib.import_module("agc.structure")
    derive, calls = structure.derived_series, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return derive(*args, **kwargs)

    for name in ("classify", "cli", "graph", "products", "structure", "verify", "witness"):
        module = importlib.import_module(f"agc.{name}")
        for attr, value in list(vars(module).items()):
            if value is derive:
                monkeypatch.setattr(module, attr, counted)
    for path in sorted(corpus_dir.glob("*.json")):
        assert _analyze_one((str(path), DEFAULT_MAX_ORDER))[3] is None
    assert len(calls) == 37


def test_corpus_sylow_growth_and_classes_close_nothing(corpus_dir, witness1500,
                                                       monkeypatch):
    """Over the corpus analyses, growing the Sylow subgroups makes no
    ``irredundant`` call, as each step is one product set P·⟨x⟩, and
    listing the classes makes no ``conjugations`` call, as it labels the
    orbits of the generators' conjugations.  Each Sylow subgroup keeps the
    members and generators that closing its generators gives."""
    modules = {name: importlib.import_module(f"agc.{name}") for name in (
        "classify", "cli", "graph", "perm", "products", "structure", "verify")}
    structure, perm = modules["structure"], modules["perm"]
    inside, entries, calls, grown = [], [], [], []

    def entered(name, fn):
        def wrapper(*args, **kwargs):
            entries.append(name)
            inside.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                inside.pop()
            if name == "sylow_subgroups":
                grown.append((args[0].parent, result))
            return result
        return wrapper

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, tuple(inside)))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {structure.sylow_subgroups: entered("sylow_subgroups", structure.sylow_subgroups),
                structure.conjugacy_classes: entered("conjugacy_classes",
                                                     structure.conjugacy_classes),
                perm.irredundant: counted("irredundant", perm.irredundant),
                perm.conjugations: counted("conjugations", perm.conjugations)}
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            wrapper = next((w for f, w in wrappers.items() if f is value), None)
            if wrapper is not None:
                monkeypatch.setattr(module, attr, wrapper)
    for path in sorted(corpus_dir.glob("*.json")):
        assert _analyze_one((str(path), DEFAULT_MAX_ORDER))[3] is None
    assert entries.count("sylow_subgroups") == 37 and "conjugacy_classes" in entries
    assert {name for name, _ in calls} == {"irredundant", "conjugations"}
    assert not [c for c in calls if c[0] == "irredundant" and "sylow_subgroups" in c[1]]
    assert not [c for c in calls if c[0] == "conjugations" and "conjugacy_classes" in c[1]]
    grown.append((witness1500, sylow_subgroups(full_subgroup(witness1500))))
    for G, sylows in grown:
        for P in sylows.values():
            Q = perm.generated_subgroup(G, P.generators)
            assert Q.generators == P.generators and np.array_equal(Q.members, P.members)


def test_corpus_analyses_grow_85_sylow_subgroups(corpus_dir, monkeypatch):
    """G/Z and G/F(G) take the images of G's Sylow subgroups, which are
    Sylow subgroups of the quotient, and each derived term K takes the
    Sylow system S ∩ K of G's canonical system S: the corpus analyses grow
    85, where growing each derived term's own grew 128, and growing the
    quotients' own as well grew 205.  A nonsolvable group's report reads G/Z for
    its diameter alone, and grows none."""
    structure = importlib.import_module("agc.structure")
    grow, calls = structure.sylow_subgroup, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return grow(*args, **kwargs)

    monkeypatch.setattr(structure, "sylow_subgroup", counted)
    for path in sorted(corpus_dir.glob("*.json")):
        assert _analyze_one((str(path), DEFAULT_MAX_ORDER))[3] is None
    assert len(calls) == 85
    calls.clear()
    report = group_report(direct_product(alternating(5), cyclic(2)))
    statuses = {c["id"]: c["status"] for c in report["checks"]}
    assert statuses["center-quotient-transfer"] == "pass"
    assert calls == []


def test_analyze_one_frees_the_group_without_the_cycle_collector(corpus_dir, monkeypatch):
    """A corpus item's group is freed when its analysis ends, not at some
    later run of the cyclic garbage collector, so the next item's arrays are
    not allocated on top of it."""
    cli = importlib.import_module("agc.cli")
    load, watched = cli.load_group, []

    def load_and_watch(*args, **kwargs):
        G = load(*args, **kwargs)
        watched.append(weakref.ref(G))
        return G

    monkeypatch.setattr(cli, "load_group", load_and_watch)
    gc.disable()
    try:
        for name in ("c2xw60", "diameter6-witness"):
            assert _analyze_one((str(corpus_dir / f"{name}.json"), DEFAULT_MAX_ORDER))[3] is None
            assert watched[-1]() is None, name
    finally:
        gc.enable()


def test_analyze_one_chooses_generators_only_where_read(corpus_dir, monkeypatch):
    """Subgroups found as member sets choose their generators only when
    something reads them: at most 3 choices on the order-1500 witness,
    where choosing them for every such subgroup took 29, and closing the
    p-cores' generators into F(G) kept 8."""
    choose = Subgroup.__dict__["generators"].func
    chosen = []

    def counted(self):
        chosen.append(self.order)
        return choose(self)

    prop = cached_property(counted)
    prop.__set_name__(Subgroup, "generators")
    monkeypatch.setattr(Subgroup, "generators", prop)
    path = corpus_dir / "diameter6-witness.json"
    assert _analyze_one((str(path), DEFAULT_MAX_ORDER))[3] is None
    assert len(chosen) <= 3


def test_graph_and_diagnostics_share_the_conjugacy_classes(corpus_dir, monkeypatch):
    """With a trivial centre the diagnostics' minimal normal subgroups and
    the graph's search sources both read the analysis's classes."""
    row, calls, G = _analyze_counting_calls(corpus_dir / "diameter4-witness.json",
                                            monkeypatch)
    assert row["center_order"] == 1
    assert len(_on_group(calls, G, "conjugacy_classes")) == 1


def test_sylow_systems_of_the_witness_conjugate_little(witness1500, monkeypatch):
    """The greedy Sylow systems of the order-1500 witness's derived terms
    make a small fraction of the 2005 + 9724 + 24 conjugations that building
    the full conjugacy orbit of every Sylow subgroup took."""
    conjugate_by = Subgroup.conjugate_by
    conjugations = []

    def counted(self, g):
        conjugations.append(g)
        return conjugate_by(self, g)

    monkeypatch.setattr(Subgroup, "conjugate_by", counted)
    for K in derived_series(full_subgroup(witness1500)).terms:
        sylow_system(K, sylow_subgroups(K))
    assert 100 * len(conjugations) < 2005 + 9724 + 24


def _fuzzed(obj, rng):
    """(label, valid, document) for mutations of the group file ``obj``: the
    ones a loader must reject, then a few that leave a valid group file."""
    n, gens = obj["degree"], obj["generators"]
    i = int(rng.integers(n))

    def with_image(value, at=i):
        images = list(gens[0])
        images[at] = value
        return {**obj, "generators": [images] + gens[1:]}

    invalid = [
        ("degree+1", {**obj, "degree": n + 1}),
        ("degree-1", {**obj, "degree": n - 1}),
        ("degree 0", {**obj, "degree": 0}),
        ("degree huge", {**obj, "degree": 10 ** 12}),
        ("degree beyond intp", {**obj, "degree": 10 ** 30, "generators": []}),
        ("degree bool", {**obj, "degree": True}),
        ("degree float", {**obj, "degree": float(n)}),
        ("degree string", {**obj, "degree": str(n)}),
        ("image dropped", {**obj, "generators": [gens[0][:i] + gens[0][i + 1:]] + gens[1:]}),
        ("image duplicated", with_image(gens[0][(i + 1) % n])),
        ("image out of range", with_image(n)),
        ("image negative", with_image(-1)),
        ("image huge", with_image(10 ** 30)),
        ("image huge negative", with_image(-10 ** 30)),
        # the mistyped images equal the right ones, so only their type is wrong
        ("image bool", with_image(True, gens[0].index(1))),
        ("image float", with_image(float(gens[0][i]))),
        ("image string", with_image(str(gens[0][i]))),
        ("image nested", with_image([gens[0][i]])),
        ("generator truncated", {**obj, "generators": gens[:-1] + [gens[-1][:i]]}),
        ("generator not a list", {**obj, "generators": gens[:-1] + [n]}),
        ("generators not a list", {**obj, "generators": {"0": gens[0]}}),
        ("name not a string", {**obj, "name": 7}),
        ("top level list", [obj]),
        ("top level string", json.dumps(obj)),
        ("top level number", n),
        ("top level null", None),
    ]
    fixed = [g + [n] for g in gens]  # one more point, fixed by every generator
    valid = [
        ("no name", {k: v for k, v in obj.items() if k != "name"}),
        ("extra key", {**obj, "note": [1, 2]}),
        ("generators reversed", {**obj, "generators": gens[::-1]}),
        ("generator repeated", {**obj, "generators": gens + gens[:1]}),
        ("identity added", {**obj, "generators": gens + [list(range(n))]}),
        ("fixed point added", {**obj, "degree": n + 1, "generators": fixed}),
        ("no generators", {**obj, "generators": []}),
    ]
    return [(label, False, doc) for label, doc in invalid] + \
        [(label, True, doc) for label, doc in valid]


@pytest.mark.parametrize("name", ["s3", "d8", "q8", "f20"])
def test_fuzzed_group_files_fail_only_with_an_input_error(name, corpus_dir, tmp_path,
                                                          capsys, address_space_cap):
    """A corpus file mutated into an invalid group file exits 1 with an
    ``error:`` line; one still valid analyses with exit code 0 or 2; no
    exception escapes ``main`` either way."""
    obj = json.loads((corpus_dir / f"{name}.json").read_text())
    path = tmp_path / "fuzzed.json"
    for label, valid, doc in _fuzzed(obj, np.random.default_rng(sum(map(ord, name)))):
        path.write_text(json.dumps(doc))
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        if valid:
            assert code in (0, 2) and err == "", (label, err)
        else:
            assert code == 1 and err.startswith("error: "), (label, code, err)
