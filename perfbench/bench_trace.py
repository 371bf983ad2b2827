"""Traced passes of the agc benchmark.

Spans are recorded from the benchmark's own code, around calls into agc's
modules; nothing in agc changes.  A span has a name, a start, an end, the
span that caused it and the item (group file or witness) it served.  Spans
are kept in memory and written out when the pass ends.

Three passes, each run in a fresh process:

``cli``
    Runs one ``agc.cli.main`` command with span wrappers installed at the
    module boundaries (every module-level reference to a wrapped function is
    replaced, so calls through any module are seen).  The ``cli.run`` span
    starts when the parent spawned the process, so it covers start-up.
``checks``
    Calls the checks of ``agc.verify`` directly, each on a ``GroupAnalysis``
    whose cached invariants were computed first inside ``verify.warm``, so a
    check's span is that check's own cost.
``memory``
    Closure plus table, then the commuting graph, under ``tracemalloc``, so
    memory tracing does not skew the timed spans of the other passes.

Usage (the paths of ``agc`` come from the checkout's ``src``):

    python3 bench_trace.py cli OUT.json SPAWNED_AT -- AGC_ARGS...
    python3 bench_trace.py checks OUT.json GROUP_FILES...
    python3 bench_trace.py memory OUT.json GROUP_FILES...
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared by all processes


class Recorder:
    """Spans in memory: dicts with id, name, start, end, parent, item, counts."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.stack: list[dict[str, Any]] = []
        self.item: str | None = None
        self.scan_infos: dict[int, Any] = {}  # is_2frobenius span id -> infos

    def open(self, name: str, start: float | None = None) -> dict[str, Any]:
        span = {"id": len(self.spans), "name": name,
                "start": clock() if start is None else start, "end": None,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "item": self.item, "counts": {}}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict[str, Any]) -> None:
        span["end"] = clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def count(self, key: str, n: int = 1) -> None:
        counts = self.stack[-1]["counts"]
        counts[key] = counts.get(key, 0) + n

    def write(self, path: Path, **extra: Any) -> None:
        path.write_text(json.dumps({"spans": self.spans, **extra}))


# -- span wrappers at agc's module boundaries ---------------------------------


def _wrap(rec: Recorder, name: str, fn: Callable,
          counts: Callable[[tuple, Any], dict[str, int]] | None = None,
          item: Callable[[tuple], str] | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if item is not None:
            rec.item = item(args)
        with rec.span(name) as s:
            result = fn(*args, **kwargs)
            if counts is not None:
                s["counts"].update(counts(args, result))
        return result
    return wrapper


def install(rec: Recorder) -> None:
    """Replace agc's functions and methods at layer boundaries by span wrappers."""
    # agc's package namespace rebinds some module names (``agc.classify`` is
    # the function), so take the modules from the import system
    (classify, cli, constructions, graph, groupfile, perm, products, structure,
     verify, witness) = (importlib.import_module(f"agc.{m}") for m in (
        "classify", "cli", "constructions", "graph", "groupfile", "perm",
        "products", "structure", "verify", "witness"))

    def adjacency_bytes(args, _):
        n = args[0].n_vertices  # bool matrix plus its bit-packed rows
        return {"graph.vertices": n, "graph.adjacency_bytes": n * n + n * ((n + 7) // 8)}

    functions: dict[Any, Callable] = {
        groupfile.load_group: _wrap(
            rec, "groupfile.load", groupfile.load_group,
            item=lambda a: Path(a[0]).stem),
        groupfile.parse_group_file: _wrap(
            rec, "groupfile.parse", groupfile.parse_group_file),
        perm.closure: _wrap(
            rec, "perm.closure", perm.closure,
            counts=lambda a, g: {"perm.elements": g.order}),
        products.quotient: _wrap(
            rec, "products.quotient", products.quotient,
            counts=lambda a, r: {"products.quotients": 1}),
        structure.derived_series: _wrap(
            rec, "structure.derived_series", structure.derived_series),
        structure.center: _wrap(rec, "structure.center", structure.center),
        structure.fitting_subgroup: _wrap(
            rec, "structure.fitting", structure.fitting_subgroup),
        structure.sylow_system: _wrap(
            rec, "structure.sylow_system", structure.sylow_system),
        structure.normal_subgroups: _normal_subgroups(rec, structure.normal_subgroups),
        classify.classify: _wrap(rec, "classify.classify", classify.classify),
        classify.is_2frobenius: _is_2frobenius(rec, classify.is_2frobenius),
        verify.group_fingerprint: _wrap(
            rec, "verify.fingerprint", verify.group_fingerprint),
        verify.group_report: _wrap(rec, "verify.group_report", verify.group_report),
        verify.report_summary_row: _wrap(
            rec, "verify.summary_row", verify.report_summary_row),
        witness.build_witness: _wrap(
            rec, "witness.build", witness.build_witness, item=lambda a: a[0]),
        witness.witness_fingerprint: _wrap(
            rec, "witness.fingerprint", witness.witness_fingerprint),
        witness.diameter6_extra_checks: _wrap(
            rec, "witness.extra_checks", witness.diameter6_extra_checks),
        graph._bfs_packed: _counted(rec, "graph.bfs_sources", graph._bfs_packed),
    }
    for module in (classify, cli, constructions, graph, groupfile, perm, products,
                   structure, verify, witness):
        for attr, value in list(vars(module).items()):
            if callable(value) and value in functions:
                setattr(module, attr, functions[value])

    FG, CG = perm.FiniteGroup, graph.CommutingGraph
    FG._build_table = _wrap(rec, "perm.table", FG._build_table,
                            counts=lambda a, _: {"perm.table_bytes": a[0].order ** 2 * 4})
    CG.__init__ = _wrap(rec, "graph.build", CG.__init__, counts=adjacency_bytes)
    CG.twin_reduce = _wrap(rec, "graph.twin_reduce", CG.twin_reduce,
                           counts=lambda a, r: {"graph.reduced_vertices": r.n_vertices})
    full_diameter, reduced_diameter = (
        _wrap(rec, "graph.diameter", CG.diameter),
        _wrap(rec, "graph.reduced_diameter", CG.diameter))

    def diameter(self):
        # twin_reduce marks the graphs it returns with class_sizes
        if hasattr(self, "class_sizes"):
            return reduced_diameter(self)
        return full_diameter(self)
    CG.diameter = diameter


def _counted(rec: Recorder, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(key)
        return fn(*args, **kwargs)
    return wrapper


def _normal_subgroups(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(G):
        with rec.span("structure.normal_subgroups") as s:
            infos = fn(G)
            s["counts"]["structure.normal_subgroups"] = len(infos)
        parent = s["parent"]
        if parent is not None and rec.spans[parent]["name"] == "classify.is_2frobenius":
            rec.scan_infos[parent] = infos  # the fallback pair scan is about to run
        return infos
    return wrapper


def _is_2frobenius(rec: Recorder, fn: Callable) -> Callable:
    """Counts the pairs the fallback scan visits: all k^2 (the skipped
    canonical pair included) when it finds nothing, else up to the hit."""
    @functools.wraps(fn)
    def wrapper(G):
        with rec.span("classify.is_2frobenius") as s:
            ok, pair = fn(G)
            infos = rec.scan_infos.pop(s["id"], None)
            if infos is not None:
                keys = [info.subgroup.key() for info in infos]
                k = len(keys)
                scanned = (keys.index(pair[0].key()) * k + keys.index(pair[1].key()) + 1
                           if ok else k * k)
                s["counts"].update({"classify.pair_scan_pairs": scanned,
                                    "classify.fallback_hits": int(ok)})
        return ok, pair
    return wrapper


# -- the three passes ---------------------------------------------------------


def cli_pass(out: Path, spawned_at: float, argv: list[str]) -> int:
    rec = Recorder()
    run = rec.open("cli.run", start=spawned_at)
    startup = rec.open("cli.startup", start=spawned_at)
    from agc import cli

    install(rec)
    rec.close(startup)
    code = cli.main(argv)
    rec.close(run)
    rec.write(out, code=code)
    return 0


CHECKS = ("check_derived_center_intersection", "check_system_normalizer_complement",
          "check_fitting_decomposition", "check_stray_p_part_centralizers",
          "proof_diagnostics")


def checks_pass(out: Path, files: list[str]) -> int:
    from agc import verify
    from agc.groupfile import load_group

    checks = [(name.removeprefix("check_"), getattr(verify, name)) for name in CHECKS]
    rec = Recorder()
    for path in files:
        rec.item = Path(path).stem
        G = load_group(path)
        with rec.span("verify.warm"):
            a = verify.GroupAnalysis(G)
            for invariant in ("classification", "series", "center", "derived",
                              "fitting", "graph", "diameter"):
                getattr(a, invariant)
        for name, check in checks:
            with rec.span(f"verify.check.{name}"):
                check(a)
    rec.write(out)
    return 0


def memory_pass(out: Path, files: list[str]) -> int:
    from agc.graph import CommutingGraph
    from agc.groupfile import parse_group_file
    from agc.perm import closure

    rec = Recorder()
    tracemalloc.start()

    def peak(name: str, fn: Callable[[], Any]) -> Any:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with rec.span(name) as s:
            result = fn()
            s["counts"][f"{name}_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        return result

    for path in files:
        rec.item = Path(path).stem
        gf = parse_group_file(Path(path).read_text(encoding="utf-8"))

        def group():
            G = closure(gf.degree, gf.generators, name=gf.name)
            G.table  # lazy above the table cap
            return G
        G = peak("perm.peak", group)
        peak("graph.peak", lambda: CommutingGraph(G))
    tracemalloc.stop()
    rec.write(out)
    return 0


# -- metrics from spans --------------------------------------------------------


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics from one set of spans.

    ``<name>_s`` is the summed time of the outermost spans with that name,
    except ``perm.closure_s``, which excludes the table builds nested in
    closures.  ``<module>.self_s`` sums self time by module, and
    ``cli.residual_s`` is the self time of ``cli.run``: the command's work
    outside start-up and the item spans.  ``*_mb`` counts take the maximum,
    other counts the sum.
    """
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    def nested(s: dict[str, Any]) -> bool:
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] == s["name"]:
                return True
            parent = by_id[parent]["parent"]
        return False

    for s in spans:
        name = s["name"]
        if name == "perm.closure":
            add("perm.closure_s", own[s["id"]])
        elif not nested(s):
            add(f"{name}_s", s["end"] - s["start"])
        if name == "cli.run":
            add("cli.residual_s", own[s["id"]])
        add(f"{name.split('.')[0]}.self_s", own[s["id"]])
        for key, value in s["counts"].items():
            out[key] = max(out.get(key, 0.0), value) if key.endswith("_mb") \
                else out.get(key, 0) + value
    return out


PASSES = {"checks": checks_pass, "memory": memory_pass}


def main(argv: list[str]) -> int:
    from bench_inputs import import_agc

    mode, out = argv[0], Path(argv[1])
    import_agc()  # inside cli.startup: that span starts at the spawn
    if mode == "cli":
        return cli_pass(out, float(argv[2]), argv[argv.index("--") + 1:])
    return PASSES[mode](out, argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
