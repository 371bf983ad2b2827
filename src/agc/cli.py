"""Command-line interface.

Commands:
  analyze <file>          classification, graph, and all checks as JSON
  corpus <dir>            analyze every group file; reports + CSV summary
  witness <name>          rebuild a registered witness group and emit it
  graph <file>            export the commuting graph (dot or json)

Exit codes: 0 ok, 1 input, output or usage error, 2 check failure,
3 fingerprint defect.

Each command imports only what it runs: ``agc.verify`` is loaded by
``analyze`` and ``corpus`` alone, ``agc.classify`` by every command but
``graph``, ``agc.witness`` (and with it ``agc.constructions``) by
``witness`` alone, and the process pool by ``corpus --jobs N`` with N > 1
alone.

``main`` freezes the heap at exit (``gc.freeze`` as an exit handler).  At
shutdown the interpreter otherwise runs a cyclic garbage collection over
every object alive, most of them made by numpy's import, which takes about
15 ms; frozen objects are skipped, and the operating system takes the
memory back.  Skipping that sweep loses nothing: agc defines no
``__del__``, every output file is closed before ``main`` returns, and the
interpreter flushes standard output itself.  Pool workers end by
``os._exit`` and run no exit handlers.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import functools
import gc
import io
import json
import sys
from pathlib import Path
from typing import Iterable

from .errors import AgcError
from .graph import CommutingGraph
from .groupfile import group_to_file, load_group, serialize_group_file
from .perm import DEFAULT_MAX_ORDER

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK_FAILURE = 2
EXIT_FINGERPRINT_DEFECT = 3

SUMMARY_COLUMNS = ["name", "order", "derived_length", "center_order", "a_group",
                   "frobenius", "two_frobenius", "hypothesis", "connected",
                   "diameter", "all_pass"]


def _write_output(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, a string or its pieces in turn, as UTF-8, whatever
    the locale, to standard output, or to the file ``out`` through a
    temporary file beside it, which a failed write removes again.  Pieces
    are written as they come, so the whole text is never held at once."""
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.flush()  # what was written before goes first
        for chunk in chunks:
            sys.stdout.buffer.write(chunk.encode("utf-8"))
        sys.stdout.buffer.flush()
        return
    path = Path(out)
    if path.is_dir():  # as are '.' and '/', the paths whose name is empty
        raise AgcError(f"{out} is a directory")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    from .verify import group_report

    G = load_group(args.file, max_order=args.max_order)
    report = group_report(G)
    _write_output(_report_json(report), args.out)
    failed = any(c["status"] == "fail" for c in report["checks"])
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def _analyze_one(path_and_cap: tuple[str, int]) -> tuple[str, dict | None, dict | None, str | None]:
    """Worker: returns (path, report, summary_row, error message)."""
    from .classify import GroupAnalysis
    from .verify import group_report, report_summary_row

    path, cap = path_and_cap
    try:
        G = load_group(path, max_order=cap)
    except (AgcError, OSError) as exc:
        return path, None, None, str(exc)
    a = GroupAnalysis(G)
    report = group_report(a)
    row = report_summary_row(a)
    row["name"] = G.name if G.name is not None else Path(path).stem
    return path, report, row, None


def _summary_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SUMMARY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in SUMMARY_COLUMNS})
    return buf.getvalue()


def cmd_corpus(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_INPUT
    paths = sorted(str(p) for p in directory.glob("*.json"))
    if not paths:
        print(f"error: no group files in {directory}", file=sys.stderr)
        return EXIT_INPUT
    cap = args.max_order
    if args.out is not None:
        # an unusable output directory fails before any analysis
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    work = [(p, cap) for p in paths]
    if args.jobs > 1:
        # imported only here: with multiprocessing it costs ~30 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        # a forking pool starts all its workers at the first submit, so it
        # gets no more of them than there are files
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(work))) as pool:
            results = list(pool.map(_analyze_one, work))
    else:
        results = [_analyze_one(w) for w in work]

    skipped = [{"file": path, "error": err}
               for path, _, _, err in results if err is not None]
    # one order for reports and rows, by the row's (order, name), whatever
    # the executor's scheduling
    done = sorted((r for r in results if r[3] is None),
                  key=lambda r: (r[2]["order"], r[2]["name"]))
    reports = [report for _, report, _, _ in done]
    rows = [row for _, _, row, _ in done]

    payload = {"reports": reports, "skipped": skipped}
    if args.out is None:
        _write_output(_report_json(payload) + _summary_csv(rows), None)
    else:
        _write_output(_report_json(payload), str(outdir / "reports.json"))
        _write_output(_summary_csv(rows), str(outdir / "summary.csv"))

    if skipped:
        for entry in skipped:
            print(f"skipped {entry['file']}: {entry['error']}", file=sys.stderr)
        if args.strict:
            return EXIT_INPUT
    failed = any(c["status"] == "fail" for r in reports for c in r["checks"])
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    from .witness import (
        WITNESS_BUILDERS,
        WITNESS_FINGERPRINTS,
        build_witness,
        diameter6_extra_checks,
        witness_fingerprint,
    )

    if args.name not in WITNESS_BUILDERS:
        print(f"error: unknown witness {args.name!r}; "
              f"choices: {', '.join(sorted(WITNESS_BUILDERS))}", file=sys.stderr)
        return EXIT_INPUT
    a = build_witness(args.name)
    G = a.group
    fp = witness_fingerprint(a)
    target = WITNESS_FINGERPRINTS[args.name]
    defects = {k: (fp.get(k), v) for k, v in target.items() if fp.get(k) != v}
    if args.name == "diameter-6":
        extras = diameter6_extra_checks(a)
        for key, ok in extras.items():
            if not ok:
                defects[key] = (False, True)
    if defects:
        print(f"error: witness fingerprint defect: {defects}", file=sys.stderr)
        return EXIT_FINGERPRINT_DEFECT
    text = serialize_group_file(group_to_file(G))
    _write_output(text, args.emit)
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    G = load_group(args.file, max_order=args.max_order)
    graph = CommutingGraph(G)
    chunks = graph.dot_chunks() if args.format == "dot" else graph.json_chunks()
    _write_output(chunks, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INPUT: argparse
    exits 2, which here means a check failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _job_count(text: str) -> int:
    """A ``--jobs`` value: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="agc",
        description="commuting-graph analysis of finite permutation groups",
    )
    parser.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                        help=f"cap for group closure (default {DEFAULT_MAX_ORDER})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one group file")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("corpus", help="analyze every group file in a directory")
    p.add_argument("dir")
    p.add_argument("--out", default=None,
                   help="directory for reports.json and summary.csv")
    p.add_argument("--jobs", type=_job_count, default=1)
    p.add_argument("--strict", action="store_true",
                   help="fail on unreadable group files")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("witness", help="rebuild and emit a witness group")
    p.add_argument("name")
    p.add_argument("--emit", default=None, help="output group file path")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("graph", help="export the commuting graph")
    p.add_argument("file")
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_graph)
    return parser


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Register ``gc.freeze`` as an exit handler once per process, however
    often ``main`` runs in it: unregistering and registering again would
    leave one more empty slot in atexit's table each time."""
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_heap_at_exit()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AgcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
