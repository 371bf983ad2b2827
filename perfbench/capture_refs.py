"""Capture the benchmark's reference outputs from the current agc at seed 0.

    python3 perfbench/capture_refs.py

Writes ``refs/``: the corpus ``reports.json`` without ``millis`` and its
``summary.csv``, the ``analyze`` report of the order-3000 group without
``millis``, and the two emitted witness files.  Run it only when the
outputs are meant to change; every benchmark pass is compared with these.
"""

from __future__ import annotations

import shutil
import sys

from bench_check import REFS, canonical_report
from run import WORK, WORKLOADS, Runner, fresh, setup, untraced_pass


def main() -> int:
    work = fresh(WORK / "capture")
    runner = Runner(work / "stderr.log")
    try:
        for name, files in (("corpus", ("reports.json", "summary.csv")),
                            ("analyze-3000", ("report.json",)),
                            ("witness", ("diameter-4.json", "diameter-6.json"))):
            wl = WORKLOADS[name]
            setup(runner, wl, 0, work / "inputs")
            _, _, codes = untraced_pass(runner, wl, work / "inputs", work / "out")
            if any(codes):
                raise SystemExit(f"{name}: exit codes {codes}:\n"
                                 + runner.log.read_text(errors="replace")[-2000:])
            dest = fresh(REFS / name)
            for file in files:
                text = (work / "out" / file).read_text(encoding="utf-8")
                if file.startswith("report"):
                    text = canonical_report(text)
                (dest / file).write_text(text, encoding="utf-8")
            shutil.rmtree(work / "inputs", ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
