"""The agc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs the workload's commands
through ``agc.cli.main`` in fresh processes, as a user would, and checks
their outputs and exit codes against ``refs/``.  With ``--trace 0`` it
repeats set-ups and passes for ``--seconds`` and reports the end-to-end
metrics; with ``--trace 1`` it makes a traced pass between two untraced
ones, then the direct ``checks`` and ``memory`` passes of ``bench_trace.py``,
and reports the per-layer metrics.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bench_check import Tally, check_analyze, check_corpus, check_witness
from bench_inputs import PRODUCT_NAME
from bench_trace import clock, span_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUPS = 5  # fewest set-ups in a timed run; setup_s is their median
RUN_LIMIT_S = 170.0  # every process of a run is killed past this
AGC_MAIN = "import sys; from agc.cli import main; sys.exit(main())"
PROBE_EVICT = 1 << 19  # int64s the speed probe gathers from: 4 MB, twice L2
PROBE_STEPS = 300  # dict updates the speed probe times
PROBE_PERIOD_S = 0.02  # pause between two probes
REF_PROBE_S = 5e-5  # the probe's time at the reference CPU speed
SPAWNED = object()  # argv placeholder for the spawn time of a traced process


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[Path, Path], list[list[str]]]  # (inputs, out) -> agc argvs
    check: Callable[[Path, list[int], Tally], None]  # (out, exit codes, tally)
    groups: Callable[[Path, Path], list[Path]]  # group files for checks/memory
    checks_pass: bool  # whether the workload runs agc.verify


def _corpus(jobs: int) -> Callable[[Path, Path], list[list[str]]]:
    return lambda inp, out: [["corpus", str(inp), "--jobs", str(jobs),
                              "--out", str(out)]]


def _check_witnesses(out: Path, codes: list[int], tally: Tally) -> None:
    for name, code in zip(WITNESSES, codes):
        check_witness(out / f"{name}.json", code, tally)


WITNESSES = ("diameter-4", "diameter-6")
# The corpus at --jobs 2, timed once in a traced corpus run for
# cli.pool_idle_s.  Not a workload of its own: two busy pool workers on the
# two cores spread its wall time too widely for a bound.
JOBS2 = Workload("corpus-jobs2", _corpus(2),
                 lambda out, codes, t: check_corpus(out, codes[0], t),
                 lambda inp, out: sorted(inp.glob("*.json")), True)
WORKLOADS = {w.name: w for w in (
    Workload("corpus", _corpus(1),
             lambda out, codes, t: check_corpus(out, codes[0], t),
             lambda inp, out: sorted(inp.glob("*.json")), True),
    Workload("analyze-3000",
             lambda inp, out: [["analyze", str(inp / f"{PRODUCT_NAME}.json"),
                                "--out", str(out / "report.json")]],
             lambda out, codes, t: check_analyze(out / "report.json", codes[0], t),
             lambda inp, out: [inp / f"{PRODUCT_NAME}.json"], True),
    Workload("witness",
             lambda inp, out: [["witness", name, "--emit", str(out / f"{name}.json")]
                               for name in WITNESSES],
             _check_witnesses,
             lambda inp, out: [out / f"{name}.json" for name in WITNESSES], False),
)}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs one child process at a time and measures it with wait4."""

    def __init__(self, log: Path):
        self.log = log
        self.deadline = clock() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("AGC_MAX_ORDER", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def run(self, argv: list) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS in MB of the child and the
        descendants it waited for."""
        timeout = max(1.0, self.deadline - clock())
        with open(self.log, "ab") as err:
            start = clock()
            argv = [repr(start) if a is SPAWNED else str(a) for a in argv]
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            _kill_group(proc.pid)  # pool workers of a killed command
        return proc.returncode, wall, usage.ru_maxrss / 1024


def _dict_steps(n: int) -> dict[int, int]:
    d: dict[int, int] = {}
    for i in range(n):
        d[i % 50] = d.get(i % 50, 0) + 1
    return d


class SpeedProbe:
    """Samples the CPU speed while commands run.

    A thread of the benchmark process probes every PROBE_PERIOD_S (about
    5 % of a core).  The main thread idles in wait4 meanwhile, so the probe
    runs on the core the command leaves free.  A probe gathers from a 4 MB
    array, which churns its core's L2, then times PROBE_STEPS dict updates:
    interpreted Python on a cold L2, as agc's is.  The cores of the shared
    host slow down and speed up together, by up to 1.5x within seconds, and
    a command's time moves with them; ``scale`` turns a time measured in
    [start, end] into seconds at the reference speed.  The steps are timed
    in the thread's own CPU time, so a command that keeps both cores busy
    delays the probe without making the CPU look slower.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._table = np.arange(PROBE_EVICT, dtype=np.int64)
        self._index = np.random.default_rng(0).permutation(PROBE_EVICT)[:PROBE_EVICT // 8]
        self._gathered = np.empty(len(self._index), dtype=np.int64)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            start = clock()
            np.take(self._table, self._index, out=self._gathered)
            cpu = time.thread_time()
            _dict_steps(PROBE_STEPS)
            self.samples.append((start, time.thread_time() - cpu))

    def scale(self, start: float, end: float) -> float:
        """REF_PROBE_S over the mean probe time in [start, end], widened
        until it holds a few probes.  The mean, not the median: a command's
        time adds up the speed of every moment it ran."""
        pad = 0.0
        while True:
            times = [d for t, d in self.samples if start - pad <= t <= end + pad]
            if len(times) >= 5 or pad > 10.0:
                break
            pad += 0.1
        return REF_PROBE_S / statistics.fmean(times) if times else 1.0

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def untraced_pass(runner: Runner, wl: Workload, inputs: Path,
                  out: Path) -> tuple[float, float, list[int]]:
    """Wall seconds, peak RSS in MB and exit codes of the workload's commands."""
    fresh(out)
    wall, rss, codes = 0.0, 0.0, []
    for argv in wl.commands(inputs, out):
        code, w, r = runner.run([sys.executable, "-c", AGC_MAIN, *argv])
        wall, rss = wall + w, max(rss, r)
        codes.append(code)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return wall, max(rss, self_rss), codes


def setup(runner: Runner, wl: Workload, seed: int, inputs: Path) -> float:
    """One set-up in a fresh process: import agc and write the inputs."""
    code, wall, _ = runner.run([sys.executable, HERE / "bench_inputs.py",
                                "--workload", wl.name, "--seed", str(seed),
                                "--out", inputs])
    if code != 0:
        raise SystemExit(f"set-up failed with exit code {code}:\n"
                         + runner.log.read_text(errors="replace")[-2000:])
    return wall


def timed_run(runner: Runner, wl: Workload, seed: int, seconds: int,
              work: Path, tally: Tally) -> dict[str, float]:
    """Set up and pass until ``seconds`` have passed.  A set-up precedes every
    pass, and at least SETUPS are made, so that setup_s samples the same
    stretch of time as wall_s.  Both are scaled to the reference CPU speed
    by a SpeedProbe that runs throughout."""
    inputs = work / "inputs"
    setups, walls, rsses = [], [], []  # set-up and pass times as measured
    probe = SpeedProbe()
    scaled: dict[str, list[float]] = {"setup_s": [], "wall_s": []}

    def set_up() -> None:
        start = clock()
        setups.append(setup(runner, wl, seed, inputs))
        scaled["setup_s"].append(setups[-1] * probe.scale(start, clock()))

    try:
        start = clock()
        while True:
            set_up()
            begin = clock()
            wall, rss, codes = untraced_pass(runner, wl, inputs, work / "out")
            scaled["wall_s"].append(wall * probe.scale(begin, clock()))
            walls.append(wall)
            rsses.append(rss)
            wl.check(work / "out", codes, tally)
            if clock() - start >= seconds or clock() + wall > runner.deadline:
                break
        while len(setups) < SETUPS:
            set_up()
    finally:
        probe.close()
    for name, measured in (("wall_s", walls), ("setup_s", setups)):
        print(f"{wl.name}: {name} of {len(measured)}, as measured "
              f"{' '.join(f'{x:.3f}' for x in measured)}; scaled "
              f"{' '.join(f'{x:.3f}' for x in scaled[name])}")
    return {"setup_s": statistics.median(scaled["setup_s"]),
            "wall_s": statistics.median(scaled["wall_s"]),
            "peak_rss_mb": statistics.median(rsses)}


def _spans(path: Path, offset: int) -> tuple[list[dict], int]:
    """Spans of one traced process, renumbered after ``offset``; and its code."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return [], -1
    for s in data["spans"]:
        s["id"] += offset
        if s["parent"] is not None:
            s["parent"] += offset
    return data["spans"], data.get("code", 0)


def traced_run(runner: Runner, wl: Workload, seed: int, work: Path,
               tally: Tally) -> dict[str, float]:
    """Untraced, traced, untraced again: the tracing overhead is the traced
    pass minus the mean of the untraced passes around it."""
    inputs = work / "inputs"
    setup(runner, wl, seed, inputs)
    tracer = HERE / "bench_trace.py"
    trace_file = WORK / f"trace-{wl.name}-seed{seed}.json"
    jobs2_wall = None
    if wl.name == "corpus":
        jobs2_wall, _, codes = untraced_pass(runner, JOBS2, inputs, work / "out")
        JOBS2.check(work / "out", codes, tally)

    def untraced() -> float:
        wall, _, codes = untraced_pass(runner, wl, inputs, work / "out")
        wl.check(work / "out", codes, tally)
        return wall
    walls = [untraced()]

    out = fresh(work / "traced")
    cli_spans: list[dict] = []
    traced_wall, codes = 0.0, []
    for k, argv in enumerate(wl.commands(inputs, out)):
        spans_file = work / f"cli-{k}.json"
        _, w, _ = runner.run([sys.executable, tracer, "cli", spans_file, SPAWNED,
                              "--", *argv])
        spans, code = _spans(spans_file, len(cli_spans))
        cli_spans += spans
        traced_wall += w
        codes.append(code)
    wl.check(out, codes, tally)
    walls.append(untraced())
    wall = statistics.mean(walls)
    metrics = span_metrics(cli_spans)

    other: dict[str, list[dict]] = {}
    groups = [g for g in wl.groups(inputs, out) if g.is_file()]
    for mode in ("checks", "memory") if wl.checks_pass else ("memory",):
        spans_file = work / f"{mode}.json"
        code, _, _ = runner.run([sys.executable, tracer, mode, spans_file, *groups])
        tally.item(code == 0, f"{mode} pass (exit code {code})")
        other[mode] = _spans(spans_file, 0)[0]
        metrics.update((k, v) for k, v in span_metrics(other[mode]).items()
                       if not k.endswith(".self_s"))

    item_work = sum(metrics.get(k, 0.0) for k in (
        "groupfile.load_s", "verify.group_report_s", "verify.summary_row_s"))
    metrics["cli.jobs2_wall_s"] = jobs2_wall or 0.0
    metrics["cli.pool_idle_s"] = 2 * jobs2_wall - item_work if jobs2_wall else 0.0
    metrics["cli.output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    metrics["trace.overhead_s"] = traced_wall - wall
    trace_file.write_text(json.dumps(
        {"cli": cli_spans, **other, "untraced_walls_s": walls,
         "jobs2_wall_s": jobs2_wall}))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="agc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    work = fresh(WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}")
    runner = Runner(work / "stderr.log")
    tally = Tally()
    try:
        if args.trace:
            measured = traced_run(runner, wl, args.seed, work, tally)
        else:
            measured = timed_run(runner, wl, args.seed, args.seconds, work, tally)
        for where in tally.failures:
            print(f"failed: {where}", file=sys.stderr)
        if tally.failures:
            sys.stderr.write(runner.log.read_text(errors="replace")[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(f"fail_ratio {tally.failed}/{tally.attempted}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
