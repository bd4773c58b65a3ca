"""Benchmark of the onlinefair CLI: one closed-loop client, one query at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each query is a fresh ``python3 -m onlinefair.cli`` process run from
``src/``, under the default enumeration budget; nothing is installed.  The
workload's inputs are built first, ``SETUP_REPEATS`` times in fresh
directories.  Then the workload's query list runs pass after pass for about
S seconds, every answer is checked, and the last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The host's speed drifts by 10-20% over minutes, so ``reference_job.py``, a
miniature query that does not touch the program, runs before every second
query.  A pass's scale is the reference job's mean time in it over
``REFERENCE_S``; a scaled time is a measured time divided by the scale: the
time at the reference job's nominal speed.

With ``--trace 0`` the metrics are the end-to-end ones: ``scaled_wall_s``
(median over passes of the queries' summed wall time, scaled),
``peak_rss_mb`` (largest max-RSS of any query process) and ``setup_s``
(median build time, divided by the run's median scale).  With ``--trace 1``
untraced and traced passes alternate; the traced ones run each query through
``trace_entry.py`` and the metrics are the per-layer ones (medians over the
traced passes), the unscaled ``wall_s``, ``reference.scale`` and
``trace.overhead_ratio``.  A failure is a nonzero exit (exit 3, budget
exceeded, included), a timeout or a wrong answer; ``fail_ratio`` is
failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Mismatch, build

SETUP_REPEATS = 3
# the reference job's usual time between queries on the baseline machine
# (README.md)
REFERENCE_S = 0.2
QUERY_TIMEOUT_S = 60
HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    code: int
    timed_out: bool
    stdout: str
    stderr: str
    start: float
    end: float
    maxrss_kb: int
    spans: dict | None


def reference_job() -> float:
    """Seconds taken by one run of ``reference_job.py``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "reference_job.py")], check=True)
    return time.perf_counter() - start


class Runner:
    """Spawns CLI processes from the checkout at ``root``, one at a time."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"),
                    "PYTHONHASHSEED": "0"}
        self.env.pop("ONLINEFAIR_BUDGET", None)
        self.query_id = 0

    def run(self, argv, traced: bool) -> Outcome:
        """One CLI call, through the traced entry point when ``traced``."""
        self.query_id += 1
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "trace_entry.py"), str(spans_path),
                   str(self.query_id), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "onlinefair.cli", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            try:
                status, usage, timed_out = _wait(proc.pid)
            except BaseException:  # interrupted: stop the child, then re-raise
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                    os.waitpid(proc.pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
                raise
            end = time.perf_counter()
        # wait4 reaped the child; tell Popen so it never waits on the pid again
        proc.returncode = os.waitstatus_to_exitcode(status)
        # a killed traced process leaves no spans; it counts as a failure
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
        return Outcome(proc.returncode, timed_out, out_path.read_text(),
                       err_path.read_text(), start, end, usage.ru_maxrss, spans)


def _wait(pid: int):
    """Wait for the child with a timeout; returns (status, rusage, timed_out).

    The child is left unreaped (WNOWAIT) until the timer can no longer fire,
    so the kill can never hit a recycled pid."""
    lock = threading.Lock()
    state = {"done": False, "timed_out": False}

    def kill():
        with lock:
            if not state["done"]:
                state["timed_out"] = True
                os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(QUERY_TIMEOUT_S, kill)
    timer.daemon = True
    timer.start()
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    with lock:
        state["done"] = True
    timer.cancel()
    _, status, usage = os.wait4(pid, 0)
    return status, usage, state["timed_out"]


class Bench:
    """One run: set-up, measuring rounds, answer checks and failure counts."""

    def __init__(self, runner: Runner, trace: bool):
        self.runner = runner
        self.trace = trace
        self.attempted = 0
        self.failures: list[str] = []
        self.budget_exceeded = 0
        self.peak_rss_kb = 0
        self.follow_ups: dict[tuple, dict] = {}
        self.setup_spans: list[dict] = []

    def call(self, argv, traced: bool = False) -> dict:
        """A set-up or follow-up call that must succeed; returns its JSON."""
        outcome = self.runner.run(argv, traced)
        if outcome.code != 0:
            raise Mismatch(f"{' '.join(argv)} exited {outcome.code}: "
                           f"{outcome.stderr.strip()}")
        result = json.loads(outcome.stdout)
        if traced:
            self.setup_spans.append(outcome.spans)
        return result

    def follow_up(self, argv) -> dict:
        key = tuple(argv)
        if key not in self.follow_ups:
            self.follow_ups[key] = self.call(argv)
        return self.follow_ups[key]

    def setup(self, workload: str, seed: int) -> tuple[list, list[float], list[dict]]:
        """Build the inputs SETUP_REPEATS times; returns (queries, seconds
        per build, generator metrics per build when tracing)."""
        times, layers = [], []
        for repeat in range(SETUP_REPEATS):
            self.setup_spans = []
            start = time.perf_counter()
            queries = build(workload, seed, self.runner.workdir / f"setup{repeat}",
                            lambda argv: self.call(argv, self.trace))
            times.append(time.perf_counter() - start)
            if self.trace:
                calls, self_s, _ = span_totals(self.setup_spans)
                layers.append({
                    "generators.calls": _sum_prefix(calls, "generators."),
                    "generators.self_s": _sum_prefix(self_s, "generators."),
                })
        return queries, times, layers

    def run_pass(self, queries, traced: bool) -> tuple[float, float, list[dict]]:
        """Run every query once, the reference job before every second one;
        returns (the queries' summed wall time, the pass's scale, span
        documents)."""
        outcomes, references = [], []
        for index, query in enumerate(queries):
            if index % 2 == 0:
                references.append(reference_job())
            outcomes.append((query, self.runner.run(query.argv, traced)))
        for query, outcome in outcomes:
            self.attempted += 1
            self.peak_rss_kb = max(self.peak_rss_kb, outcome.maxrss_kb)
            problem = self.problem(query, outcome)
            if problem:
                self.failures.append(f"{query.label}: {problem}")
        wall = sum(outcome.end - outcome.start for _, outcome in outcomes)
        return (wall, statistics.mean(references) / REFERENCE_S,
                [outcome.spans for _, outcome in outcomes if outcome.spans])

    def problem(self, query, outcome: Outcome) -> str | None:
        if outcome.timed_out:
            return f"timed out after {QUERY_TIMEOUT_S} s"
        if outcome.code == 3:
            self.budget_exceeded += 1
        if outcome.code != 0:
            return f"exit {outcome.code}: {outcome.stderr.strip()[-300:]}"
        try:
            query.check(json.loads(outcome.stdout), self.follow_up)
        except Mismatch as exc:
            return f"wrong answer: {exc}"
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable answer: {exc!r}"
        return None

    def measure(self, queries, seconds: float):
        """Rounds until the next one would overrun ``seconds``.  A round is
        an untraced pass and, with tracing, a traced one.  Returns ((pass
        time, scale) by traced, layer rows)."""
        walls = {False: [], True: []}
        layers = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for traced in ((False, True) if self.trace else (False,)):
                wall, scale, docs = self.run_pass(queries, traced)
                walls[traced].append((wall, scale))
                if traced:
                    layers.append(pass_layers(docs))
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                return walls, layers


def span_totals(docs):
    """Per span name: calls and self time (duration minus the time covered by
    child spans), plus the number of exact_utility calls made by manipulation."""
    calls, self_s = Counter(), Counter()
    rows = 0
    for doc in docs:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for name, parent, count, total in doc["leaves"]:
            if parent >= 0:
                covered[parent] += total
            calls[name] += count
            self_s[name] += total
        for index, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[index]
            if (name == "engine.exact_utility" and parent >= 0
                    and spans[parent][0].startswith("manipulation.")):
                rows += 1
    return calls, self_s, rows


def _sum_prefix(counter: Counter, prefix: str):
    return sum(value for name, value in counter.items() if name.startswith(prefix))


def pass_layers(docs) -> dict:
    calls, self_s, rows = span_totals(docs)
    return {
        "engine.outcome_report.calls": calls["engine.outcome_report"],
        "engine.outcome_report.self_s": self_s["engine.outcome_report"],
        "mechanisms.feasible_for_counts.calls": calls["mechanisms.feasible_for_counts"],
        "mechanisms.feasible_for_counts.self_s": self_s["mechanisms.feasible_for_counts"],
        "engine.possible_item.calls": calls["engine.possible_item"],
        "engine.possible_item.self_s": self_s["engine.possible_item"],
        "manipulation.rows.calls": rows,
        "manipulation.self_s": _sum_prefix(self_s, "manipulation."),
        "engine.exact_utility.self_s": self_s["engine.exact_utility"],
        "engine.monte_carlo_estimate.calls": calls["engine.monte_carlo_estimate"],
        "engine.monte_carlo_estimate.self_s": self_s["engine.monte_carlo_estimate"],
        "engine.online.self_s": self_s["engine.online"],
        "core.instance_from_json_dict.self_s": self_s["core.instance_from_json_dict"],
        "core.to_json_dict.self_s": self_s["core.to_json_dict"],
        "cli.main.self_s": self_s["cli.main"],
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith((".calls", ".count")) else "ratio"


def _medians(rows: list[dict]) -> dict:
    """Per metric, the median over passes; median_low keeps counts whole."""
    return {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "onlinefair" / "cli.py").is_file():
        print(f"error: no onlinefair sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(Runner(root, workdir), bool(args.trace))
        try:
            queries, setup_times, setup_layers = bench.setup(args.workload, args.seed)
            walls, layers = bench.measure(queries, args.seconds)
        except Mismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    for failure in bench.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    failed = len(bench.failures)
    fail_ratio = failed / bench.attempted
    wall_s = statistics.median(wall for wall, _ in walls[False])
    scaled_wall_s = statistics.median(wall / factor for wall, factor in walls[False])
    scale = statistics.median(factor for _, factor in walls[False])
    setup_s = statistics.median(setup_times) / scale
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(walls[False])} "
          f"queries/pass={len(queries)} wall_s={wall_s:.3f} "
          f"scaled_wall_s={scaled_wall_s:.3f} reference.scale={scale:.3f} "
          f"peak_rss_mb={bench.peak_rss_kb / 1024:.1f} "
          f"setup_s={setup_s:.3f} (unscaled {statistics.median(setup_times):.3f}) "
          f"fail_ratio={fail_ratio:g} ({failed}/{bench.attempted})")
    if args.trace:
        traced_s = statistics.median(wall / factor for wall, factor in walls[True])
        values = {**_medians(layers), **_medians(setup_layers),
                  "engine.budget_exceeded.count": bench.budget_exceeded,
                  "wall_s": wall_s,
                  "reference.scale": scale,
                  "trace.overhead_ratio": traced_s / scaled_wall_s,
                  "fail_ratio": fail_ratio}
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in values.items()}
    else:
        metrics = {
            "scaled_wall_s": {"value": scaled_wall_s, "unit": "s"},
            "peak_rss_mb": {"value": bench.peak_rss_kb / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
