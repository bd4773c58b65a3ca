"""Check that two source trees print the same answers on the benchmark's
workloads: ``python tools/compare_outputs.py PARENT_TREE CHANGE_TREE [SEEDS...]``.

For each seed (1 and 2 by default) and each workload of ``BENCHMARK.json``,
``perfbench/workloads.build`` builds the inputs from PARENT_TREE's set-up
answers.  Every set-up call and query runs under both trees' ``src`` with
``PYTHONDONTWRITEBYTECODE=1``, and so do the help texts and usage errors of
``USAGE_CALLS``, which no workload prints; each call whose stdout, stderr or
exit code differ is printed, and the script exits 1 if any do.  A differing
call is followed by what differs in it: the top-level keys whose values
differ when both stdouts are JSON objects, else which of stdout, stderr and
the exit code differ.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import the harness without writing into it
sys.path.insert(0, str(HERE / "perfbench"))
from workloads import build  # noqa: E402

COMMANDS = ["outcome", "manipulate", "generate", "oracle", "sample"]
USAGE_CALLS = [["--help"], *([command, "--help"] for command in COMMANDS), [], ["bogus"],
               ["generate", "--graph", "x", "--graph-name", "k33"]]


def run(tree: Path, argv) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("ONLINEFAIR_BUDGET", None)
    proc = subprocess.run([sys.executable, "-m", "onlinefair.cli", *argv], env=env,
                          cwd=tree, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def differences(before, after) -> list[str]:
    """What differs between two ``run`` results: the top-level keys of two
    JSON object stdouts, and "stderr" and "exit code" when those differ."""
    (code, out, err), (code2, out2, err2) = before, after
    try:
        old, new = json.loads(out), json.loads(out2)
    except ValueError:
        old = new = None
    names = []
    if isinstance(old, dict) and isinstance(new, dict):
        missing = object()
        names = sorted(key for key in old.keys() | new.keys()
                       if old.get(key, missing) != new.get(key, missing))
    if out != out2 and not names:  # not JSON objects, or only spacing differs
        names = ["stdout"]
    return names + ["stderr"] * (err != err2) + ["exit code"] * (code != code2)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(tree).resolve() for tree in argv[:2])
    seeds = [int(seed) for seed in argv[2:]] or [1, 2]
    benchmark = json.loads((HERE / "BENCHMARK.json").read_text())
    calls = differ = 0

    def compare(label: str, call) -> tuple[int, str, str]:
        nonlocal calls, differ
        before, after = run(parent, call), run(change, call)
        calls += 1
        if before != after:
            differ += 1
            print(f"DIFFERS {label}: {' '.join(call)}")
            print(f"  in: {', '.join(differences(before, after))}")
        return before

    for call in USAGE_CALLS:
        compare("usage", call)
    with tempfile.TemporaryDirectory() as scratch:
        for seed in seeds:
            for name in (workload["name"] for workload in benchmark["workloads"]):
                label = f"{name} seed {seed}"
                queries = build(name, seed, Path(scratch, f"{name}-{seed}"),
                                lambda call: json.loads(compare(label, call)[1]))
                for query in queries:
                    compare(f"{label} {query.label}", query.argv)
    print(f"{differ} of {calls} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
