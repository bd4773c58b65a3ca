"""Time four in-process calls under two source trees:
``python tools/ladder.py PARENT_TREE CHANGE_TREE [ROUNDS]`` (5 rounds by default).

The cases are three ``outcome_report`` calls of the count-state kernel under
Balanced Like (the reduction2 gadget on K55 minus C10, the reduction3 gadget
on the subdivided K4 with r = 1, and three agents under uniform arrivals of
13 items) and the best-response search of agent 10 on the reduction2-manip
gadget on K33.  Each round runs every case once per tree, each run in a
fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1`` and the tree's ``src``
first on ``PYTHONPATH``, and alternates which tree goes first.  A run
builds its instance, then times only the call, and prints the seconds and a
digest (sha256 of the answer's ``repr``).  The script prints each case's
minimum and median seconds and digest per tree, and exits 1 if the digests
of a case differ.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

# each case's instance, and the call it times on ``ctx``, a Balanced Like
# query on that instance
CASES = {
    "reduction2 K55-C10": (
        "reduction2_instance(complete_minus_even_cycle(5))", "outcome_report(ctx)"),
    "reduction3 subdivided K4 r=1": (
        "reduction3_instance(make_graph(6, 4, [(e, v) for e, pair in "
        "enumerate(itertools.combinations(range(4), 2)) for v in pair]), 1)",
        "outcome_report(ctx)"),
    "uniform n=3 m=13": (
        "Instance(3, 13, tuple(tuple(F((3 * i + k) % 4) for k in range(13)) "
        "for i in range(3)), Distribution(((F(1, 13),) * 13,) * 13))",
        "outcome_report(ctx)"),
    "reduction2-manip K33 best response": (
        "reduction2_manip_instance(complete_bipartite(3, 3))",
        "best_response_search(ctx, 9)"),
}

CHILD = """
import hashlib, itertools, time
from fractions import Fraction as F
from onlinefair import *
ctx = QueryContext({instance}, Mechanism.BALANCED_LIKE)
start = time.perf_counter()
answer = {call}
elapsed = time.perf_counter() - start
print(elapsed, hashlib.sha256(repr(answer).encode()).hexdigest()[:16])
"""


def run(tree: Path, case: str) -> tuple[float, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("ONLINEFAIR_BUDGET", None)
    instance, call = CASES[case]
    code = CHILD.format(instance=instance, call=call)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tree,
                          capture_output=True, text=True, check=True, timeout=600)
    seconds, digest = proc.stdout.split()
    return float(seconds), digest


def main(argv: list[str]) -> int:
    if not 2 <= len(argv) <= 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in argv[:2]]
    rounds = int(argv[2]) if len(argv) == 3 else 5
    times = {(case, side): [] for case in CASES for side in (0, 1)}
    digests = {case: set() for case in CASES}
    for r in range(rounds):
        for case in CASES:
            for side in (r % 2, 1 - r % 2):
                seconds, digest = run(trees[side], case)
                times[case, side].append(seconds)
                digests[case].add(digest)
    differ = 0
    for case in CASES:
        same = len(digests[case]) == 1
        differ += not same
        print(f"{case}: answers {'identical' if same else 'DIFFER'} "
              f"({', '.join(sorted(digests[case]))})")
        for side, label in enumerate(("parent", "change")):
            runs = times[case, side]
            print(f"  {label}: min {min(runs):.4f} s, median "
                  f"{statistics.median(runs):.4f} s, runs "
                  + " ".join(f"{t:.4f}" for t in runs))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
