"""Workload definitions: the inputs each workload builds and how every answer
is checked against a reference that does not come from the query itself.

A workload's set-up writes its instance files and calls the program's own
``generate`` and ``oracle`` subcommands; those calls are what ``setup_s``
times.  Its query list is what one measured pass runs.  Gadget workloads do
not depend on the seed; random instances draw utilities from 1..5 (binary
where a reference needs 0/1 rows), so Balanced Like's frontier shape is the
same for every seed.

Sizes are chosen so that one pass takes a few seconds and a run holds
several passes.  Heavier cases stay out until the engine is faster;
README.md in this directory records which and why.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

F = Fraction

# Monte Carlo estimates must land within this many (bounded) standard errors
# of the exact value.  The bounds over-estimate the true error, so a correct
# estimator fails with negligible probability for any seed.
MC_TOLERANCE_SE = 5


class Mismatch(AssertionError):
    """An answer disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass(frozen=True)
class Query:
    """One CLI call of a pass.  ``check(result, call)`` raises Mismatch on a
    wrong answer; ``call`` runs a further, untimed CLI call when a check
    needs one."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[dict, Callable], None]


def _fractions(values) -> list[Fraction]:
    return [F(v) for v in values]


def _random_instance(rng: random.Random, n: int, m: int, *, arrival: str,
                     binary: bool = False) -> dict:
    """Instance JSON with utilities from 1..5 (or 0/1 rows with a positive
    entry), a shuffled fixed order or uniform 1/m arrival columns."""
    if binary:
        rows = []
        for _ in range(n):
            row = [rng.randint(0, 1) for _ in range(m)]
            row[rng.randrange(m)] = 1
            rows.append(row)
    else:
        rows = [[rng.randint(1, 5) for _ in range(m)] for _ in range(n)]
    if arrival == "order":
        order = list(range(1, m + 1))
        rng.shuffle(order)
        block = {"type": "order", "order": order}
    else:
        block = {"type": "distribution",
                 "matrix": [[f"1/{m}"] * m for _ in range(m)]}
    return {"agents": n, "items": m,
            "utilities": [[str(u) for u in row] for row in rows],
            "arrival": block}


def _cycle_graph(half: int) -> dict:
    """The cycle C_{2*half} as a bipartite graph file."""
    edges = [[i, i] for i in range(1, half + 1)]
    edges += [[i, i % half + 1] for i in range(1, half + 1)]
    return {"left": half, "right": half, "edges": edges}


# --- references ---------------------------------------------------------------


def _check_report_consistent(result: dict, utilities: list[list[Fraction]]) -> None:
    """Each expected utility is the allocation row priced at true utilities."""
    alloc = [_fractions(row) for row in result["allocation_probability"]]
    expected = _fractions(result["expected_utility"])
    for agent, row in enumerate(alloc):
        priced = sum((p * u for p, u in zip(row, utilities[agent])), F(0))
        expect(priced == expected[agent],
               f"agent {agent + 1}: utility {expected[agent]} but "
               f"allocation prices to {priced}")


def uniform_survival(m: int) -> Fraction:
    """Probability that m uniform 1/m draws are all distinct: m!/m^m."""
    return F(math.factorial(m), m ** m)


def collector_value(sides: int, matchings: int) -> Fraction:
    """The reduction2 collector's utility, 1 + pm / (3^N (3N + 1)).  On K33
    (N=3, six matchings) this is 46/45."""
    return 1 + F(matchings, 3 ** sides * (3 * sides + 1))


def _exact_uniform_check(utilities, n: int, m: int):
    """All-positive bids under uniform arrivals: agents are exchangeable, so
    each gets each item with probability m!/m^m / n, under Like and under
    Balanced Like alike."""
    share = uniform_survival(m) / n

    def check(result, _call):
        alloc = [_fractions(row) for row in result["allocation_probability"]]
        expect(all(p == share for row in alloc for p in row),
               f"allocation probabilities differ from m!/m^m/n = {share}")
        for agent in range(n):
            value = share * sum(utilities[agent], F(0))
            expect(F(result["expected_utility"][agent]) == value,
                   f"agent {agent + 1}: {result['expected_utility'][agent]} "
                   f"!= {value}")
    return check


def _value_check(expected: Fraction, utilities=None):
    def check(result, _call):
        expect(F(result["value"]) == expected,
               f"value {result['value']} != {expected}")
        if utilities is not None:
            _check_report_consistent(result, utilities)
    return check


def _answer_check(expected: bool):
    def check(result, _call):
        expect(result["answer"] is expected,
               f"answer {result['answer']} != {expected}")
    return check


def _estimate_check(exact: list[Fraction], tolerance: list[float],
                    total: Fraction | None = None):
    """Estimates within tolerance of the exact values; with ``total``, every
    run hands out exactly that much utility, so the estimates sum to it."""
    def check(result, _call):
        estimates = result["estimates"]
        for agent, (est, value, tol) in enumerate(zip(estimates, exact, tolerance)):
            expect(abs(est - float(value)) <= tol,
                   f"agent {agent + 1}: estimate {est} is {abs(est - float(value))} "
                   f"from {float(value)} (tolerance {tol})")
        if total is not None:
            expect(math.isclose(sum(estimates), float(total), rel_tol=1e-9),
                   f"estimates sum to {sum(estimates)}, not {total}")
    return check


def _bounded_se(spread: Fraction, samples: int) -> float:
    """Standard-error bound for a mean of samples confined to an interval of
    width ``spread``: the standard deviation is at most spread/2."""
    return MC_TOLERANCE_SE * float(spread) / 2 / math.sqrt(samples)


# --- set-up -------------------------------------------------------------------


class Setup:
    """Writes files into a work directory and calls the program's generators
    and oracles through ``call(argv) -> parsed JSON``."""

    def __init__(self, workdir: Path, call: Callable[[list[str]], dict]):
        self.workdir = workdir
        self._call = call
        self._results: dict[tuple, dict] = {}

    def call(self, argv: list[str]) -> dict:
        """Each distinct generator or oracle call runs once per build."""
        key = tuple(argv)
        if key not in self._results:
            self._results[key] = self._call(argv)
        return self._results[key]

    def write(self, name: str, data) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    def generate(self, name: str, *args: str) -> tuple[str, dict]:
        data = self.call(["generate", *args])
        return self.write(name, data), data

    def oracle(self, *args: str):
        return self.call(["oracle", *args])["answer"]


def _utilities(instance: dict) -> list[list[Fraction]]:
    return [_fractions(row) for row in instance["utilities"]]


def fixed_exact(s: Setup, rng: random.Random) -> list[Query]:
    queries = []
    values = {}
    for graph, sides in (("k33", 3), ("cube", 4)):
        path, inst = s.generate(f"r2-{graph}.json", "--kind", "reduction2",
                                "--graph-name", graph)
        values[graph] = collector_value(sides, s.oracle("--kind", "count-pm",
                                                        "--graph-name", graph))
        queries.append(Query(
            f"reduction2 {graph} collector", ("outcome", path, "--query", "exact",
            "--mechanism", "balanced-like", "--agent", str(3 * sides + 1)),
            _value_check(values[graph], _utilities(inst))))
    k33_value = values["k33"]
    expect(k33_value == F(46, 45), f"K33 collector reference {k33_value} != 46/45")

    path, inst = s.generate("r2m-k33.json", "--kind", "reduction2-manip",
                            "--graph-name", "k33")
    deviation = list(inst["utilities"][9])
    deviation[10] = "0"  # the decoy item
    dev_path = s.write("r2m-k33-dev.json", deviation)

    def decoy_check(result, _call):
        expect(F(result["sincere_utility"]) == 2, "sincere utility != 2")
        expect(F(result["deviated_utility"]) == k33_value,
               f"deviated utility {result['deviated_utility']} != {k33_value}")
        expect(F(result["gain"]) == k33_value - 2, "gain != deviated - sincere")
    queries.append(Query("reduction2-manip k33 decoy drop", (
        "manipulate", path, "--mode", "exact", "--agent", "10",
        "--deviation", dev_path), decoy_check))

    cutoff = s.oracle("--kind", "min-maximal", "--graph-name", "c6")
    for r in (1, 2, 3):
        path, inst = s.generate(f"r3-c6-{r}.json", "--kind", "reduction3",
                                "--graph-name", "c6", "-r", str(r))
        queries.append(Query(f"reduction3 c6 r={r} prize", _prize_argv(
            path, inst, "exact"), _prize_exact_check(inst, r, cutoff, halves=3)))
    return queries


def _prize_argv(path: str, inst: dict, query: str) -> tuple[str, ...]:
    """The challenger is the last agent and the prize the last item."""
    return ("outcome", path, "--query", query, "--mechanism", "balanced-like",
            "--agent", str(inst["agents"]), "--item", str(inst["items"]))


def _prize_exact_check(inst: dict, r: int, cutoff: int, halves: int):
    """The prize is reachable exactly when r reaches the minimum maximal
    matching; otherwise each of the M claimants keeps 1/M."""
    utilities = _utilities(inst)
    claimants = range(2 * halves + halves - r, 2 * halves + halves - r + halves)

    def check(result, _call):
        prize = F(result["value"])
        expect((prize > 0) == (r >= cutoff),
               f"prize probability {prize} with r={r}, cutoff {cutoff}")
        if prize == 0:
            for agent in claimants:
                expect(F(result["expected_utility"][agent]) == F(1, halves),
                       f"claimant {agent + 1} does not keep 1/{halves}")
        _check_report_consistent(result, utilities)
    return check


def stochastic_exact(s: Setup, rng: random.Random) -> list[Query]:
    queries = []
    for n, m, mechanism in ((3, 8, "balanced-like"), (3, 7, "like")):
        inst = _random_instance(rng, n, m, arrival="distribution")
        path = s.write(f"uniform-{mechanism}-{m}.json", inst)
        queries.append(Query(f"uniform n={n} m={m} {mechanism}", (
            "outcome", path, "--query", "exact", "--mechanism", mechanism,
            "--agent", "1"), _exact_uniform_check(_utilities(inst), n, m)))

    graph = "k55-minus-c10"
    sides = 5
    matchings = s.oracle("--kind", "count-pm", "--graph-name", graph)
    for full, count in ((False, matchings), (True, math.factorial(sides))):
        flags = ("--full-support",) if full else ()
        path, _ = s.generate(f"r1-{'full' if full else 'edges'}.json",
                             "--kind", "reduction1", "--graph-name", graph, *flags)
        value = F(sides, 2) / sides ** sides * count
        for agent in (1, 2):
            queries.append(Query(
                f"reduction1 {graph}{' full' if full else ''} agent {agent}",
                ("outcome", path, "--query", "exact", "--mechanism",
                 "balanced-like", "--agent", str(agent)), _value_check(value)))

    values = "1,2,3,4,5,6,7,8"
    path, payload = s.generate("subset.json", "--kind", "subset", "--values",
                               values, "-b", "18", "-c", "4")
    exists = s.oracle("--kind", "subset-sum", "--values", values, "-b", "18",
                      "-c", "4")
    expect(payload["subset_exists"] is exists, "subset payload disagrees with oracle")
    utilities = _utilities(payload["instance"])
    value = uniform_survival(8) / 2 * sum(utilities[0], F(0))
    threshold = F(payload["threshold"])
    queries.append(Query("subset 1..8 exact", (
        "outcome", path, "--query", "exact", "--mechanism", "balanced-like",
        "--agent", "1"), _exact_uniform_check(utilities, 2, 8)))

    def necessary_check(result, call):
        _value_check(value)(result, call)
        _answer_check(value >= threshold)(result, call)
    queries.append(Query("subset 1..8 necessary", (
        "outcome", path, "--query", "necessary", "--mechanism", "balanced-like",
        "--agent", "1", "--threshold", payload["threshold"]), necessary_check))
    return queries


def decision(s: Setup, rng: random.Random) -> list[Query]:
    queries = []
    for half in (3, 4, 5):
        graph_args = (("--graph-name", "c6") if half == 3 else
                      ("--graph", s.write(f"c{2 * half}.json", _cycle_graph(half))))
        cutoff = s.oracle("--kind", "min-maximal", *graph_args)
        # one below the cutoff walks the whole tree; at it a witness exists
        for r in (cutoff - 1, cutoff):
            path, inst = s.generate(f"r3-c{2 * half}-{r}.json", "--kind",
                                    "reduction3", *graph_args, "-r", str(r))
            queries.append(Query(f"reduction3 c{2 * half} r={r} possible",
                                 _prize_argv(path, inst, "possible"),
                                 _answer_check(r >= cutoff)))
            if half == 3:
                queries.append(_prize_drop(s, path, inst, r, cutoff))

    response_path = s.write("best-response.json",
                            _random_instance(rng, 3, 8, arrival="order"))

    def best_response_check(result, call):
        row = result["best_response_row"]
        gain = F(result["gain"])
        expect(gain >= 0, f"best response loses {gain}")
        if gain > 0:
            expect(all(F(x) in (0, 1) for x in row), f"row {row} is not 0/1")
        follow_up = call(["manipulate", response_path, "--mode", "exact", "--agent", "1",
                          "--deviation", s.write("best-row.json", row)])
        expect(F(follow_up["gain"]) == gain,
               f"re-evaluated gain {follow_up['gain']} != {gain}")
    queries.append(Query("best-response n=3 m=8", (
        "manipulate", response_path, "--mode", "best-response", "--agent", "1"),
        best_response_check))

    for n, m, mechanism, binary in ((2, 10, "balanced-like", True),
                                    (3, 9, "like", False)):
        path = s.write(f"strategyproof-{mechanism}.json",
                       _random_instance(rng, n, m, arrival="order", binary=binary))
        queries.append(Query(f"strategyproof {mechanism} n={n} m={m}", (
            "manipulate", path, "--mode", "strategyproof", "--mechanism",
            mechanism), _answer_check(True)))
    return queries


def _prize_drop(s: Setup, path: str, inst: dict, r: int, cutoff: int) -> Query:
    """Zero-bidding the prize is a zero-threshold necessary manipulation
    exactly when the prize is out of reach anyway, below the cutoff."""
    deviation = list(inst["utilities"][-1])
    deviation[-1] = "0"
    dev_path = s.write(f"prize-drop-{r}.json", deviation)
    return Query(f"reduction3 c6 r={r} prize drop", (
        "manipulate", path, "--mode", "necessary", "--agent", str(inst["agents"]),
        "--deviation", dev_path, "--threshold", "0"), _answer_check(r < cutoff))


def monte_carlo(s: Setup, rng: random.Random) -> list[Query]:
    queries = []
    samples = 20_000
    path, inst = s.generate("r2-k55.json", "--kind", "reduction2",
                            "--graph-name", "k55-minus-c10")
    utilities = _utilities(inst)
    n, m = inst["agents"], inst["items"]
    collector = collector_value(5, s.oracle("--kind", "count-pm", "--graph-name",
                                            "k55-minus-c10"))
    liked = [sum(row, F(0)) for row in utilities]
    # Balanced Like: only the collector's exact value is known in closed form;
    # every run hands out all m unit-valued items.
    exact = [F(0)] * (n - 1) + [collector]
    tolerance = [math.inf] * (n - 1) + [_bounded_se(F(1), samples)]
    queries.append(Query("k55-minus-c10 balanced-like", (
        "sample", path, "--mechanism", "balanced-like", "--samples", str(samples),
        "--seed", str(rng.randrange(10 ** 6))),
        _estimate_check(exact, tolerance, total=F(m))))
    # Like: item k lands on each of its likers with probability 1/likers.
    likers = [sum(1 for row in utilities if row[k] > 0) for k in range(m)]
    exact = [sum((u / likers[k] for k, u in enumerate(row) if u > 0), F(0))
             for row in utilities]
    queries.append(Query("k55-minus-c10 like", (
        "sample", path, "--mechanism", "like", "--samples", str(samples),
        "--seed", str(rng.randrange(10 ** 6))),
        _estimate_check(exact, [_bounded_se(x, samples) for x in liked],
                        total=F(m))))

    n, m, samples = 3, 9, 100_000
    inst = _random_instance(rng, n, m, arrival="distribution")
    path = s.write("uniform.json", inst)
    utilities = _utilities(inst)
    survive = uniform_survival(m)
    # Almost every run is void; a run's utility is 0 unless all m draws are
    # distinct, so its second moment is at most survive * (row total)^2.
    tolerance = [MC_TOLERANCE_SE * float(sum(row, F(0))) * math.sqrt(survive / samples)
                 for row in utilities]
    queries.append(Query(f"uniform n={n} m={m} balanced-like", (
        "sample", path, "--mechanism", "balanced-like", "--samples", str(samples),
        "--seed", str(rng.randrange(10 ** 6))),
        _estimate_check([survive / n * sum(row, F(0)) for row in utilities],
                        tolerance)))

    arrived = rng.sample(range(m), 4)
    bundles = [[] for _ in range(n)]
    for item in arrived:
        bundles[rng.randrange(n)].append(item)
    prefix = s.write("prefix.json", {
        "arrived": [k + 1 for k in arrived],
        "bundles": [[k + 1 for k in bundle] for bundle in bundles],
        "probability": "1"})
    held = [sum((utilities[i][k] for k in bundle), F(0))
            for i, bundle in enumerate(bundles)]
    nxt = _next_item_balanced(utilities, [len(b) for b in bundles], arrived, m)
    online = [h + p for h, p in zip(held, nxt)]

    def online_check(result, _call):
        expect(_fractions(result["next_item_probability"]) == nxt,
               f"next-item probabilities {result['next_item_probability']} != {nxt}")
        expect(_fractions(result["expected_utility"]) == online,
               f"online utilities {result['expected_utility']} != {online}")
    queries.append(Query("known prefix exact", (
        "outcome", path, "--query", "exact", "--mechanism", "balanced-like",
        "--agent", "1", "--prefix", prefix), online_check))
    queries.append(Query("known prefix estimate", (
        "sample", path, "--mechanism", "balanced-like", "--samples", str(samples),
        "--seed", str(rng.randrange(10 ** 6)), "--prefix", prefix),
        _estimate_check(online, [_bounded_se(F(1), samples)] * n)))
    return queries


def _next_item_balanced(utilities, counts, arrived, m) -> list[Fraction]:
    """Next uniform 1/m arrival under Balanced Like: a repeat voids, else the
    item goes evenly to its positive bidders holding the fewest items."""
    result = [F(0)] * len(counts)
    for item in range(m):
        if item in arrived:
            continue
        bidders = [i for i, row in enumerate(utilities) if row[item] > 0]
        fewest = min(counts[i] for i in bidders)
        feasible = [i for i in bidders if counts[i] == fewest]
        for i in feasible:
            result[i] += F(1, m) / len(feasible)
    return result


def exact(s: Setup, rng: random.Random) -> list[Query]:
    return fixed_exact(s, rng) + stochastic_exact(s, rng) + decision(s, rng)


# BENCHMARK.json lists "exact" and "monte-carlo".  The three exact query
# groups form one long workload because a shared 2-core VM's speed drifts by
# 10-20% over minutes: fewer, longer runs keep the run-to-run spread inside
# the bound.  Each group can still be run alone.
WORKLOADS = {
    "exact": exact,
    "monte-carlo": monte_carlo,
    "fixed-exact": fixed_exact,
    "stochastic-exact": stochastic_exact,
    "decision": decision,
}


def build(name: str, seed: int, workdir: Path,
          call: Callable[[list[str]], dict]) -> list[Query]:
    """Write the workload's inputs under ``workdir`` and return its queries."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](Setup(workdir, call), random.Random(seed))
