"""Acceptance checks for the package's headline guarantees.

Each test prints exactly one line, ``ACCEPTANCE NN PASS/FAIL <label>``, and
then asserts.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they appear.  Everything is exact rational arithmetic except the
Monte Carlo criterion, whose tolerance is pinned at three standard errors of
the exact outcome distribution.
"""

import math
import random
import time
from fractions import Fraction

from onlinefair import (
    FixedOrder,
    InputError,
    Instance,
    Mechanism,
    QueryContext,
    best_response_search,
    complete_bipartite,
    complete_minus_even_cycle,
    complete_minus_perfect_matching,
    count_perfect_matchings,
    epsilon_bound,
    even_cycle,
    exact_manipulation_gain,
    exact_utility,
    min_maximal_matching_size,
    monte_carlo_estimate,
    necessary_manipulation,
    next_item_probability,
    outcome_report,
    possible_item,
    reduction1_instance,
    reduction2_instance,
    reduction2_manip_instance,
    reduction3_instance,
    reduction3_roles,
    states_after,
    utilities_under_deviation,
)

from helpers import (
    NO_POSITIVE_BRANCH,
    exact_variance,
    naive_distribution_outcome,
    naive_fixed_order_outcome,
    random_distribution_instance,
    random_fixed_instance,
)

F = Fraction


def _report(number: int, label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} {label}{extra}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_01_like_outcomes_match_naive_oracle():
    rng = random.Random(101)
    start = time.perf_counter()
    ok = True
    for trial in range(200):
        n = rng.randint(1, 4)
        if trial % 2:
            inst = random_fixed_instance(rng, n, rng.randint(1, 6),
                                         rational=trial % 4 == 1)
            oracle = naive_fixed_order_outcome
        else:
            inst = random_distribution_instance(rng, n, rng.randint(1, 4),
                                                rational=trial % 4 == 0)
            oracle = naive_distribution_outcome
        bids = (tuple(tuple(F(rng.randint(0, 1)) for _ in range(inst.m))
                      for _ in range(n)) if trial % 3 == 0 else None)
        ctx = QueryContext(inst, Mechanism.LIKE, bids)
        report = outcome_report(ctx)
        utility, alloc = oracle(inst, Mechanism.LIKE, bids)
        ok = ok and report.method == "dp" \
            and list(report.expected_utility) == utility \
            and [list(r) for r in report.allocation_probability] == alloc
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10
    _report(1, "Like outcomes equal the naive oracle on 100 fixed-order and "
            "100 distribution instances", ok, f" ({elapsed:.1f}s < 10s)")


def test_02_two_agent_dp_matches_enumeration():
    rng = random.Random(202)
    start = time.perf_counter()
    ok = True
    for trial in range(200):
        inst = random_fixed_instance(rng, 2, rng.randint(1, 12),
                                     rational=trial % 2)
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        report = outcome_report(ctx)
        utility, alloc = naive_fixed_order_outcome(inst, Mechanism.BALANCED_LIKE)
        ok = ok and report.method == "dp" \
            and list(report.expected_utility) == utility \
            and [list(r) for r in report.allocation_probability] == alloc
        if trial % 10 == 0:
            for rounds in range(inst.m + 1):
                states, _ = states_after(ctx, rounds)
                ok = ok and len({s.counts for _a, s in states}) <= 2
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10
    _report(2, "two-agent Balanced Like outcomes equal the naive oracle on "
            "200 random instances, frontier <= 2 count pairs per round", ok,
            f" ({elapsed:.1f}s < 10s)")


def test_03_balanced_history_count_equals_scaled_matching_count():
    start = time.perf_counter()
    ok = True
    cases = (
        (complete_bipartite(3, 3), 3),
        (complete_minus_perfect_matching(4), 4),
        (complete_minus_even_cycle(5), 5),
    )
    details = []
    for graph, side in cases:
        inst = reduction2_instance(graph)
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        states, _ = states_after(ctx, 3 * side + 1)
        balanced = sum(1 for _a, s in states if set(s.counts) == {1})
        expected = 2 ** side * count_perfect_matchings(graph)
        details.append(f"{balanced}")
        ok = ok and balanced == expected
    ok = ok and details[0] == "48"
    elapsed = time.perf_counter() - start
    _report(3, "one-item-each allocation counts equal 2^N x matching count "
            f"on three 3-regular gadgets ({'/'.join(details)})", ok,
            f" ({elapsed:.1f}s < 60s)")
    assert elapsed < 60


def test_04_collector_utility_on_k33_gadget():
    inst = reduction2_instance(complete_bipartite(3, 3))
    ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
    value = exact_utility(ctx, 9)
    ok = value == F(46, 45) == 1 + F(48, 3**3 * 2**3 * 10)
    _report(4, "collector's exact expected utility on the K33 gadget "
            "is 46/45", ok)


def test_05_stochastic_gadget_value_scales_with_matching_count():
    ok = True
    for graph, value in ((even_cycle(4), F(1, 2)),
                         (complete_bipartite(3, 3), F(1, 3))):
        m = graph.left
        formula = F(m, 2 * m ** m) * count_perfect_matchings(graph)
        inst = reduction1_instance(graph)
        for mechanism in Mechanism:
            report = outcome_report(QueryContext(inst, mechanism))
            ok = ok and report.expected_utility == (value, value) \
                and value == formula
    _report(5, "stochastic-arrival gadget utilities equal "
            "(1/M^M)(M/2) x matching count: 1/2 and 1/3", ok)


def test_06_prize_reachability_tracks_smallest_maximal_matching():
    start = time.perf_counter()
    graph = even_cycle(6)
    cutoff = min_maximal_matching_size(graph)
    ok = cutoff == 2
    for r in (1, 2, 3):
        inst = reduction3_instance(graph, r)
        roles = reduction3_roles(graph, r)
        challenger = roles["challenger"]
        prize = roles["prize_item"]
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        report = outcome_report(ctx)
        prize_probability = report.allocation_probability[challenger][prize]
        reachable = possible_item(ctx, challenger, prize)
        ok = ok and reachable == (prize_probability > 0) == (cutoff <= r)
        claimants_held = all(report.expected_utility[b] >= F(1, 3)
                             for b in roles["claimant_agents"])
        ok = ok and claimants_held == (prize_probability == 0)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    _report(6, "challenger reaches the prize exactly when r >= 2; claimants "
            "keep 1/3 exactly otherwise", ok, f" ({elapsed:.1f}s < 120s)")


def test_07_decoy_drop_manipulation_values():
    inst = reduction2_manip_instance(complete_bipartite(3, 3))
    collector = 9
    deviation = list(inst.utilities[collector])
    deviation[10] = F(0)
    ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
    sincere, deviated = utilities_under_deviation(ctx, collector, deviation)
    gain = exact_manipulation_gain(ctx, collector, deviation)
    ok = sincere == F(2) and deviated == F(46, 45) and gain == F(-44, 45)
    _report(7, "dropping the decoy bid moves the collector from 2 to 46/45 "
            "(gain -44/45)", ok)


def test_08_prize_drop_necessary_manipulation_linkage():
    graph = even_cycle(6)
    answers = []
    for r in (1, 2):
        inst = reduction3_instance(graph, r)
        roles = reduction3_roles(graph, r)
        challenger = roles["challenger"]
        deviation = list(inst.utilities[challenger])
        deviation[roles["prize_item"]] = F(0)
        answers.append(necessary_manipulation(
            QueryContext(inst, Mechanism.BALANCED_LIKE), challenger, deviation,
            threshold=F(0)))
    ok = answers == [True, False]
    _report(8, "zero-bidding the prize is a zero-threshold necessary "
            "manipulation at r=1 but not r=2", ok)


def test_09_strategyproofness_profile():
    rng = random.Random(909)
    ok = True
    for trial in range(100):
        inst = random_fixed_instance(rng, rng.randint(1, 3), rng.randint(1, 4),
                                     rational=trial % 2)
        for agent in range(inst.n):
            _, gain = best_response_search(QueryContext(inst, Mechanism.LIKE), agent)
            ok = ok and gain == 0
    for _ in range(100):
        inst = random_fixed_instance(rng, 2, rng.randint(1, 4))
        for agent in range(2):
            _, gain = best_response_search(
                QueryContext(inst, Mechanism.BALANCED_LIKE), agent)
            ok = ok and gain == 0
    pinned = Instance(3, 3, ((F(0), F(1), F(0)),
                             (F(1), F(0), F(1)),
                             (F(1), F(1), F(1))), FixedOrder((0, 1, 2)))
    row, gain = best_response_search(QueryContext(pinned, Mechanism.BALANCED_LIKE), 2)
    ok = ok and gain == F(1, 8) and row == (F(0), F(1), F(1))
    _report(9, "sincere bidding is a best response for Like everywhere and "
            "for two-agent 0/1 balanced allocation; pinned three-agent "
            "counterexample gains 1/8", ok)


def test_10_epsilon_floors_every_positive_branch():
    rng = random.Random(1010)
    ok = True
    checked = 0
    instances = 0
    while instances < 50:
        inst = random_distribution_instance(rng, rng.randint(1, 3),
                                            rng.randint(1, 3))
        instances += 1
        for mechanism in Mechanism:
            ctx = QueryContext(inst, mechanism)
            for agent in range(inst.n):
                try:
                    eps = epsilon_bound(ctx, agent)
                except InputError as exc:
                    if not str(exc).endswith(NO_POSITIVE_BRANCH):
                        raise
                    continue
                ok = ok and eps > 0
                for depth in range(inst.m):
                    states, _ = states_after(ctx, depth)
                    for used, state in states:
                        probe = QueryContext(
                            inst, mechanism,
                            known_prefix=(tuple(sorted(used)), state))
                        p = next_item_probability(probe)[agent]
                        if p > 0:
                            checked += 1
                            ok = ok and state.probability * p >= eps
    ok = ok and checked > 100
    _report(10, "positive next-item branches stay above the epsilon floor "
            f"on 50 stochastic instances ({checked} branches)", ok)


def test_11_monte_carlo_within_three_standard_errors():
    rng = random.Random(2024)
    samples = 100_000
    ok = True
    worst = worst_se = 0.0
    for trial in range(10):
        if trial % 2:
            inst = random_distribution_instance(
                rng, rng.randint(2, 3), rng.randint(2, 3),
                rational=trial % 4 == 1)
        else:
            inst = random_fixed_instance(
                rng, rng.randint(2, 3), rng.randint(2, 4),
                rational=trial % 4 == 0)
        mechanism = Mechanism.BALANCED_LIKE if trial % 3 else Mechanism.LIKE
        ctx = QueryContext(inst, mechanism)
        pairs, aborted = states_after(ctx, inst.m)
        means, variances = exact_variance(
            inst, mechanism, [s for _, s in pairs], aborted)
        result = monte_carlo_estimate(ctx, samples, seed=1000 + trial)
        for agent in range(inst.n):
            se = math.sqrt(float(variances[agent]) / samples)
            err = abs(result.estimates[agent] - float(means[agent]))
            reported = result.standard_error[agent]
            if se == 0:
                ok = ok and err == 0 and reported == 0.0
            else:
                worst = max(worst, err / se)
                ok = ok and err <= 3 * se
                # The sample standard deviation's relative error has a
                # standard deviation of about sqrt((kurtosis - 1) / (4 N)).
                # The utilities' kurtosis is at most 55 on these instances,
                # so at N = 100k that is at most 1.2%, and 5% is more than
                # four of those.
                worst_se = max(worst_se, abs(reported / se - 1))
                ok = ok and math.isclose(reported, se, rel_tol=0.05)
    _report(11, "100k-sample estimates stay within 3 standard errors on 10 "
            f"instances (worst z = {worst:.2f}), and each reported standard "
            f"error is within 5% of the exact one (worst {worst_se:.2%})", ok)
