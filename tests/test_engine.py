import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from onlinefair import (
    DEFAULT_ENUMERATION_BUDGET,
    AllocationState,
    BudgetExceeded,
    Distribution,
    FixedOrder,
    InconsistentPrefix,
    InputError,
    Instance,
    Mechanism,
    NoPositiveBranch,
    QueryContext,
    UnsupportedQuery,
    best_response_search,
    complete_bipartite,
    epsilon_bound,
    exact_utility,
    monte_carlo_estimate,
    necessary_utility,
    next_item_probability,
    online_utilities,
    outcome_report,
    possible_item,
    possible_utility,
    reduction2_instance,
    states_after,
)
from onlinefair import engine
from onlinefair.arrivals import _columns, _plan, _scaled_completion
from onlinefair.engine import _positive_bidders, _step
from onlinefair.mechanisms import packed_sizes

from helpers import (
    naive_best_response,
    naive_distribution_outcome,
    naive_fixed_order_outcome,
    naive_monte_carlo,
    naive_next_moment,
    naive_states_after,
    random_distribution_instance,
    random_fixed_instance,
)

F = Fraction


def count_feasible_calls(monkeypatch):
    """Record every ``feasible_for_counts`` call the engine makes."""
    calls = []
    real = engine.feasible_for_counts

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(engine, "feasible_for_counts", counted)
    return calls


def all_ones(n, m, arrival):
    return Instance(n, m, tuple(tuple(F(1) for _ in range(m)) for _ in range(n)),
                    arrival)


@st.composite
def fixed_instances(draw, max_n=4, max_m=6, rational=False):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    if rational:
        entry = st.fractions(min_value=0, max_value=3, max_denominator=4)
    else:
        entry = st.sampled_from([F(0), F(1)])
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    order = draw(st.permutations(range(m)))
    return Instance(n, m, tuple(tuple(r) for r in rows), FixedOrder(tuple(order)))


@st.composite
def distribution_instances(draw, max_n=3, max_m=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    entry = st.sampled_from([F(0), F(1)])
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    columns = []
    for _ in range(m):
        weights = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        total = sum(weights) or 1
        scale = draw(st.sampled_from([F(1), F(1, 2), F(2, 3)]))
        columns.append([F(w, total) * scale for w in weights])
    matrix = tuple(tuple(columns[j][k] for j in range(m)) for k in range(m))
    return Instance(n, m, tuple(tuple(r) for r in rows), Distribution(matrix))


@st.composite
def with_bids(draw, instances):
    """An instance plus a bid profile drawn independently of its utilities."""
    inst = draw(instances)
    entry = st.sampled_from([F(0), F(1), F(2, 3)])
    rows = draw(st.lists(st.lists(entry, min_size=inst.m, max_size=inst.m),
                         min_size=inst.n, max_size=inst.n))
    return inst, tuple(tuple(r) for r in rows)


def random_bids(rng, inst):
    return tuple(tuple(F(rng.randint(0, 1)) for _ in range(inst.m))
                 for _ in range(inst.n))


def random_prefix(rng, inst):
    """A known prefix: the first j arrivals (any j distinct items under a
    distribution), each held by a random agent or by nobody."""
    j = rng.randint(0, inst.m)
    if isinstance(inst.arrival, FixedOrder):
        arrived = inst.arrival.order[:j]
    else:
        arrived = tuple(rng.sample(range(inst.m), j))
    bundles = [set() for _ in range(inst.n)]
    for item in arrived:
        owner = rng.randint(-1, inst.n - 1)
        if owner >= 0:
            bundles[owner].add(item)
    return arrived, bundles


class TestFixedOrderEnumeration:
    def test_two_all_ones_balanced(self):
        # after the first item lands, the other agent is the unique feasible
        # bidder for the second
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        report = outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE))
        assert report.expected_utility == (F(1), F(1))
        assert report.allocation_probability[0][1] == F(1, 2)
        assert report.method == "dp"

    def test_two_all_ones_like(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        report = outcome_report(QueryContext(inst, Mechanism.LIKE))
        assert report.expected_utility == (F(1), F(1))
        assert all(p == F(1, 2) for row in report.allocation_probability
                   for p in row)

    def test_matches_naive_oracle(self):
        rng = random.Random(20)
        for trial in range(60):
            inst = random_fixed_instance(rng, rng.randint(1, 3), rng.randint(1, 4),
                                         rational=trial % 2)
            for mechanism in Mechanism:
                report = outcome_report(QueryContext(inst, mechanism))
                utility, alloc = naive_fixed_order_outcome(inst, mechanism)
                assert list(report.expected_utility) == utility
                assert [list(r) for r in report.allocation_probability] \
                    == [list(r) for r in alloc]

    def test_honors_bid_profile_over_utilities(self):
        # bids decide feasibility; utilities only price the result
        inst = Instance(2, 1, ((F(5),), (F(1),)), FixedOrder((0,)))
        bids = ((F(0),), (F(1),))
        report = outcome_report(QueryContext(inst, Mechanism.LIKE, bids))
        assert report.expected_utility == (F(0), F(1))

    def test_budget_exceeded(self):
        # the first arrival already splits into three bundle-size vectors;
        # under Like sizes are dropped and the frontier stays at one state
        inst = all_ones(3, 4, FixedOrder((0, 1, 2, 3)))
        with pytest.raises(BudgetExceeded,
                           match=r"3 states at moment 1 of 4 \(budget 2\)"):
            outcome_report(
                QueryContext(inst, Mechanism.BALANCED_LIKE, budget=2))
        report = outcome_report(
            QueryContext(inst, Mechanism.LIKE, budget=1))
        assert report.expected_utility == (F(4, 3),) * 3

    def test_deep_instance_runs_without_recursion(self):
        # two agents alternate over 2999 items; the third, holding nothing,
        # is the unique feasible bidder for the last one
        m = 3000
        everything = tuple(F(1) for _ in range(m))
        last_only = tuple(F(int(k == m - 1)) for k in range(m))
        inst = Instance(3, m, (everything, everything, last_only),
                        FixedOrder(tuple(range(m))))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        assert possible_utility(ctx, 2)
        assert exact_utility(ctx, 2) == F(1)
        assert exact_utility(ctx, 0) == F(2999, 2)

    def test_states_after_partial_round(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        states = [s for _a, s in states_after(
            QueryContext(inst, Mechanism.BALANCED_LIKE), 1)[0]]
        assert len(states) == 2
        assert sum(s.probability for s in states) == F(1)
        assert {s.counts for s in states} == {(1, 0), (0, 1)}

    def test_states_after_rejects_bad_rounds(self):
        half = F(1, 2)
        for arrival in (FixedOrder((0, 1)),
                        Distribution(((half, half), (half, half)))):
            ctx = QueryContext(all_ones(2, 2, arrival), Mechanism.LIKE)
            for moments in (-1, 3):
                with pytest.raises(InputError,
                                   match=r"^moments must be within 0\.\.2$"):
                    states_after(ctx, moments)

    def test_states_after_budget_exceeded(self):
        # whole bundles are kept under both mechanisms, so the first arrival
        # already gives three states; with a known prefix the moments count
        # on from the prefix
        inst = all_ones(3, 4, FixedOrder((0, 1, 2, 3)))
        for mechanism in Mechanism:
            with pytest.raises(BudgetExceeded,
                               match=r"3 states at moment 1 of 4 \(budget 2\)"):
                states_after(QueryContext(inst, mechanism, budget=2), 2)
        prefix = ((0,), AllocationState((frozenset({0}), frozenset(), frozenset()),
                                        F(1)))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE, known_prefix=prefix,
                           budget=1)
        with pytest.raises(BudgetExceeded,
                           match=r"2 states at moment 2 of 4 \(budget 1\)"):
            states_after(ctx, 1)
        assert len(states_after(
            QueryContext(inst, Mechanism.BALANCED_LIKE, budget=3), 1)[0]) == 3


class TestOwnerLevelViews:
    """The owner-level frontier against the count-state kernel."""

    @staticmethod
    def priced(states, inst):
        # P(agent i holds item k): the mass of the states whose bundle i has k
        return [[sum((s.probability for _a, s in states if k in s.bundles[i]), F(0))
                 for k in range(inst.m)] for i in range(inst.n)]

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(with_bids(fixed_instances(max_m=5)),
                     with_bids(distribution_instances())),
           st.sampled_from(list(Mechanism)))
    def test_final_states_price_to_the_kernel(self, case, mechanism):
        # under fixed orders and distributions alike
        inst, bids = case
        ctx = QueryContext(inst, mechanism, bids)
        assert self.priced(states_after(ctx, inst.m)[0], inst) \
            == [list(r) for r in outcome_report(ctx).allocation_probability]

    @settings(max_examples=60, deadline=None)
    @given(with_bids(fixed_instances(max_m=5)), st.sampled_from(list(Mechanism)))
    def test_every_depth_prices_to_the_kernel(self, case, mechanism):
        # after d arrivals of a fixed order, each of the first d items is
        # held as the kernel says and no later item is held yet
        inst, bids = case
        ctx = QueryContext(inst, mechanism, bids)
        kernel = outcome_report(ctx).allocation_probability
        for d in range(inst.m + 1):
            placed = set(inst.arrival.order[:d])
            expected = [[p if k in placed else 0 for k, p in enumerate(row)]
                        for row in kernel]
            assert self.priced(states_after(ctx, d)[0], inst) == expected

    def test_states_after_a_known_prefix_extend_it(self):
        rng = random.Random(31)
        for trial in range(40):
            inst = random_fixed_instance(rng, rng.randint(1, 3), rng.randint(1, 5))
            arrived, bundles = random_prefix(rng, inst)
            prefix = AllocationState(tuple(map(frozenset, bundles)), F(1))
            ctx = QueryContext(inst, list(Mechanism)[trial % 2],
                               known_prefix=(arrived, prefix))
            for rounds in range(inst.m - len(arrived) + 1):
                states, _ = states_after(ctx, rounds)
                assert sum(s.probability for _a, s in states) == 1
                for _arrived, state in states:
                    assert all(held <= bundle for held, bundle
                               in zip(prefix.bundles, state.bundles))

    @settings(max_examples=80, deadline=None)
    @given(with_bids(distribution_instances()), st.integers(0, 2**32))
    @example((all_ones(2, 2, Distribution(((F(1), F(0)), (F(0), F(1))))),
              ((F(1), F(1)), (F(1), F(1)))), 7)  # prefix ((0,), [{0}, set()])
    def test_distribution_from_a_known_prefix(self, case, seed):
        # probabilities are conditional on the prefix, whose own probability
        # (1/3 here) is not multiplied in; one moment on, each agent's mass
        # of winning each fresh item is the naive next-column answer
        inst, bids = case
        arrived, bundles = random_prefix(random.Random(seed), inst)
        prefix = AllocationState(tuple(map(frozenset, bundles)), F(1, 3))
        for mechanism in Mechanism:
            ctx = QueryContext(inst, mechanism, bids,
                               known_prefix=(arrived, prefix))
            for moments in range(inst.m - len(arrived) + 1):
                states, void = states_after(ctx, moments)
                assert sum((s.probability for _a, s in states), F(0)) + void == 1
                for used, state in states:
                    assert set(arrived) <= used
                    assert len(used) == len(arrived) + moments
                    assert all(held <= bundle for held, bundle
                               in zip(prefix.bundles, state.bundles))
            wins = {}
            for _used, state in states_after(ctx, min(1, inst.m - len(arrived)))[0]:
                for agent, (held, bundle) in enumerate(zip(prefix.bundles,
                                                           state.bundles)):
                    for item in bundle - held:
                        wins[agent, item] = wins.get((agent, item), F(0)) \
                            + state.probability
            assert wins == naive_next_moment(inst, mechanism, arrived, bundles, bids)

    @settings(max_examples=60, deadline=None)
    @given(with_bids(fixed_instances(max_m=5)), st.sampled_from(list(Mechanism)),
           st.integers(0, 2**32), st.booleans())
    def test_fixed_order_has_no_void(self, case, mechanism, seed, online):
        # after d moments of a fixed order, the arrived set is its first d
        # items in every state, and no mass is ever void
        inst, bids = case
        order = inst.arrival.order
        known, start = None, 0
        if online:
            arrived, bundles = random_prefix(random.Random(seed), inst)
            known = (arrived, AllocationState(tuple(map(frozenset, bundles)), F(1)))
            start = len(arrived)
        ctx = QueryContext(inst, mechanism, bids, known_prefix=known)
        for d in range(start, inst.m + 1):
            states, void = states_after(ctx, d - start)
            assert void == 0
            assert {used for used, _s in states} == {frozenset(order[:d])}


@st.composite
def with_prefix(draw, cases):
    """A case from ``cases`` plus a known prefix from ``random_prefix``, or
    None."""
    inst, bids = draw(cases)
    seed = draw(st.none() | st.integers(0, 2**32))
    return inst, bids, None if seed is None else random_prefix(random.Random(seed), inst)


def owner_boundary_example(m, contested):
    # agent 2 holds the first m - 1 items, so its size field, the highest,
    # sits just below its own bundle field, the lowest.  It alone bids on
    # the last item and reaches size m, or the two others, both empty, tie
    # for it
    side = (F(0),) * (m - 1) + (F(int(contested)),)
    inst = Instance(3, m, ((F(1),) * m,) * 3, FixedOrder(tuple(range(m))))
    prefix = (tuple(range(m - 1)), [set(), set(), set(range(m - 1))])
    return inst, (side, side, (F(1),) * m), prefix


class TestOwnerLevelStates:
    """``states_after`` steps ``_step`` with one bundle mask per agent packed
    above the sizes, and shares the kernel's feasibility memo."""

    @settings(max_examples=100, deadline=None)
    @given(with_prefix(st.one_of(with_bids(fixed_instances(max_m=5)),
                                 with_bids(distribution_instances()))),
           st.sampled_from(list(Mechanism)))
    @example(owner_boundary_example(7, False), Mechanism.BALANCED_LIKE)
    @example(owner_boundary_example(7, True), Mechanism.BALANCED_LIKE)
    @example(owner_boundary_example(8, False), Mechanism.BALANCED_LIKE)
    @example(owner_boundary_example(8, True), Mechanism.BALANCED_LIKE)
    def test_matches_naive_states(self, case, mechanism):
        # arrived sets, bundles, probabilities and void, state by state, at
        # every depth from the empty allocation or from a known prefix
        inst, bids, prefix = case
        known = prefix and (prefix[0],
                            AllocationState(tuple(map(frozenset, prefix[1])), F(1, 2)))
        ctx = QueryContext(inst, mechanism, bids, known_prefix=known)
        for moments in range(inst.m - (len(prefix[0]) if prefix else 0) + 1):
            states, void = states_after(ctx, moments)
            expected, expected_void = naive_states_after(inst, mechanism, moments,
                                                         bids, prefix)
            assert {(used, s.bundles): s.probability for used, s in states} == expected
            assert len(states) == len(expected) and void == expected_void
            # sorted by arrived mask, then bundle masks
            keys = [[sum(1 << k for k in items) for items in (used, *s.bundles)]
                    for used, s in states]
            assert keys == sorted(keys)

    def test_computes_each_feasible_set_once(self, monkeypatch):
        # the K33 gadget's owner-level build meets the same (item, bidder
        # sizes) keys as the kernel, and computes each one once
        inst = reduction2_instance(complete_bipartite(3, 3))
        calls, keys = count_feasible_calls(monkeypatch), set()
        states, _void = states_after(QueryContext(inst, Mechanism.BALANCED_LIKE), inst.m)
        naive_fixed_order_outcome(inst, Mechanism.BALANCED_LIKE, keys=keys)
        assert len(calls) == len(keys) == 194
        assert len(states) > 10 * len(keys)

    def test_memo_stops_growing_at_the_budget(self, monkeypatch):
        # agents 0 and 1 tie for the first item and agent 2 alone bids on the
        # other five, so both states meet each later item with the same key:
        # six keys, but the frontier peaks at two.  Under a budget of 3 the
        # memo fills, later keys are computed on every visit, and the states
        # do not change
        first = (F(1),) + (F(0),) * 5
        inst = Instance(3, 6, (first, first, tuple(1 - u for u in first)),
                        FixedOrder(tuple(range(6))))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        calls = count_feasible_calls(monkeypatch)
        full = states_after(ctx, 6)
        assert len(calls) == 6 and len(full[0]) == 2
        calls.clear()
        assert states_after(ctx._replace(budget=3), 6) == full
        assert len(calls) > 6
        with pytest.raises(BudgetExceeded):  # 3 is just above the peak
            states_after(ctx._replace(budget=1), 6)


class TestLikeClosedForm:
    """Like outcomes come from the count-state kernel, whose frontier holds
    one state per moment; they satisfy the closed form checked here."""

    def test_two_and_three_likers(self):
        # shares 1/2 and 1/3 add to 5/6 for the first agent
        utilities = ((F(1), F(1)), (F(1), F(1)), (F(0), F(1)))
        inst = Instance(3, 2, utilities, FixedOrder((0, 1)))
        report = outcome_report(QueryContext(inst, Mechanism.LIKE))
        assert report.expected_utility[0] == F(5, 6)
        assert report.method == "dp"

    def test_zero_bidder_gets_zero(self):
        inst = Instance(2, 2, ((F(0), F(0)), (F(1), F(1))), FixedOrder((0, 1)))
        report = outcome_report(QueryContext(inst, Mechanism.LIKE))
        assert report.expected_utility[0] == F(0)

    @settings(max_examples=60, deadline=None)
    @given(fixed_instances(rational=True))
    def test_equals_enumeration(self, inst):
        report = outcome_report(QueryContext(inst, Mechanism.LIKE))
        utility, alloc = naive_fixed_order_outcome(inst, Mechanism.LIKE)
        assert list(report.expected_utility) == utility
        assert [list(r) for r in report.allocation_probability] == alloc

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(with_bids(fixed_instances(rational=True)),
                     with_bids(distribution_instances(max_m=4))))
    def test_items_split_evenly_over_positive_bidders(self, case):
        # Like ignores past allocations, and a run that completes holds every
        # item, so item k lands on each of its positive bidders with the
        # completion probability over their number
        inst, bids = case
        report = outcome_report(QueryContext(inst, Mechanism.LIKE, bids))
        factor, unit = _scaled_completion(_columns(inst.arrival),
                                          DEFAULT_ENUMERATION_BUDGET)
        complete = F(factor[0], unit)
        if isinstance(inst.arrival, FixedOrder):
            assert complete == 1
        for k in range(inst.m):
            bidders = [i for i in range(inst.n) if bids[i][k] > 0]
            for i in range(inst.n):
                share = complete / len(bidders) if i in bidders else 0
                assert report.allocation_probability[i][k] == share


class TestTwoAgentDp:
    """Two-agent Balanced Like runs through the count-state kernel."""

    def test_single_liker_runs_single_state(self):
        inst = Instance(2, 3, ((F(1), F(1), F(1)), (F(0), F(0), F(0))),
                        FixedOrder((0, 1, 2)))
        report = outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE))
        assert report.expected_utility == (F(3), F(0))
        assert all(report.allocation_probability[0][k] == F(1) for k in range(3))

    def test_alternation_on_all_ones(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        report = outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE))
        assert report.expected_utility == (F(1), F(1))
        assert report.method == "dp"

    @settings(max_examples=60, deadline=None)
    @given(fixed_instances(max_n=2, max_m=8, rational=True))
    def test_equals_enumeration(self, inst):
        if inst.n != 2:
            inst = Instance(2, inst.m, (inst.utilities * 2)[:2], inst.arrival)
        report = outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE))
        utility, alloc = naive_fixed_order_outcome(inst, Mechanism.BALANCED_LIKE)
        assert list(report.expected_utility) == utility
        assert [list(r) for r in report.allocation_probability] == alloc


class TestDistribution:
    def test_matches_naive_oracle(self):
        rng = random.Random(4)
        for trial in range(40):
            inst = random_distribution_instance(rng, rng.randint(1, 3),
                                                rng.randint(1, 3),
                                                rational=trial % 2)
            for mechanism in Mechanism:
                report = outcome_report(QueryContext(inst, mechanism))
                utility, alloc = naive_distribution_outcome(inst, mechanism)
                assert list(report.expected_utility) == utility
                assert [list(r) for r in report.allocation_probability] \
                    == [list(r) for r in alloc]

    def test_unit_columns_match_fixed_order(self):
        # a distribution with one unit column per moment is a fixed ordering
        order = (2, 0, 1)
        matrix = tuple(tuple(F(1) if order[j] == k else F(0) for j in range(3))
                       for k in range(3))
        utilities = ((F(1), F(0), F(1)), (F(1), F(1), F(0)))
        stoch = Instance(2, 3, utilities, Distribution(matrix))
        fixed = Instance(2, 3, utilities, FixedOrder(order))
        for mechanism in Mechanism:
            a = outcome_report(QueryContext(stoch, mechanism))
            b = outcome_report(QueryContext(fixed, mechanism))
            assert a.expected_utility == b.expected_utility
            assert a.allocation_probability == b.allocation_probability

    def test_all_zero_column_voids_everything(self):
        matrix = ((F(1), F(0)), (F(0), F(0)))
        inst = all_ones(2, 2, Distribution(matrix))
        report = outcome_report(QueryContext(inst, Mechanism.LIKE))
        assert report.expected_utility == (F(0), F(0))

    @settings(max_examples=40, deadline=None)
    @given(distribution_instances())
    def test_probability_conservation_each_depth(self, inst):
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        for moments in range(inst.m + 1):
            states, aborted = states_after(ctx, moments)
            assert sum((s.probability for _, s in states), F(0)) + aborted == F(1)

    @settings(max_examples=40, deadline=None)
    @given(distribution_instances(), st.sampled_from(list(Mechanism)))
    def test_aborted_mass_misses_every_repeat_free_sequence(self, inst, mechanism):
        # checked from the arrival matrix alone: the surviving mass after d
        # draws is the mass of the repeat-free item sequences of length d
        matrix = inst.arrival.matrix
        ctx = QueryContext(inst, mechanism)
        for moments in range(inst.m + 1):
            alive = sum((math.prod((matrix[k][j] for j, k in enumerate(seq)), start=F(1))
                         for seq in itertools.permutations(range(inst.m), moments)),
                        F(0))
            assert states_after(ctx, moments)[1] == 1 - alive

    def test_states_after_budget_exceeded(self):
        # either item may arrive first and go to either agent: four states
        half = F(1, 2)
        inst = all_ones(2, 2, Distribution(((half, half), (half, half))))
        with pytest.raises(BudgetExceeded,
                           match=r"4 states at moment 1 of 2 \(budget 3\)"):
            states_after(
                QueryContext(inst, Mechanism.BALANCED_LIKE, budget=3), 1)
        states, aborted = states_after(
            QueryContext(inst, Mechanism.BALANCED_LIKE, budget=4), 1)
        assert len(states) == 4 and aborted == 0

    def test_completion_budget_exceeded(self):
        # the arrival masks are counted before the kernel's first step
        half = F(1, 2)
        inst = all_ones(2, 2, Distribution(((half, half), (half, half))))
        with pytest.raises(BudgetExceeded, match=r"^arrival masks reached 2 "
                           r"states at moment 1 of 2 \(budget 1\)$"):
            outcome_report(QueryContext(inst, Mechanism.LIKE, budget=1))


class TestScaledFrontier:
    """``_step`` keeps int values over one scale, reduced every moment."""

    @staticmethod
    def frontiers(inst, mechanism):
        plan = _plan(inst.arrival, inst.n, DEFAULT_ENUMERATION_BUDGET)
        positive = _positive_bidders(QueryContext(inst, mechanism))
        layout = packed_sizes(mechanism, inst.n, inst.m, positive) + ([0] * inst.n,)
        frontier, scale, memo = {(0, 0): 1}, 1, {}
        for moment in range(inst.m):
            frontier, scale, _credits, _unit = _step(
                frontier, scale, moment, plan, positive, layout, memo, mechanism,
                DEFAULT_ENUMERATION_BUDGET)
            yield frontier, scale

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(fixed_instances(rational=True), distribution_instances(max_m=5)),
           st.sampled_from(list(Mechanism)))
    def test_lowest_terms_after_every_step(self, inst, mechanism):
        for frontier, scale in self.frontiers(inst, mechanism):
            assert math.gcd(scale, *frontier.values()) == 1

    def test_like_fixed_order_scale_stays_one(self):
        # items with 0..3 positive bidders, so every share size occurs
        m = 3000
        rows = tuple(tuple(F(k % 8 >> i & 1) for k in range(m)) for i in range(3))
        inst = Instance(3, m, rows, FixedOrder(tuple(range(m))))
        steps = 0
        for frontier, scale in self.frontiers(inst, Mechanism.LIKE):
            assert scale == 1 and list(frontier.values()) == [1]
            steps += 1
        assert steps == m


@st.composite
def boundary_instances(draw):
    """n = 3 or 4 agents, m = 7 or 8 items (the widths where a packed size
    field just holds m) with rational utilities and random 0/1 bids."""
    n, m = draw(st.integers(3, 4)), draw(st.sampled_from([7, 8]))
    entry = st.fractions(min_value=0, max_value=3, max_denominator=4)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    bids = draw(st.lists(st.lists(st.sampled_from([F(0), F(1)]), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    order = draw(st.permutations(range(m)))
    return (Instance(n, m, tuple(map(tuple, rows)), FixedOrder(tuple(order))),
            tuple(map(tuple, bids)))


def boundary_example(m, contested):
    # the middle agent alone bids on all but the last item, so its size grows
    # to m - 1 next to agent 2's field; then it takes the last item too,
    # reaching m, or the two others, both empty, tie for it
    side = (F(0),) * (m - 1) + (F(int(contested)),)
    inst = Instance(3, m, ((F(1),) * m,) * 3, FixedOrder(tuple(range(m))))
    return inst, (side, (F(1),) * m, side)


class TestKernelMemo:
    """The kernel packs bundle sizes into one int and memoises each feasible
    set on the item and its bidders' sizes, for a whole run."""

    @settings(max_examples=60, deadline=None)
    @given(boundary_instances(), st.sampled_from(list(Mechanism)))
    @example(boundary_example(7, False), Mechanism.BALANCED_LIKE)
    @example(boundary_example(7, True), Mechanism.BALANCED_LIKE)
    @example(boundary_example(8, False), Mechanism.BALANCED_LIKE)
    @example(boundary_example(8, True), Mechanism.BALANCED_LIKE)
    def test_matches_naive_at_the_field_boundary(self, case, mechanism):
        inst, bids = case
        report = outcome_report(QueryContext(inst, mechanism, bids))
        utility, alloc = naive_fixed_order_outcome(inst, mechanism, bids)
        assert report.expected_utility == tuple(utility)
        assert report.allocation_probability == tuple(map(tuple, alloc))

    @settings(max_examples=60, deadline=None)
    @given(with_bids(distribution_instances(max_n=4, max_m=4)),
           st.sampled_from(list(Mechanism)))
    def test_matches_naive_distributions(self, case, mechanism):
        inst, bids = case
        report = outcome_report(QueryContext(inst, mechanism, bids))
        utility, alloc = naive_distribution_outcome(inst, mechanism, bids)
        assert report.expected_utility == tuple(utility)
        assert report.allocation_probability == tuple(map(tuple, alloc))

    def test_computes_each_feasible_set_once(self, monkeypatch):
        # the K33 gadget's kernel meets far more (state, item) pairs than
        # distinct (item, bidder sizes) keys, and computes each key once
        inst = reduction2_instance(complete_bipartite(3, 3))
        calls, keys = count_feasible_calls(monkeypatch), set()
        report = outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE))
        utility, _alloc = naive_fixed_order_outcome(inst, Mechanism.BALANCED_LIKE,
                                                    keys=keys)
        assert report.expected_utility == tuple(utility)
        assert len(calls) == len(keys) == 194
        # under a fixed order every state meets one item per moment
        frontiers = list(TestScaledFrontier.frontiers(inst, Mechanism.BALANCED_LIKE))
        visits = 1 + sum(len(frontier) for frontier, _scale in frontiers[:-1])
        assert len(keys) * 3 < visits

    def test_memo_stops_growing_at_the_budget(self, monkeypatch):
        # three agents who like all of five uniformly arriving items: the
        # frontier peaks at 30 states and the arrival masks at 10 per level,
        # but the kernel meets 55 (item, sizes) keys.  Under a budget of 32
        # the memo fills up, later keys are computed on every visit, and the
        # answer does not change
        uniform = tuple((F(1, 5),) * 5 for _ in range(5))
        inst = all_ones(3, 5, Distribution(uniform))
        calls = count_feasible_calls(monkeypatch)
        full = outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE))
        assert len(calls) == 55
        calls.clear()
        capped = outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE, budget=32))
        assert capped == full
        assert len(calls) > 55
        utility, alloc = naive_distribution_outcome(inst, Mechanism.BALANCED_LIKE)
        assert full.expected_utility == tuple(utility)
        with pytest.raises(BudgetExceeded):  # 32 is just above the peak
            outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE, budget=29))

    @pytest.mark.parametrize("mechanism", list(Mechanism))
    def test_search_memo_keeps_the_bid_variants_apart(self, monkeypatch, mechanism):
        # every item has its own set of other bidders, so a call's bidders name
        # the item and agent 0's bit on it: over the whole search each key is
        # computed once, and the two bits never share a feasible set
        others = [(1,), (2, 3), (1, 4), (), (2, 3, 4), (1, 2, 3, 4)]
        rows = [tuple(F(k % 3) for k in range(6))] + [
            tuple(F(int(i in bidders)) for bidders in others) for i in range(1, 5)]
        inst = Instance(5, 6, tuple(rows), FixedOrder((2, 0, 5, 1, 4, 3)))
        calls = count_feasible_calls(monkeypatch)
        assert best_response_search(inst, mechanism, 0) \
            == naive_best_response(inst, mechanism, 0)
        # under Like no sizes are kept, so the counts are empty
        keys = {(bidders, tuple(counts[i] for i in bidders if counts))
                for _m, counts, bidders in calls}
        assert len(calls) == len(keys)
        assert {bidders for bidders, _sizes in keys} \
            == set(others) | {(0, *bidders) for bidders in others}


class TestDispatcher:
    def test_routes_by_setting(self):
        # every setting without a prefix runs the count-state kernel
        fixed = all_ones(2, 2, FixedOrder((0, 1)))
        assert outcome_report(QueryContext(fixed, Mechanism.LIKE)).method \
            == "dp"
        assert outcome_report(QueryContext(fixed, Mechanism.BALANCED_LIKE)).method \
            == "dp"
        three = all_ones(3, 2, FixedOrder((0, 1)))
        assert outcome_report(QueryContext(three, Mechanism.BALANCED_LIKE)).method \
            == "dp"
        matrix = ((F(1), F(0)), (F(0), F(1)))
        stoch = all_ones(2, 2, Distribution(matrix))
        assert outcome_report(QueryContext(stoch, Mechanism.LIKE)).method \
            == "dp"

    @settings(max_examples=80, deadline=None)
    @given(with_bids(fixed_instances(rational=True)), st.sampled_from(list(Mechanism)))
    def test_fixed_order_matches_naive_oracle(self, case, mechanism):
        inst, bids = case
        report = outcome_report(QueryContext(inst, mechanism, bids))
        utility, alloc = naive_fixed_order_outcome(inst, mechanism, bids)
        assert list(report.expected_utility) == utility
        assert [list(r) for r in report.allocation_probability] == alloc

    @settings(max_examples=80, deadline=None)
    @given(with_bids(distribution_instances()), st.sampled_from(list(Mechanism)))
    def test_distribution_matches_naive_oracle(self, case, mechanism):
        inst, bids = case
        report = outcome_report(QueryContext(inst, mechanism, bids))
        utility, alloc = naive_distribution_outcome(inst, mechanism, bids)
        assert list(report.expected_utility) == utility
        assert [list(r) for r in report.allocation_probability] == alloc

    @pytest.mark.parametrize("online", [False, True])
    def test_indices_out_of_range(self, online):
        # -1 must not answer for the last agent or item, and n or m is refused too
        utilities = ((F(0), F(1), F(0)), (F(1), F(0), F(1)), (F(1), F(1), F(1)))
        inst = Instance(3, 3, utilities, FixedOrder((0, 1, 2)))
        state = AllocationState((frozenset(), frozenset({0}), frozenset()), F(1))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE,
                           known_prefix=((0,), state) if online else None)
        for bad in (-1, 3):
            for query in (exact_utility, possible_utility, epsilon_bound,
                          lambda ctx, agent: possible_item(ctx, agent, 0)):
                with pytest.raises(InputError, match=rf"agent {bad} outside 0\.\.2"):
                    query(ctx, bad)
            with pytest.raises(InputError, match=rf"item {bad} outside 0\.\.2"):
                possible_item(ctx, 0, bad)
        if not online:
            assert exact_utility(ctx, 2) == F(9, 8)

    def test_necessary_is_threshold_on_exact(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        value = exact_utility(ctx, 0)
        assert necessary_utility(ctx, 0, value)
        assert not necessary_utility(ctx, 0, value + F(1, 10**9))
        # antitone in the threshold
        assert necessary_utility(ctx, 0, value - F(1, 2))


class TestOnlineQueries:
    def two_agent_ctx(self):
        utilities = ((F(1), F(1), F(0)), (F(1), F(1), F(1)))
        inst = Instance(2, 3, utilities, FixedOrder((0, 1, 2)))
        state = AllocationState((frozenset({0}), frozenset()), F(1, 2))
        return QueryContext(inst, Mechanism.BALANCED_LIKE,
                            known_prefix=((0,), state))

    def test_behind_agent_is_uniquely_feasible(self):
        probs = next_item_probability(self.two_agent_ctx())
        assert probs == (F(0), F(1))

    def test_online_utility_adds_held_value(self):
        assert online_utilities(self.two_agent_ctx()) == (F(1), F(1))
        assert exact_utility(self.two_agent_ctx(), 0) == F(1)

    def test_like_uniform_columns(self):
        matrix = ((F(0), F(1, 2), F(0)),
                  (F(0), F(1, 2), F(0)),
                  (F(1), F(0), F(0)))
        inst = all_ones(2, 3, Distribution(matrix))
        state = AllocationState((frozenset({2}), frozenset()), F(1))
        ctx = QueryContext(inst, Mechanism.LIKE, known_prefix=((2,), state))
        assert next_item_probability(ctx) == (F(1, 2), F(1, 2))

    def test_no_mass_means_zero(self):
        matrix = ((F(1), F(0)), (F(0), F(0)))
        inst = all_ones(2, 2, Distribution(matrix))
        state = AllocationState((frozenset({0}), frozenset()), F(1))
        ctx = QueryContext(inst, Mechanism.LIKE, known_prefix=((0,), state))
        assert next_item_probability(ctx) == (F(0), F(0))

    def test_arrived_item_mass_is_void(self):
        # moment 2 puts half its mass back on the already-arrived item; that
        # mass cannot land
        matrix = ((F(1), F(1, 2)), (F(0), F(1, 2)))
        inst = all_ones(2, 2, Distribution(matrix))
        state = AllocationState((frozenset({0}), frozenset()), F(1))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE, known_prefix=((0,), state))
        assert next_item_probability(ctx) == (F(0), F(1, 2))

    def test_inconsistent_prefixes_are_rejected(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        held_unarrived = AllocationState((frozenset({1}), frozenset()), F(1))
        with pytest.raises(InconsistentPrefix):
            next_item_probability(QueryContext(
                inst, Mechanism.LIKE, known_prefix=((0,), held_unarrived)))
        state = AllocationState((frozenset({1}), frozenset()), F(1))
        with pytest.raises(InconsistentPrefix):
            # arrived sequence must follow the fixed order
            next_item_probability(QueryContext(
                inst, Mechanism.LIKE, known_prefix=((1,), state)))
        with pytest.raises(InconsistentPrefix):
            next_item_probability(QueryContext(
                inst, Mechanism.LIKE,
                known_prefix=((0, 0), AllocationState((frozenset(),) * 2, F(1)))))

    def test_online_queries_honour_the_budget(self):
        # under Like all three agents may win item 2: three successors
        inst = all_ones(3, 3, FixedOrder((0, 1, 2)))
        state = AllocationState((frozenset({0}), frozenset(), frozenset()), F(1))
        ctx = QueryContext(inst, Mechanism.LIKE, known_prefix=((0,), state), budget=3)
        assert next_item_probability(ctx) == (F(1, 3),) * 3
        for query in (next_item_probability, online_utilities,
                      lambda c: possible_item(c, 0, 1)):
            with pytest.raises(BudgetExceeded, match=r"^frontier reached "
                               r"3 states at moment 2 of 3 \(budget 2\)$"):
                query(ctx._replace(budget=2))

    def test_prefix_required(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        with pytest.raises(UnsupportedQuery):
            next_item_probability(QueryContext(inst, Mechanism.LIKE))
        with pytest.raises(UnsupportedQuery):
            online_utilities(QueryContext(inst, Mechanism.LIKE))

    def test_outcome_report_rejects_prefix(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        ctx = QueryContext(inst, Mechanism.LIKE,
                           known_prefix=((0,), AllocationState((frozenset(),) * 2, F(1))))
        with pytest.raises(UnsupportedQuery):
            outcome_report(ctx)


class TestPossibility:
    def test_matches_exact_positivity_fixed(self):
        rng = random.Random(31)
        for trial in range(80):
            inst = random_fixed_instance(rng, rng.randint(1, 3), rng.randint(1, 4))
            bids = random_bids(rng, inst) if trial % 2 else None
            for mechanism in Mechanism:
                ctx = QueryContext(inst, mechanism, bids)
                utility, alloc = naive_fixed_order_outcome(inst, mechanism, bids)
                for agent in range(inst.n):
                    assert possible_utility(ctx, agent) == (utility[agent] > 0)
                    for item in range(inst.m):
                        assert possible_item(ctx, agent, item) \
                            == (alloc[agent][item] > 0)

    def test_matches_exact_positivity_distribution(self):
        rng = random.Random(32)
        for trial in range(40):
            inst = random_distribution_instance(rng, rng.randint(1, 3),
                                                rng.randint(1, 3))
            bids = random_bids(rng, inst) if trial % 2 else None
            for mechanism in Mechanism:
                ctx = QueryContext(inst, mechanism, bids)
                utility, alloc = naive_distribution_outcome(inst, mechanism, bids)
                for agent in range(inst.n):
                    assert possible_utility(ctx, agent) == (utility[agent] > 0)
                    for item in range(inst.m):
                        assert possible_item(ctx, agent, item) \
                            == (alloc[agent][item] > 0)

    def test_known_prefix_item_held_by_another_agent(self):
        # item 1 arrived and went to agent 2, so agent 1 cannot receive it;
        # agent 1, holding less, is the one feasible bidder for item 2
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        state = AllocationState((frozenset(), frozenset({0})), F(1, 2))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE,
                           known_prefix=((0,), state))
        assert not possible_item(ctx, 0, 0)
        assert possible_item(ctx, 1, 0)
        assert possible_item(ctx, 0, 1)
        assert not possible_item(ctx, 1, 1)

    def test_matches_next_column_enumeration_with_prefix(self):
        rng = random.Random(33)
        for trial in range(160):
            make = random_fixed_instance if trial % 2 else random_distribution_instance
            inst = make(rng, rng.randint(1, 3), rng.randint(1, 4))
            bids = random_bids(rng, inst) if trial % 4 >= 2 else None
            arrived, bundles = random_prefix(rng, inst)
            state = AllocationState(tuple(frozenset(b) for b in bundles), F(1))
            for mechanism in Mechanism:
                ctx = QueryContext(inst, mechanism, bids,
                                   known_prefix=(arrived, state))
                wins = naive_next_moment(inst, mechanism, arrived, bundles, bids)
                held = {(i, k) for i, bundle in enumerate(bundles) for k in bundle}
                possible = {(i, k) for i in range(inst.n) for k in range(inst.m)
                            if possible_item(ctx, i, k)}
                assert possible == held | set(wins)
                nxt = tuple(sum((p for (i, _k), p in wins.items() if i == agent), F(0))
                            for agent in range(inst.n))
                assert next_item_probability(ctx) == nxt
                assert online_utilities(ctx) == tuple(
                    sum((inst.utilities[i][k] for k in bundles[i]), F(0)) + nxt[i]
                    for i in range(inst.n))

    def test_like_needs_a_completable_sequence(self):
        # both moments can only reveal the first item, so every run aborts
        matrix = ((F(1, 2), F(1)), (F(0), F(0)))
        inst = all_ones(2, 2, Distribution(matrix))
        ctx = QueryContext(inst, Mechanism.LIKE)
        assert not possible_utility(ctx, 0)

    def test_possible_item_keeps_original_bids(self):
        # the agent values only the first item, but bids on both; the second
        # item must remain winnable
        inst = Instance(2, 2, ((F(1), F(0)), (F(1), F(1))), FixedOrder((0, 1)))
        bids = ((F(1), F(1)), (F(1), F(1)))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE, bids)
        assert possible_item(ctx, 0, 1)

    def test_possible_item_requires_positive_bid(self):
        inst = Instance(2, 2, ((F(1), F(0)), (F(1), F(1))), FixedOrder((0, 1)))
        ctx = QueryContext(inst, Mechanism.LIKE)
        assert not possible_item(ctx, 0, 1)

    def test_online_possibility(self):
        utilities = ((F(1), F(1)), (F(1), F(1)))
        inst = Instance(2, 2, utilities, FixedOrder((0, 1)))
        state = AllocationState((frozenset({0}), frozenset()), F(1, 2))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE,
                           known_prefix=((0,), state))
        assert possible_utility(ctx, 0)      # holds a valued item already
        assert possible_utility(ctx, 1)      # wins the next item for sure


class TestEpsilonBound:
    def test_uniform_two_by_two(self):
        matrix = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        inst = all_ones(2, 2, Distribution(matrix))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        assert epsilon_bound(ctx, 0) == F(1, 16)

    def test_single_agent_single_item(self):
        inst = all_ones(1, 1, Distribution(((F(1),),)))
        ctx = QueryContext(inst, Mechanism.LIKE)
        eps = epsilon_bound(ctx, 0)
        assert F(0) < eps <= F(1)

    def test_zero_bidder_has_no_positive_branch(self):
        inst = Instance(2, 1, ((F(0),), (F(1),)),
                        Distribution(((F(1),),)))
        with pytest.raises(NoPositiveBranch):
            epsilon_bound(QueryContext(inst, Mechanism.LIKE), 0)

    def test_no_arrivals_has_no_positive_branch(self):
        inst = all_ones(1, 1, Distribution(((F(0),),)))
        with pytest.raises(NoPositiveBranch):
            epsilon_bound(QueryContext(inst, Mechanism.LIKE), 0)

    def test_bounds_every_positive_branch(self):
        rng = random.Random(90)
        for _ in range(15):
            inst = random_distribution_instance(rng, rng.randint(1, 3),
                                                rng.randint(1, 3))
            for mechanism in Mechanism:
                ctx = QueryContext(inst, mechanism)
                for agent in range(inst.n):
                    try:
                        eps = epsilon_bound(ctx, agent)
                    except NoPositiveBranch:
                        continue
                    assert eps > 0
                    for j in range(inst.m):
                        states, _ = states_after(ctx, j)
                        for used, state in states:
                            pctx = QueryContext(
                                inst, mechanism,
                                known_prefix=(tuple(sorted(used)), state))
                            prob = next_item_probability(pctx)[agent]
                            if prob > 0:
                                assert state.probability * prob >= eps


class TestBalancedLikeEvenness:
    def test_final_bundles_differ_by_at_most_one(self):
        # when everyone bids on everything, balancing is visible in every
        # positive-probability outcome
        rng = random.Random(77)
        for _ in range(20):
            n, m = rng.randint(2, 4), rng.randint(1, 5)
            inst = all_ones(n, m, FixedOrder(tuple(range(m))))
            ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
            for _arrived, state in states_after(ctx, m)[0]:
                assert max(state.counts) - min(state.counts) <= 1


class TestMonteCarlo:
    def test_deterministic_under_seed(self):
        inst = all_ones(2, 3, FixedOrder((0, 1, 2)))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        assert monte_carlo_estimate(ctx, 2000, seed=5) \
            == monte_carlo_estimate(ctx, 2000, seed=5)

    def test_zero_variance_is_exact(self):
        inst = Instance(2, 2, ((F(1), F(1)), (F(0), F(0))), FixedOrder((0, 1)))
        ctx = QueryContext(inst, Mechanism.LIKE)
        assert monte_carlo_estimate(ctx, 10, seed=0) == ([2.0, 0.0], [0.0, 0.0], 0)

    def test_close_to_exact(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        estimates = monte_carlo_estimate(ctx, 40_000, seed=13).estimates
        for agent in range(2):
            assert abs(estimates[agent] - 1.0) < 0.02

    def test_distribution_aborts_count_as_zero(self):
        # half the mass aborts at the second moment, capping utility at 1/2
        matrix = ((F(1), F(0)), (F(0), F(1, 2)))
        inst = Instance(1, 2, ((F(1), F(0)),), Distribution(matrix))
        ctx = QueryContext(inst, Mechanism.LIKE)
        exact = exact_utility(ctx, 0)
        assert exact == F(1, 2)
        result = monte_carlo_estimate(ctx, 60_000, seed=3)
        assert abs(result.estimates[0] - 0.5) < 0.02
        assert abs(result.voided / 60_000 - 0.5) < 0.02

    def test_full_prefix_returns_held_values(self):
        # every item has arrived, so no column is left to sample: the estimate
        # is the held value at once, however many samples are asked for
        inst = Instance(2, 2, ((F(1, 3), F(1)), (F(2), F(0))), FixedOrder((1, 0)))
        state = AllocationState((frozenset({1}), frozenset({0})), F(1))
        ctx = QueryContext(inst, Mechanism.LIKE, known_prefix=((1, 0), state))
        start = time.perf_counter()
        assert monte_carlo_estimate(ctx, 10**7, seed=1) == ([1.0, 2.0], [0.0, 0.0], 0)
        assert time.perf_counter() - start < 1.0
        assert online_utilities(ctx) == (F(1), F(2))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(fixed_instances(rational=True),
                     distribution_instances(max_n=4, max_m=4)),
           st.sampled_from(list(Mechanism)), st.integers(1, 40),
           st.integers(0, 2**32), st.booleans())
    @example(all_ones(3, 3, FixedOrder((0, 1, 2))), Mechanism.LIKE, 50, 7, False)
    # nobody bids on item 1: Like resolves its empty feasible set before the runs
    @example(Instance(2, 3, ((F(1), F(0), F(2)), (F(1), F(0), F(0))), FixedOrder((1, 0, 2))),
             Mechanism.LIKE, 60, 5, False)
    # items 0 and 2 have one bidder each, looked up in the memo at every size
    @example(Instance(3, 3, ((F(1), F(1), F(0)), (F(0), F(1), F(1)), (F(0), F(1), F(0))),
                      FixedOrder((0, 2, 1))), Mechanism.BALANCED_LIKE, 60, 9, False)
    # seed 1 knows item 0 arrived, held by agent 1; a column voids with mass 1/5
    @example(Instance(3, 4, ((F(1), F(0), F(2), F(1)), (F(1), F(1), F(0), F(1)),
                             (F(0), F(1), F(1), F(1))),
                      Distribution(((F(1, 5),) * 4,) * 4)), Mechanism.LIKE, 80, 1, True)
    def test_matches_naive_sampler(self, inst, mechanism, samples, seed, online):
        # same draws, same floats: distribution columns with a no-arrival
        # residual or an item that can arrive twice, known prefixes, and ties
        # among up to four bidders, whose winner draw redraws bits above f
        prefix = random_prefix(random.Random(seed), inst) if online else None
        known = prefix and (prefix[0],
                            AllocationState(tuple(map(frozenset, prefix[1])), F(1)))
        result = monte_carlo_estimate(QueryContext(inst, mechanism, known_prefix=known),
                                      samples, seed)
        assert result == naive_monte_carlo(inst, mechanism, samples, seed, prefix)

    @pytest.mark.parametrize("m", [7, 8])
    @pytest.mark.parametrize("contested", [False, True])
    def test_packed_sizes_at_the_field_boundary(self, m, contested):
        # sizes are packed m.bit_length() bits per agent.  The middle agent
        # alone bids on all but the last item, so its size grows to m - 1 next
        # to agent 2's field; then it takes the last item too, reaching m, or
        # the two others, both empty, tie for it
        side = (F(0),) * (m - 1) + (F(int(contested)),)
        inst = Instance(3, m, (side, (F(1),) * m, side), FixedOrder(tuple(range(m))))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        result = monte_carlo_estimate(ctx, 200, 3)
        assert result == naive_monte_carlo(inst, Mechanism.BALANCED_LIKE, 200, 3)
        assert result.estimates[1] == m - contested

    @pytest.mark.parametrize("inst", [
        reduction2_instance(complete_bipartite(3, 3)),
        Instance(3, 4, ((F(1), F(0), F(2), F(1)), (F(1), F(1), F(0), F(1)), (F(0),) * 4),
                 Distribution(((F(1, 5),) * 4,) * 4))])
    def test_like_resolves_each_item_once(self, monkeypatch, inst):
        # under Like no feasible set reads a bundle size, so each item's is
        # resolved before the first run, however many runs follow
        calls = count_feasible_calls(monkeypatch)
        for samples in (1, 3000):
            calls.clear()
            result = monte_carlo_estimate(QueryContext(inst, Mechanism.LIKE), samples, 4)
            assert result == naive_monte_carlo(inst, Mechanism.LIKE, samples, 4)
            assert len(calls) <= inst.m

    def test_memo_computes_each_feasible_set_once(self, monkeypatch):
        # every run of the K33 gadget meets the same few (item, bidder sizes)
        # keys, so each feasible set is computed once however many runs there are
        inst = reduction2_instance(complete_bipartite(3, 3))
        calls, keys = count_feasible_calls(monkeypatch), set()
        result = monte_carlo_estimate(QueryContext(inst, Mechanism.BALANCED_LIKE), 2000, 11)
        assert result == naive_monte_carlo(inst, Mechanism.BALANCED_LIKE, 2000, 11,
                                           keys=keys)
        assert len(calls) == len(keys)
        assert len(calls) * 20 < 2000 * inst.m

    def test_memo_stops_growing_at_the_budget(self, monkeypatch):
        # 50 runs of the K33 gadget meet more than 50 keys, so under a budget
        # of 50 the memo fills up: later keys are computed again on every
        # visit and the estimate does not change
        inst = reduction2_instance(complete_bipartite(3, 3))
        calls, keys = count_feasible_calls(monkeypatch), set()
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE, budget=50)
        assert monte_carlo_estimate(ctx, 50, 11) \
            == naive_monte_carlo(inst, Mechanism.BALANCED_LIKE, 50, 11, keys=keys)
        assert len(keys) > 50
        assert len(calls) > len(keys)

    def test_rejects_bad_sample_count(self):
        inst = all_ones(1, 1, FixedOrder((0,)))
        with pytest.raises(Exception):
            monte_carlo_estimate(QueryContext(inst, Mechanism.LIKE), 0, seed=1)
