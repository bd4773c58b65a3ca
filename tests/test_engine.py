import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onlinefair import (
    DEFAULT_ENUMERATION_BUDGET,
    AllocationState,
    BidProfile,
    BudgetExceeded,
    Distribution,
    FixedOrder,
    InconsistentPrefix,
    Instance,
    Mechanism,
    NoPositiveBranch,
    QueryContext,
    UnsupportedQuery,
    allocation_states_after,
    distribution_states_after,
    epsilon_bound,
    exact_utility,
    monte_carlo_estimate,
    necessary_utility,
    next_item_probability,
    online_utilities,
    outcome_report,
    possible_item,
    possible_utility,
)
from onlinefair.engine import _columns, _completion

from helpers import (
    naive_distribution_outcome,
    naive_fixed_order_outcome,
    naive_online_possible_items,
    random_distribution_instance,
    random_fixed_instance,
)

F = Fraction


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
        bids = BidProfile(((F(0),), (F(1),)))
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
        states = allocation_states_after(
            QueryContext(inst, Mechanism.BALANCED_LIKE), 1)
        assert len(states) == 2
        assert sum(s.probability for s in states) == F(1)
        assert {s.counts for s in states} == {(1, 0), (0, 1)}

    def test_states_after_rejects_bad_rounds(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        with pytest.raises(Exception):
            allocation_states_after(QueryContext(inst, Mechanism.LIKE), 3)

    def test_states_after_budget_exceeded(self):
        # owner vectors are kept under both mechanisms, so the first arrival
        # already gives three states; with a known prefix the moments count
        # on from the prefix
        inst = all_ones(3, 4, FixedOrder((0, 1, 2, 3)))
        for mechanism in Mechanism:
            with pytest.raises(BudgetExceeded,
                               match=r"3 states at moment 1 of 4 \(budget 2\)"):
                allocation_states_after(QueryContext(inst, mechanism, budget=2), 2)
        prefix = ((0,), AllocationState((frozenset({0}), frozenset(), frozenset()),
                                        F(1)))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE, known_prefix=prefix,
                           budget=1)
        with pytest.raises(BudgetExceeded,
                           match=r"2 states at moment 2 of 4 \(budget 1\)"):
            allocation_states_after(ctx, 1)
        assert len(allocation_states_after(
            QueryContext(inst, Mechanism.BALANCED_LIKE, budget=3), 1)) == 3


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
        report = outcome_report(QueryContext(inst, Mechanism.LIKE, BidProfile(bids)))
        complete = _completion(_columns(inst.arrival), DEFAULT_ENUMERATION_BUDGET)[0]
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
            states, aborted = distribution_states_after(ctx, moments)
            assert sum((s.probability for _, s in states), F(0)) + aborted == F(1)

    def test_states_after_budget_exceeded(self):
        # either item may arrive first and go to either agent: four states
        half = F(1, 2)
        inst = all_ones(2, 2, Distribution(((half, half), (half, half))))
        with pytest.raises(BudgetExceeded,
                           match=r"4 states at moment 1 of 2 \(budget 3\)"):
            distribution_states_after(
                QueryContext(inst, Mechanism.BALANCED_LIKE, budget=3), 1)
        states, aborted = distribution_states_after(
            QueryContext(inst, Mechanism.BALANCED_LIKE, budget=4), 1)
        assert len(states) == 4 and aborted == 0


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
        report = outcome_report(QueryContext(inst, mechanism, BidProfile(bids)))
        utility, alloc = naive_fixed_order_outcome(inst, mechanism, bids)
        assert list(report.expected_utility) == utility
        assert [list(r) for r in report.allocation_probability] == alloc

    @settings(max_examples=80, deadline=None)
    @given(with_bids(distribution_instances()), st.sampled_from(list(Mechanism)))
    def test_distribution_matches_naive_oracle(self, case, mechanism):
        inst, bids = case
        report = outcome_report(QueryContext(inst, mechanism, BidProfile(bids)))
        utility, alloc = naive_distribution_outcome(inst, mechanism, bids)
        assert list(report.expected_utility) == utility
        assert [list(r) for r in report.allocation_probability] == alloc

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
                known_prefix=((0, 0), AllocationState.initial(2))))

    def test_prefix_required(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        with pytest.raises(UnsupportedQuery):
            next_item_probability(QueryContext(inst, Mechanism.LIKE))

    def test_outcome_report_rejects_prefix(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        ctx = QueryContext(inst, Mechanism.LIKE,
                           known_prefix=((0,), AllocationState.initial(2)))
        with pytest.raises(UnsupportedQuery):
            outcome_report(ctx)


class TestPossibility:
    def test_matches_exact_positivity_fixed(self):
        rng = random.Random(31)
        for trial in range(80):
            inst = random_fixed_instance(rng, rng.randint(1, 3), rng.randint(1, 4))
            bids = random_bids(rng, inst) if trial % 2 else None
            for mechanism in Mechanism:
                ctx = QueryContext(inst, mechanism, bids and BidProfile(bids))
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
                ctx = QueryContext(inst, mechanism, bids and BidProfile(bids))
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
                ctx = QueryContext(inst, mechanism, bids and BidProfile(bids),
                                   known_prefix=(arrived, state))
                possible = {(i, k) for i in range(inst.n) for k in range(inst.m)
                            if possible_item(ctx, i, k)}
                assert possible == naive_online_possible_items(
                    inst, mechanism, arrived, bundles, bids)

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
        bids = BidProfile(((F(1), F(1)), (F(1), F(1))))
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
                        states, _ = distribution_states_after(ctx, j)
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
            for state in allocation_states_after(ctx, m):
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
        assert monte_carlo_estimate(ctx, 10, seed=0) == [2.0, 0.0]

    def test_close_to_exact(self):
        inst = all_ones(2, 2, FixedOrder((0, 1)))
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        estimates = monte_carlo_estimate(ctx, 40_000, seed=13)
        for agent in range(2):
            assert abs(estimates[agent] - 1.0) < 0.02

    def test_distribution_aborts_count_as_zero(self):
        # half the mass aborts at the second moment, capping utility at 1/2
        matrix = ((F(1), F(0)), (F(0), F(1, 2)))
        inst = Instance(1, 2, ((F(1), F(0)),), Distribution(matrix))
        ctx = QueryContext(inst, Mechanism.LIKE)
        exact = exact_utility(ctx, 0)
        assert exact == F(1, 2)
        estimate = monte_carlo_estimate(ctx, 60_000, seed=3)[0]
        assert abs(estimate - 0.5) < 0.02

    def test_full_prefix_returns_held_values(self):
        # every item has arrived, so no column is left to sample: the estimate
        # is the held value at once, however many samples are asked for
        inst = Instance(2, 2, ((F(1, 3), F(1)), (F(2), F(0))), FixedOrder((1, 0)))
        state = AllocationState((frozenset({1}), frozenset({0})), F(1))
        ctx = QueryContext(inst, Mechanism.LIKE, known_prefix=((1, 0), state))
        start = time.perf_counter()
        assert monte_carlo_estimate(ctx, 10**7, seed=1) == [1.0, 2.0]
        assert time.perf_counter() - start < 1.0
        assert online_utilities(ctx) == (F(1), F(2))

    def test_rejects_bad_sample_count(self):
        inst = all_ones(1, 1, FixedOrder((0,)))
        with pytest.raises(Exception):
            monte_carlo_estimate(QueryContext(inst, Mechanism.LIKE), 0, seed=1)
