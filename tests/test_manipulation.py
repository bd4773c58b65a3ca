import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onlinefair import (
    AllocationState,
    BudgetExceeded,
    Distribution,
    FixedOrder,
    InputError,
    Instance,
    Mechanism,
    QueryContext,
    best_response_search,
    exact_manipulation_gain,
    exact_utility,
    is_strategyproof_on_instance,
    necessary_manipulation,
    outcome_report,
    reduction3_instance,
    reduction3_roles,
    utilities_under_deviation,
)
from onlinefair import _search

from helpers import (
    hexagon_cycle,
    naive_best_response,
    random_distribution_instance,
    random_fixed_instance,
)

F = Fraction


def pinned_witness():
    """Three agents, three items, a strict Balanced Like manipulation.

    The third agent drops their bid on the first item so they still hold
    nothing when the later items arrive, which raises their priority."""
    utilities = ((F(0), F(1), F(0)),
                 (F(1), F(0), F(1)),
                 (F(1), F(1), F(1)))
    return Instance(3, 3, utilities, FixedOrder((0, 1, 2)))


class TestExactGain:
    def test_identity_deviation_gains_nothing(self):
        inst = pinned_witness()
        for mechanism in Mechanism:
            for agent in range(3):
                assert exact_manipulation_gain(QueryContext(inst, mechanism), agent,
                                               inst.utilities[agent]) == F(0)

    def test_pinned_witness_values(self):
        inst = pinned_witness()
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        sincere, deviated = utilities_under_deviation(ctx, 2, (F(0), F(1), F(1)))
        assert sincere == F(9, 8)
        assert deviated == F(5, 4)
        assert exact_manipulation_gain(ctx, 2, (F(0), F(1), F(1))) == F(1, 8)
        # entries are parsed like any rational input
        assert exact_manipulation_gain(ctx, 2, ["0", 1, "1/2"]) == F(1, 8)

    def test_dropping_every_bid_avoids_all_items(self):
        inst = pinned_witness()
        _, deviated = utilities_under_deviation(
            QueryContext(inst, Mechanism.BALANCED_LIKE), 2, (F(0), F(0), F(0)))
        assert deviated == F(0)

    def test_explicit_sincere_row_overrides_utilities(self):
        # gains are measured between the two given rows, priced by true
        # utilities either way
        inst = pinned_witness()
        assert exact_manipulation_gain(QueryContext(inst, Mechanism.BALANCED_LIKE), 2,
                                       deviation=(F(0), F(1), F(1)),
                                       sincere=(F(0), F(1), F(1))) == F(0)

    def test_bid_row_validation(self):
        ctx = QueryContext(pinned_witness(), Mechanism.LIKE)
        with pytest.raises(InputError):
            exact_manipulation_gain(ctx, 0, (F(1), F(1)))
        with pytest.raises(InputError):
            exact_manipulation_gain(ctx, 0, (F(-1), F(1), F(1)))
        with pytest.raises(InputError):
            exact_manipulation_gain(ctx, 0, (0.5, 1, 1))

    @pytest.mark.parametrize("agent", [-1, 3])
    def test_agent_out_of_range(self, agent):
        # -1 must not answer for the last agent
        ctx = QueryContext(pinned_witness(), Mechanism.BALANCED_LIKE)
        with pytest.raises(InputError, match=r"outside 0\.\.2"):
            utilities_under_deviation(ctx, agent, (F(0), F(1), F(1)))
        with pytest.raises(InputError, match=r"outside 0\.\.2"):
            best_response_search(ctx, agent)

    def test_query_budget_bounds_every_entry_point(self):
        ctx = QueryContext(pinned_witness(), Mechanism.BALANCED_LIKE, budget=1)
        for query in (utilities_under_deviation, exact_manipulation_gain,
                      necessary_manipulation):
            with pytest.raises(BudgetExceeded):
                query(ctx, 2, (F(0), F(1), F(1)))
        assert exact_manipulation_gain(ctx._replace(budget=3), 2,
                                       (F(0), F(1), F(1))) == F(1, 8)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value="1/7", max_value=9, max_denominator=11))
    def test_gain_depends_only_on_bid_positivity(self, scale):
        inst = pinned_witness()
        base = (F(0), F(1), F(1))
        scaled = tuple(scale * v for v in base)
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        assert exact_manipulation_gain(ctx, 2, base) \
            == exact_manipulation_gain(ctx, 2, scaled)


class TestNecessaryManipulation:
    def test_threshold_boundary(self):
        ctx = QueryContext(pinned_witness(), Mechanism.BALANCED_LIKE)
        deviation = (F(0), F(1), F(1))
        gain = exact_manipulation_gain(ctx, 2, deviation)
        assert necessary_manipulation(ctx, 2, deviation, threshold=gain)
        assert not necessary_manipulation(ctx, 2, deviation, threshold=gain,
                                          strict=True)
        assert not necessary_manipulation(ctx, 2, deviation,
                                          threshold=gain + F(1, 10**6))

    def test_zero_threshold_default(self):
        inst = pinned_witness()
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        assert necessary_manipulation(ctx, 2, (F(0), F(1), F(1)))
        assert necessary_manipulation(ctx, 2, (F(0), F(1), F(1)), strict=True)
        # the sincere row gains exactly 0, which pins the default threshold
        assert necessary_manipulation(ctx, 2, inst.utilities[2])
        assert not necessary_manipulation(ctx, 2, inst.utilities[2], strict=True)

    def test_prize_drop_on_reachable_gadget_is_harmful(self):
        # when the challenger can actually win the prize, zero-bidding it
        # can only lose utility
        g = hexagon_cycle()
        inst = reduction3_instance(g, 3)
        roles = reduction3_roles(g, 3)
        challenger = roles["challenger"]
        deviation = list(inst.utilities[challenger])
        deviation[roles["prize_item"]] = F(0)
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        assert exact_manipulation_gain(ctx, challenger, deviation) == -F(1, 4)
        assert not necessary_manipulation(ctx, challenger, deviation)


class TestBestResponse:
    def test_finds_pinned_witness(self):
        inst = pinned_witness()
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        row, gain = best_response_search(ctx, 2)
        assert row == (F(0), F(1), F(1))
        assert gain == F(1, 8)
        assert not is_strategyproof_on_instance(ctx)

    def test_ties_break_to_sincere(self):
        inst = Instance(2, 2, ((F(1), F(1)), (F(1), F(1))), FixedOrder((0, 1)))
        row, gain = best_response_search(QueryContext(inst, Mechanism.BALANCED_LIKE), 0)
        assert gain == F(0)
        assert row == inst.utilities[0]

    def test_tie_between_rows_breaks_to_smallest_row(self):
        # (1, 0, 1, 0) and (1, 1, 0, 0) both gain 1/2.  Bits are decided in
        # arrival order 3, 2, 1, 0, so a walk taking 0 before 1 reaches
        # (1, 1, 0, 0) first; the smaller row in item order still wins.
        inst = Instance(2, 4, ((F(2), F(2), F(1), F(2)), (F(2), F(1), F(1), F(0))),
                        FixedOrder((3, 2, 1, 0)))
        row, gain = best_response_search(QueryContext(inst, Mechanism.BALANCED_LIKE), 1)
        assert row == (F(1), F(0), F(1), F(0))
        assert gain == F(1, 2)

    def test_tie_with_sincere_row_returns_it(self):
        # (1, 1, 0) is smaller than the sincere pattern (1, 1, 1) and ties it
        # at the maximum, 5/3; only a strict gain displaces the sincere row
        inst = Instance(3, 3, ((F(0), F(1), F(2)), (F(0), F(1), F(2)),
                               (F(1), F(2), F(2))), FixedOrder((1, 0, 2)))
        row, gain = best_response_search(QueryContext(inst, Mechanism.BALANCED_LIKE), 2)
        assert row == inst.utilities[2]
        assert gain == F(0)

    def test_budget_exceeded_names_moment(self, monkeypatch):
        # six agents who want every item, each item arriving at every moment
        # with probability 1/3: the frontier outgrows budgets of at least the
        # 2^3 rows until it holds its 45 states
        inst = Instance(6, 3, ((F(1),) * 3,) * 6, Distribution(((F(1, 3),) * 3,) * 3))
        for budget, states, moment in ((8, 15, 1), (44, 45, 2)):
            ctx = QueryContext(inst, Mechanism.BALANCED_LIKE, budget=budget)
            message = (rf"frontier reached {states} states at moment {moment} of 3 "
                       rf"\(budget {budget}\)")
            with pytest.raises(BudgetExceeded, match=message):
                best_response_search(ctx, 0)
            with pytest.raises(BudgetExceeded, match=message):
                is_strategyproof_on_instance(ctx)
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE, budget=45)
        assert best_response_search(ctx, 0) == (inst.utilities[0], F(0))
        # under Like the search answers without stepping any frontier, so no
        # budget is ever reached
        def no_step(*_args):
            raise AssertionError("the Like search stepped a frontier")
        with monkeypatch.context() as patch:
            patch.setattr(_search, "_step", no_step)
            like = QueryContext(inst, Mechanism.LIKE, budget=1)
            assert best_response_search(like, 0) == (inst.utilities[0], F(0))
            assert is_strategyproof_on_instance(like)

    def test_like_is_strategyproof_on_random_instances(self):
        rng = random.Random(55)
        for trial in range(25):
            inst = random_fixed_instance(rng, rng.randint(1, 3),
                                         rng.randint(1, 4), rational=trial % 2)
            assert is_strategyproof_on_instance(QueryContext(inst, Mechanism.LIKE))

    def test_two_agent_balanced_binary_is_strategyproof(self):
        rng = random.Random(56)
        for _ in range(25):
            inst = random_fixed_instance(rng, 2, rng.randint(1, 4))
            assert is_strategyproof_on_instance(
                QueryContext(inst, Mechanism.BALANCED_LIKE))

    @pytest.mark.parametrize("mechanism", list(Mechanism))
    def test_rows_over_budget_refused_before_any_work(self, monkeypatch, mechanism):
        # 2^3 rows: under Balanced Like budget 7 refuses before the arrival
        # plan is built, and budget 8 answers as the default budget does.
        # Like is strategyproof, so it answers at budget 7 with no plan built
        inst = pinned_witness()
        expected = [best_response_search(QueryContext(inst, mechanism), agent)
                    for agent in range(3)]
        def no_plan(*_args):
            raise AssertionError("the search started")
        with monkeypatch.context() as patch:
            patch.setattr(_search, "_plan", no_plan)
            ctx = QueryContext(inst, mechanism, budget=7)
            if mechanism is Mechanism.LIKE:
                assert [best_response_search(ctx, agent)
                        for agent in range(3)] == expected
                assert is_strategyproof_on_instance(ctx)
            else:
                for search in (lambda: best_response_search(ctx, 2),
                               lambda: is_strategyproof_on_instance(ctx)):
                    with pytest.raises(BudgetExceeded) as refused:
                        search()
                    assert str(refused.value) == \
                        "best-response search needs 2^3 rows (budget 7)"
        ctx = QueryContext(inst, mechanism, budget=8)
        assert [best_response_search(ctx, agent) for agent in range(3)] == expected
        assert is_strategyproof_on_instance(ctx) is (mechanism is Mechanism.LIKE)

    def test_like_answer_keeps_the_input_checks(self):
        # Like answers without a search, but only after the checks that come
        # first in one: the agent index, a known prefix, and the bids
        inst = pinned_witness()
        ctx = QueryContext(inst, Mechanism.LIKE)
        with pytest.raises(InputError, match=r"outside 0\.\.2"):
            best_response_search(ctx, 3)
        empty = AllocationState((frozenset(),) * 3, F(1))
        negative = (*inst.utilities[:2], (F(-1), F(0), F(1)))
        for bad, message in ((ctx._replace(known_prefix=((), empty)), "empty allocation"),
                             (ctx._replace(bids=inst.utilities[:2]), "does not match"),
                             (ctx._replace(bids=negative), "negative bid -1")):
            with pytest.raises(InputError, match=message):
                best_response_search(bad, 0)
            with pytest.raises(InputError, match=message):
                is_strategyproof_on_instance(bad)

    def test_gain_never_negative(self):
        # sincere is always a candidate, so the search result cannot lose
        rng = random.Random(57)
        for _ in range(10):
            inst = random_fixed_instance(rng, rng.randint(2, 3),
                                         rng.randint(1, 4))
            for mechanism in Mechanism:
                _, gain = best_response_search(QueryContext(inst, mechanism), 0)
                assert gain >= 0


class TestAgainstEngine:
    def test_gain_matches_two_direct_reports(self):
        rng = random.Random(58)
        for _ in range(20):
            inst = random_fixed_instance(rng, rng.randint(2, 3),
                                         rng.randint(1, 4))
            agent = rng.randrange(inst.n)
            deviation = tuple(F(rng.randint(0, 1)) for _ in range(inst.m))
            for mechanism in Mechanism:
                ctx = QueryContext(inst, mechanism)
                sincere, deviated = utilities_under_deviation(ctx, agent, deviation)
                assert sincere == outcome_report(ctx).expected_utility[agent]
                assert exact_manipulation_gain(ctx, agent, deviation) \
                    == deviated - sincere


class TestAgainstNaiveOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_best_response_matches_naive(self, rng, fixed):
        # distributions stop at m=4: the naive oracle expands every arrival
        # sequence for every row
        n = rng.randint(1, 4)
        m = rng.randint(1, 6 if fixed else 4)
        make = random_fixed_instance if fixed else random_distribution_instance
        inst = make(rng, n, m, rational=True)
        agent = rng.randrange(n)
        for mechanism in Mechanism:
            assert best_response_search(QueryContext(inst, mechanism), agent) \
                == naive_best_response(inst, mechanism, agent)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_other_agents_bid_the_context_bids(self, rng, fixed):
        # the others bid ctx.bids and the agent keeps its true row: the search
        # is the naive one on an instance whose utilities are those bids, and
        # a deviation's two values are exact_utility with the row swapped in
        n = rng.randint(1, 4)
        m = rng.randint(1, 6 if fixed else 4)
        make = random_fixed_instance if fixed else random_distribution_instance
        inst = make(rng, n, m, rational=True)
        agent = rng.randrange(n)
        bids = [tuple(F(rng.randint(0, 2)) for _ in range(m)) for _ in range(n)]
        bids[agent] = inst.utilities[agent]
        deviation = tuple(F(rng.randint(0, 1)) for _ in range(m))
        swapped = [*bids[:agent], deviation, *bids[agent + 1:]]
        for mechanism in Mechanism:
            ctx = QueryContext(inst, mechanism, tuple(bids))
            assert best_response_search(ctx, agent) \
                == naive_best_response(inst._replace(utilities=tuple(bids)),
                                       mechanism, agent)
            assert utilities_under_deviation(ctx, agent, deviation) \
                == (exact_utility(ctx, agent),
                    exact_utility(ctx._replace(bids=tuple(swapped)), agent))


class TestKnownPrefix:
    def prefix_context(self):
        # agent 2 already holds item 1, the first of the fixed order
        state = AllocationState((frozenset(), frozenset({0}), frozenset()), F(1))
        return QueryContext(pinned_witness(), Mechanism.BALANCED_LIKE,
                            known_prefix=((0,), state))

    def test_search_and_strategyproof_check_refuse_a_prefix(self):
        ctx = self.prefix_context()
        refusal = "best-response search starts from the empty allocation"
        with pytest.raises(InputError, match=refusal):
            best_response_search(ctx, 2)
        with pytest.raises(InputError, match=refusal):
            is_strategyproof_on_instance(ctx)

    def test_deviation_is_priced_in_the_online_setting(self):
        ctx = self.prefix_context()
        deviation = (F(0), F(0), F(0))
        rows = ctx.instance.utilities
        sincere, deviated = utilities_under_deviation(ctx, 2, deviation)
        assert sincere == exact_utility(ctx, 2)
        assert deviated == exact_utility(ctx._replace(bids=(*rows[:2], deviation)), 2)
        # bidding on nothing, agent 3 cannot win the next item
        assert deviated == 0 < sincere
