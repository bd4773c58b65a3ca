import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onlinefair import (
    BudgetExceeded,
    FixedOrder,
    InputError,
    Instance,
    ManipulationQuery,
    Mechanism,
    QueryContext,
    best_response_search,
    exact_manipulation_gain,
    is_strategyproof_on_instance,
    necessary_manipulation,
    outcome_report,
    reduction3_instance,
    reduction3_roles,
    utilities_under_deviation,
)

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
                q = ManipulationQuery(inst, mechanism, agent,
                                      inst.utilities[agent])
                assert exact_manipulation_gain(q) == F(0)

    def test_pinned_witness_values(self):
        inst = pinned_witness()
        q = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, 2,
                              (F(0), F(1), F(1)))
        sincere, deviated = utilities_under_deviation(q)
        assert sincere == F(9, 8)
        assert deviated == F(5, 4)
        assert exact_manipulation_gain(q) == F(1, 8)
        # entries are parsed like any rational input
        assert exact_manipulation_gain(q._replace(deviation=["0", 1, "1/2"])) == F(1, 8)

    def test_dropping_every_bid_avoids_all_items(self):
        inst = pinned_witness()
        q = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, 2,
                              (F(0), F(0), F(0)))
        _, deviated = utilities_under_deviation(q)
        assert deviated == F(0)

    def test_explicit_sincere_row_overrides_utilities(self):
        # gains are measured between the two given rows, priced by true
        # utilities either way
        inst = pinned_witness()
        q = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, 2,
                              deviation=(F(0), F(1), F(1)),
                              sincere=(F(0), F(1), F(1)))
        assert exact_manipulation_gain(q) == F(0)

    def test_bid_row_validation(self):
        inst = pinned_witness()
        with pytest.raises(InputError):
            exact_manipulation_gain(ManipulationQuery(
                inst, Mechanism.LIKE, 0, (F(1), F(1))))
        with pytest.raises(InputError):
            exact_manipulation_gain(ManipulationQuery(
                inst, Mechanism.LIKE, 0, (F(-1), F(1), F(1))))
        with pytest.raises(InputError):
            exact_manipulation_gain(ManipulationQuery(
                inst, Mechanism.LIKE, 0, (0.5, 1, 1)))

    @pytest.mark.parametrize("agent", [-1, 3])
    def test_agent_out_of_range(self, agent):
        # -1 must not answer for the last agent
        inst = pinned_witness()
        q = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, agent, (F(0), F(1), F(1)))
        with pytest.raises(InputError, match=r"outside 0\.\.2"):
            utilities_under_deviation(q)
        with pytest.raises(InputError, match=r"outside 0\.\.2"):
            best_response_search(inst, Mechanism.BALANCED_LIKE, agent)

    def test_query_budget_bounds_every_entry_point(self):
        q = ManipulationQuery(pinned_witness(), Mechanism.BALANCED_LIKE, 2,
                              (F(0), F(1), F(1)), budget=1)
        for query in (utilities_under_deviation, exact_manipulation_gain,
                      necessary_manipulation):
            with pytest.raises(BudgetExceeded):
                query(q)
        assert exact_manipulation_gain(q._replace(budget=3)) == F(1, 8)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value="1/7", max_value=9, max_denominator=11))
    def test_gain_depends_only_on_bid_positivity(self, scale):
        inst = pinned_witness()
        base = (F(0), F(1), F(1))
        scaled = tuple(scale * v for v in base)
        q_base = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, 2, base)
        q_scaled = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, 2, scaled)
        assert exact_manipulation_gain(q_base) \
            == exact_manipulation_gain(q_scaled)


class TestNecessaryManipulation:
    def test_threshold_boundary(self):
        inst = pinned_witness()
        deviation = (F(0), F(1), F(1))
        gain = exact_manipulation_gain(
            ManipulationQuery(inst, Mechanism.BALANCED_LIKE, 2, deviation))
        at = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, 2, deviation,
                               threshold=gain)
        above = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, 2, deviation,
                                  threshold=gain + F(1, 10**6))
        assert necessary_manipulation(at)
        assert not necessary_manipulation(at, strict=True)
        assert not necessary_manipulation(above)

    def test_zero_threshold_default(self):
        inst = pinned_witness()
        q = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, 2,
                              (F(0), F(1), F(1)))
        assert q.threshold == F(0)
        assert necessary_manipulation(q)
        assert necessary_manipulation(q, strict=True)

    def test_prize_drop_on_reachable_gadget_is_harmful(self):
        # when the challenger can actually win the prize, zero-bidding it
        # can only lose utility
        g = hexagon_cycle()
        inst = reduction3_instance(g, 3)
        roles = reduction3_roles(g, 3)
        challenger = roles["challenger"]
        deviation = list(inst.utilities[challenger])
        deviation[roles["prize_item"]] = F(0)
        q = ManipulationQuery(inst, Mechanism.BALANCED_LIKE, challenger,
                              tuple(deviation))
        assert exact_manipulation_gain(q) == -F(1, 4)
        assert not necessary_manipulation(q)


class TestBestResponse:
    def test_finds_pinned_witness(self):
        inst = pinned_witness()
        row, gain = best_response_search(inst, Mechanism.BALANCED_LIKE, 2)
        assert row == (F(0), F(1), F(1))
        assert gain == F(1, 8)
        assert not is_strategyproof_on_instance(inst, Mechanism.BALANCED_LIKE)

    def test_ties_break_to_sincere(self):
        inst = Instance(2, 2, ((F(1), F(1)), (F(1), F(1))), FixedOrder((0, 1)))
        row, gain = best_response_search(inst, Mechanism.BALANCED_LIKE, 0)
        assert gain == F(0)
        assert row == inst.utilities[0]

    def test_tie_between_rows_breaks_to_smallest_row(self):
        # (1, 0, 1, 0) and (1, 1, 0, 0) both gain 1/2.  Bits are decided in
        # arrival order 3, 2, 1, 0, so a walk taking 0 before 1 reaches
        # (1, 1, 0, 0) first; the smaller row in item order still wins.
        inst = Instance(2, 4, ((F(2), F(2), F(1), F(2)), (F(2), F(1), F(1), F(0))),
                        FixedOrder((3, 2, 1, 0)))
        row, gain = best_response_search(inst, Mechanism.BALANCED_LIKE, 1)
        assert row == (F(1), F(0), F(1), F(0))
        assert gain == F(1, 2)

    def test_tie_with_sincere_row_returns_it(self):
        # (1, 1, 0) is smaller than the sincere pattern (1, 1, 1) and ties it
        # at the maximum, 5/3; only a strict gain displaces the sincere row
        inst = Instance(3, 3, ((F(0), F(1), F(2)), (F(0), F(1), F(2)),
                               (F(1), F(2), F(2))), FixedOrder((1, 0, 2)))
        row, gain = best_response_search(inst, Mechanism.BALANCED_LIKE, 2)
        assert row == inst.utilities[2]
        assert gain == F(0)

    def test_budget_exceeded_names_moment(self):
        # items 0 and 1 are wanted by the searched agent alone; the frontier
        # first splits at item 2, which agents 0 and 1 tie on
        inst = Instance(3, 3, ((F(0), F(0), F(1)), (F(0), F(0), F(1)),
                               (F(1), F(1), F(1))), FixedOrder((0, 1, 2)))
        with pytest.raises(BudgetExceeded, match=r"at moment 3 of 3 \(budget 1\)"):
            best_response_search(inst, Mechanism.BALANCED_LIKE, 2, budget=1)
        # under Like a fixed-order frontier holds a single state
        assert best_response_search(inst, Mechanism.LIKE, 2, budget=1) \
            == (inst.utilities[2], F(0))
        assert is_strategyproof_on_instance(inst, Mechanism.LIKE, budget=1)

    def test_like_is_strategyproof_on_random_instances(self):
        rng = random.Random(55)
        for trial in range(25):
            inst = random_fixed_instance(rng, rng.randint(1, 3),
                                         rng.randint(1, 4), rational=trial % 2)
            assert is_strategyproof_on_instance(inst, Mechanism.LIKE)

    def test_two_agent_balanced_binary_is_strategyproof(self):
        rng = random.Random(56)
        for _ in range(25):
            inst = random_fixed_instance(rng, 2, rng.randint(1, 4))
            assert is_strategyproof_on_instance(inst, Mechanism.BALANCED_LIKE)

    def test_item_cap(self):
        inst = Instance(1, 3, ((F(1), F(1), F(1)),), FixedOrder((0, 1, 2)))
        with pytest.raises(BudgetExceeded):
            best_response_search(inst, Mechanism.LIKE, 0, max_items=2)

    def test_gain_never_negative(self):
        # sincere is always a candidate, so the search result cannot lose
        rng = random.Random(57)
        for _ in range(10):
            inst = random_fixed_instance(rng, rng.randint(2, 3),
                                         rng.randint(1, 4))
            for mechanism in Mechanism:
                _, gain = best_response_search(inst, mechanism, 0)
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
                q = ManipulationQuery(inst, mechanism, agent, deviation)
                sincere, deviated = utilities_under_deviation(q)
                assert sincere == outcome_report(
                    QueryContext(inst, mechanism)).expected_utility[agent]
                assert exact_manipulation_gain(q) == deviated - sincere


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
            assert best_response_search(inst, mechanism, agent) \
                == naive_best_response(inst, mechanism, agent)
