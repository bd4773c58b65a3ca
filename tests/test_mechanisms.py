from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from onlinefair import InputError, Mechanism, feasible_for_counts
from onlinefair.engine import _step

F = Fraction


def step_one_item(mechanism, counts, bidders):
    """Step one arriving item through the count-state kernel from bundle sizes
    ``counts``.  Returns (successor states keyed by bundle sizes under
    Balanced Like, each agent's probability of receiving the item)."""
    alloc = [[F(0)] for _ in counts]
    sizes = tuple(counts) if mechanism is Mechanism.BALANCED_LIKE else ()
    successors = _step({(0, sizes): F(1)}, 0, (((0, 1, F(1)),),), None,
                       (tuple(bidders),), mechanism, alloc, budget=10)
    return ({key: p for (_mask, key), p in successors.items()},
            [row[0] for row in alloc])


class TestMechanismNames:
    def test_from_string(self):
        assert Mechanism.from_string("like") is Mechanism.LIKE
        assert Mechanism.from_string("balanced-like") is Mechanism.BALANCED_LIKE
        assert Mechanism.from_string("Balanced_Like") is Mechanism.BALANCED_LIKE

    def test_unknown(self):
        with pytest.raises(InputError):
            Mechanism.from_string("serial")


class TestFeasibility:
    def test_like_ignores_counts(self):
        assert feasible_for_counts(Mechanism.LIKE, (5, 0, 2), (0, 2)) == (0, 2)

    def test_balanced_like_keeps_fewest(self):
        assert feasible_for_counts(Mechanism.BALANCED_LIKE, (5, 0, 2), (0, 2)) == (2,)
        assert feasible_for_counts(Mechanism.BALANCED_LIKE, (1, 1, 1), (0, 1, 2)) \
            == (0, 1, 2)

    def test_no_bidders(self):
        assert feasible_for_counts(Mechanism.LIKE, (0,), ()) == ()

    def test_minimum_is_over_bidders_only(self):
        # an empty-handed agent who does not bid must not block the others
        assert feasible_for_counts(Mechanism.BALANCED_LIKE, (0, 3, 4), (1, 2)) == (1,)


class TestAllocationStep:
    """One arrival stepped by the engine, whose draw is uniform over
    ``feasible_for_counts``."""

    def test_uniform_over_feasible(self):
        successors, received = step_one_item(Mechanism.LIKE, (0, 0, 0), (0, 1))
        assert received == [F(1, 2), F(1, 2), F(0)]
        assert sum(successors.values()) == F(1)

    def test_unliked_item_is_skipped(self):
        successors, received = step_one_item(Mechanism.BALANCED_LIKE, (0, 0), ())
        assert successors == {(0, 0): F(1)}
        assert received == [F(0), F(0)]

    @given(st.integers(1, 5), st.data())
    def test_transition_probabilities_sum_to_one(self, n, data):
        bids_row = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        counts = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        bidders = tuple(i for i in range(n) if bids_row[i])
        for mechanism in Mechanism:
            successors, received = step_one_item(mechanism, counts, bidders)
            assert sum(successors.values()) == F(1)
            # the item goes to a positive bidder, uniformly over the feasible
            feasible = feasible_for_counts(mechanism, counts, bidders)
            assert set(feasible) <= set(bidders)
            assert bool(feasible) == bool(bidders)
            assert sum(received) == (F(1) if feasible else F(0))
            assert all(received[i] == F(1, len(feasible)) for i in feasible)
            if mechanism is Mechanism.BALANCED_LIKE:
                grown = {counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                         for i in feasible}
                assert set(successors) == (grown or {counts})
