from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from onlinefair import (
    AllocationState,
    DimensionMismatch,
    Distribution,
    FixedOrder,
    InputError,
    Instance,
    InvalidDistribution,
    InvalidOrder,
    NegativeValue,
    format_rational,
    instance_from_json_dict,
    instance_to_json_dict,
    make_instance,
    parse_rational,
    validate_instance,
)
from onlinefair.core import check_allocation_state

F = Fraction


class TestRationalParsing:
    def test_accepts_ints_strings_fractions(self):
        assert parse_rational(3) == F(3)
        assert parse_rational("3") == F(3)
        assert parse_rational("-7/2") == F(-7, 2)
        assert parse_rational(" 5/10 ") == F(1, 2)
        assert parse_rational(F(2, 6)) == F(1, 3)

    @pytest.mark.parametrize("bad", [0.5, "0.5", "1e-3", "three", "1/0", "--1",
                                     True, None, "1/-2"])
    def test_rejects_floats_and_garbage(self, bad):
        with pytest.raises(InputError):
            parse_rational(bad)

    def test_format(self):
        assert format_rational(F(3)) == "3"
        assert format_rational(F(-7, 2)) == "-7/2"
        assert format_rational(F(0)) == "0"

    @given(st.fractions(max_denominator=10**30))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


def two_agent_instance(arrival):
    return Instance(2, 2, ((F(1), F(0)), (F(1), F(1))), arrival)


class TestValidation:
    def test_normalizes_string_utilities(self):
        inst = make_instance(1, 2, [["1/2", 3]], FixedOrder((0, 1)))
        assert inst.utilities == ((F(1, 2), F(3)),)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidOrder):
            validate_instance(two_agent_instance(FixedOrder((0, 0))))
        with pytest.raises(InvalidOrder):
            validate_instance(two_agent_instance(FixedOrder((0,))))

    def test_rejects_negative_utility(self):
        inst = Instance(1, 1, ((F(-1),),), FixedOrder((0,)))
        with pytest.raises(NegativeValue):
            validate_instance(inst)

    def test_rejects_wrong_shape(self):
        inst = Instance(2, 2, ((F(1), F(1)),), FixedOrder((0, 1)))
        with pytest.raises(DimensionMismatch):
            validate_instance(inst)

    def test_rejects_overweight_column(self):
        matrix = ((F(1), F(0)), (F(1, 2), F(1)))
        with pytest.raises(InvalidDistribution):
            validate_instance(two_agent_instance(Distribution(matrix)))

    def test_rejects_entry_above_one(self):
        matrix = ((F(3, 2), F(0)), (F(0), F(0)))
        with pytest.raises(InvalidDistribution):
            validate_instance(two_agent_instance(Distribution(matrix)))

    def test_accepts_subunit_columns(self):
        # residual column mass is the no-arrival probability, so sums below 1
        # are legal
        matrix = ((F(1, 2), F(0)), (F(1, 4), F(1, 3)))
        inst = validate_instance(two_agent_instance(Distribution(matrix)))
        assert inst.arrival.column_mass(0) == F(3, 4)

    def test_likes_is_positivity(self):
        inst = two_agent_instance(FixedOrder((0, 1)))
        assert inst.likes(0, 0) and not inst.likes(0, 1)


class TestAllocationState:
    def test_counts_and_utility(self):
        state = AllocationState((frozenset({0, 2}), frozenset({1})), F(1, 3))
        assert state.counts == (2, 1)
        utilities = ((F(1), F(1), F(4)), (F(2), F(5), F(0)))
        assert state.utility_of(0, utilities) == F(5)
        assert state.utility_of(1, utilities) == F(5)
        assert state.allocated_items() == {0, 1, 2}

    def test_give_accumulates_probability(self):
        state = AllocationState((frozenset(), frozenset({0})), F(1, 2))
        assert state.bundles[1] == {0}
        assert state.probability == F(1, 2)
        assert state.counts == (0, 1)

    def test_check_rejects_overlap(self):
        state = AllocationState((frozenset({0}), frozenset({0})), F(1))
        with pytest.raises(InputError):
            check_allocation_state(state, 2, 1)

    def test_check_rejects_zero_probability(self):
        state = AllocationState((frozenset(), frozenset()), F(0))
        with pytest.raises(InputError):
            check_allocation_state(state, 2, 1)


class TestJsonRoundTrip:
    def test_fixed_order(self):
        inst = make_instance(2, 3, [[1, 0, "1/2"], [0, 1, 1]],
                             FixedOrder((2, 0, 1)))
        data = instance_to_json_dict(inst)
        assert data["arrival"] == {"type": "order", "order": [3, 1, 2]}
        again = instance_from_json_dict(data)
        assert again == inst

    def test_distribution(self):
        matrix = ((F(1, 2), F(0)), (F(1, 2), F(1)))
        inst = validate_instance(two_agent_instance(Distribution(matrix)))
        again = instance_from_json_dict(instance_to_json_dict(inst))
        assert again == inst

    def test_rejects_float_entries(self):
        data = {"agents": 1, "items": 1, "utilities": [[0.25]],
                "arrival": {"type": "order", "order": [1]}}
        with pytest.raises(InputError):
            instance_from_json_dict(data)

    def test_rejects_unknown_arrival(self):
        data = {"agents": 1, "items": 1, "utilities": [[1]],
                "arrival": {"type": "poisson"}}
        with pytest.raises(InputError):
            instance_from_json_dict(data)

    def test_rejects_missing_fields(self):
        with pytest.raises(InputError):
            instance_from_json_dict({"agents": 1})
