import importlib
import pkgutil
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import onlinefair
from onlinefair import (
    DEFAULT_ENUMERATION_BUDGET,
    AllocationState,
    BudgetExceeded,
    Distribution,
    FixedOrder,
    InputError,
    Instance,
    Mechanism,
    OutcomeReport,
    QueryContext,
    SubsetInstance,
    format_rational,
    make_graph,
    instance_from_json_dict,
    instance_to_json_dict,
    parse_rational,
    validate_instance,
)
from onlinefair.core import check_prefix

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
        inst = validate_instance(Instance(1, 2, [["1/2", 3]], FixedOrder((0, 1))))
        assert inst.utilities == ((F(1, 2), F(3)),)

    def test_rejects_bad_order(self):
        with pytest.raises(InputError,
                           match=re.escape("order (0, 0) is not a permutation of 0..1")):
            validate_instance(two_agent_instance(FixedOrder((0, 0))))
        with pytest.raises(InputError,
                           match=re.escape("order (0,) is not a permutation of 0..1")):
            validate_instance(two_agent_instance(FixedOrder((0,))))

    def test_rejects_negative_utility(self):
        inst = Instance(1, 1, ((F(-1),),), FixedOrder((0,)))
        with pytest.raises(InputError, match="negative utility -1"):
            validate_instance(inst)

    def test_rejects_wrong_shape(self):
        inst = Instance(2, 2, ((F(1), F(1)),), FixedOrder((0, 1)))
        with pytest.raises(InputError, match="utility matrix is 1x2, expected 2x2"):
            validate_instance(inst)

    def test_rejects_unknown_arrival_model(self):
        with pytest.raises(InputError, match="unknown arrival model 'order'"):
            validate_instance(Instance(1, 1, ((1,),), "order"))

    def test_rejects_overweight_column(self):
        matrix = ((F(1), F(0)), (F(1, 2), F(1)))
        with pytest.raises(InputError,
                           match="column 1 of the arrival matrix sums to 3/2 > 1"):
            validate_instance(two_agent_instance(Distribution(matrix)))

    def test_rejects_entry_above_one(self):
        matrix = ((F(3, 2), F(0)), (F(0), F(0)))
        with pytest.raises(InputError, match="arrival probability 3/2 > 1"):
            validate_instance(two_agent_instance(Distribution(matrix)))

    def test_accepts_subunit_columns(self):
        # residual column mass is the no-arrival probability, so sums below 1
        # are legal
        matrix = ((F(1, 2), F(0)), (F(1, 4), F(1, 3)))
        inst = validate_instance(two_agent_instance(Distribution(matrix)))
        assert sum(row[0] for row in inst.arrival.matrix) == F(3, 4)

    def test_likes_is_positivity(self):
        inst = two_agent_instance(FixedOrder((0, 1)))
        assert inst.utilities[0][0] > 0 and not inst.utilities[0][1] > 0


class TestAllocationState:
    def test_counts_and_utility(self):
        state = AllocationState((frozenset({0, 2}), frozenset({1})), F(1, 3))
        assert state.counts == (2, 1)
        utilities = ((F(1), F(1), F(4)), (F(2), F(5), F(0)))
        assert state.utility_of(0, utilities) == F(5)
        assert state.utility_of(1, utilities) == F(5)

    def test_give_accumulates_probability(self):
        state = AllocationState((frozenset(), frozenset({0})), F(1, 2))
        assert state.bundles[1] == {0}
        assert state.probability == F(1, 2)
        assert state.counts == (0, 1)

    @pytest.mark.parametrize("arrived, bundles, probability, message", [
        # each fault alone
        ((0,), ({0}, set(), set()), 1, "prefix has 3 bundles for 2 agents"),
        ((0,), ({0}, {0}), 1, "item 0 appears in two bundles"),
        ((), (set(), set()), 0, r"state probability 0 outside \(0, 1\]"),
        ((), (set(), set()), F(3, 2), r"state probability 3/2 outside \(0, 1\]"),
        ((0, 0), (set(), set()), 1, "an item arrived twice in the prefix"),
        ((7,), (set(), set()), 1, "arrived item 7 out of range"),
        ((-1,), (set(), set()), 1, "arrived item -1 out of range"),
        ((0,), ({1}, set()), 1, "state allocates an item that never arrived"),
        # a bundle item out of range never arrived either
        ((0, 1), ({5}, set()), 1, "state allocates an item that never arrived"),
        ((1,), (set(), set()), 1, "arrived items are not a prefix of the fixed order"),
        # with several faults, the first in this order is named
        ((1, 1), ({0}, {0}, set()), 0, "prefix has 3 bundles for 2 agents"),
        ((1, 1), ({0}, {0}), 0, "item 0 appears in two bundles"),
        ((1, 1), ({5}, set()), 0, r"state probability 0 outside \(0, 1\]"),
        ((1, 1, 7), ({5}, set()), 1, "an item arrived twice in the prefix"),
        ((1, 7), ({5}, set()), 1, "arrived item 7 out of range"),
        ((1,), ({5}, set()), 1, "state allocates an item that never arrived"),
    ])
    def test_check_prefix_names_the_first_fault(self, arrived, bundles, probability,
                                                message):
        inst = two_agent_instance(FixedOrder((0, 1)))
        state = AllocationState(tuple(map(frozenset, bundles)), F(probability))
        with pytest.raises(InputError, match=f"^{message}$"):
            check_prefix(inst, arrived, state)

    def test_check_prefix_returns_the_arrived_tuple(self):
        state = AllocationState((frozenset({1}), frozenset()), F(1, 3))
        inst = two_agent_instance(Distribution(((F(1, 2),) * 2,) * 2))
        assert check_prefix(inst, [1], state) == ((1,), state)


class TestJsonRoundTrip:
    def test_fixed_order(self):
        inst = validate_instance(Instance(2, 3, [[1, 0, "1/2"], [0, 1, 1]],
                                          FixedOrder((2, 0, 1))))
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


# record name -> (one of its fields, a builder of one record)
RECORDS = {
    "FixedOrder": ("order", lambda: FixedOrder((1, 0))),
    "Distribution": ("matrix", lambda: Distribution(((F(1, 2), F(1)), (F(1, 2), F(0))))),
    "Instance": ("arrival", lambda: two_agent_instance(FixedOrder((0, 1)))),
    "AllocationState": ("probability", lambda: AllocationState(
        (frozenset({1}), frozenset()), F(1, 2))),
    "OutcomeReport": ("method", lambda: OutcomeReport(
        (F(1), F(1, 2)), ((F(1), F(0)),), "dp")),
    "QueryContext": ("budget", lambda: QueryContext(
        two_agent_instance(FixedOrder((0, 1))), Mechanism.LIKE)),
    "BipartiteGraph": ("edges", lambda: make_graph(2, 2, [(0, 0), (1, 1)])),
    "SubsetInstance": ("b", lambda: SubsetInstance((1, 2, 3), 5, 2)),
}


class TestRecords:
    """The records' value semantics: built by keyword or position, equal and
    hash-equal when their fields are, and immutable."""

    def test_keyword_construction_and_defaults(self):
        inst = two_agent_instance(FixedOrder((0, 1)))
        ctx = QueryContext(instance=inst, mechanism=Mechanism.LIKE)
        assert ctx.bids is None and ctx.known_prefix is None
        assert ctx.budget == DEFAULT_ENUMERATION_BUDGET
        assert ctx == QueryContext(inst, Mechanism.LIKE, None, None,
                                   DEFAULT_ENUMERATION_BUDGET)
        assert Instance(n=2, m=2, utilities=inst.utilities,
                        arrival=inst.arrival) == inst

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_equal_records_hash_equal(self, name):
        _field, build = RECORDS[name]
        a, b = build(), build()
        assert a is not b
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_fields_are_read_only(self, name):
        field, build = RECORDS[name]
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    def test_allocation_state_counts_and_initial(self):
        start = AllocationState((frozenset(),) * 3, F(1))
        assert start.bundles == (frozenset(),) * 3 and start.probability == 1
        assert start.counts == (0, 0, 0)
        state = AllocationState((frozenset({0, 2}), frozenset()), F(1))
        assert state.counts == (2, 0)


def test_one_error_type_per_exit_code():
    """The package defines exactly two exception types: InputError (CLI exit
    2) and BudgetExceeded (CLI exit 3)."""
    defined = set()
    for info in pkgutil.iter_modules(onlinefair.__path__, "onlinefair."):
        for value in vars(importlib.import_module(info.name)).values():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__.startswith("onlinefair")):
                defined.add(value)
    assert defined == {InputError, BudgetExceeded}
