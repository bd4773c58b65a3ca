"""Domain types and exact arithmetic for online fair division problems.

Every number that enters an outcome computation (utility, bid, arrival
probability, threshold) is a ``fractions.Fraction``.  Floats are rejected at
all parsing boundaries, so results are bit-exact end to end.  All types here
are immutable after validation and safe to share across workers.

Agent and item indices are 0-based throughout the library; the JSON formats
(and the CLI) use 1-based indices.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple, Union

#: Default cap on the merged enumeration frontier (number of states).
DEFAULT_ENUMERATION_BUDGET = 10**6


class InputError(ValueError):
    """Malformed input, or a query that does not fit its context (such as a
    known prefix where none applies).  CLI exit code 2."""


class BudgetExceeded(RuntimeError):
    """An enumeration outgrew its configured state cap.  CLI exit code 3.

    This signals that the query is beyond desk scale, not that the input is
    invalid; results are never silently truncated.
    """


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a ``p/q`` string.

    Bare integer strings are accepted ("3" == "3/1").  Floats and float-like
    strings are rejected: a float literal has already lost the exactness this
    library is built around.
    """
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value.strip())
        if match is None:
            raise InputError(f"not an exact rational literal: {value!r}")
        try:
            numerator = int(match.group(1))
            denominator = int(match.group(2)) if match.group(2) else 1
        except ValueError as exc:  # over the int string conversion limit
            raise InputError(f"rational literal too long: {exc}") from exc
        if denominator == 0:
            raise InputError(f"zero denominator: {value!r}")
        return Fraction(numerator, denominator)
    raise InputError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a rational as ``p/q``, or bare ``p`` when the denominator is 1.

    Python's int string conversion limit is kept to refuse huge input
    literals, but an exact answer may pass it, so it is lifted while such an
    answer is written.
    """
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def _rational_matrix(rows, *, what: str) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(tuple(map(parse_rational, row)) for row in rows)
    if not out:
        raise InputError(f"{what} matrix is empty")
    if any(len(row) != len(out[0]) for row in out):
        raise InputError(f"{what} matrix rows have unequal lengths")
    return out


class FixedOrder(NamedTuple):
    """Deterministic arrival: ``order[j]`` is the item arriving at moment j."""

    order: tuple[int, ...]


class Distribution(NamedTuple):
    """Stochastic arrival: ``matrix[k][j]`` is the probability that item k
    arrives at moment j.

    Column sums may be strictly below 1; the residual mass is the probability
    that no item arrives at that moment, which voids the whole run (the run
    contributes an empty allocation).  A column summing to exactly 1 recovers
    the usual "one item per moment" reading.
    """

    matrix: tuple[tuple[Fraction, ...], ...]


ArrivalModel = Union[FixedOrder, Distribution]


class Instance(NamedTuple):
    """An allocation problem: agents, items, utilities, and the arrival model.

    ``utilities[i][k]`` is agent i's cardinal utility for item k (agent-major
    layout).  Agent i *likes* item k when the utility is positive.
    """

    n: int
    m: int
    utilities: tuple[tuple[Fraction, ...], ...]
    arrival: ArrivalModel


class AllocationState(NamedTuple):
    """A partial allocation: one bundle per agent, plus the probability with
    which the mechanism reaches this state.  As a known prefix's state, its
    probability is checked to lie in (0, 1] but never multiplied in: the
    online queries answer given that the prefix happened."""

    bundles: tuple[frozenset[int], ...]
    probability: Fraction

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(map(len, self.bundles))

    def utility_of(self, agent: int, utilities) -> Fraction:
        return sum((utilities[agent][k] for k in self.bundles[agent]), Fraction(0))


def check_prefix(instance: Instance, arrived, state: AllocationState):
    """Raise InputError unless ``(arrived, state)`` is a known prefix of
    ``instance``, and return it as (arrived tuple, state).  The first fault
    found is named: the bundle count, an item in two bundles, the
    probability, an item that arrived twice or out of range, an allocated
    item that never arrived, then a fixed order's prefix rule.  Every
    arrived item is in range, so every allocated one is too."""
    arrived = tuple(arrived)
    n, m, _utilities, arrival = instance
    if len(state.bundles) != n:
        raise InputError(f"prefix has {len(state.bundles)} bundles for {n} agents")
    allocated: set[int] = set()
    for bundle in state.bundles:
        for item in bundle:
            if item in allocated:
                raise InputError(f"item {item} appears in two bundles")
            allocated.add(item)
    if not 0 < state.probability <= 1:
        raise InputError(f"state probability {state.probability} outside (0, 1]")
    if len(set(arrived)) != len(arrived):
        raise InputError("an item arrived twice in the prefix")
    for item in arrived:
        if not 0 <= item < m:
            raise InputError(f"arrived item {item} out of range")
    if not allocated <= set(arrived):
        raise InputError("state allocates an item that never arrived")
    if isinstance(arrival, FixedOrder) and arrived != arrival.order[:len(arrived)]:
        raise InputError("arrived items are not a prefix of the fixed order")
    return arrived, state


def check_indices(instance: Instance, agent: int, item: int | None = None) -> None:
    """Raise InputError unless ``agent`` is in 0..n-1 and ``item``, when
    given, in 0..m-1.  Indexing would read -1 as the last one."""
    for index, size, what in ((agent, instance.n, "agent"), (item, instance.m, "item")):
        if index is not None and not 0 <= index < size:
            raise InputError(f"{what} {index} outside 0..{size - 1}")


class OutcomeReport(NamedTuple):
    """Exact expected outcome: per-agent expected utility and the full
    agent-by-item allocation probability matrix.

    ``method`` names the computation path taken: ``dp`` (the count-state
    kernel, which serves every exact outcome).  The CLI labels its
    known-prefix answers ``online`` and its sampled estimates ``monte-carlo``.
    """

    expected_utility: tuple[Fraction, ...]
    allocation_probability: tuple[tuple[Fraction, ...], ...]
    method: str

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "expected_utility": [format_rational(u) for u in self.expected_utility],
            "allocation_probability": [
                [format_rational(p) for p in row]
                for row in self.allocation_probability
            ],
        }


def validate_instance(instance: Instance) -> Instance:
    """Check every instance invariant and return a normalized copy.

    Utility entries may arrive as ints, strings, or Fractions; the returned
    instance holds normalized Fractions only.  Raises InputError.
    """
    if instance.n < 1:
        raise InputError(f"need at least one agent, got {instance.n}")
    if instance.m < 1:
        raise InputError(f"need at least one item, got {instance.m}")

    utilities = _rational_matrix(instance.utilities, what="utility")
    if len(utilities) != instance.n or len(utilities[0]) != instance.m:
        raise InputError(
            f"utility matrix is {len(utilities)}x{len(utilities[0])}, "
            f"expected {instance.n}x{instance.m}")
    for row in utilities:
        for entry in row:
            if entry < 0:
                raise InputError(f"negative utility {entry}")

    arrival = instance.arrival
    if isinstance(arrival, FixedOrder):
        order = tuple(arrival.order)
        if sorted(order) != list(range(instance.m)):
            raise InputError(
                f"order {order} is not a permutation of 0..{instance.m - 1}")
        arrival = FixedOrder(order)
    elif isinstance(arrival, Distribution):
        matrix = _rational_matrix(arrival.matrix, what="arrival")
        if len(matrix) != instance.m or len(matrix[0]) != instance.m:
            raise InputError(
                f"arrival matrix is {len(matrix)}x{len(matrix[0])}, "
                f"expected {instance.m}x{instance.m}")
        for row in matrix:
            for entry in row:
                if entry < 0:
                    raise InputError(f"negative arrival probability {entry}")
                if entry > 1:
                    raise InputError(f"arrival probability {entry} > 1")
        for j in range(instance.m):
            mass = sum((row[j] for row in matrix), Fraction(0))
            if mass > 1:
                raise InputError(
                    f"column {j + 1} of the arrival matrix sums to {mass} > 1")
        arrival = Distribution(matrix)
    else:
        raise InputError(f"unknown arrival model {arrival!r}")

    return Instance(instance.n, instance.m, utilities, arrival)


# --- JSON instance format ---------------------------------------------------
#
# {"agents": n, "items": m,
#  "utilities": [["1", "2/3", 0], ...],            # n rows of m rationals
#  "arrival": {"type": "order", "order": [1, 2]}   # 1-based item indices
#           | {"type": "distribution", "matrix": [["1/2", ...], ...]}}
#
# matrix[k][j] is the probability that item k+1 arrives at moment j+1.


def instance_to_json_dict(instance: Instance) -> dict:
    if isinstance(instance.arrival, FixedOrder):
        arrival = {"type": "order",
                   "order": [k + 1 for k in instance.arrival.order]}
    else:
        arrival = {"type": "distribution",
                   "matrix": [[format_rational(p) for p in row]
                              for row in instance.arrival.matrix]}
    return {
        "agents": instance.n,
        "items": instance.m,
        "utilities": [[format_rational(u) for u in row]
                      for row in instance.utilities],
        "arrival": arrival,
    }


def json_list(value, what: str) -> list:
    """Return ``value`` if it is a JSON array; anything else is an input
    error, so that a string is never iterated character by character."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {type(value).__name__}")
    return value


def json_int(value, what: str) -> int:
    """Return ``value`` if it is a JSON integer (booleans excluded)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def instance_from_json_dict(data: dict) -> Instance:
    """Parse and validate the JSON instance format.  The shapes are checked
    here and the rationals once, by ``validate_instance``."""
    if not isinstance(data, dict):
        raise InputError(f"an instance must be a JSON object, got "
                         f"{type(data).__name__}")
    try:
        n = data["agents"]
        m = data["items"]
        utilities = data["utilities"]
        arrival_data = data["arrival"]
    except KeyError as exc:
        raise InputError(f"missing instance field: {exc}") from exc
    n, m = json_int(n, "agents"), json_int(m, "items")
    if not isinstance(arrival_data, dict):
        raise InputError(f"arrival must be a JSON object, got "
                         f"{type(arrival_data).__name__}")

    kind = arrival_data.get("type")
    if kind == "order":
        order = arrival_data.get("order")
        if not isinstance(order, list):
            raise InputError("arrival order must be a list")
        arrival: ArrivalModel = FixedOrder(
            tuple(json_int(k, "an order entry") - 1 for k in order))
        if len(order) != m or sorted(order) != list(range(1, m + 1)):
            raise InputError(f"order {order} is not a permutation of 1..{m}")
    elif kind == "distribution":
        matrix = arrival_data.get("matrix")
        if not isinstance(matrix, list):
            raise InputError("arrival matrix must be a list of rows")
        arrival = Distribution([json_list(row, "arrival matrix row") for row in matrix])
    else:
        raise InputError(f"unknown arrival type {kind!r}")

    rows = [json_list(row, "utility row") for row in json_list(utilities, "utilities")]
    return validate_instance(Instance(n, m, rows, arrival))
