"""Arrival models read moment by moment.

A fixed ordering is one certain item per moment and a distribution a column
of arrival probabilities, so both become one column per moment
(``_columns``).  The count-state kernel reads the same columns in integer
form (``_plan``): per-moment share numerators over a growing scale, and the
probability that the remaining moments complete without a void as ints over
one common denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import BudgetExceeded, FixedOrder

ONE = Fraction(1)


def _columns(arrival):
    """Per-moment positive arrival support as (item, item bit, probability).

    A fixed ordering is one unit column per moment.
    """
    if isinstance(arrival, FixedOrder):
        return tuple(((k, 1 << k, ONE),) for k in arrival.order)
    m = len(arrival.matrix)
    return tuple(
        tuple((k, 1 << k, arrival.matrix[k][j]) for k in range(m)
              if arrival.matrix[k][j] > 0)
        for j in range(m))


def _over_lcm(column):
    """(q, numerators): the column's probabilities as a / q, with q the lcm
    of their denominators."""
    q = math.lcm(*(delta.denominator for _item, _bit, delta in column))
    return q, [delta.numerator * (q // delta.denominator)
               for _item, _bit, delta in column]


def _scaled_columns(columns, n: int):
    """The integer form of ``columns`` that ``_step`` reads, built once per
    kernel run or search.

    Per moment, ``(grow, entries)``: a column whose probabilities are a / q,
    q the lcm of their denominators, multiplies the frontier scale by
    ``grow = q * L`` with L = lcm(1..n).  Each entry is (item, bit, shares)
    with ``shares[f] = a * (L // f)``, the exact numerator of one of f
    feasible agents' share, and ``shares[0] = a * L``, the whole branch.
    """
    lcm = math.lcm(*range(1, n + 1))
    parts = (lcm,) + tuple(lcm // f for f in range(1, n + 1))
    by_numerator = {1: parts}  # most entries share a numerator, often 1
    scaled = []
    for column in columns:
        q, numerators = _over_lcm(column)
        entries = []
        for (item, bit, _delta), a in zip(column, numerators):
            shares = by_numerator.get(a)
            if shares is None:
                shares = by_numerator[a] = tuple(a * part for part in parts)
            entries.append((item, bit, shares))
        scaled.append((q * lcm, tuple(entries)))
    return tuple(scaled)


def _scaled_completion(columns, budget: int) -> tuple[dict[int, int], int]:
    """(factor, C): for every arrived-item mask reachable from the empty
    start, C times the probability that the remaining moments each draw a
    fresh item, where C is the product of every column's lcm denominator.

    The masks are collected level by level going forward, then the factors
    are filled in going backward; a mask's level is its popcount, so one
    dict holds every level.  A column with probabilities a / q divides the
    sum of its successors' factors by q exactly, because a factor at level j
    is a multiple of the first j columns' denominators.
    """
    levels = [{0}]
    for moment, column in enumerate(columns):
        level = {arrived | bit for arrived in levels[-1]
                 for _item, bit, _delta in column if not arrived & bit}
        if len(level) > budget:
            raise BudgetExceeded(
                f"arrival masks reached {len(level)} states at moment "
                f"{moment + 1} of {len(columns)} (budget {budget})")
        levels.append(level)
    integer = [_over_lcm(column) for column in columns]
    unit = math.prod(q for q, _numerators in integer)
    factor = dict.fromkeys(levels[-1], unit)
    for column, (q, numerators), level in zip(reversed(columns), reversed(integer),
                                              reversed(levels[:-1])):
        weights = [(bit, a) for (_item, bit, _delta), a in zip(column, numerators)]
        for arrived in level:
            factor[arrived] = sum(a * factor[arrived | bit] for bit, a in weights
                                  if not arrived & bit) // q
    return factor, unit


def _plan(arrival, n: int, budget: int):
    """What ``_step`` reads of the arrival model: (scaled columns, integer
    completion factors or None for a fixed ordering, which never voids,
    their denominator C)."""
    columns = _columns(arrival)
    if isinstance(arrival, FixedOrder):
        return _scaled_columns(columns, n), None, 1
    return (_scaled_columns(columns, n),) + _scaled_completion(columns, budget)
