"""Arrival models read moment by moment, as integers.

A fixed ordering is one certain item per moment and a distribution a column
of arrival probabilities, so both become one integer column per moment
(``_columns``): item k arrives with probability a / q, where q is the lcm of
the column's denominators.  ``_columns`` is the only reader of the model's
probabilities.  The count-state kernel reads the columns as per-moment share
numerators over a growing scale, plus the probability that the remaining
moments complete without a void as ints over one common denominator
(``_plan``).
"""

from __future__ import annotations

import math

from .core import BudgetExceeded, FixedOrder


def _columns(arrival):
    """Per moment, ``(q, ((item, item bit, a), ...))`` over the positive
    arrival support: the item arrives with probability a / q, q the lcm of
    the column's denominators.  A fixed ordering is one unit column per
    moment."""
    if isinstance(arrival, FixedOrder):
        return tuple((1, ((k, 1 << k, 1),)) for k in arrival.order)
    columns = []
    for j in range(len(arrival.matrix)):
        support = [(k, row[j]) for k, row in enumerate(arrival.matrix) if row[j] > 0]
        q = math.lcm(*(p.denominator for _k, p in support))
        columns.append((q, tuple((k, 1 << k, p.numerator * (q // p.denominator))
                                 for k, p in support)))
    return tuple(columns)


def _scaled_columns(columns, n: int):
    """The integer form of ``columns`` that ``_step`` reads, built once per
    kernel run or search.

    Per moment, ``(grow, entries)``: a column over q multiplies the frontier
    scale by ``grow = q * L`` with L = lcm(1..n).  Each entry is (item, bit,
    shares) with ``shares[f] = a * (L // f)``, the exact numerator of one of
    f feasible agents' share, and ``shares[0] = a * L``, the whole branch.
    """
    lcm = math.lcm(*range(1, n + 1))
    parts = (lcm,) + tuple(lcm // f for f in range(1, n + 1))
    by_numerator = {1: parts}  # most entries share a numerator, often 1
    scaled = []
    for q, column in columns:
        entries = []
        for item, bit, a in column:
            shares = by_numerator.get(a)
            if shares is None:
                shares = by_numerator[a] = tuple(a * part for part in parts)
            entries.append((item, bit, shares))
        scaled.append((q * lcm, tuple(entries)))
    return tuple(scaled)


def _scaled_completion(columns, budget: int) -> tuple[dict[int, int], int]:
    """(factor, C): for every arrived-item mask reachable from the empty
    start, C times the probability that the remaining moments each draw a
    fresh item, where C is the product of every column's q.

    The masks are collected level by level going forward, then the factors
    are filled in going backward; a mask's level is its popcount, so one
    dict holds every level.  A column over q divides the sum of its
    successors' factors by q exactly, because a factor at level j is a
    multiple of the first j columns' q.
    """
    levels = [{0}]
    for moment, (_q, column) in enumerate(columns):
        level = {arrived | bit for arrived in levels[-1]
                 for _item, bit, _a in column if not arrived & bit}
        if len(level) > budget:
            raise BudgetExceeded(
                f"arrival masks reached {len(level)} states at moment "
                f"{moment + 1} of {len(columns)} (budget {budget})")
        levels.append(level)
    unit = math.prod(q for q, _column in columns)
    factor = dict.fromkeys(levels[-1], unit)
    for (q, column), level in zip(reversed(columns), reversed(levels[:-1])):
        for arrived in level:
            factor[arrived] = sum(a * factor[arrived | bit] for _item, bit, a in column
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
