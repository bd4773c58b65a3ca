"""Arrival models read moment by moment, as integers.

A fixed ordering is one certain item per moment and a distribution a column
of arrival probabilities, so both become one integer column per moment
(``_columns``), in the form ``engine._step`` steps: item k arrives with
probability ``shares[0] / grow``, and ``shares[f]`` is the exact numerator of
one of f feasible agents' share of that branch.  ``_columns`` is the only
reader of the model's probabilities; the completion factors, the sampler and
``epsilon_bound`` read its entries too.  The count-state kernel also reads
the probability that the remaining moments complete without a void, as ints
over one common denominator (``_plan``), for both models: a fixed ordering
never voids, so each of its factors is 1.
"""

from __future__ import annotations

import math

from .core import BudgetExceeded, FixedOrder


def _columns(arrival, n: int):
    """Per moment, ``(grow, ((item, item bit, shares), ...))`` over the
    positive arrival support, built once per run or search.

    With q the lcm of the column's denominators, an item arriving with
    probability a / q and L = lcm(1..n): ``grow = q * L`` multiplies the
    frontier scale, ``shares[f] = a * (L // f)`` for f = 1..n and
    ``shares[0] = a * L``, the whole branch.  A fixed ordering is one
    certain item per moment, ``(L, ((k, 1 << k, parts),))``, and its moments
    share one ``parts`` tuple.
    """
    lcm = math.lcm(*range(1, n + 1))
    parts = (lcm,) + tuple(lcm // f for f in range(1, n + 1))
    if isinstance(arrival, FixedOrder):
        return tuple((lcm, ((k, 1 << k, parts),)) for k in arrival.order)
    columns = []
    for j in range(len(arrival.matrix)):
        support = [(k, row[j]) for k, row in enumerate(arrival.matrix) if row[j] > 0]
        q = math.lcm(*(p.denominator for _k, p in support))
        columns.append((q * lcm, tuple(
            (k, 1 << k, tuple(p.numerator * (q // p.denominator) * part for part in parts))
            for k, p in support)))
    return tuple(columns)


def _scaled_completion(columns, n: int, budget: int) -> tuple[dict[int, int], int]:
    """(factor, C): for every arrived-item mask reachable from the empty
    start, C times the probability that the remaining moments each draw a
    fresh item, where C is the product of every column's q = grow // L,
    L = lcm(1..n).

    The masks are collected level by level going forward, then the factors
    are filled in going backward; a mask's level is its popcount, so one
    dict holds every level.  A column divides the sum of its successors'
    ``shares[0]`` times factor by its grow exactly, because a factor at
    level j is a multiple of the first j columns' q.
    """
    levels = [{0}]
    for moment, (_grow, column) in enumerate(columns):
        level = {arrived | bit for arrived in levels[-1]
                 for _item, bit, _shares in column if not arrived & bit}
        if len(level) > budget:
            raise BudgetExceeded(
                f"arrival masks reached {len(level)} states at moment "
                f"{moment + 1} of {len(columns)} (budget {budget})")
        levels.append(level)
    lcm = math.lcm(*range(1, n + 1))
    unit = math.prod(grow // lcm for grow, _column in columns)
    factor = dict.fromkeys(levels[-1], unit)
    for (grow, column), level in zip(reversed(columns), reversed(levels[:-1])):
        for arrived in level:
            factor[arrived] = sum(shares[0] * factor[arrived | bit]
                                  for _item, bit, shares in column
                                  if not arrived & bit) // grow
    return factor, unit


def _plan(arrival, n: int, budget: int):
    """What ``_step`` reads of the arrival model: (columns, the integer
    completion factor of every reachable arrived mask, their denominator
    C).  A fixed ordering is no special case: its table holds the m + 1
    masks of its prefixes, each with factor 1, and C = 1."""
    columns = _columns(arrival, n)
    return (columns,) + _scaled_completion(columns, n, budget)
