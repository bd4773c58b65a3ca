"""Best-response search: the bodies of ``manipulation.best_response_search``
and ``manipulation.is_strategyproof_on_instance``, whose docstrings describe
them.  Only a search loads this module, on its first call.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import BudgetExceeded, InputError, check_indices
from .arrivals import _plan
from .engine import ZERO, _positive_bidders, _step
from .mechanisms import Mechanism, packed_sizes

ONE = Fraction(1)


def best_response_search(ctx, agent):
    instance, mechanism, budget = ctx.instance, ctx.mechanism, ctx.budget
    n, m = instance.n, instance.m
    check_indices(instance, agent)
    if ctx.known_prefix is not None:
        raise InputError("best-response search starts from the empty allocation")
    bidders = _positive_bidders(ctx)
    true_row = instance.utilities[agent]
    if mechanism is Mechanism.LIKE:  # strategyproof, so sincere is a best response
        return true_row, ZERO
    if m >= budget.bit_length():  # 2^m > budget
        raise BudgetExceeded(f"best-response search needs 2^{m} rows (budget {budget})")
    plan = _plan(instance.arrival, n, budget)
    # bits are decided in ``order``: items by first arrival, then the rest
    order = list(dict.fromkeys([item for _grow, entries in plan[0]
                                for item, _bit, _shares in entries] + list(range(m))))
    rank = {item: depth for depth, item in enumerate(order, 1)}
    steps = [[] for _ in range(m + 1)]  # moments stepped at each depth
    need = 0
    for moment, (_grow, entries) in enumerate(plan[0]):
        need = max([need] + [rank[item] for item, _bit, _shares in entries])
        steps[need].append(moment)
    # each item's positive bidders when the agent bids 0 on it, then when it
    # bids 1: item k's bid-1 variant is the layout's entry k + m, so the two
    # never share a feasibility memo key
    variants = ([tuple(i for i in b if i != agent) for b in bidders]
                + [tuple(sorted({*b, agent})) for b in bidders])
    *head, variants, owners = packed_sizes(mechanism, n, m, variants)
    records = [None] * m  # each item's entry, set as its bit is decided
    layout, memo = (*head, records, owners), {}
    weight = [1 << (m - 1 - k) for k in range(m)]
    sincere_bits = sum(weight[k] for k in range(m) if true_row[k])
    # the true row as ints over one denominator prices a step's credits
    # with one Fraction
    row_unit = math.lcm(*(u.denominator for u in true_row))
    int_row = [u.numerator * (row_unit // u.denominator) for u in true_row]
    # (depth, row bits, frontier, its scale, value)
    stack = [(0, 0, {(0, 0): 1}, 1, ZERO)]
    best = (-ONE, 0)  # (value, -row bits): the max is the smallest best row
    while stack:
        depth, bits, frontier, scale, value = stack.pop()
        if depth:
            item = order[depth - 1]
            records[item] = variants[item + m if bits & weight[item] else item]
        for moment in steps[depth]:
            frontier, scale, credits, unit = _step(frontier, scale, moment, plan, layout,
                                                   memo, budget)
            gained = sum(credit * int_row[item]
                         for (i, item), credit in credits.items() if i == agent)
            if gained:
                value += Fraction(gained, unit * row_unit)
        if depth < m:
            stack.append((depth + 1, bits | weight[order[depth]], frontier, scale, value))
            stack.append((depth + 1, bits, frontier, scale, value))
            continue
        if bits == sincere_bits:
            sincere_value = value
        best = max(best, (value, -bits))
    value, bits = best[0], -best[1]
    if value > sincere_value:
        return tuple(ONE if bits & w else ZERO for w in weight), value - sincere_value
    return true_row, ZERO


def is_strategyproof_on_instance(ctx):
    return not any(best_response_search(ctx, agent)[1]
                   for agent in range(ctx.instance.n))
