"""Strategic bidding analysis: what does misreporting buy an agent?

All evaluation uses the agent's true utilities from the instance; bids only
steer the mechanism.  Since feasibility depends on bid positivity alone, the
search space of meaningfully distinct deviations is the 2^m set of 0/1 rows,
which keeps exhaustive best-response search exact at desk scale.  The search
shares count-state frontiers between rows along a trie of the agent's bits:
under a fixed ordering, about 2^(m+1) moment steps in all instead of m * 2^m.
Every entry point takes a ``QueryContext`` first and varies one agent's row
against the other agents' ``ctx.bids``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .core import BudgetExceeded, InputError, check_indices, parse_rational
from .arrivals import _plan
from .engine import (QueryContext, _positive_bidders, _step,
                     exact_utility)
from .mechanisms import packed_sizes

ZERO = Fraction(0)
ONE = Fraction(1)


def _utility_under_row(ctx: QueryContext, agent: int, row) -> Fraction:
    rows = ctx.instance.utilities if ctx.bids is None else ctx.bids
    bids = (*rows[:agent], row, *rows[agent + 1:])
    return exact_utility(ctx._replace(bids=bids), agent)


def utilities_under_deviation(ctx: QueryContext, agent: int, deviation: Sequence,
                              sincere: Optional[Sequence] = None,
                              ) -> tuple[Fraction, Fraction]:
    """(true expected utility bidding ``sincere``, same under ``deviation``).

    The other agents bid ``ctx.bids`` (sincerely when None), and both values
    are the context's own ``exact_utility``, known prefix and budget
    included.  ``sincere`` defaults to the agent's true utility row.  Bid
    entries may be ints, Fractions or ``p/q`` strings.
    """
    check_indices(ctx.instance, agent)
    sincere = ctx.instance.utilities[agent] if sincere is None else sincere
    sincere, deviation = (tuple(map(parse_rational, row))
                          for row in (sincere, deviation))
    # the deviation first: the row a caller supplies fails before any work
    deviated_value = _utility_under_row(ctx, agent, deviation)
    return _utility_under_row(ctx, agent, sincere), deviated_value


def exact_manipulation_gain(ctx: QueryContext, agent: int, deviation: Sequence,
                            sincere: Optional[Sequence] = None) -> Fraction:
    """The agent's exact change in true expected utility from deviating."""
    before, after = utilities_under_deviation(ctx, agent, deviation, sincere)
    return after - before


def necessary_manipulation(ctx: QueryContext, agent: int, deviation: Sequence,
                           threshold: Fraction = ZERO, strict: bool = False,
                           sincere: Optional[Sequence] = None) -> bool:
    """Is the deviation's gain at least ``threshold``?

    ``strict`` asks for a strictly positive margin instead, which with
    threshold 0 is the "can the agent possibly profit" question.
    """
    gain = exact_manipulation_gain(ctx, agent, deviation, sincere)
    return gain > threshold if strict else gain >= threshold


def best_response_search(
        ctx: QueryContext, agent: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exhaustively search 0/1 bid rows for the agent's best response, the
    other agents bidding ``ctx.bids`` (sincerely when None).

    Returns (row, gain over sincere).  Ties break toward the sincere row,
    then toward the lexicographically smallest 0/1 row.  Refuses a known
    prefix (the search starts from the empty allocation); raises
    BudgetExceeded before any work when the 2^m rows outnumber
    ``ctx.budget``, and past ``ctx.budget`` frontier states.

    The rows are the leaves of a trie over the agent's bits, taken in the
    order the arrival columns first need their items.  A node steps each
    moment whose items are all decided, so rows agreeing on those bits share
    its frontier (nothing is shared when the first column has full support),
    and the agent's true utility adds up along the path.  All nodes share
    one feasibility memo of at most ``budget`` entries, keyed on the item,
    the agent's bit on it and its bidders' packed sizes.
    """
    instance, mechanism, budget = ctx.instance, ctx.mechanism, ctx.budget
    n, m = instance.n, instance.m
    check_indices(instance, agent)
    if ctx.known_prefix is not None:
        raise InputError("best-response search starts from the empty allocation")
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
    bidders = _positive_bidders(ctx)
    variants = ([tuple(i for i in b if i != agent) for b in bidders]
                + [tuple(sorted({*b, agent})) for b in bidders])
    base, units, variant_masks, variant_tags = packed_sizes(mechanism, n, m, variants)
    # each item's entry, filled in as the bits are decided
    positive, masks, tags = [None] * m, [0] * m, [0] * m
    layout, memo = (base, units, masks, tags, [0] * n), {}
    weight = [1 << (m - 1 - k) for k in range(m)]
    true_row = instance.utilities[agent]
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
            entry = item + m if bits & weight[item] else item
            positive[item], masks[item] = variants[entry], variant_masks[entry]
            tags[item] = variant_tags[entry]
        for moment in steps[depth]:
            frontier, scale, credits, unit = _step(frontier, scale, moment, plan, positive,
                                                   layout, memo, mechanism, budget)
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


def is_strategyproof_on_instance(ctx: QueryContext) -> bool:
    """True when no agent's best response beats sincere bidding."""
    return not any(best_response_search(ctx, agent)[1]
                   for agent in range(ctx.instance.n))
