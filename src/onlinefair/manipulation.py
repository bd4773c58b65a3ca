"""Strategic bidding analysis: what does misreporting buy an agent?

All evaluation uses the agent's true utilities from the instance; bids only
steer the mechanism.  Since feasibility depends on bid positivity alone, the
search space of meaningfully distinct deviations is the 2^m set of 0/1 rows,
which keeps exhaustive best-response search exact at desk scale.  The search
shares count-state frontiers between rows along a trie of the agent's bits:
under a fixed ordering, about 2^(m+1) moment steps in all instead of m * 2^m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import (DEFAULT_ENUMERATION_BUDGET, BudgetExceeded, InputError, Instance,
                   check_indices, parse_rational)
from .arrivals import _plan
from .engine import QueryContext, _positive_bidders, _step, exact_utility
from .mechanisms import Mechanism, packed_sizes

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_SEARCH_MAX_ITEMS = 12


class ManipulationQuery(NamedTuple):
    """One agent deviates; everyone else bids sincerely.

    ``sincere`` defaults to the agent's true utility row.  Bid entries may be
    ints, Fractions or ``p/q`` strings.  ``threshold`` is the gain bar for
    necessary-manipulation queries, and ``budget`` caps each evaluation's
    states.
    """

    instance: Instance
    mechanism: Mechanism
    agent: int
    deviation: Sequence
    sincere: Optional[Sequence] = None
    threshold: Fraction = ZERO
    budget: int = DEFAULT_ENUMERATION_BUDGET


def _utility_under_row(q: ManipulationQuery, row: tuple[Fraction, ...]) -> Fraction:
    rows = q.instance.utilities
    bids = rows[:q.agent] + (row,) + rows[q.agent + 1:]
    return exact_utility(QueryContext(q.instance, q.mechanism, bids, budget=q.budget),
                         q.agent)


def utilities_under_deviation(q: ManipulationQuery) -> tuple[Fraction, Fraction]:
    """(true expected utility bidding sincerely, same under the deviation)."""
    check_indices(q.instance, q.agent)
    sincere = q.instance.utilities[q.agent] if q.sincere is None else q.sincere
    sincere, deviation = (tuple(map(parse_rational, row))
                          for row in (sincere, q.deviation))
    # the deviation first: the row a caller supplies fails before any work
    deviated_value = _utility_under_row(q, deviation)
    return _utility_under_row(q, sincere), deviated_value


def exact_manipulation_gain(q: ManipulationQuery) -> Fraction:
    """The agent's exact change in true expected utility from deviating."""
    sincere_value, deviated_value = utilities_under_deviation(q)
    return deviated_value - sincere_value


def necessary_manipulation(q: ManipulationQuery, strict: bool = False) -> bool:
    """Is the deviation's gain at least the query threshold?

    ``strict`` asks for a strictly positive margin instead, which with
    threshold 0 is the "can the agent possibly profit" question.
    """
    gain = exact_manipulation_gain(q)
    return gain > q.threshold if strict else gain >= q.threshold


def best_response_search(instance: Instance, mechanism: Mechanism, agent: int,
                         max_items: int = DEFAULT_SEARCH_MAX_ITEMS,
                         budget: int = DEFAULT_ENUMERATION_BUDGET,
                         ) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exhaustively search 0/1 bid rows for the agent's best response.

    Returns (row, gain over sincere).  Ties break toward the sincere row,
    then toward the lexicographically smallest 0/1 row.  Refuses more than
    ``max_items`` items; raises BudgetExceeded past ``budget`` states.

    The rows are the leaves of a trie over the agent's bits, taken in the
    order the arrival columns first need their items.  A node steps each
    moment whose items are all decided, so rows agreeing on those bits share
    its frontier (nothing is shared when the first column has full support),
    and the agent's true utility adds up along the path.  All nodes share
    one feasibility memo of at most ``budget`` entries, keyed on the item,
    the agent's bit on it and its bidders' packed sizes.
    """
    n, m = instance.n, instance.m
    check_indices(instance, agent)
    if max_items < 1:
        raise InputError(f"the item cap must be positive, not {max_items}")
    if m > max_items:
        raise BudgetExceeded(
            f"best-response search over 2^{m} rows exceeds the {max_items}-item cap")
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
    sincere = _positive_bidders(QueryContext(instance, mechanism))
    variants = ([tuple(i for i in b if i != agent) for b in sincere]
                + [tuple(sorted({*b, agent})) for b in sincere])
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


def is_strategyproof_on_instance(instance: Instance, mechanism: Mechanism,
                                 max_items: int = DEFAULT_SEARCH_MAX_ITEMS,
                                 budget: int = DEFAULT_ENUMERATION_BUDGET) -> bool:
    """True when no agent's best response beats sincere bidding."""
    for agent in range(instance.n):
        _, gain = best_response_search(instance, mechanism, agent, max_items, budget)
        if gain > 0:
            return False
    return True
