"""The owner-level view and the online (known prefix) setting: the bodies of
``engine.states_after``, ``engine.next_item_probability``,
``engine.online_utilities`` and ``engine.epsilon_bound``, whose docstrings
describe them.  A call loads this module when it first needs one of them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import engine
from .core import AllocationState, InputError, check_indices, check_prefix
from .arrivals import _columns
from .engine import ZERO, _positive_bidders
from .mechanisms import packed_sizes


def states_after(ctx, moments):
    n, m, _utilities, arrival = ctx.instance
    arrived, bundles = (), ((),) * n
    if ctx.known_prefix is not None:
        arrived, state = check_prefix(ctx.instance, *ctx.known_prefix)
        bundles = state.bundles
    remaining = m - len(arrived)
    if not 0 <= moments <= remaining:
        raise InputError(f"moments must be within 0..{remaining}")
    mechanism, base, units, entries, _zeros = packed_sizes(
        ctx.mechanism, n, m, _positive_bidders(ctx))
    shifts = [n * (base.bit_length() - 1) + m * i for i in reversed(range(n))]
    owners = [1 << shift for shift in shifts]
    start = sum(len(bundle) * unit + sum(owner << k for k in bundle)
                for bundle, unit, owner in zip(bundles, units, owners))
    layout = mechanism, base, units, entries, owners
    plan = _columns(arrival, n), {}, 1
    frontier, scale, memo = {(sum(1 << k for k in arrived), start): 1}, 1, {}
    for moment in range(len(arrived), len(arrived) + moments):
        frontier, scale, *_ = engine._step(frontier, scale, moment, plan, layout, memo,
                                           ctx.budget)
    void = 1 - Fraction(sum(frontier.values()), scale)
    full = (1 << m) - 1
    held = {packed: [packed >> shift & full for shift in shifts]
            for _mask, packed in frontier}
    items = {mask: frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)
             for mask in {key[0] for key in frontier}.union(*held.values())}.__getitem__
    return [(items(mask), AllocationState(tuple(map(items, held[packed])),
                                          Fraction(value, scale)))
            for (mask, packed), value in sorted(frontier.items())], void


def _next_moment(ctx):
    """(the known prefix's state, the owner-level states one moment later).
    With every item arrived there is no next moment, and the one state is
    the prefix's own."""
    if ctx.known_prefix is None:
        raise InputError("online queries need a known prefix")
    arrived, state = ctx.known_prefix
    return state, states_after(ctx, min(1, ctx.instance.m - len(arrived)))[0]


def next_item_probability(ctx):
    state, successors = _next_moment(ctx)
    held = state.counts
    return tuple(sum((after.probability for _arrived, after in successors
                      if len(after.bundles[i]) > held[i]), ZERO)
                 for i in range(ctx.instance.n))


def online_utilities(ctx, nxt=None):
    nxt = nxt or next_item_probability(ctx)
    held = ctx.known_prefix[1].utility_of
    return tuple(held(i, ctx.instance.utilities) + p for i, p in enumerate(nxt))


def epsilon_bound(ctx, agent):
    check_indices(ctx.instance, agent)
    if not any(agent in bidders for bidders in _positive_bidders(ctx)):
        raise InputError(f"agent {agent} bids positively on nothing")
    floors = [Fraction(min(shares[0] for _item, _bit, shares in column), grow)
              for grow, column in _columns(ctx.instance.arrival, ctx.instance.n) if column]
    if not floors:
        raise InputError("no item ever arrives under this distribution")
    return math.prod(floors) * Fraction(1, ctx.instance.n) ** ctx.instance.m
