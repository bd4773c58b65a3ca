"""Exact, possible, and necessary outcome queries.

Three information settings are supported:

* the arrival ordering is fixed and known (``FixedOrder``),
* arrivals are drawn from a known moment-by-moment distribution
  (``Distribution``),
* a prefix of arrivals and its allocation are known and nothing is known
  about future items (``QueryContext.known_prefix``).

Every arrival model is read as one column per moment (``_columns``): a fixed
ordering is one certain item per moment, a distribution a column of arrival
probabilities.  Three loops step over these columns.  The count-state kernel
gives every exact outcome: Balanced Like gives an item to the positive
bidders holding the fewest items, so its frontier maps (arrived-item
bitmask, bundle-size vector) to reach probability, Like drops the sizes, and
each item's allocation probability is added while it is placed; ``_step``
moves that frontier one moment, for the kernel and for the best-response
search.  The owner-level stepper keys its frontier on (arrived mask, owner
vector) to expose intermediate allocations.  The Monte Carlo sampler draws every
uncertain column once per sample.  Like under a fixed ordering also has an
O(n*m) closed form.  Possibility is positivity of the exact answer, and
necessity is a threshold on it.

Distribution semantics: a run that draws an already-arrived item, or the
no-arrival residual of a column, is void and contributes an empty allocation
(zero utility for everyone).  Only full-length repeat-free arrival sequences
count.  The kernel weights each placement by the probability that the
remaining moments complete without a void, which depends only on the set of
arrived items.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    AllocationState,
    BidProfile,
    BudgetExceeded,
    Distribution,
    DimensionMismatch,
    FixedOrder,
    InputError,
    Instance,
    NegativeValue,
    OutcomeReport,
    check_allocation_state,
)
from .mechanisms import Mechanism, feasible_for_counts

ZERO = Fraction(0)
ONE = Fraction(1)


class UnsupportedQuery(InputError):
    """The operation does not apply to this context (wrong arrival model,
    missing prefix, wrong mechanism)."""


class InconsistentPrefix(InputError):
    pass


class NoPositiveBranch(InputError):
    """The agent's probability is identically zero, so no positive lower
    bound exists."""


@dataclass(frozen=True)
class QueryContext:
    """Everything a query needs: instance, mechanism, bids, optional prefix.

    ``bids`` defaults to sincere (the utility matrix).  ``known_prefix`` is a
    pair (arrived item indices in arrival order, allocation state reached);
    it switches exact/possible/necessary queries to the online setting where
    nothing is known about future items.
    """

    instance: Instance
    mechanism: Mechanism
    bids: Optional[BidProfile] = None
    known_prefix: Optional[tuple[tuple[int, ...], AllocationState]] = None
    budget: int = DEFAULT_ENUMERATION_BUDGET


def _bid_rows(ctx: QueryContext) -> tuple[tuple[Fraction, ...], ...]:
    if ctx.bids is None:
        return ctx.instance.utilities
    rows = ctx.bids.bids
    if len(rows) != ctx.instance.n or any(len(r) != ctx.instance.m for r in rows):
        raise DimensionMismatch("bid profile does not match the instance")
    for row in rows:
        for entry in row:
            if entry < 0:
                raise NegativeValue(f"negative bid {entry}")
    return rows


def _positive_bidders(bid_rows):
    # bids are checked non-negative, so positive means nonzero
    return tuple(tuple(i for i, bid in enumerate(column) if bid)
                 for column in zip(*bid_rows))


def _checked_prefix(ctx: QueryContext):
    """Validate the known prefix and return (arrived tuple, state)."""
    arrived_raw, state = ctx.known_prefix
    arrived = tuple(arrived_raw)
    n, m = ctx.instance.n, ctx.instance.m
    check_allocation_state(state, n, m)
    if len(set(arrived)) != len(arrived):
        raise InconsistentPrefix("an item arrived twice in the prefix")
    for item in arrived:
        if not 0 <= item < m:
            raise InconsistentPrefix(f"arrived item {item} out of range")
    if not state.allocated_items() <= set(arrived):
        raise InconsistentPrefix("state allocates an item that never arrived")
    arrival = ctx.instance.arrival
    if isinstance(arrival, FixedOrder) and arrived != arrival.order[:len(arrived)]:
        raise InconsistentPrefix("arrived items are not a prefix of the fixed order")
    return arrived, state


def _start_point(ctx: QueryContext):
    """Initial owner vector and counts, honouring any known prefix."""
    n, m = ctx.instance.n, ctx.instance.m
    owners = [-1] * m
    if ctx.known_prefix is None:
        return tuple(owners), (0,) * n, ()
    arrived, state = _checked_prefix(ctx)
    for agent, bundle in enumerate(state.bundles):
        for item in bundle:
            owners[item] = agent
    return tuple(owners), state.counts, arrived


def _outcome(instance: Instance, alloc, method: str) -> OutcomeReport:
    """Price an agent-by-item allocation matrix at the true utilities."""
    utility = tuple(
        sum((p * u for p, u in zip(row, values) if p and u), ZERO)
        for row, values in zip(alloc, instance.utilities))
    return OutcomeReport(utility, tuple(tuple(row) for row in alloc), method)


@functools.lru_cache(maxsize=8)
def _columns(arrival):
    """Per-moment positive arrival support as (item, item bit, probability).

    A fixed ordering is one unit column per moment.  Cached because
    manipulation searches query one arrival model thousands of times.
    """
    if isinstance(arrival, FixedOrder):
        return tuple(((k, 1 << k, ONE),) for k in arrival.order)
    m = len(arrival.matrix)
    return tuple(
        tuple((k, 1 << k, arrival.matrix[k][j]) for k in range(m)
              if arrival.matrix[k][j] > 0)
        for j in range(m))


def _completion(columns, budget: int) -> dict[int, Fraction]:
    """For every arrived-item mask reachable from the empty start, the
    probability that the remaining moments each draw a fresh item.

    The masks are collected level by level going forward, then the factors
    are filled in going backward; a mask's level is its popcount, so one
    dict holds every level.
    """
    levels = [{0}]
    for moment, column in enumerate(columns):
        level = {arrived | bit for arrived in levels[-1]
                 for _item, bit, _delta in column if not arrived & bit}
        if len(level) > budget:
            raise BudgetExceeded(
                f"arrival masks reached {len(level)} at moment {moment + 1} "
                f"(budget {budget})")
        levels.append(level)
    factor = dict.fromkeys(levels[-1], ONE)
    for column, level in zip(reversed(columns), reversed(levels[:-1])):
        for arrived in level:
            factor[arrived] = sum(
                (delta * factor[arrived | bit] for _item, bit, delta in column
                 if not arrived & bit), ZERO)
    return factor


def _step(frontier, moment: int, columns, completion, positive, mechanism,
          alloc, budget: int) -> dict:
    """Advance a count-state frontier, which maps (arrived mask, bundle sizes
    or ``()`` under Like) to the probability of reaching it without a void,
    over one moment.  Placing item k on agent i adds the branch probability,
    times the completion factor of the new mask, to ``alloc[i][k]``.
    ``completion`` is None for a fixed ordering, which never voids."""
    sized = mechanism is Mechanism.BALANCED_LIKE
    successors: dict = {}
    for (mask, counts), prob in frontier.items():
        for item, bit, delta in columns[moment]:
            if mask & bit:
                continue
            mask2 = mask | bit
            if completion is None:
                weight = prob
            else:
                tail = completion[mask2]
                if not tail:
                    continue
                weight = prob * delta
            feas = feasible_for_counts(mechanism, counts, positive[item])
            if not feas:
                key = (mask2, counts)
                acc = successors.get(key)
                successors[key] = weight if acc is None else acc + weight
                continue
            share = weight if len(feas) == 1 else weight / len(feas)
            credit = share if completion is None else share * tail
            for agent in feas:
                held = alloc[agent][item]
                alloc[agent][item] = credit if held is ZERO else held + credit
                if sized:
                    key = (mask2, counts[:agent] + (counts[agent] + 1,)
                           + counts[agent + 1:])
                else:
                    key = (mask2, counts)
                acc = successors.get(key)
                successors[key] = share if acc is None else acc + share
    if len(successors) > budget:
        raise BudgetExceeded(
            f"count-state frontier reached {len(successors)} states at "
            f"moment {moment + 1} of {len(columns)} (budget {budget})")
    return successors


def _count_state_outcome(ctx: QueryContext, owners, counts, arrived) -> OutcomeReport:
    """Exact outcome by the count-state kernel, from a start point as
    returned by ``_start_point``: one ``_step`` per remaining moment."""
    instance, mechanism = ctx.instance, ctx.mechanism
    n, m = instance.n, instance.m
    positive = _positive_bidders(_bid_rows(ctx))
    columns = _columns(instance.arrival)
    completion = (None if isinstance(instance.arrival, FixedOrder)
                  else _completion(columns, ctx.budget))
    alloc = [[ZERO] * m for _ in range(n)]
    for item, owner in enumerate(owners):
        if owner >= 0:
            alloc[owner][item] = ONE
    sizes = counts if mechanism is Mechanism.BALANCED_LIKE else ()
    frontier = {(sum(1 << item for item in arrived), sizes): ONE}
    for moment in range(len(arrived), m):
        frontier = _step(frontier, moment, columns, completion, positive,
                         mechanism, alloc, ctx.budget)
    return _outcome(instance, alloc, "dp")


def _owner_frontier(ctx: QueryContext, moments: int, owners, counts, arrived):
    """Owner-level frontier after the next ``moments`` arrivals, from a start
    point as returned by ``_start_point``.

    The frontier maps (arrived mask, owner vector) to the probability of
    reaching it without a void; bundle sizes ride along in a side dict.
    Returns (frontier, void mass); the void mass gathers every no-arrival
    draw and repeated item, so it is zero for a fixed ordering.
    """
    mechanism, budget, m = ctx.mechanism, ctx.budget, ctx.instance.m
    positive = _positive_bidders(_bid_rows(ctx))
    columns = _columns(ctx.instance.arrival)
    start = (sum(1 << item for item in arrived), owners)
    frontier = {start: ONE}
    counts_of = {start: counts}
    void = ZERO
    for moment in range(len(arrived), len(arrived) + moments):
        column = columns[moment]
        residual = ONE - sum((delta for _item, _bit, delta in column), ZERO)
        successors: dict = {}
        sizes: dict = {}
        for (mask, owners), prob in frontier.items():
            counts = counts_of[mask, owners]
            if residual:
                void += prob * residual
            for item, bit, delta in column:
                weight = prob if delta == 1 else prob * delta
                if mask & bit:
                    void += weight
                    continue
                feas = feasible_for_counts(mechanism, counts, positive[item])
                if not feas:
                    succ = (mask | bit, owners)
                    acc = successors.get(succ)
                    successors[succ] = weight if acc is None else acc + weight
                    sizes[succ] = counts
                    continue
                share = weight / len(feas)
                for agent in feas:
                    succ = (mask | bit, owners[:item] + (agent,) + owners[item + 1:])
                    acc = successors.get(succ)
                    if acc is None:
                        successors[succ] = share
                        sizes[succ] = (counts[:agent] + (counts[agent] + 1,)
                                       + counts[agent + 1:])
                    else:
                        successors[succ] = acc + share
        if len(successors) > budget:
            raise BudgetExceeded(
                f"owner-level frontier reached {len(successors)} states at "
                f"moment {moment + 1} of {m} (budget {budget})")
        frontier, counts_of = successors, sizes
    return frontier, void


def _allocation_state(owners, n: int, probability: Fraction) -> AllocationState:
    bundles = [set() for _ in range(n)]
    for item, owner in enumerate(owners):
        if owner >= 0:
            bundles[owner].add(item)
    return AllocationState(tuple(frozenset(b) for b in bundles), probability)


# --- fixed ordering ----------------------------------------------------------


def _remaining_order(ctx: QueryContext, arrived) -> tuple[int, ...]:
    arrival = ctx.instance.arrival
    if not isinstance(arrival, FixedOrder):
        raise UnsupportedQuery("this query needs a fixed arrival ordering")
    return arrival.order[len(arrived):]


def enumerate_fixed_order(ctx: QueryContext) -> OutcomeReport:
    """Exact outcome under a fixed ordering by the count-state kernel.

    Honours a known prefix: its items stay with their owners and the kernel
    starts from the prefix's bundle sizes.  Raises BudgetExceeded if the
    frontier outgrows ``ctx.budget``.
    """
    owners, counts, arrived = _start_point(ctx)
    _remaining_order(ctx, arrived)  # raises unless the ordering is fixed
    return _count_state_outcome(ctx, owners, counts, arrived)


def allocation_states_after(ctx: QueryContext, rounds: int) -> list[AllocationState]:
    """The merged owner-level frontier after the next ``rounds`` fixed-order
    arrivals, for example to count the distinct positive-probability
    allocations with a given shape.  States come back sorted by owner
    vector, probabilities summing to 1.
    """
    owners, counts, arrived = _start_point(ctx)
    items = _remaining_order(ctx, arrived)
    if not 0 <= rounds <= len(items):
        raise InputError(f"rounds must be within 0..{len(items)}")
    frontier, _void = _owner_frontier(ctx, rounds, owners, counts, arrived)
    # every state has the same arrived mask, so this sorts by owner vector
    return [_allocation_state(owner_vec, ctx.instance.n, prob)
            for (_mask, owner_vec), prob in sorted(frontier.items())]


def like_closed_form(ctx: QueryContext) -> OutcomeReport:
    """O(n*m) exact outcome for Like under a fixed ordering.

    Like ignores past allocations, so each arriving item lands on each of its
    positive bidders with probability 1 over the number of positive bidders,
    independently of everything else.
    """
    if ctx.mechanism is not Mechanism.LIKE:
        raise UnsupportedQuery("closed form applies to the Like mechanism only")
    owners, _counts, arrived = _start_point(ctx)
    items = _remaining_order(ctx, arrived)
    positive = _positive_bidders(_bid_rows(ctx))
    n, m = ctx.instance.n, ctx.instance.m
    alloc = [[ZERO] * m for _ in range(n)]
    for item, owner in enumerate(owners):
        if owner >= 0:
            alloc[owner][item] = ONE
    for item in items:
        for i in positive[item]:
            alloc[i][item] = Fraction(1, len(positive[item]))
    return _outcome(ctx.instance, alloc, "closed-form")


# --- stochastic arrivals ------------------------------------------------------


def _require_distribution(ctx: QueryContext) -> None:
    if ctx.known_prefix is not None:
        raise UnsupportedQuery(
            "distribution queries start from the empty allocation; use the "
            "online queries for known-prefix settings")
    if not isinstance(ctx.instance.arrival, Distribution):
        raise UnsupportedQuery("this query needs a distribution arrival model")


def expected_utility_distribution(ctx: QueryContext) -> OutcomeReport:
    """Exact outcome when arrivals are drawn from the distribution, by the
    count-state kernel.

    Only complete repeat-free sequences contribute; all other mass is void
    and adds zero utility.
    """
    _require_distribution(ctx)
    return _count_state_outcome(ctx, *_start_point(ctx))


def distribution_states_after(ctx: QueryContext, moments: int):
    """Merged owner-level states after the first ``moments`` draws, plus
    aborted mass.

    Returns (list of (arrived frozenset, AllocationState), aborted mass),
    sorted by arrived items, then owner vector.  Surviving probabilities plus
    the aborted mass always sum to exactly 1.
    """
    if not 0 <= moments <= ctx.instance.m:
        raise InputError(f"moments must be within 0..{ctx.instance.m}")
    _require_distribution(ctx)
    frontier, aborted = _owner_frontier(ctx, moments, *_start_point(ctx))
    states = sorted(
        ([k for k in range(ctx.instance.m) if mask >> k & 1], owners, prob)
        for (mask, owners), prob in frontier.items())
    return [(frozenset(used), _allocation_state(owners, ctx.instance.n, prob))
            for used, owners, prob in states], aborted


# --- the online (known prefix) setting ---------------------------------------


def next_item_probability(ctx: QueryContext) -> tuple[Fraction, ...]:
    """Each agent's probability of receiving whatever arrives next.

    Requires a known prefix.  With j items arrived, the moment j+1 column of
    the arrival model is combined with per-item feasibility in the known
    state; items that already arrived carry no mass (a repeat voids the run).
    Runs in O(m*n).
    """
    if ctx.known_prefix is None:
        raise UnsupportedQuery("next_item_probability needs a known prefix")
    arrived, state = _checked_prefix(ctx)
    positive = _positive_bidders(_bid_rows(ctx))
    result = [ZERO] * ctx.instance.n
    for column in _columns(ctx.instance.arrival)[len(arrived):len(arrived) + 1]:
        for item, _bit, delta in column:
            if item in arrived:
                continue
            feas = feasible_for_counts(ctx.mechanism, state.counts, positive[item])
            for agent in feas:
                result[agent] += delta / len(feas)
    return tuple(result)


def online_utilities(ctx: QueryContext) -> tuple[Fraction, ...]:
    """Per-agent utility at the next moment: value already held plus the
    probability of winning the next arrival.  O(m*n)."""
    _arrived, state = _checked_prefix(ctx)
    nxt = next_item_probability(ctx)
    return tuple(
        state.utility_of(i, ctx.instance.utilities) + nxt[i]
        for i in range(ctx.instance.n))


# --- dispatching queries ------------------------------------------------------


def outcome_report(ctx: QueryContext) -> OutcomeReport:
    """Full exact outcome by the cheapest applicable path.

    Precedence: the Like closed form under a fixed ordering, then the
    count-state kernel for everything else (method "dp").  Both paths agree
    exactly.  Known-prefix contexts are served by the online queries instead.
    """
    if ctx.known_prefix is not None:
        raise UnsupportedQuery(
            "known-prefix contexts use online_utilities / next_item_probability")
    if (isinstance(ctx.instance.arrival, FixedOrder)
            and ctx.mechanism is Mechanism.LIKE):
        return like_closed_form(ctx)
    return _count_state_outcome(ctx, *_start_point(ctx))


def exact_utility(ctx: QueryContext, agent: int) -> Fraction:
    """The agent's exact expected utility in the context's setting."""
    if ctx.known_prefix is not None:
        return online_utilities(ctx)[agent]
    return outcome_report(ctx).expected_utility[agent]


def necessary_utility(ctx: QueryContext, agent: int, threshold: Fraction) -> bool:
    """Is the agent's expected utility at least ``threshold``?"""
    return exact_utility(ctx, agent) >= threshold


def possible_utility(ctx: QueryContext, agent: int) -> bool:
    """Is the agent's utility positive with positive probability?

    Utilities are non-negative and a void run scores 0, so this is exactly
    positivity of the expected utility.
    """
    return exact_utility(ctx, agent) > 0


def possible_item(ctx: QueryContext, agent: int, item: int) -> bool:
    """Does the agent receive ``item`` with positive probability?

    Reduces to a possible-utility query on a copy of the instance where the
    agent values only that item, while everyone (including the agent) keeps
    the original bids, so the mechanism's behaviour is untouched.
    """
    instance = ctx.instance
    bids = BidProfile(_bid_rows(ctx))
    if bids.bids[agent][item] <= 0:
        return False
    unit_row = tuple(ONE if k == item else ZERO for k in range(instance.m))
    rows = list(instance.utilities)
    rows[agent] = unit_row
    surrogate = Instance(instance.n, instance.m, tuple(rows), instance.arrival)
    return possible_utility(
        QueryContext(surrogate, ctx.mechanism, bids, ctx.known_prefix, ctx.budget),
        agent)


def epsilon_bound(ctx: QueryContext, agent: int) -> Fraction:
    """A positive threshold under which "possible" and "necessary at least
    epsilon" coincide for next-item probabilities.

    Every positive branch probability is a product of at most m arrival
    entries and at most m uniform shares of 1/f with f <= n, so the product
    of each moment's smallest positive arrival entry times (1/n)^m bounds
    every positive branch from below.  A conservative bound, never zero.
    """
    if not any(agent in bidders for bidders in _positive_bidders(_bid_rows(ctx))):
        raise NoPositiveBranch(f"agent {agent} bids positively on nothing")
    floors = [min(delta for _item, _bit, delta in column)
              for column in _columns(ctx.instance.arrival) if column]
    if not floors:
        raise NoPositiveBranch("no item ever arrives under this distribution")
    return math.prod(floors) * Fraction(1, ctx.instance.n) ** ctx.instance.m


def monte_carlo_estimate(ctx: QueryContext, samples: int, seed: int) -> list[float]:
    """Plain Monte Carlo estimate of each agent's expected utility.

    Samples the arrival sequence (a repeat or no-arrival draw voids the run)
    and then the mechanism's uniform choices.  With a known prefix it
    estimates the same moment-(j+1) utility that ``exact_utility`` computes
    online: held value plus next-arrival win frequency.  Reproducible for a
    fixed seed.
    """
    if samples < 1:
        raise InputError("samples must be positive")
    instance, mechanism = ctx.instance, ctx.mechanism
    n = instance.n
    positive = _positive_bidders(_bid_rows(ctx))
    _owners, start_counts, arrived = _start_point(ctx)
    columns = _columns(instance.arrival)[len(arrived):]
    if ctx.known_prefix is None:
        held = [0.0] * n
        credit = [[float(u) for u in row] for row in instance.utilities]
    else:
        columns = columns[:1]
        state = ctx.known_prefix[1]
        held = [float(state.utility_of(i, instance.utilities)) for i in range(n)]
        credit = [[1.0] * instance.m for _ in range(n)]
    if not columns:  # nothing left to draw, so every run adds nothing
        return held
    # A certain column whose item is fresh takes no draw: its item is set in
    # ``sequence`` once, and a draw landing on it voids the run.
    fixed_mask = sum(1 << item for item in arrived)
    sequence = [-1] * len(columns)
    draws = []
    for moment, column in enumerate(columns):
        if len(column) == 1 and column[0][2] == 1 and not fixed_mask & column[0][1]:
            fixed_mask |= column[0][1]
            sequence[moment] = column[0][0]
        else:
            draws.append((moment, [(item, float(delta)) for item, _bit, delta in column]))
    rng = random.Random(seed)
    totals = [0.0] * n
    for _ in range(samples):
        mask = fixed_mask
        for moment, entries in draws:
            draw = rng.random()
            acc = 0.0
            landed = -1
            for item, p in entries:
                acc += p
                if draw < acc:
                    landed = item
                    break
            if landed < 0 or mask >> landed & 1:
                break
            mask |= 1 << landed
            sequence[moment] = landed
        else:
            counts = list(start_counts)
            gains = [0.0] * n
            for item in sequence:
                feas = feasible_for_counts(mechanism, counts, positive[item])
                if not feas:
                    continue
                winner = feas[rng.randrange(len(feas))] if len(feas) > 1 else feas[0]
                counts[winner] += 1
                gains[winner] += credit[winner][item]
            for i in range(n):
                totals[i] += gains[i]
    return [held[i] + totals[i] / samples for i in range(n)]
