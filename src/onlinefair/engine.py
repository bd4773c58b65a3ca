"""Exact, possible, and necessary outcome queries.

Three information settings are supported:

* the arrival ordering is fixed and known (``FixedOrder``),
* arrivals are drawn from a known moment-by-moment distribution
  (``Distribution``),
* a prefix of arrivals and its allocation are known and nothing is known
  about future items (``QueryContext.known_prefix``).

Every arrival model is read as one integer column per moment
(``arrivals.py``): a fixed ordering is one certain item per moment, a
distribution a column of arrival probabilities a / q over the column's lcm
denominator q.  Two loops step over these columns.  ``_step`` moves an
exact frontier one moment, mapping (arrived-item bitmask, one packed int)
to reach probability.  Balanced Like gives an item to the positive bidders
holding the fewest items, so the packed int holds the bundle sizes; Like
keeps none (one state per moment under a fixed ordering).  The count-state
kernel behind ``outcome_report`` and the best-response search step that
frontier and add each item's allocation probability while it is placed.
``states_after``, the one owner-level view for every arrival model, with or
without a known prefix, steps the same frontier with one bundle mask per
agent packed above the sizes, and takes its void mass as the complement of
the surviving mass; the online queries are one ``states_after`` step from
the known prefix.  An item's feasible set depends only on the item and its
positive bidders' sizes, so ``_step`` looks it up in a memo keyed on those
(``mechanisms.packed_sizes``) that lives for a whole run or search and
stops growing at the budget.  The frontier's values are Python ints over
one per-frontier scale: a moment multiplies the scale by its column's lcm
denominator q times L = lcm(1..n), so an arrival probability a / q split
over f feasible agents is the exact int ``a * (L // f)``, and dividing out
the gcd after every moment keeps the frontier in lowest terms.  Completion
factors are ints over one common denominator, and the credits of a moment
become one ``Fraction`` per (agent, item), so every answer is still exact.
The Monte Carlo sampler, the other loop, draws every uncertain column once
per sample by bisecting its cumulative probabilities and each winner from
raw random bits, consuming the generator exactly as ``randrange`` would, and
reports each agent's standard error and the voided runs with its means.
Before the first run it builds one step per item (memo field, tag, item,
credit column), and a run places the steps its columns landed on.  It keeps
a run's bundle sizes packed in one int and memoises feasible sets on the
same keys, since every run revisits the same few; under Like, where no
feasible set reads a size, each item's is resolved once before the runs.
Possibility is positivity of the exact answer, and necessity is a threshold
on it.

Distribution semantics: a run that draws an already-arrived item, or the
no-arrival residual of a column, is void and contributes an empty allocation
(zero utility for everyone).  Only full-length repeat-free arrival sequences
count.  The kernel weights each placement by the probability that the
remaining moments complete without a void, which depends only on the set of
arrived items.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import NamedTuple, Optional

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    AllocationState,
    BudgetExceeded,
    DimensionMismatch,
    FixedOrder,
    InputError,
    Instance,
    NegativeValue,
    OutcomeReport,
    check_allocation_state,
    check_indices,
)
from .arrivals import _columns, _plan, _scaled_columns
from .mechanisms import Mechanism, feasible_for_counts, packed_sizes

ZERO = Fraction(0)


class UnsupportedQuery(InputError):
    """The operation does not apply to this context (a missing or
    unexpected known prefix)."""


class InconsistentPrefix(InputError):
    pass


class NoPositiveBranch(InputError):
    """The agent's probability is identically zero, so no positive lower
    bound exists."""


class QueryContext(NamedTuple):
    """Everything a query needs: instance, mechanism, bids, optional prefix.

    ``bids`` holds one bid row per agent and defaults to sincere (the utility
    matrix).  Feasibility reads only which bids are positive; utilities are
    still priced at the instance's true values.  ``known_prefix`` is a
    pair (arrived item indices in arrival order, allocation state reached);
    it switches exact/possible/necessary queries to the online setting where
    nothing is known about future items.
    """

    instance: Instance
    mechanism: Mechanism
    bids: Optional[tuple[tuple[Fraction, ...], ...]] = None
    known_prefix: Optional[tuple[tuple[int, ...], AllocationState]] = None
    budget: int = DEFAULT_ENUMERATION_BUDGET


def _positive_bidders(ctx: QueryContext):
    """Each item's positive bidders, after checking the bids (sincere by
    default) against the instance."""
    rows = ctx.instance.utilities if ctx.bids is None else ctx.bids
    if len(rows) != ctx.instance.n or any(len(r) != ctx.instance.m for r in rows):
        raise DimensionMismatch("bid profile does not match the instance")
    for row in rows:
        for entry in row:
            if entry < 0:
                raise NegativeValue(f"negative bid {entry}")
    # bids are non-negative, so positive means nonzero
    return tuple(tuple(i for i, bid in enumerate(column) if bid)
                 for column in zip(*rows))


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


def _step(frontier, scale: int, moment: int, plan, positive, layout, memo,
          mechanism, budget: int):
    """Advance a frontier over one moment: the one exact stepping loop.

    The frontier maps (arrived mask, packed int) to an int: the probability
    of reaching that state without a void is ``value / scale``.  ``plan``
    comes from ``_plan`` (or has no completion factors), and ``layout`` is
    ``packed_sizes`` over ``positive``, the bidders of each item (or of each
    entry the layout keys), plus ``owners``, one bundle-field unit per agent.
    Agent a winning item k adds the move ``units[a] + owners[a] * (1 << k)``.
    The kernel and the search pass zero owners, so their packed int is the
    bundle sizes alone; ``states_after`` keeps each bundle mask above them.
    ``memo`` maps the layout's key, which carries the item, to the feasible
    set and the distinct moves its agents make: the single 0 under Like
    with zero owners, whose units are all 0, or when nobody may take the
    item.  So such a placement has one successor, which takes the whole
    branch.  A miss unpacks the sizes and calls ``feasible_for_counts``, and
    the memo keeps at most ``budget`` answers, so past that a miss is only
    slower.  The caller keeps one memo for a whole run or search.

    Returns (successors, their scale, credits, unit): placing item k on
    agent i adds the branch probability times the completion factor of the
    new mask, summed over the moment as the int ``credits[i, k]``, to i's
    probability of receiving k as ``credits[i, k] / unit``.  Before
    returning, the successors and their scale are divided in place by their
    gcd (found with an early exit at 1), so the frontier stays in lowest
    terms and its ints stay small on deep instances.
    """
    columns, completion, unit = plan
    grow, entries = columns[moment]
    base, units, masks, tags, owners = layout
    successors: dict = {}
    credits: dict = {}
    for item, bit, shares in entries:
        field, tag = masks[item], tags[item]
        gained: dict = {}  # credit per feasible set
        for (mask, packed), weight in frontier.items():
            if mask & bit:
                continue
            mask2 = mask | bit
            if completion is None:
                tail = 1
            else:
                tail = completion[mask2]
                if not tail:
                    continue
            key = packed & field | tag
            hit = memo.get(key)
            if hit is None:
                feas = feasible_for_counts(
                    mechanism, [packed // u % base for u in units if u], positive[item])
                # the distinct moves; one, 0, under Like with no owners or if nobody wins
                hit = feas, tuple({units[a] + owners[a] * bit for a in feas}) or (0,)
                if len(memo) < budget:
                    memo[key] = hit
            feas, moves = hit
            gained[feas] = gained.get(feas, 0) + weight * shares[len(feas)] * tail
            share = weight * shares[len(moves)]
            for move in moves:
                key = (mask2, packed + move)
                successors[key] = successors.get(key, 0) + share
        for feas, credit in gained.items():
            for agent in feas:
                key = (agent, item)
                credits[key] = credits.get(key, 0) + credit
    if len(successors) > budget:
        raise BudgetExceeded(
            f"frontier reached {len(successors)} states at "
            f"moment {moment + 1} of {len(columns)} (budget {budget})")
    scale *= grow
    unit *= scale  # credits are over the unreduced scale times C
    common = scale
    for value in successors.values():
        if common == 1:
            break
        common = math.gcd(common, value)
    if common > 1:
        scale //= common
        for key in successors:
            successors[key] //= common
    return successors, scale, credits, unit


def states_after(ctx: QueryContext, moments: int):
    """The owner-level states after the next ``moments`` arrivals, under a
    fixed ordering or a distribution, from the empty allocation or from the
    known prefix.

    Returns (list of (arrived frozenset, AllocationState), void mass),
    sorted by arrived mask, then bundle masks.  The surviving probabilities
    plus the void mass are exactly 1; the void gathers every no-arrival draw
    and repeated item, so it is 0 under a fixed ordering.  From a known
    prefix the probabilities are conditional on that prefix, whose own
    ``probability`` is not multiplied in.

    The frontier is ``_step``'s, with its credits ignored and one memo for
    the whole build.  It takes no completion factor: owner-level states
    carry none, and building the table could exceed the budget on arrival
    masks the requested depth never reaches.  Its packed int holds the
    bundle sizes (none under Like) and, above them, one m-bit bundle mask
    per agent, agent 0's highest, so the packed ints sort as the bundle
    masks do.  Each distinct packed int is decoded once at the end, and the
    states repeat most bundles, so one frozenset is built per distinct
    mask: sharing them leaves far fewer live containers for cyclic garbage
    collection to scan.
    """
    mechanism = ctx.mechanism
    n, m = ctx.instance.n, ctx.instance.m
    if ctx.known_prefix is None:
        arrived, bundles = (), ((),) * n
    else:
        arrived, state = _checked_prefix(ctx)
        bundles = state.bundles
    remaining = m - len(arrived)
    if not 0 <= moments <= remaining:
        raise InputError(f"moments must be within 0..{remaining}")
    positive = _positive_bidders(ctx)
    base, units, masks, tags = packed_sizes(mechanism, n, m, positive)
    shifts = [n * (base.bit_length() - 1) + m * i for i in reversed(range(n))]
    owners = [1 << shift for shift in shifts]
    start = sum(len(bundle) * unit + sum(owner << k for k in bundle)
                for bundle, unit, owner in zip(bundles, units, owners))
    layout = base, units, masks, tags, owners
    plan = _scaled_columns(_columns(ctx.instance.arrival), n), None, 1
    frontier, scale, memo = {(sum(1 << k for k in arrived), start): 1}, 1, {}
    for moment in range(len(arrived), len(arrived) + moments):
        frontier, scale, _credits, _unit = _step(frontier, scale, moment, plan, positive,
                                                 layout, memo, mechanism, ctx.budget)
    void = 1 - Fraction(sum(frontier.values()), scale)
    full = (1 << m) - 1
    held = {packed: [packed >> shift & full for shift in shifts]
            for _mask, packed in frontier}
    items = {mask: frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)
             for mask in {key[0] for key in frontier}.union(*held.values())}.__getitem__
    return [(items(mask), AllocationState(tuple(map(items, held[packed])),
                                          Fraction(value, scale)))
            for (mask, packed), value in sorted(frontier.items())], void


# --- the online (known prefix) setting ---------------------------------------


def _next_moment(ctx: QueryContext):
    """(the known prefix's state, the owner-level states one moment later).
    With every item arrived there is no next moment, and the one state is
    the prefix's own."""
    if ctx.known_prefix is None:
        raise UnsupportedQuery("online queries need a known prefix")
    arrived, state = ctx.known_prefix
    return state, states_after(ctx, min(1, ctx.instance.m - len(arrived)))[0]


def next_item_probability(ctx: QueryContext) -> tuple[Fraction, ...]:
    """Each agent's probability of receiving whatever arrives next.

    Requires a known prefix.  One owner-level step from the known state: an
    agent's probability is the mass of the successors in which its bundle
    grew.
    """
    state, successors = _next_moment(ctx)
    held = state.counts
    return tuple(sum((after.probability for _arrived, after in successors
                      if len(after.bundles[i]) > held[i]), ZERO)
                 for i in range(ctx.instance.n))


def online_utilities(ctx: QueryContext) -> tuple[Fraction, ...]:
    """Per-agent utility at the next moment: value already held plus the
    probability of winning the next arrival."""
    nxt = next_item_probability(ctx)
    state = ctx.known_prefix[1]
    return tuple(state.utility_of(i, ctx.instance.utilities) + p
                 for i, p in enumerate(nxt))


# --- dispatching queries ------------------------------------------------------


def outcome_report(ctx: QueryContext) -> OutcomeReport:
    """Full exact outcome by the count-state kernel (method "dp") from the
    empty allocation: one ``_step`` per moment, sharing one feasibility memo.

    Known-prefix contexts are served by the online queries instead.
    """
    if ctx.known_prefix is not None:
        raise UnsupportedQuery(
            "known-prefix contexts use online_utilities / next_item_probability")
    instance, mechanism = ctx.instance, ctx.mechanism
    n, m = instance.n, instance.m
    positive = _positive_bidders(ctx)
    plan = _plan(instance.arrival, n, ctx.budget)
    layout = packed_sizes(mechanism, n, m, positive) + ([0] * n,)
    alloc = [[ZERO] * m for _ in range(n)]
    frontier, scale, memo = {(0, 0): 1}, 1, {}
    for moment in range(m):
        frontier, scale, credits, unit = _step(frontier, scale, moment, plan, positive,
                                               layout, memo, mechanism, ctx.budget)
        for (agent, item), credit in credits.items():
            credit = Fraction(credit, unit)
            held = alloc[agent][item]
            alloc[agent][item] = credit if held is ZERO else held + credit
    # priced at the true utilities, whatever the bids were; products that
    # share a denominator are summed as ints, one Fraction per denominator
    utility = []
    for row, values in zip(alloc, instance.utilities):
        by_denominator: dict = {}
        for p, u in zip(row, values):
            if p and u:
                d = p.denominator * u.denominator
                by_denominator[d] = by_denominator.get(d, 0) + p.numerator * u.numerator
        utility.append(sum((Fraction(v, d) for d, v in by_denominator.items()), ZERO))
    return OutcomeReport(tuple(utility), tuple(tuple(row) for row in alloc), "dp")


def exact_utility(ctx: QueryContext, agent: int) -> Fraction:
    """The agent's exact expected utility in the context's setting."""
    check_indices(ctx.instance, agent)
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

    Without a prefix this is positivity of the exact allocation probability.
    With a known prefix it looks one moment ahead, like the other online
    queries: the agent holds the item already, or the item has not arrived
    and the agent wins it at the next moment with positive probability.
    """
    check_indices(ctx.instance, agent, item)
    if ctx.known_prefix is None:
        return outcome_report(ctx).allocation_probability[agent][item] > 0
    state, successors = _next_moment(ctx)
    return item in state.bundles[agent] or any(
        item in after.bundles[agent] for _arrived, after in successors)


def epsilon_bound(ctx: QueryContext, agent: int) -> Fraction:
    """A positive threshold under which "possible" and "necessary at least
    epsilon" coincide for next-item probabilities.

    Every positive branch probability is a product of at most m arrival
    entries and at most m uniform shares of 1/f with f <= n, so the product
    of each moment's smallest positive arrival entry times (1/n)^m bounds
    every positive branch from below.  A conservative bound, never zero.
    """
    check_indices(ctx.instance, agent)
    if not any(agent in bidders for bidders in _positive_bidders(ctx)):
        raise NoPositiveBranch(f"agent {agent} bids positively on nothing")
    floors = [Fraction(min(a for _item, _bit, a in column), q)
              for q, column in _columns(ctx.instance.arrival) if column]
    if not floors:
        raise NoPositiveBranch("no item ever arrives under this distribution")
    return math.prod(floors) * Fraction(1, ctx.instance.n) ** ctx.instance.m


class MonteCarloEstimate(NamedTuple):
    """What ``monte_carlo_estimate`` returns: per-agent estimates, each
    one's standard error of the mean, and how many runs were void."""

    estimates: list[float]
    standard_error: list[float]
    voided: int


def monte_carlo_estimate(ctx: QueryContext, samples: int,
                         seed: int) -> MonteCarloEstimate:
    """Plain Monte Carlo estimate of each agent's expected utility.

    Samples the arrival sequence (a repeat or no-arrival draw voids the run)
    and then the mechanism's uniform choices.  With a known prefix it
    estimates the same moment-(j+1) utility that ``exact_utility`` computes
    online: held value plus next-arrival win frequency.  Reproducible for a
    fixed seed.

    Returns ``MonteCarloEstimate(estimates, standard_error, voided)``.  An
    estimate's standard error is the sample standard deviation of the
    per-run utilities (a void run scores zero) over the square root of
    ``samples``, and 0 from a single sample; ``voided`` counts void runs.
    More samples than ``ctx.budget`` raise ``BudgetExceeded`` before any draw.

    An uncertain column is drawn by bisecting its cumulative float
    probabilities, summed in column order, so a draw lands on the item a
    linear scan would pick.  A winner among f > 1 feasible agents takes
    ``f.bit_length()`` random bits, redrawn while they are at least f, which
    is how CPython's ``Random.randrange(f)`` draws.  So the generator is
    consumed, and the estimates and their squares summed, exactly as by a
    linear scan with ``randrange`` (``tests/helpers.py::naive_monte_carlo``).

    Nothing that is the same in every run is redone in one.  Each item has
    one step, built before the first run: its memo field and tag, the item
    and its credit column.  A certain column's step is set once; a drawn
    column puts the step of the item it landed on into the run's sequence.
    A run's bundle sizes are one packed int (``mechanisms.packed_sizes``).
    Under Balanced Like an item's feasible set depends only on the item and
    its positive bidders' sizes, so it is looked up in a memo keyed on those
    that holds (f, ``f.bit_length()``, the f feasible agents); a miss
    unpacks the sizes and calls ``feasible_for_counts``.  The memo takes at
    most ``ctx.budget`` entries, and past that a miss is computed again each
    time, which is slower but gives the same draws.  Under Like no feasible
    set reads a size, so each item's is resolved once, by the same call,
    before the first run, and its step carries it: a placement there reads
    no key and no memo, and adds Like's zero unit to the packed sizes.
    None of this changes the draws or the float sums: a run's gains are
    summed in item order and added to the totals agent by agent.
    """
    if samples < 1:
        raise InputError("samples must be positive")
    instance, mechanism = ctx.instance, ctx.mechanism
    n = instance.n
    positive = _positive_bidders(ctx)
    columns = _columns(instance.arrival)
    base, units, masks, tags = packed_sizes(mechanism, n, instance.m, positive)
    arrived, start, held = (), 0, [0.0] * n
    credit = [list(map(float, column)) for column in zip(*instance.utilities)]
    if ctx.known_prefix is not None:
        arrived, state = _checked_prefix(ctx)
        start = sum(map(mul, state.counts, units))
        columns = columns[len(arrived):len(arrived) + 1]
        held = [float(state.utility_of(i, instance.utilities)) for i in range(n)]
        credit = [[1.0] * n] * instance.m
    if not columns:  # nothing left to draw, so every run adds nothing
        return MonteCarloEstimate(held, [0.0] * n, 0)
    if samples > ctx.budget:
        raise BudgetExceeded(f"{samples} samples exceed the budget {ctx.budget}")

    def resolve(packed, item):
        """Item's memo entry at these sizes: (f, f.bit_length(), f feasible agents)."""
        feas = feasible_for_counts(
            mechanism, [packed // unit % base for unit in units if unit], positive[item])
        return len(feas), len(feas).bit_length(), feas
    # One step per item: its entry resolved once under Like, which reads no
    # size (else None), its memo field and tag, the item, its credit column.
    steps = [(resolve(0, item) if mechanism is Mechanism.LIKE else None, masks[item],
              tags[item], item, credit[item]) for item in range(instance.m)]
    # A certain column with a fresh item takes no draw: its step is set once.  A
    # drawn column keeps its cumulative probabilities and items, -1 the residual.
    fixed_mask = sum(1 << item for item in arrived)
    sequence = [None] * len(columns)
    draws = []
    for moment, (q, column) in enumerate(columns):
        if len(column) == 1 and column[0][2] == q and not fixed_mask & column[0][1]:
            fixed_mask |= column[0][1]
            sequence[moment] = steps[column[0][0]]
        else:
            draws.append((moment, list(accumulate(a / q for _item, _bit, a in column)),
                          [item for item, _bit, _a in column] + [-1]))
    rng = random.Random(seed)
    draw, bits = rng.random, rng.getrandbits
    memo, totals, squares, voided = {}, [0.0] * n, [0.0] * n, 0
    for _ in range(samples):
        mask = fixed_mask
        for moment, cumulative, items in draws:
            landed = items[bisect_right(cumulative, draw())]
            if landed < 0 or mask >> landed & 1:
                voided += 1
                break
            mask |= 1 << landed
            sequence[moment] = steps[landed]
        else:
            packed, gains = start, [0.0] * n
            for hit, field, tag, item, column in sequence:
                if hit is None:
                    key = packed & field | tag
                    try:
                        hit = memo[key]
                    except KeyError:
                        hit = resolve(packed, item)
                        if len(memo) < ctx.budget:
                            memo[key] = hit
                f, k, feas = hit
                if f:
                    r = bits(k) if f > 1 else 0
                    while r >= f:
                        r = bits(k)
                    winner = feas[r]
                    packed += units[winner]
                    gains[winner] += column[winner]
            totals = list(map(add, totals, gains))
            squares = list(map(add, squares, map(mul, gains, gains)))
    means = [total / samples for total in totals]
    return MonteCarloEstimate(
        list(map(add, held, means)),
        # the sample variance, from the mean square, is over samples - 1
        [math.sqrt(max(0.0, square / samples - mean * mean) / max(samples - 1, 1))
         for square, mean in zip(squares, means)],
        voided)
