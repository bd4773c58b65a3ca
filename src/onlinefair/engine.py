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
denominator q.  Both come with the same table of completion factors, all 1
for a fixed ordering, so no loop asks which model it steps.  Two loops step
over these columns.  ``_step`` moves an exact frontier one moment, mapping
(arrived-item bitmask, one packed int) to reach probability.  Balanced Like
gives an item to the positive bidders holding the fewest items, so the
packed int holds the bundle sizes; Like keeps none (one state per moment
under a fixed ordering).  The count-state kernel behind ``outcome_report``
and the best-response search step that frontier and add each item's
allocation probability while it is placed.  The owner-level view and the
online queries (``_online.py``) step it too, and the Monte Carlo sampler
(``_sampler.py``) is the other loop; each of these bodies is loaded on its
first call, so a call compiles only what it runs.  Both loops read one
layout record, built by ``mechanisms.packed_sizes``: the mechanism, the
packing of the sizes, one (bidders, field, tag) entry per item and each
agent's bundle-field unit.  An item's feasible set depends only on the item
and its positive bidders' sizes, so ``_step`` looks it up in a memo keyed
on the entry's field of the packed int and its tag, which lives for a whole
run or search and stops growing at the budget.  An entry whose feasible
set reads no size (under Like, or with fewer than two bidders) has field 0
and keys on its tag alone.  The frontier's values are Python ints over
one per-frontier scale: a moment multiplies the scale by its column's lcm
denominator q times L = lcm(1..n), so an arrival probability a / q split
over f feasible agents is the exact int ``a * (L // f)``, and dividing out
the gcd after every moment keeps the frontier in lowest terms.  Completion
factors are ints over one common denominator, and the credits of a moment
become one ``Fraction`` per (agent, item), so every answer is still exact.
Possibility is positivity of the exact answer, and necessity is a threshold
on it.

Distribution semantics: a run that draws an already-arrived item, or the
no-arrival residual of a column, is void and contributes an empty allocation
(zero utility for everyone).  Only full-length repeat-free arrival sequences
count.  The kernel weights each placement by the probability that the
remaining moments complete without a void, which depends only on the set of
arrived items (and is 1 under a fixed ordering).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    AllocationState,
    BudgetExceeded,
    InputError,
    Instance,
    OutcomeReport,
    check_indices,
)
from .arrivals import _plan
from .mechanisms import Mechanism, feasible_for_counts, packed_sizes

ZERO = Fraction(0)


class QueryContext(NamedTuple):
    """Everything a query needs: instance, mechanism, bids, optional prefix.

    ``bids`` holds one bid row per agent and defaults to sincere (the utility
    matrix).  Feasibility reads only which bids are positive; utilities are
    still priced at the instance's true values.  ``known_prefix`` is a
    pair (arrived item indices in arrival order, allocation state reached);
    it switches exact/possible/necessary queries to the online setting where
    nothing is known about future items.  The online queries and the sampler
    check it with ``core.check_prefix``.  The state's probability is checked
    but never multiplied in: answers are given that the prefix happened.
    """

    instance: Instance
    mechanism: Mechanism
    bids: Optional[tuple[tuple[Fraction, ...], ...]] = None
    known_prefix: Optional[tuple[tuple[int, ...], AllocationState]] = None
    budget: int = DEFAULT_ENUMERATION_BUDGET


def _positive_bidders(ctx: QueryContext):
    """Each item's positive bidders, after checking the bids (sincere by
    default) against the instance.  Bids are non-negative, so positive
    means nonzero."""
    rows = ctx.instance.utilities if ctx.bids is None else ctx.bids
    if len(rows) != ctx.instance.n or any(len(r) != ctx.instance.m for r in rows):
        raise InputError("bid profile does not match the instance")
    for row in rows:
        for entry in row:
            if entry < 0:
                raise InputError(f"negative bid {entry}")
    return tuple(tuple(i for i, bid in enumerate(column) if bid)
                 for column in zip(*rows))


def _step(frontier, scale: int, moment: int, plan, layout, memo, budget: int):
    """Advance a frontier over one moment: the one exact stepping loop.

    The frontier maps (arrived mask, packed int) to an int: the probability
    of reaching that state without a void is ``value / scale``.  ``plan``
    is (columns, completion factors, their denominator C) as ``_plan``
    builds it, and a mask missing from the table completes with certainty:
    the kernel's and the search's tables hold every reachable mask, and
    ``states_after`` passes an empty table with C = 1, weighting no
    placement.  ``layout`` is the one record ``packed_sizes`` builds,
    ``(mechanism, base, units, entries, owners)``, and item k reads its
    entry ``entries[k]``, ``(bidders, field, tag)``: the search swaps in
    the entry of the bid it has decided, and ``states_after`` its owners,
    one bundle-field unit per agent.  Agent a winning item k adds the move
    ``units[a] + owners[a] * (1 << k)``.  The kernel and the search keep
    zero owners, so their packed int is the bundle sizes alone;
    ``states_after`` keeps each bundle mask above them.  ``memo`` maps the
    entry's key ``packed & field | tag`` to the feasible set and the
    distinct moves its agents make: the single 0 under Like with zero
    owners, whose units are all 0, or when nobody may take the item.  So
    such a placement has one successor, which takes the whole branch.  An
    entry whose feasible set reads no size has field 0, so it keys on its
    tag alone and is computed once per memo.  A miss unpacks the sizes and
    calls ``feasible_for_counts``, and the memo keeps at most ``budget``
    answers, so past that a miss is only slower.  The caller keeps one memo
    for a whole run or search.

    Returns (successors, their scale, credits, unit): placing item k on
    agent i adds the branch probability times the completion factor of the
    new mask, summed over the moment as the int ``credits[i, k]``, to i's
    probability of receiving k as ``credits[i, k] / unit``.  Before
    returning, the successors and their scale are divided in place by their
    gcd (found with an early exit at 1), so the frontier stays in lowest
    terms and its ints stay small on deep instances.
    """
    columns, completion, unit = plan
    grow, column = columns[moment]
    mechanism, base, units, entries, owners = layout
    successors, credits = {}, {}
    for item, bit, shares in column:
        bidders, field, tag = entries[item]
        gained = {}  # credit per feasible set
        for (mask, packed), weight in frontier.items():
            if mask & bit:
                continue
            mask2 = mask | bit
            tail = completion.get(mask2, 1)
            if not tail:
                continue
            key = packed & field | tag
            hit = memo.get(key)
            if hit is None:
                feas = feasible_for_counts(
                    mechanism, [packed // u % base for u in units if u], bidders)
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
    the whole build.  Its completion table is empty, so no placement is
    weighted: owner-level states carry no completion factor, and building
    the table could exceed the budget on arrival masks the requested depth
    never reaches.  Its packed int holds the bundle sizes (none under Like)
    and, above them, one m-bit bundle mask per agent, agent 0's highest, so
    the packed ints sort as the bundle masks do.  Each distinct packed int
    is decoded once at the end, and the states repeat most bundles, so one
    frozenset is built per distinct mask: sharing them leaves far fewer
    live containers for cyclic garbage collection to scan.
    """
    from ._online import states_after
    return states_after(ctx, moments)


# --- the online (known prefix) setting ---------------------------------------


def next_item_probability(ctx: QueryContext) -> tuple[Fraction, ...]:
    """Each agent's probability of receiving whatever arrives next.

    Requires a known prefix.  One owner-level step from the known state: an
    agent's probability is the mass of the successors in which its bundle
    grew.
    """
    from ._online import next_item_probability
    return next_item_probability(ctx)


def online_utilities(ctx: QueryContext) -> tuple[Fraction, ...]:
    """Per-agent utility at the next moment: value already held plus the
    probability of winning the next arrival."""
    from ._online import online_utilities
    return online_utilities(ctx)


# --- dispatching queries ------------------------------------------------------


def outcome_report(ctx: QueryContext) -> OutcomeReport:
    """Full exact outcome by the count-state kernel (method "dp") from the
    empty allocation: one ``_step`` per moment, sharing one feasibility memo.
    Utilities are priced at the true values, whatever the bids were, and
    products that share a denominator are summed as ints, one ``Fraction``
    per denominator.

    Known-prefix contexts are served by the online queries instead.
    """
    if ctx.known_prefix is not None:
        raise InputError(
            "known-prefix contexts use online_utilities / next_item_probability")
    n, m, utilities, arrival = ctx.instance
    plan = _plan(arrival, n, ctx.budget)
    layout = packed_sizes(ctx.mechanism, n, m, _positive_bidders(ctx))
    alloc = [[ZERO] * m for _ in range(n)]
    frontier, scale, memo = {(0, 0): 1}, 1, {}
    for moment in range(m):
        frontier, scale, credits, unit = _step(frontier, scale, moment, plan, layout,
                                               memo, ctx.budget)
        for (agent, item), credit in credits.items():
            credit = Fraction(credit, unit)
            held = alloc[agent][item]
            alloc[agent][item] = credit if held is ZERO else held + credit
    utility = []
    for row, values in zip(alloc, utilities):
        by_denominator = {}
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
    from ._online import _next_moment
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
    Raises InputError when no positive branch exists: the agent bids
    positively on nothing, or no item ever arrives.
    """
    from ._online import epsilon_bound
    return epsilon_bound(ctx, agent)


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
    consumed exactly as by a linear scan with ``randrange``
    (``tests/helpers.py::naive_monte_carlo``).

    Nothing that is the same in every run is redone in one.  Each item has
    one step, built before the first run from its entry in the layout
    record (``mechanisms.packed_sizes``): its memo entry when no bundle size
    can change it, else ``None``; its memo field and its own memo; its
    positive bidders and its credit column.  A certain column's step is set
    once; a drawn column puts the step of the item it landed on into the
    run's sequence.  A run's bundle sizes are one packed int.  Under
    Balanced Like an item's feasible set depends only on its positive
    bidders' sizes, so it is looked up in the item's memo under
    ``packed & field``, which keeps just those sizes; an entry holds (f,
    ``f.bit_length()``, the f feasible agents), and a miss unpacks the sizes
    and calls ``feasible_for_counts``.  The memos together take at most
    ``ctx.budget`` entries, and past that a miss is computed again each
    time, which is slower but gives the same draws.  An entry whose feasible
    set reads no size (under Like, or with fewer than two positive bidders)
    has field 0, and exactly these entries are resolved once, by the same
    call, before the first run: a placement there reads no key and no memo.

    A drawn column holds one (item bit, step) pair per item it can land on,
    and (``1 << m``, ``None``) for its no-arrival residual.  That sentinel
    bit is set in every run's arrived mask from the start, so a draw voids
    the run exactly when ``mask & bit`` is nonzero: a repeated item or the
    residual, with no separate test for either.

    None of this changes the draws.  Gains are ints over one scale S, the
    lcm of the utilities' denominators: a won item credits its utility
    times S, and from a known prefix a win counts 1, with S = 1.  A run's
    gains go into a row of n ints, and every ``_BATCH`` runs (128, in
    ``_sampler``) each agent's column of the rows is added to its total,
    and the column's squares to its sum of squares, by ``sum()``: a C loop,
    exact in any order and any Python version.  Void runs add no row.
    Each answer is rounded once, at the end.  An estimate is ``float(held
    + Fraction(total, S * samples))``.  The variance, ``(samples * squares
    - total**2) / ((S * samples)**2 * max(samples - 1, 1))``, is an exact
    ``Fraction`` that is never negative, and it is rounded to a float only
    to take its square root.  So when every run gains the same (2/3 from
    two items worth 1/3), the estimate is that gain, correctly rounded, and
    its standard error is 0.  ``_BATCH`` is 128 because the rows held between
    folds raise the peak resident set: on the K55-C10 gadget (16 agents) a
    batch of 512 float rows cost a call about 0.36 MB, and 128 nothing
    measurable.
    """
    from ._sampler import monte_carlo_estimate
    return monte_carlo_estimate(ctx, samples, seed)
