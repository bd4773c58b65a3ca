"""Strategic bidding analysis: what does misreporting buy an agent?

All evaluation uses the agent's true utilities from the instance; bids only
steer the mechanism.  Since feasibility depends on bid positivity alone, the
search space of meaningfully distinct deviations is the 2^m set of 0/1 rows,
which keeps exhaustive best-response search exact at desk scale.  The search
shares count-state frontiers between rows along a trie of the agent's bits:
under a fixed ordering, about 2^(m+1) moment steps in all instead of m * 2^m.
Every entry point takes a ``QueryContext`` first and varies one agent's row
against the other agents' ``ctx.bids``.  The search's body is in
``_search.py``, which only a search loads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .core import check_indices, parse_rational
from .engine import QueryContext, exact_utility

ZERO = Fraction(0)


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

    Under Like it answers (true row, 0) at once, after the agent, prefix and
    bid checks, whatever the budget: Like is strategyproof.  Agent i's
    utility is S * sum(u_ik / |B_k|) over the items k that i bids on, where
    B_k is k's positive bidders, i included, and S is the probability that
    the run is not void.  Like's draw for an item reads no bundle, so S does
    not depend on bids, and i's bid on k changes only k's term, which is 0
    when i does not bid on k and S * u_ik / |B_k| >= 0 when it does.  The
    true row bids on exactly the items with u_ik > 0, so no row beats it.

    The rows are the leaves of a trie over the agent's bits, taken in the
    order the arrival columns first need their items.  A node steps each
    moment whose items are all decided, so rows agreeing on those bits share
    its frontier (nothing is shared when the first column has full support),
    and the agent's true utility adds up along the path.  All nodes share
    one feasibility memo of at most ``budget`` entries, keyed on the item,
    the agent's bit on it and its bidders' packed sizes.
    """
    from ._search import best_response_search
    return best_response_search(ctx, agent)


def is_strategyproof_on_instance(ctx: QueryContext) -> bool:
    """True when no agent's best response beats sincere bidding."""
    from ._search import is_strategyproof_on_instance
    return is_strategyproof_on_instance(ctx)
