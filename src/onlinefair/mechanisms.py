"""Single-item step semantics for the Like and Balanced Like mechanisms.

Like gives an arriving item to one of its positive bidders, chosen uniformly
at random.  Balanced Like restricts the draw to the positive bidders who
currently hold the fewest items.  Both are positivity-threshold rules: only
whether a bid is positive matters, never its magnitude.
"""

from __future__ import annotations

from enum import Enum

from .core import InputError


class Mechanism(Enum):
    LIKE = "like"
    BALANCED_LIKE = "balanced-like"

    @classmethod
    def from_string(cls, name: str) -> "Mechanism":
        normalized = name.strip().lower().replace("_", "-")
        for mech in cls:
            if mech.value == normalized:
                return mech
        raise InputError(f"unknown mechanism {name!r}")


def feasible_for_counts(mechanism: Mechanism, counts, positive_bidders):
    """Feasible agents given only bundle sizes and the item's positive bidders.

    The uniform draw is over these agents.  The engine calls this on a miss
    of a memo keyed as in ``packed_sizes``, and under Like, which reads no
    size, it passes no sizes.  ``positive_bidders`` must be a tuple
    sorted by agent index: when nothing is filtered out (Like, or fewer than
    two bidders) that very tuple is returned, and otherwise a new tuple, so
    the result can always serve as a dict key.
    """
    if mechanism is Mechanism.LIKE or len(positive_bidders) < 2:
        return positive_bidders
    fewest = min(map(counts.__getitem__, positive_bidders))
    return tuple([i for i in positive_bidders if counts[i] == fewest])


def packed_sizes(mechanism: Mechanism, n: int, m: int, positive_bidders):
    """The one layout record ``engine._step`` reads: it packs the n bundle
    sizes into one int and keys each entry's feasibility memo on it.

    Returns ``(mechanism, base, units, entries, owners)``.  Under Balanced
    Like agent i's size takes ``m.bit_length()`` bits from ``units[i]`` up,
    room for any size up to m: winning an item adds ``units[i]``, and the
    size reads back as ``packed // units[i] % base``.  Like keeps no sizes,
    so its units are 0 and the packed value stays 0.  ``positive_bidders``
    holds one bidder tuple per entry: one per item, or more when an item has
    several bidder sets (best-response search gives item k's bid-1 variant
    the entry k + m).  Each entry is one record ``(bidders, field, tag)``.
    An item's feasible set depends only on its positive bidders' sizes, so
    ``packed & field | tag`` keeps just those fields and tags them with the
    entry's index above every field: equal keys have equal feasible sets.
    An entry whose feasible set reads no size, under Like or with fewer than
    two bidders, gets field 0 and so keys on its tag alone.  ``owners``
    holds each agent's bundle-field unit, all 0 here: the kernel and the
    search keep no bundles, and ``states_after`` swaps in its own.
    """
    base = 1 << m.bit_length()
    sized = mechanism is Mechanism.BALANCED_LIKE
    units = [base ** i * sized for i in range(n)]
    entries = [(bidders,
                sum(units[i] for i in bidders) * (base - 1) if len(bidders) > 1 else 0,
                entry * base ** n) for entry, bidders in enumerate(positive_bidders)]
    return mechanism, base, units, entries, [0] * n
