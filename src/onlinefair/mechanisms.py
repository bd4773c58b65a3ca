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

    The uniform draw is over these agents; the engine calls this once per
    frontier state and arriving item.  ``positive_bidders`` must be a tuple
    sorted by agent index: when nothing is filtered out (Like, or fewer than
    two bidders) that very tuple is returned, and otherwise a new tuple, so
    the result can always serve as a dict key.
    """
    if mechanism is Mechanism.LIKE or len(positive_bidders) < 2:
        return positive_bidders
    fewest = min(map(counts.__getitem__, positive_bidders))
    return tuple([i for i in positive_bidders if counts[i] == fewest])


def packed_sizes(mechanism: Mechanism, n: int, m: int, positive_bidders):
    """A layout that packs the n bundle sizes into one int, and memo keys on it.

    Agent i's size takes ``m.bit_length()`` bits from ``units[i]`` up, room
    for any size up to m: winning an item adds ``units[i]``, and the size
    reads back as ``packed // units[i] % base``.  An item's feasible set
    depends only on its positive bidders' sizes, and under Like on none, so
    ``packed & masks[item] | tags[item]`` keeps just those fields and tags
    them with the item above every field: equal keys have equal feasible
    sets.  ``positive_bidders`` holds one bidder tuple per item.  Returns
    ``(base, units, masks, tags)``.
    """
    base = 1 << m.bit_length()
    units = [base ** i for i in range(n)]
    masks = [0 if mechanism is Mechanism.LIKE else
             sum(units[i] for i in bidders) * (base - 1) for bidders in positive_bidders]
    return base, units, masks, [item * base ** n for item in range(m)]
