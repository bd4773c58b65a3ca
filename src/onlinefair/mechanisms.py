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
    frontier state and arriving item.  Returns a tuple sorted by agent index.
    """
    if not positive_bidders:
        return ()
    if mechanism is Mechanism.LIKE:
        return tuple(positive_bidders)
    fewest = min(counts[i] for i in positive_bidders)
    return tuple(i for i in positive_bidders if counts[i] == fewest)
