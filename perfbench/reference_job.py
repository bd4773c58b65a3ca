"""The reference job: a miniature query that does not touch the program.

``run.py`` times one run of this script before every query, as a measure of
the host's current speed.  Like a query, it is a fresh interpreter that
imports what the ``onlinefair`` CLI imports from the standard library and
then steps tuple-keyed frontiers of Fractions, as the engine enumerates
owner vectors.  Its work is fixed: change it and ``REFERENCE_S`` in
``run.py`` must be measured again.
"""

import argparse  # noqa: F401  imported for its start-up cost, as the CLI does
import dataclasses  # noqa: F401
import enum  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import random  # noqa: F401
import re  # noqa: F401
import typing  # noqa: F401
from fractions import Fraction

ROUNDS = 10
EXPECTED_STATES = 648


def frontier_states() -> int:
    """Step a three-agent frontier through ten items; items 1, 4, 7 and 10 go
    to any agent, the others only to the agents holding the fewest."""
    frontier = {(): Fraction(1)}
    for item in range(10):
        step = {}
        for owners, prob in frontier.items():
            counts = [owners.count(agent) for agent in range(3)]
            fewest = min(counts)
            feasible = ([a for a in range(3) if counts[a] == fewest]
                        if item % 3 else range(3))
            share = prob / len(feasible)
            for agent in feasible:
                key = owners + (agent,)
                step[key] = step.get(key, 0) + share
        frontier = step
    assert sum(frontier.values()) == 1
    return len(frontier)


if __name__ == "__main__":
    for _ in range(ROUNDS):
        states = frontier_states()
    assert states == EXPECTED_STATES, states
