"""Instance generators whose exact outcomes encode graph and set problems.

Each generator builds an allocation instance from a combinatorial object (a
bipartite graph or an integer multiset) so that an exact-outcome query on the
instance answers a question about the object: counting perfect matchings,
bounding the minimum maximal matching, or deciding subset-sum with a
cardinality constraint.  The module also ships independent brute-force
oracles for those questions, so generated instances can be validated against
ground truth that shares no code with the allocation engine.

All generators return instances that pass ``validate_instance``, use 0-based
internal indices, and arrive in identity order (item k is the k-th arrival)
unless the arrival model is a distribution.

Each function here is a stub with the public signature and docstring; its
body is in ``_gadgets.py``, which the first call of any of them loads, so
a call that builds no gadget does not compile it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import DEFAULT_ENUMERATION_BUDGET, Instance

ZERO = Fraction(0)
ONE = Fraction(1)


class BipartiteGraph(NamedTuple):
    """A bipartite graph on ``left`` + ``right`` vertices, 0-based.

    Edges are (left index, right index) pairs.  The external JSON format is
    {"left": L, "right": R, "edges": [[i, j], ...]} with 1-based indices.
    """

    left: int
    right: int
    edges: frozenset

    def left_degrees(self) -> list[int]:
        degrees = [0] * self.left
        for a, _b in self.edges:
            degrees[a] += 1
        return degrees

    def right_degrees(self) -> list[int]:
        degrees = [0] * self.right
        for _a, b in self.edges:
            degrees[b] += 1
        return degrees

    def left_neighbors(self, a: int) -> tuple[int, ...]:
        return tuple(sorted(b for x, b in self.edges if x == a))

    def is_regular(self, k: int) -> bool:
        return (all(d == k for d in self.left_degrees())
                and all(d == k for d in self.right_degrees()))

    def is_subdivision_shaped(self) -> bool:
        """Left degrees exactly 2, right degrees at most 3, at least as many
        left as right vertices, and no two left vertices with identical
        neighborhoods."""
        if self.left < self.right:
            return False
        if any(d != 2 for d in self.left_degrees()):
            return False
        if any(d > 3 for d in self.right_degrees()):
            return False
        seen = set()
        for a in range(self.left):
            pair = self.left_neighbors(a)
            if pair in seen:
                return False
            seen.add(pair)
        return True


def make_graph(left: int, right: int, edges) -> BipartiteGraph:
    from ._gadgets import make_graph
    return make_graph(left, right, edges)


def graph_to_json_dict(g: BipartiteGraph) -> dict:
    from ._gadgets import graph_to_json_dict
    return graph_to_json_dict(g)


def graph_from_json_dict(data: dict) -> BipartiteGraph:
    """Parse the graph format: JSON ints ``left`` and ``right``, and
    ``edges`` as [left vertex, right vertex] pairs of 1-based JSON ints.
    An edge out of range or listed twice is named as the file writes it."""
    from ._gadgets import graph_from_json_dict
    return graph_from_json_dict(data)


# --- named graphs -------------------------------------------------------------


def complete_bipartite(left: int, right: int) -> BipartiteGraph:
    from ._gadgets import complete_bipartite
    return complete_bipartite(left, right)


def even_cycle(length: int) -> BipartiteGraph:
    """The cycle on ``length`` vertices (length even) as a bipartite graph:
    left vertex i is adjacent to right vertices i and i+1 (mod length/2)."""
    from ._gadgets import even_cycle
    return even_cycle(length)


def complete_minus_perfect_matching(n: int) -> BipartiteGraph:
    """K_{n,n} without the edges (i, i); 3-regular when n = 4."""
    from ._gadgets import complete_minus_perfect_matching
    return complete_minus_perfect_matching(n)


def complete_minus_even_cycle(n: int) -> BipartiteGraph:
    """K_{n,n} without a spanning cycle's edges (i, i) and (i, i+1);
    3-regular when n = 5."""
    from ._gadgets import complete_minus_even_cycle
    return complete_minus_even_cycle(n)


# --- brute-force oracles -------------------------------------------------------


def count_perfect_matchings(g: BipartiteGraph,
                            budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Exact perfect-matching count via the permanent of the biadjacency
    matrix, computed by inclusion-exclusion over column subsets.  Raises
    BudgetExceeded when the 2^left subsets outnumber ``budget``."""
    from ._gadgets import count_perfect_matchings
    return count_perfect_matchings(g, budget)


def min_maximal_matching_size(g: BipartiteGraph,
                              budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Minimum cardinality over all maximal matchings, by exhaustive search.

    A matching is maximal when every edge of the graph touches a matched
    vertex.  Desk-scale only: the search walks every matching once, and
    raises BudgetExceeded when it walks more than ``budget`` nodes.
    """
    from ._gadgets import min_maximal_matching_size
    return min_maximal_matching_size(g, budget)


class SubsetInstance(NamedTuple):
    """An integer multiset with a target sum ``b`` and cardinality ``c``."""

    values: tuple[int, ...]
    b: int
    c: int


def make_subset_instance(values, b: int, c: int) -> SubsetInstance:
    from ._gadgets import make_subset_instance
    return make_subset_instance(values, b, c)


def subset_sum_bc(s: SubsetInstance,
                  budget: int = DEFAULT_ENUMERATION_BUDGET) -> bool:
    """Does some cardinality-c subset of the values sum to b?  Decided by a
    reachable (cardinality, sum) table, which at most doubles per value;
    pairs of cardinality c are kept but never extended.  Raises
    BudgetExceeded once the table holds more than ``budget`` pairs."""
    from ._gadgets import subset_sum_bc
    return subset_sum_bc(s, budget)


# --- allocation-instance gadgets ----------------------------------------------


def reduction1_instance(g: BipartiteGraph, edge_restricted: bool = True) -> Instance:
    """Two agents with all-ones utilities whose stochastic outcome counts the
    graph's perfect matchings.

    Left vertices are read as items, right vertices as moments; with
    ``edge_restricted`` the arrival probability of item k at moment j is 1/M
    on edges and 0 elsewhere, so the non-void arrival sequences are exactly
    the perfect matchings and each agent's expected utility is
    (1/M^M)(M/2) times the matching count.  The unrestricted variant puts
    1/M everywhere instead.
    """
    from ._gadgets import reduction1_instance
    return reduction1_instance(g, edge_restricted)


def reduction2_instance(g: BipartiteGraph) -> Instance:
    """The fixed-order gadget whose exact outcome counts perfect matchings.

    3N+1 agents and 3N+2 items for a 3-regular graph with N vertices per
    side.  After the right-vertex items and the pair items, a solo item
    (liked only by the collector agent) and a common item (liked by all
    agents) arrive.  Under Balanced Like the collector's expected utility is
    1 plus the common item's probability, which is proportional to the
    perfect-matching count.
    """
    from ._gadgets import reduction2_instance
    return reduction2_instance(g)


def reduction2_manip_instance(g: BipartiteGraph) -> Instance:
    """The manipulation variant: a decoy item, liked only by the collector,
    arrives between the solo item and the common item.

    Bidding sincerely the collector wins the solo and decoy items outright
    and ends with utility exactly 2; bidding zero on the decoy restores the
    plain gadget, where the utility is 1 plus a matching-count term.  The
    collector's exact gain from that deviation therefore encodes the count.
    """
    from ._gadgets import reduction2_manip_instance
    return reduction2_manip_instance(g)


def reduction3_instance(g: BipartiteGraph, r: int) -> Instance:
    """The fixed-order gadget linking a prize item's reachability to the
    graph's minimum maximal matching size.

    The graph must be subdivision shaped (left degrees exactly 2, right
    degrees at most 3, left side at least as large, no duplicated left
    neighborhoods).  The instance has 3N+M-r+1 agents and items, laid out
    by ``reduction3_roles``:

    * two vertex agents per left vertex, each liking the vertex's opener
      item, one bridge item per incident right vertex, the vertex's closer
      item, and every token item;
    * N-r filler agents liking all opener items;
    * M claimant agents liking only the final prize item;
    * one challenger liking the last token item and the prize item.

    Items arrive openers first, then bridges, closers, tokens, and the prize
    last.  The challenger can win the prize exactly when the graph has a
    maximal matching of size at most r, and each claimant's expected utility
    reaches 1/M exactly when the challenger cannot.
    """
    from ._gadgets import reduction3_instance
    return reduction3_instance(g, r)


def reduction3_roles(g: BipartiteGraph, r: int) -> dict:
    """Index map for the gadget's named agents and items (0-based)."""
    from ._gadgets import reduction3_roles
    return reduction3_roles(g, r)


def reduction_subset_instance(s: SubsetInstance) -> tuple[Instance, Fraction]:
    """Two agents valuing item k at the k-th integer, uniform arrivals, and
    the threshold that a qualifying subset's existence pushes the expected
    utility past.

    Returns (instance, threshold) with threshold = (1/M^c)(b/2) for M values.
    """
    from ._gadgets import reduction_subset_instance
    return reduction_subset_instance(s)


def random_instance(n: int, m: int, seed: int, *, arrival: str = "order",
                    values: str = "binary") -> Instance:
    """A reproducible random instance, for smoke tests and CLI demos.

    ``values``: "binary" for 0/1 utilities (at least one positive bid per
    agent), "rational" for small random fractions.  ``arrival``: "order" for
    a shuffled fixed ordering, "distribution" for a random column-stochastic
    arrival matrix with denominator 12 entries.
    """
    from ._gadgets import random_instance
    return random_instance(n, m, seed, arrival=arrival, values=values)
