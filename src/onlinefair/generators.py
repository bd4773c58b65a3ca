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
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceeded,
    Distribution,
    FixedOrder,
    InputError,
    Instance,
    json_int,
    json_list,
    validate_instance,
)

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
    if left < 0 or right < 0:
        raise InputError("vertex counts must be non-negative")
    seen = set()
    for edge in edges:
        a, b = edge
        if not (0 <= a < left and 0 <= b < right):
            raise InputError(f"edge {edge!r} out of range")
        if (a, b) in seen:
            raise InputError(f"duplicate edge {edge!r}")
        seen.add((a, b))
    return BipartiteGraph(left, right, frozenset(seen))


def graph_to_json_dict(g: BipartiteGraph) -> dict:
    return {
        "left": g.left,
        "right": g.right,
        "edges": [[a + 1, b + 1] for a, b in sorted(g.edges)],
    }


def graph_from_json_dict(data: dict) -> BipartiteGraph:
    """Parse the graph format: JSON ints ``left`` and ``right``, and
    ``edges`` as [left vertex, right vertex] pairs of 1-based JSON ints."""
    if not isinstance(data, dict):
        raise InputError(f"a graph must be a JSON object, got {type(data).__name__}")
    try:
        left, right, raw = data["left"], data["right"], data["edges"]
    except KeyError as exc:
        raise InputError(f"missing graph field: {exc}") from exc
    edges = []
    for pair in json_list(raw, "edges"):
        if len(json_list(pair, "an edge")) != 2:
            raise InputError(f"edge {pair!r} must have two endpoints")
        edges.append(tuple(json_int(v, "an edge endpoint") - 1 for v in pair))
    return make_graph(json_int(left, "left"), json_int(right, "right"), edges)


# --- named graphs -------------------------------------------------------------


def complete_bipartite(left: int, right: int) -> BipartiteGraph:
    return make_graph(left, right,
                      [(a, b) for a in range(left) for b in range(right)])


def even_cycle(length: int) -> BipartiteGraph:
    """The cycle on ``length`` vertices (length even) as a bipartite graph:
    left vertex i is adjacent to right vertices i and i+1 (mod length/2)."""
    if length < 4 or length % 2:
        raise InputError("cycle length must be an even number >= 4")
    half = length // 2
    edges = [(i, i) for i in range(half)] + [(i, (i + 1) % half) for i in range(half)]
    return make_graph(half, half, edges)


def complete_minus_perfect_matching(n: int) -> BipartiteGraph:
    """K_{n,n} without the edges (i, i); 3-regular when n = 4."""
    return make_graph(n, n, [(a, b) for a in range(n) for b in range(n) if a != b])


def complete_minus_even_cycle(n: int) -> BipartiteGraph:
    """K_{n,n} without a spanning cycle's edges (i, i) and (i, i+1);
    3-regular when n = 5."""
    return make_graph(n, n, [(a, b) for a in range(n) for b in range(n)
                             if b not in (a, (a + 1) % n)])


# --- brute-force oracles -------------------------------------------------------


def count_perfect_matchings(g: BipartiteGraph,
                            budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Exact perfect-matching count via the permanent of the biadjacency
    matrix, computed by inclusion-exclusion over column subsets.  Raises
    BudgetExceeded when the 2^left subsets outnumber ``budget``."""
    if g.left != g.right:
        raise InputError(
            f"perfect matchings need equal sides, got {g.left} and {g.right}")
    n = g.left
    if n >= budget.bit_length():  # 2^n > budget
        raise BudgetExceeded(
            f"perfect-matching count needs 2^{n} column subsets (budget {budget})")
    row_masks = [0] * n
    for a, b in g.edges:
        row_masks[a] |= 1 << b
    total = 0
    for subset in range(1 << n):
        prod = 1
        for mask in row_masks:
            prod *= (mask & subset).bit_count()
            if not prod:
                break
        total += prod if (n - subset.bit_count()) % 2 == 0 else -prod
    return total


def min_maximal_matching_size(g: BipartiteGraph,
                              budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Minimum cardinality over all maximal matchings, by exhaustive search.

    A matching is maximal when every edge of the graph touches a matched
    vertex.  Desk-scale only: the search walks every matching once, and
    raises BudgetExceeded when it walks more than ``budget`` nodes.
    """
    edges = sorted(g.edges)
    if not edges:
        raise InputError("the graph has no edges")
    best = len(edges) + 1
    nodes = 0
    # depth first on an explicit stack, taking each edge before skipping it
    stack = [(0, 0, 0, 0)]
    while stack:
        idx, size, used_left, used_right = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"maximal-matching search over {len(edges)} edges walked "
                f"{nodes} nodes (budget {budget})")
        if size >= best:
            continue
        if idx == len(edges):
            for a, b in edges:
                if not (used_left >> a) & 1 and not (used_right >> b) & 1:
                    break
            else:
                best = size
            continue
        a, b = edges[idx]
        stack.append((idx + 1, size, used_left, used_right))
        if not (used_left >> a) & 1 and not (used_right >> b) & 1:
            stack.append((idx + 1, size + 1, used_left | 1 << a, used_right | 1 << b))
    return best


class SubsetInstance(NamedTuple):
    """An integer multiset with a target sum ``b`` and cardinality ``c``."""

    values: tuple[int, ...]
    b: int
    c: int


def make_subset_instance(values, b: int, c: int) -> SubsetInstance:
    vals = tuple(int(v) for v in values)
    if not 1 <= c <= len(vals):
        raise InputError(f"cardinality {c} outside 1..{len(vals)}")
    return SubsetInstance(vals, int(b), int(c))


def subset_sum_bc(s: SubsetInstance,
                  budget: int = DEFAULT_ENUMERATION_BUDGET) -> bool:
    """Does some cardinality-c subset of the values sum to b?  Decided by a
    reachable (cardinality, sum) table, which at most doubles per value;
    pairs of cardinality c are kept but never extended.  Raises
    BudgetExceeded once the table holds more than ``budget`` pairs."""
    reachable = {(0, 0)}
    for count, v in enumerate(s.values, 1):
        reachable |= {(k + 1, t + v) for k, t in reachable if k < s.c}
        if len(reachable) > budget:
            raise BudgetExceeded(
                f"subset-sum table reached {len(reachable)} (cardinality, sum) "
                f"pairs after {count} of {len(s.values)} values (budget {budget})")
    return (s.c, s.b) in reachable


# --- allocation-instance gadgets ----------------------------------------------


def _two_uniform_agents(row: tuple, allowed=None) -> Instance:
    """Two agents with the same utility ``row``, and arrival probability 1/M
    for item k at moment j wherever (k, j) is in ``allowed`` (everywhere when
    None)."""
    m = len(row)
    share = Fraction(1, m) if m else ZERO  # validation rejects m = 0
    matrix = tuple(tuple(share if allowed is None or (k, j) in allowed else ZERO
                         for j in range(m)) for k in range(m))
    return validate_instance(Instance(2, m, (row, row), Distribution(matrix)))


def _zero_one_in_order(liked: list, items: int) -> Instance:
    """Agent a values item k at 1 when k is in ``liked[a]`` and at 0
    otherwise; the items arrive in index order."""
    rows = tuple(tuple(ONE if k in s else ZERO for k in range(items))
                 for s in map(set, liked))
    return validate_instance(
        Instance(len(rows), items, rows, FixedOrder(tuple(range(items)))))


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
    if g.left != g.right:
        raise InputError(f"need equal sides, got {g.left} items and {g.right} moments")
    return _two_uniform_agents((ONE,) * g.left,
                               g.edges if edge_restricted else None)


def _matching_gadget(g: BipartiteGraph, decoy: bool) -> Instance:
    """The perfect-matching gadgets' shared layout, for N vertices per side.

    Items 0..N-1 mirror the right vertices; items N+2i and N+2i+1 form the
    pair owned by left vertex i.  Agent 3i+j is the j-th edge of left vertex
    i (neighbors sorted ascending) and likes its right-vertex item plus the
    vertex's pair.  The collector, agent 3N, likes the solo item 3N and, with
    ``decoy``, the decoy item 3N+1.  Every agent likes the common item, which
    arrives last.
    """
    if g.left != g.right or not g.is_regular(3):
        raise InputError("the graph must be 3-regular with equal sides")
    n = g.left
    items = 3 * n + 2 + decoy
    liked = [(v, n + 2 * i, n + 2 * i + 1, items - 1)
             for i in range(n) for v in g.left_neighbors(i)]
    return _zero_one_in_order(liked + [range(3 * n, items)], items)


def reduction2_instance(g: BipartiteGraph) -> Instance:
    """The fixed-order gadget whose exact outcome counts perfect matchings.

    3N+1 agents and 3N+2 items for a 3-regular graph with N vertices per
    side.  After the right-vertex items and the pair items, a solo item
    (liked only by the collector agent) and a common item (liked by all
    agents) arrive.  Under Balanced Like the collector's expected utility is
    1 plus the common item's probability, which is proportional to the
    perfect-matching count.
    """
    return _matching_gadget(g, decoy=False)


def reduction2_manip_instance(g: BipartiteGraph) -> Instance:
    """The manipulation variant: a decoy item, liked only by the collector,
    arrives between the solo item and the common item.

    Bidding sincerely the collector wins the solo and decoy items outright
    and ends with utility exactly 2; bidding zero on the decoy restores the
    plain gadget, where the utility is 1 plus a matching-count term.  The
    collector's exact gain from that deviation therefore encodes the count.
    """
    return _matching_gadget(g, decoy=True)


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
    if not g.is_subdivision_shaped():
        raise InputError(
            "need left degrees exactly 2, right degrees <= 3, left side at "
            "least as large as right, and distinct left neighborhoods")
    if not 1 <= r <= g.left:
        raise InputError(f"r must be within 1..{g.left}")
    roles = reduction3_roles(g, r)
    opener, bridge, closer = (roles["opener_items"], roles["bridge_items"],
                              roles["closer_items"])
    tokens, prize = roles["token_items"], roles["prize_item"]
    liked = [(opener[i], bridge[b], closer[i], *tokens)
             for i in range(g.left) for b in g.left_neighbors(i)]
    liked += [opener] * len(roles["filler_agents"])
    liked += [(prize,)] * len(roles["claimant_agents"])
    return _zero_one_in_order(liked + [tokens[-1:] + (prize,)], prize + 1)


def _blocks(*sizes) -> list:
    """Consecutive index ranges of the given sizes, starting at 0."""
    ends = itertools.accumulate(sizes)
    return [tuple(range(end - size, end)) for size, end in zip(sizes, ends)]


def reduction3_roles(g: BipartiteGraph, r: int) -> dict:
    """Index map for the gadget's named agents and items (0-based)."""
    n, m, tokens = g.left, g.right, g.left - r
    vertex, filler, claimant, (challenger,) = _blocks(2 * n, tokens, m, 1)
    opener, bridge, closer, token, (prize,) = _blocks(n, m, n, tokens, 1)
    return {
        "vertex_agents": vertex,
        "filler_agents": filler,
        "claimant_agents": claimant,
        "challenger": challenger,
        "opener_items": opener,
        "bridge_items": bridge,
        "closer_items": closer,
        "token_items": token,
        "prize_item": prize,
    }


def reduction_subset_instance(s: SubsetInstance) -> tuple[Instance, Fraction]:
    """Two agents valuing item k at the k-th integer, uniform arrivals, and
    the threshold that a qualifying subset's existence pushes the expected
    utility past.

    Returns (instance, threshold) with threshold = (1/M^c)(b/2) for M values.
    """
    instance = _two_uniform_agents(tuple(Fraction(v) for v in s.values))
    return instance, Fraction(s.b, 2 * len(s.values) ** s.c)


def random_instance(n: int, m: int, seed: int, *, arrival: str = "order",
                    values: str = "binary") -> Instance:
    """A reproducible random instance, for smoke tests and CLI demos.

    ``values``: "binary" for 0/1 utilities (at least one positive bid per
    agent), "rational" for small random fractions.  ``arrival``: "order" for
    a shuffled fixed ordering, "distribution" for a random column-stochastic
    arrival matrix with denominator 12 entries.
    """
    import random as _random

    if n < 1 or m < 1:
        raise InputError("need at least one agent and one item")
    rng = _random.Random(seed)
    rows = []
    for _ in range(n):
        if values == "binary":
            row = [Fraction(rng.randint(0, 1)) for _ in range(m)]
            if not any(row):
                row[rng.randrange(m)] = ONE
        elif values == "rational":
            row = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(m)]
        else:
            raise InputError(f"unknown values kind {values!r}")
        rows.append(tuple(row))
    if arrival == "order":
        order = list(range(m))
        rng.shuffle(order)
        model = FixedOrder(tuple(order))
    elif arrival == "distribution":
        columns = []
        for _ in range(m):
            weights = [rng.randint(0, 3) for _ in range(m)]
            total = sum(weights) or 1
            scale = rng.choice([Fraction(1), Fraction(3, 4), Fraction(1, 2)])
            columns.append([Fraction(w, total) * scale for w in weights])
        matrix = tuple(tuple(columns[j][k] for j in range(m)) for k in range(m))
        model = Distribution(matrix)
    else:
        raise InputError(f"unknown arrival kind {arrival!r}")
    return validate_instance(Instance(n, m, tuple(rows), model))

