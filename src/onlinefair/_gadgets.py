"""The bodies of the gadget builders, graph constructors, JSON reader and
writer, oracles and ``random_instance`` whose stubs, signatures and
docstrings are in ``generators.py``, with their private helpers.  Only a
call of one of those functions loads this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import (
    BudgetExceeded,
    Distribution,
    FixedOrder,
    InputError,
    Instance,
    json_int,
    json_list,
    validate_instance,
)
from .generators import ONE, ZERO, BipartiteGraph, SubsetInstance


def make_graph(left, right, edges, first=0):
    # vertices count from ``first``, and an error names an edge as given
    if left < 0 or right < 0:
        raise InputError("vertex counts must be non-negative")
    seen = set()
    for edge in edges:
        a, b = (v - first for v in edge)
        if not (0 <= a < left and 0 <= b < right):
            raise InputError(f"edge {edge!r} out of range")
        if (a, b) in seen:
            raise InputError(f"duplicate edge {edge!r}")
        seen.add((a, b))
    return BipartiteGraph(left, right, frozenset(seen))


def graph_to_json_dict(g):
    return {
        "left": g.left,
        "right": g.right,
        "edges": [[a + 1, b + 1] for a, b in sorted(g.edges)],
    }


def graph_from_json_dict(data):
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
        edges.append([json_int(v, "an edge endpoint") for v in pair])
    return make_graph(json_int(left, "left"), json_int(right, "right"), edges, first=1)


# --- named graphs -------------------------------------------------------------


def complete_bipartite(left, right):
    return make_graph(left, right,
                      [(a, b) for a in range(left) for b in range(right)])


def even_cycle(length):
    if length < 4 or length % 2:
        raise InputError("cycle length must be an even number >= 4")
    half = length // 2
    edges = [(i, i) for i in range(half)] + [(i, (i + 1) % half) for i in range(half)]
    return make_graph(half, half, edges)


def complete_minus_perfect_matching(n):
    return make_graph(n, n, [(a, b) for a in range(n) for b in range(n) if a != b])


def complete_minus_even_cycle(n):
    return make_graph(n, n, [(a, b) for a in range(n) for b in range(n)
                             if b not in (a, (a + 1) % n)])


# --- brute-force oracles -------------------------------------------------------


def count_perfect_matchings(g, budget):
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


def min_maximal_matching_size(g, budget):
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


def make_subset_instance(values, b, c):
    vals = tuple(int(v) for v in values)
    if not 1 <= c <= len(vals):
        raise InputError(f"cardinality {c} outside 1..{len(vals)}")
    return SubsetInstance(vals, int(b), int(c))


def subset_sum_bc(s, budget):
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


def reduction1_instance(g, edge_restricted):
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


def reduction2_instance(g):
    return _matching_gadget(g, decoy=False)


def reduction2_manip_instance(g):
    return _matching_gadget(g, decoy=True)


def reduction3_instance(g, r):
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


def reduction3_roles(g, r):
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


def reduction_subset_instance(s):
    instance = _two_uniform_agents(tuple(Fraction(v) for v in s.values))
    return instance, Fraction(s.b, 2 * len(s.values) ** s.c)


def random_instance(n, m, seed, arrival, values):
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
