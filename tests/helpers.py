"""Shared test utilities: independent oracles and instance builders.

Everything here deliberately avoids the library's engine internals.  The
outcome oracles walk the allocation tree sequence by sequence with no state
merging, the graph oracles enumerate permutations or edge subsets, and the
graphs themselves are written out as explicit edge lists.  Agreement between
these and the package is what the equivalence tests certify.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from onlinefair import (
    BipartiteGraph,
    Distribution,
    FixedOrder,
    Instance,
    Mechanism,
    make_graph,
)

F = Fraction


def feasible_likers(mechanism, counts, likers):
    if not likers:
        return []
    if mechanism is Mechanism.LIKE:
        return list(likers)
    lowest = min(counts[i] for i in likers)
    return [i for i in likers if counts[i] == lowest]


def naive_fixed_order_outcome(instance, mechanism, bids=None):
    """Expected utilities and allocation probabilities by plain recursion
    over the full allocation tree, one leaf at a time, no merging."""
    n, m = instance.n, instance.m
    rows = instance.utilities if bids is None else bids
    alloc = [[F(0)] * m for _ in range(n)]

    def walk(idx, counts, owners, prob):
        if idx == m:
            for item, owner in enumerate(owners):
                if owner >= 0:
                    alloc[owner][item] += prob
            return
        item = instance.arrival.order[idx]
        likers = [i for i in range(n) if rows[i][item] > 0]
        chosen = feasible_likers(mechanism, counts, likers)
        if not chosen:
            walk(idx + 1, counts, owners, prob)
            return
        share = prob / len(chosen)
        for i in chosen:
            counts2 = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
            walk(idx + 1, counts2, owners[:item] + (i,) + owners[item + 1:], share)

    walk(0, (0,) * n, (-1,) * m, F(1))
    utility = [sum((alloc[i][k] * instance.utilities[i][k] for k in range(m)), F(0))
               for i in range(n)]
    return utility, alloc


def naive_distribution_outcome(instance, mechanism, bids=None):
    """Sequence-by-sequence oracle for stochastic arrivals.

    Every full-length repeat-free draw is expanded into its own fixed-order
    tree; incomplete draws (a repeat or a no-arrival residual) contribute
    nothing, matching the voided-run reading.
    """
    n, m = instance.n, instance.m
    rows = instance.utilities if bids is None else bids
    matrix = instance.arrival.matrix
    alloc = [[F(0)] * m for _ in range(n)]

    def mechanism_walk(seq, idx, counts, owners, prob):
        if idx == len(seq):
            for item, owner in enumerate(owners):
                if owner >= 0:
                    alloc[owner][item] += prob
            return
        item = seq[idx]
        likers = [i for i in range(n) if rows[i][item] > 0]
        chosen = feasible_likers(mechanism, counts, likers)
        if not chosen:
            mechanism_walk(seq, idx + 1, counts, owners, prob)
            return
        share = prob / len(chosen)
        for i in chosen:
            counts2 = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
            mechanism_walk(seq, idx + 1, counts2,
                           owners[:item] + (i,) + owners[item + 1:], share)

    def draws(j, seq, prob):
        if j == m:
            mechanism_walk(seq, 0, (0,) * n, (-1,) * m, prob)
            return
        for k in range(m):
            p = matrix[k][j]
            if p > 0 and k not in seq:
                draws(j + 1, seq + (k,), prob * p)

    draws(0, (), F(1))
    utility = [sum((alloc[i][k] * instance.utilities[i][k] for k in range(m)), F(0))
               for i in range(n)]
    return utility, alloc


def naive_online_possible_items(instance, mechanism, arrived, bundles, bids=None):
    """The (agent, item) pairs possible one moment after a known prefix, by
    enumerating the next arrival column: every held pair, plus each feasible
    positive bidder of a fresh item that can arrive next."""
    n, m = instance.n, instance.m
    rows = instance.utilities if bids is None else bids
    pairs = {(i, k) for i, bundle in enumerate(bundles) for k in bundle}
    j = len(arrived)
    if j == m:
        return pairs
    if isinstance(instance.arrival, FixedOrder):
        column = [instance.arrival.order[j]]
    else:
        column = [k for k in range(m) if instance.arrival.matrix[k][j] > 0]
    counts = [len(bundle) for bundle in bundles]
    for item in column:
        if item not in arrived:
            likers = [i for i in range(n) if rows[i][item] > 0]
            pairs.update((i, item) for i in feasible_likers(mechanism, counts, likers))
    return pairs


def exact_variance(instance, mechanism, ctx_states, aborted=None):
    """Per-agent exact utility variances from a list of terminal states.

    ``aborted`` mass, if given, is a point mass at zero utility.
    """
    n = instance.n
    means = [F(0)] * n
    for state in ctx_states:
        for i in range(n):
            means[i] += state.probability * state.utility_of(i, instance.utilities)
    variances = []
    for i in range(n):
        var = F(0)
        for state in ctx_states:
            diff = state.utility_of(i, instance.utilities) - means[i]
            var += state.probability * diff * diff
        if aborted:
            var += aborted * means[i] * means[i]
        variances.append(var)
    return means, variances


# --- independent graph constructions and oracles --------------------------------


def square_cycle():
    # C_4: l1-r1-l2-r2-l1
    return make_graph(2, 2, [(0, 0), (1, 0), (1, 1), (0, 1)])


def hexagon_cycle():
    # C_6: l1-r1-l2-r2-l3-r3-l1
    return make_graph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])


def full_3x3():
    return make_graph(3, 3, [(a, b) for a in range(3) for b in range(3)])


def cube_graph():
    # vertices of the 3-cube, split by parity; equivalently K_{4,4} minus a
    # perfect matching
    return make_graph(4, 4, [(a, b) for a in range(4) for b in range(4) if a != b])


def pentagon_complement():
    # K_{5,5} minus a spanning 10-cycle
    return make_graph(5, 5, [(a, b) for a in range(5) for b in range(5)
                             if b not in (a, (a + 1) % 5)])


def count_matchings_by_permutations(g: BipartiteGraph) -> int:
    assert g.left == g.right
    total = 0
    for perm in itertools.permutations(range(g.right)):
        if all((a, b) in g.edges for a, b in enumerate(perm)):
            total += 1
    return total


def min_maximal_by_subsets(g: BipartiteGraph) -> int:
    """Minimum maximal matching size by filtering every edge subset."""
    edges = sorted(g.edges)
    best = None
    for bits in range(1 << len(edges)):
        subset = [edges[i] for i in range(len(edges)) if (bits >> i) & 1]
        lefts = [a for a, _ in subset]
        rights = [b for _, b in subset]
        if len(set(lefts)) != len(subset) or len(set(rights)) != len(subset):
            continue
        maximal = all(a in lefts or b in rights for a, b in edges)
        if maximal and (best is None or len(subset) < best):
            best = len(subset)
    return best


def subset_sum_by_combinations(values, b, c) -> bool:
    return any(sum(combo) == b for combo in itertools.combinations(values, c))


# --- random instances ------------------------------------------------------------


def random_fixed_instance(rng, n, m, rational=False):
    rows = []
    for _ in range(n):
        if rational:
            row = tuple(F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(m))
        else:
            row = tuple(F(rng.randint(0, 1)) for _ in range(m))
        rows.append(row)
    order = list(range(m))
    rng.shuffle(order)
    return Instance(n, m, tuple(rows), FixedOrder(tuple(order)))


def random_distribution_instance(rng, n, m, rational=False):
    rows = []
    for _ in range(n):
        if rational:
            row = tuple(F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(m))
        else:
            row = tuple(F(rng.randint(0, 1)) for _ in range(m))
        rows.append(row)
    columns = []
    for _ in range(m):
        weights = [rng.randint(0, 2) for _ in range(m)]
        total = sum(weights) or 1
        scale = rng.choice([F(1), F(1, 2), F(2, 3)])
        columns.append([F(w, total) * scale for w in weights])
    matrix = tuple(tuple(columns[j][k] for j in range(m)) for k in range(m))
    return Instance(n, m, tuple(rows), Distribution(matrix))


def naive_best_response(instance, mechanism, agent):
    """Best 0/1 bid row for ``agent``, pricing the sincere row and then every
    row in ``itertools.product`` order from scratch with the naive outcome
    oracles.  Only a strictly better row replaces the one held, so ties go to
    the sincere row, then to the lexicographically smallest row.  Returns
    (row, gain over sincere)."""
    outcome = (naive_fixed_order_outcome if isinstance(instance.arrival, FixedOrder)
               else naive_distribution_outcome)

    def value(row):
        bids = list(instance.utilities)
        bids[agent] = row
        return outcome(instance, mechanism, bids)[0][agent]

    best_row = instance.utilities[agent]
    best_value = sincere_value = value(best_row)
    for row in itertools.product((F(0), F(1)), repeat=instance.m):
        row_value = value(row)
        if row_value > best_value:
            best_row, best_value = row, row_value
    return best_row, best_value - sincere_value
