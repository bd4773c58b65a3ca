"""Shared test utilities: independent oracles and instance builders.

Everything here deliberately avoids the library's engine internals.  The
outcome oracles walk the allocation tree sequence by sequence with no state
merging, the graph oracles enumerate permutations or edge subsets, and the
graphs themselves are written out as explicit edge lists.  Agreement between
these and the package is what the equivalence tests certify.
"""

from __future__ import annotations

import itertools
import math
import random
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

#: The ends of the two messages ``epsilon_bound`` raises when an agent has no
#: positive branch: the agent bids positively on nothing, or nothing arrives.
NO_POSITIVE_BRANCH = ("bids positively on nothing",
                      "no item ever arrives under this distribution")


def feasible_likers(mechanism, counts, likers):
    if not likers:
        return []
    if mechanism is Mechanism.LIKE:
        return list(likers)
    lowest = min(counts[i] for i in likers)
    return [i for i in likers if counts[i] == lowest]


def naive_fixed_order_outcome(instance, mechanism, bids=None, keys=None):
    """Expected utilities and allocation probabilities by plain recursion
    over the full allocation tree, one leaf at a time, no merging.

    ``keys``, when a set, collects every node's (item, bundle sizes of the
    item's positive bidders): the distinct keys a feasibility memo needs."""
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
        if keys is not None:
            keys.add((item, tuple(counts[i] for i in likers)))
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


def naive_next_moment(instance, mechanism, arrived, bundles, bids=None):
    """{(agent, item): probability} that the agent wins the item at the
    moment after a known prefix, by enumerating the next arrival column:
    each fresh item that can arrive next is split evenly over its feasible
    positive bidders, and an already-arrived item voids the run."""
    n, m = instance.n, instance.m
    rows = instance.utilities if bids is None else bids
    j = len(arrived)
    if j == m:
        return {}
    if isinstance(instance.arrival, FixedOrder):
        column = {instance.arrival.order[j]: F(1)}
    else:
        column = {k: instance.arrival.matrix[k][j] for k in range(m)
                  if instance.arrival.matrix[k][j] > 0}
    counts = [len(bundle) for bundle in bundles]
    wins = {}
    for item, p in column.items():
        if item not in arrived:
            likers = [i for i in range(n) if rows[i][item] > 0]
            chosen = feasible_likers(mechanism, counts, likers)
            wins.update(((i, item), p / len(chosen)) for i in chosen)
    return wins


def naive_states_after(instance, mechanism, moments, bids=None, prefix=None):
    """The owner-level states ``moments`` arrivals on, by walking every
    arrival draw and every uniform winner in ``Fraction``s, one path at a
    time, merging only at the leaves.

    Starts from the empty allocation, or from ``prefix`` = (arrived items,
    bundles), whose probability is not multiplied in.  Returns
    ({(arrived frozenset, tuple of bundle frozensets): probability}, void
    mass), where a draw that repeats an arrived item or lands on a column's
    no-arrival residual is void."""
    n, m = instance.n, instance.m
    rows = instance.utilities if bids is None else bids
    if isinstance(instance.arrival, FixedOrder):
        columns = [{k: F(1)} for k in instance.arrival.order]
    else:
        matrix = instance.arrival.matrix
        columns = [{k: matrix[k][j] for k in range(m) if matrix[k][j] > 0}
                   for j in range(m)]
    arrived, bundles = prefix if prefix is not None else ((), [()] * n)
    states = {}
    void = F(0)

    def walk(j, seen, held, prob):
        nonlocal void
        if j == len(arrived) + moments:
            key = (frozenset(seen), tuple(held))
            states[key] = states.get(key, F(0)) + prob
            return
        column = columns[j]
        void += prob * (1 - sum(column.values(), F(0)))
        for item, p in column.items():
            if item in seen:
                void += prob * p
                continue
            likers = [i for i in range(n) if rows[i][item] > 0]
            chosen = feasible_likers(mechanism, [len(b) for b in held], likers)
            if not chosen:
                walk(j + 1, seen | {item}, held, prob * p)
            for i in chosen:
                walk(j + 1, seen | {item},
                     held[:i] + (held[i] | {item},) + held[i + 1:],
                     prob * p / len(chosen))

    walk(len(arrived), frozenset(arrived), tuple(map(frozenset, bundles)), F(1))
    return states, void


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


def naive_monte_carlo(instance, mechanism, samples, seed, prefix=None, keys=None):
    """The seeded Monte Carlo sampler written plainly: (estimates, standard
    errors, voided runs).  ``prefix`` is (arrived items, bundles) for the
    online estimate.

    Each uncertain moment is drawn by a linear scan over its column's float
    arrival probabilities, the winner with ``rng.randrange``, and each run's
    gains and squared gains are added agent by agent as ``Fraction``s.  A
    certain moment whose item is not yet fixed takes no draw.  A standard
    error is the sample standard deviation of the per-run utilities over
    sqrt(samples), with the variance taken from the mean square.  Both are
    exact until each is rounded once: the estimate to a float, the variance
    to a float before its square root.  The engine's sampler must consume
    the generator the same way and return the same floats.

    ``keys``, when a set, collects every placement's (item, bundle sizes of
    the item's positive bidders), all that its Balanced Like feasible set
    depends on.
    """
    n, m = instance.n, instance.m
    if isinstance(instance.arrival, FixedOrder):
        columns = [[(k, F(1))] for k in instance.arrival.order]
    else:
        matrix = instance.arrival.matrix
        columns = [[(k, matrix[k][j]) for k in range(m) if matrix[k][j] > 0]
                   for j in range(m)]
    if prefix is None:
        arrived, counts0 = (), [0] * n
        held = [F(0)] * n
        credit = instance.utilities
    else:
        arrived, bundles = prefix
        counts0 = [len(bundle) for bundle in bundles]
        columns = columns[len(arrived):len(arrived) + 1]
        held = [sum((instance.utilities[i][k] for k in bundle), F(0))
                for i, bundle in enumerate(bundles)]
        credit = [[F(1)] * m for _ in range(n)]
    fixed = set(arrived)
    sequence = [-1] * len(columns)
    draws = []
    for moment, column in enumerate(columns):
        if len(column) == 1 and column[0][1] == 1 and column[0][0] not in fixed:
            fixed.add(column[0][0])
            sequence[moment] = column[0][0]
        else:
            draws.append((moment, [(k, float(p)) for k, p in column]))
    rng = random.Random(seed)
    totals, squares = [F(0)] * n, [F(0)] * n
    voided = 0
    for _ in range(samples):
        seen = set(fixed)
        void = False
        for moment, entries in draws:
            draw = rng.random()
            acc = 0.0
            landed = -1
            for item, p in entries:
                acc += p
                if draw < acc:
                    landed = item
                    break
            if landed < 0 or landed in seen:
                void = True
                break
            seen.add(landed)
            sequence[moment] = landed
        if void:
            voided += 1
            continue
        counts = list(counts0)
        gains = [F(0)] * n
        for item in sequence:
            likers = [i for i in range(n) if instance.utilities[i][item] > 0]
            if keys is not None:
                keys.add((item, tuple(counts[i] for i in likers)))
            feas = feasible_likers(mechanism, counts, likers)
            if not feas:
                continue
            winner = feas[rng.randrange(len(feas))] if len(feas) > 1 else feas[0]
            counts[winner] += 1
            gains[winner] += credit[winner][item]
        for i in range(n):
            totals[i] += gains[i]
            squares[i] += gains[i] * gains[i]
    means = [totals[i] / samples for i in range(n)]
    errors = [math.sqrt(float((squares[i] / samples - means[i] * means[i])
                              / max(samples - 1, 1))) for i in range(n)]
    return [float(held[i] + means[i]) for i in range(n)], errors, voided


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
