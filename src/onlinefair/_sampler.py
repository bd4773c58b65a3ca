"""The Monte Carlo sampler: the body of ``engine.monte_carlo_estimate``,
whose docstring describes it.  Only a ``sample`` call loads this module,
on its first call.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import mul

from . import engine
from .core import BudgetExceeded, InputError, check_prefix
from .arrivals import _columns
from .engine import MonteCarloEstimate, _positive_bidders
from .mechanisms import packed_sizes

_BATCH = 128  # runs whose gains are held as rows between folds


def monte_carlo_estimate(ctx, samples, seed):
    if samples < 1:
        raise InputError("samples must be positive")
    n, m, utilities, arrival = ctx.instance
    columns = _columns(arrival, n)
    _mechanism, base, units, entries, _owners = packed_sizes(
        ctx.mechanism, n, m, _positive_bidders(ctx))
    scale = math.lcm(*(u.denominator for row in utilities for u in row))
    arrived, start, held = (), 0, [0] * n
    credit = [[int(u * scale) for u in column] for column in zip(*utilities)]
    if ctx.known_prefix is not None:
        arrived, state = check_prefix(ctx.instance, *ctx.known_prefix)
        start = sum(map(mul, state.counts, units))
        columns = columns[len(arrived):][:1]
        held = [state.utility_of(i, utilities) for i in range(n)]
        scale, credit = 1, [[1] * n] * m
    if not columns:  # nothing left to draw: every run adds 0, so one will do
        samples = 1
    if samples > ctx.budget:
        raise BudgetExceeded(f"{samples} samples exceed the budget {ctx.budget}")

    def resolve(packed, bidders):
        feas = engine.feasible_for_counts(
            ctx.mechanism, [packed // unit % base for unit in units if unit], bidders)
        return len(feas), len(feas).bit_length(), feas
    steps = [(None if field else resolve(0, bidders), field, {}, bidders, column)
             for (bidders, field, _tag), column in zip(entries, credit)]
    void = 1 << m  # the residual's sentinel bit, set in every run's mask
    fixed_mask = void | sum(1 << item for item in arrived)
    sequence = [None] * len(columns)
    draws = []
    for moment, (grow, column) in enumerate(columns):
        if len(column) == 1 and column[0][2][0] == grow and not fixed_mask & column[0][1]:
            fixed_mask |= column[0][1]
            sequence[moment] = steps[column[0][0]]
        else:
            draws.append((moment, list(accumulate(shares[0] / grow
                                                  for _item, _bit, shares in column)),
                          [(bit, steps[item]) for item, bit, _shares in column]
                          + [(void, None)]))
    rng = random.Random(seed)
    draw, bits = rng.random, rng.getrandbits
    room, totals, squares, voided = ctx.budget, [0] * n, [0] * n, 0
    for batch in range(0, samples, _BATCH):
        rows = []
        for _ in range(min(_BATCH, samples - batch)):
            mask = fixed_mask
            for moment, cumulative, table in draws:
                bit, step = table[bisect_right(cumulative, draw())]
                if mask & bit:
                    voided += 1
                    break
                mask |= bit
                sequence[moment] = step
            else:
                packed, gains = start, [0] * n
                for hit, field, memo, bidders, column in sequence:
                    if hit is None:
                        key = packed & field
                        try:
                            hit = memo[key]
                        except KeyError:
                            hit = resolve(packed, bidders)
                            if room:
                                room -= 1
                                memo[key] = hit
                    f, k, feas = hit
                    if f:
                        r = bits(k) if f > 1 else 0
                        while r >= f:
                            r = bits(k)
                        winner = feas[r]
                        packed += units[winner]
                        gains[winner] += column[winner]
                rows.append(gains)
        for a, column in enumerate(zip(*rows)):
            totals[a] += sum(column)
            squares[a] += sum(map(mul, column, column))
    whole = scale * samples
    return MonteCarloEstimate(
        [float(value + Fraction(total, whole)) for value, total in zip(held, totals)],
        [math.sqrt(Fraction(square * samples - total * total,
                            whole * whole * max(samples - 1, 1)))
         for square, total in zip(squares, totals)],
        voided)
