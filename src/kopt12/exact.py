"""Exact optimum tours for small instances.

held_karp runs the classic subset dynamic program of Held & Karp (1962)
vectorised over numpy.  Up to _PLAN_MAX_N vertices each subset size is one
gather, from index arrays cached per size; larger n loop over the last
vertex j within each size.  On one core of a 2-vCPU Xeon (Python 3.11,
NumPy 2.4), on random instances with p = 0.3, the plan path takes about
0.09 / 0.19 / 0.7 ms at n = 9 / 11 / 13 (the loop path 0.56 / 1.1 /
2.8 ms; min of 5 calls on one instance, plan cached), and the loop path
about 0.02 / 0.1 / 0.64 / 1.5 s at n = 16 / 18 / 20 / 21 (3 instances, one
call each).  held_karp refuses n >= 25, whose tables would pass the
dense-table cap.  brute_force enumerates permutations and is kept as an
independent cross-check for tiny instances.  Both break ties the same way
so they return identical tours: lexicographically smallest among the
optimal orders that start at vertex 0 and move toward the smaller of the
two possible directions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import Instance, Tour, check_dense_bytes
from .errors import SizeExceededError

BRUTE_FORCE_LIMIT = 10


@dataclass(frozen=True)
class ExactResult:
    """An optimum tour together with its cost and the method used."""

    tour: Tour
    cost: int
    method: str


# Largest n whose DP runs from a cached index plan, which cuts held_karp at
# n = 13 from 2.8 to 0.7 ms.  The plan of m = n - 1 holds
# 2 m (m - 1) 2^(m-2) + m 2^(m-1) indices: 0.45 MB at n = 13, the default
# sweep's largest n, and 0.78 MB for all n = 6..13.  It would take 1.8 MB
# at n = 14 and 290 MB at n = 20, while the loop's Python steps matter less
# as the subsets grow.
_PLAN_MAX_N = 13


def _held_karp_bytes(n: int) -> int:
    """Upper bound on held_karp's peak bytes, with 64 KiB for numpy's
    iteration buffer and the dp table (int32).  The plan path adds its plan,
    built in the call when not yet cached, and 24 bytes per entry of its
    largest size level for the temporaries of that level's build (int32
    index grids) or gather (the int32 gathers, and their indices cast to
    intp).  The loop path adds masks and popcount groups (int64) and the
    largest step's sel, prev, dp[prev] gather, sum and row minima."""
    m = n - 1
    size = 1 << m
    base = size * m * 4 + (1 << 16)
    if n <= _PLAN_MAX_N:
        dp_index, cost_index = (np.min_scalar_type(x - 1).itemsize for x in (size * m, m * m))
        plan = (dp_index + cost_index) * m * (m - 1) * (size >> 2) + dp_index * m * (size >> 1)
        level = max(comb(m, c) * c * (c - 1) for c in range(2, m + 1))
        return base + plan + 24 * level
    step = comb(m - 1, (m - 1) // 2)
    return base + 2 * size * 8 + step * (2 * 8 + 2 * m * 4 + 4)


@functools.cache
def _plan(m: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The DP's flat indices per subset size c = 2..m, as read-only arrays
    (src, cost, dst), each in the least unsigned type that holds it: for
    every subset S of c of the m inner vertices, j in S and i in S - {j},
    dst holds (S, j) in the (2^m, m) dp table, and row b of src and cost,
    one row per i, holds (S - {j}, i) in the dp table and (i, j) in the
    inner cost matrix."""
    masks = np.arange(1 << m, dtype=np.int32)
    counts = np.bitwise_count(masks)
    plan = []
    for c in range(2, m + 1):
        group = masks[counts == c]
        # members[s, a]: the a-th least vertex of group[s]; row b of i pairs
        # member a with member (a + b + 1) mod c.
        bits = (group[:, None] >> np.arange(m, dtype=np.int32)) & 1
        members = np.nonzero(bits)[1].astype(np.int32).reshape(-1, c)
        i = np.moveaxis(members[:, (np.arange(c)[:, None] + np.arange(1, c)) % c], 2, 0)
        src = (group[:, None] ^ (1 << members)) * m + i
        level = (src, i * m + members, group[:, None] * m + members)
        level = tuple(a.ravel().astype(np.min_scalar_type(a.max())) for a in level)
        for a in level:
            a.flags.writeable = False
        plan.append(level)
    return tuple(plan)


def check_held_karp_size(n: int) -> None:
    """Raise SizeExceededError when held_karp on n vertices would pass the
    dense-table cap; call it before allocating."""
    check_dense_bytes(_held_karp_bytes(n), n, "held_karp")


def held_karp(instance: Instance) -> ExactResult:
    """Optimum tour by dynamic programming over vertex subsets."""
    n = instance.n
    check_held_karp_size(n)
    c = instance.cost_matrix.astype(np.int32)
    m = n - 1
    size = 1 << m
    inf = np.int32(1 << 20)
    dp = np.full((size, m), inf, dtype=np.int32)
    dp[1 << np.arange(m), np.arange(m)] = c[0, 1:]
    inner = c[1:, 1:]
    if n <= _PLAN_MAX_N:
        flat, costs = dp.ravel(), inner.ravel()
        for rows, (src, cost, dst) in enumerate(_plan(m), 1):
            flat[dst] = (flat.take(src) + costs.take(cost)).reshape(rows, -1).min(axis=0)
    else:
        masks = np.arange(size)
        by_count = [masks[np.bitwise_count(masks) == cnt] for cnt in range(m + 1)]
        for cnt in range(2, m + 1):
            group = by_count[cnt]
            for j in range(m):
                sel = group[(group >> j) & 1 == 1]
                prev = sel ^ (1 << j)
                dp[sel, j] = (dp[prev] + inner[:, j][None, :]).min(axis=1)
    full = size - 1
    totals = dp[full] + c[1:, 0]
    last = int(np.argmin(totals))
    cost = int(totals[last])
    rev = [last]
    mask = full
    while mask != 1 << last:
        pmask = mask ^ (1 << last)
        cands = dp[pmask] + inner[:, last]
        last = int(np.flatnonzero(cands == dp[mask, last])[0])
        rev.append(last)
        mask = pmask
    order = (0,) + tuple(v + 1 for v in reversed(rev))
    if order[1] > order[-1]:
        order = (0,) + order[:0:-1]
    return ExactResult(Tour(order), cost, "held-karp")


def brute_force(instance: Instance) -> ExactResult:
    """Optimum tour by permutation enumeration, reflections halved."""
    n = instance.n
    if n > BRUTE_FORCE_LIMIT:
        raise SizeExceededError(
            f"brute_force limited to {BRUTE_FORCE_LIMIT} vertices, got {n}"
        )
    c = instance.cost_matrix.tolist()
    best_cost: int | None = None
    best: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        total = c[0][perm[0]] + c[perm[-1]][0]
        prev = perm[0]
        for v in perm[1:]:
            total += c[prev][v]
            prev = v
        if best_cost is None or total < best_cost:
            best_cost = total
            best = perm
    assert best is not None and best_cost is not None
    return ExactResult(Tour((0,) + best), best_cost, "brute-force")
