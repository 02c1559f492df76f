"""k-move enumeration, gain evaluation and first-improvement local search.

A k-move removes j tour edges (j = 2 or 3) and adds j new edges so the
result is again a single Hamiltonian cycle.  Moves are enumerated in a fixed
lexicographic order: removed-edge position tuples ascending, then a fixed
reconnection-pattern order within each tuple.  Every distinct move appears
exactly once; reconnections that coincide with the identity or with a
two-edge move are not re-emitted for three-edge removals.

Removing three tour edges at positions i < j < k splits the cycle into the
segments between them.  With segment endpoints labelled

    f = t[i], a = t[i+1], b = t[j], c = t[j+1], d = t[k], e = t[k+1]

there are exactly four reconnections whose added edges avoid every current
tour edge; all other reconnections reduce to 2-moves or the identity.  The
same four endpoint patterns stay correct when two removed edges are
adjacent (one segment degenerates to a single vertex); duplicates and
impure patterns are filtered per removal tuple.

find_improving runs a vectorised scan instead of the generator.  It
tabulates a score for every candidate by removed-edge positions: the gain
under the plain predicate, and under ++ the gain combined with dz, the
change in the number of isolated vertices, which depends only on the at
most six endpoints of the removed edges.  The score sums one term per added
edge, with each removed edge's own term folded into the added edge at its
end 0.  A candidate is accepted when its score is at least 1 (gain >= 1, or
under ++ also gain = 0 and dz < 0), and the scan returns the least accepted
key: the move the generator would accept first.  Keys order by leading
position first, so the n^3 triple tables are built one block of leading
positions at a time, in ascending order, and the scan stops at the first
block that holds an accepted candidate.  A descent step thus usually builds
only the first rows, and a certificate scan, which visits every block,
holds one block at a time.  Each table is searched by one argmax.
The generator with is_improving_pp is the reference semantics, and the
tests check the scan against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .core import (
    Edge,
    Instance,
    Tour,
    canonical_edge,
    check_dense_size,
    cost_edge,
    cycle_from_edges,
    identity_tour,
    tour_cost,
    validate_tour,
)
from .errors import InvalidArgumentError, InvalidMoveError

# Added-edge endpoint patterns over (f, a, b, c, d, e), see module docstring.
# Order defines pattern ids 1..4 within one removal tuple.
_PATTERNS: tuple[tuple[tuple[int, int], ...], ...] = (
    ((0, 2), (1, 4), (3, 5)),  # both inner segments reversed in place
    ((0, 3), (1, 4), (2, 5)),  # inner segments exchanged
    ((0, 4), (1, 3), (2, 5)),  # exchanged, second segment reversed
    ((0, 3), (2, 4), (1, 5)),  # exchanged, first segment reversed
)
# The one reconnection of a 2-move over (t[i], t[i+1], t[j], t[j+1]).
_PAIR_PATTERN = ((0, 2), (1, 3))
# Per pattern, the ends (ex, ey) joined by its added edge between removed
# edges i and j, i and k, and j and k (end 0 of edge x is t[x], end 1 t[x+1]).
_PATTERN_ENDS = tuple(
    tuple((x % 2, y % 2) for x, y in sorted(p, key=lambda e: (e[0] // 2, e[1] // 2)))
    for p in _PATTERNS
)


@dataclass(frozen=True)
class KMove:
    """A set of removed tour edges and the added edges replacing them."""

    removed: frozenset[Edge]
    added: frozenset[Edge]
    gain: int | None = None


@dataclass(frozen=True)
class SearchStats:
    """Descent bookkeeping for one local_search call."""

    iterations: int
    moves_applied: int
    final_cost: int
    final_zero_paths: int


def format_kmove(move: KMove) -> str:
    if move.gain is None:
        raise InvalidArgumentError("cannot serialise a move without its gain")
    rem = " ".join(f"({u},{v})" for u, v in sorted(move.removed))
    add = " ".join(f"({u},{v})" for u, v in sorted(move.added))
    return f"remove {rem} add {add} gain {move.gain}"


def _require_enumerable(n: int, k: int) -> None:
    if k not in (2, 3):
        raise InvalidArgumentError(f"k must be 2 or 3, got {k}")
    if n < 4 or (k == 3 and n < 5):
        raise InvalidArgumentError(f"no {k}-moves exist on {n} vertices")


def enumerate_kmoves(tour: Tour, k: int) -> Iterator[KMove]:
    """Yield every distinct j-edge move, j <= k, exactly once.

    Gains are left unfilled; use move_gain against an instance.
    """
    n = tour.n
    _require_enumerable(n, k)
    o = tour.order
    tedges = tour.edge_set

    def tedge(i: int) -> Edge:
        return canonical_edge(o[i], o[(i + 1) % n])

    for i in range(n):
        for j in range(i + 1, n):
            if j - i >= 2 and not (i == 0 and j == n - 1):
                yield KMove(
                    frozenset((tedge(i), tedge(j))),
                    frozenset(
                        (
                            canonical_edge(o[i], o[j]),
                            canonical_edge(o[(i + 1) % n], o[(j + 1) % n]),
                        )
                    ),
                )
            if k == 3:
                for kk in range(j + 1, n):
                    verts = (o[i], o[(i + 1) % n], o[j], o[(j + 1) % n], o[kk], o[(kk + 1) % n])
                    removed = frozenset((tedge(i), tedge(j), tedge(kk)))
                    seen: set[frozenset[Edge]] = set()
                    for pattern in _PATTERNS:
                        added = frozenset(canonical_edge(verts[x], verts[y]) for x, y in pattern)
                        if len(added) != 3 or added & tedges or added in seen:
                            continue
                        seen.add(added)
                        yield KMove(removed, added)


def move_gain(instance: Instance, tour: Tour, move: KMove) -> int:
    """Removed-edge cost minus added-edge cost."""
    if not move.removed <= tour.edge_set:
        missing = sorted(move.removed - tour.edge_set)
        raise InvalidMoveError(f"removed edges {missing} are not on the tour")
    out = sum(cost_edge(instance, u, v) for u, v in move.removed)
    out -= sum(cost_edge(instance, u, v) for u, v in move.added)
    return out


def apply_move(tour: Tour, move: KMove) -> Tour:
    """Exchange the move's edges and rebuild the cyclic order.

    The result starts at the smallest vertex and proceeds toward its smaller
    neighbour, so equal edge sets always produce identical orders.
    """
    if len(move.removed) != len(move.added):
        raise InvalidMoveError("removed and added edge counts differ")
    es = tour.edge_set
    if not move.removed <= es:
        missing = sorted(move.removed - es)
        raise InvalidMoveError(f"removed edges {missing} are not on the tour")
    new_edges = (es - move.removed) | move.added
    if len(new_edges) != tour.n:
        raise InvalidMoveError("added edges collide with kept tour edges")
    ends = {v for e in move.removed for v in e}
    for u, v in move.added:
        if u not in ends or v not in ends:
            raise InvalidMoveError(f"added edge ({u},{v}) does not join removed-edge ends")
    try:
        return Tour(cycle_from_edges(new_edges))
    except InvalidArgumentError as exc:
        raise InvalidMoveError(f"reconnection fails: {exc}") from None


def count_zero_paths(instance: Instance, tour: Tour) -> int:
    """Number of 1-paths of length 0 (vertices with two cost-2 tour edges)."""
    validate_tour(instance, tour)
    o = np.fromiter(tour.order, dtype=np.intp, count=instance.n)
    e = instance.cost_matrix[o, np.roll(o, -1)]
    heavy = e == 2
    return int((heavy & np.roll(heavy, 1)).sum())


def is_improving_pp(instance: Instance, tour: Tour, move: KMove) -> bool:
    """Positive gain, or zero gain with strictly fewer length-0 1-paths."""
    gain = move_gain(instance, tour, move)
    if gain >= 1:
        return True
    if gain < 0:
        return False
    before = count_zero_paths(instance, tour)
    after = count_zero_paths(instance, apply_move(tour, move))
    return after < before


# ---------------------------------------------------------------------------
# Blocked neighborhood scan.
#
# Candidates are keyed by removed-edge positions: (i, j) for a pair and
# (i, j, k, pattern id) for a triple, compared as tuples.  The least
# accepted key is the first accepted move in enumeration order.
#
# Each candidate has a score.  Under the plain predicate the score is the
# gain: removed tour edge costs minus added edge costs.  Under ++ it is
# 8 * gain - dz, where dz is the change in the number of isolated vertices
# (length-0 1-paths).  Only endpoints of removed edges change their tour
# edges.  Each keeps one tour edge and gains one added edge, except the
# middle vertex of an adjacent pair, which gains two; a vertex is isolated
# when both its tour edges cost 2.  There are at most six such endpoints,
# so |dz| <= 6, and score >= 1 holds exactly when gain >= 1, or gain = 0
# and dz < 0.
#
# The score is a sum of added-edge terms, one n^2 table per end pair
# (ex, ey): terms[ex, ey][x, y] is the term of the added edge joining end ex
# of removed edge x to end ey of removed edge y > x (end 0 is t[x], end 1
# is t[x+1]).  The term of a removed edge itself (its cost, and under ++
# its isolated ends) is folded into the one added edge that every pair and
# triple pattern joins to its end 0.  Position pairs that no candidate
# removes together get a large negative term, so no validity mask is built.
#
# The n^2 tables are built once per call: the pair table over (i, j), and
# for k = 3 the table over (x, y) for the single pure reconnection of the
# adjacent pair (x, x+1) plus the edge y.  _first_accepted searches views
# in whose row-major order keys ascend: the pair table, and the adjacent
# table's row x = n-1 (keys (0, y, n-1, 1)), upper triangle (x, x+1, y, 2)
# and transposed lower triangle (y, x, x+1, 2), each for its least accepted
# key.  The four pattern tables over the pairwise non-adjacent triples
# (i, j, k) hold n^3 entries.  They are built one block of leading rows i
# at a time, in ascending i.  Keys compare by i first, so the scan stops at
# the first block that holds an accepted triple, or once its rows pass the
# leading index of the least pair or adjacent-pair key.  A block starts at
# _FIRST_BLOCK entries and doubles up to _MAX_BLOCK, so a scan with
# n^3 <= _FIRST_BLOCK is one block, a descent step usually builds one small
# block, and a certificate scan, which visits every block, holds
# O(_MAX_BLOCK) table entries at a time on top of the n^2 tables.
# ---------------------------------------------------------------------------

# Entries (rows times n^2) of the first and of the largest triple block.
_FIRST_BLOCK = 1 << 16
_MAX_BLOCK = 1 << 21
# Score term of a position pair that no candidate removes together.
_REJECT = -1000
# Score term tables by the removed-edge ends (ex, ey) their added edges join.
_Tables = dict[tuple[int, int], np.ndarray]
# Peak bytes of one scan per n^2 entry, by k, rounded up from tracemalloc:
# k = 2 at n = 400 and 800: 7 (plain), 9.3 (++); k = 3 at n = 400 to 1,600
# with only the tour's edges at cost 2, and certificates at n = 1,600: 15.0
# (plain), 20.2 (++).  Below n = 1,449 a triple block can pass n^2 entries.
_SCAN_BYTES_PER_ENTRY = {2: 10, 3: 24}


def _position_costs(instance: Instance, tour: Tour) -> np.ndarray:
    """Cost matrix indexed by tour position; position n is position 0 again.

    So A[x + a, y + b] for all positions x, y is the slice A[a:a+n, b:b+n].
    """
    n = instance.n
    o = np.empty(n + 1, dtype=np.intp)
    o[:n] = tour.order
    o[n] = o[0]
    return instance.cost_matrix.take(o, axis=0).take(o, axis=1).astype(np.int16)


def _score_terms(
    A: np.ndarray, k: int, plusplus: bool
) -> tuple[_Tables, np.ndarray | None]:
    """The score term tables, and for k = 3 the adjacent-pair table.

    adjacent[x, y] is the score of the adjacent pair (x, x+1) plus edge y.
    """
    n = len(A) - 1
    idx = np.arange(n)
    nxt = (idx + 1) % n
    i2 = (idx + 2) % n
    w = 8 if plusplus else 1
    E = np.diagonal(A, 1)
    base = w * E
    if plusplus:
        heavy_edge = E == 2
        iso = (heavy_edge[idx - 1] & heavy_edge).astype(np.int16)
        lost = iso + iso[nxt]
        # keep[e][x]: the tour edge that end e of removed edge x keeps costs 2.
        keep = (heavy_edge[idx - 1].astype(np.int16), heavy_edge[nxt].astype(np.int16))
        base += lost
    terms = {}
    for a, b in ((0, 0), (1, 1)) if k == 2 else ((0, 0), (0, 1), (1, 0), (1, 1)):
        cost = A[a : a + n, b : b + n]
        t = -w * cost
        if plusplus:
            t -= (cost == 2) * (keep[a][:, None] + keep[b])
        if a == 0:
            t += base[:, None]
        if b == 0:
            t += base
        terms[a, b] = t
    if k == 2:
        return terms, None
    # t[x] joins t[x+2]; t[x+1] joins t[y] and t[y+1].
    pair = w * (E + E[nxt] - A[idx, i2])
    if plusplus:
        pair -= (A[idx, i2] == 2) * (keep[0] + keep[1][nxt]) - lost - iso[i2]
    adjacent = pair[:, None] + terms[1, 0] + terms[1, 1]
    if plusplus:
        # The (1, ey) terms let t[x+1] keep tour edge x+1, which is removed
        # here: t[x+1] ends isolated when both edges it gains cost 2.
        hy, hy1 = ((A[1:, b : b + n] == 2).astype(np.int16) for b in (0, 1))
        adjacent += (hy + hy1) * keep[1][:, None] - (hy & hy1)
    return terms, adjacent


def _triple_block(
    terms: _Tables, ends: tuple[tuple[int, int], ...], lo: int, hi: int
) -> np.ndarray:
    """Rows lo <= i < hi of the triple table of one pattern's ends."""
    ij, ik, jk = (terms[e] for e in ends)
    out = ij[lo:hi, :, None] + ik[lo:hi, None, :]
    out += jk
    return out


def _row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """Leading-row ranges of the triple blocks, in ascending order."""
    area = n * n
    rows = -(-_FIRST_BLOCK // area)
    cap = -(-_MAX_BLOCK // area)
    lo = 0
    while lo < n:
        hi = min(n, lo + rows)
        yield lo, hi
        lo, rows = hi, min(2 * rows, cap)


def _first_accepted(score: np.ndarray) -> int | None:
    """Flat index of the first entry with score >= 1, or None."""
    ok = score >= 1
    flat = int(ok.argmax())
    return flat if ok.flat[flat] else None


def _least_key(instance: Instance, tour: Tour, k: int, plusplus: bool) -> tuple | None:
    """Least accepted scan key, or None when no move is accepted."""
    n = instance.n
    terms, adjacent = _score_terms(_position_costs(instance, tour), k, plusplus)
    # Removed positions x < y must be at least two apart on the cycle;
    # entries with x >= y name no candidate.
    idx = np.arange(n)
    reject = np.where(np.less_equal.outer(idx, idx - 2), np.int16(0), np.int16(_REJECT))
    reject[0, n - 1] = _REJECT
    for t in terms.values():
        t += reject
    keys = []
    if k == 3:
        # The adjacent pair (x, x+1) needs y + 1 <= x - 1 or y >= x + 3 (cyclically).
        adjacent[idx[:, None], (idx[:, None] + (-1, 0, 1, 2)) % n] = _REJECT
        # Near a local optimum no adjacent pair is accepted: one search skips the views.
        if _first_accepted(adjacent) is not None:
            flat = _first_accepted(adjacent[n - 1])  # the wrap pair (n-1, 0), by y
            if flat is not None:
                keys.append((0, flat, n - 1, 1))
            # reject rejects every entry with y < x, and transposed every one with y > x.
            flat = _first_accepted(adjacent[:-1] + reject[:-1])  # by x then y
            if flat is not None:
                keys.append((flat // n, flat // n + 1, flat % n, 2))
            flat = _first_accepted(adjacent[:-1].T + reject[:, :-1])  # by y then x
            if flat is not None:
                keys.append((flat // (n - 1), flat % (n - 1), flat % (n - 1) + 1, 2))
    del reject
    flat = _first_accepted(terms[0, 0] + terms[1, 1])
    if flat is not None:
        keys.append(divmod(flat, n))
    best = min(keys, default=None)
    if k == 2:
        return best
    for lo, hi in _row_blocks(n):
        if best is not None and lo > best[0]:
            break
        found = None
        for pid, ends in enumerate(_PATTERN_ENDS, 1):
            flat = _first_accepted(_triple_block(terms, ends, lo, hi))
            if flat is not None and (found is None or flat < found[0]):
                found = (flat, pid)
        if found is not None:
            flat, pid = found
            key = (lo + flat // (n * n), flat // n % n, flat % n, pid)
            return key if best is None or key < best else best
    return best


def _move_from_key(tour: Tour, key: tuple) -> KMove:
    """The move of scan key (i, j) or (i, j, k, pattern id)."""
    o = tour.order
    n = len(o)
    pos, pattern = (key, _PAIR_PATTERN) if len(key) == 2 else (key[:3], _PATTERNS[key[3] - 1])
    # The ends t[x], t[x+1] of each removed position x, as in the pattern labels.
    ends = [o[(x + d) % n] for x in pos for d in (0, 1)]
    removed = frozenset(canonical_edge(ends[e], ends[e + 1]) for e in range(0, len(ends), 2))
    added = frozenset(canonical_edge(ends[x], ends[y]) for x, y in pattern)
    return KMove(removed, added)


def find_improving(
    instance: Instance, tour: Tour, k: int, plusplus: bool = False
) -> KMove | None:
    """First improving move in enumeration order, or None.

    Improving means gain >= 1; with plusplus also gain = 0 with strictly
    fewer length-0 1-paths afterwards.
    """
    validate_tour(instance, tour)
    _require_enumerable(instance.n, k)
    check_dense_size(instance.n, _SCAN_BYTES_PER_ENTRY[k], f"the {k}-move scan")
    key = _least_key(instance, tour, k, plusplus)
    if key is None:
        return None
    mv = _move_from_key(tour, key)
    return replace(mv, gain=move_gain(instance, tour, mv))


def find_improving_by_enumeration(
    instance: Instance, tour: Tour, k: int, plusplus: bool = False
) -> KMove | None:
    """Reference implementation of find_improving via the plain generator."""
    validate_tour(instance, tour)
    for mv in enumerate_kmoves(tour, k):
        gain = move_gain(instance, tour, mv)
        if gain >= 1:
            return replace(mv, gain=gain)
        if plusplus and gain == 0 and is_improving_pp(instance, tour, mv):
            return replace(mv, gain=0)
    return None


def local_search(
    instance: Instance,
    start: Tour | None = None,
    k: int = 3,
    plusplus: bool = False,
    seed: int | None = None,
) -> tuple[Tour, SearchStats]:
    """First-improvement descent until no improving move remains.

    Without a start tour the identity order is used, or a seeded shuffle
    when a seed is given.  The search itself is deterministic.
    """
    if start is None:
        if seed is None:
            start = identity_tour(instance.n)
        else:
            order = list(range(instance.n))
            random.Random(seed).shuffle(order)
            start = Tour(tuple(order))
    validate_tour(instance, start)
    _require_enumerable(instance.n, k)
    tour = start
    iterations = 0
    applied = 0
    while True:
        iterations += 1
        mv = find_improving(instance, tour, k, plusplus)
        if mv is None:
            break
        tour = apply_move(tour, mv)
        applied += 1
    stats = SearchStats(
        iterations=iterations,
        moves_applied=applied,
        final_cost=tour_cost(instance, tour),
        final_zero_paths=count_zero_paths(instance, tour),
    )
    return tour, stats
