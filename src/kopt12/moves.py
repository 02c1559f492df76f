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
tabulates the gain of every candidate by removed-edge positions.  Under ++
it also tabulates dz, the change in the number of isolated vertices, which
depends only on the at most six endpoints of the removed edges.  Each
table becomes a mask of accepted candidates (gain >= 1, or under ++ also
gain = 0 and dz < 0), and one argmin over the masks picks the least
accepted key.  That is the move the generator would accept first.  The
generator with is_improving_pp is the reference semantics, and the tests
check the scan against it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .core import (
    Edge,
    Instance,
    Tour,
    canonical_edge,
    cost_edge,
    identity_tour,
    tour_cost,
    validate_tour,
)
from .errors import InvalidArgumentError, InvalidMoveError, ParseError

# Added-edge endpoint patterns over (f, a, b, c, d, e), see module docstring.
# Order defines pattern ids 1..4 within one removal tuple.
_PATTERNS: tuple[tuple[tuple[int, int], ...], ...] = (
    ((0, 2), (1, 4), (3, 5)),  # both inner segments reversed in place
    ((0, 3), (1, 4), (2, 5)),  # inner segments exchanged
    ((0, 4), (1, 3), (2, 5)),  # exchanged, second segment reversed
    ((0, 3), (2, 4), (1, 5)),  # exchanged, first segment reversed
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


def parse_kmove(text: str) -> KMove:
    tokens = text.split()
    try:
        ir = tokens.index("remove")
        ia = tokens.index("add")
        ig = tokens.index("gain")
    except ValueError:
        raise ParseError(f"malformed move record {text!r}") from None

    def pairs(chunk: list[str]) -> frozenset[Edge]:
        out = set()
        for tok in chunk:
            if not (tok.startswith("(") and tok.endswith(")")):
                raise ParseError(f"bad edge token {tok!r}")
            u, _, v = tok[1:-1].partition(",")
            out.add(canonical_edge(int(u), int(v)))
        return frozenset(out)

    try:
        return KMove(pairs(tokens[ir + 1 : ia]), pairs(tokens[ia + 1 : ig]), int(tokens[ig + 1]))
    except (ValueError, IndexError):
        raise ParseError(f"malformed move record {text!r}") from None


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
    n = tour.n
    new_edges = (es - move.removed) | move.added
    if len(new_edges) != n:
        raise InvalidMoveError("added edges collide with kept tour edges")
    adj: dict[int, list[int]] = {v: [] for v in tour.order}
    for u, v in new_edges:
        if u not in adj or v not in adj:
            raise InvalidMoveError(f"added edge ({u},{v}) leaves the vertex set")
        adj[u].append(v)
        adj[v].append(u)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        raise InvalidMoveError("reconnection does not form a single cycle (bad degree)")
    start = min(adj)
    first = min(adj[start])
    seq = [start]
    prev, cur = start, first
    while cur != start:
        seq.append(cur)
        x, y = adj[cur]
        prev, cur = cur, (y if x == prev else x)
    if len(seq) != n:
        raise InvalidMoveError("reconnection leaves more than one cycle")
    return Tour(tuple(seq))


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
# Vectorised neighborhood scan.
#
# Candidates are tabulated by removed-edge positions: a pair table over
# (i, j), one table per pattern over pairwise non-adjacent triples
# (i, j, k), and a table over (x, y) for the single pure reconnection of the
# triple made of the adjacent pair (x, x+1) plus the edge y.  Two
# quantities are tabulated, each a sum of per-position and per-added-edge
# terms:
#
#   gain  removed tour edge costs minus added edge costs;
#   dz    change in the number of isolated vertices (length-0 1-paths).
#         Only endpoints of removed edges change their tour edges.  Each
#         keeps one tour edge and gains one added edge, except the middle
#         vertex of an adjacent pair, which gains two.  A vertex is isolated
#         when both its tour edges cost 2.
#
# Each table becomes a mask of accepted candidates: gain >= 1, or with ++
# also gain = 0 and dz < 0.  Adjacent-pair entries map back to their sorted
# position triples so all candidates share one key order: (i, j) for pairs,
# (i, j, k, pattern_id) for triples, compared as tuples.  The least accepted
# key is the first accepted move in enumeration order.
# ---------------------------------------------------------------------------


def _position_costs(instance: Instance, tour: Tour) -> np.ndarray:
    """Cost matrix indexed by tour position."""
    o = np.fromiter(tour.order, dtype=np.intp, count=instance.n)
    return instance.cost_matrix[np.ix_(o, o)].astype(np.int16)


def _triple_sum(ij: np.ndarray, ik: np.ndarray, jk: np.ndarray) -> np.ndarray:
    s = ij[:, :, None] + ik[:, None, :]
    s += jk[None, :, :]
    return s


def _position_tables(base: np.ndarray, term: list, k: int) -> Iterator[np.ndarray]:
    """Pair table, then for k = 3 one triple table per pattern.

    The tabulated quantity of a move is base[x] summed over its removed
    positions x, plus term[ex][ey][x, y] summed over its added edges, where
    an added edge joins end ex of removed edge x to end ey of removed edge
    y > x (end 0 is t[x], end 1 is t[x+1]).
    """
    bb = base[:, None] + base[None, :]
    yield bb + term[0][0] + term[1][1]
    if k == 3:
        for pattern in _PATTERNS:
            ij, ik, jk = (
                term[x % 2][y % 2]
                for x, y in sorted(pattern, key=lambda e: (e[0] // 2, e[1] // 2))
            )
            yield _triple_sum(bb + ij, ik, jk + base)


def _gain_tables(A: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Gain tables in scan order: pair, then for k = 3 patterns and adjacent pair."""
    n = len(A)
    idx = np.arange(n)
    end = (idx, (idx + 1) % n)
    E = A[idx, end[1]]
    neg = [[-A[np.ix_(a, b)] for b in end] for a in end]
    yield from _position_tables(E, neg, k)
    if k == 3:
        # Adjacent pair: t[x] joins t[x+2]; t[x+1] joins t[y] and t[y+1].
        pair = E + E[end[1]] - A[idx, (idx + 2) % n]
        yield pair[:, None] + E + neg[1][0] + neg[1][1]


def _dz_tables(A: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Isolated-vertex change tables, in the order of _gain_tables."""
    n = len(A)
    idx = np.arange(n)
    end = (idx, (idx + 1) % n)
    i2 = (idx + 2) % n
    heavy_edge = A[idx, end[1]] == 2
    iso = (heavy_edge[idx - 1] & heavy_edge).astype(np.int8)
    lost = iso + iso[end[1]]
    # keep[e][x]: the tour edge that end e of removed edge x keeps costs 2.
    keep = (heavy_edge[idx - 1].astype(np.int8), heavy_edge[end[1]].astype(np.int8))
    heavy = [[A[np.ix_(a, b)] == 2 for b in end] for a in end]
    term = [
        [heavy[ex][ey] * (keep[ex][:, None] + keep[ey][None, :]) for ey in (0, 1)]
        for ex in (0, 1)
    ]
    yield from _position_tables(-lost, term, k)
    if k == 3:
        # t[x+1] keeps no tour edge: it ends isolated when both edges it
        # gains, to t[y] and t[y+1], cost 2.
        hy, hy1 = heavy[1]
        pair = (A[idx, i2] == 2) * (keep[0] + keep[1][end[1]]) - lost - iso[i2]
        yield pair[:, None] - lost + hy * keep[0] + hy1 * keep[1] + (hy & hy1)


def _accept(gain: np.ndarray, dz: np.ndarray | None) -> np.ndarray:
    ok = gain >= 1
    if dz is not None:
        ok |= (gain == 0) & (dz < 0)
    return ok


def _b_triple(n: int, x: int, y: int) -> tuple[tuple[int, int, int], int]:
    """Sorted position triple and pattern id for adjacent pair (x, x+1) plus edge y."""
    if x == n - 1:
        return (0, y, n - 1), 1
    if y > x + 1:
        return (x, x + 1, y), 2
    return (y, x, x + 1), 2


def _least_key(instance: Instance, tour: Tour, k: int, plusplus: bool) -> tuple | None:
    n = instance.n
    A = _position_costs(instance, tour)
    # map drops each table as soon as its mask is built, so at most one
    # n^3 gain table (and dz table) is alive at a time.
    masks = map(
        _accept,
        _gain_tables(A, k),
        _dz_tables(A, k) if plusplus else itertools.repeat(None),
    )
    idx = np.arange(n)
    ii = idx[:, None]
    jj = idx[None, :]
    best: tuple | None = None
    m2 = next(masks) & (jj - ii >= 2) & ~((ii == 0) & (jj == n - 1))
    if m2.any():
        flat = int(np.argmax(m2))
        best = (flat // n, flat % n)
    if k == 3:
        acc = [next(masks) for _ in _PATTERNS]
        iii = idx[:, None, None]
        jjj = idx[None, :, None]
        kkk = idx[None, None, :]
        imp3 = (jjj - iii >= 2) & (kkk - jjj >= 2) & ~((iii == 0) & (kkk == n - 1))
        imp3 &= acc[0] | acc[1] | acc[2] | acc[3]
        off = (jj - ii) % n
        b_pids: dict[tuple[int, int, int], int] = {}
        for x, y in np.argwhere(next(masks) & (off >= 3) & (off <= n - 2)).tolist():
            trip, pid = _b_triple(n, x, y)
            imp3[trip] = True
            b_pids[trip] = pid
        if imp3.any():
            flat = int(np.argmax(imp3))
            trip = (flat // (n * n), (flat // n) % n, flat % n)
            if trip in b_pids:
                key3 = trip + (b_pids[trip],)
            else:
                key3 = trip + (next(p for p, m in enumerate(acc, 1) if m[trip]),)
            if best is None or key3 < best:
                best = key3
    return best


def _move_from_key(tour: Tour, key: tuple) -> KMove:
    o = tour.order
    n = len(o)
    if len(key) == 2:
        i, j = key
        removed = frozenset(
            (
                canonical_edge(o[i], o[(i + 1) % n]),
                canonical_edge(o[j], o[(j + 1) % n]),
            )
        )
        added = frozenset(
            (
                canonical_edge(o[i], o[j]),
                canonical_edge(o[(i + 1) % n], o[(j + 1) % n]),
            )
        )
        return KMove(removed, added)
    i, j, kk, pid = key
    verts = (o[i], o[(i + 1) % n], o[j], o[(j + 1) % n], o[kk], o[(kk + 1) % n])
    removed = frozenset(
        (
            canonical_edge(o[i], o[(i + 1) % n]),
            canonical_edge(o[j], o[(j + 1) % n]),
            canonical_edge(o[kk], o[(kk + 1) % n]),
        )
    )
    added = frozenset(canonical_edge(verts[x], verts[y]) for x, y in _PATTERNS[pid - 1])
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
