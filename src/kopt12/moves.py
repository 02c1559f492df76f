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

find_improving and local_search run a vectorised scan instead of the
generator.  It tabulates a score for every candidate by removed-edge
positions: the gain under the plain predicate, and under ++ the gain
combined with dz, the change in the number of isolated vertices, which
depends only on the at most six endpoints of the removed edges.  The score
sums one term per added edge, with each removed edge's own term folded into
the added edge at its end 0.  A candidate is accepted when its score is at
least 1 (gain >= 1, or under ++ also gain = 0 and dz < 0), and the scan
returns the least accepted key: the move the generator would accept first.
Keys order by leading position first, so the scan builds one lead row of
n^2 entries at a time, in ascending order, and each lead row holds every
key that leads with its position: the triples, and in the entries that
name no triple the 2-moves and adjacent-pair triples.  The scan stops at
the first row that holds an accepted candidate.  A descent step thus
usually builds only the first rows, and a certificate scan, which visits
every row, holds its n^2 tables and one row at a time.  Each row is
searched by one argmax.

A neighborhood of at most _GATHER_MAX candidates (k = 3 up to n = 13, k = 2
up to n = 46) skips the tables and is scanned by one gather.  Index arrays
cached per (n, k) hold the edges of every move the generator yields on the
identity tour, in its order, so one take from the tour's position-cost
matrix gives every candidate's gain, and the first with gain >= 1 is the
plain answer.  Under ++ dz is computed only for the zero-gain candidates
ahead of it, from each endpoint's two edges before and after the move, and
the first of those with dz < 0, if any, is taken instead.  The same cache
holds each move's scan key, so every scan returns a key.
The gather runs on a stack of position-cost matrices, one per tour, with
one take for the whole stack; a single scan is a stack of one.

Under the plain predicate a larger neighborhood may be scanned from the
tour's l cost-2 edges instead (the anchored scan).  An accepted move gains
h_r - h_a >= 1, its heavy removed edges less its heavy added ones, so it
removes a heavy edge with a light added edge at it: the scan walks from
each heavy edge along the cost-1 neighbour lists of Bentley (1992), as in
the gain criterion of Lin & Kernighan (1973), in O(l d^2) candidates for
light degree at most d, and never builds the (n+1)^2 position costs.  Each
step takes whichever of the anchored and blocked scans an O(l) estimate of
the walks finds cheaper, and always the anchored one when the blocked
tables would pass the dense-table cap.  Above the gather cap a ++ scan of
a tour with no isolated vertex is a plain scan: no move lowers a count of
zero, so ++ accepts exactly the moves of gain >= 1.  The generator with
is_improving_pp is the reference semantics, and the tests check every scan
against it.

Descents run on int arrays of tour orders, the array representation of
Bentley (1992): each step takes the least accepted key from the scan and
applies it by segment reversals and exchanges (_reconnect) followed by one
roll and at most one flip back to the canonical order that apply_move
returns.  _descend runs many descents on the same n in lock step: each
step scans every row still descending, at gathered sizes by one stacked
gather, and applies each row's move by _reconnect.  local_search is a
descent of one row, and the sweep descends each (n, p) cell's tours
together; a Tour is built only for each result.  find_improving turns the
key into a KMove with its gain; it, apply_move and enumerate_kmoves are
the oracles the tests hold the descent to.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .core import (
    Edge,
    Instance,
    Tour,
    DENSE_MAX_BYTES,
    _heavy_edges,
    _order_heavy,
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


def neighborhood_size(n: int, k: int) -> int:
    """Number of distinct moves enumerate_kmoves yields on n vertices."""
    _require_enumerable(n, k)
    pairs = n * (n - 3) // 2
    if k == 2:
        return pairs
    return pairs + 4 * (n * (n - 4) * (n - 5) // 6) + n * (n - 4)


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
    heavy = _heavy_edges(instance, tour)
    return int(np.count_nonzero(heavy[:-1] & heavy[1:])) + int(heavy[-1] & heavy[0])


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
# Blocked neighborhood scan, for neighborhoods of more than _GATHER_MAX
# candidates under ++, and under the plain predicate when it is estimated
# cheaper than the anchored scan.  It is the oracle the anchored scan is
# tested against.
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
# adjacent pair (x, x+1) plus the edge y.  For k = 2 one argmax over the
# pair table finds the least key.  The four pattern tables over the pairwise
# non-adjacent triples (i, j, k) hold n^3 entries.  They are built one lead
# row i of n^2 entries over (j, k) at a time, in ascending i.  The entries of
# a row that name no triple take every pair and adjacent-pair key that leads
# with i, where it sorts among the triples, so the row holds every key that
# leads with i in row-major order, and the scan stops at the first row that
# holds an accepted entry.  A scan thus holds one pattern's row of n^2
# entries at a time on top of the n^2 tables.
# ---------------------------------------------------------------------------

# Score term of a position pair that no candidate removes together.
_REJECT = -1000
# Score term tables by the removed-edge ends (ex, ey) their added edges join.
_Tables = dict[tuple[int, int], np.ndarray]
# Peak bytes of one scan per n^2 entry, by k, rounded up from tracemalloc:
# k = 2 at n = 400 and 800: 7 (plain), 9.3 (++); k = 3 at n = 400 and 800
# with only the tour's edges at cost 2: 16.3 (plain), 20.3 (++), and
# certificates at n = 1,600: 15.0 (plain), 20.2 (++); family certificates
# at n = 204 to 800: 14.2 (plain), 22.3 (++).
_SCAN_BYTES_PER_ENTRY = {2: 10, 3: 24}


def _position_costs(instance: Instance, order: tuple[int, ...] | np.ndarray) -> np.ndarray:
    """Cost matrix (int16) indexed by position in the tour order (a sequence
    of vertices); position n is position 0 again.

    So A[x + a, y + b] for all positions x, y is the slice A[a:a+n, b:b+n].
    """
    n = instance.n
    o = np.empty(n + 1, dtype=np.intp)
    o[:n] = order
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


def _triple_row(terms: _Tables, ends: tuple[tuple[int, int], ...], i: int) -> np.ndarray:
    """Row i of the triple table of one pattern's ends, over (j, k)."""
    ij, ik, jk = (terms[e] for e in ends)
    out = ij[i, :, None] + ik[i]
    out += jk
    return out


def _first_accepted(score: np.ndarray) -> int | None:
    """Flat index of the first entry with score >= 1, or None."""
    ok = score >= 1
    flat = int(ok.argmax())
    return flat if ok.flat[flat] else None


def _least_key(A: np.ndarray, k: int, plusplus: bool) -> tuple | None:
    """Least accepted scan key on position costs A, or None when no move is accepted."""
    n = len(A) - 1
    terms, adjacent = _score_terms(A, k, plusplus)
    # The tables replace A: dropping it frees (n + 1)^2 entries before the
    # scan's largest temporaries are built, when the caller holds no copy.
    del A
    # Removed positions x < y must be at least two apart on the cycle;
    # entries with x >= y name no candidate.
    idx = np.arange(n)
    reject = np.where(np.less_equal.outer(idx, idx - 2), np.int16(0), np.int16(_REJECT))
    reject[0, n - 1] = _REJECT
    for t in terms.values():
        t += reject
    del reject
    pairs = terms[0, 0] + terms[1, 1]
    if k == 2:
        flat = _first_accepted(pairs)
        return None if flat is None else divmod(flat, n)
    # The adjacent pair (x, x+1) needs y + 1 <= x - 1 or y >= x + 3 (cyclically).
    adjacent[idx[:, None], (idx[:, None] + (-1, 0, 1, 2)) % n] = _REJECT
    # Near a local optimum no pair or adjacent pair is accepted, and no row writes them.
    pairs = pairs if (pairs >= 1).any() else None
    adjacent = adjacent if (adjacent >= 1).any() else None
    # Row i of a pattern holds its triples (i, j, k) at (j, k).  Entries that
    # name no triple hold the other keys that lead with i, where they sort:
    # the pair (i, j) at (j, j) of pattern 1, and in pattern 2 the adjacent
    # pair (i, i+1) plus edge y at (i+1, y) and edge i plus the pair (y, y+1)
    # at (y, y+1); row 0 of pattern 1 holds the wrap pair (n-1, 0) plus edge
    # y at (y, n-1).  Triples lead with i <= n - 5, so rows n - 4 and n - 3
    # hold pairs and adjacent pairs only.
    for i in range(n - 4 if pairs is None and adjacent is None else n - 2):
        found = []
        for pid, ends in enumerate(_PATTERN_ENDS, 1):
            row = _triple_row(terms, ends, i)
            if pid == 1 and pairs is not None:
                np.fill_diagonal(row, pairs[i])
            if pid == 1 and i == 0 and adjacent is not None:
                row[:, n - 1] = adjacent[n - 1]
            if pid == 2 and adjacent is not None:
                row[i + 1, i + 3 :] = adjacent[i, i + 3 :]
                y = idx[i + 2 : n - 1]
                row[y, y + 1] = adjacent[y, i]
            flat = _first_accepted(row)
            if flat is not None:
                found.append((*divmod(flat, n), pid))
        if found:
            j, kk, pid = min(found)
            return (i, j) if j == kk else (i, j, kk, pid)
    return None


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


# Per triple pattern id, the inner segments in their new order, each as
# (segment, step): segment 1 runs t[i+1..j], segment 2 t[j+1..k], and
# step -1 reverses it.
_RECONNECT = (((1, -1), (2, -1)), ((2, 1), (1, 1)), ((2, -1), (1, 1)), ((2, 1), (1, -1)))


def _reconnect(order: np.ndarray, key: tuple) -> np.ndarray:
    """The canonical order after the move of scan key on order.

    Equals apply_move(Tour(order), _move_from_key(Tour(order), key)).order:
    a 2-move reverses t[i+1..j], and a triple keeps t[..i] and t[k+1..] and
    joins the inner segments by its pattern.  The result is rolled to start
    at vertex 0, and read backward from there when the vertex before 0 is
    its smaller neighbour.
    """
    i, j = key[0], key[1]
    if len(key) == 2:
        new = np.concatenate((order[: i + 1], order[j:i:-1], order[j + 1 :]))
    else:
        k = key[2]
        segments = (None, order[i + 1 : j + 1], order[j + 1 : k + 1])
        inner = [segments[seg][::step] for seg, step in _RECONNECT[key[3] - 1]]
        new = np.concatenate((order[: i + 1], *inner, order[k + 1 :]))
    z = int((new == 0).argmax())
    if new[z - 1] < new[(z + 1) % len(new)]:
        return np.concatenate((new[z::-1], new[:z:-1]))
    return np.concatenate((new[z:], new[:z]))


# ---------------------------------------------------------------------------
# Gathered scan of small neighborhoods.
#
# The blocked scan costs about a hundred small NumPy calls whatever n is,
# which dominates at small n.  A neighborhood of at most _GATHER_MAX
# candidates is scanned instead through index arrays cached per (n, k), one
# column per move of enumerate_kmoves(identity_tour(n), k), in that order.
# On the identity tour a vertex is its position, so the edge (u, v) of a
# cached move costs A[u, v] on any tour, A being the position-cost matrix.
# One take gives the costs of every candidate's three removed and three
# added edges (a 2-move pads both third slots with A[0, 0] = 0), and the
# plain scan returns the key of the first candidate of gain >= 1, from a
# tuple of keys that the same loop over the generator fills: (i, j) for a
# pair, and for a triple (i, j, k) with the first pattern id whose added
# edges are the move's, as the blocked scan numbers it.  Under ++ a
# zero-gain candidate ahead of it is accepted when dz < 0.  dz is computed
# for those candidates alone (for every candidate it made ++ slower than
# the blocked scan from n = 16 on), from the at most six endpoints of the
# removed edges: each is isolated before the move when both its tour edges
# cost 2, and after it when both its edges on the moved tour do.  Endpoint
# slots past a move's own are padded with A[0, 0], never isolated.
#
# The scan takes a stack of B position-cost matrices, read as one array of
# (n+1)^2 rows with one column per matrix, so the same take and arithmetic
# score every matrix's candidates at once: B = 1 for find_improving and a
# single descent, and every still-descending row of a lock-step _descend.
# ---------------------------------------------------------------------------

# Most candidates of a gathered scan: k = 3 up to n = 13, k = 2 up to n = 46.
# At the cap a gathered scan costs a fifth (k = 3, plain) to about all
# (k = 2, ++) of a blocked one, but its tables take about 30 ms to build,
# once per process; past the cap the build outgrows what short runs save
# (timings in CHANGES.md).
_GATHER_MAX = 1024


@dataclass(frozen=True)
class _Gather:
    """Flat indices into the position-cost matrix, one column per candidate,
    and the candidates' scan keys."""

    edges: np.ndarray  # (6, m): removed edges in rows 0-2, added edges in rows 3-5
    # (8k, m): rows 2s, 2s+1 are endpoint slot s's two tour edges, and rows
    # 4k + 2s, 4k + 2s + 1 its two edges after the move.
    dz: np.ndarray
    keys: tuple[tuple, ...]  # (i, j) or (i, j, k, pattern id)


@functools.cache
def _gather_tables(n: int, k: int) -> _Gather:
    """The read-only gather tables of enumerate_kmoves(identity_tour(n), k)."""
    stride = n + 1
    edges, dz, keys = [], [], []
    for mv in enumerate_kmoves(identity_tour(n), k):
        removed = [u * stride + v for u, v in sorted(mv.removed)]
        added = [u * stride + v for u, v in sorted(mv.added)]
        pad = [0] * (3 - len(removed))
        edges.append(removed + pad + added + pad)
        ends = sorted({v for e in mv.removed for v in e})
        before, after = [], []
        for v in ends:
            tour = {canonical_edge((v - 1) % n, v), canonical_edge(v, (v + 1) % n)}
            before += sorted(tour)
            after += sorted((tour - mv.removed) | {e for e in mv.added if v in e})
        pad = [(0, 0)] * 2 * (2 * k - len(ends))
        dz.append([u * stride + w for u, w in before + pad + after + pad])
        # Edge x joins x and x + 1, so the edge (0, n - 1) is position n - 1.
        pos = tuple(sorted(u if v == u + 1 else v for u, v in mv.removed))
        if len(pos) == 2:
            keys.append(pos)
            continue
        # A triple's moves come in pattern id order: search past the last one's.
        pid = keys[-1][3] if keys and keys[-1][:3] == pos else 0
        labels = [(x + d) % n for x in pos for d in (0, 1)]
        while {canonical_edge(labels[x], labels[y]) for x, y in _PATTERNS[pid]} != mv.added:
            pid += 1
        keys.append((*pos, pid + 1))
    tables = []
    for rows in (edges, dz):
        table = np.array(rows).T
        # The least unsigned type that holds every entry: uint8 for k = 3.
        table = np.ascontiguousarray(table, dtype=np.min_scalar_type(table.max()))
        table.flags.writeable = False
        tables.append(table)
    return _Gather(*tables, tuple(keys))


def _gathered_key(stack: np.ndarray, k: int, plusplus: bool) -> list[tuple | None]:
    """First accepted scan key of each position-cost matrix of a stack of
    shape (B, n + 1, n + 1) by the gather tables, or None for a matrix
    with no accepted move."""
    rows, side, _ = stack.shape
    tables = _gather_tables(side - 1, k)
    # Entry e of every matrix lies in row e: one take of whole rows gathers
    # every matrix's candidates at once (_descend lays its stacks out so
    # that this is a view).  Arrays below are indexed (candidate, matrix).
    costs = stack.reshape(rows, -1).T
    r0, r1, r2, a0, a1, a2 = costs.take(tables.edges, axis=0)
    gain = r0 + r1
    gain += r2
    gain -= a0
    gain -= a1
    gain -= a2
    m = len(gain)
    ok = gain >= 1
    # Each matrix's first accepted candidate, or m.
    first = [f if ok.item(f, r) else m for r, f in enumerate(ok.argmax(axis=0).tolist())]
    if plusplus:
        # The zero-gain candidates ahead of each matrix's first.
        top = max(first)
        zero = gain[:top] == 0
        if min(first) < top:
            zero &= np.arange(top)[:, None] < first
        col, row = zero.nonzero()
        if col.size:
            heavy = costs.take(_entries(tables.dz.take(col, axis=1), row, rows)) == 2
            isolated = heavy[0::2] & heavy[1::2]
            slots = len(isolated) // 2
            # dz < 0: fewer of the endpoints are isolated after the move than before.
            merging = (isolated[slots:].sum(axis=0) < isolated[:slots].sum(axis=0)).nonzero()[0]
            # By column, so each matrix's first merging candidate comes first.
            for c, r in zip(col[merging].tolist(), row[merging].tolist()):
                first[r] = min(first[r], c)
    return [tables.keys[f] if f < m else None for f in first]


def _entries(index: np.ndarray, row: np.ndarray, rows: int) -> np.ndarray:
    """Flat indices, into an array of rows columns, of rows index of columns row."""
    if rows == 1:
        return index
    out = index.astype(np.intp)
    out *= rows
    out += row
    return out


# ---------------------------------------------------------------------------
# Anchored scan of the plain predicate.
#
# Every edge costs 1 + [heavy], so a move's gain is h_r - h_a, its heavy
# removed edges less its heavy added ones, and an accepted move removes a
# heavy edge.  The removed and added edges of a move alternate around one
# cycle through their ends.  Each removed edge is entered by an added edge at
# one end (its in-end, 0 for t[x] and 1 for t[x+1]) and left at the other.
# Seen from a heavy removed edge, an accepted move is one of:
#
#   * a 2-move with a light added edge at the heavy edge: both added edges
#     are light, or both removed edges are heavy;
#   * case (a), a triple with at least two light added edges: some heavy
#     removed edge is followed around the cycle, in one direction, by two
#     light added edges;
#   * case (b), a triple with one light added edge: all three removed edges
#     are heavy, and every such triple has gain 3 - 2 and is accepted.
#
# So the scan leaves each end of each heavy tour edge x along each of its
# light edges, to an end of the tour edge x1 on either side of the vertex it
# reaches.  With equal ends that is a 2-move, closed by the added edge that
# joins the other ends.  A triple goes on from the other end of x1 to x2:
# along a light edge, on either side of the vertex it reaches (case a), or,
# when x1 is heavy, to a heavy x2 (case b).  Keys lead with the least
# position, so in case (b) the least valid x2 is the first of the heavy
# positions below, between or above x and x1 that gives a valid triple; in
# each range only its first can be invalid while a later one is valid (by
# lying next to x or x1), so the first two of each range are tried.  That
# is O(l d^2) candidates from l heavy edges and light degree at most d, with
# no (n+1)^2 position costs, against the n^2 tables and n^3 triples of a
# blocked scan.  Each candidate's gain is exact, and the accepted ones map
# to their scan keys, of which the least is returned: the blocked scan's key.
#
# Candidates are made and scored a chunk of at most _ANCHOR_CHUNK at a time
# (one anchor or walk whose light edges pass that is a chunk of its own), so
# a scan holds _ANCHOR_BYTES_PER_CANDIDATE bytes per candidate of one chunk.
# ---------------------------------------------------------------------------

# Most candidates made and scored at once by the anchored scan.
_ANCHOR_CHUNK = 1 << 16
# Peak bytes of an anchored scan per candidate of one chunk, rounded up from
# tracemalloc: 125 on the three-opt-lb certificate at n = 10,000, 141 to 195
# from shuffled starts at n = 400 to 2,000, p = 0.005 to 0.3.
_ANCHOR_BYTES_PER_CANDIDATE = 256
# Blocked-scan entries that cost as much as one anchored candidate, by k:
# the plain scan above _GATHER_MAX is anchored when its estimated candidates
# times this are fewer than n^2.  Measured on shuffled-start descents at
# n = 60 to 600: about 80 ns a candidate against 5 ns an entry for k = 2,
# 130 ns against 33 ns for k = 3.
_ANCHOR_COST = {2: 16, 3: 4}
# Key pattern id by a triple's adjacency kind (1: i and j adjacent, 2: j and
# k adjacent, 4: the wrap pair, i = 0 and k = n - 1) and its pattern.  The
# two removed edges of an adjacent pair share a vertex, so two patterns add
# the same edges, numbered as the generator yields them, and the other two
# add a tour edge; with two adjacencies no move is left.
_PID_BY_KIND = np.zeros((8, 5), dtype=np.intp)
_PID_BY_KIND[0] = range(5)
_PID_BY_KIND[1, [2, 4]] = 2
_PID_BY_KIND[2, [2, 3]] = 2
_PID_BY_KIND[4, [1, 2]] = 1


def _walk_patterns() -> np.ndarray:
    """Pattern id, or 0 for a walk that is no pattern, of each walk through
    removed edges of ranks r0, r1, r2 entered at ends a0, a1, a2, at index
    8 (3 r0 + r1) + 4 a0 + 2 a1 + a2."""
    table = np.zeros(72, dtype=np.intp)
    for ranks in itertools.permutations(range(3)):
        for ins in itertools.product((0, 1), repeat=3):
            # Pattern labels: end e of the edge of rank r is 2r + e.
            added = {
                frozenset((2 * ranks[s] + 1 - ins[s], 2 * ranks[s - 2] + ins[s - 2]))
                for s in range(3)
            }
            for pid, pattern in enumerate(_PATTERNS, 1):
                if added == {frozenset(p) for p in pattern}:
                    table[8 * (3 * ranks[0] + ranks[1]) + 4 * ins[0] + 2 * ins[1] + ins[2]] = pid
    return table


_WALK_PATTERN = _walk_patterns()


def _key_code(n: int, i: np.ndarray, j: np.ndarray, k1, pid) -> np.ndarray:
    """Integer codes that order as scan keys: (i, j) has k1 = pid = 0, and
    (i, j, k, pid) has k1 = k + 1."""
    return ((i * n + j) * (n + 1) + k1) * 5 + pid


def _least_code(best: int, codes: np.ndarray) -> int:
    return min(best, int(codes.min())) if codes.size else best


def _key_from_code(n: int, code: int) -> tuple:
    rest, pid = divmod(code, 5)
    rest, k1 = divmod(rest, n + 1)
    i, j = divmod(rest, n)
    return (i, j) if k1 == 0 else (i, j, k1 - 1, pid)


def _triple_codes(n: int, walk: tuple[np.ndarray, ...], ins: tuple[np.ndarray, ...]) -> np.ndarray:
    """Key codes of the valid triples among walks through positions walk[s]
    entered at ends ins[s], s = 0, 1, 2."""
    p0, p1, p2 = walk
    r0 = (p0 > p1).astype(np.intp) + (p0 > p2)
    r1 = (p1 > p0).astype(np.intp) + (p1 > p2)
    pattern = _WALK_PATTERN[8 * (3 * r0 + r1) + 4 * ins[0] + 2 * ins[1] + ins[2]]
    i = np.minimum(np.minimum(p0, p1), p2)
    k = np.maximum(np.maximum(p0, p1), p2)
    j = p0 + p1 + p2 - i - k
    kind = 1 * (j == i + 1) + 2 * (k == j + 1) + 4 * ((i == 0) & (k == n - 1))
    pid = _PID_BY_KIND[kind, pattern]
    ok = (i < j) & (j < k) & (pid > 0)
    return _key_code(n, i[ok], j[ok], k[ok] + 1, pid[ok])


def _light_steps(instance: Instance, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, v) for every cost-1 neighbour v of each vertices[row], by row."""
    indptr, light = instance.cost1_csr
    start = indptr[vertices]
    count = indptr[vertices + 1] - start
    row = np.repeat(np.arange(len(vertices)), count)
    # Entry t of the result is light[start[row] + t - (entries before row)].
    start -= np.cumsum(count) - count
    return row, light[start[row] + np.arange(len(row))]


def _chunks(weights: np.ndarray) -> Iterator[slice]:
    """Consecutive slices whose weights sum to at most _ANCHOR_CHUNK, or
    that hold one item of larger weight."""
    ends = np.cumsum(weights)
    lo = 0
    while lo < len(ends):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _ANCHOR_CHUNK, side="right")))
        yield slice(lo, hi)
        lo = hi


def _anchored_candidates(instance: Instance, order: np.ndarray, heavy: np.ndarray, k: int) -> float:
    """Estimated candidates of the anchored scan, in O(l): the light edges at
    the heavy edges' ends, times the walks each starts for k = 3."""
    indptr = instance.cost1_csr[0]
    x = np.flatnonzero(heavy)
    ends = order[np.concatenate((x, (x + 1) % len(order)))]
    steps = int((indptr[ends + 1] - indptr[ends]).sum())
    return steps if k == 2 else 4 * steps * (indptr[-1] / len(order))


def _anchored_key(instance: Instance, order: np.ndarray, heavy: np.ndarray, k: int) -> tuple | None:
    """Least accepted plain scan key of the tour order, or None, from walks
    that start at its heavy edges (heavy from _order_heavy)."""
    n = instance.n
    hp = np.flatnonzero(heavy)
    if not hp.size:
        return None
    l = len(hp)
    cost = instance.cost_matrix
    indptr = instance.cost1_csr[0]
    heavy = heavy.view(np.int8)
    o2 = np.concatenate((order, order))  # end e of position x is o2[x + e]
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    # Anchors: heavy x left at end e, toward x1 entered at end a1 = e (a
    # 2-move or a triple) or, for k = 3, a1 = 1 - e (a triple).
    a = np.arange(2 * l * (k - 1))
    ax, ae = hp[a % l], (a // l) % 2
    aa = ae ^ (a >= 2 * l)
    w = o2[ax + ae]
    # Key codes lead with i times this, so no key has the code `none`.
    per_lead = 5 * n * (n + 1)
    best = none = n * per_lead
    for group in _chunks(indptr[w + 1] - indptr[w]):
        row, v1 = _light_steps(instance, w[group])
        x, e, a1 = ax[group][row], ae[group][row], aa[group][row]
        x1 = pos[v1] - a1
        x1 %= n
        v2 = o2[x1 + 1 - a1]  # where x1 is left
        u = o2[x + 1 - e]  # where x is entered
        # Costs of x and x1 less that of the light edge joining them.
        g1 = heavy[x] + heavy[x1] + 1
        pair = (a1 == e) & ((x1 - x + 1) % n > 2) & (g1 > cost[v2, u])
        lo, hi = np.minimum(x, x1)[pair], np.maximum(x, x1)[pair]
        best = _least_code(best, _key_code(n, lo, hi, 0, 0))
        if k == 2:
            continue
        for chunk in _chunks(2 * (indptr[v2 + 1] - indptr[v2]) + 12 * heavy[x1]):
            cx, cx1, cv2 = x[chunk], x1[chunk], v2[chunk]
            # Case (a): a light edge from v2 to x2, entered at end a2.
            r, v3 = _light_steps(instance, cv2)
            p3 = pos[v3]
            r = [r, r]
            x2 = [p3, p3 - 1]
            a2 = [np.zeros_like(p3), np.ones_like(p3)]
            # Case (b): heavy x1, and x2 the first two heavy positions below,
            # between and above x and x1, entered at either end.
            rb = np.flatnonzero(heavy[cx1])
            if rb.size:
                lo = np.minimum(cx[rb], cx1[rb])
                hi = cx[rb] + cx1[rb] - lo
                # Indices into hp of the first heavy position of each range.
                first = np.vstack(([0 * rb], np.searchsorted(hp, (lo, hi), "right")))
                zb = hp[np.minimum(np.vstack((first, first + 1)), l - 1)].ravel()
                r += [np.concatenate([rb] * 6)] * 2
                x2 += [zb, zb]
                a2 += [np.zeros_like(zb), np.ones_like(zb)]
            r, x2, a2 = (np.concatenate(parts) for parts in (r, x2, a2))
            x2 %= n
            # The gain less 1: g1, plus the cost of x2, less its two added edges.
            gain = g1[chunk][r] + heavy[x2]
            gain -= cost[cv2[r], o2[x2 + a2]]
            gain -= cost[o2[x2 + 1 - a2], u[chunk][r]]
            ok = np.flatnonzero(gain >= 0)
            r, x2, a2 = r[ok], x2[ok], a2[ok]
            walk = (cx[r], cx1[r], x2)
            # Only a triple that leads with a position up to the least key's can be less.
            near = np.minimum(np.minimum(walk[0], walk[1]), x2) <= best // per_lead
            ins = ((1 - e[chunk])[r][near], a1[chunk][r][near], a2[near])
            best = _least_code(best, _triple_codes(n, tuple(p[near] for p in walk), ins))
    return None if best == none else _key_from_code(n, best)


def _scan_key(instance: Instance, order: np.ndarray, k: int, plusplus: bool) -> tuple | None:
    """Least accepted scan key of the tour order (an int array), or None, by
    the gathered scan for small neighborhoods and otherwise by the blocked
    scan, or under the plain predicate (to which ++ reduces on a tour with
    no isolated vertex) by the anchored one when it is estimated cheaper or
    the blocked scan would pass the dense-table cap."""
    n = instance.n
    if neighborhood_size(n, k) <= _GATHER_MAX:
        return _gathered_key(_position_costs(instance, order)[None], k, plusplus)[0]
    heavy = _order_heavy(instance, order)
    # With no isolated vertex no move lowers their count: ++ accepts what plain does.
    plusplus = plusplus and bool((heavy[:-1] & heavy[1:]).any() or heavy[-1] & heavy[0])
    if not plusplus:
        if _blocked_over_cap(n, k) or (
            _ANCHOR_COST[k] * _anchored_candidates(instance, order, heavy, k) < n * n
        ):
            return _anchored_key(instance, order, heavy, k)
    return _least_key(_position_costs(instance, order), k, plusplus)


def _blocked_over_cap(n: int, k: int) -> bool:
    """Whether the blocked k-move scan on n vertices would pass the dense-table cap."""
    return n * n * _SCAN_BYTES_PER_ENTRY[k] > DENSE_MAX_BYTES


def _check_scan(n: int, k: int, plusplus: bool) -> None:
    """Refuse a k that names no neighborhood on n vertices, and a ++ scan
    whose tables would pass the dense-table cap, before any table is built.

    A plain scan whose blocked tables would pass it is anchored instead.
    """
    _require_enumerable(n, k)
    if plusplus:
        check_dense_size(n, _SCAN_BYTES_PER_ENTRY[k], f"the {k}-move scan")


def find_improving(
    instance: Instance, tour: Tour, k: int, plusplus: bool = False
) -> KMove | None:
    """First improving move in enumeration order, or None.

    Improving means gain >= 1; with plusplus also gain = 0 with strictly
    fewer length-0 1-paths afterwards.
    """
    validate_tour(instance, tour)
    _check_scan(instance.n, k, plusplus)
    key = _scan_key(instance, np.array(tour.order, dtype=np.intp), k, plusplus)
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


def _start_order(n: int, seed: int | None) -> tuple[int, ...]:
    """The identity order on n vertices, or its shuffle by random.Random(seed)."""
    order = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    return tuple(order)


def _descend(
    instances: list[Instance], orders: list, k: int, plusplus: bool
) -> tuple[np.ndarray, list[int]]:
    """First-improvement descents of tour orders, orders[r] on instances[r],
    all on n vertices, in lock step.

    Returns the final orders, one row each, and each row's iterations: its
    scans, the last of which found no move.  Each step scans every row
    still descending: neighborhoods of at most _GATHER_MAX candidates by one
    gathered scan of all their position costs, larger ones a row at a time.
    Each row's move is applied by _reconnect.
    """
    orders = np.array(orders, dtype=np.intp)
    n = orders.shape[1]
    iterations = [0] * len(orders)
    active = np.arange(len(orders))
    if neighborhood_size(n, k) <= _GATHER_MAX:
        costs = np.stack([instance.cost_matrix for instance in instances]).astype(np.int8)
        wrap = np.arange(n + 1) % n
    else:
        costs = None
    # Every accepted move lowers (n+1) * cost + isolated vertices by at least
    # 1, from at most 2n^2 + 3n to at least n^2 + n: n^2 + 2n moves at most.
    limit = n**2 + 2 * n + 1
    for step in range(1, limit + 1):
        if costs is None:
            keys = [_scan_key(instances[r], orders[r], k, plusplus) for r in active]
        else:
            # Position costs indexed (x, y, row), handed over as (row, x, y).
            o = orders[active[:, None], wrap].T
            flat = (active * n + o[:, None]) * n + o
            keys = _gathered_key(costs.take(flat).transpose(2, 0, 1), k, plusplus)
        moving = []
        for r, key in zip(active.tolist(), keys):
            if key is None:
                iterations[r] = step
            else:
                orders[r] = _reconnect(orders[r], key)
                moving.append(r)
        if not moving:
            return orders, iterations
        active = np.array(moving)
    raise InvalidMoveError(f"descent still finds moves after {limit} iterations")


def local_search(
    instance: Instance,
    start: Tour | None = None,
    k: int = 3,
    plusplus: bool = False,
    seed: int | None = None,
) -> tuple[Tour, SearchStats]:
    """First-improvement descent until no improving move remains.

    Without a start tour the identity order is used, or a seeded shuffle
    when a seed is given; a start tour and a seed together are refused.
    The search itself is deterministic.
    """
    if start is not None and seed is not None:
        raise InvalidArgumentError("give a start tour or a seed to shuffle one, not both")
    if start is None:
        start = Tour(_start_order(instance.n, seed))
    validate_tour(instance, start)
    _check_scan(instance.n, k, plusplus)
    orders, iterations = _descend([instance], [start.order], k, plusplus)
    tour = Tour(tuple(orders[0].tolist()))
    stats = SearchStats(
        iterations=iterations[0],
        moves_applied=iterations[0] - 1,
        final_cost=tour_cost(instance, tour),
        final_zero_paths=count_zero_paths(instance, tour),
    )
    return tour, stats
