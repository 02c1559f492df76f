"""k-move enumeration, gain evaluation and first-improvement local search.

A k-move removes j tour edges (j = 2 or 3) and adds j new edges so the
result is again a single Hamiltonian cycle.  A move is named by its scan
key, (i, j) for a pair and (i, j, k, pattern id) for a triple, where i < j
< k are the positions of its removed tour edges.  The moves are the scan
keys, in key order, whose reconnection adds no tour edge and repeats no
earlier key's added edges at the same positions, so every distinct move
appears exactly once.

Removing three tour edges at positions i < j < k splits the cycle into the
segments between them.  With segment endpoints labelled

    f = t[i], a = t[i+1], b = t[j], c = t[j+1], d = t[k], e = t[k+1]

there are exactly four reconnections whose added edges avoid every current
tour edge; all other reconnections reduce to 2-moves or the identity.  The
same four endpoint patterns stay correct when two removed edges are
adjacent (one segment degenerates to a single vertex); duplicates and
impure patterns are filtered per removal tuple.

find_improving and local_search run vectorised scans instead of the
generator.  The blocked scan, of 3-moves, tabulates a score for every
candidate by removed-edge positions: the gain under the plain predicate,
and under ++ the gain combined with dz, the change in the number of
isolated vertices, which depends only on the at most six endpoints of the
removed edges.  The score sums one term per added edge, with each removed
edge's own term folded into the added edge at its end 0.  A candidate is
accepted when its score is at least 1 (gain >= 1, or under ++ also gain = 0
and dz < 0), and the scan returns the least accepted key: the move the
generator would accept first.  Keys order by leading position first, so
the scan builds one lead row of n^2 entries at a time, in ascending order,
and each lead row holds every key that leads with its position: the
triples, and in the entries that name no triple the 2-moves and
adjacent-pair triples.  The scan stops at the first row that holds an
accepted candidate.  A descent step thus usually builds only the first
rows, and a certificate scan, which visits every row, holds its n^2 tables
and one row at a time.  Each row is searched by one argmax.

Every scan starts with a gathered scan of the first _GATHER_MAX keys in
key order, which is the whole neighborhood for k = 3 up to n = 13 and k = 2
up to n = 46.  Index arrays cached per (n, k) hold the edges of the first
_GATHER_MAX moves the generator yields on the identity tour, in its order,
as indices into the position pairs they join, so reading those pairs' costs
through the tour order from the instance's cost matrix gives every
candidate's gain, and the first with gain >= 1 is the plain answer.  Under
++ dz is computed only for the zero-gain candidates ahead of it, from each
endpoint's two edges before and after the move, and the first of those
with dz < 0, if any, is taken instead.  The same cache holds each move's
scan key as an integer code, decoded only for the key a scan returns.  Keys
order moves as the generator does, so when the prefix holds an accepted key
it holds the least one; only when it holds none does a larger neighborhood
go on to the blocked scan, or the anchored one below.  The gather scores a
stack of tours at once, one column each, and every scan is such a stack:
_scan_keys gathers every row at once, and past the cap sends each row whose
prefix misses on alone.

A larger neighborhood may be scanned from the tour's l cost-2 edges instead
(the anchored scan), under the plain predicate and for 2-moves under ++ as
well.  An accepted move gains h_r - h_a >= 1, its heavy removed edges less
its heavy added ones, so it removes a heavy edge with a light added edge at
it: the scan walks from each heavy edge along the cost-1 neighbour lists of
Bentley (1992), as in the gain criterion of Lin & Kernighan (1973), in
O(l d^2) candidates for light degree at most d, and never builds the
(n+1)^2 position costs.  A zero-gain 2-move that ++ accepts lowers the
number of isolated vertices, so it removes a heavy edge at an isolated
vertex and adds a light edge there, and the walks reach it too: every
2-move scan is anchored.  A plain 3-move step takes whichever of the
anchored and blocked scans an O(l) estimate of the walks finds cheaper, and
always the anchored one when the blocked tables would pass the dense-table
cap.  Past the gathered prefix a ++ scan of a tour with no isolated vertex
is a plain scan: no move lowers a count of zero, so ++ accepts exactly the
moves of gain >= 1.  The generator with is_improving_pp is the reference
semantics, and the tests check every scan against it; they also keep a
dense pair table, over the blocked scan's score terms, as the oracle of the
anchored 2-move scan.

Descents run on int arrays of tour orders, the array representation of
Bentley (1992): each step takes the least accepted key from the scan and
applies it by segment reversals and exchanges (_reconnect) followed by one
roll and at most one flip back to the canonical order that apply_move
returns.  _descend runs many descents on the same n in lock step: each step
scans every row still descending by one _scan_keys call and applies each
row's move by _reconnect, and one read of the final tours' heavy masks
prices them.  local_search is a descent of one row, which reads its cost
matrix in place, and the sweep descends each (n, p) cell's tours together;
a Tour is built only for each result.  find_improving is a scan of one row
that turns the key into a KMove with its gain; it, apply_move and
enumerate_kmoves are the oracles the tests hold the descent to.
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


def _position_edges(
    order: tuple[int, ...], pos: tuple[int, ...]
) -> tuple[frozenset[Edge], list[frozenset[Edge]]]:
    """The tour edges at positions pos of order, and the added edges of each
    reconnection over them: the pair's one, or the triple's pattern ids 1..4."""
    n = len(order)
    # The ends t[x], t[x+1] of each removed position x, as in the pattern labels.
    ends = [order[(x + d) % n] for x in pos for d in (0, 1)]
    removed = frozenset([canonical_edge(ends[e], ends[e + 1]) for e in range(0, len(ends), 2)])
    patterns = (_PAIR_PATTERN,) if len(pos) == 2 else _PATTERNS
    return removed, [frozenset([canonical_edge(ends[x], ends[y]) for x, y in p]) for p in patterns]


def _keyed_kmoves(tour: Tour, k: int) -> Iterator[tuple[tuple, KMove]]:
    """Yield (scan key, move) for every scan key in key order whose added
    edges hold no tour edge and are not an earlier key's at its positions."""
    n = tour.n
    _require_enumerable(n, k)
    tedges = tour.edge_set
    for i, j in itertools.combinations(range(n), 2):
        for pos in [(i, j)] + ([(i, j, kk) for kk in range(j + 1, n)] if k == 3 else []):
            removed, patterns = _position_edges(tour.order, pos)
            for pid, added in enumerate(patterns, 1):
                if not added & tedges and added not in patterns[: pid - 1]:
                    yield (pos if len(pos) == 2 else (*pos, pid)), KMove(removed, added)


def enumerate_kmoves(tour: Tour, k: int) -> Iterator[KMove]:
    """Yield every distinct j-edge move, j <= k, exactly once, in scan key
    order: each key whose reconnection adds no tour edge and repeats no
    earlier key's.

    Gains are left unfilled; use move_gain against an instance.
    """
    for _, mv in _keyed_kmoves(tour, k):
        yield mv


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


def _isolated(heavy: np.ndarray) -> np.ndarray:
    """Whether each position's vertex is isolated: its tour edges x-1 and x are heavy."""
    return heavy & heavy.take(np.arange(-1, len(heavy) - 1))


def count_zero_paths(instance: Instance, tour: Tour) -> int:
    """Number of 1-paths of length 0 (isolated vertices)."""
    return int(np.count_nonzero(_isolated(_heavy_edges(instance, tour))))


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
# Blocked 3-move scan, for neighborhoods of more than _GATHER_MAX
# candidates whose gathered prefix holds no accepted key: under ++ on a tour
# with isolated vertices, and under the plain predicate when it is estimated
# cheaper than the anchored scan.  It is the oracle the anchored 3-move scan
# is tested against; the dense pair table that the anchored 2-move scan is
# tested against lives in the tests, over these score terms.
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
# the table over (x, y) for the single pure reconnection of the adjacent
# pair (x, x+1) plus the edge y.  The four pattern tables over the pairwise
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
# Peak bytes of one scan per n^2 entry, rounded up from tracemalloc: at
# n = 400 and 800 with only the tour's edges at cost 2: 16.3 (plain), 20.3
# (++), and certificates at n = 1,600: 15.0 (plain), 20.2 (++); family
# certificates at n = 204 to 800: 14.2 (plain), 22.3 (++).
_SCAN_BYTES_PER_ENTRY = 24


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


def _score_terms(A: np.ndarray, plusplus: bool) -> tuple[_Tables, np.ndarray]:
    """The score term tables, and the adjacent-pair table.

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
        iso = _isolated(heavy_edge).astype(np.int16)
        lost = iso + iso[nxt]
        # keep[e][x]: the tour edge that end e of removed edge x keeps costs 2.
        keep = (heavy_edge[idx - 1].astype(np.int16), heavy_edge[nxt].astype(np.int16))
        base += lost
    terms = {}
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cost = A[a : a + n, b : b + n]
        t = -w * cost
        if plusplus:
            t -= (cost == 2) * (keep[a][:, None] + keep[b])
        if a == 0:
            t += base[:, None]
        if b == 0:
            t += base
        terms[a, b] = t
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


def _least_key(A: np.ndarray, plusplus: bool) -> tuple | None:
    """Least accepted 3-move scan key on position costs A, or None when no
    move is accepted."""
    n = len(A) - 1
    terms, adjacent = _score_terms(A, plusplus)
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
    removed, patterns = _position_edges(tour.order, key[:3])
    return KMove(removed, patterns[key[3] - 1 if len(key) == 4 else 0])


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
# Gathered scan of the first _GATHER_MAX keys.
#
# The blocked scan costs about a hundred small NumPy calls whatever n is,
# which dominates at small n, and its n^2 tables are set up before it looks
# at a single key.  A descent step usually accepts a key of small leading
# position, so every scan first gathers the first _GATHER_MAX candidates
# through index arrays cached per (n, k), one column per move of
# enumerate_kmoves(identity_tour(n), k), in that order.  On the identity
# tour a vertex is its position, so the edge (x, y) of a cached move joins
# positions x and y of any tour, and costs cost_matrix[t[x], t[y]].  The
# cache lists the position pairs, its cells, that the candidates' edges
# join; one read of their costs through the tour order, and one take from
# those, give every candidate's three removed and three added edges (a
# 2-move pads both third slots with the pair (0, 0), of cost 0), and the
# plain scan returns the key of the first candidate of gain >= 1, decoded
# from the _key_code of the scan key the generator yields with it.  Under ++ a
# zero-gain candidate ahead of it is accepted when dz < 0.  dz is computed
# for those candidates alone (for every candidate it made ++ slower than
# the blocked scan from n = 16 on), from the at most six endpoints of the
# removed edges: each is isolated before the move when both its tour edges
# cost 2, and after it when both its edges on the moved tour do.  Endpoint
# slots past a move's own are padded with the pair (0, 0), never isolated.
# The prefix never builds the (n+1)^2 position costs, so at large n it costs
# a few reads of the tables' cells, not O(n^2).
#
# The scan takes the cells' costs on B tours, one column per tour, so the
# same take and arithmetic score every tour's candidates.  _stacked_costs
# reads them from a stack of cost matrices: every still-descending row of a
# lock-step _descend, or B = 1 for find_improving and a one-row descent,
# whose stack is the instance's cost matrix viewed in place.
# ---------------------------------------------------------------------------

# Candidates of the gathered scan every scan starts with: the whole
# neighborhood for k = 3 up to n = 13 and k = 2 up to n = 46.  At the cap a
# gathered scan costs a fifth (k = 3, plain) to about all (k = 2, ++) of a
# blocked one.  Past it the prefix costs 35 to 55 us a scan (n = 72 to
# 2,000), where a blocked scan along the same descents costs 320 to 440 us,
# and it holds the key of 52 to 65% of plain descent scans at n = 100 to 140
# and 72 to 83% of ++ ones at n = 40 to 72.  Its tables take 35 to 50 ms to
# build, once per (n, k) and process (timings in CHANGES.md).
_GATHER_MAX = 1024


@dataclass(frozen=True)
class _Gather:
    """The first candidates of a neighborhood in key order: the position
    pairs whose costs they read, their edges as indices into those pairs,
    and their scan keys."""

    cells: np.ndarray  # (2, c): position pairs (x, y), x < y or the pad (0, 0)
    edges: np.ndarray  # (6, m): removed edges in rows 0-2, added edges in rows 3-5
    # (8k, m): rows 2s, 2s+1 are endpoint slot s's two tour edges, and rows
    # 4k + 2s, 4k + 2s + 1 its two edges after the move.
    dz: np.ndarray
    keys: np.ndarray  # (m,): each scan key's _key_code
    n: int


@functools.cache
def _gather_tables(n: int, k: int) -> _Gather:
    """The read-only gather tables of the first _GATHER_MAX moves of
    enumerate_kmoves(identity_tour(n), k)."""
    # Edges by code x * n + y until the cells are known; code 0, the pad
    # (0, 0), fills the slots past a 2-move's edges and a move's endpoints.
    edges = np.zeros((_GATHER_MAX, 6), dtype=np.int64)
    dz = np.zeros((_GATHER_MAX, 8 * k), dtype=np.int64)
    keys = []
    for key, mv in itertools.islice(_keyed_kmoves(identity_tour(n), k), _GATHER_MAX):
        row = len(keys)
        keys.append(_key_code(n, *key[:2], *((key[2] + 1, key[3]) if key[2:] else (0, 0))))
        size = len(mv.removed)
        edges[row, :size] = sorted(u * n + v for u, v in mv.removed)
        edges[row, 3 : 3 + size] = sorted(u * n + v for u, v in mv.added)
        for slot, v in enumerate(sorted({v for e in mv.removed for v in e})):
            tour = {canonical_edge((v - 1) % n, v), canonical_edge(v, (v + 1) % n)}
            after = (tour - mv.removed) | {e for e in mv.added if v in e}
            for half, incident in ((0, tour), (4 * k, after)):
                at = half + 2 * slot
                dz[row, at : at + 2] = sorted(u * n + w for u, w in incident)
    edges, dz = edges[: len(keys)].T, dz[: len(keys)].T
    codes = np.sort(np.concatenate((edges.ravel(), dz.ravel())))
    cells = codes[np.diff(codes, prepend=-1) > 0]
    # The cells index the tour order on every scan, where a narrower type
    # would be converted each time; they are at most a few thousand.
    tables = [np.stack(np.divmod(cells, n)).astype(np.intp)]
    for table in (np.searchsorted(cells, edges), np.searchsorted(cells, dz), np.array(keys)):
        # The least unsigned type that holds every entry: uint8 for the k = 3
        # indices up to the cap.
        tables.append(np.ascontiguousarray(table, dtype=np.min_scalar_type(table.max())))
    for table in tables:
        table.flags.writeable = False
    return _Gather(*tables, n)


def _gathered_key(tables: _Gather, costs: np.ndarray, plusplus: bool) -> list[tuple | None]:
    """First accepted scan key among the candidates of the gather tables on
    each of B tours, or None for a tour on which none of them is accepted.

    costs, of shape (c, B), holds the cost of each of the tables' c cells
    on each tour, read from its cost matrix (uint8) through its order.
    """
    # Arrays below are indexed (cell or candidate, tour).
    cells = costs.view(np.int8)
    r0, r1, r2, a0, a1, a2 = cells.take(tables.edges, axis=0)
    gain = r0 + r1
    gain += r2
    gain -= a0
    gain -= a1
    gain -= a2
    m = len(gain)
    ok = gain >= 1
    # Each tour's first accepted candidate, or m.
    first = [f if ok.item(f, r) else m for r, f in enumerate(ok.argmax(axis=0).tolist())]
    if plusplus:
        # The zero-gain candidates ahead of each tour's first.
        top = max(first)
        zero = gain[:top] == 0
        if min(first) < top:
            zero &= np.arange(top)[:, None] < first
        col, row = zero.nonzero()
        if col.size:
            # Flat indices into cells of each candidate's endpoint edges on its tour.
            index = tables.dz.take(col, axis=1)
            if cells.shape[1] > 1:
                index = index.astype(np.intp)
                index *= cells.shape[1]
                index += row
            heavy = cells.take(index) == 2
            isolated = heavy[0::2] & heavy[1::2]
            slots = len(isolated) // 2
            # dz < 0: fewer of the endpoints are isolated after the move than before.
            merging = (isolated[slots:].sum(axis=0) < isolated[:slots].sum(axis=0)).nonzero()[0]
            # By column, so each tour's first merging candidate comes first.
            for c, r in zip(col[merging].tolist(), row[merging].tolist()):
                first[r] = min(first[r], c)
    return [_key_from_code(tables.n, tables.keys.item(f)) if f < m else None for f in first]


def _stacked_costs(
    costs: np.ndarray, orders: np.ndarray, rows: np.ndarray, tables: _Gather
) -> np.ndarray:
    """The costs of the tables' cells on tour orders[r] by cost matrix
    costs[r], one column per r in rows: cell (x, y) of row r is entry
    (r, orders[r, x], orders[r, y]) of the stack."""
    n = orders.shape[1]
    x, y = orders[rows].T.take(tables.cells, axis=0)
    x += rows * n
    x *= n
    x += y
    return costs.take(x)


# ---------------------------------------------------------------------------
# Anchored scan: every move of the plain predicate, and 2-moves under ++.
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
# blocked scan.  Each candidate's gain is exact, the accepted ones map to
# their scan keys by a table read off the generator, and the least key is
# returned: the blocked scan's key.
#
# Under ++ a 2-move is also accepted at gain 0 when it lowers the number of
# isolated vertices (vertices both of whose tour edges are heavy).  Only the
# four ends of its removed edges change their edges, and a vertex stops being
# isolated only by gaining a light added edge, so such a move removes a heavy
# edge at an isolated vertex and adds a light edge there, and is one of the
# 2-moves walked.  The walk leaves heavy x at its end w along a light edge to
# v1, the end of x1 it enters, and u and v2 are the other ends of x and x1.
# Such a move gains at least 0, and gain 0 means a light x1 and a heavy
# added edge (u, v2).  Then u and v1 stay as they were, w stops being
# isolated when the tour edge it keeps is heavy, and v2 ends up isolated
# when the tour edge it keeps is heavy: the move lowers the count exactly
# when w keeps a heavy tour edge and v2 a light one.
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
# Blocked-scan entries that cost as much as one anchored candidate: the plain
# 3-move scan above _GATHER_MAX is anchored when its estimated candidates
# times this are fewer than n^2.  Measured on shuffled-start descents at
# n = 60 to 600: about 130 ns a candidate against 33 ns an entry.
_ANCHOR_COST = 4
def _walk_pids() -> np.ndarray:
    """Key pattern id, or 0 for no move, of each walk by its triple's
    adjacency kind (1: i and j adjacent, 2: j and k adjacent, 4: the wrap
    pair, i = 0 and k = n - 1), read off the generator at one triple of
    positions per kind on 8 vertices.  The walk through removed edges of
    ranks r0, r1, r2 entered at ends a0, a1, a2 is at index 8 (3 r0 + r1) +
    4 a0 + 2 a1 + a2.  The two removed edges of an adjacent pair share a
    vertex, so two walks add the same edges and take the generator's one id,
    and the others add a tour edge; with two adjacencies no move is left."""
    n = 8
    # Pair keys also enter, but their two removed edges match no triple's.
    pids = {(mv.removed, mv.added): key[-1] for key, mv in _keyed_kmoves(identity_tour(n), 3)}
    table = np.zeros((8, 72), dtype=np.intp)
    for kind, pos in ((0, (1, 3, 5)), (1, (1, 2, 5)), (2, (1, 3, 4)), (4, (0, 3, 7))):
        removed = frozenset(canonical_edge(x, (x + 1) % n) for x in pos)
        for ranks in itertools.permutations(range(3)):
            for ins in itertools.product((0, 1), repeat=3):
                # Each removed edge is entered at end a and left at 1 - a.
                ends = [((pos[r] + a) % n, (pos[r] + 1 - a) % n) for r, a in zip(ranks, ins)]
                added = frozenset(canonical_edge(ends[s][1], ends[s - 2][0]) for s in range(3))
                walk = 8 * (3 * ranks[0] + ranks[1]) + 4 * ins[0] + 2 * ins[1] + ins[2]
                table[kind, walk] = pids.get((removed, added), 0)
    return table


_WALK_PID = _walk_pids()


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
    i = np.minimum(np.minimum(p0, p1), p2)
    k = np.maximum(np.maximum(p0, p1), p2)
    j = p0 + p1 + p2 - i - k
    kind = 1 * (j == i + 1) + 2 * (k == j + 1) + 4 * ((i == 0) & (k == n - 1))
    pid = _WALK_PID[kind, 8 * (3 * r0 + r1) + 4 * ins[0] + 2 * ins[1] + ins[2]]
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


def _anchored_candidates(instance: Instance, order: np.ndarray, heavy: np.ndarray) -> float:
    """Estimated candidates of the anchored 3-move scan, in O(l): the light
    edges at the heavy edges' ends, times the walks each starts."""
    indptr = instance.cost1_csr[0]
    x = np.flatnonzero(heavy)
    ends = order[np.concatenate((x, (x + 1) % len(order)))]
    return 4 * int((indptr[ends + 1] - indptr[ends]).sum()) * (indptr[-1] / len(order))


def _anchored_key(
    instance: Instance, order: np.ndarray, heavy: np.ndarray, k: int, plusplus: bool = False
) -> tuple | None:
    """Least accepted scan key of the tour order, or None, from walks that
    start at its heavy edges (heavy, its row of _order_heavy), under the
    plain predicate or, for k = 2, under ++."""
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
        accepted = g1 > cost[v2, u]
        if plusplus:
            # Or, at gain 0, w keeps a heavy tour edge and v2 a light one.
            at_w = heavy.take(x - 1 + 2 * e, mode="wrap")
            accepted |= at_w > heavy.take(x1 + 1 - 2 * a1, mode="wrap")
        pair = (a1 == e) & ((x1 - x + 1) % n > 2) & accepted
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


def _scan_keys(
    instances: list[Instance], costs: np.ndarray, orders: np.ndarray, rows: np.ndarray,
    k: int, plusplus: bool,
) -> list[tuple | None]:
    """Least accepted scan key of tour order orders[r] on instances[r], whose
    cost matrix is costs[r], or None, for each r in rows.

    One stacked gathered scan of the first _GATHER_MAX keys, the whole
    neighborhood up to the cap, finds every row's key that they hold.  Past
    the cap each row whose prefix holds none goes on alone: ++ first reduces
    to the plain predicate on a tour with no isolated vertex, then a 2-move
    scan is anchored, and a 3-move scan is blocked, or under the plain
    predicate anchored when that is estimated cheaper or the blocked scan
    would pass the dense-table cap."""
    n = orders.shape[1]
    tables = _gather_tables(n, k)
    keys = _gathered_key(tables, _stacked_costs(costs, orders, rows, tables), plusplus)
    if neighborhood_size(n, k) <= _GATHER_MAX:
        return keys
    for at, r in enumerate(rows.tolist()):
        if keys[at] is not None:
            continue
        instance, order = instances[r], orders[r]
        heavy = _order_heavy(costs[r : r + 1], orders[r : r + 1])[0]
        # With no isolated vertex no move lowers their count: ++ accepts what plain does.
        pp = plusplus and bool(_isolated(heavy).any())
        if k == 2 or (not pp and (
            _blocked_over_cap(n)
            or _ANCHOR_COST * _anchored_candidates(instance, order, heavy) < n * n
        )):
            keys[at] = _anchored_key(instance, order, heavy, k, pp)
        else:
            keys[at] = _least_key(_position_costs(instance, order), pp)
    return keys


def _blocked_over_cap(n: int) -> bool:
    """Whether the blocked 3-move scan on n vertices would pass the dense-table cap."""
    return n * n * _SCAN_BYTES_PER_ENTRY > DENSE_MAX_BYTES


def _check_scan(n: int, k: int, plusplus: bool) -> None:
    """Refuse a k that names no neighborhood on n vertices, and a 3-move ++
    scan whose blocked tables would pass the dense-table cap, before any
    table is built.

    A plain 3-move scan whose blocked tables would pass it is anchored
    instead, and every 2-move scan is anchored.
    """
    _require_enumerable(n, k)
    if plusplus and k == 3:
        check_dense_size(n, _SCAN_BYTES_PER_ENTRY, "the 3-move scan")


def find_improving(
    instance: Instance, tour: Tour, k: int, plusplus: bool = False
) -> KMove | None:
    """First improving move in enumeration order, or None.

    Improving means gain >= 1; with plusplus also gain = 0 with strictly
    fewer length-0 1-paths afterwards.
    """
    validate_tour(instance, tour)
    _check_scan(instance.n, k, plusplus)
    orders = np.array([tour.order], dtype=np.intp)
    key = _scan_keys([instance], instance.cost_matrix[None], orders, np.arange(1), k, plusplus)[0]
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
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """First-improvement descents of tour orders, orders[r] on instances[r],
    all on n vertices, in lock step.

    Returns the final orders, one row each, each row's iterations (its
    scans, the last of which found no move) and their heavy masks, one
    _order_heavy.  Each step scans every row still descending by _scan_keys
    and applies each row's move by _reconnect.
    """
    orders = np.array(orders, dtype=np.intp)
    n = orders.shape[1]
    iterations = [0] * len(orders)
    active = np.arange(len(orders))
    # One row reads its cost matrix in place, not as an n^2 copy in a stack.
    matrices = [instance.cost_matrix for instance in instances]
    costs = matrices[0][None] if len(matrices) == 1 else np.stack(matrices)
    # Every accepted move lowers (n+1) * cost + isolated vertices by at least
    # 1, from at most 2n^2 + 3n to at least n^2 + n: n^2 + 2n moves at most.
    limit = n**2 + 2 * n + 1
    for step in range(1, limit + 1):
        keys = _scan_keys(instances, costs, orders, active, k, plusplus)
        moving = []
        for r, key in zip(active.tolist(), keys):
            if key is None:
                iterations[r] = step
            else:
                orders[r] = _reconnect(orders[r], key)
                moving.append(r)
        if not moving:
            return orders, iterations, _order_heavy(costs, orders)
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
    orders, iterations, heavy = _descend([instance], [start.order], k, plusplus)
    stats = SearchStats(
        iterations=iterations[0],
        moves_applied=iterations[0] - 1,
        final_cost=instance.n + int(np.count_nonzero(heavy[0])),
        final_zero_paths=int(np.count_nonzero(_isolated(heavy[0]))),
    )
    return Tour(tuple(orders[0].tolist())), stats
