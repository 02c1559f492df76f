"""Move enumeration, gains, application, and the first-improvement scan.

The enumeration is checked against an independent oracle: every Hamiltonian
cycle on the same vertices whose edge set differs from the tour in at most
k edges corresponds to exactly one k-move, so both enumerations must
produce identical (removed, added) sets.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from kopt12 import (
    Instance,
    InvalidArgumentError,
    InvalidMoveError,
    KMove,
    SearchStats,
    Tour,
    apply_move,
    canonical_edge,
    certify_k_optimal,
    certify_kpp_optimal,
    cost_edge,
    count_zero_paths,
    enumerate_kmoves,
    find_improving,
    find_improving_by_enumeration,
    format_kmove,
    gen_three_opt_lb,
    gen_three_opt_pp_lb,
    gen_two_opt_lb,
    identity_tour,
    is_improving_pp,
    local_search,
    move_gain,
    neighborhood_size,
    one_path_decomposition,
    random_instance,
    tour_cost,
)
from kopt12 import moves
from kopt12.core import _order_heavy
from kopt12.moves import (
    _ANCHOR_COST,
    _PATTERN_ENDS,
    _anchored_candidates,
    _anchored_key,
    _first_accepted,
    _gather_tables,
    _gathered_key,
    _keyed_kmoves,
    _least_key,
    _move_from_key,
    _position_costs,
    _reconnect,
    _scan_keys,
    _score_terms,
    _triple_row,
)

from conftest import instance_tour_pairs


def _all_cycle_edge_sets(n: int) -> set[frozenset]:
    """Edge sets of every Hamiltonian cycle on vertices 0..n-1."""
    out = set()
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        out.add(
            frozenset(
                canonical_edge(order[i], order[(i + 1) % n]) for i in range(n)
            )
        )
    return out


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("k", [2, 3])
def test_enumeration_matches_cycle_space(n, k):
    rng = random.Random(n * 17 + k)
    order = list(range(n))
    rng.shuffle(order)
    for tour in (identity_tour(n), Tour(tuple(order))):
        yielded = [(m.removed, m.added) for m in enumerate_kmoves(tour, k)]
        assert len(yielded) == len(set(yielded))
        sizes = (2,) if k == 2 else (2, 3)
        expected = set()
        for cycle in _all_cycle_edge_sets(n):
            removed = tour.edge_set - cycle
            if len(removed) in sizes:
                expected.add((removed, cycle - tour.edge_set))
        assert set(yielded) == expected


def test_enumeration_order_golden():
    # find_improving returns the first accepted move in this order, so the
    # full sequence is pinned, not only the set of moves.
    digest = hashlib.sha256()
    count = 0
    for n in range(5, 13):
        order = list(range(n))
        random.Random(n).shuffle(order)
        for tour in (identity_tour(n), Tour(tuple(order))):
            for k in (2, 3):
                for m in enumerate_kmoves(tour, k):
                    digest.update(repr((sorted(m.removed), sorted(m.added))).encode())
                    count += 1
    assert count == 3880
    assert digest.hexdigest() == "d712cd22d70f1094e20a02e4629b021a6bd3e8415970846b29a39aa453855611"


@pytest.mark.parametrize("n", range(5, 10))
@pytest.mark.parametrize("k", [2, 3])
def test_enumeration_count_matches_formula(n, k):
    count = sum(1 for _ in enumerate_kmoves(identity_tour(n), k))
    assert count == neighborhood_size(n, k)


def test_neighborhood_size_frozen_values():
    assert neighborhood_size(6, 3) == 29
    assert neighborhood_size(24, 2) == 252
    assert neighborhood_size(24, 3) == 6812
    assert neighborhood_size(36, 3) == 25554
    assert neighborhood_size(96, 3) == 549104


def test_enumeration_preconditions():
    with pytest.raises(InvalidArgumentError):
        list(enumerate_kmoves(identity_tour(6), 4))
    with pytest.raises(InvalidArgumentError):
        list(enumerate_kmoves(identity_tour(3), 2))
    with pytest.raises(InvalidArgumentError):
        list(enumerate_kmoves(identity_tour(4), 3))
    with pytest.raises(InvalidArgumentError):
        neighborhood_size(4, 3)


def test_nonadjacent_triple_yields_four_patterns():
    tour = identity_tour(7)
    removed = frozenset({(0, 1), (2, 3), (4, 5)})
    added = {m.added for m in enumerate_kmoves(tour, 3) if m.removed == removed}
    assert added == {
        frozenset({(0, 2), (1, 4), (3, 5)}),
        frozenset({(0, 3), (1, 4), (2, 5)}),
        frozenset({(0, 4), (1, 3), (2, 5)}),
        frozenset({(0, 3), (2, 4), (1, 5)}),
    }


def test_adjacent_pair_triple_yields_one_pattern():
    tour = identity_tour(7)
    removed = frozenset({(0, 1), (1, 2), (3, 4)})
    added = {m.added for m in enumerate_kmoves(tour, 3) if m.removed == removed}
    assert added == {frozenset({(0, 2), (1, 3), (1, 4)})}


def test_triple_group_size_histogram():
    counts: dict[frozenset, int] = {}
    for m in enumerate_kmoves(identity_tour(7), 3):
        if len(m.removed) == 3:
            counts[m.removed] = counts.get(m.removed, 0) + 1
    histogram: dict[int, int] = {}
    for c in counts.values():
        histogram[c] = histogram.get(c, 0) + 1
    assert histogram == {4: 7, 1: 21}


@given(instance_tour_pairs(min_n=5, max_n=7))
def test_move_gain_equals_cost_difference(pair):
    instance, tour = pair
    before = tour_cost(instance, tour)
    for move in enumerate_kmoves(tour, 3):
        after = apply_move(tour, move)
        assert sorted(after.order) == list(range(instance.n))
        assert move_gain(instance, tour, move) == before - tour_cost(instance, after)


@given(instance_tour_pairs(min_n=5, max_n=8))
def test_apply_move_is_involution(pair):
    _, tour = pair
    for move in itertools.islice(enumerate_kmoves(tour, 3), 40):
        there = apply_move(tour, move)
        back = apply_move(there, KMove(removed=move.added, added=move.removed))
        assert back.edge_set == tour.edge_set


class TestApplyMoveErrors:
    def test_removed_not_on_tour(self):
        tour = identity_tour(6)
        move = KMove(frozenset({(0, 2), (3, 5)}), frozenset({(0, 3), (2, 5)}))
        with pytest.raises(InvalidMoveError):
            apply_move(tour, move)

    def test_size_mismatch(self):
        tour = identity_tour(6)
        move = KMove(frozenset({(0, 1), (2, 3)}), frozenset({(0, 2)}))
        with pytest.raises(InvalidMoveError):
            apply_move(tour, move)

    def test_added_collides_with_kept_edge(self):
        tour = identity_tour(6)
        move = KMove(frozenset({(0, 1), (2, 3)}), frozenset({(0, 2), (4, 5)}))
        with pytest.raises(InvalidMoveError):
            apply_move(tour, move)

    def test_added_leaves_vertex_set(self):
        tour = identity_tour(6)
        move = KMove(frozenset({(0, 1), (2, 3)}), frozenset({(0, 2), (1, 9)}))
        with pytest.raises(InvalidMoveError):
            apply_move(tour, move)

    def test_reconnection_splits_tour(self):
        tour = identity_tour(6)
        move = KMove(frozenset({(0, 1), (3, 4)}), frozenset({(0, 4), (1, 3)}))
        with pytest.raises(InvalidMoveError, match="more than one cycle"):
            apply_move(tour, move)

    def test_reconnection_bad_degree(self):
        tour = identity_tour(6)
        move = KMove(frozenset({(0, 1), (3, 4)}), frozenset({(0, 3), (0, 4)}))
        with pytest.raises(InvalidMoveError, match="bad degree"):
            apply_move(tour, move)

    def test_gain_requires_tour_edges(self, hexa):
        move = KMove(frozenset({(0, 2), (3, 5)}), frozenset({(0, 3), (2, 5)}))
        with pytest.raises(InvalidMoveError):
            move_gain(hexa, identity_tour(6), move)


def _gathered(instance, order, k, plusplus):
    """The gathered scan's key for a tour order (any sequence): the first
    accepted key among the first _GATHER_MAX, or None.  The costs of the
    tables' cells are read here, apart from _stacked_costs."""
    tables = _gather_tables(instance.n, k)
    x, y = np.asarray(order)[tables.cells]
    return _gathered_key(tables, instance.cost_matrix[x, y][:, None], plusplus)[0]


def _scanned(instance, order, k, plusplus):
    """find_improving's key for a tour order (an int array): _scan_keys on
    one row."""
    orders = np.asarray(order)[None]
    return _scan_keys([instance], instance.cost_matrix[None], orders, np.arange(1), k, plusplus)[0]


@functools.cache
def _last_gathered_key(n, k):
    """The generator's key at rank _GATHER_MAX - 1, or its last key."""
    *_, (key, _) = itertools.islice(_keyed_kmoves(identity_tour(n), k), moves._GATHER_MAX)
    return key


def _anchored(instance, order, k, plusplus=False):
    """The anchored scan's key for a tour order (any sequence)."""
    order = np.array(order, dtype=np.intp)
    return _anchored_key(instance, order, _order_heavy(instance, order), k, plusplus)


def _pair_key(A, plusplus):
    """The dense pair scan: the least accepted 2-move key on position costs
    A, or None, from one table of the blocked scan's pair scores."""
    n = len(A) - 1
    terms, _ = _score_terms(A, plusplus)
    # Removed positions x < y must be at least two apart on the cycle.
    idx = np.arange(n)
    named = np.less_equal.outer(idx, idx - 2)
    named[0, n - 1] = False
    flat = _first_accepted(np.where(named, terms[0, 0] + terms[1, 1], moves._REJECT))
    return None if flat is None else divmod(flat, n)


def _dense_key(instance, order, k, plusplus):
    """The least accepted key by dense tables over the tour order: the pair
    scan for k = 2, the blocked scan for k = 3."""
    A = _position_costs(instance, order)
    return _pair_key(A, plusplus) if k == 2 else _least_key(A, plusplus)


def _assert_scans_match(instance, tour, k, plusplus):
    """Check find_improving, the dense scan, the gather and, under the plain
    predicate or for k = 2, the anchored scan against the oracle.

    find_improving takes one of the paths by neighborhood size and tour, so
    each is called directly; each must return the dense scan's key, except
    that the gather, which holds the first _GATHER_MAX keys, returns None
    when the key lies past them.  Returns the oracle's move.
    """
    expected = find_improving_by_enumeration(instance, tour, k, plusplus)
    assert find_improving(instance, tour, k, plusplus) == expected
    bare = None if expected is None else replace(expected, gain=None)
    key = _dense_key(instance, tour.order, k, plusplus)
    assert (None if key is None else _move_from_key(tour, key)) == bare
    in_prefix = key is not None and key <= _last_gathered_key(instance.n, k)
    assert _gathered(instance, tour.order, k, plusplus) == (key if in_prefix else None)
    if not plusplus or k == 2:
        assert _anchored(instance, tour.order, k, plusplus) == key
    return expected


@settings(max_examples=60)
@given(instance_tour_pairs(min_n=5, max_n=9))
def test_scan_matches_enumeration_reference(pair):
    instance, tour = pair
    for k in (2, 3):
        for plusplus in (False, True):
            _assert_scans_match(instance, tour, k, plusplus)


def _assert_scan_matches_along_descent(instance, tour, k, plusplus=True):
    """Compare every scan path with the oracle at every step of a descent."""
    steps = 0
    while True:
        fast = _assert_scans_match(instance, tour, k, plusplus)
        steps += 1
        if fast is None:
            return tour, steps
        tour = apply_move(tour, fast)


@pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("k", [2, 3])
def test_pp_scan_matches_enumeration_along_descents(p, k):
    for n in range(10, 21, 2):
        seed = n * 1000 + int(p * 100) * 10 + k
        instance = random_instance(n, p, seed)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        final, steps = _assert_scan_matches_along_descent(instance, Tour(tuple(order)), k)
        expected, stats = local_search(instance, k=k, plusplus=True, seed=seed)
        assert final == expected
        assert steps == stats.iterations


def _gathered_sizes(k):
    """Every n, ascending, whose k-move neighborhood find_improving gathers."""
    first = 4 if k == 2 else 5
    return list(
        itertools.takewhile(
            lambda n: neighborhood_size(n, k) <= moves._GATHER_MAX, itertools.count(first)
        )
    )


def _generated_keys(n, k):
    """The scan key of every move the generator yields on the identity tour
    on n vertices, in its order."""
    return [key for key, _ in _keyed_kmoves(identity_tour(n), k)]


@pytest.mark.parametrize("k", [2, 3])
def test_gather_tables_decode_to_enumeration(k):
    # Every gathered size holds its whole neighborhood; past the cap the
    # tables hold the first _GATHER_MAX moves.
    last = _gathered_sizes(k)[-1]
    for n in _gathered_sizes(k) + [last + 1, last + 7, 3 * last]:
        tour = identity_tour(n)
        tables = _gather_tables(n, k)
        keys = [moves._key_from_code(n, code) for code in tables.keys.tolist()]
        generated = list(itertools.islice(_keyed_kmoves(tour, k), moves._GATHER_MAX))
        expected = [mv for _, mv in generated]
        assert tables.edges.shape[1] == tables.dz.shape[1] == len(expected) == len(tables.keys)
        assert len(keys) == min(neighborhood_size(n, k), moves._GATHER_MAX)
        # The generator yields its keys in key order, the order the scans search.
        assert keys == [key for key, _ in generated] == sorted(set(keys))
        arrays = (tables.cells, tables.edges, tables.dz, tables.keys)
        assert not any(a.flags.writeable for a in arrays)
        cells = list(zip(*tables.cells.tolist()))
        assert len(set(cells)) == len(cells)
        for column, mv in enumerate(expected):
            # The pad (0, 0) fills a 2-move's third edges: a cached edge (u, v) has u < v.
            removed, added = (
                {cells[c] for c in half} - {(0, 0)}
                for half in (tables.edges[:3, column], tables.edges[3:, column])
            )
            assert (removed, added) == (mv.removed, mv.added)
            assert _move_from_key(tour, keys[column]) == mv
            # Each removed-edge end with its two edges on the tour, then on
            # the moved tour; slots past the ends hold the pad, of cost 0.
            ends = sorted({v for e in mv.removed for v in e})
            flat = tables.dz[:, column].reshape(2, 2 * k, 2)
            for edge_set, half in zip((tour.edge_set, apply_move(tour, mv).edge_set), flat):
                assert {cells[c] for c in half[len(ends) :].ravel()} <= {(0, 0)}
                for v, pair in zip(ends, half):
                    assert {cells[c] for c in pair} == {e for e in edge_set if v in e}


def test_gather_tables_fit_their_budget():
    # 6 edge and 8k endpoint-edge indices and one key code per candidate,
    # each table in the least unsigned type that holds it, and 2 intp
    # positions per cell: 17,674 candidates up to the cap take 0.98 MiB, and
    # a prefix of 1,024 past it at most 92.2 KiB (k = 3 at n = 10,000) and
    # 4 KiB of key codes.
    def arrays(tables):
        assert tables.cells.dtype == np.intp
        assert tables.edges.dtype.kind == tables.dz.dtype.kind == tables.keys.dtype.kind == "u"
        return [tables.cells, tables.edges, tables.dz, tables.keys]

    gathered = [a for k in (2, 3) for n in _gathered_sizes(k) for a in arrays(_gather_tables(n, k))]
    assert all(a.flags.c_contiguous for a in gathered)
    assert sum(a.nbytes for a in gathered) <= 2**20
    for k, n in [(2, 47), (2, 2000), (2, 12000), (3, 14), (3, 288), (3, 10000)]:
        *index, keys = arrays(_gather_tables(n, k))
        assert sum(a.nbytes for a in index) <= 96 * 2**10
        assert keys.nbytes <= 4 * 2**10


def _shuffled_tour(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return Tour(tuple(order))


@pytest.mark.parametrize("k", [2, 3])
def test_reconnect_matches_apply_move(k):
    # Every key of every move, on a canonical and on a shuffled order.
    for n in range(5, 13):
        for tour in (identity_tour(n), _shuffled_tour(n, n * 10 + k)):
            order = np.array(tour.order, dtype=np.intp)
            keyed = list(_keyed_kmoves(tour, k))
            assert len(keyed) == neighborhood_size(n, k)
            for key, mv in keyed:
                expected = apply_move(tour, mv).order
                assert tuple(_reconnect(order, key).tolist()) == expected, (n, key)


@pytest.mark.parametrize("plusplus", [False, True])
@pytest.mark.parametrize("k, n", [(2, 9), (3, 9), (3, 13), (2, 14), (3, 14), (3, 20), (3, 100)])
def test_local_search_follows_reference_chain(monkeypatch, k, n, plusplus):
    # n = 9 and 13 scan k = 3 by the gather, 14 and up by rows; p = 6/n.
    seed = n * 10 + k + plusplus
    instance = random_instance(n, 6 / n, seed)
    start = _shuffled_tour(n, seed)
    visited = []

    def recording(order, key):
        new = _reconnect(order, key)
        visited.append(Tour(tuple(new.tolist())))
        return new

    monkeypatch.setattr(moves, "_reconnect", recording)
    tour, stats = local_search(instance, start=start, k=k, plusplus=plusplus)
    chain = []
    mv = find_improving(instance, start, k, plusplus)
    # local_search's own bound on its steps: a scan that keeps returning a
    # move fails here instead of looping.
    for _ in range(n**2 + 2 * n + 1):
        if mv is None:
            break
        chain.append(apply_move(chain[-1] if chain else start, mv))
        mv = find_improving(instance, chain[-1], k, plusplus)
    assert mv is None, "find_improving still finds moves past local_search's bound"
    assert len(chain) >= 2
    assert visited == chain
    assert tour == chain[-1]
    assert stats == SearchStats(
        iterations=len(chain) + 1,
        moves_applied=len(chain),
        final_cost=tour_cost(instance, tour),
        final_zero_paths=count_zero_paths(instance, tour),
    )


@pytest.mark.parametrize("k", [2, 3])
def test_stacked_gather_matches_one_row_and_enumeration(k):
    # Per n, a stack of shuffled tours and of local optima under each
    # predicate, on several instances: under ++ a plain local optimum often
    # has only zero-gain merging moves.
    merging = 0
    for n in range(5, 14):
        rows = []
        for seed, p in enumerate((0.2, 0.4, 0.6), n * 10):
            instance = random_instance(n, p, seed)
            rows.append((instance, _shuffled_tour(n, seed)))
            for plusplus in (False, True):
                rows.append((instance, local_search(instance, k=k, plusplus=plusplus, seed=seed)[0]))
        tables = _gather_tables(n, k)
        costs = np.stack([instance.cost_matrix for instance, _ in rows])
        orders = np.array([tour.order for _, tour in rows])

        def stacked(active, plusplus):
            stack = moves._stacked_costs(costs, orders, active, tables)
            return _gathered_key(tables, stack, plusplus)

        for plusplus in (False, True):
            keys = stacked(np.arange(len(rows)), plusplus)
            assert keys == [_gathered(instance, tour.order, k, plusplus) for instance, tour in rows]
            # Some of the rows, in another order, as a lock-step descent leaves them.
            some = np.arange(len(rows))[::-2]
            assert stacked(some, plusplus) == [keys[r] for r in some.tolist()]
            for (instance, tour), key in zip(rows, keys):
                expected = find_improving_by_enumeration(instance, tour, k, plusplus)
                assert (None if key is None else _move_from_key(tour, key)) == (
                    None if expected is None else replace(expected, gain=None)
                )
                merging += expected is not None and expected.gain == 0
    assert merging


def test_descend_raises_when_one_row_reaches_the_limit(monkeypatch):
    # One row's moves leave its order as it was, so it accepts a move at
    # every step; the other row descends to its local optimum meanwhile.
    n = 8
    instance = random_instance(n, 0.3, 5)
    stuck = _shuffled_tour(n, 1)
    assert stuck.order[0] != 0 and find_improving(instance, stuck, 3) is not None
    finished, stats = local_search(instance, seed=2)
    assert stats.iterations >= 3
    reconnect = moves._reconnect
    visited = []

    def stalling(order, key):
        if tuple(order.tolist()) == stuck.order:
            return order
        new = reconnect(order, key)
        visited.append(tuple(new.tolist()))
        return new

    monkeypatch.setattr(moves, "_reconnect", stalling)
    orders = [stuck.order, moves._start_order(n, 2)]
    with pytest.raises(InvalidMoveError, match=f"after {n * n + 2 * n + 1} iterations"):
        moves._descend([instance, instance], orders, 3, False)
    assert len(visited) == stats.moves_applied
    assert visited[-1] == finished.order


@pytest.mark.parametrize("plusplus", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_lock_step_descents_past_the_gather_cap_match_local_search(monkeypatch, k, plusplus):
    # Shuffled starts and tours one random move from a local optimum, on
    # several instances, descend together; in some step the gathered prefix
    # holds some rows' keys and misses others', which go on to the tail.
    sizes = range(14, 19) if k == 3 else range(47, 51)
    gathered_key = moves._gathered_key
    steps = []

    def recording(tables, costs, pp):
        keys = gathered_key(tables, costs, pp)
        steps.append(keys)
        return keys

    for n in sizes:
        assert neighborhood_size(n, k) > moves._GATHER_MAX
        rng = random.Random(n * 10 + k + plusplus)
        instances, starts = [], []
        for seed, p in enumerate((3 / n, 0.15, 0.3), n * 100):
            instance = random_instance(n, p, seed)
            optimum, _ = local_search(instance, k=k, plusplus=plusplus, seed=seed)
            near = apply_move(optimum, _move_from_key(optimum, _random_key(rng, n, k)))
            instances += [instance] * 2
            starts += [_shuffled_tour(n, seed + 1), near]
        with monkeypatch.context() as patched:
            patched.setattr(moves, "_gathered_key", recording)
            orders, iterations = moves._descend(instances, [t.order for t in starts], k, plusplus)
        for instance, start, order, count in zip(instances, starts, orders, iterations):
            tour, stats = local_search(instance, start=start, k=k, plusplus=plusplus)
            assert (tuple(order.tolist()), count) == (tour.order, stats.iterations), n
    assert any(None in keys and keys.count(None) < len(keys) for keys in steps)


@pytest.mark.parametrize("plusplus", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_scan_matches_enumeration_at_gather_cap(k, plusplus):
    last = _gathered_sizes(k)[-1]
    # The last gathered n and the first dense one.
    for n in (last, last + 1):
        seed = n * 10 + k + plusplus
        instance = random_instance(n, 0.3, seed)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        _assert_scan_matches_along_descent(instance, Tour(tuple(order)), k, plusplus)


@pytest.mark.parametrize("plusplus", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_one_row_blocks_match_enumeration_along_descents(k, plusplus):
    for n in range(5, 21):
        seed = n * 100 + k * 10 + plusplus
        instance = random_instance(n, (0.1, 0.3, 0.5, 0.7)[n % 4], seed)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        _assert_scan_matches_along_descent(instance, Tour(tuple(order)), k, plusplus)


# ---------------------------------------------------------------------------
# The anchored scan against the dense scans, the gather tables and the
# enumeration oracle.
# ---------------------------------------------------------------------------


def _dense_descent(instance, order, k, plusplus=False):
    """Yield (order, dense key) at every step of a descent, the last with
    key None."""
    while True:
        key = _dense_key(instance, order, k, plusplus)
        yield order, key
        if key is None:
            return
        order = _reconnect(order, key)


@pytest.mark.parametrize("k", [2, 3])
def test_anchored_scan_matches_blocked_along_plain_descents(k):
    # Shuffled starts have cost-2 edges at nearly every position, so for
    # k = 3 the selection rule takes the blocked scan first and the anchored
    # one by the end; the dense and anchored scans, and _scan_keys, are
    # compared at every step either way.  Past the gather cap the gathered
    # prefix both holds the key and misses it.
    sides, prefix = set(), set()
    cases = [(n, p) for n in (14, 20, 31, 47, 64) for p in (3 / n, 6 / n, 0.15, 0.4)]
    cases += [(100, 0.06), (140, 0.04), (200, 0.025)]
    for n, p in cases:
        seed = n * 1000 + int(p * 1000) + k
        instance = random_instance(n, p, seed)
        start = np.array(_shuffled_tour(n, seed).order, dtype=np.intp)
        for order, key in _dense_descent(instance, start, k):
            heavy = _order_heavy(instance, order)
            assert _anchored_key(instance, order, heavy, k) == key, (n, p, order.tolist())
            assert _scanned(instance, order, k, False) == key, (n, p, order.tolist())
            if k == 3:
                sides.add(_ANCHOR_COST * _anchored_candidates(instance, order, heavy) < n * n)
            if neighborhood_size(n, k) > moves._GATHER_MAX and key is not None:
                prefix.add(_gathered(instance, order, k, False) == key)
    assert prefix == {False, True}
    assert sides == ({False, True} if k == 3 else set())


@pytest.mark.parametrize("plusplus", [False, True])
def test_pair_scan_matches_dense_oracle_along_descents(plusplus):
    # Past the gather cap every 2-move scan that misses the gathered prefix
    # is anchored; at every step of descents from shuffled starts it returns
    # the dense pair scan's key, under ++ zero-gain merges among them.
    steps = merging = 0
    for n in range(47, 201, 9):
        for p in (3 / n, 6 / n, 0.15):
            seed = n * 1000 + int(p * 1000) + plusplus
            instance = random_instance(n, p, seed)
            start = np.array(_shuffled_tour(n, seed).order, dtype=np.intp)
            for order, key in _dense_descent(instance, start, 2, plusplus):
                assert _scanned(instance, order, 2, plusplus) == key, (n, p, order.tolist())
                steps += 1
                if plusplus and key is not None:
                    tour = Tour(tuple(order.tolist()))
                    merging += move_gain(instance, tour, _move_from_key(tour, key)) == 0
    assert steps >= 5000
    assert not plusplus or merging > 500


def _random_key(rng, n, k):
    """A random scan key of a move on n vertices whose removed edges are
    pairwise apart."""
    while True:
        pos = sorted(rng.sample(range(n), 2 if k == 2 or rng.random() < 0.5 else 3))
        if all(b - a >= 2 for a, b in zip(pos, pos[1:])) and pos[-1] - pos[0] <= n - 2:
            return tuple(pos) if len(pos) == 2 else (*pos, rng.randint(1, 4))


@pytest.mark.parametrize("k, n", [(2, 16), (2, 40), (2, 64), (3, 16), (3, 24), (3, 40)])
def test_anchored_scan_matches_enumeration_near_local_optima(k, n):
    # A local optimum, and tours one random move away from it, hold few
    # accepted moves, so the oracle's first move can lie anywhere.
    rng = random.Random(n * 10 + k)
    instance = random_instance(n, 5 / n, n + k)
    optimum, _ = local_search(instance, k=k, seed=n)
    tours = [optimum] + [
        apply_move(optimum, _move_from_key(optimum, _random_key(rng, n, k))) for _ in range(4)
    ]
    for tour in tours:
        expected = find_improving_by_enumeration(instance, tour, k)
        key = _anchored(instance, tour.order, k)
        assert (None if key is None else _move_from_key(tour, key)) == (
            None if expected is None else replace(expected, gain=None)
        )


@pytest.mark.parametrize("k", [2, 3])
def test_anchored_scan_matches_gather_keys(k):
    # For every move of the identity tour, an instance whose cost-2 edges are
    # the move's removed edges and all of whose added edges cost 1, or only
    # one of them; every other edge of the tour costs 1.  The move is
    # accepted, and the least accepted key is the gather tables' first.
    for n in (5, 6, 7, 9, 13) if k == 3 else (4, 5, 8, 13):
        tour = identity_tour(n)
        for key, mv in _keyed_kmoves(tour, k):
            kept = tour.edge_set - mv.removed
            for light in [mv.added, *({e} for e in sorted(mv.added))]:
                instance = Instance(n, frozenset(kept | light))
                expected = _gathered(instance, tour.order, k, False)
                assert expected is not None and expected <= key
                assert _anchored(instance, tour.order, k) == expected, (n, key, light)


def test_anchored_scan_finds_a_move_with_one_light_added_edge():
    # Cost-2 tour edges at 0, 3, 9 and 15 of 24, and one cost-1 edge off the
    # tour, (3, 16), joining end 0 of edge 3 to end 1 of edge 15.  A triple
    # with both needs its third edge outside 3..15, so the only accepted
    # moves remove 0, 3 and 15 (patterns 2 and 3), of gain 3 - 2.  The walks
    # of case (a) need two cost-1 added edges: only case (b) finds them.
    n = 24

    def instance_with_heavy(*positions):
        heavy = {canonical_edge(x, x + 1) for x in positions}
        return Instance.from_pairs(n, sorted((tour.edge_set - heavy) | {(3, 16)}))

    tour = identity_tour(n)
    instance = instance_with_heavy(0, 3, 9, 15)
    expected = find_improving_by_enumeration(instance, tour, 3)
    assert expected == replace(_move_from_key(tour, (0, 3, 15, 2)), gain=1)
    assert sorted(cost_edge(instance, *e) for e in expected.added) == [1, 2, 2]
    assert _assert_scans_match(instance, tour, 3, False) == expected
    # With edge 2 in place of 0, (3, 16) also joins the ends 1 of edges 2 and
    # 15, and the least key removes the adjacent pair 2, 3 with edge 15; the
    # 2-move (2, 15) is accepted too, but its key is larger.
    instance = instance_with_heavy(2, 3, 9, 15)
    assert _anchored(instance, tour.order, 3) == (2, 3, 15, 2)
    assert _assert_scans_match(instance, tour, 3, False).gain == 1


@pytest.mark.parametrize("key", [(4, 11), (0, 2), (3, 18), (0, 17)])
def test_only_move_is_2_move_with_one_cost_2_edge(key):
    # _only_moves makes the tour edge at key[1] cost 2 and the added edges 1.
    instance, tour, move = _only_moves(20, [key])
    assert move.gain == 1
    for k in (2, 3):
        for plusplus in (False, True):
            assert _assert_scans_match(instance, tour, k, plusplus) == move


def test_anchored_certificate_within_byte_budget():
    # n = 10,000: the blocked scan would need 2.2 GiB, past the cap.
    family = gen_three_opt_lb(1250)
    instance, tour = family.instance, family.tour
    assert moves._blocked_over_cap(instance.n)
    instance.cost1_csr  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        cert = certify_k_optimal(instance, tour, 3)
        peaks = [tracemalloc.get_traced_memory()[1]]
        # A descent of one row reads the 100 MB cost matrix in place.
        tracemalloc.reset_peak()
        final, stats = local_search(instance, start=tour)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert cert.verdict == "optimal"
    assert (final, stats.iterations) == (tour, 1)
    assert max(peaks) <= moves._ANCHOR_BYTES_PER_CANDIDATE * moves._ANCHOR_CHUNK


def test_triple_codes_name_each_walk_by_its_move():
    # Every walk through three distinct positions of the identity tour on 13
    # vertices, entered at every choice of ends: a walk whose added edges make
    # a triple of the generator maps to that triple's key, every other walk
    # (a subtour, a tour edge added, two adjacencies) to none.
    n = 13
    tour = identity_tour(n)
    keys = {(mv.removed, mv.added): key for key, mv in _keyed_kmoves(tour, 3)}
    for walk in itertools.permutations(range(n), 3):
        removed = frozenset(canonical_edge(x, (x + 1) % n) for x in walk)
        for ins in itertools.product((0, 1), repeat=3):
            ends = [((x + a) % n, (x + 1 - a) % n) for x, a in zip(walk, ins)]
            added = frozenset(canonical_edge(ends[s][1], ends[s - 2][0]) for s in range(3))
            columns = (tuple(np.array([v]) for v in values) for values in (walk, ins))
            found = [moves._key_from_code(n, int(c)) for c in moves._triple_codes(n, *columns)]
            expected = keys.get((removed, added))
            assert found == ([] if expected is None else [expected]), (walk, ins)


def _key_instance(n, keys, k=3):
    """Identity tour on n vertices where, for each key, the removed tour edge
    at position key[1] costs 2; every other tour edge and the keys' added
    edges cost 1, and no other edge does.

    Returns the instance, the tour, the keys' moves, and whether those are
    its only improving k-moves.
    """
    tour = identity_tour(n)
    only = [_move_from_key(tour, key) for key in keys]
    heavy = {canonical_edge(key[1], key[1] + 1) for key in keys}
    added = frozenset().union(*(m.added for m in only))
    instance = Instance.from_pairs(n, sorted((tour.edge_set - heavy) | added))
    accepted = [m for m in enumerate_kmoves(tour, k) if move_gain(instance, tour, m) >= 1]
    alone = sorted((m.removed, m.added) for m in accepted) == sorted(
        (m.removed, m.added) for m in only
    )
    return instance, tour, only, alone


def _only_moves(n, keys, k=3):
    """Identity tour on n vertices whose only improving k-moves have the
    given scan keys, built by _key_instance.  Returns the instance, the
    tour, and the move of the least key.
    """
    instance, tour, only, alone = _key_instance(n, keys, k)
    assert alone
    # Cost-2 tour edges that share no vertex leave no isolated vertex, so ++
    # accepts the same moves.
    assert count_zero_paths(instance, tour) == 0
    first = only[keys.index(min(keys))]
    return instance, tour, replace(first, gain=move_gain(instance, tour, first))


def _assert_first_found(n, *keys):
    instance, tour, move = _only_moves(n, list(keys))
    for plusplus in (False, True):
        assert _assert_scans_match(instance, tour, 3, plusplus) == move


@pytest.mark.parametrize("n, count", [(9, 174), (10, 274)])
def test_every_key_that_can_be_the_only_move_is_found(n, count):
    # 2-moves, adjacent pairs both ways round, wrap triples and all four
    # patterns of pairwise apart triples; a key whose instance admits other
    # moves too is skipped.  find_improving gathers at these n, and
    # _assert_scans_match calls the dense scan directly.
    found = 0
    for key in _generated_keys(n, 3):
        if _key_instance(n, [key])[3]:
            _assert_first_found(n, key)
            found += 1
    assert found == count


@pytest.mark.parametrize("k, n", [(3, 14), (3, 20), (2, 47), (2, 60)])
def test_only_move_at_the_gathered_prefix_boundary(k, n):
    # Past the gather cap, the only move at rank _GATHER_MAX - 1, the last
    # of the gathered prefix, and at the ranks just past it, or where a rank
    # admits no lone key the nearest that does.
    keys = _generated_keys(n, k)
    cap = moves._GATHER_MAX
    assert len(keys) > cap + 1
    ranks = []
    for rank in (cap - 1, cap, cap + 1):
        nearest = sorted(range(len(keys)), key=lambda r: (abs(r - rank), r))
        ranks.append(next(r for r in nearest if _key_instance(n, [keys[r]], k)[3]))
    assert ranks[0] < cap <= ranks[-1]
    for rank in ranks:
        instance, tour, move = _only_moves(n, [keys[rank]], k)
        for plusplus in (False, True):
            assert _assert_scans_match(instance, tour, k, plusplus) == move
            gathered = keys[rank] if rank < cap else None
            assert _gathered(instance, tour.order, k, plusplus) == gathered


@pytest.mark.parametrize("pid", [1, 2, 3, 4])
def test_only_move_in_last_block_one_row(pid):
    n = 20
    # The last leading row that holds a non-adjacent triple.
    _assert_first_found(n, (n - 5, n - 3, n - 1, pid))


def test_only_move_in_last_block():
    n = 48
    _assert_first_found(n, (n - 5, n - 3, n - 1, 2))


@pytest.mark.parametrize("y", [2, 9, 17])
def test_only_move_is_adjacent_pair_wrap(y):
    n = 20
    # Adjacent pair (x, x+1) with x = n-1 removes positions n-1 and 0.
    _assert_first_found(n, (0, y, n - 1, 1))


@pytest.mark.parametrize(
    "keys",
    [
        # The wrap key leads with position 0 although its middle position is larger.
        ((0, 12, 19, 1), (2, 3, 8, 2)),
        # Both are pair (x, x+1) plus an edge y < x.  Their keys lead with y,
        # so a search in (x, y) order would reach x = 10 first and pick the second.
        ((2, 16, 17, 2), (6, 10, 11, 2)),
        # An edge y < x leads its key, so it beats the key of an edge y > x
        # whose pair comes first.
        ((3, 17, 18, 2), (5, 6, 13, 2)),
    ],
    ids=["wrap-first", "edge-before-pair", "edge-before-later-edge"],
)
def test_least_of_two_adjacent_pair_moves(keys):
    _assert_first_found(20, *keys)


@pytest.mark.parametrize(
    "plusplus, s",
    [
        pytest.param(False, None, id="False"),
        pytest.param(True, None, id="True"),
        # Certificates of the families' tours (n = 400 and 402) visit every row.
        pytest.param(False, 50, id="certify-three-opt-lb-s50"),
        pytest.param(True, 67, id="certify-three-opt-pp-lb-s67"),
    ],
)
def test_scan_peak_within_byte_budget(plusplus, s):
    if s is None:
        # When the only cost-2 edges are the tour's, nearly every candidate is
        # accepted; the size cap budgets this worst case.
        tour = identity_tour(400)
        instance = Instance.from_pairs(
            400, (e for e in itertools.combinations(range(400), 2) if e not in tour.edge_set)
        )
    else:
        family = (gen_three_opt_pp_lb if plusplus else gen_three_opt_lb)(s)
        instance, tour = family.instance, family.tour

    def verdict():
        if s is None or plusplus:
            # find_improving would not reach the blocked scan, so it is
            # called directly: the identity tour's first accepted key lies
            # in the gathered prefix, and the ++ family's tour has no
            # isolated vertex, so its certificate takes the plain scan.
            assert s is None or count_zero_paths(instance, tour) == 0
            key = _least_key(_position_costs(instance, tour.order), plusplus)
            return "optimal" if key is None else "non-optimal"
        return certify_k_optimal(instance, tour, 3).verdict

    instance.cost_matrix  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        found = verdict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == ("non-optimal" if s is None else "optimal")
    assert peak <= moves._SCAN_BYTES_PER_ENTRY * instance.n**2


@pytest.mark.parametrize("plusplus", [False, True])
def test_scan_peak_below_n_256_holds_one_row(plusplus):
    # Below n = 256 a triple row has fewer than 2^16 entries, so fixed costs
    # weigh more per n^2 entry.  When the only cost-2 edges are the tour's,
    # row 0 holds an accepted triple and the scan builds no other row: at
    # n = 72 it peaks at 35.8 (plain) and 27.8 (++) bytes per n^2 entry,
    # where building 13 rows at once takes 58.1 and 50.1.  find_improving
    # finds that triple in the gathered prefix, so the blocked scan is
    # called directly.
    n = 72
    tour = identity_tour(n)
    instance = Instance.from_pairs(
        n, (e for e in itertools.combinations(range(n), 2) if e not in tour.edge_set)
    )
    instance.cost_matrix  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        key = _least_key(_position_costs(instance, tour.order), plusplus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert key is not None
    assert peak <= 44 * n**2


def _lone_instance(n, p, seed, lone):
    """random_instance(n, p, seed) less every cost-1 edge at vertices below
    lone, which stay isolated in every tour."""
    indptr, light = random_instance(n, p, seed).cost1_csr
    pairs = [(u, v) for u in range(lone, n) for v in light[indptr[u] : indptr[u + 1]].tolist()]
    return Instance.from_pairs(n, [(u, v) for u, v in pairs if u < v])


@pytest.mark.parametrize("plusplus, per_entry", [(False, 8), (True, 10)])
def test_pair_scan_peak_within_byte_budget(plusplus, per_entry):
    # The anchored pair scan holds no n^2 table: at n = 400 the plain
    # certificate peaks at 5.0 bytes per n^2 entry and the ++ one at 0.6,
    # under both the dense tables' old budgets and one chunk's budget.
    family = gen_two_opt_lb(400)
    instance, tour = family.instance, family.tour
    certify = certify_kpp_optimal if plusplus else certify_k_optimal
    instance.cost_matrix, instance.cost1_csr  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        certify(instance, tour, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = moves._ANCHOR_BYTES_PER_CANDIDATE * moves._ANCHOR_CHUNK
    assert peak <= per_entry * instance.n**2 <= budget


def test_pp_pair_certificate_within_chunk_budget():
    # A 2-Opt++ local optimum with isolated vertices: its certificate walks
    # every anchor past the gathered prefix, and holds no n^2 table.
    instance = _lone_instance(300, 0.05, 3, 3)
    tour, _ = local_search(instance, k=2, plusplus=True, seed=1)
    assert count_zero_paths(instance, tour) > 0
    instance.cost_matrix, instance.cost1_csr  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        cert = certify_kpp_optimal(instance, tour, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "optimal"
    assert peak <= moves._ANCHOR_BYTES_PER_CANDIDATE * moves._ANCHOR_CHUNK


@pytest.mark.parametrize("plusplus", [False, True])
def test_pair_scans_build_no_dense_table(monkeypatch, plusplus):
    # Past the gather cap every 2-move scan is anchored, on tours with and
    # without isolated vertices, so neither the position costs nor the
    # blocked scan is reached.
    def refuse(*args):
        raise AssertionError("a dense table was built")

    monkeypatch.setattr(moves, "_least_key", refuse)
    monkeypatch.setattr(moves, "_position_costs", refuse)
    for n in (47, 120):
        instance = _lone_instance(n, 6 / n, n, 2)
        tour, stats = local_search(instance, k=2, plusplus=plusplus, seed=n)
        assert stats.iterations > 1 and count_zero_paths(instance, tour) > 0
        assert find_improving(instance, tour, 2, plusplus) is None
        assert find_improving(instance, _shuffled_tour(n, n), 2, plusplus) is not None


@pytest.mark.parametrize("n", [48, 56, 64])
def test_pp_pair_scan_matches_enumeration_near_local_optima(n):
    # A 2-Opt++ local optimum and tours one random 2-move from it, with and
    # without isolated vertices, past the gather cap: the first accepted move
    # may be a zero-gain merge anywhere in the neighborhood.
    rng = random.Random(n)
    seen = set()
    for seed, p in enumerate((3 / n, 5 / n, 0.15), n * 10):
        instance = random_instance(n, p, seed)
        optimum, _ = local_search(instance, k=2, plusplus=True, seed=seed)
        tours = [optimum] + [
            apply_move(optimum, _move_from_key(optimum, _random_key(rng, n, 2))) for _ in range(6)
        ]
        for tour in tours:
            expected = find_improving_by_enumeration(instance, tour, 2, plusplus=True)
            assert find_improving(instance, tour, 2, plusplus=True) == expected
            gain = None if expected is None else expected.gain
            seen.add((count_zero_paths(instance, tour) > 0, gain))
    assert {(True, None), (True, 0), (True, 1)} <= seen


@pytest.mark.parametrize("plusplus", [False, True])
@pytest.mark.parametrize("n", [48, 64])
def test_multi_block_scan_matches_enumeration(n, plusplus):
    seed = n + plusplus
    instance = random_instance(n, 6 / n, seed)
    tour, _ = local_search(instance, k=3, plusplus=plusplus, seed=seed)
    # A locally optimal tour: every row is scanned and none accepts.
    assert find_improving(instance, tour, 3, plusplus) is None
    assert find_improving_by_enumeration(instance, tour, 3, plusplus) is None
    # One worsening 2-move away from it, the scan stops at an early row.
    worse = apply_move(tour, _move_from_key(tour, (n - 9, n - 3)))
    expected = find_improving_by_enumeration(instance, worse, 3, plusplus)
    assert find_improving(instance, worse, 3, plusplus) == expected
    if not plusplus:
        assert _anchored(instance, tour.order, 3) is None
        key = _anchored(instance, worse.order, 3)
        assert _move_from_key(worse, key) == replace(expected, gain=None)


def test_pp_scan_matches_enumeration_on_merging_family():
    family = gen_three_opt_pp_lb(6)
    instance, tour = family.instance, family.tour
    # The tour has no isolated vertex, so find_improving takes the plain scan:
    # the dense ++ scans are called directly.
    assert count_zero_paths(instance, tour) == 0
    for k in (2, 3):
        assert find_improving(instance, tour, k, plusplus=True) is None
        assert find_improving_by_enumeration(instance, tour, k, plusplus=True) is None
        assert _dense_key(instance, tour.order, k, True) is None
    order = list(tour.order)
    order[5], order[20] = order[20], order[5]
    perturbed = Tour(tuple(order))
    first = find_improving(instance, perturbed, 3, plusplus=True)
    assert first is not None and first.gain == 0
    _assert_scan_matches_along_descent(instance, perturbed, 3)


# ---------------------------------------------------------------------------
# ++ on tours with no isolated vertex: no move lowers a count of zero, so
# past the gathered prefix _scan_keys runs the plain scan.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
def test_pp_scan_matches_blocked_along_pp_descents(k):
    # Past the gather cap the gathered prefix both holds the key and misses
    # it, and some keys it holds have gain 0.
    without = merging = 0
    prefix = set()
    cases = [(14, 0.3), (20, 0.15), (31, 0.1), (47, 0.1), (47, 0.3), (64, 0.06)]
    cases += [(100, 0.05), (100, 0.1), (140, 0.03), (200, 0.025)]
    for n, p in cases:
        seed = n * 1000 + int(p * 1000) + k
        instance = random_instance(n, p, seed)
        start = np.array(_shuffled_tour(n, seed).order, dtype=np.intp)
        for order, key in _dense_descent(instance, start, k, True):
            assert _scanned(instance, order, k, True) == key, (n, p, order.tolist())
            if neighborhood_size(n, k) > moves._GATHER_MAX:
                tour = Tour(tuple(order.tolist()))
                without += count_zero_paths(instance, tour) == 0
                if key is not None:
                    hit = _gathered(instance, order, k, True) == key
                    prefix.add(hit)
                    merging += hit and move_gain(instance, tour, _move_from_key(tour, key)) == 0
    assert without > 0 and merging > 0
    assert prefix == {False, True}


@pytest.mark.parametrize("k, n", [(2, 48), (2, 56), (3, 16), (3, 24), (3, 40)])
def test_pp_scan_without_isolated_vertices_matches_enumeration(k, n):
    # A ++ local optimum and tours one random move away from it; those with
    # no isolated vertex are scanned.
    rng = random.Random(n * 10 + k)
    instance = random_instance(n, 5 / n, n + k)
    optimum, _ = local_search(instance, k=k, plusplus=True, seed=n)
    tours = [optimum] + [
        apply_move(optimum, _move_from_key(optimum, _random_key(rng, n, k))) for _ in range(8)
    ]
    tours = [tour for tour in tours if count_zero_paths(instance, tour) == 0]
    assert len(tours) >= 4
    for tour in tours:
        expected = find_improving_by_enumeration(instance, tour, k, plusplus=True)
        assert find_improving(instance, tour, k, plusplus=True) == expected


def test_pp_certificate_without_isolated_vertices_skips_the_blocked_scan(monkeypatch):
    family = gen_three_opt_pp_lb(50)
    assert count_zero_paths(family.instance, family.tour) == 0

    def refuse(A, plusplus):
        raise AssertionError("the blocked scan ran")

    monkeypatch.setattr(moves, "_least_key", refuse)
    assert certify_kpp_optimal(family.instance, family.tour, 3).verdict == "optimal"


def _score_by_key(instance, tour, plusplus):
    """Tabulated score of every k=3 candidate, by scan key."""
    n = instance.n
    terms, adjacent = _score_terms(_position_costs(instance, tour.order), plusplus)
    pair = terms[0, 0] + terms[1, 1]
    patterns = [np.stack([_triple_row(terms, ends, i) for i in range(n)]) for ends in _PATTERN_ENDS]
    out = {}
    for i in range(n):
        for j in range(i + 2, n):
            if (i, j) == (0, n - 1):
                continue
            out[(i, j)] = int(pair[i, j])
            for kk in range(j + 2, n):
                if (i, kk) == (0, n - 1):
                    continue
                for pid, table in enumerate(patterns, 1):
                    out[(i, j, kk, pid)] = int(table[i, j, kk])
    for x in range(n):
        for y in range(n):
            if 3 <= (y - x) % n <= n - 2:
                # The pair (n-1, 0) wraps and leads with position 0; otherwise
                # the keys order the positions x, x+1 and y.
                if x == n - 1:
                    key = (0, y, n - 1, 1)
                else:
                    key = (x, x + 1, y, 2) if y > x else (y, x, x + 1, 2)
                out[key] = int(adjacent[x, y])
    return out


def _dz_by_key(instance, tour):
    """Tabulated (zero-path change, gain) of every k=3 candidate, by scan key.

    The plain score is the gain and the ++ score is 8 * gain - dz.
    """
    plain = _score_by_key(instance, tour, False)
    pp = _score_by_key(instance, tour, True)
    return {key: (8 * gain - pp[key], gain) for key, gain in plain.items()}


def _isolated(instance, tour):
    o, n, c = tour.order, instance.n, instance.cost_matrix
    return {o[i] for i in range(n) if c[o[i - 1], o[i]] == 2 == c[o[i], o[(i + 1) % n]]}


def test_dz_tables_match_tour_rebuild():
    rng = random.Random(2024)
    # Nonzero cases seen per delicate layout: the middle vertex of an adjacent
    # pair changing state, the x = n-1 remap (positions 0 and n-1 both removed),
    # and a triple whose last removed edge wraps to t[0].
    hits = {"middle vertex": 0, "i=0, k=n-1": 0, "k=n-1, i>0": 0}
    for _ in range(120):
        n = rng.randrange(5, 11)
        instance = random_instance(n, rng.choice([0.1, 0.3, 0.5, 0.7]), rng.randrange(10**6))
        order = list(range(n))
        rng.shuffle(order)
        tour = Tour(tuple(order))
        before = _isolated(instance, tour)
        assert len(before) == count_zero_paths(instance, tour)
        moves = set()
        for key, (value, gain) in _dz_by_key(instance, tour).items():
            mv = _move_from_key(tour, key)
            moves.add((mv.removed, mv.added))
            assert gain == move_gain(instance, tour, mv), key
            after_tour = apply_move(tour, mv)
            assert value == count_zero_paths(instance, after_tour) - len(before), key
            if len(key) == 2 or value == 0:
                continue
            i, _, kk, _ = key
            if kk == n - 1:
                hits["i=0, k=n-1" if i == 0 else "k=n-1, i>0"] += 1
            ends = [v for e in mv.removed for v in e]
            middle = {v for v in ends if ends.count(v) == 2}
            if middle & (before ^ _isolated(instance, after_tour)):
                hits["middle vertex"] += 1
        assert moves == {(m.removed, m.added) for m in enumerate_kmoves(tour, 3)}
    assert all(hits.values()), hits


@given(instance_tour_pairs(min_n=4, max_n=9))
def test_count_zero_paths_matches_decomposition(pair):
    instance, tour = pair
    dec = one_path_decomposition(instance, tour)
    assert count_zero_paths(instance, tour) == sum(len(path) == 1 for path in dec.paths)


@given(instance_tour_pairs(min_n=4, max_n=9))
def test_count_zero_paths_counts_vertices_between_cost_2_edges(pair):
    instance, tour = pair
    o, n = tour.order, tour.n
    isolated = sum(
        cost_edge(instance, o[i - 1], o[i]) == 2 and cost_edge(instance, o[i], o[(i + 1) % n]) == 2
        for i in range(n)
    )
    assert count_zero_paths(instance, tour) == isolated


def test_pp_acceptance_cases(merge_instance):
    tour = identity_tour(8)
    merging = KMove(frozenset({(0, 1), (3, 4)}), frozenset({(0, 3), (1, 4)}))
    assert move_gain(merge_instance, tour, merging) == 0
    assert is_improving_pp(merge_instance, tour, merging)
    worsening = KMove(frozenset({(0, 1), (2, 3)}), frozenset({(0, 2), (1, 3)}))
    assert move_gain(merge_instance, tour, worsening) == -1
    assert not is_improving_pp(merge_instance, tour, worsening)
    worse, undo = apply_move(tour, worsening), KMove(worsening.added, worsening.removed)
    assert move_gain(merge_instance, worse, undo) == 1
    assert is_improving_pp(merge_instance, worse, undo)


def test_local_search_reaches_certified_optimum():
    rng = random.Random(4242)
    for _ in range(8):
        n = rng.randrange(6, 11)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        instance = Instance.from_pairs(n, pairs)
        for plusplus in (False, True):
            tour, stats = local_search(instance, k=3, plusplus=plusplus, seed=rng.randrange(1000))
            assert stats.final_cost == tour_cost(instance, tour)
            assert stats.final_zero_paths == count_zero_paths(instance, tour)
            assert stats.iterations == stats.moves_applied + 1
            certifier = certify_kpp_optimal if plusplus else certify_k_optimal
            assert certifier(instance, tour, 3).verdict == "optimal"


def test_local_search_refuses_a_descent_that_makes_no_progress(monkeypatch, hexa):
    # A reconnection that leaves the order as it was would accept the same
    # move forever; the descent bound turns that into an error.
    monkeypatch.setattr(moves, "_reconnect", lambda order, key: order)
    with pytest.raises(InvalidMoveError, match="after 49 iterations"):
        local_search(hexa, k=3)


def test_local_search_start_tour_handling(hexa):
    start = Tour((3, 4, 5, 1, 2, 0))
    tour, stats = local_search(hexa, start=start, k=2)
    assert tour_cost(hexa, tour) <= tour_cost(hexa, start)
    with pytest.raises(InvalidArgumentError, match="not both"):
        local_search(hexa, start=start, seed=3)
    same_seed_a, _ = local_search(hexa, k=3, seed=11)
    same_seed_b, _ = local_search(hexa, k=3, seed=11)
    assert same_seed_a == same_seed_b


def test_format_parse_kmove_round_trip():
    move = KMove(
        frozenset({(0, 1), (2, 3), (4, 5)}),
        frozenset({(0, 3), (2, 4), (1, 5)}),
        gain=1,
    )
    text = format_kmove(move)
    assert text == "remove (0,1) (2,3) (4,5) add (0,3) (1,5) (2,4) gain 1"


def test_format_kmove_requires_gain():
    with pytest.raises(InvalidArgumentError):
        format_kmove(KMove(frozenset({(0, 1)}), frozenset({(0, 2)})))
