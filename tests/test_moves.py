"""Move enumeration, gains, application, and the first-improvement scan.

The enumeration is checked against an independent oracle: every Hamiltonian
cycle on the same vertices whose edge set differs from the tour in at most
k edges corresponds to exactly one k-move, so both enumerations must
produce identical (removed, added) sets.
"""

from __future__ import annotations

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
    _gather_tables,
    _gathered_key,
    _least_key,
    _move_from_key,
    _position_costs,
    _reconnect,
    _scan_key,
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


# Most candidates of a scan the tests also run through the gather tables:
# the gather is exact at any size, but much larger tables take seconds to
# build.  This covers k = 3 up to n = 20 and k = 2 up to n = 92.
_GATHER_TEST_MAX = 1 << 12


def _anchored(instance, order, k):
    """The anchored scan's key for a tour order (any sequence)."""
    order = np.array(order, dtype=np.intp)
    return _anchored_key(instance, order, _order_heavy(instance, order), k)


def _assert_scans_match(instance, tour, k, plusplus):
    """Check find_improving, the dense scan, the gather and, under the plain
    predicate, the anchored scan against the oracle.

    find_improving takes one of the paths by neighborhood size and tour, so
    each is called directly; each must return the dense scan's key.
    Returns the oracle's move.
    """
    expected = find_improving_by_enumeration(instance, tour, k, plusplus)
    assert find_improving(instance, tour, k, plusplus) == expected
    bare = None if expected is None else replace(expected, gain=None)
    A = _position_costs(instance, tour.order)
    key = _least_key(A, k, plusplus)
    assert (None if key is None else _move_from_key(tour, key)) == bare
    if neighborhood_size(instance.n, k) <= _GATHER_TEST_MAX:
        assert _gathered_key(A[None], k, plusplus) == [key]
    if not plusplus:
        assert _anchored(instance, tour.order, k) == key
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


def _gathered_keys(n, k):
    """The scan key of every column of the gather tables, in column order."""
    return list(_gather_tables(n, k).keys)


@pytest.mark.parametrize("k", [2, 3])
def test_gather_tables_decode_to_enumeration(k):
    for n in _gathered_sizes(k):
        tour = identity_tour(n)
        tables = _gather_tables(n, k)
        keys = _gathered_keys(n, k)
        expected = list(enumerate_kmoves(tour, k))
        assert tables.edges.shape[1] == tables.dz.shape[1] == len(expected) == len(keys)
        assert len(keys) == neighborhood_size(n, k)
        assert not (tables.edges.flags.writeable or tables.dz.flags.writeable)
        for column, mv in enumerate(expected):
            # Index 0 pads a 2-move's third edges: a cached edge (u, v) has u < v.
            removed, added = (
                {divmod(int(f), n + 1) for f in half if f}
                for half in (tables.edges[:3, column], tables.edges[3:, column])
            )
            assert (removed, added) == (mv.removed, mv.added)
            assert _move_from_key(tour, keys[column]) == mv
            # Each removed-edge end with its two edges on the tour, then on
            # the moved tour; slots past the ends hold index 0, A[0, 0].
            ends = sorted({v for e in mv.removed for v in e})
            flat = tables.dz[:, column].reshape(2, 2 * k, 2)
            for edge_set, half in zip((tour.edge_set, apply_move(tour, mv).edge_set), flat):
                assert not half[len(ends) :].any()
                for v, pair in zip(ends, half):
                    assert {divmod(int(f), n + 1) for f in pair} == {e for e in edge_set if v in e}


def test_gather_tables_fit_their_budget():
    # 6 edge and 8k endpoint-edge indices per candidate, each table in the
    # least unsigned type that holds it: 17,674 candidates up to the cap take
    # 0.70 MiB.
    tables = [_gather_tables(n, k) for k in (2, 3) for n in _gathered_sizes(k)]
    arrays = [a for t in tables for a in (t.edges, t.dz)]
    assert all(a.flags.c_contiguous and a.dtype.kind == "u" for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 2**20


def _shuffled_tour(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return Tour(tuple(order))


@pytest.mark.parametrize("k", [2, 3])
def test_reconnect_matches_apply_move(k):
    # Every key of every move, on a canonical and on a shuffled order.
    for n in range(5, 13):
        keys = _gathered_keys(n, k)
        assert len(keys) == neighborhood_size(n, k)
        for tour in (identity_tour(n), _shuffled_tour(n, n * 10 + k)):
            order = np.array(tour.order, dtype=np.intp)
            for key in keys:
                expected = apply_move(tour, _move_from_key(tour, key)).order
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
    while mv is not None:
        chain.append(apply_move(chain[-1] if chain else start, mv))
        mv = find_improving(instance, chain[-1], k, plusplus)
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
        for plusplus in (False, True):
            stack = np.stack([_position_costs(instance, tour.order) for instance, tour in rows])
            keys = _gathered_key(stack, k, plusplus)
            assert len(keys) == len(rows)
            for (instance, tour), key in zip(rows, keys):
                A = _position_costs(instance, tour.order)
                assert _gathered_key(A[None], k, plusplus) == [key]
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
# The anchored plain scan against the blocked scan, the gather tables and the
# enumeration oracle.
# ---------------------------------------------------------------------------


def _blocked_descent(instance, order, k, plusplus=False):
    """Yield (order, blocked key) at every step of a descent, the last with
    key None."""
    while True:
        key = _least_key(_position_costs(instance, order), k, plusplus)
        yield order, key
        if key is None:
            return
        order = _reconnect(order, key)


@pytest.mark.parametrize("k", [2, 3])
def test_anchored_scan_matches_blocked_along_plain_descents(k):
    # Shuffled starts have cost-2 edges at nearly every position, so the
    # selection rule takes the blocked scan first and the anchored one by the
    # end; both scans are compared at every step either way.
    sides = set()
    cases = [(n, p) for n in (14, 20, 31, 47, 64) for p in (3 / n, 6 / n, 0.15, 0.4)]
    cases += [(100, 0.06), (140, 0.04), (200, 0.025)]
    for n, p in cases:
        seed = n * 1000 + int(p * 1000) + k
        instance = random_instance(n, p, seed)
        start = np.array(_shuffled_tour(n, seed).order, dtype=np.intp)
        for order, key in _blocked_descent(instance, start, k):
            heavy = _order_heavy(instance, order)
            assert _anchored_key(instance, order, heavy, k) == key, (n, p, order.tolist())
            sides.add(_ANCHOR_COST[k] * _anchored_candidates(instance, order, heavy, k) < n * n)
    assert sides == {False, True}


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
        for key in _gathered_keys(n, k):
            mv = _move_from_key(tour, key)
            kept = tour.edge_set - mv.removed
            for light in [mv.added, *({e} for e in sorted(mv.added))]:
                instance = Instance(n, frozenset(kept | light))
                expected = _gathered_key(_position_costs(instance, tour.order)[None], k, False)[0]
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
    assert moves._blocked_over_cap(instance.n, 3)
    instance.cost1_csr  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        cert = certify_k_optimal(instance, tour, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "optimal"
    assert peak <= moves._ANCHOR_BYTES_PER_CANDIDATE * moves._ANCHOR_CHUNK


def test_triple_codes_name_each_walk_by_its_move():
    # Every walk through three distinct positions of the identity tour on 13
    # vertices, entered at every choice of ends: a walk whose added edges make
    # a triple of the generator maps to that triple's key, every other walk
    # (a subtour, a tour edge added, two adjacencies) to none.
    n = 13
    tour = identity_tour(n)
    keys = {}
    for key in _gathered_keys(n, 3):
        mv = _move_from_key(tour, key)
        keys[mv.removed, mv.added] = key
    for walk in itertools.permutations(range(n), 3):
        removed = frozenset(canonical_edge(x, (x + 1) % n) for x in walk)
        for ins in itertools.product((0, 1), repeat=3):
            ends = [((x + a) % n, (x + 1 - a) % n) for x, a in zip(walk, ins)]
            added = frozenset(canonical_edge(ends[s][1], ends[s - 2][0]) for s in range(3))
            columns = (tuple(np.array([v]) for v in values) for values in (walk, ins))
            found = [moves._key_from_code(n, int(c)) for c in moves._triple_codes(n, *columns)]
            expected = keys.get((removed, added))
            assert found == ([] if expected is None else [expected]), (walk, ins)


def _key_instance(n, keys):
    """Identity tour on n vertices where, for each key, the removed tour edge
    at position key[1] costs 2; every other tour edge and the keys' added
    edges cost 1, and no other edge does.

    Returns the instance, the tour, the keys' moves, and whether those are
    its only improving moves.
    """
    tour = identity_tour(n)
    only = [_move_from_key(tour, key) for key in keys]
    heavy = {canonical_edge(key[1], key[1] + 1) for key in keys}
    added = frozenset().union(*(m.added for m in only))
    instance = Instance.from_pairs(n, sorted((tour.edge_set - heavy) | added))
    accepted = [m for m in enumerate_kmoves(tour, 3) if move_gain(instance, tour, m) >= 1]
    alone = sorted((m.removed, m.added) for m in accepted) == sorted(
        (m.removed, m.added) for m in only
    )
    return instance, tour, only, alone


def _only_moves(n, keys):
    """Identity tour on n vertices whose only improving moves have the given
    scan keys, built by _key_instance.  Returns the instance, the tour, and
    the move of the least key.
    """
    instance, tour, only, alone = _key_instance(n, keys)
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
    for key in _gathered_keys(n, 3):
        if _key_instance(n, [key])[3]:
            _assert_first_found(n, key)
            found += 1
    assert found == count


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
        if plusplus and s is not None:
            # The family's tour has no isolated vertex, so its certificate
            # takes the plain scan: the blocked ++ scan is called directly.
            assert count_zero_paths(instance, tour) == 0
            key = _least_key(_position_costs(instance, tour.order), 3, True)
            return "optimal" if key is None else "non-optimal"
        certify = certify_kpp_optimal if plusplus else certify_k_optimal
        return certify(instance, tour, 3).verdict

    instance.cost_matrix  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        found = verdict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == ("non-optimal" if s is None else "optimal")
    assert peak <= moves._SCAN_BYTES_PER_ENTRY[3] * instance.n**2


@pytest.mark.parametrize("plusplus", [False, True])
def test_scan_peak_below_n_256_holds_one_row(plusplus):
    # Below n = 256 a triple row has fewer than 2^16 entries, so fixed costs
    # weigh more per n^2 entry.  When the only cost-2 edges are the tour's,
    # row 0 holds an accepted triple and the scan builds no other row: at
    # n = 72 it peaks at 35.8 (plain) and 27.8 (++) bytes per n^2 entry,
    # where building 13 rows at once takes 58.1 and 50.1.
    n = 72
    tour = identity_tour(n)
    instance = Instance.from_pairs(
        n, (e for e in itertools.combinations(range(n), 2) if e not in tour.edge_set)
    )
    certify = certify_kpp_optimal if plusplus else certify_k_optimal
    instance.cost_matrix  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        verdict = certify(instance, tour, 3).verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == "non-optimal"
    assert peak <= 44 * n**2


@pytest.mark.parametrize("plusplus, per_entry", [(False, 8), (True, 10)])
def test_pair_scan_peak_within_byte_budget(plusplus, per_entry):
    # Plain peaks at 7 bytes per n^2 entry only if the scan drops the
    # position costs once their term tables are built; ++ peaks at 9.3.
    family = gen_two_opt_lb(400)
    instance, tour = family.instance, family.tour
    certify = certify_kpp_optimal if plusplus else certify_k_optimal
    instance.cost_matrix  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        certify(instance, tour, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_entry * instance.n**2 <= moves._SCAN_BYTES_PER_ENTRY[2] * instance.n**2


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
    # The tour has no isolated vertex, so find_improving takes the plain scan
    # for k = 3: the blocked ++ scan is called directly.
    assert count_zero_paths(instance, tour) == 0
    for k in (2, 3):
        assert find_improving(instance, tour, k, plusplus=True) is None
        assert find_improving_by_enumeration(instance, tour, k, plusplus=True) is None
        assert _least_key(_position_costs(instance, tour.order), k, True) is None
    order = list(tour.order)
    order[5], order[20] = order[20], order[5]
    perturbed = Tour(tuple(order))
    first = find_improving(instance, perturbed, 3, plusplus=True)
    assert first is not None and first.gain == 0
    _assert_scan_matches_along_descent(instance, perturbed, 3)


# ---------------------------------------------------------------------------
# ++ on tours with no isolated vertex: no move lowers a count of zero, so
# above the gather cap _scan_key runs the plain scan.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
def test_pp_scan_matches_blocked_along_pp_descents(k):
    without = 0
    cases = [(14, 0.3), (20, 0.15), (31, 0.1), (47, 0.1), (47, 0.3), (64, 0.06)]
    cases += [(100, 0.05), (100, 0.1), (140, 0.03), (200, 0.025)]
    for n, p in cases:
        seed = n * 1000 + int(p * 1000) + k
        instance = random_instance(n, p, seed)
        start = np.array(_shuffled_tour(n, seed).order, dtype=np.intp)
        for order, key in _blocked_descent(instance, start, k, True):
            assert _scan_key(instance, order, k, True) == key, (n, p, order.tolist())
            if neighborhood_size(n, k) > moves._GATHER_MAX:
                without += count_zero_paths(instance, Tour(tuple(order.tolist()))) == 0
    assert without > 0


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

    def refuse(A, k, plusplus):
        raise AssertionError("the blocked scan ran")

    monkeypatch.setattr(moves, "_least_key", refuse)
    assert certify_kpp_optimal(family.instance, family.tour, 3).verdict == "optimal"


def _score_by_key(instance, tour, plusplus):
    """Tabulated score of every k=3 candidate, by scan key."""
    n = instance.n
    terms, adjacent = _score_terms(_position_costs(instance, tour.order), 3, plusplus)
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
    assert count_zero_paths(instance, tour) == dec.zero_path_count


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
