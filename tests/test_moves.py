"""Move enumeration, gains, application, and the first-improvement scan.

The enumeration is checked against an independent oracle: every Hamiltonian
cycle on the same vertices whose edge set differs from the tour in at most
k edges corresponds to exactly one k-move, so both enumerations must
produce identical (removed, added) sets.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings

from kopt12 import (
    Instance,
    InvalidArgumentError,
    InvalidMoveError,
    KMove,
    Tour,
    apply_move,
    canonical_edge,
    certify_k_optimal,
    certify_kpp_optimal,
    count_zero_paths,
    enumerate_kmoves,
    find_improving,
    find_improving_by_enumeration,
    format_kmove,
    gen_three_opt_pp_lb,
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
from kopt12.moves import (
    _PATTERN_ENDS,
    _move_from_key,
    _position_costs,
    _score_terms,
    _triple_block,
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


@settings(max_examples=60)
@given(instance_tour_pairs(min_n=5, max_n=9))
def test_scan_matches_enumeration_reference(pair):
    instance, tour = pair
    for k in (2, 3):
        for plusplus in (False, True):
            fast = find_improving(instance, tour, k, plusplus)
            slow = find_improving_by_enumeration(instance, tour, k, plusplus)
            assert fast == slow


def _assert_scan_matches_along_descent(instance, tour, k, plusplus=True):
    """Compare the scan with the oracle at every step of a descent."""
    steps = 0
    while True:
        fast = find_improving(instance, tour, k, plusplus)
        assert fast == find_improving_by_enumeration(instance, tour, k, plusplus)
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


@pytest.fixture
def one_row_blocks(monkeypatch):
    """Make every triple block a single leading row."""
    monkeypatch.setattr(moves, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(moves, "_MAX_BLOCK", 1)


@pytest.mark.parametrize("plusplus", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_one_row_blocks_match_enumeration_along_descents(one_row_blocks, k, plusplus):
    assert list(moves._row_blocks(7)) == [(i, i + 1) for i in range(7)]
    for n in range(5, 21):
        seed = n * 100 + k * 10 + plusplus
        instance = random_instance(n, (0.1, 0.3, 0.5, 0.7)[n % 4], seed)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        _assert_scan_matches_along_descent(instance, Tour(tuple(order)), k, plusplus)


def _only_moves(n, keys):
    """Identity tour on n vertices whose only improving moves have the given scan keys.

    For each key the removed tour edge at position key[1] costs 2; every
    other tour edge and the moves' added edges cost 1, and no other edge
    does.  Returns the instance, the tour, and the move of the least key.
    """
    tour = identity_tour(n)
    only = [_move_from_key(tour, key) for key in keys]
    heavy = {canonical_edge(key[1], key[1] + 1) for key in keys}
    added = frozenset().union(*(m.added for m in only))
    instance = Instance.from_pairs(n, sorted((tour.edge_set - heavy) | added))
    accepted = [m for m in enumerate_kmoves(tour, 3) if move_gain(instance, tour, m) >= 1]
    assert sorted((m.removed, m.added) for m in accepted) == sorted(
        (m.removed, m.added) for m in only
    )
    # Cost-2 tour edges that share no vertex leave no isolated vertex, so ++
    # accepts the same moves.
    assert count_zero_paths(instance, tour) == 0
    first = only[keys.index(min(keys))]
    return instance, tour, replace(first, gain=move_gain(instance, tour, first))


def _assert_first_found(n, *keys):
    instance, tour, move = _only_moves(n, list(keys))
    for plusplus in (False, True):
        assert find_improving(instance, tour, 3, plusplus) == move
        assert find_improving_by_enumeration(instance, tour, 3, plusplus) == move


@pytest.mark.parametrize("pid", [1, 2, 3, 4])
def test_only_move_in_last_block_one_row(one_row_blocks, pid):
    n = 20
    # The last leading row that holds a non-adjacent triple.
    _assert_first_found(n, (n - 5, n - 3, n - 1, pid))


def test_only_move_in_last_block():
    n = 48
    blocks = list(moves._row_blocks(n))
    assert len(blocks) > 1 and blocks[-1][0] <= n - 5
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


@pytest.mark.parametrize("plusplus", [False, True])
def test_scan_peak_within_byte_budget(plusplus):
    # When the only cost-2 edges are the tour's, nearly every candidate is
    # accepted; the size cap budgets this worst case.
    n = 400
    tour = identity_tour(n)
    heavy = tour.edge_set
    instance = Instance.from_pairs(
        n, (e for e in itertools.combinations(range(n), 2) if e not in heavy)
    )
    instance.cost_matrix  # cached, so only the scan is measured
    tracemalloc.start()
    try:
        assert find_improving(instance, tour, 3, plusplus) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= moves._SCAN_BYTES_PER_ENTRY[3] * n * n


@pytest.mark.parametrize("plusplus", [False, True])
@pytest.mark.parametrize("n", [48, 64])
def test_multi_block_scan_matches_enumeration(n, plusplus):
    assert len(list(moves._row_blocks(n))) > 1
    seed = n + plusplus
    instance = random_instance(n, 6 / n, seed)
    tour, _ = local_search(instance, k=3, plusplus=plusplus, seed=seed)
    # A locally optimal tour: every block is scanned and none accepts.
    assert find_improving(instance, tour, 3, plusplus) is None
    assert find_improving_by_enumeration(instance, tour, 3, plusplus) is None
    # One worsening 2-move away from it, the scan stops at an early block.
    worse = apply_move(tour, _move_from_key(tour, (n - 9, n - 3)))
    assert find_improving(instance, worse, 3, plusplus) == find_improving_by_enumeration(
        instance, worse, 3, plusplus
    )


def test_pp_scan_matches_enumeration_on_merging_family():
    family = gen_three_opt_pp_lb(6)
    instance, tour = family.instance, family.tour
    for k in (2, 3):
        assert find_improving(instance, tour, k, plusplus=True) is None
        assert find_improving_by_enumeration(instance, tour, k, plusplus=True) is None
    order = list(tour.order)
    order[5], order[20] = order[20], order[5]
    perturbed = Tour(tuple(order))
    first = find_improving(instance, perturbed, 3, plusplus=True)
    assert first is not None and first.gain == 0
    _assert_scan_matches_along_descent(instance, perturbed, 3)


def _score_by_key(instance, tour, plusplus):
    """Tabulated score of every k=3 candidate, by scan key."""
    n = instance.n
    terms, adjacent = _score_terms(_position_costs(instance, tour), 3, plusplus)
    pair = terms[0, 0] + terms[1, 1]
    patterns = [_triple_block(terms, ends, 0, n) for ends in _PATTERN_ENDS]
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


def test_local_search_start_tour_handling(hexa):
    start = Tour((3, 4, 5, 1, 2, 0))
    tour, stats = local_search(hexa, start=start, k=2)
    assert tour_cost(hexa, tour) <= tour_cost(hexa, start)
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
