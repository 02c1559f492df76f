"""Certificates, forbidden constellations, and endpoint pair scans."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kopt12 import (
    Instance,
    KMove,
    apply_move,
    certify_k_optimal,
    certify_kpp_optimal,
    count_zero_paths,
    endpoint_pair_violations,
    find_forbidden_constellation,
    identity_tour,
    local_search,
    neighborhood_size,
    one_path_decomposition,
    tour_cost,
)


def test_hexa_not_2_optimal(hexa, hexa_tour):
    cert = certify_k_optimal(hexa, hexa_tour, 2)
    assert cert.verdict == "non-optimal"
    assert cert.k == 2
    assert cert.predicate == "plain"
    assert cert.moves_examined == neighborhood_size(6, 2)
    assert cert.witness == KMove(
        frozenset({(1, 2), (0, 5)}), frozenset({(0, 2), (1, 5)}), gain=1
    )


def test_hexa_not_3_optimal(hexa, hexa_tour):
    cert = certify_k_optimal(hexa, hexa_tour, 3)
    assert cert.verdict == "non-optimal"
    assert cert.moves_examined == neighborhood_size(6, 3)
    assert cert.witness == KMove(
        frozenset({(0, 1), (2, 3), (0, 5)}),
        frozenset({(0, 2), (0, 3), (1, 5)}),
        gain=1,
    )
    improved = apply_move(hexa_tour, cert.witness)
    assert tour_cost(hexa, improved) == 7


def test_merge_fixture_is_3_optimal_but_not_pp(merge_instance):
    tour = identity_tour(8)
    plain = certify_k_optimal(merge_instance, tour, 3)
    assert plain.verdict == "optimal"
    assert plain.witness is None
    assert plain.moves_examined == neighborhood_size(8, 3)
    pp = certify_kpp_optimal(merge_instance, tour, 3)
    assert pp.verdict == "non-optimal"
    assert pp.predicate == "pp"
    assert pp.witness == KMove(
        frozenset({(0, 1), (3, 4)}), frozenset({(0, 3), (1, 4)}), gain=0
    )
    merged = apply_move(tour, pp.witness)
    assert tour_cost(merge_instance, merged) == tour_cost(merge_instance, tour) == 12
    assert count_zero_paths(merge_instance, tour) == 2
    assert count_zero_paths(merge_instance, merged) == 1


def test_merge_descent_under_pp_ends_pp_optimal(merge_instance):
    tour, stats = local_search(merge_instance, k=3, plusplus=True)
    assert certify_kpp_optimal(merge_instance, tour, 3).verdict == "optimal"
    assert stats.final_cost == 12
    assert stats.final_zero_paths < 2


def _endpoint_pairs(instance, tour):
    return endpoint_pair_violations(instance, one_path_decomposition(instance, tour))


def test_endpoint_pair_scan(endpoint_instance, merge_instance, hexa):
    tour8 = identity_tour(8)
    assert _endpoint_pairs(endpoint_instance, tour8) == [(2, 4)]
    assert _endpoint_pairs(merge_instance, tour8) == []
    assert _endpoint_pairs(hexa, identity_tour(6)) == []


def test_endpoint_pair_implies_improving_move(endpoint_instance):
    cert = certify_k_optimal(endpoint_instance, identity_tour(8), 3)
    assert cert.verdict == "non-optimal"
    assert cert.witness == KMove(
        frozenset({(0, 1), (2, 3), (3, 4)}),
        frozenset({(0, 3), (1, 3), (2, 4)}),
        gain=1,
    )


def test_forbidden_constellation_found(constellation_instance):
    tour = identity_tour(8)
    assert find_forbidden_constellation(constellation_instance, tour) == (1, 4, 0, 5, 2, 3)
    assert certify_k_optimal(constellation_instance, tour, 3).verdict == "non-optimal"


def test_forbidden_constellation_absent_cases(constellation_instance):
    assert find_forbidden_constellation(Instance(8, frozenset()), identity_tour(8)) is None
    assert find_forbidden_constellation(Instance(5, frozenset()), identity_tour(5)) is None
    tour, _ = local_search(constellation_instance, k=3)
    assert certify_k_optimal(constellation_instance, tour, 3).verdict == "optimal"
    assert find_forbidden_constellation(constellation_instance, tour) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_certified_tours_have_clean_structure(seed):
    """After descent, no forbidden constellation and no cost-1 endpoint pair."""
    rng = random.Random(seed)
    n = rng.randrange(6, 12)
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45
    ]
    instance = Instance.from_pairs(n, pairs)
    for plusplus in (False, True):
        tour, _ = local_search(instance, k=3, plusplus=plusplus)
        assert find_forbidden_constellation(instance, tour) is None
        assert _endpoint_pairs(instance, tour) == []
