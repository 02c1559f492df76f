"""Instance, tour and 1-path decomposition behaviour."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kopt12 import (
    DuplicateVertexError,
    Instance,
    InvalidArgumentError,
    MissingVertexError,
    Tour,
    WrongLengthError,
    canonical_edge,
    certify_k_optimal,
    certify_kpp_optimal,
    check_counter_properties,
    cost_edge,
    count_zero_paths,
    cycle_from_edges,
    distribute_counters,
    endpoint_pair_violations,
    find_forbidden_constellation,
    find_improving,
    find_improving_by_enumeration,
    gen_three_opt_lb,
    gen_three_opt_pp_lb,
    gen_two_opt_lb,
    identity_tour,
    local_search,
    one_path_decomposition,
    parse_tour,
    pp_path_checks,
    random_instance,
    ratio_report,
    read_tour,
    structural_checks,
    tour_cost,
    validate_tour,
)

from conftest import instance_tour_pairs, instances


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(2, 1) == (1, 2)
    assert canonical_edge(1, 2) == (1, 2)
    assert canonical_edge(0, 7) == (0, 7)


class TestInstanceValidation:
    def test_rejects_tiny_vertex_count(self):
        with pytest.raises(InvalidArgumentError):
            Instance(2, frozenset())

    def test_rejects_non_canonical_pair(self):
        with pytest.raises(InvalidArgumentError):
            Instance(5, frozenset({(2, 1)}))

    def test_rejects_out_of_range_pair(self):
        with pytest.raises(InvalidArgumentError):
            Instance(5, frozenset({(0, 9)}))

    def test_from_pairs_rejects_self_loop(self):
        with pytest.raises(InvalidArgumentError):
            Instance.from_pairs(5, [(3, 3)])

    def test_from_pairs_rejects_duplicates(self):
        with pytest.raises(InvalidArgumentError):
            Instance.from_pairs(5, [(1, 2), (2, 1)])

    def test_from_pairs_canonicalises(self):
        inst = Instance.from_pairs(5, [(3, 1), (0, 4)])
        assert inst.cost1 == frozenset({(1, 3), (0, 4)})


def test_cost_edge_values(hexa):
    assert cost_edge(hexa, 1, 2) == 1
    assert cost_edge(hexa, 2, 1) == 1
    assert cost_edge(hexa, 0, 1) == 2
    with pytest.raises(InvalidArgumentError):
        cost_edge(hexa, 0, 0)
    with pytest.raises(InvalidArgumentError):
        cost_edge(hexa, 0, 6)


@st.composite
def any_density(draw) -> Instance:
    """An instance on 3 to 12 vertices, sparse or, by its complement, dense."""
    instance = draw(instances(min_n=3, max_n=12))
    if draw(st.booleans()):
        n = instance.n
        pairs = {(u, v) for u in range(n) for v in range(u + 1, n)}
        instance = Instance(n, frozenset(pairs - instance.cost1))
    return instance


@example(Instance(3, frozenset()))
@given(any_density())
def test_cost_matrix_matches_cost_edge(instance):
    # Every view of cost1: the neighbour lists, the rows they flatten to and
    # the matrix scattered from those rows.
    m = instance.cost_matrix
    indptr, indices = instance.cost1_csr
    nbrs = instance.cost1_neighbors
    n = instance.n
    assert m.shape == (n, n)
    assert len(nbrs) == n and indptr[0] == 0 and len(indptr) == n + 1
    for u in range(n):
        assert m[u, u] == 0
        assert indices[indptr[u] : indptr[u + 1]].tolist() == list(nbrs[u])
        for v in range(n):
            if v != u:
                assert m[u, v] == cost_edge(instance, u, v) == (1 if v in nbrs[u] else 2)


@pytest.mark.parametrize(
    "instance",
    [
        *(random_instance(n, p, seed) for n in (5, 17, 60) for p in (0, 0.3, 1) for seed in (1, 2)),
        gen_two_opt_lb(21).instance,
        gen_three_opt_lb(3).instance,
        gen_three_opt_pp_lb(4).instance,
    ],
)
def test_cost1_csr_matches_the_cost_matrix(instance):
    # The matrix is scattered from the CSR, so the rows are checked against
    # cost1 itself: each vertex's cost-1 neighbours, ascending.
    rows = [[] for _ in range(instance.n)]
    for u, v in instance.cost1:
        rows[u].append(v)
        rows[v].append(u)
    indptr, indices = instance.cost1_csr
    assert indptr.tolist() == list(itertools.accumulate(map(len, rows), initial=0))
    for v in range(instance.n):
        assert indices[indptr[v] : indptr[v + 1]].tolist() == sorted(rows[v])


def test_cost1_neighbors(hexa):
    assert hexa.cost1_neighbors[2] == (0, 1, 3)
    assert hexa.cost1_neighbors[0] == (2,)


class TestTourValidation:
    def test_wrong_length(self, hexa):
        with pytest.raises(WrongLengthError):
            validate_tour(hexa, Tour((0, 1, 2)))

    def test_duplicate_vertex(self):
        for order in ((0, 1, 2, 3, 4, 4), (0, 1, 1)):
            with pytest.raises(DuplicateVertexError, match="vertex . appears more than once"):
                Tour(order)

    def test_missing_vertex(self):
        for order, gap in (((0, 1, 2, 3, 4, 9), r"\[5\].*\[9\]"), ((0, 1, 3), r"\[2\].*\[3\]")):
            with pytest.raises(MissingVertexError, match="missing vertices " + gap):
                Tour(order)

    def test_accepts_permutation(self, hexa):
        validate_tour(hexa, Tour((5, 3, 1, 0, 2, 4)))


# A permutation of the wrong length for the six-vertex hexa instance, and two
# orders that are no permutation, by the error each raises.
_BAD_ORDERS = {
    WrongLengthError: (0, 1, 2),
    DuplicateVertexError: (0, 1, 2, 3, 4, 4),
    MissingVertexError: (0, 1, 2, 3, 4, 9),
}


# Each public function that takes a tour, called with the bad tour t in one
# tour argument and valid values everywhere else.  The ledger checks and the
# endpoint-pair scan take t through the ledger or decomposition they read.
_TOUR_TAKERS = {
    "find_improving": lambda i, t: find_improving(i, t, 3),
    "find_improving_by_enumeration": lambda i, t: find_improving_by_enumeration(i, t, 3),
    "structural_checks": lambda i, t: structural_checks(i, t, identity_tour(6), "plain"),
    "local_search": lambda i, t: local_search(i, start=t),
    "certify_k_optimal": lambda i, t: certify_k_optimal(i, t, 3),
    "certify_kpp_optimal": lambda i, t: certify_kpp_optimal(i, t, 3),
    "count_zero_paths": count_zero_paths,
    "tour_cost": tour_cost,
    "one_path_decomposition": one_path_decomposition,
    "distribute_counters": lambda i, t: distribute_counters(i, t, identity_tour(6)),
    "distribute_counters_optimal": lambda i, t: distribute_counters(i, identity_tour(6), t),
    "check_counter_properties": lambda i, t: check_counter_properties(
        i, distribute_counters(i, t, identity_tour(6))
    ),
    "pp_path_checks": lambda i, t: pp_path_checks(distribute_counters(i, t, identity_tour(6))),
    "find_forbidden_constellation": find_forbidden_constellation,
    "endpoint_pair_violations": lambda i, t: endpoint_pair_violations(
        i, one_path_decomposition(i, t)
    ),
    "ratio_report": lambda i, t: ratio_report(i, t, identity_tour(6)),
    "ratio_report_reference": lambda i, t: ratio_report(i, identity_tour(6), t),
}


@pytest.mark.parametrize("error", list(_BAD_ORDERS), ids=lambda e: e.__name__)
@pytest.mark.parametrize("call", list(_TOUR_TAKERS))
def test_public_functions_reject_bad_tours(hexa, call, error):
    # Tour refuses an order that is no permutation, so such an order fails
    # before it reaches the call; the short permutation fails in the call.
    with pytest.raises(error):
        _TOUR_TAKERS[call](hexa, Tour(_BAD_ORDERS[error]))


@pytest.mark.parametrize("error", [DuplicateVertexError, MissingVertexError], ids=lambda e: e.__name__)
def test_bad_orders_are_refused_when_built_or_read(tmp_path, error):
    order = _BAD_ORDERS[error]
    text = f"tour {len(order)}\n" + " ".join(map(str, order)) + "\n"
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    for build in (lambda: Tour(order), lambda: parse_tour(text), lambda: read_tour(path)):
        with pytest.raises(error):
            build()


def test_tour_edges_are_canonical():
    t = Tour((2, 0, 3, 1))
    assert list(t.edges()) == [(0, 2), (0, 3), (1, 3), (1, 2)]
    assert t.edge_set == frozenset({(0, 2), (0, 3), (1, 3), (1, 2)})
    assert t.n == 4


def test_identity_tour():
    assert identity_tour(5).order == (0, 1, 2, 3, 4)


class TestCycleFromEdges:
    def test_starts_at_least_vertex_toward_smaller_neighbour(self):
        assert cycle_from_edges([(3, 9), (5, 9), (3, 7), (5, 7)]) == (3, 7, 5, 9)

    @given(st.permutations(range(8)))
    def test_recovers_any_tour(self, order):
        tour = Tour(tuple(order))
        walked = cycle_from_edges(tour.edges())
        assert walked[0] == 0 and walked[1] < walked[-1]
        assert Tour(walked).edge_set == tour.edge_set

    def test_bad_degree(self):
        for edges in ([], [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2), (0, 3)]):
            with pytest.raises(InvalidArgumentError, match="bad degree"):
                cycle_from_edges(edges)

    def test_more_than_one_cycle(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        with pytest.raises(InvalidArgumentError, match="more than one cycle"):
            cycle_from_edges(edges)


def test_tour_cost_hexa(hexa, hexa_tour):
    assert tour_cost(hexa, hexa_tour) == 8


@given(instance_tour_pairs())
def test_tour_cost_equals_edge_sum(pair):
    instance, tour = pair
    expected = sum(cost_edge(instance, u, v) for u, v in tour.edges())
    assert tour_cost(instance, tour) == expected
    heavy = sum(1 for u, v in tour.edges() if cost_edge(instance, u, v) == 2)
    assert tour_cost(instance, tour) == instance.n + heavy


def test_decomposition_hexa(hexa, hexa_tour):
    dec = one_path_decomposition(hexa, hexa_tour)
    assert dec.paths == ((0,), (1, 2, 3, 4, 5))
    assert not dec.whole_cycle
    assert count_zero_paths(hexa, hexa_tour) == 1


def test_decomposition_whole_cycle():
    ring = Instance.from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    dec = one_path_decomposition(ring, identity_tour(6))
    assert dec.whole_cycle
    assert dec.paths == ()
    assert count_zero_paths(ring, identity_tour(6)) == 0


def test_decomposition_all_isolated():
    inst = Instance(5, frozenset())
    dec = one_path_decomposition(inst, identity_tour(5))
    assert dec.paths == ((0,), (1,), (2,), (3,), (4,))
    assert count_zero_paths(inst, identity_tour(5)) == 5


@given(instance_tour_pairs())
def test_decomposition_invariants(pair):
    instance, tour = pair
    dec = one_path_decomposition(instance, tour)
    heavy = sum(1 for u, v in tour.edges() if cost_edge(instance, u, v) == 2)
    if dec.whole_cycle:
        assert heavy == 0
        assert dec.paths == ()
        return
    assert len(dec.paths) == heavy
    seen = [v for path in dec.paths for v in path]
    assert sorted(seen) == list(range(instance.n))
    assert list(dec.paths) == sorted(dec.paths)
    for path in dec.paths:
        assert path <= tuple(reversed(path))
        for a, b in zip(path, path[1:]):
            assert cost_edge(instance, a, b) == 1
            assert canonical_edge(a, b) in tour.edge_set
    boundary = {
        canonical_edge(u, v)
        for u, v in tour.edges()
        if cost_edge(instance, u, v) == 2
    }
    for path in dec.paths:
        for end in (path[0], path[-1]):
            incident = [e for e in boundary if end in e]
            assert incident
