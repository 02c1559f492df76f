"""The structural checks against reference loops over the dense cost matrix.

find_forbidden_constellation, endpoint_pair_violations and property 2 walk
cost-1 neighbour lists.  The references below are direct loops instead:
every offset of the forbidden constellation, every pair of 1-paths, every
pair of good-counter holders.  Both must give the same witness on every
tour, locally optimal or not.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kopt12 import (
    Instance,
    InvalidArgumentError,
    Tour,
    check_counter_properties,
    distribute_counters,
    endpoint_pair_violations,
    find_forbidden_constellation,
    gen_three_opt_lb,
    gen_three_opt_pp_lb,
    held_karp,
    identity_tour,
    local_search,
    one_path_decomposition,
    random_instance,
    structural_checks,
    tour_cost,
)
from kopt12 import cli, moves
from kopt12.analysis import BOUND_PLAIN, BOUND_PP

from conftest import instances


def constellation_reference(instance: Instance, tour: Tour):
    """First (p, q, u, v, a, b) in (u's position, v's offset, a's offset) order."""
    n = instance.n
    if n < 6:
        return None
    o = tour.order
    c = instance.cost_matrix
    heavy = [c[o[i], o[(i + 1) % n]] == 2 for i in range(n)]
    for pu in range(n):
        if not heavy[pu]:
            continue
        u, p = o[pu], o[(pu + 1) % n]
        for off in range(3, n):
            pv = (pu + off) % n
            if not heavy[pv - 1]:
                continue
            v, q = o[pv], o[pv - 1]
            for s in range(1, off - 1):
                a = o[(pu + s) % n]
                b = o[(pu + s + 1) % n]
                if c[a, u] == 1 and c[b, v] == 1:
                    return (p, q, u, v, a, b)
    return None


def endpoint_pairs_reference(instance: Instance, tour: Tour) -> list[tuple[int, int]]:
    """Cost-1 endpoint pairs over every pair of distinct 1-paths, sorted."""
    dec = one_path_decomposition(instance, tour)
    c = instance.cost_matrix
    ends = [sorted({path[0], path[-1]}) for path in dec.paths]
    found = set()
    for ia in range(len(ends)):
        for ib in range(ia + 1, len(ends)):
            for x in ends[ia]:
                for y in ends[ib]:
                    if c[x, y] == 1:
                        found.add((min(x, y), max(x, y)))
    return sorted(found)


def property_2_reference(ledger):
    """Property 2 over every pair of good-counter holders."""
    o = ledger.tour.order
    tnbr = {v: (o[i - 1], o[(i + 1) % len(o)]) for i, v in enumerate(o)}
    goods = sorted(ledger.good_holders)
    for ia, a in enumerate(goods):
        for b in goods[ia + 1 :]:
            if b in tnbr[a]:
                return (a, b)
            for w in sorted(set(tnbr[a]) & set(tnbr[b])):
                if w in ledger.held:
                    return (a, w, b)
    return None


def same_witnesses(instance: Instance, tour: Tour, reference: Tour) -> dict[str, object]:
    """Assert that each check gives its reference's witness; return them."""
    witnesses = {
        "constellation": find_forbidden_constellation(instance, tour),
        "endpoint-pairs": endpoint_pair_violations(
            instance, one_path_decomposition(instance, tour)
        ),
    }
    assert witnesses["constellation"] == constellation_reference(instance, tour)
    assert witnesses["endpoint-pairs"] == endpoint_pairs_reference(instance, tour)
    ledger = distribute_counters(instance, tour, reference)
    witnesses["property-2"] = check_counter_properties(instance, ledger).check(2).witness
    assert witnesses["property-2"] == property_2_reference(ledger)
    return witnesses


def _shuffled(rng: random.Random, n: int) -> Tour:
    order = list(range(n))
    rng.shuffle(order)
    return Tour(tuple(order))


def _three_move(rng: random.Random, tour: Tour) -> Tour:
    """The tour after one random 3-move: segments B and C of A B C D are
    exchanged or reversed."""
    o = tour.order
    i, j, k = sorted(rng.sample(range(1, tour.n + 1), 3))
    a, b, c, d = o[:i], o[i:j], o[j:k], o[k:]
    moved = (a + c + b + d, a + c[::-1] + b + d, a + c + b[::-1] + d, a + b[::-1] + c[::-1] + d)
    return Tour(rng.choice(moved))


def test_default_sweep_tours_match_the_references(default_sweep):
    result, _, checked = default_sweep
    assert len(checked) == sum(r.certified for r in result.records) == 2016
    for instance, tour, optimal_tour, _ in checked:
        assert same_witnesses(instance, tour, optimal_tour) == {
            "constellation": None,
            "endpoint-pairs": [],
            "property-2": None,
        }


def test_default_sweep_records_match_the_one_run_path(default_sweep):
    # The sweep reads costs from its cell's heavy masks and checks each
    # distinct final tour once; each record must be what structural_checks
    # of its own tour, then the ratio-bound rule, give.
    result, _, checked = default_sweep
    assert len(checked) == len(result.records)
    for record, (instance, tour, optimal_tour, predicate) in zip(result.records, checked):
        assert (record.n, record.predicate) == (instance.n, predicate)
        cost, optimum = tour_cost(instance, tour), tour_cost(instance, optimal_tour)
        ok, detail = structural_checks(instance, tour, optimal_tour, predicate)
        ratio = Fraction(cost, optimum)
        if ok and ratio > (BOUND_PP if predicate == "pp" else BOUND_PLAIN):
            ok, detail = False, "ratio-bound"
        assert (record.cost, record.optimum, record.ratio) == (cost, optimum, ratio)
        assert (record.checks_ok, record.detail) == (ok, detail)


@settings(max_examples=150, deadline=None)
@given(instances(min_n=4, max_n=12), st.data())
def test_any_tour_matches_the_references(instance, data):
    tour = Tour(tuple(data.draw(st.permutations(range(instance.n)))))
    reference = Tour(tuple(data.draw(st.permutations(range(instance.n)))))
    same_witnesses(instance, tour, reference)


def test_random_tours_match_the_references_with_every_witness_kind():
    rng = random.Random(7)
    seen = {"constellation": 0, "endpoint-pairs": 0, "neighbours": 0, "shared": 0}
    for case in range(600):
        n = rng.randrange(6, 13)
        instance = random_instance(n, rng.choice((0.3, 0.5, 0.7)), case)
        w = same_witnesses(instance, _shuffled(rng, n), _shuffled(rng, n))
        seen["constellation"] += w["constellation"] is not None
        seen["endpoint-pairs"] += bool(w["endpoint-pairs"])
        if w["property-2"] is not None:
            seen["neighbours" if len(w["property-2"]) == 2 else "shared"] += 1
    assert min(seen.values()) >= 20, seen


def test_tours_one_three_move_from_3_optimal_match_the_references():
    rng = random.Random(11)
    for case in range(80):
        n = rng.randrange(8, 40)
        instance = random_instance(n, rng.choice((3 / n, 0.2, 0.4)), case)
        local, _ = local_search(instance, k=3, seed=case)
        same_witnesses(instance, _three_move(rng, local), local)


@pytest.mark.parametrize(
    "family, s, predicate",
    [
        (gen_three_opt_lb, 125, "plain"),
        (gen_three_opt_lb, 1250, "plain"),
        (gen_three_opt_pp_lb, 1250, "pp"),
    ],
)
def test_structural_checks_pass_on_families_at_scale(family, s, predicate):
    out = family(s)
    assert structural_checks(out.instance, out.tour, out.reference_tour, predicate) == (True, "")


def test_structural_checks_refuse_unknown_predicates():
    instance = random_instance(9, 0.4, 0)
    tour, _ = local_search(instance, k=3)
    optimum = held_karp(instance).tour
    assert structural_checks(instance, tour, optimum, "pp") == (False, "pp-path-limit")
    with pytest.raises(InvalidArgumentError, match="unknown predicate 'Pp'"):
        structural_checks(instance, tour, optimum, "Pp")


@pytest.mark.parametrize(
    "label, p, seed",
    [
        ("property-2", 0.2, 1),
        ("property-3", 0.2, 4),
        ("property-4", 0.2, 48),
        ("forbidden-constellation", 0.5, 67),
        ("endpoint-pair", 0.5, 94),
    ],
)
def test_structural_checks_name_the_first_failed_check(label, p, seed):
    # Seeded shuffles on 6 vertices against the optimum.  Properties 1 and 5
    # and the count bound were never the first failure in 24,000 checks
    # (n = 6..10, shuffled and local-optimum tours, both predicates): the
    # counter placement makes properties 1 and 5 hold, and the count bound
    # follows from the five properties.
    instance = random_instance(6, p, seed)
    reference = held_karp(instance).tour
    tour = Tour(moves._start_order(6, seed))
    assert structural_checks(instance, tour, reference, "plain") == (False, label)


def test_structural_checks_name_a_failed_count_bound(monkeypatch):
    # No tour seen to pass the five properties has failed the count bound
    # (above), so the rung is forced through the name structural_checks
    # looks up.
    instance = random_instance(8, 0.5, 1)
    tour, _ = local_search(instance, k=3)
    reference = held_karp(instance).tour
    assert structural_checks(instance, tour, reference, "plain") == (True, "")
    monkeypatch.setattr(cli, "count_bound_check", lambda ledger: False)
    assert structural_checks(instance, tour, reference, "plain") == (False, "count-bound")


def test_endpoint_pairs_refuse_vertices_outside_the_instance(endpoint_instance):
    dec = one_path_decomposition(endpoint_instance, identity_tour(8))
    with pytest.raises(InvalidArgumentError, match="outside 0..5"):
        endpoint_pair_violations(Instance(6), dec)
