"""Exact solvers: dynamic program against brute force."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings

from kopt12 import (
    Instance,
    SizeExceededError,
    Tour,
    brute_force,
    held_karp,
    identity_tour,
    random_instance,
    tour_cost,
    validate_tour,
)
from kopt12 import exact
from kopt12.exact import _held_karp_bytes

from conftest import instances


def test_hexa_optimum(hexa, hexa_optimal):
    for result in (held_karp(hexa), brute_force(hexa)):
        assert result.cost == 7
        assert result.tour == hexa_optimal
        assert tour_cost(hexa, result.tour) == 7
    assert held_karp(hexa).method == "held-karp"
    assert brute_force(hexa).method == "brute-force"


def test_cost_extremes():
    empty = Instance(7, frozenset())
    assert held_karp(empty).cost == 14
    assert held_karp(empty).tour == identity_tour(7)
    complete = Instance.from_pairs(
        5, [(u, v) for u in range(5) for v in range(u + 1, 5)]
    )
    assert held_karp(complete).cost == 5


def test_size_limits():
    with pytest.raises(SizeExceededError, match="GiB"):
        held_karp(Instance(25, frozenset()))
    with pytest.raises(SizeExceededError):
        brute_force(Instance(11, frozenset()))


def test_held_karp_runs_past_sixteen_vertices():
    inst = Instance.from_pairs(17, [(i, i + 1) for i in range(16)] + [(0, 16)])
    assert held_karp(inst).cost == 17


@pytest.mark.parametrize("n", [13, 16, 18])
def test_held_karp_bytes_bound_the_peak(n):
    # n = 13 takes the plan path; its plan is built inside the measured call.
    assert (n <= exact._PLAN_MAX_N) == (n == 13)
    instance = random_instance(n, 0.5, n)
    exact._plan.cache_clear()
    tracemalloc.start()
    try:
        held_karp(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _held_karp_bytes(n)


@settings(max_examples=60, deadline=None)
@given(instances(min_n=5, max_n=9))
def test_methods_agree_and_return_valid_tours(instance):
    a = held_karp(instance)
    b = brute_force(instance)
    assert a.cost == b.cost
    assert a.tour == b.tour
    for result in (a, b):
        validate_tour(instance, result.tour)
        assert tour_cost(instance, result.tour) == result.cost
        assert result.tour.order[0] == 0
        assert result.tour.order[1] < result.tour.order[-1]


@pytest.mark.parametrize("n", [11, 12, 13, 14])
def test_plan_and_loop_paths_agree(monkeypatch, n):
    instances = [random_instance(n, p, n * 100 + s) for p in (0.2, 0.5, 0.8) for s in range(3)]
    monkeypatch.setattr(exact, "_PLAN_MAX_N", n)
    planned = [held_karp(x) for x in instances]
    monkeypatch.setattr(exact, "_PLAN_MAX_N", n - 1)
    looped = [held_karp(x) for x in instances]
    assert planned == looped


def test_optimum_is_a_lower_bound_for_all_tours(hexa):
    import itertools

    best = held_karp(hexa).cost
    costs = [
        tour_cost(hexa, Tour((0,) + perm))
        for perm in itertools.permutations(range(1, 6))
    ]
    assert min(costs) == best
