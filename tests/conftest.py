"""Shared fixtures and hypothesis strategies.

The named fixtures are small instances with hand-checked structure:

  * hexa: the identity tour has one isolated vertex and admits improving
    2- and 3-moves, while the optimum saves exactly one cost unit,
  * merge_instance: the identity tour is 3-optimal but a zero-gain 2-move
    merges one of its two isolated vertices into a longer 1-path,
  * endpoint_instance: two 1-paths whose endpoints are a cost-1 pair,
  * constellation_instance: the identity tour contains the six-vertex
    configuration that forces an improving 3-move.

default_sweep runs the default sweep once per session for every test that
reads its runs.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import strategies as st

from kopt12 import Instance, SweepConfig, Tour, identity_tour, run_sweep, structural_checks
from kopt12 import cli


@st.composite
def instances(draw, min_n: int = 4, max_n: int = 9) -> Instance:
    """An instance with an arbitrary subset of pairs at cost 1."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs)))
    return Instance(n, frozenset(chosen))


@st.composite
def instance_tour_pairs(draw, min_n: int = 4, max_n: int = 9) -> tuple[Instance, Tour]:
    """An instance together with an arbitrary tour on its vertices."""
    instance = draw(instances(min_n=min_n, max_n=max_n))
    order = draw(st.permutations(range(instance.n)))
    return instance, Tour(tuple(order))


@pytest.fixture
def hexa() -> Instance:
    return Instance.from_pairs(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (0, 2)])


@pytest.fixture
def hexa_tour() -> Tour:
    return identity_tour(6)


@pytest.fixture
def hexa_optimal() -> Tour:
    return Tour((0, 1, 5, 4, 3, 2))


@pytest.fixture
def merge_instance() -> Instance:
    return Instance.from_pairs(8, [(2, 3), (3, 4), (4, 5), (6, 7), (0, 3)])


@pytest.fixture
def endpoint_instance() -> Instance:
    return Instance.from_pairs(8, [(1, 2), (4, 5), (2, 4)])


@pytest.fixture
def constellation_instance() -> Instance:
    return Instance.from_pairs(8, [(0, 2), (3, 5)])


@pytest.fixture(scope="session")
def default_sweep():
    """The default sweep, its wall time, and each run's (instance, final
    tour, optimal tour, predicate) in record order, recorded through
    cli.structural_checks."""
    runs = []

    def recording(instance, tour, optimal_tour, predicate):
        runs.append((instance, tour, optimal_tour, predicate))
        return structural_checks(instance, tour, optimal_tour, predicate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "structural_checks", recording)
        start = time.perf_counter()
        result = run_sweep(SweepConfig())
        elapsed = time.perf_counter() - start
    return result, elapsed, runs
