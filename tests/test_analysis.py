"""Counter distribution, placement properties, and the ratio arithmetic."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kopt12 import (
    Counter,
    CounterLedger,
    Instance,
    InvalidArgumentError,
    PropertyCheck,
    Tour,
    canonical_edge,
    check_counter_properties,
    count_bound_check,
    distribute_counters,
    dual_feasibility_check,
    dual_slack,
    gb_values,
    gen_three_opt_pp_lb,
    identity_tour,
    local_search,
    one_path_decomposition,
    pp_path_checks,
    ratio_report,
    ratio_upper_bound,
)
from kopt12 import analysis

from conftest import instances


def test_hexa_ledger_frozen(hexa, hexa_tour, hexa_optimal):
    ledger = distribute_counters(hexa, hexa_tour, hexa_optimal)
    assert (ledger.h, ledger.l, ledger.f) == (4, 2, 1)
    assert (ledger.total, ledger.good_total, ledger.bad_total) == (5, 2, 3)
    assert ledger.counters == (
        Counter("good", 2, 0, (0, 2)),
        Counter("good", 2, 0, (0, 2)),
        Counter("bad", 5, 1, (1, 5)),
        Counter("bad", 1, 1, (1, 5)),
        Counter("bad", 4, 1, (4, 5)),
    )
    assert ledger.decomposition.paths == ((0,), (1, 2, 3, 4, 5))


def test_hexa_property_report(hexa, hexa_tour, hexa_optimal):
    ledger = distribute_counters(hexa, hexa_tour, hexa_optimal)
    report = check_counter_properties(hexa, ledger)
    assert [report.check(i).passed for i in range(1, 6)] == [
        True,
        True,
        True,
        False,
        True,
    ]
    assert report.check(4).witness == (1, 2)
    assert not report.all_pass
    with pytest.raises(InvalidArgumentError):
        report.check(6)


def test_hexa_count_bound(hexa, hexa_tour, hexa_optimal):
    ledger = distribute_counters(hexa, hexa_tour, hexa_optimal)
    assert count_bound_check(ledger)


def test_count_bound_fails_on_overfull_ledger():
    filler = tuple(Counter("bad", 0, 0, (0, 1)) for _ in range(3))
    ledger = CounterLedger(
        counters=filler,
        h=1,
        l=4,
        f=0,
        tour=identity_tour(5),
        decomposition=one_path_decomposition(Instance(5, frozenset()), identity_tour(5)),
    )
    assert not count_bound_check(ledger)


def test_whole_cycle_tour_gets_no_counters():
    ring = Instance.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    ledger = distribute_counters(ring, identity_tour(5), identity_tour(5))
    assert ledger.counters == ()
    assert (ledger.h, ledger.l, ledger.f) == (5, 0, 0)
    report = check_counter_properties(ring, ledger)
    assert report.all_pass


def test_gb_values_frozen_table():
    table = {i: (gb_values(i).g, gb_values(i).b) for i in range(13)}
    assert table == {
        0: (0, 0),
        1: (0, 2),
        2: (4, 0),
        3: (4, 2),
        4: (4, 6),
        5: (8, 4),
        6: (8, 6),
        7: (8, 10),
        8: (12, 8),
        9: (12, 10),
        10: (12, 14),
        11: (16, 12),
        12: (16, 14),
    }
    with pytest.raises(InvalidArgumentError):
        gb_values(-1)


def test_dual_slack_pattern():
    assert [dual_slack(i) for i in range(1, 7)] == [0, 0, 12, 0, 0, 12]


def test_dual_feasibility():
    report = dual_feasibility_check(10_000)
    assert report.ok
    assert report.first_violation is None
    assert report.slack_by_residue == {0: (12,), 1: (0,), 2: (0,)}
    with pytest.raises(InvalidArgumentError):
        dual_feasibility_check(0)


def test_dual_feasibility_reports_the_first_violation(monkeypatch):
    # With y1 = 0 every constraint 0 - 12 b - 12 >= 15 g fails, from i = 1 on.
    monkeypatch.setattr(analysis, "_DUAL_Y", (0, 12, 3))
    report = dual_feasibility_check(10)
    assert not report.ok
    assert report.first_violation == 1
    assert report.slack_by_residue[1][-1] < 0


def test_ratio_upper_bound_values():
    assert ratio_upper_bound(Fraction(12, 5)) == Fraction(11, 8)
    assert ratio_upper_bound(2) == Fraction(4, 3)
    assert ratio_upper_bound(4) == Fraction(3, 2)
    assert ratio_upper_bound(0) == 1
    with pytest.raises(InvalidArgumentError):
        ratio_upper_bound(-1)


def test_pp_path_checks_flags_hexa(hexa, hexa_tour, hexa_optimal):
    ledger = distribute_counters(hexa, hexa_tour, hexa_optimal)
    report = pp_path_checks(ledger)
    assert not report.passed
    kinds = {(v.kind, v.path_index) for v in report.violations}
    assert ("good-path-length", 1) in kinds


def test_pp_path_checks_pass_on_merging_family():
    fam = gen_three_opt_pp_lb(2)
    ledger = distribute_counters(fam.instance, fam.tour, fam.reference_tour)
    assert pp_path_checks(ledger).passed
    assert ledger.total <= 2 * ledger.h


@settings(max_examples=200, deadline=None)
@given(instances(min_n=4, max_n=10), st.data())
def test_pp_path_limits_bound_the_counters_by_2h(instance, data):
    """The 1-paths partition the vertices, so once every path with x edges
    carries at most 2x counters, the total is at most 2h."""
    tour, reference = (
        Tour(tuple(data.draw(st.permutations(range(instance.n))))) for _ in range(2)
    )
    ledger = distribute_counters(instance, tour, reference)
    if pp_path_checks(ledger).passed:
        assert ledger.total <= 2 * ledger.h


def test_merging_family_ledger_is_all_bad():
    """Every path endpoint has two cost-1 reference neighbors, no singletons."""
    fam = gen_three_opt_pp_lb(2)
    ledger = distribute_counters(fam.instance, fam.tour, fam.reference_tour)
    assert (ledger.total, ledger.good_total, ledger.bad_total) == (16, 0, 16)
    assert ledger.h == 8
    report = check_counter_properties(fam.instance, ledger)
    assert report.all_pass


def test_ratio_report_hexa(hexa, hexa_tour, hexa_optimal):
    report = ratio_report(hexa, hexa_tour, hexa_optimal)
    assert report.cost_tour == 8
    assert report.cost_reference == 7
    assert report.ratio == Fraction(8, 7)
    assert (report.h, report.l, report.f) == (4, 2, 1)
    assert report.bound_plain == Fraction(11, 8)
    assert report.bound_pp == Fraction(4, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_certified_tours_satisfy_all_properties(seed):
    """Descent output passes every placement property and the count bound."""
    rng = random.Random(seed)
    n = rng.randrange(6, 11)
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    instance = Instance.from_pairs(n, pairs)
    from kopt12 import held_karp

    optimum = held_karp(instance)
    for plusplus in (False, True):
        tour, stats = local_search(instance, k=3, plusplus=plusplus)
        ledger = distribute_counters(instance, tour, optimum.tour)
        report = check_counter_properties(instance, ledger)
        assert report.all_pass
        assert count_bound_check(ledger)
        bound = Fraction(4, 3) if plusplus else Fraction(11, 8)
        assert Fraction(stats.final_cost, optimum.cost) <= bound
        if plusplus:
            assert pp_path_checks(ledger).passed
            assert ledger.total <= 2 * ledger.h


def test_distribute_validates_tours(hexa):
    with pytest.raises(Exception):
        distribute_counters(hexa, Tour((0, 1, 2)), identity_tour(6))


def _one_path_ledger(counters) -> tuple[Instance, CounterLedger]:
    """A hand-built ledger on n=8 whose tour is one 1-path of seven edges."""
    pairs = [(v, v + 1) for v in range(7)]
    instance = Instance.from_pairs(8, pairs)
    tour = identity_tour(8)
    ledger = CounterLedger(
        counters=tuple(counters),
        h=7,
        l=1,
        f=0,
        tour=tour,
        decomposition=one_path_decomposition(instance, tour),
    )
    return instance, ledger


def test_property_1_fails_on_three_via_edges():
    instance, ledger = _one_path_ledger(
        Counter("bad", 3, 0, canonical_edge(3, w)) for w in (0, 5, 6)
    )
    assert check_counter_properties(instance, ledger).check(1) == PropertyCheck(
        False, (3,)
    )


def test_property_1_fails_on_single_good_counter():
    instance, ledger = _one_path_ledger([Counter("good", 3, 0, (3, 6))])
    assert check_counter_properties(instance, ledger).check(1) == PropertyCheck(
        False, (3, (3, 6))
    )


def test_property_5_fails_on_five_bad_counters_from_one_path():
    instance, ledger = _one_path_ledger(
        Counter("bad", v, 0, (0, v)) for v in (2, 3, 4, 5, 6)
    )
    report = check_counter_properties(instance, ledger)
    assert report.check(5) == PropertyCheck(False, (0, 5))
    assert report.check(1).passed


# SHA-256 over the analysis of 300 seeded random (instance, tour, reference)
# triples, every third tour descended first: ledger tallies and counters,
# the five property checks, the ++ path checks and the ratio report.
ANALYSIS_GOLDEN = "b17e2f7beb2ff6d0fb2cd5058d2e58f61da9d439aa08f4b8012b0f413451b729"


def test_analysis_golden_digest():
    rng = random.Random(2021)
    digest = hashlib.sha256()
    fails = [0] * 6
    for trial in range(300):
        n = rng.randrange(5, 11)
        p = rng.choice((0.3, 0.5, 0.7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        instance = Instance.from_pairs(n, pairs)
        tour, reference = (Tour(tuple(rng.sample(range(n), n))) for _ in range(2))
        if trial % 3 == 0:
            tour, _ = local_search(instance, start=tour, k=3, plusplus=trial % 2 == 0)
        ledger = distribute_counters(instance, tour, reference)
        report = check_counter_properties(instance, ledger)
        for i, check in enumerate(report.checks, 1):
            fails[i] += not check.passed
        record = (
            (ledger.h, ledger.l, ledger.f, ledger.total, ledger.good_total, ledger.bad_total),
            ledger.counters,
            report,
            pp_path_checks(ledger),
            ratio_report(instance, tour, reference),
        )
        digest.update(repr(record).encode())
    # Properties 2, 3 and 4 each fail on some triples, so the digest pins
    # their witnesses and not only passing reports.
    assert all(fails[i] for i in (2, 3, 4)), fails
    assert digest.hexdigest() == ANALYSIS_GOLDEN
