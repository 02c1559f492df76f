"""End to end acceptance checks.

Each test prints exactly one pass or fail line.  Run with -s to see them:

    python3 -m pytest tests/test_acceptance.py -v -s

Every numeric comparison is exact; there are no tolerances.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kopt12 import (
    SweepConfig,
    Tour,
    apply_move,
    brute_force,
    certify_k_optimal,
    certify_kpp_optimal,
    check_counter_properties,
    distribute_counters,
    dual_feasibility_check,
    enumerate_kmoves,
    gen_three_opt_lb,
    gen_three_opt_pp_lb,
    gen_two_opt_lb,
    held_karp,
    is_regular,
    move_gain,
    random_instance,
    ratio_upper_bound,
    tour_cost,
)
from kopt12 import cli
from kopt12.cli import main

# The benchmark pins the SHA-256 of the default sweep report under "sweep".
DIGESTS = Path(__file__).resolve().parents[1] / "benchmark" / "expected_digests.json"


def _verdict(tag: str, problems: list[str], detail: str) -> None:
    status = "PASS" if not problems else "FAIL"
    note = detail if not problems else problems[0]
    print(f"\n{tag}: {status} ({note})")
    assert not problems, f"{tag}: {problems}"


@pytest.fixture(scope="module")
def sweep_outcome(default_sweep):
    """The default sweep, its wall time, and each run's (instance, final
    tour, predicate) in record order, from the session's one sweep."""
    result, elapsed, runs = default_sweep
    return result, elapsed, [(instance, tour, predicate) for instance, tour, _, predicate in runs]


def test_criterion_1_two_opt_lower_bound_family():
    problems: list[str] = []
    start = time.perf_counter()
    ratio_at_24 = None
    for n in range(7, 25):
        fam = gen_two_opt_lb(n)
        expected = n + (n - 2) // 2
        if tour_cost(fam.instance, fam.tour) != expected:
            problems.append(f"n={n} tour cost != {expected}")
        if tour_cost(fam.instance, fam.reference_tour) != n:
            problems.append(f"n={n} reference cost != {n}")
        cert = certify_k_optimal(fam.instance, fam.tour, k=2)
        if cert.verdict != "optimal":
            problems.append(f"n={n} not 2-optimal, witness {cert.witness}")
        if n == 24:
            ratio_at_24 = Fraction(expected, n)
    elapsed = time.perf_counter() - start
    if ratio_at_24 != Fraction(35, 24):
        problems.append(f"ratio at n=24 is {ratio_at_24}, wanted 35/24")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(
        "criterion 1",
        problems,
        f"n=7..24 all 2-optimal, ratio(24)=35/24, {elapsed:.2f}s",
    )


def test_criterion_2_three_opt_lower_bound_family():
    problems: list[str] = []
    examined_at_12 = None
    elapsed_at_12 = None
    for s in (12, 14, 16):
        fam = gen_three_opt_lb(s)
        if tour_cost(fam.instance, fam.tour) != 11 * s:
            problems.append(f"s={s} tour cost != {11 * s}")
        ref_cost = tour_cost(fam.instance, fam.reference_tour)
        if ref_cost > 8 * s + 4:
            problems.append(f"s={s} reference cost {ref_cost} > {8 * s + 4}")
        start = time.perf_counter()
        cert = certify_k_optimal(fam.instance, fam.tour, k=3)
        took = time.perf_counter() - start
        if cert.verdict != "optimal":
            problems.append(f"s={s} not 3-optimal, witness {cert.witness}")
        if s == 12:
            examined_at_12 = cert.moves_examined
            elapsed_at_12 = took
            if Fraction(11 * s, ref_cost) < Fraction(132, 100):
                problems.append(f"s=12 ratio {Fraction(11 * s, ref_cost)} < 132/100")
    if examined_at_12 != 549_104:
        problems.append(f"examined {examined_at_12} moves at s=12, wanted 549104")
    if elapsed_at_12 >= 30.0:
        problems.append(f"s=12 took {elapsed_at_12:.2f}s, budget 30s")
    _verdict(
        "criterion 2",
        problems,
        f"s=12,14,16 all 3-optimal, 549104 moves at s=12 in {elapsed_at_12:.2f}s",
    )


def test_criterion_3_merging_lower_bound_family():
    problems: list[str] = []
    fam = gen_three_opt_pp_lb(6)
    start = time.perf_counter()
    cert = certify_kpp_optimal(fam.instance, fam.tour, k=3)
    elapsed = time.perf_counter() - start
    cost = tour_cost(fam.instance, fam.tour)
    ref_cost = tour_cost(fam.instance, fam.reference_tour)
    if fam.instance.n != 36:
        problems.append(f"n is {fam.instance.n}, wanted 36")
    if cert.verdict != "optimal":
        problems.append(f"not pp-optimal, witness {cert.witness}")
    if cost != 48:
        problems.append(f"tour cost {cost} != 48")
    if ref_cost != 36:
        problems.append(f"reference cost {ref_cost} != 36 (= n, hence optimal)")
    if Fraction(cost, ref_cost) != Fraction(4, 3):
        problems.append(f"ratio {Fraction(cost, ref_cost)} != 4/3")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget 5s")
    _verdict(
        "criterion 3",
        problems,
        f"n=36 pp-optimal, ratio 48/36 = 4/3, {elapsed:.2f}s",
    )


def test_criterion_4_regularity_verdicts():
    problems: list[str] = []
    pp = is_regular("three-opt-pp-lb", 16, 6)
    if not pp.regular:
        problems.append(f"pp family at l=6 reported irregular: {pp}")
    plain8 = is_regular("three-opt-lb", 12, 8)
    if plain8.regular or plain8.condition != 3 or plain8.violation != (1, 87):
        problems.append(f"plain family at l=8 gave {plain8}")
    plain16 = is_regular("three-opt-lb", 6, 16)
    if not plain16.regular:
        problems.append(f"plain family at l=16 reported irregular: {plain16}")
    _verdict(
        "criterion 4",
        problems,
        "pp l=6 regular, plain l=8 irregular (condition 3), plain l=16 regular",
    )


def test_criterion_5_sweep_ratio_bounds(sweep_outcome):
    result, elapsed, tours = sweep_outcome
    problems: list[str] = []
    instances = {(r.n, r.p, r.index) for r in result.records}
    if len(instances) < 500:
        problems.append(f"only {len(instances)} instances, wanted >= 500")
    if len(tours) != len(result.records):
        problems.append(f"{len(tours)} final tours recorded for {len(result.records)} runs")
    # Each run's certificate is its descent's last scan; certify every final
    # tour again here, apart from the sweep.
    for r, (instance, tour, predicate) in zip(result.records, tours):
        certifier = certify_kpp_optimal if predicate == "pp" else certify_k_optimal
        if not r.certified or certifier(instance, tour, 3).verdict != "optimal":
            problems.append(f"descent output not certified at n={r.n} p={r.p} i={r.index}")
            break
    if result.max_ratio_plain > Fraction(11, 8):
        problems.append(f"plain ratio {result.max_ratio_plain} > 11/8")
    if result.max_ratio_pp > Fraction(4, 3):
        problems.append(f"pp ratio {result.max_ratio_pp} > 4/3")
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    _verdict(
        "criterion 5",
        problems,
        f"{len(instances)} instances, worst plain {result.max_ratio_plain}, "
        f"worst pp {result.max_ratio_pp}, {elapsed:.1f}s",
    )


def test_criterion_6_counter_machinery(sweep_outcome, hexa, hexa_tour, hexa_optimal):
    result, _, _ = sweep_outcome
    problems: list[str] = []
    if result.violations != 0:
        problems.append(f"{result.violations} structural violations in sweep")
    bad = [r for r in result.records if not r.checks_ok]
    if bad:
        r = bad[0]
        problems.append(f"checks failed at n={r.n} p={r.p} i={r.index}: {r.detail}")
    ledger = distribute_counters(hexa, hexa_tour, hexa_optimal)
    report = check_counter_properties(hexa, ledger)
    if report.check(4).passed:
        problems.append("property 4 unexpectedly passes on the hexa fixture")
    cert = certify_k_optimal(hexa, hexa_tour, k=3)
    if cert.verdict != "non-optimal" or cert.witness.gain != 1:
        problems.append(f"hexa fixture certification gave {cert.verdict}")
    _verdict(
        "criterion 6",
        problems,
        f"all {len(result.records)} sweep records structurally clean, "
        "hexa contrapositive holds",
    )


def test_cli_sweep_report_matches_benchmark_digest(sweep_outcome, monkeypatch, tmp_path, capsys):
    result, _, _ = sweep_outcome
    configs: list[SweepConfig] = []

    def recorded_sweep(config: SweepConfig):
        configs.append(config)
        return result

    monkeypatch.setattr(cli, "run_sweep", recorded_sweep)
    report = tmp_path / "sweep.txt"
    rc = main(["sweep", "--report", str(report)])
    capsys.readouterr()
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))["sweep"]
    actual = hashlib.sha256(report.read_bytes()).hexdigest()
    problems: list[str] = []
    if rc != 0:
        problems.append(f"sweep exited {rc}")
    if configs != [SweepConfig()]:
        problems.append(f"sweep ran with {configs}, not the default grid")
    if actual != pinned:
        problems.append(f"report SHA-256 {actual} != pinned {pinned}")
    _verdict("sweep report", problems, f"default grid report matches digest {pinned[:8]}")


def test_criterion_7_dual_feasibility():
    problems: list[str] = []
    report = dual_feasibility_check(10_000)
    if not report.ok or report.first_violation is not None:
        problems.append(f"dual infeasible: {report.first_violation}")
    if report.slack_by_residue != {0: (12,), 1: (0,), 2: (0,)}:
        problems.append(f"slack pattern {report.slack_by_residue}")
    if ratio_upper_bound(Fraction(12, 5)) != Fraction(11, 8):
        problems.append("ratio_upper_bound(12/5) != 11/8")
    if ratio_upper_bound(2) != Fraction(4, 3):
        problems.append("ratio_upper_bound(2) != 4/3")
    _verdict(
        "criterion 7",
        problems,
        "feasible through i=10000, slack 12/0/0 by residue, bounds 11/8 and 4/3",
    )


def test_criterion_8_oracle_equivalence():
    problems: list[str] = []
    rng = random.Random(20_260_823)
    for trial in range(200):
        n = rng.randrange(5, 10)
        instance = random_instance(n, rng.choice((0.3, 0.5, 0.7)), rng.randrange(10**9))
        dp = held_karp(instance)
        bf = brute_force(instance)
        if dp.cost != bf.cost:
            problems.append(f"trial {trial}: held-karp {dp.cost} != brute {bf.cost}")
            break
        if tour_cost(instance, dp.tour) != dp.cost:
            problems.append(f"trial {trial}: held-karp tour does not price at {dp.cost}")
            break
        if tour_cost(instance, bf.tour) != bf.cost:
            problems.append(f"trial {trial}: brute tour does not price at {bf.cost}")
            break
    moves_checked = 0
    for trial in range(30):
        n = rng.randrange(5, 9)
        instance = random_instance(n, 0.5, rng.randrange(10**9))
        order = list(range(n))
        rng.shuffle(order)
        tour = Tour(tuple(order))
        before = tour_cost(instance, tour)
        for move in enumerate_kmoves(tour, 3):
            after_tour = apply_move(tour, move)
            gain = move_gain(instance, tour, move)
            if tour_cost(instance, after_tour) != before - gain:
                problems.append(f"trial {trial}: gain mismatch for {move}")
                break
            moves_checked += 1
        if problems:
            break
    _verdict(
        "criterion 8",
        problems,
        f"200 solver agreements, {moves_checked} moves re-priced exactly",
    )
