"""Command line surface, exercised in process through main()."""

from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from kopt12 import (
    RunRecord,
    SweepConfig,
    SweepResult,
    certify_k_optimal,
    certify_kpp_optimal,
    find_improving_by_enumeration,
    held_karp,
    local_search,
    random_instance,
    read_instance,
    read_tour,
    run_sweep,
    structural_checks,
    tour_cost,
)
from kopt12.analysis import BOUND_PLAIN, BOUND_PP
from kopt12 import analysis, cli, moves
from kopt12.core import check_dense_size
from kopt12.cli import main

HEXA_PAIRS = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (0, 2)]


def write_hexa(tmp_path: Path) -> tuple[str, str]:
    inst = tmp_path / "hexa.txt"
    tour = tmp_path / "hexa_tour.txt"
    lines = ["p12tsp 6"] + [f"e {u} {v}" for u, v in sorted(HEXA_PAIRS)]
    inst.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tour.write_text("tour 6\n0 1 2 3 4 5\n", encoding="utf-8")
    return str(inst), str(tour)


def run(capsys, argv: list[str]) -> tuple[int, list[str]]:
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out.splitlines()


class TestGen:
    def test_two_opt_family_files(self, capsys, tmp_path):
        gi = tmp_path / "gi.txt"
        gt = tmp_path / "gt.txt"
        gr = tmp_path / "gr.txt"
        rc, lines = run(
            capsys,
            [
                "gen",
                "--family",
                "two-opt-lb",
                "--n",
                "8",
                "--out-instance",
                str(gi),
                "--out-tour",
                str(gt),
                "--out-reference",
                str(gr),
            ],
        )
        assert rc == 0
        assert lines == [
            "family=two-opt-lb",
            "n=8",
            "tour_cost=11",
            "reference_cost=8",
            "reference_bound=8",
        ]
        instance = read_instance(gi)
        assert tour_cost(instance, read_tour(gt)) == 11
        assert tour_cost(instance, read_tour(gr)) == 8

    def test_random_is_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        argv = ["gen", "--family", "random", "--n", "9", "--p", "0.4", "--seed", "5"]
        rc1, lines1 = run(capsys, argv + ["--out-instance", str(a)])
        rc2, lines2 = run(capsys, argv + ["--out-instance", str(b)])
        assert rc1 == rc2 == 0
        assert lines1 == lines2
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")
        assert lines1[0] == "family=random"

    def test_missing_n_is_usage_error(self, capsys):
        rc, _ = run(capsys, ["gen", "--family", "two-opt-lb"])
        assert rc == 2

    def test_random_rejects_tour_output(self, capsys, tmp_path):
        rc, _ = run(
            capsys,
            [
                "gen",
                "--family",
                "random",
                "--n",
                "8",
                "--p",
                "0.5",
                "--seed",
                "1",
                "--out-tour",
                str(tmp_path / "t.txt"),
            ],
        )
        assert rc == 2


class TestSolve:
    def test_hexa_descent(self, capsys, tmp_path):
        inst, _ = write_hexa(tmp_path)
        out_tour = tmp_path / "solved.txt"
        rc, lines = run(
            capsys,
            ["solve", "--instance", inst, "--k", "3", "--out-tour", str(out_tour)],
        )
        assert rc == 0
        assert lines == [
            "final_cost=7",
            "iterations=2",
            "moves_applied=1",
            "final_zero_paths=0",
        ]
        rc2, lines2 = run(
            capsys,
            [
                "certify",
                "--instance",
                inst,
                "--tour",
                str(out_tour),
                "--k",
                "3",
                "--expect",
                "optimal",
            ],
        )
        assert rc2 == 0
        assert "verdict=optimal" in lines2


class TestCertify:
    def test_hexa_identity_witness(self, capsys, tmp_path):
        inst, tour = write_hexa(tmp_path)
        rc, lines = run(capsys, ["certify", "--instance", inst, "--tour", tour, "--k", "3"])
        assert rc == 0
        assert lines == [
            "verdict=non-optimal",
            "k=3",
            "predicate=plain",
            "examined=29",
            "witness=remove (0,1) (0,5) (2,3) add (0,2) (0,3) (1,5) gain 1",
        ]

    def test_family_expectations(self, capsys):
        rc, lines = run(
            capsys,
            ["certify", "--family", "two-opt-lb", "--n", "8", "--k", "2", "--expect", "optimal"],
        )
        assert rc == 0
        assert "verdict=optimal" in lines
        assert "examined=20" in lines

    def test_family_expectation_mismatch(self, capsys):
        rc, lines = run(
            capsys,
            ["certify", "--family", "two-opt-lb", "--n", "8", "--k", "3", "--expect", "optimal"],
        )
        assert rc == 1
        assert "verdict=non-optimal" in lines
        assert any(line.startswith("witness=") and line.endswith("gain 1") for line in lines)

    def test_pp_family(self, capsys):
        rc, lines = run(
            capsys,
            [
                "certify",
                "--family",
                "three-opt-pp-lb",
                "--s",
                "2",
                "--k",
                "3",
                "--plus-plus",
                "--expect",
                "optimal",
            ],
        )
        assert rc == 0
        assert "predicate=pp" in lines
        assert "examined=598" in lines


class TestExact:
    def test_hexa(self, capsys, tmp_path):
        inst, _ = write_hexa(tmp_path)
        out_tour = tmp_path / "opt.txt"
        rc, lines = run(capsys, ["exact", "--instance", inst, "--out-tour", str(out_tour)])
        assert rc == 0
        assert lines == ["n=6", "cost=7", "method=held-karp"]
        assert tuple(read_tour(out_tour).order) == (0, 1, 5, 4, 3, 2)

    def test_seventeen_vertices(self, capsys, tmp_path):
        inst = tmp_path / "ring17.txt"
        ring = "".join(f"e {i} {i + 1}\n" for i in range(16)) + "e 0 16\n"
        inst.write_text("p12tsp 17\n" + ring, encoding="utf-8")
        rc, lines = run(capsys, ["exact", "--instance", str(inst)])
        assert rc == 0
        assert lines == ["n=17", "cost=17", "method=held-karp"]

    def test_memory_cap_refuses_before_allocating(self, capsys, tmp_path):
        inst = tmp_path / "n30.txt"
        inst.write_text("p12tsp 30\ne 0 1\n", encoding="utf-8")
        tracemalloc.start()
        try:
            rc = main(["exact", "--instance", str(inst)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "error: held_karp on 30 vertices needs about 75.4 GiB" in capsys.readouterr().err
        assert peak < 1 << 20


class TestDenseCap:
    """Dense tables over the byte cap end in exit 2 before they are allocated."""

    @staticmethod
    def refused(capsys, argv: list[str]) -> str:
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert peak < 1 << 22
        return captured.err

    def test_solve_huge_instance(self, capsys, tmp_path):
        inst = tmp_path / "big.txt"
        inst.write_text("p12tsp 1000000\ne 0 1\n", encoding="utf-8")
        err = self.refused(capsys, ["solve", "--instance", str(inst)])
        assert err.startswith("error: the cost matrix on 1000000 vertices needs about 931.3 GiB")

    def test_gen_huge_family(self, capsys):
        err = self.refused(capsys, ["gen", "--family", "three-opt-lb", "--s", "100000"])
        assert err.startswith("error: the cost matrix on 800000 vertices needs about 596.0 GiB")

    @staticmethod
    def certify_argv(tmp_path, n: int, k: int) -> list[str]:
        """certify --k k of the identity tour on an n-vertex instance."""
        inst, tour = tmp_path / "inst.txt", tmp_path / "tour.txt"
        inst.write_text(f"p12tsp {n}\ne 0 1\n", encoding="utf-8")
        tour.write_text(f"tour {n}\n" + " ".join(map(str, range(n))) + "\n", encoding="utf-8")
        return ["certify", "--instance", str(inst), "--tour", str(tour), "--k", str(k)]

    # The blocked scan's cap binds the 3-move ++ scan only: a plain 3-move
    # scan past it, and every 2-move scan, is anchored on the tour's cost-2
    # edges (see CERTIFY_GOLDEN).

    def test_certify_pp_pair_scan_past_the_cap_runs_anchored(self, capsys, tmp_path):
        # The identity tour's one cost-1 edge is a tour edge, so every other
        # vertex is isolated and no 2-move is accepted.  The scan holds one
        # chunk of anchored candidates beside the 144 MB cost matrix.
        n = 12000
        tracemalloc.start()
        try:
            rc, lines = run(capsys, self.certify_argv(tmp_path, n, 2) + ["--plus-plus"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert lines[:3] == ["verdict=optimal", "k=2", "predicate=pp"]
        assert peak < n * n + moves._ANCHOR_CHUNK * moves._ANCHOR_BYTES_PER_CANDIDATE

    def test_certify_3_scan_one_over_cap(self, capsys, tmp_path):
        # 6,688 vertices is the largest 3-move ++ scan the cap admits.
        check_dense_size(6688, moves._SCAN_BYTES_PER_ENTRY)
        err = self.refused(capsys, self.certify_argv(tmp_path, 6689, 3) + ["--plus-plus"])
        assert err.startswith("error: the 3-move scan on 6689 vertices needs about 1.0 GiB")
        assert err.count("\n") == 1

    def test_solve_3_scan_one_over_cap(self, capsys, tmp_path):
        # local_search refuses before it builds a position-cost table.
        inst = tmp_path / "inst.txt"
        inst.write_text("p12tsp 6689\ne 0 1\n", encoding="utf-8")
        err = self.refused(capsys, ["solve", "--instance", str(inst), "--plus-plus"])
        assert err.startswith("error: the 3-move scan on 6689 vertices needs about 1.0 GiB")
        assert err.count("\n") == 1

    def test_certify_family_pp_scan_over_cap(self, capsys):
        # The scan is refused before the member (a 100 MB cost matrix) is built.
        argv = ["certify", "--family", "three-opt-lb", "--s", "1250", "--k", "3", "--plus-plus"]
        err = self.refused(capsys, argv)
        assert err.startswith("error: the 3-move scan on 10000 vertices needs about 2.2 GiB")

    def test_certify_family_plain_past_the_cap_names_the_cost_matrix(self, capsys):
        # A plain scan is never refused: the member's cost matrix is.
        argv = ["certify", "--family", "three-opt-lb", "--s", "300000", "--k", "3"]
        err = self.refused(capsys, argv)
        assert err.startswith("error: the cost matrix on 2400000 vertices needs about 5364.4 GiB")

    def test_plain_scans_past_the_cap_run_anchored(self, capsys, tmp_path):
        # The identity tour is 3-optimal: its one cost-1 edge is a tour edge.
        # (CERTIFY_GOLDEN runs a k = 2 certificate past the cap.)
        rc, lines = run(capsys, self.certify_argv(tmp_path, 6689, 3))
        assert rc == 0
        assert lines[0] == "verdict=optimal"
        inst = tmp_path / "inst.txt"
        rc, lines = run(capsys, ["solve", "--instance", str(inst)])
        assert rc == 0
        assert lines == [
            "final_cost=13377", "iterations=1", "moves_applied=0", "final_zero_paths=6687",
        ]

    def test_gen_random_edge_set_over_cap(self, capsys):
        # The 36 MB cost matrix fits under the cap; ~1.8e7 drawn edges do not.
        argv = ["gen", "--family", "random", "--n", "6000", "--p", "1", "--seed", "1"]
        err = self.refused(capsys, argv)
        assert err.startswith("error: a random instance on 6000 vertices needs about 3.4 GiB")
        assert err.count("\n") == 1

    def test_sweep_past_held_karp_cap(self, capsys):
        err = self.refused(capsys, ["sweep", "--n-min", "25", "--n-max", "25"])
        assert err.startswith("error: held_karp on 25 vertices needs about 2.0 GiB")


class TestAnalyze:
    def test_hexa_report(self, capsys, tmp_path):
        inst, tour = write_hexa(tmp_path)
        rc, lines = run(capsys, ["analyze", "--instance", inst, "--tour", tour])
        assert rc == 0
        assert lines == [
            "h=4",
            "l=2",
            "f=1",
            "counters_total=5",
            "counters_good=2",
            "counters_bad=3",
            "bound_ok=true",
            "prop1=pass",
            "prop2=pass",
            "prop3=pass",
            "prop4=fail",
            "prop5=pass",
            "ratio=8/7",
            "bound_plain=11/8",
            "bound_pp=4/3",
        ]

    def test_report_file_matches_stdout(self, capsys, tmp_path):
        inst, tour = write_hexa(tmp_path)
        report = tmp_path / "report.txt"
        rc, lines = run(
            capsys,
            ["analyze", "--instance", inst, "--tour", tour, "--report", str(report)],
        )
        assert rc == 0
        assert report.read_text(encoding="utf-8").splitlines() == lines

    def test_family_member_golden_output(self, capsys, tmp_path):
        files = [str(tmp_path / f) for f in ("i.txt", "t.txt", "r.txt")]
        gen = ["gen", "--family", "three-opt-lb", "--s", "3", "--out-instance", files[0]]
        assert main(gen + ["--out-tour", files[1], "--out-reference", files[2]]) == 0
        capsys.readouterr()
        argv = ["analyze", "--instance", files[0], "--tour", files[1], "--optimal", files[2]]
        rc, lines = run(capsys, argv)
        assert rc == 0
        assert lines == [
            "h=15",
            "l=9",
            "f=3",
            "counters_total=30",
            "counters_good=20",
            "counters_bad=10",
            "bound_ok=true",
            "prop1=pass",
            "prop2=pass",
            "prop3=pass",
            "prop4=pass",
            "prop5=pass",
            "ratio=11/9",
            "bound_plain=11/8",
            "bound_pp=4/3",
        ]


class TestVerifyLemmas:
    def test_small_horizon(self, capsys):
        rc, lines = run(capsys, ["verify-lemmas", "--max-i", "100"])
        assert rc == 0
        assert "gb i=1 g=0 b=2 slack=0" in lines
        assert "dual_ok=true" in lines
        assert "slack_mod0=12" in lines
        assert "slack_mod1=0" in lines
        assert "ratio_bound_12_5=11/8" in lines
        assert "ratio_bound_2=4/3" in lines

    def test_infeasible_multipliers_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "_DUAL_Y", (0, 12, 3))
        rc, lines = run(capsys, ["verify-lemmas", "--max-i", "10"])
        assert rc == 1
        assert "dual_ok=false" in lines


class TestSweep:
    def test_tiny_grid(self, capsys, tmp_path):
        report = tmp_path / "sweep.txt"
        rc, lines = run(
            capsys,
            [
                "sweep",
                "--n-min",
                "6",
                "--n-max",
                "7",
                "--per-cell",
                "2",
                "--p",
                "0.5",
                "--seed",
                "3",
                "--report",
                str(report),
            ],
        )
        assert rc == 0
        assert "instances=4" in lines
        assert "runs=16" in lines
        assert "violations=0" in lines
        assert sum(1 for line in lines if line.startswith("run ")) == 16
        assert all("checks=ok" in line for line in lines if line.startswith("run "))
        assert report.read_text(encoding="utf-8").splitlines() == lines

    def test_records_match_one_run_at_a_time(self):
        # The cells descend in lock step; each record must be the one a
        # separate local_search, held_karp, certificate and structural check
        # give, and each final tour must hold no accepted move by the
        # generator.  n = 14 is past the k = 3 gather cap, so its descents
        # scan a row at a time.
        config = SweepConfig(n_min=12, n_max=14, per_cell=2, p_values=(0.3, 0.7), seed=5)
        expected = []
        for p in config.p_values:
            for n in range(config.n_min, config.n_max + 1):
                for index in range(config.per_cell):
                    seed = config.seed * 1000003 + n * 1009 + index
                    instance = random_instance(n, p, seed)
                    opt = held_karp(instance)
                    for predicate, certifier, bound in (
                        ("plain", certify_k_optimal, BOUND_PLAIN),
                        ("pp", certify_kpp_optimal, BOUND_PP),
                    ):
                        for start, start_seed in (("identity", None), ("random", seed + 777)):
                            tour, stats = local_search(
                                instance, k=3, plusplus=predicate == "pp", seed=start_seed
                            )
                            certified = certifier(instance, tour, 3).verdict == "optimal"
                            assert find_improving_by_enumeration(
                                instance, tour, 3, predicate == "pp"
                            ) is None
                            ok, detail = structural_checks(instance, tour, opt.tour, predicate)
                            ratio = Fraction(stats.final_cost, opt.cost)
                            assert certified and ok and ratio <= bound
                            expected.append(
                                RunRecord(
                                    n, p, index, predicate, start, stats.final_cost,
                                    opt.cost, ratio, certified, ok, detail,
                                )
                            )
        assert run_sweep(config).records == tuple(expected)

    @pytest.mark.parametrize("label", ["ratio-bound"])
    def test_failed_plain_runs_are_violations(self, capsys, monkeypatch, label):
        # Each plain run fails under the label, the pp runs pass, and the sweep exits 1.
        monkeypatch.setattr(cli, "BOUND_PLAIN", Fraction(1, 2))
        grid = ["sweep", "--n-min", "6", "--n-max", "6", "--per-cell", "1", "--p", "0.5"]
        rc, lines = run(capsys, grid)
        assert rc == 1
        checks = [line.rsplit("checks=", 1)[1] for line in lines if line.startswith("run ")]
        assert checks == [label, label, "ok", "ok"]
        assert "violations=2" in lines

    def test_sweep_runs_no_certificate(self, monkeypatch):
        # Each run's certificate is the last scan of its descent: the sweep
        # calls neither certifier nor find_improving.
        config = SweepConfig(n_min=7, n_max=7, per_cell=3, p_values=(0.5,))
        expected = run_sweep(config)

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran a certificate")

        for module, name in (
            (cli, "certify_k_optimal"),
            (cli, "certify_kpp_optimal"),
            (moves, "find_improving"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert run_sweep(config) == expected

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        pool_sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        config = SweepConfig(n_min=6, n_max=6, per_cell=2, p_values=(0.5,))
        serial = run_sweep(config)
        assert pool_sizes == []
        assert run_sweep(replace(config, workers=10**6)) == serial
        assert pool_sizes == [2]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert run_sweep(replace(config, workers=8)) == serial
        assert pool_sizes == [2]

    def test_report_independent_of_worker_count(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        grid = ["sweep", "--n-min", "6", "--n-max", "8", "--per-cell", "3", "--p", "0.3", "0.5"]
        reports = []
        for workers in ("1", "2"):
            report = tmp_path / f"sweep-{workers}.txt"
            rc, lines = run(capsys, grid + ["--workers", workers, "--report", str(report)])
            assert rc == 0 and "runs=72" in lines
            reports.append(report.read_text(encoding="utf-8"))
        assert reports[0] == reports[1]

    def test_defaults_are_the_config_defaults(self, capsys, monkeypatch):
        configs = []

        def fake_run_sweep(config):
            configs.append(config)
            return SweepResult((), Fraction(1), Fraction(1), 0)

        monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
        assert main(["sweep"]) == 0
        capsys.readouterr()
        assert configs == [SweepConfig()]

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--n-min", "6", "--n-max", "6", "--workers", "0"], "need at least one worker"),
            (["--n-min", "4"], "need 5 <= n_min <= n_max"),
            (["--n-min", "7", "--n-max", "6"], "need 5 <= n_min <= n_max"),
            (["--per-cell", "0"], "need at least one instance per cell"),
        ],
        ids=["workers-0", "n-min-4", "n-max-below-n-min", "per-cell-0"],
    )
    def test_bad_sweep_options_rejected(self, capsys, options, message):
        assert main(["sweep", *options]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_instance_file(self, capsys, tmp_path):
        rc, _ = run(capsys, ["exact", "--instance", str(tmp_path / "absent.txt")])
        assert rc == 2

    def test_instance_is_directory(self, capsys, tmp_path):
        assert main(["solve", "--instance", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tour 6\n0 1 2 3 4 4\n", "vertex 4 appears more than once"),
            ("tour 6\n0 1 2 3 4 9\n", "missing vertices [5], out-of-range entries [9]"),
            # Too short for the instance as well: the duplicate is found first, at read time.
            ("tour 5\n0 1 1 2 3\n", "vertex 1 appears more than once"),
        ],
        ids=["duplicate", "out-of-range", "short-duplicate"],
    )
    def test_bad_tour_file(self, capsys, tmp_path, text, message):
        inst, tour = write_hexa(tmp_path)
        Path(tour).write_text(text, encoding="utf-8")
        assert main(["certify", "--instance", inst, "--tour", tour]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_binary_instance_file(self, capsys, tmp_path):
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe\x00\x01")
        assert main(["solve", "--instance", str(binary)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_report_is_directory(self, capsys, tmp_path):
        inst, tour = write_hexa(tmp_path)
        argv = ["analyze", "--instance", inst, "--tour", tour, "--report", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_sweep_report_is_directory(self, capsys, tmp_path):
        argv = ["sweep", "--n-min", "6", "--n-max", "6", "--per-cell", "1", "--p", "0.5"]
        assert main(argv + ["--report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "two-opt-lb", "--n", "8", "--s", "5"],
            ["gen", "--family", "three-opt-lb", "--s", "3", "--n", "99"],
            ["gen", "--family", "three-opt-pp-lb", "--s", "2", "--p", "0.5"],
            ["gen", "--family", "two-opt-lb", "--n", "8", "--seed", "1"],
            ["gen", "--family", "random", "--n", "8", "--p", "0.5", "--seed", "1", "--s", "2"],
            ["certify", "--family", "two-opt-lb", "--n", "8", "--s", "5"],
            ["certify", "--family", "three-opt-lb", "--s", "3", "--n", "24"],
            ["certify", "--family", "two-opt-lb", "--n", "8", "--instance", "{inst}"],
            ["certify", "--instance", "{inst}", "--tour", "{tour}", "--n", "6"],
            ["solve", "--instance", "{inst}", "--tour", "{tour}", "--seed", "3"],
            # An option the command needs and lacks.
            ["gen", "--family", "random", "--n", "8", "--seed", "1"],
            ["certify", "--instance", "{inst}"],
        ],
        ids=" ".join,
    )
    def test_ignored_option_rejected(self, capsys, tmp_path, argv):
        inst, tour = write_hexa(tmp_path)
        assert main([arg.format(inst=inst, tour=tour) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["three-opt-lb", "--s", "0", "--k", "3"], "three-opt family needs s >= 3, got 0"),
            (["three-opt-lb", "--s", "-2", "--k", "3"], "three-opt family needs s >= 3, got -2"),
            (["two-opt-lb", "--n", "3", "--k", "2"], "two-opt family needs n >= 7, got 3"),
            (
                ["three-opt-pp-lb", "--s", "1", "--k", "3", "--plus-plus"],
                "merging family needs s >= 2, got 1",
            ),
        ],
        ids=["three-opt-lb-s0", "three-opt-lb-s-2", "two-opt-lb-n3", "three-opt-pp-lb-s1"],
    )
    def test_certify_family_bad_size(self, capsys, argv, message):
        # The family's own size check comes first, as in gen, not a vertex count.
        for full in (["certify", "--family", *argv], ["gen", "--family", *argv[:3]]):
            assert main(full) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""

    def test_family_failing_its_self_check(self, capsys, monkeypatch):
        # In blocks of 4 the reference tour's first cycle splits in two.
        family = cli.FAMILIES["three-opt-lb"]
        monkeypatch.setitem(cli.FAMILIES, "three-opt-lb", family._replace(period=4))
        assert main(["gen", "--family", "three-opt-lb", "--s", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: reference edges form more than one cycle\n"
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "certify" in capsys.readouterr().out

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


@pytest.mark.parametrize("sub", ["gen", "solve", "certify", "exact", "analyze"])
def test_subcommand_help(capsys, sub):
    assert main([sub, "--help"]) == 0
    capsys.readouterr()


# Golden outputs of `gen` for each family at two sizes: the stdout lines, then
# the SHA-256 of the --out-instance, --out-tour and --out-reference files.
GEN_GOLDEN = {
    ("two-opt-lb", "--n", "8"): (
        ["family=two-opt-lb", "n=8", "tour_cost=11", "reference_cost=8", "reference_bound=8"],
        (
            "91e23fe4bd8f023cc7e5ae53cb650d53e66b50a0caed44dde707fd7a87ea5a02",
            "7efb6fb326cfa24fe8adf0ef2b5ffc4d68dddf3b02146f06864dcf4d589bb930",
            "a1e58260496f018004359d59bf88067b066e4118f8c2f258d3d11068bdbfbfb0",
        ),
    ),
    ("two-opt-lb", "--n", "11"): (
        ["family=two-opt-lb", "n=11", "tour_cost=15", "reference_cost=11", "reference_bound=11"],
        (
            "ab0e2c7754673ec6ca5ec594e8579f4491ffa533deb64fd17ce6eb20fe20fc06",
            "3201aade9717e54af70ae0981b4fb09e8fcd6488bbfcae06cb5ebffaa2fec16e",
            "47c3d8c608c412096df9aba026ec01399b64ba148eaddd1152aa9f8065fd4148",
        ),
    ),
    ("three-opt-lb", "--s", "3"): (
        ["family=three-opt-lb", "n=24", "s=3", "tour_cost=33", "reference_cost=27", "reference_bound=28"],
        (
            "68782d37fd76389fec8cb1ae4aff6247d44cdfbd3f56ea36f64b9f1ac5e0e661",
            "c94abdd600d42c962fab2acb97ade2bf84940ca318daa8a12c99b526d2d7b3be",
            "4648becb5c7768a45c21d42ec134ca3675965838ac0a11f16f77a9260304c1b4",
        ),
    ),
    ("three-opt-lb", "--s", "5"): (
        ["family=three-opt-lb", "n=40", "s=5", "tour_cost=55", "reference_cost=43", "reference_bound=44"],
        (
            "4e7246ae9732de80a1709a080c90560d37b8e39893a0cd495a442ce9eb96cbff",
            "45b92b0dd31270ba5b2cd7a78a6dc4486229ea63def9e2b3ef62d12ef2bda74c",
            "7df1ce2e0bc17a771ffb902393694c0517ecfe2146e519721ab32a7f4cb5a8fc",
        ),
    ),
    ("three-opt-pp-lb", "--s", "2"): (
        ["family=three-opt-pp-lb", "n=12", "s=2", "tour_cost=16", "reference_cost=12", "reference_bound=12"],
        (
            "8fbb2db60f31f83df4b5d5e54632502f9dc079b4bd4e663f6bb352815f74cbdd",
            "e99a1ae558b80a2cbeab4740489ce821aa2d26ffe91f5e6da72210d5c7f93068",
            "1c25b9cf5a397450425f20f7797550877a36ff28c1e666e78d04b4d366b08b93",
        ),
    ),
    ("three-opt-pp-lb", "--s", "5"): (
        ["family=three-opt-pp-lb", "n=30", "s=5", "tour_cost=40", "reference_cost=30", "reference_bound=30"],
        (
            "112553c63ca0e42c990f68c4aa75cb5c5365a154bc81962698f22d277c58e238",
            "3fdbffef6050df8814874088c43d5d276b12194f2fb8e3a2229a18c3c2470775",
            "fcdab3d836fb07667df0b87e3ac7d8ca6ae98dace13b80b23f1fbfd516c7e879",
        ),
    ),
}

CERTIFY_GOLDEN = {
    ("two-opt-lb", "--n", "8", "--k", "2"): [
        "verdict=optimal", "k=2", "predicate=plain", "examined=20", "ratio=11/8", "bound=3/2",
    ],
    ("three-opt-lb", "--s", "3", "--k", "3"): [
        "verdict=optimal", "k=3", "predicate=plain", "examined=6812", "ratio=11/9", "bound=11/8",
    ],
    ("three-opt-pp-lb", "--s", "2", "--k", "3", "--plus-plus"): [
        "verdict=optimal", "k=3", "predicate=pp", "examined=598", "ratio=4/3", "bound=4/3",
    ],
    # Plain scans past the blocked scan's cap are anchored on the cost-2 edges.
    ("three-opt-lb", "--s", "1250", "--k", "3"): [
        "verdict=optimal", "k=3", "predicate=plain", "examined=666216745000",
        "ratio=13750/10003", "bound=11/8",
    ],
    ("two-opt-lb", "--n", "12000", "--k", "2"): [
        "verdict=optimal", "k=2", "predicate=plain", "examined=71982000",
        "ratio=17999/12000", "bound=3/2",
    ],
}


@pytest.mark.parametrize("args", list(GEN_GOLDEN), ids=" ".join)
def test_gen_golden_output(capsys, tmp_path, args):
    expected_lines, expected_digests = GEN_GOLDEN[args]
    files = [tmp_path / name for name in ("instance.txt", "tour.txt", "reference.txt")]
    argv = ["gen", "--family", *args]
    for flag, path in zip(("--out-instance", "--out-tour", "--out-reference"), files):
        argv += [flag, str(path)]
    rc, lines = run(capsys, argv)
    assert rc == 0
    assert lines == expected_lines
    assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files) == expected_digests


@pytest.mark.parametrize("args", list(CERTIFY_GOLDEN), ids=" ".join)
def test_certify_family_golden_output(capsys, args):
    rc, lines = run(capsys, ["certify", "--family", *args])
    assert rc == 0
    assert lines == CERTIFY_GOLDEN[args]
