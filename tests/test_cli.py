"""Command line surface, exercised in process through main()."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from kopt12 import SweepConfig, read_instance, read_tour, run_sweep, tour_cost
from kopt12 import cli
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
        assert a.read_text() == b.read_text()
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

    def test_limit_exceeded(self, capsys, tmp_path):
        inst, _ = write_hexa(tmp_path)
        rc, _ = run(capsys, ["exact", "--instance", inst, "--limit", "4"])
        assert rc == 2

    def test_memory_cap_refuses_before_allocating(self, capsys, tmp_path):
        inst = tmp_path / "n30.txt"
        inst.write_text("p12tsp 30\ne 0 1\n", encoding="utf-8")
        tracemalloc.start()
        try:
            rc = main(["exact", "--instance", str(inst), "--limit", "40"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "error: held_karp on 30 vertices needs about 66.0 GiB" in capsys.readouterr().err
        assert peak < 1 << 20


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
        assert report.read_text().splitlines() == lines


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
        assert report.read_text().splitlines() == lines

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
            reports.append(report.read_text())
        assert reports[0] == reports[1]

    def test_workers_below_one_rejected(self, capsys):
        assert main(["sweep", "--n-min", "6", "--n-max", "6", "--workers", "0"]) == 2
        assert "at least one worker" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_instance_file(self, capsys, tmp_path):
        rc, _ = run(capsys, ["exact", "--instance", str(tmp_path / "absent.txt")])
        assert rc == 2

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
