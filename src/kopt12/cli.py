"""Command line interface.

Subcommands cover the whole workflow: generate instances (constructed
families or random), run local search, certify local optimality, compute
exact optima, run the counter analysis, verify the arithmetic lemmas
behind the ratio bounds, and sweep random instances comparing both
predicates against exact optima.

Output is line oriented, one key=value pair per line, so runs are easy to
diff and grep.  Exit codes: 0 on success, 1 when a verdict check fails
(--expect mismatch, infeasible multipliers, sweep violations), 2 on usage
or input errors.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .analysis import (
    BOUND_PLAIN,
    BOUND_PP,
    check_counter_properties,
    count_bound_check,
    distribute_counters,
    dual_feasibility_check,
    dual_slack,
    gb_values,
    pp_path_checks,
    ratio_report,
)
from .certify import (
    certify_k_optimal,
    certify_kpp_optimal,
    endpoint_pair_violations,
    find_forbidden_constellation,
)
from .constructions import FAMILIES, FamilyOutput, random_instance
from .core import Instance, Tour, tour_cost
from .errors import InvalidArgumentError, Kopt12Error
from .exact import check_held_karp_size, held_karp
from .fileio import read_instance, read_tour, write_instance, write_tour
from .moves import _check_scan, _descend, _start_order, format_kmove, local_search


@dataclass(frozen=True)
class SweepConfig:
    """Grid of random instances for comparing descent against the optimum."""

    n_min: int = 6
    n_max: int = 13
    per_cell: int = 21
    p_values: tuple[float, ...] = (0.3, 0.5, 0.7)
    seed: int = 42
    workers: int = 1


@dataclass(frozen=True)
class RunRecord:
    """One descent run on one instance under one predicate and start."""

    n: int
    p: float
    index: int
    predicate: str
    start: str
    cost: int
    optimum: int
    ratio: Fraction
    certified: bool
    checks_ok: bool
    detail: str


@dataclass(frozen=True)
class SweepResult:
    records: tuple[RunRecord, ...]
    max_ratio_plain: Fraction
    max_ratio_pp: Fraction
    violations: int


def structural_checks(
    instance: Instance, tour: Tour, optimal_tour: Tour, predicate: str
) -> tuple[bool, str]:
    """Validate everything certified local optima must satisfy.

    Returns (ok, label of the first failed check).  The pp predicate adds
    its per-path counter limits, which bound the counters by 2h.
    """
    if predicate not in ("plain", "pp"):
        raise InvalidArgumentError(f"unknown predicate {predicate!r}")
    ledger = distribute_counters(instance, tour, optimal_tour)
    report = check_counter_properties(instance, ledger)
    if not report.all_pass:
        bad = next(i for i in range(1, 6) if not report.check(i).passed)
        return False, f"property-{bad}"
    if not count_bound_check(ledger):
        return False, "count-bound"
    if find_forbidden_constellation(instance, tour) is not None:
        return False, "forbidden-constellation"
    if endpoint_pair_violations(instance, ledger.decomposition):
        return False, "endpoint-pair"
    if predicate == "pp":
        if not pp_path_checks(ledger).passed:
            return False, "pp-path-limit"
    return True, ""


def _sweep_cell(cell: tuple[int, float, tuple[int, ...]]) -> tuple[RunRecord, ...]:
    """The runs of one (n, p) cell, whose instances have the given seeds.

    Each predicate descends from every instance's identity and seeded
    random start in one lock-step _descend, which ends a run only when its
    whole 3-move neighborhood holds no accepted move: that scan certifies it.
    """
    n, p, seeds = cell
    instances = [random_instance(n, p, seed) for seed in seeds]
    # Row 2 * index + s starts instance index from starts[s].
    starts = ("identity", "random")
    rows = [instance for instance in instances for _ in starts]
    orders = [_start_order(n, shuffle) for seed in seeds for shuffle in (None, seed + 777)]
    finals = {
        predicate: _descend(rows, orders, 3, predicate == "pp")[0] for predicate in ("plain", "pp")
    }
    records = []
    for index, instance in enumerate(instances):
        opt = held_karp(instance)
        for predicate, (s, start) in itertools.product(("plain", "pp"), enumerate(starts)):
            tour = Tour(tuple(finals[predicate][2 * index + s].tolist()))
            cost = tour_cost(instance, tour)
            ok, detail = structural_checks(instance, tour, opt.tour, predicate)
            ratio = Fraction(cost, opt.cost)
            bound = BOUND_PP if predicate == "pp" else BOUND_PLAIN
            if ok and ratio > bound:
                ok, detail = False, "ratio-bound"
            records.append(
                RunRecord(
                    n=n,
                    p=p,
                    index=index,
                    predicate=predicate,
                    start=start,
                    cost=cost,
                    optimum=opt.cost,
                    ratio=ratio,
                    certified=True,
                    checks_ok=ok,
                    detail=detail,
                )
            )
    return tuple(records)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full grid, one (n, p) cell at a time.

    Each cell's descents run in lock step (see _sweep_cell).  Workers take
    whole cells and results come back in cell order, so the records, ordered
    by p, n, instance, predicate and start, do not depend on the worker
    count.
    """
    if config.n_min < 5 or config.n_max < config.n_min:
        raise InvalidArgumentError("need 5 <= n_min <= n_max")
    if config.per_cell < 1:
        raise InvalidArgumentError("need at least one instance per cell")
    if config.workers < 1:
        raise InvalidArgumentError("need at least one worker")
    check_held_karp_size(config.n_max)
    workers = min(config.workers, os.cpu_count() or 1)
    cells = [
        (n, p, tuple(config.seed * 1000003 + n * 1009 + idx for idx in range(config.per_cell)))
        for p in config.p_values
        for n in range(config.n_min, config.n_max + 1)
    ]
    if workers == 1:
        groups = [_sweep_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_sweep_cell, cells))
    records = tuple(r for g in groups for r in g)
    plain = [r.ratio for r in records if r.predicate == "plain"]
    pp = [r.ratio for r in records if r.predicate == "pp"]
    return SweepResult(
        records=records,
        max_ratio_plain=max(plain, default=Fraction(1)),
        max_ratio_pp=max(pp, default=Fraction(1)),
        violations=sum(1 for r in records if not r.checks_ok),
    )


def _emit(lines: list[str], report: str | None) -> None:
    """Write the report file first, so a failed write prints nothing."""
    if report:
        Path(report).write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _family_member(
    args: argparse.Namespace, scan: tuple[int, bool] | None = None
) -> FamilyOutput:
    """Build the --family member from its one size option, --n or --s.

    With scan = (k, plusplus), a size the family refuses, and then a k-move
    scan of the member that would pass the dense-table cap, are refused
    before the member is built.
    """
    family = FAMILIES[args.family]
    for opt in ("n", "s", "p", "seed"):
        if opt != family.size and getattr(args, opt, None) is not None:
            raise InvalidArgumentError(f"{args.family} does not take --{opt}")
    size = getattr(args, family.size)
    if size is None:
        raise InvalidArgumentError(f"{args.family} needs --{family.size}")
    if scan is not None:
        _check_scan(family.vertices(size), *scan)
    return family.generate(size)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "random":
        if args.n is None or args.p is None or args.seed is None:
            raise InvalidArgumentError("random family needs --n, --p and --seed")
        if args.s is not None:
            raise InvalidArgumentError("random family does not take --s")
        if args.out_tour or args.out_reference:
            raise InvalidArgumentError("random family has no designated tour")
        instance = random_instance(args.n, args.p, args.seed)
        if args.out_instance:
            write_instance(instance, Path(args.out_instance))
        _emit(
            [
                "family=random",
                f"n={instance.n}",
                f"p={args.p}",
                f"seed={args.seed}",
                f"cost1_edges={len(instance.cost1)}",
            ],
            None,
        )
        return 0
    out = _family_member(args)
    if args.out_instance:
        write_instance(out.instance, Path(args.out_instance))
    if args.out_tour:
        write_tour(out.tour, Path(args.out_tour))
    if args.out_reference:
        write_tour(out.reference_tour, Path(args.out_reference))
    lines = ["family=" + args.family, f"n={out.instance.n}"]
    if args.s is not None:
        lines.append(f"s={args.s}")
    lines += [
        f"tour_cost={out.claimed_tour_cost}",
        f"reference_cost={tour_cost(out.instance, out.reference_tour)}",
        f"reference_bound={out.claimed_reference_bound}",
    ]
    _emit(lines, None)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = read_instance(Path(args.instance))
    start = read_tour(Path(args.tour)) if args.tour else None
    tour, stats = local_search(
        instance, start=start, k=args.k, plusplus=args.plus_plus, seed=args.seed
    )
    if args.out_tour:
        write_tour(tour, Path(args.out_tour))
    _emit(
        [
            f"final_cost={stats.final_cost}",
            f"iterations={stats.iterations}",
            f"moves_applied={stats.moves_applied}",
            f"final_zero_paths={stats.final_zero_paths}",
        ],
        None,
    )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    family_lines = []
    if args.family:
        if args.instance or args.tour:
            raise InvalidArgumentError("give --family or --instance and --tour, not both")
        out = _family_member(args, scan=(args.k, args.plus_plus))
        instance, tour = out.instance, out.tour
        ratio = Fraction(tour_cost(instance, tour), tour_cost(instance, out.reference_tour))
        family_lines = [f"ratio={ratio}", f"bound={FAMILIES[args.family].bound}"]
    else:
        if not args.instance or not args.tour:
            raise InvalidArgumentError("need --instance and --tour, or --family")
        if args.n is not None or args.s is not None:
            raise InvalidArgumentError("--n and --s need --family")
        instance = read_instance(Path(args.instance))
        tour = read_tour(Path(args.tour))
    certifier = certify_kpp_optimal if args.plus_plus else certify_k_optimal
    cert = certifier(instance, tour, args.k)
    lines = [
        f"verdict={cert.verdict}",
        f"k={cert.k}",
        f"predicate={cert.predicate}",
        f"examined={cert.moves_examined}",
    ]
    if cert.witness is not None:
        lines.append("witness=" + format_kmove(cert.witness))
    _emit(lines + family_lines, None)
    if args.expect and args.expect != cert.verdict:
        print(f"expected verdict {args.expect}, got {cert.verdict}", file=sys.stderr)
        return 1
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    instance = read_instance(Path(args.instance))
    result = held_karp(instance)
    if args.out_tour:
        write_tour(result.tour, Path(args.out_tour))
    _emit([f"n={instance.n}", f"cost={result.cost}", f"method={result.method}"], None)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    instance = read_instance(Path(args.instance))
    tour = read_tour(Path(args.tour))
    if args.optimal:
        reference = read_tour(Path(args.optimal))
    else:
        reference = held_karp(instance).tour
    ledger = distribute_counters(instance, tour, reference)
    report = check_counter_properties(instance, ledger)
    ratios = ratio_report(instance, tour, reference)
    lines = [
        f"h={ledger.h}",
        f"l={ledger.l}",
        f"f={ledger.f}",
        f"counters_total={ledger.total}",
        f"counters_good={ledger.good_total}",
        f"counters_bad={ledger.bad_total}",
        f"bound_ok={_bool(count_bound_check(ledger))}",
        *(f"prop{i}={'pass' if c.passed else 'fail'}" for i, c in enumerate(report.checks, 1)),
        f"ratio={ratios.ratio}",
        f"bound_plain={ratios.bound_plain}",
        f"bound_pp={ratios.bound_pp}",
    ]
    _emit(lines, args.report)
    return 0


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    report = dual_feasibility_check(args.max_i)
    lines = []
    for i in range(1, min(args.max_i, 12) + 1):
        pair = gb_values(i)
        lines.append(f"gb i={i} g={pair.g} b={pair.b} slack={dual_slack(i)}")
    lines.append(f"dual_ok={_bool(report.ok)}")
    for r in (0, 1, 2):
        vals = ",".join(str(v) for v in report.slack_by_residue[r])
        lines.append(f"slack_mod{r}={vals}")
    lines.append(f"ratio_bound_12_5={BOUND_PLAIN}")
    lines.append(f"ratio_bound_2={BOUND_PP}")
    _emit(lines, None)
    return 0 if report.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        n_min=args.n_min,
        n_max=args.n_max,
        per_cell=args.per_cell,
        p_values=tuple(args.p),
        seed=args.seed,
        workers=args.workers,
    )
    result = run_sweep(config)
    lines = []
    for r in result.records:
        lines.append(
            f"run n={r.n} p={r.p} idx={r.index} predicate={r.predicate} "
            f"start={r.start} cost={r.cost} opt={r.optimum} ratio={r.ratio} "
            f"certified={_bool(r.certified)} "
            f"checks={'ok' if r.checks_ok else r.detail}"
        )
    lines += [
        f"instances={len(result.records) // 4}",
        f"runs={len(result.records)}",
        f"max_ratio_plain={result.max_ratio_plain}",
        f"max_ratio_pp={result.max_ratio_pp}",
        f"violations={result.violations}",
    ]
    _emit(lines, args.report)
    return 1 if result.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kopt12",
        description="k-Opt and k-Opt++ local search toolkit for the (1,2)-TSP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance family member or random instance")
    p.add_argument(
        "--family",
        required=True,
        choices=[*FAMILIES, "random"],
    )
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-instance")
    p.add_argument("--out-tour")
    p.add_argument("--out-reference")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="run first-improvement local search")
    p.add_argument("--instance", required=True)
    p.add_argument("--tour", help="start tour file; identity if omitted")
    p.add_argument("--k", type=int, default=3, choices=[2, 3])
    p.add_argument("--plus-plus", action="store_true")
    p.add_argument("--seed", type=int, help="seed for a shuffled start tour")
    p.add_argument("--out-tour")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="exhaustively certify local optimality")
    p.add_argument("--instance")
    p.add_argument("--tour")
    p.add_argument("--family", choices=list(FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int, default=3, choices=[2, 3])
    p.add_argument("--plus-plus", action="store_true")
    p.add_argument("--expect", choices=["optimal", "non-optimal"])
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("exact", help="optimum tour by dynamic programming")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-tour")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("analyze", help="counter distribution and ratio accounting")
    p.add_argument("--instance", required=True)
    p.add_argument("--tour", required=True)
    p.add_argument("--optimal", help="reference tour file; exact optimum if omitted")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify-lemmas", help="integer checks behind the ratio bounds")
    p.add_argument("--max-i", type=int, default=10000)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("sweep", help="random-instance grid vs exact optima")
    p.add_argument("--n-min", type=int, default=SweepConfig.n_min)
    p.add_argument("--n-max", type=int, default=SweepConfig.n_max)
    p.add_argument("--per-cell", type=int, default=SweepConfig.per_cell)
    p.add_argument("--p", type=float, nargs="+", default=SweepConfig.p_values)
    p.add_argument("--seed", type=int, default=SweepConfig.seed)
    p.add_argument("--workers", type=int, default=SweepConfig.workers)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (Kopt12Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
