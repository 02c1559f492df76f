"""The three workloads: inputs made from the seed, the timed calls, the output checks.

Each workload hands out one list of operations per pass.  Pass 0 uses the
benchmark seed itself; pass p uses seed + 1000003 * p, so the passes of one
run see different random instances and a run's figures do not hang on one
instance draw.  Family instances do not depend on the seed and are built
once.  Operations look up the kopt12 function they call when they run, so a
tracer that rebinds the package's functions sees the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# plain: full k=3 scans of the largest tables (three-opt-lb at n = 8s) and a
# k=2 scan at n=2000, beside k=3 descents on sparse instances (p = 6/n).
PLAIN_THREE_OPT_S = (24, 30, 36)
PLAIN_TWO_OPT_N = 2000
PLAIN_DESCENT_N = (100, 120, 140)
# plusplus: 3-Opt++ descents at p = 0.1 and ++ certification of the
# merging family (n = 6s).
PP_DESCENT_N = (40, 56, 72)
PP_DESCENT_P = 0.1
PP_FAMILY_S = (8, 12)
# The sweep's ratio bounds from the paper: 11/8 for 3-Opt, 4/3 for 3-Opt++.
BOUND_PLAIN = Fraction(11, 8)
BOUND_PP = Fraction(4, 3)


def pass_seed(seed: int, p: int) -> int:
    return seed + 1_000_003 * p


@dataclass(frozen=True)
class Op:
    """One timed call and how to judge and record its output.

    slot names the same operation in every pass; attempted is how many
    checked outputs the call produces; check returns how many of them fail;
    lines returns the text its output contributes to the pass digest.
    """

    phase: str
    slot: str
    attempted: int
    call: Callable[[], object]
    check: Callable[[object], int]
    lines: Callable[[object], list[str]]


def _certifier(K, plusplus: bool):
    return K.certify_kpp_optimal if plusplus else K.certify_k_optimal


def _certify_op(K, slot: str, family, k: int, plusplus: bool) -> Op:
    predicate = "pp" if plusplus else "plain"

    def check(cert) -> int:
        ok = (
            cert.verdict == "optimal"
            and cert.k == k
            and cert.predicate == predicate
            and K.tour_cost(family.instance, family.tour) == family.claimed_tour_cost
        )
        return 0 if ok else 1

    def lines(cert) -> list[str]:
        witness = K.format_kmove(cert.witness) if cert.witness is not None else "-"
        return [f"{slot} verdict={cert.verdict} examined={cert.moves_examined} witness={witness}"]

    return Op(
        phase="certify",
        slot=slot,
        attempted=1,
        call=lambda: _certifier(K, plusplus)(family.instance, family.tour, k),
        check=check,
        lines=lines,
    )


def _descent_op(K, slot: str, instance, plusplus: bool, start_seed: int) -> Op:
    def check(out) -> int:
        tour, stats = out
        try:
            K.validate_tour(instance, tour)
        except K.TourValidationError:
            return 1
        cert = _certifier(K, plusplus)(instance, tour, 3)
        ok = cert.verdict == "optimal" and stats.final_cost == K.tour_cost(instance, tour)
        return 0 if ok else 1

    def lines(out) -> list[str]:
        tour, stats = out
        order = ",".join(map(str, tour.order))
        return [
            f"{slot} order={order} iterations={stats.iterations} "
            f"moves_applied={stats.moves_applied} cost={stats.final_cost} "
            f"zero_paths={stats.final_zero_paths}"
        ]

    return Op(
        phase="descent",
        slot=slot,
        attempted=1,
        call=lambda: K.local_search(instance, k=3, plusplus=plusplus, seed=start_seed),
        check=check,
        lines=lines,
    )


class Plain:
    """Plain predicate only, at large n."""

    def __init__(self, K, seed: int) -> None:
        self.K, self.seed = K, seed
        self.three_opt = [(s, K.gen_three_opt_lb(s)) for s in PLAIN_THREE_OPT_S]
        self.two_opt = K.gen_two_opt_lb(PLAIN_TWO_OPT_N)

    def ops(self, p: int) -> list[Op]:
        K, base = self.K, pass_seed(self.seed, p)
        ops = [
            _certify_op(K, f"certify three-opt-lb s={s} k=3", fam, 3, False)
            for s, fam in self.three_opt
        ]
        ops.append(
            _certify_op(K, f"certify two-opt-lb n={PLAIN_TWO_OPT_N} k=2", self.two_opt, 2, False)
        )
        for n in PLAIN_DESCENT_N:
            instance = K.random_instance(n, 6 / n, base * 1000 + n)
            ops.append(_descent_op(K, f"descent plain n={n}", instance, False, base * 1000 + n + 1))
        return ops


class PlusPlus:
    """The ++ predicate at medium n."""

    def __init__(self, K, seed: int) -> None:
        self.K, self.seed = K, seed
        self.families = [(s, K.gen_three_opt_pp_lb(s)) for s in PP_FAMILY_S]

    def ops(self, p: int) -> list[Op]:
        K, base = self.K, pass_seed(self.seed, p)
        ops = []
        for n in PP_DESCENT_N:
            instance = K.random_instance(n, PP_DESCENT_P, base * 1000 + n)
            ops.append(_descent_op(K, f"descent pp n={n}", instance, True, base * 1000 + n + 1))
        ops += [
            _certify_op(K, f"certify three-opt-pp-lb s={s} k=3", fam, 3, True)
            for s, fam in self.families
        ]
        return ops


def sweep_report_lines(result) -> list[str]:
    """The lines `kopt12 sweep --report` writes, in the same format."""

    def flag(value: bool) -> str:
        return "true" if value else "false"

    lines = [
        f"run n={r.n} p={r.p} idx={r.index} predicate={r.predicate} "
        f"start={r.start} cost={r.cost} opt={r.optimum} ratio={r.ratio} "
        f"certified={flag(r.certified)} "
        f"checks={'ok' if r.checks_ok else r.detail}"
        for r in result.records
    ]
    lines += [
        f"instances={len(result.records) // 4}",
        f"runs={len(result.records)}",
        f"max_ratio_plain={result.max_ratio_plain}",
        f"max_ratio_pp={result.max_ratio_pp}",
        f"violations={result.violations}",
    ]
    return lines


def _sweep_check(result, runs: int) -> int:
    failed = abs(runs - len(result.records))
    for r in result.records:
        bound = BOUND_PP if r.predicate == "pp" else BOUND_PLAIN
        ok = (
            r.certified
            and r.checks_ok
            and r.ratio == Fraction(r.cost, r.optimum)
            and 1 <= r.ratio <= bound
        )
        failed += not ok
    consistent = (
        result.violations == 0
        and result.max_ratio_plain <= BOUND_PLAIN
        and result.max_ratio_pp <= BOUND_PP
    )
    if failed == 0 and not consistent:
        failed = 1
    return failed


class Sweep:
    """The default SweepConfig grid, run in this process (workers=1)."""

    def __init__(self, K, seed: int) -> None:
        self.K, self.seed = K, seed
        default = K.SweepConfig()
        self.runs = 4 * default.per_cell * len(default.p_values) * (default.n_max - default.n_min + 1)

    def ops(self, p: int) -> list[Op]:
        K = self.K
        config = K.SweepConfig(seed=pass_seed(self.seed, p))
        return [
            Op(
                phase="sweep",
                slot="sweep default grid",
                attempted=self.runs,
                call=lambda: K.run_sweep(config),
                check=lambda result: _sweep_check(result, self.runs),
                lines=sweep_report_lines,
            )
        ]


WORKLOADS = {"plain": Plain, "plusplus": PlusPlus, "sweep": Sweep}
