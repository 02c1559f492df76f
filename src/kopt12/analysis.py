"""Counter accounting that turns local optimality into approximation bounds.

Fix a tour T and an optimum tour R.  Decompose T into its 1-paths (maximal
runs of cost-1 edges).  Walk over the 1-paths and place counters at
vertices of R's cost-1 edges:

  * a 1-path of length 0 is a single vertex v; for each cost-1 edge {v, w}
    of R, the vertex w receives two good counters,
  * a longer 1-path contributes through its two endpoints; for each
    endpoint v and cost-1 edge {v, w} of R, the vertex w receives one bad
    counter.

For 3-optimal tours the placement obeys the five structural properties
checked below, which force total counters <= (12/5) h where h is the
number of cost-1 edges of T; an averaging argument (the dual feasibility
check) then bounds the cost ratio by 11/8.  Under the stronger merging
predicate, counters per 1-path are limited to twice its length, giving
d = 2 and the ratio bound 4/3.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby

from .core import (
    Edge,
    Instance,
    PathDecomposition,
    Tour,
    canonical_edge,
    one_path_decomposition,
    tour_cost,
)
from .errors import InvalidArgumentError

# Dual multipliers (12/5, 4/5, 1/5) scaled by 15 to stay in integers.
_DUAL_SCALE = 15
_DUAL_Y = (36, 12, 3)


@dataclass(frozen=True)
class Counter:
    """One counter at vertex `at`, caused by 1-path `source_path` of the
    analyzed tour through the reference edge `via_edge`."""

    kind: str
    at: int
    source_path: int
    via_edge: Edge


@dataclass(frozen=True)
class CounterLedger:
    """Counters and edge tallies of one tour against a reference, with its 1-paths."""

    counters: tuple[Counter, ...]
    h: int
    l: int
    f: int
    tour: Tour
    decomposition: PathDecomposition

    @cached_property
    def held(self) -> _Held:
        """The counters held at each vertex that holds any."""
        at: _Held = defaultdict(list)
        for ctr in self.counters:
            at[ctr.at].append(ctr)
        return dict(at)

    @cached_property
    def good_holders(self) -> frozenset[int]:
        """The vertices holding a good counter."""
        return frozenset(ctr.at for ctr in self.counters if ctr.kind == "good")

    @property
    def good_total(self) -> int:
        return sum(1 for c in self.counters if c.kind == "good")

    @property
    def bad_total(self) -> int:
        return sum(1 for c in self.counters if c.kind == "bad")

    @property
    def total(self) -> int:
        return len(self.counters)


@dataclass(frozen=True)
class PropertyCheck:
    passed: bool
    witness: tuple | None


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    def check(self, i: int) -> PropertyCheck:
        if not 1 <= i <= len(self.checks):
            raise InvalidArgumentError(f"no property {i}")
        return self.checks[i - 1]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class GbPair:
    g: int
    b: int


@dataclass(frozen=True)
class DualReport:
    ok: bool
    slack_by_residue: dict[int, tuple[int, ...]]
    first_violation: int | None


@dataclass(frozen=True)
class PathViolation:
    kind: str
    path_index: int
    detail: tuple


@dataclass(frozen=True)
class PathCheckReport:
    violations: tuple[PathViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class RatioReport:
    cost_tour: int
    cost_reference: int
    ratio: Fraction
    h: int
    l: int
    f: int
    bound_plain: Fraction
    bound_pp: Fraction


# Counters by holding vertex, tour neighbours by vertex.
_Held = dict[int, list[Counter]]
_Nbrs = dict[int, tuple[int, int]]


def _neighbours(tour: Tour) -> _Nbrs:
    """The two tour neighbours of each vertex."""
    o = tour.order
    return {v: (o[i - 1], o[(i + 1) % len(o)]) for i, v in enumerate(o)}


def distribute_counters(instance: Instance, tour: Tour, optimal_tour: Tour) -> CounterLedger:
    """Place counters as described in the module docstring."""
    dec = one_path_decomposition(instance, tour)
    f = tour_cost(instance, optimal_tour) - instance.n
    # Each 1-path is followed by exactly one cost-2 tour edge.
    l = len(dec.paths)
    nbr = _neighbours(optimal_tour)
    counters: list[Counter] = []
    for pid, path in enumerate(dec.paths):
        kinds = ("good", "good") if len(path) == 1 else ("bad",)
        for v in sorted({path[0], path[-1]}):
            for w in sorted(nbr[v]):
                if (e := canonical_edge(v, w)) in instance.cost1:
                    counters += [Counter(kind, w, pid, e) for kind in kinds]
    return CounterLedger(
        counters=tuple(counters),
        h=instance.n - l,
        l=l,
        f=f,
        tour=tour,
        decomposition=dec,
    )


def _property_1(ledger: CounterLedger) -> tuple | None:
    """Counters arrive at a vertex via at most two reference edges, and each
    via group is two goods or one bad."""
    for v, ctrs in sorted(ledger.held.items()):
        groups: dict[Edge, list[str]] = defaultdict(list)
        for ctr in ctrs:
            groups[ctr.via_edge].append(ctr.kind)
        if len(groups) > 2:
            return (v,)
        for e, kinds in sorted(groups.items()):
            if sorted(kinds) not in (["good", "good"], ["bad"]):
                return (v, e)
    return None


def _property_2(ledger: CounterLedger, tnbr: _Nbrs) -> tuple | None:
    """Two vertices holding good counters are never tour neighbours, and no
    common tour neighbour holds any counter; only those two apart can clash."""
    goods = ledger.good_holders
    for a in sorted(goods):
        for b in sorted({x for w in tnbr[a] for x in (w, *tnbr[w]) if x > a} & goods):
            if b in tnbr[a]:
                return (a, b)
            for w in sorted(set(tnbr[a]) & set(tnbr[b])):
                if w in ledger.held:
                    return (a, w, b)
    return None


def _property_3(ledger: CounterLedger) -> tuple | None:
    """Vertices forming a length-0 1-path hold no counters; endpoints of
    longer 1-paths hold no good and at most one bad."""
    for pid, path in enumerate(ledger.decomposition.paths):
        allowed = 0 if len(path) == 1 else 1
        for v in sorted({path[0], path[-1]}):
            kinds = [x.kind for x in ledger.held.get(v, ())]
            if "good" in kinds or len(kinds) > allowed:
                return (pid, v)
    return None


def _property_4(instance: Instance, ledger: CounterLedger, tnbr: _Nbrs) -> tuple | None:
    """An endpoint holding a counter has no cost-1 tour neighbour that
    holds a good counter."""
    for path in ledger.decomposition.paths:
        for p in sorted({path[0], path[-1]} & ledger.held.keys()):
            for w in sorted(tnbr[p]):
                if canonical_edge(p, w) in instance.cost1 and w in ledger.good_holders:
                    return (p, w)
    return None


def _property_5(ledger: CounterLedger) -> tuple | None:
    """A 1-path emits at most four bad counters."""
    bad = sorted(ctr.source_path for ctr in ledger.counters if ctr.kind == "bad")
    for pid, group in groupby(bad):
        emitted = len(list(group))
        if emitted > 4:
            return (pid, emitted)
    return None


def check_counter_properties(instance: Instance, ledger: CounterLedger) -> PropertyReport:
    """Evaluate the five structural placement properties of ledger.tour.

    Properties 1 and 5 hold by construction of the placement; 2, 3 and 4
    are consequences of 3-optimality and may fail on other tours.  Each
    failed check carries the smallest offending witness found.
    """
    tnbr = _neighbours(ledger.tour)
    witnesses = (
        _property_1(ledger),
        _property_2(ledger, tnbr),
        _property_3(ledger),
        _property_4(instance, ledger, tnbr),
        _property_5(ledger),
    )
    return PropertyReport(tuple(PropertyCheck(w is None, w) for w in witnesses))


def count_bound_check(ledger: CounterLedger) -> bool:
    """Total counters at most 12/5 of the cost-1 tour edges, in integers."""
    return 5 * ledger.total <= 12 * ledger.h


def gb_values(i: int) -> GbPair:
    """Extremal good/bad counter tallies for a component with i edges."""
    if i < 0:
        raise InvalidArgumentError(f"edge count must be nonnegative, got {i}")
    if i == 0:
        return GbPair(0, 0)
    r = i % 3
    if r == 0:
        return GbPair(4 * i // 3, 4 * i // 3 - 2)
    if r == 1:
        return GbPair(4 * (i - 1) // 3, 4 * (i - 1) // 3 + 2)
    return GbPair(4 * (i + 1) // 3, 4 * (i - 2) // 3)


def dual_slack(i: int) -> int:
    """Integer slack of the averaging constraint for a component of i edges."""
    pair = gb_values(i)
    return _DUAL_Y[0] * i - _DUAL_Y[1] * pair.b - _DUAL_Y[1] - _DUAL_SCALE * pair.g


def dual_feasibility_check(max_i: int) -> DualReport:
    """Verify the averaging multipliers against every size up to max_i.

    With y = (12/5, 4/5, 1/5) scaled by 15, the constraint for a component
    of i edges reads 36 i - 12 b_i - 12 >= 15 g_i, and y2 + y3 = 1 ties the
    multipliers to the counter total.  All arithmetic stays integral.
    """
    if max_i < 1:
        raise InvalidArgumentError(f"need max_i >= 1, got {max_i}")
    slacks: dict[int, set[int]] = {0: set(), 1: set(), 2: set()}
    ok = _DUAL_Y[1] + _DUAL_Y[2] == _DUAL_SCALE
    first: int | None = None
    for i in range(1, max_i + 1):
        slack = dual_slack(i)
        slacks[i % 3].add(slack)
        if slack < 0:
            ok = False
            if first is None:
                first = i
    return DualReport(
        ok=ok,
        slack_by_residue={r: tuple(sorted(s)) for r, s in slacks.items()},
        first_violation=first,
    )


def ratio_upper_bound(d) -> Fraction:
    """Cost ratio bound 1 + d / (4 + d) for counter density d."""
    dd = Fraction(d)
    if dd < 0:
        raise InvalidArgumentError(f"density must be nonnegative, got {d}")
    return 1 + dd / (4 + dd)


# Cost ratio bounds of 3-optimal tours (counter density 12/5) and of
# 3-Opt++ optima (density 2).
BOUND_PLAIN = ratio_upper_bound(Fraction(12, 5))
BOUND_PP = ratio_upper_bound(2)


def pp_path_checks(ledger: CounterLedger) -> PathCheckReport:
    """Per-path counter limits that hold under the merging predicate.

    A 1-path of ledger.tour whose vertices hold a good counter must have
    exactly two edges, and one with x edges holds at most 2x counters.
    """
    violations: list[PathViolation] = []
    for pid, path in enumerate(ledger.decomposition.paths):
        x = len(path) - 1
        carried = sum(len(ledger.held.get(v, ())) for v in path)
        if any(v in ledger.good_holders for v in path) and x != 2:
            violations.append(PathViolation("good-path-length", pid, (x,)))
        if carried > 2 * x:
            violations.append(PathViolation("path-capacity", pid, (carried, 2 * x)))
    return PathCheckReport(tuple(violations))


def ratio_report(instance: Instance, tour: Tour, reference: Tour) -> RatioReport:
    """Cost ratio of tour against reference plus the analytic bounds."""
    cost_t = tour_cost(instance, tour)
    cost_r = tour_cost(instance, reference)
    # A tour costs n plus its number of cost-2 edges.
    l = cost_t - instance.n
    return RatioReport(
        cost_tour=cost_t,
        cost_reference=cost_r,
        ratio=Fraction(cost_t, cost_r),
        h=instance.n - l,
        l=l,
        f=cost_r - instance.n,
        bound_plain=BOUND_PLAIN,
        bound_pp=BOUND_PP,
    )
