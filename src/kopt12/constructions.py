"""Instance families with provably bad local optima, and random instances.

Each generator returns the instance together with the locally optimal tour
the family is built around, a good reference tour, and the claimed costs of
both.  The claims are re-verified at construction time so a generator can
never silently hand out a miscosted family.

Vertex labels live on a cycle.  The two-opt family is a ring plus chords;
the three-opt and merging families are unions of shifted copies of a fixed
template block of 8 and 6 vertices.  FAMILIES names the three families and
records, for each, its size parameter, generator, block period and least
size, whose vertices method gives a member's vertex count.  Each generator
asks it, then checks the size of the cost matrix, before it builds any
edge, so an undersize or oversize member is refused at once;
random_instance budgets its expected edge set as well.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .analysis import BOUND_PLAIN, BOUND_PP
from .core import (
    MIN_N,
    Edge,
    Instance,
    Tour,
    canonical_edge,
    check_dense_bytes,
    check_dense_size,
    cycle_from_edges,
    identity_tour,
    tour_cost,
)
from .errors import ConstructionError, InvalidArgumentError

# Template of cost-1 edges per period-8 block (offsets from the block base),
# for the family whose identity tour is 3-optimal yet ~11/8 times optimal.
_THREE_OPT_TEMPLATE: tuple[tuple[int, int], ...] = (
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (2, 5),
    (2, 13),
    (0, 3),
    (-8, 3),
    (4, 6),
    (4, 14),
    (7, 9),
    (7, 17),
)

# Template per period-6 block for the family whose identity tour survives
# zero-gain path merging yet costs ~4/3 times optimal.
_PP_TEMPLATE: tuple[tuple[int, int], ...] = (
    (0, 1),
    (2, 3),
    (3, 4),
    (4, 5),
    (0, 3),
    (2, 5),
    (4, 7),
)

# Peak bytes of random_instance's cost-1 edge set per n^2 entry at p = 1,
# rounded up from tracemalloc: 86 to 98 at n = 1,000 to 5,000, p = 0.001 to 1.
_EDGE_SET_BYTES = 100


@dataclass(frozen=True)
class FamilyOutput:
    """A constructed instance with its designated tour and reference tour."""

    instance: Instance
    tour: Tour
    reference_tour: Tour
    claimed_tour_cost: int
    claimed_reference_bound: int


@dataclass(frozen=True)
class RegularityResult:
    """Outcome of checking periodic structure of a family instance."""

    regular: bool
    condition: int | None
    violation: tuple[int, int] | None


def _checked(out: FamilyOutput) -> FamilyOutput:
    got_tour = tour_cost(out.instance, out.tour)
    if got_tour != out.claimed_tour_cost:
        raise ConstructionError(
            f"designated tour costs {got_tour}, claimed {out.claimed_tour_cost}"
        )
    got_ref = tour_cost(out.instance, out.reference_tour)
    if got_ref > out.claimed_reference_bound:
        raise ConstructionError(
            f"reference tour costs {got_ref}, above the claimed bound "
            f"{out.claimed_reference_bound}"
        )
    return out


def _template_edges(n: int, blocks: int, period: int, template) -> frozenset[Edge]:
    edges = set()
    for h in range(blocks):
        base = period * h
        for du, dv in template:
            edges.add(canonical_edge((base + du) % n, (base + dv) % n))
    return frozenset(edges)


def _cycle(edges: frozenset[Edge]) -> tuple[int, ...]:
    try:
        return cycle_from_edges(edges)
    except InvalidArgumentError as exc:
        raise ConstructionError(f"reference {exc}") from None


def gen_two_opt_lb(n: int) -> FamilyOutput:
    """Ring plus even chords; a 2-optimal tour of cost n + floor((n-2)/2).

    The designated tour takes odd vertices up and even vertices down, using
    every second ring edge and every chord once.  The identity tour costs n.
    """
    check_dense_size(FAMILIES["two-opt-lb"].vertices(n))
    edges = {canonical_edge(i, i + 1) for i in range(n - 1)}
    edges.add(canonical_edge(0, n - 1))
    edges.update(canonical_edge(i, i + 2) for i in range(0, n - 2, 2))
    inst = Instance(n, frozenset(edges))
    order = (0, *range(1, n, 2), *reversed(range(2, n, 2)))
    return _checked(
        FamilyOutput(
            instance=inst,
            tour=Tour(order),
            reference_tour=identity_tour(n),
            claimed_tour_cost=n + (n - 2) // 2,
            claimed_reference_bound=n,
        )
    )


def build_three_opt_reference(s: int) -> Tour:
    """Concatenate four disjoint vertex cycles of the period-8 family.

    Each cycle uses 2s cost-1 edges; opening each at its smallest edge and
    chaining the paths costs at most 8s + 4.
    """
    family = FAMILIES["three-opt-lb"]
    n = family.vertices(s)
    cycles = (
        ((2, 5), (2, 13)),
        ((0, 3), (-8, 3)),
        ((4, 6), (4, 14)),
        ((7, 9), (7, 17)),
    )
    order: list[int] = []
    for template in cycles:
        cycle = _cycle(_template_edges(n, s, family.period, template))
        # Open the cycle at its least edge {m, smaller neighbour of m}: the
        # path runs from m the other way round, ending at that neighbour.
        order += (cycle[0],) + cycle[:0:-1]
    return Tour(tuple(order))


def gen_three_opt_lb(s: int) -> FamilyOutput:
    """Period-8 family on 8s vertices; the identity tour is 3-optimal.

    The identity tour costs 11s while the reference tour built from four
    disjoint cost-1 cycles costs at most 8s + 4.
    """
    family = FAMILIES["three-opt-lb"]
    n = family.vertices(s)
    check_dense_size(n)
    inst = Instance(n, _template_edges(n, s, family.period, _THREE_OPT_TEMPLATE))
    return _checked(
        FamilyOutput(
            instance=inst,
            tour=identity_tour(n),
            reference_tour=build_three_opt_reference(s),
            claimed_tour_cost=11 * s,
            claimed_reference_bound=8 * s + 4,
        )
    )


def gen_three_opt_pp_lb(s: int) -> FamilyOutput:
    """Period-6 family on 6s vertices; the identity tour resists merging.

    The identity tour costs 8s.  The reference tour alternates the edges
    {2h, 2h+1} and {2h, 2h+3} around the whole vertex set and is all
    cost-1, so it costs exactly 6s.
    """
    family = FAMILIES["three-opt-pp-lb"]
    n = family.vertices(s)
    check_dense_size(n)
    inst = Instance(n, _template_edges(n, s, family.period, _PP_TEMPLATE))
    reference = _cycle(_template_edges(n, 3 * s, 2, ((0, 1), (0, 3))))
    return _checked(
        FamilyOutput(
            instance=inst,
            tour=identity_tour(n),
            reference_tour=Tour(reference),
            claimed_tour_cost=8 * s,
            claimed_reference_bound=6 * s,
        )
    )


class Family(NamedTuple):
    """How to build one member of a constructed family."""

    size: str  # the one size option the generator takes: "n" or "s"
    generate: Callable[[int], FamilyOutput]
    period: int | None  # vertices per template block; None if not block-built
    bound: Fraction  # the paper's ratio bound, which the family's ratio tends to
    label: str  # the name its size refusal uses
    least: int  # the smallest size it builds

    def vertices(self, size: int) -> int:
        """Vertex count of the member of this size, period vertices a block;
        refuses a size below least, as the generator does first."""
        if size < self.least:
            raise InvalidArgumentError(
                f"{self.label} family needs {self.size} >= {self.least}, got {size}"
            )
        return size * (self.period or 1)


FAMILIES: dict[str, Family] = {
    "two-opt-lb": Family("n", gen_two_opt_lb, None, Fraction(3, 2), "two-opt", 7),
    "three-opt-lb": Family("s", gen_three_opt_lb, 8, BOUND_PLAIN, "three-opt", 3),
    "three-opt-pp-lb": Family("s", gen_three_opt_pp_lb, 6, BOUND_PP, "merging", 2),
}


def is_regular(family: str, s_check: int, l: int) -> RegularityResult:
    """Check segment structure of a family instance on s_check * l vertices.

    Splits the vertex cycle into s_check segments of l consecutive labels
    and tests that costs are invariant under shifting by l and that cost-1
    edges only join a segment to itself or a cyclically adjacent segment.
    The returned violation is the smallest offending vertex pair.
    """
    spec = FAMILIES.get(family)
    if spec is None or spec.period is None:
        known = ", ".join(name for name, f in FAMILIES.items() if f.period)
        raise InvalidArgumentError(f"{family!r} has no block period; use one of {known}")
    if s_check < 3:
        raise InvalidArgumentError(f"need at least 3 segments, got {s_check}")
    if l < 1:
        raise InvalidArgumentError(f"segment length must be positive, got {l}")
    period = spec.period
    n = s_check * l
    if n % period:
        raise InvalidArgumentError(
            f"{family} exists only on multiples of {period} vertices, got {n}"
        )
    cost1 = spec.generate(n // period).instance.cost1
    shifted = frozenset(canonical_edge((u + l) % n, (v + l) % n) for u, v in cost1)
    if shifted != cost1:
        first = min((cost1 - shifted) | (shifted - cost1))
        return RegularityResult(regular=False, condition=2, violation=first)
    for u, v in sorted(cost1):
        gap = (v // l - u // l) % s_check
        if 1 < gap < s_check - 1:
            return RegularityResult(regular=False, condition=3, violation=(u, v))
    return RegularityResult(regular=True, condition=None, violation=None)


def random_instance(n: int, p: float, seed: int) -> Instance:
    """Each vertex pair gets cost 1 with probability p, independently.

    Pairs are drawn in lexicographic order so the instance depends only on
    (n, p, seed).
    """
    if n < MIN_N:
        raise InvalidArgumentError(f"need n >= {MIN_N}, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"edge probability must be in [0, 1], got {p}")
    check_dense_bytes(n * n + math.ceil(_EDGE_SET_BYTES * p * n * n), n, "a random instance")
    rng = random.Random(seed)
    edges = frozenset(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return Instance(n, edges)
