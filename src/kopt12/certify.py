"""Exhaustive local-optimality certification.

A certificate records the verdict of scanning the complete k-move
neighborhood of one tour under one acceptance predicate.  The plain
predicate accepts moves of positive gain; the pp predicate additionally
accepts zero-gain moves that strictly reduce the number of length-0
1-paths.  A non-optimal verdict carries the first improving move in
enumeration order as its witness.

Two structural scans used when reasoning about 3-optimal tours live here
as well: find_forbidden_constellation locates a six-vertex configuration
that always admits an improving 3-move, and endpoint_pair_violations lists
cost-1 endpoint pairs of distinct 1-paths, which admit an improving or
path-merging move.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, PathDecomposition, Tour, _heavy_edges, canonical_edge
from .errors import InvalidArgumentError
from .moves import KMove, find_improving, neighborhood_size


@dataclass(frozen=True)
class Certificate:
    """Outcome of one exhaustive neighborhood scan."""

    verdict: str
    witness: KMove | None
    moves_examined: int
    predicate: str
    k: int


def _certify(instance: Instance, tour: Tour, k: int, plusplus: bool) -> Certificate:
    witness = find_improving(instance, tour, k, plusplus)
    return Certificate(
        verdict="optimal" if witness is None else "non-optimal",
        witness=witness,
        moves_examined=neighborhood_size(instance.n, k),
        predicate="pp" if plusplus else "plain",
        k=k,
    )


def certify_k_optimal(instance: Instance, tour: Tour, k: int) -> Certificate:
    """Scan every move of up to k edges for positive gain."""
    return _certify(instance, tour, k, plusplus=False)


def certify_kpp_optimal(instance: Instance, tour: Tour, k: int) -> Certificate:
    """Scan every move for positive gain or zero-gain 1-path merging."""
    return _certify(instance, tour, k, plusplus=True)


def _constellation(
    instance: Instance, order: tuple[int, ...], heavy
) -> tuple[int, int, int, int, int, int] | None:
    """find_forbidden_constellation of a tour order whose heavy mask (its
    row of core._order_heavy) is given."""
    heavy = heavy.tolist()
    n = instance.n
    pos = {x: i for i, x in enumerate(order)}
    nbrs = instance.cost1_neighbors
    for pu in range(n):
        if not heavy[pu]:
            continue
        found = [
            (off, s)
            for a in nbrs[order[pu]]
            for s in [(pos[a] - pu) % n]
            for v in nbrs[order[(pu + s + 1) % n]]
            for off in [(pos[v] - pu) % n]
            if off - s >= 2 and heavy[pos[v] - 1]
        ]
        if found:
            off, s = min(found)
            return tuple(order[(pu + i) % n] for i in (1, off - 1, 0, off, s, s + 1))
    return None


def find_forbidden_constellation(
    instance: Instance, tour: Tour
) -> tuple[int, int, int, int, int, int] | None:
    """First (p, q, u, v, a, b) configuration in scan order, or None.

    The configuration asks for tour neighbours p of u and q of v with
    c(u, p) = c(v, q) = 2, both lying on the same u-to-v arc, and a tour
    edge {a, b} strictly inside that arc with c(a, u) = c(b, v) = 1, a on
    the side of p.  All six vertices are distinct.  A 3-optimal tour
    cannot contain one.

    _constellation walks the tour's order and heavy mask.  From each heavy
    edge (u, p) at position pu, ascending, the walk steps to each cost-1
    neighbour a of u, to b after a, and to each cost-1 neighbour v of b with
    a heavy edge into v; the least offsets (v's, a's) win.
    """
    return _constellation(instance, tour.order, _heavy_edges(instance, tour))


def endpoint_pair_violations(instance: Instance, dec: PathDecomposition) -> list[tuple[int, int]]:
    """Cost-1 pairs of endpoints taken from two different 1-paths of dec, sorted."""
    owner = {v: pid for pid, path in enumerate(dec.paths) for v in (path[0], path[-1])}
    if not all(0 <= v < instance.n for v in owner):
        raise InvalidArgumentError(f"decomposition names a vertex outside 0..{instance.n - 1}")
    nbrs = instance.cost1_neighbors
    return sorted(
        {canonical_edge(x, y) for x, i in owner.items() for y in nbrs[x] if owner.get(y, i) != i}
    )
