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


def find_forbidden_constellation(
    instance: Instance, tour: Tour
) -> tuple[int, int, int, int, int, int] | None:
    """First (p, q, u, v, a, b) configuration in scan order, or None.

    The configuration asks for tour neighbours p of u and q of v with
    c(u, p) = c(v, q) = 2, both lying on the same u-to-v arc, and a tour
    edge {a, b} strictly inside that arc with c(a, u) = c(b, v) = 1, a on
    the side of p.  All six vertices are distinct.  A 3-optimal tour
    cannot contain one.
    """
    heavy = _heavy_edges(instance, tour).tolist()
    n = instance.n
    if n < 6:
        return None
    o = tour.order
    c = instance.cost_matrix
    for pu in range(n):
        if not heavy[pu]:
            continue
        u, p = o[pu], o[(pu + 1) % n]
        for off in range(3, n):
            pv = (pu + off) % n
            if not heavy[pv - 1]:
                continue
            v, q = o[pv], o[pv - 1]
            for s in range(1, off - 1):
                a = o[(pu + s) % n]
                b = o[(pu + s + 1) % n]
                if c[a, u] == 1 and c[b, v] == 1:
                    return (p, q, u, v, a, b)
    return None


def endpoint_pair_violations(instance: Instance, dec: PathDecomposition) -> list[tuple[int, int]]:
    """Cost-1 pairs of endpoints taken from two different 1-paths of dec, sorted."""
    if len(dec.paths) < 2:
        return []
    c = instance.cost_matrix
    ends = [sorted({path[0], path[-1]}) for path in dec.paths]
    found: set[tuple[int, int]] = set()
    for ia in range(len(ends)):
        for ib in range(ia + 1, len(ends)):
            for x in ends[ia]:
                for y in ends[ib]:
                    if c[x, y] == 1:
                        found.add(canonical_edge(x, y))
    return sorted(found)
