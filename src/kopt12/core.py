"""Instances, tours and 1-path structure for the (1,2)-TSP.

An instance on n vertices is the complete graph where every edge costs 1 or
2.  Only the cost-1 edges are stored, as canonical (min, max) pairs; every
absent pair costs 2.  Tours are cyclic vertex orders.  Deleting the cost-2
edges of a tour leaves its 1-paths: maximal tour segments made of cost-1
edges (an isolated vertex is a 1-path of length 0).

A Tour is a permutation of 0..n-1 by construction, so functions given an
instance and a tour only check that both have the same n.  Dense n-by-n
tables over DENSE_MAX_BYTES are refused before they are allocated.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DuplicateVertexError,
    InvalidArgumentError,
    MissingVertexError,
    SizeExceededError,
    WrongLengthError,
)

MIN_N = 3
# Bytes any dense n-by-n table may take; the uint8 cost matrix reaches it at
# n = 32768.
DENSE_MAX_BYTES = 1 << 30

Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def check_dense_bytes(need: int, n: int, what: str) -> None:
    """Raise SizeExceededError, naming what on n vertices, when need bytes
    would pass DENSE_MAX_BYTES; call it before allocating."""
    if need > DENSE_MAX_BYTES:
        raise SizeExceededError(
            f"{what} on {n} vertices needs about {need / 2**30:.1f} GiB, "
            f"over the {DENSE_MAX_BYTES / 2**30:.0f} GiB cap on dense tables"
        )


def check_dense_size(n: int, bytes_per_entry: int = 1, what: str = "the cost matrix") -> None:
    """Raise SizeExceededError when n-by-n tables of bytes_per_entry bytes
    per entry would pass DENSE_MAX_BYTES; call it before allocating.

    The defaults describe the uint8 cost matrix of an n-vertex instance.
    """
    check_dense_bytes(n * n * bytes_per_entry, n, what)


@dataclass(frozen=True)
class Instance:
    """A (1,2)-TSP instance: n vertices plus the set of cost-1 edges.

    cost1 must contain canonical in-range pairs; use from_pairs to build an
    instance from raw edge data.  An instance whose cost matrix would pass
    DENSE_MAX_BYTES is refused.
    """

    n: int
    cost1: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if self.n < MIN_N:
            raise InvalidArgumentError(f"need at least {MIN_N} vertices, got {self.n}")
        check_dense_size(self.n)
        for u, v in self.cost1:
            if not (0 <= u < v < self.n):
                raise InvalidArgumentError(f"edge ({u},{v}) is not canonical for n={self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Instance":
        """Canonicalise raw vertex pairs, rejecting self-loops and duplicates."""
        seen: set[Edge] = set()
        for u, v in pairs:
            if u == v:
                raise InvalidArgumentError(f"self-loop ({u},{v})")
            e = canonical_edge(u, v)
            if e in seen:
                raise InvalidArgumentError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n, frozenset(seen))

    @cached_property
    def cost_matrix(self) -> np.ndarray:
        """Dense n-by-n cost lookup (uint8), scattered from cost1_csr; the
        diagonal is 0 and unused."""
        m = np.full((self.n, self.n), 2, dtype=np.uint8)
        indptr, indices = self.cost1_csr
        m[np.repeat(np.arange(self.n), np.diff(indptr)), indices] = 1
        np.fill_diagonal(m, 0)
        return m

    @cached_property
    def cost1_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Cost-1 neighbours as compressed sparse rows (indptr, indices): the
        neighbours of v, ascending, are indices[indptr[v]:indptr[v + 1]].

        It flattens cost1_neighbors and takes 16 bytes per edge.
        """
        nbrs = self.cost1_neighbors
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, nbrs), np.intp, self.n), out=indptr[1:])
        return indptr, np.fromiter(itertools.chain.from_iterable(nbrs), np.intp, indptr[-1])

    @cached_property
    def cost1_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's cost-1 neighbours, ascending: the one walk of cost1,
        in sorted order, that cost1_csr and cost_matrix derive from."""
        nbrs = [[] for _ in range(self.n)]
        for u, v in sorted(self.cost1):
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))


def cost_edge(instance: Instance, u: int, v: int) -> int:
    """Cost of the edge {u, v}: 1 if listed, else 2."""
    if u == v:
        raise InvalidArgumentError(f"no edge from {u} to itself")
    if not (0 <= u < instance.n and 0 <= v < instance.n):
        raise InvalidArgumentError(f"vertex out of range: ({u},{v}) with n={instance.n}")
    return 1 if canonical_edge(u, v) in instance.cost1 else 2


@dataclass(frozen=True)
class Tour:
    """A cyclic vertex order; edge i joins order[i] and order[(i+1) % n].
    Building one from an order that is no permutation of 0..n-1 raises."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        o = tuple(self.order)
        object.__setattr__(self, "order", o)
        if not o or (len(set(o)) == len(o) and min(o) == 0 and max(o) == len(o) - 1):
            return
        seen: set[int] = set()
        for v in o:
            if v in seen:
                raise DuplicateVertexError(f"vertex {v} appears more than once")
            seen.add(v)
        want = set(range(len(o)))
        missing, foreign = sorted(want - seen), sorted(seen - want)
        raise MissingVertexError(f"missing vertices {missing}, out-of-range entries {foreign}")

    @property
    def n(self) -> int:
        return len(self.order)

    def edges(self) -> Iterator[Edge]:
        o = self.order
        for i in range(len(o)):
            yield canonical_edge(o[i], o[(i + 1) % len(o)])

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())


def identity_tour(n: int) -> Tour:
    return Tour(tuple(range(n)))


def cycle_from_edges(edges: Iterable[Edge]) -> tuple[int, ...]:
    """Vertex order of the single cycle the edges form.

    The order starts at the least vertex and heads toward its smaller
    neighbour, so equal edge sets always give identical orders.  Raises
    InvalidArgumentError when a vertex does not have exactly two edges
    (bad degree) or when the edges form more than one cycle.
    """
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if not adj or any(len(nbrs) != 2 for nbrs in adj.values()):
        raise InvalidArgumentError("edges do not form a cycle (bad degree)")
    start = min(adj)
    seq = [start]
    prev, cur = start, min(adj[start])
    while cur != start:
        seq.append(cur)
        x, y = adj[cur]
        prev, cur = cur, (y if x == prev else x)
    if len(seq) != len(adj):
        raise InvalidArgumentError("edges form more than one cycle")
    return tuple(seq)


def validate_tour(instance: Instance, tour: Tour) -> None:
    """Raise WrongLengthError unless the tour (a permutation) has instance.n entries."""
    if tour.n != instance.n:
        raise WrongLengthError(f"tour has {tour.n} entries, expected {instance.n}")


def _order_heavy(instance: Instance, order: tuple[int, ...] | np.ndarray) -> np.ndarray:
    """Bool mask over the edges of a tour order of instance.n vertices:
    entry i is whether the edge from order[i] to order[i+1] (order[0] for
    the last) costs 2."""
    ends = np.empty(len(order) + 1, dtype=np.intp)
    ends[:-1] = order
    ends[-1] = order[0]
    return instance.cost_matrix[ends[:-1], ends[1:]] == 2


def _heavy_edges(instance: Instance, tour: Tour) -> np.ndarray:
    """_order_heavy of the tour's order, once the tour is checked."""
    validate_tour(instance, tour)
    return _order_heavy(instance, tour.order)


def tour_cost(instance: Instance, tour: Tour) -> int:
    """Total edge cost of the tour; always between n and 2n."""
    return instance.n + int(np.count_nonzero(_heavy_edges(instance, tour)))


@dataclass(frozen=True)
class PathDecomposition:
    """The 1-paths of a tour in a fixed canonical order.

    Each path is the vertex sequence of one maximal cost-1 segment, oriented
    so the sequence is lexicographically no larger than its reverse, and the
    paths are sorted.  whole_cycle marks the degenerate case of a tour with
    no cost-2 edge at all, where the single "segment" is the full cycle and
    paths is left empty.
    """

    paths: tuple[tuple[int, ...], ...]
    whole_cycle: bool = False


def one_path_decomposition(instance: Instance, tour: Tour) -> PathDecomposition:
    """Split the tour at its cost-2 edges into maximal cost-1 segments."""
    heavy = np.flatnonzero(_heavy_edges(instance, tour)).tolist()
    if not heavy:
        return PathDecomposition(paths=(), whole_cycle=True)
    # Each path runs from just past one heavy edge to the start of the next,
    # read in the doubled order so that the last path wraps.
    o = tour.order * 2
    stops = heavy[1:] + [heavy[0] + instance.n]
    paths = (o[a + 1 : b + 1] for a, b in zip(heavy, stops))
    return PathDecomposition(paths=tuple(sorted(min(p, p[::-1]) for p in paths)))
