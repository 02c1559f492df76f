"""Plain-text formats for instances and tours.

Instance files:

    # optional comments
    p12tsp <n>
    e <u> <v>        one line per cost-1 edge, 0-based, u < v

Tour files:

    tour <n>
    <n whitespace-separated vertex ids, a permutation of 0..n-1>

Blank lines and lines starting with '#' are ignored.  Duplicate edge lines
are rejected so a file round-trips to exactly one instance.
"""

from __future__ import annotations

from pathlib import Path

from .core import Instance, Tour
from .errors import ParseError


def format_instance(instance: Instance) -> str:
    lines = [f"p12tsp {instance.n}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(instance.cost1))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p12tsp":
            if n is not None:
                raise ParseError(f"line {lineno}: repeated header")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: header must be 'p12tsp <n>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: edge line must be 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad edge endpoints") from None
            if not (0 <= u < v < n):
                raise ParseError(f"line {lineno}: edge ({u},{v}) needs 0 <= u < v < {n}")
            if (u, v) in edges:
                raise ParseError(f"line {lineno}: duplicate edge ({u},{v})")
            edges.add((u, v))
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ParseError("missing 'p12tsp <n>' header")
    return Instance(n, frozenset(edges))


def format_tour(tour: Tour) -> str:
    return f"tour {tour.n}\n" + " ".join(str(v) for v in tour.order) + "\n"


def parse_tour(text: str) -> Tour:
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens.extend(line.split())
    if len(tokens) < 2 or tokens[0] != "tour":
        raise ParseError("tour file must start with 'tour <n>'")
    try:
        n = int(tokens[1])
    except ValueError:
        raise ParseError(f"bad vertex count {tokens[1]!r}") from None
    ids = tokens[2:]
    if len(ids) != n:
        raise ParseError(f"expected {n} vertex ids, found {len(ids)}")
    try:
        order = tuple(int(t) for t in ids)
    except ValueError:
        raise ParseError("tour entries must be integers") from None
    return Tour(order)


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc.reason})") from None


def read_instance(path: str | Path) -> Instance:
    return parse_instance(_read_text(path))


def write_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(format_instance(instance))


def read_tour(path: str | Path) -> Tour:
    return parse_tour(_read_text(path))


def write_tour(tour: Tour, path: str | Path) -> None:
    Path(path).write_text(format_tour(tour))
