"""Text formats: exact serialisation, round trips, and strict parsing."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kopt12 import (
    Instance,
    ParseError,
    Tour,
    format_instance,
    format_tour,
    parse_instance,
    parse_tour,
    read_instance,
    read_tour,
    write_instance,
    write_tour,
)

from conftest import instances


def test_format_instance_exact():
    inst = Instance.from_pairs(4, [(1, 3), (0, 2)])
    assert format_instance(inst) == "p12tsp 4\ne 0 2\ne 1 3\n"


def test_format_tour_exact():
    assert format_tour(Tour((0, 2, 1, 3))) == "tour 4\n0 2 1 3\n"


@given(instances())
def test_instance_round_trip(instance):
    assert parse_instance(format_instance(instance)) == instance


@given(st.permutations(range(7)))
def test_tour_round_trip(order):
    tour = Tour(tuple(order))
    assert parse_tour(format_tour(tour)) == tour


def test_parse_instance_ignores_comments_and_blanks():
    text = "# header comment\n\np12tsp 5\n# edge comment\ne 0 3\n\ne 1 2\n"
    assert parse_instance(text) == Instance.from_pairs(5, [(0, 3), (1, 2)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "e 0 1\np12tsp 4\n",
        "p12tsp 4\np12tsp 4\n",
        "p12tsp\n",
        "p12tsp four\n",
        "p12tsp 4\ne 0\n",
        "p12tsp 4\ne 0 x\n",
        "p12tsp 4\ne 1 1\n",
        "p12tsp 4\ne 2 1\n",
        "p12tsp 4\ne 0 4\n",
        "p12tsp 4\ne 0 1\ne 0 1\n",
        "p12tsp 4\nv 0 1\n",
    ],
)
def test_parse_instance_rejects(text):
    with pytest.raises(ParseError):
        parse_instance(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0 1 2\n",
        "tour\n",
        "tour x\n0\n",
        "tour 3\n0 1\n",
        "tour 3\n0 1 2 3\n",
        "tour 3\n0 one 2\n",
    ],
)
def test_parse_tour_rejects(text):
    with pytest.raises(ParseError):
        parse_tour(text)


def test_parse_tour_accepts_wrapped_lines():
    assert parse_tour("# note\ntour 5\n0 3\n1 4 2\n") == Tour((0, 3, 1, 4, 2))


def test_file_round_trip(tmp_path, hexa):
    ipath = tmp_path / "inst.txt"
    tpath = tmp_path / "tour.txt"
    write_instance(hexa, ipath)
    write_tour(Tour((5, 0, 1, 2, 3, 4)), tpath)
    assert read_instance(ipath) == hexa
    assert read_tour(tpath) == Tour((5, 0, 1, 2, 3, 4))


def test_binary_file_is_parse_error(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(ParseError, match="not a text file"):
        read_instance(path)
    with pytest.raises(ParseError, match="not a text file"):
        read_tour(path)
