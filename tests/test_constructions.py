"""Lower-bound families, regularity checking, and random instances."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kopt12 import (
    ConstructionError,
    Instance,
    InvalidArgumentError,
    SizeExceededError,
    canonical_edge,
    certify_k_optimal,
    certify_kpp_optimal,
    cost_edge,
    count_zero_paths,
    gen_three_opt_lb,
    gen_three_opt_pp_lb,
    gen_two_opt_lb,
    identity_tour,
    is_regular,
    one_path_decomposition,
    random_instance,
    tour_cost,
    validate_tour,
)
from kopt12 import constructions


class TestTwoOptFamily:
    def test_minimum_size(self):
        with pytest.raises(InvalidArgumentError):
            gen_two_opt_lb(6)

    def test_frozen_member_n7(self):
        fam = gen_two_opt_lb(7)
        assert fam.instance.cost1 == frozenset(
            {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (0, 2), (2, 4), (4, 6)}
        )
        assert fam.tour.order == (0, 1, 3, 5, 6, 4, 2)
        assert fam.claimed_tour_cost == 9
        assert fam.reference_tour == identity_tour(7)
        assert fam.claimed_reference_bound == 7
        assert tour_cost(fam.instance, fam.reference_tour) == 7

    @pytest.mark.parametrize("n", range(7, 13))
    def test_designated_tour_is_2_optimal(self, n):
        fam = gen_two_opt_lb(n)
        assert tour_cost(fam.instance, fam.tour) == n + (n - 2) // 2
        assert certify_k_optimal(fam.instance, fam.tour, 2).verdict == "optimal"


class TestThreeOptFamily:
    def test_minimum_size(self):
        with pytest.raises(InvalidArgumentError):
            gen_three_opt_lb(2)

    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_costs_and_structure(self, s):
        fam = gen_three_opt_lb(s)
        n = 8 * s
        assert fam.instance.n == n
        assert len(fam.instance.cost1) == 13 * s
        assert fam.claimed_tour_cost == 11 * s
        assert tour_cost(fam.instance, fam.tour) == 11 * s
        validate_tour(fam.instance, fam.reference_tour)
        assert tour_cost(fam.instance, fam.reference_tour) <= 8 * s + 4
        dec = one_path_decomposition(fam.instance, fam.tour)
        assert count_zero_paths(fam.instance, fam.tour) == 2 * s
        assert len(dec.paths) == 3 * s

    @pytest.mark.parametrize("s", [3, 4])
    def test_designated_tour_is_3_optimal(self, s):
        fam = gen_three_opt_lb(s)
        assert certify_k_optimal(fam.instance, fam.tour, 3).verdict == "optimal"


class TestMergingFamily:
    def test_minimum_size(self):
        with pytest.raises(InvalidArgumentError):
            gen_three_opt_pp_lb(1)

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_costs_and_structure(self, s):
        fam = gen_three_opt_pp_lb(s)
        n = 6 * s
        assert fam.instance.n == n
        assert fam.claimed_tour_cost == 8 * s
        assert tour_cost(fam.instance, fam.tour) == 8 * s
        validate_tour(fam.instance, fam.reference_tour)
        assert tour_cost(fam.instance, fam.reference_tour) == 6 * s
        for u, v in fam.reference_tour.edges():
            assert cost_edge(fam.instance, u, v) == 1

    def test_path_profile_at_s2(self):
        fam = gen_three_opt_pp_lb(2)
        dec = one_path_decomposition(fam.instance, fam.tour)
        assert tuple(len(p) - 1 for p in dec.paths) == (1, 3, 1, 3)
        assert count_zero_paths(fam.instance, fam.tour) == 0

    @pytest.mark.parametrize("s", [2, 3])
    def test_designated_tour_survives_merging_predicate(self, s):
        fam = gen_three_opt_pp_lb(s)
        assert certify_kpp_optimal(fam.instance, fam.tour, 3).verdict == "optimal"


class TestRegularity:
    def test_merging_family_is_regular_in_blocks_of_6(self):
        result = is_regular("three-opt-pp-lb", 16, 6)
        assert result.regular
        assert result.condition is None
        assert result.violation is None

    def test_three_opt_family_not_regular_in_blocks_of_8(self):
        result = is_regular("three-opt-lb", 12, 8)
        assert not result.regular
        assert result.condition == 3
        assert result.violation == (1, 87)

    def test_three_opt_family_regular_in_blocks_of_16(self):
        result = is_regular("three-opt-lb", 6, 16)
        assert result.regular

    def test_merging_family_not_regular_in_blocks_of_4(self):
        # Shifting by 4 vertices does not map the period-6 blocks onto themselves.
        result = is_regular("three-opt-pp-lb", 3, 4)
        assert (result.regular, result.condition, result.violation) == (False, 2, (1, 2))

    def test_argument_errors(self):
        with pytest.raises(InvalidArgumentError):
            is_regular("no-such-family", 8, 8)
        with pytest.raises(InvalidArgumentError):
            is_regular("two-opt-lb", 8, 8)
        with pytest.raises(InvalidArgumentError):
            is_regular("three-opt-lb", 7, 6)
        with pytest.raises(InvalidArgumentError):
            is_regular("three-opt-lb", 2, 8)
        with pytest.raises(InvalidArgumentError):
            is_regular("three-opt-lb", 8, 0)
        with pytest.raises(InvalidArgumentError):
            is_regular("three-opt-lb", 4, 4)


def _pp_template_without_0_1(monkeypatch):
    monkeypatch.setattr(constructions, "_PP_TEMPLATE", constructions._PP_TEMPLATE[1:])


def _three_opt_template_without_2_5(monkeypatch):
    template = tuple(e for e in constructions._THREE_OPT_TEMPLATE if e != (2, 5))
    monkeypatch.setattr(constructions, "_THREE_OPT_TEMPLATE", template)


def _three_opt_in_blocks_of_4(monkeypatch):
    family = constructions.FAMILIES["three-opt-lb"]
    monkeypatch.setitem(constructions.FAMILIES, "three-opt-lb", family._replace(period=4))


# A broken family, the member it is asked for, and the self-check that refuses it.
BROKEN_FAMILIES = [
    # Without the {0, 1} block edges the identity tour costs 2 more per block.
    (_pp_template_without_0_1, gen_three_opt_pp_lb, 2, "designated tour costs 18, claimed 16"),
    # The reference tour's {2, 5} edges now cost 2.
    (
        _three_opt_template_without_2_5,
        gen_three_opt_lb,
        3,
        "reference tour costs 29, above the claimed bound 28",
    ),
    # In blocks of 4 the reference's first cycle splits into even and odd blocks.
    (_three_opt_in_blocks_of_4, gen_three_opt_lb, 4, "reference edges form more than one cycle"),
]


@pytest.mark.parametrize(
    "break_family, generate, size, message",
    BROKEN_FAMILIES,
    ids=["designated-cost", "reference-bound", "reference-cycle"],
)
def test_generators_refuse_members_that_fail_their_claims(
    monkeypatch, break_family, generate, size, message
):
    break_family(monkeypatch)
    with pytest.raises(ConstructionError) as exc:
        generate(size)
    assert str(exc.value) == message


class TestRandomInstance:
    def test_deterministic_for_fixed_seed(self):
        assert random_instance(9, 0.5, 123) == random_instance(9, 0.5, 123)
        assert random_instance(9, 0.5, 123) != random_instance(9, 0.5, 124)

    def test_probability_extremes(self):
        assert random_instance(6, 0.0, 1).cost1 == frozenset()
        full = random_instance(6, 1.0, 1).cost1
        assert len(full) == 15

    def test_argument_errors(self):
        with pytest.raises(InvalidArgumentError):
            random_instance(2, 0.5, 0)
        with pytest.raises(InvalidArgumentError):
            random_instance(6, 1.5, 0)

    def test_edge_set_budgeted_before_drawing(self):
        with pytest.raises(SizeExceededError, match="random instance on 6000 vertices"):
            random_instance(6000, 1.0, 1)

    def test_edge_set_budget_is_exact(self, monkeypatch):
        # n^2 + 100*p*n^2 bytes: 0.59 GiB at n = 24,000, p = 0.001, under the cap.
        class Drawing(Exception):
            pass

        def no_draws(seed):
            raise Drawing

        monkeypatch.setattr(constructions.random, "Random", no_draws)
        with pytest.raises(Drawing):
            random_instance(24000, 0.001, 1)
        with pytest.raises(
            SizeExceededError, match="a random instance on 6000 vertices needs about 3.4 GiB"
        ):
            random_instance(6000, 1.0, 1)

    @given(
        st.integers(min_value=3, max_value=12),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_edges_are_canonical_pairs(self, n, p, seed):
        instance = random_instance(n, p, seed)
        assert isinstance(instance, Instance)
        for u, v in instance.cost1:
            assert 0 <= u < v < n
            assert canonical_edge(u, v) == (u, v)
