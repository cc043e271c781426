"""Alexander polynomials, checked against Seifert matrices of plumbing
trees, reduced Burau matrices of positive braid words, and the expanded
splice formulas of `reference_alexander`."""

from __future__ import annotations

import time

import pytest

import oracles
from reference_alexander import (
    delta_degree,
    reference_cyclotomic_divides,
    reference_delta,
    reference_determinant,
    reference_genus,
    torus_knot_delta,
)
from seifertlinks import (
    DynkinType,
    HopfSum,
    InvariantViolation,
    LaurentPoly,
    LinkInputError,
    OneCore,
    TwoCore,
    ZeroCore,
    ade_link,
    alias_to_link,
    components,
    cyclotomic_divides,
    delta,
    determinant,
    genus,
)
from seifertlinks.alexander import _divide_by_one_minus_power


# -- frozen closed forms ---------------------------------------------------------


FROZEN = [
    (ZeroCore(3, 4, 1, 1), ((0, 1), (1, -1), (3, 1), (5, -1), (6, 1))),
    (
        OneCore(3, 2, 1, 1, 1),
        ((0, 1), (1, -1), (3, 1), (4, -1), (6, 1), (7, -1)),
    ),
    (
        ZeroCore(3, 5, 1, 1),
        ((0, 1), (1, -1), (3, 1), (4, -1), (5, 1), (7, -1), (8, 1)),
    ),
    (OneCore(3, 2, 1, 1, -1), ((0, 1), (3, -1))),
    (OneCore(2, 3, 1, 1, -1), ((0, 1), (1, -1), (2, 1), (3, -1))),
    (OneCore(1, 2, 2, 2, -1), ((0, 1), (1, -1), (3, -1), (4, 1))),
    (HopfSum(1, 0), ((0, 1), (1, -1))),
    (HopfSum(2, 1), ((0, 1), (1, -3), (2, 3), (3, -1))),
    (ZeroCore(1, 3, 2, 0), ((0, 3), (1, -3))),
]


@pytest.mark.parametrize("link, expected", FROZEN)
def test_frozen_polynomials(link, expected):
    assert delta(link).terms == expected


def test_dihedral_family_split_by_parity():
    # (1-t)(1-t^{m-1}) for even m, (1-t)(1+t^{m-1}) for odd m.
    for m in range(4, 13):
        poly = delta(ade_link(DynkinType("D", m)))
        if m % 2 == 0:
            assert poly.terms == ((0, 1), (1, -1), (m - 1, -1), (m, 1))
            assert determinant(ade_link(DynkinType("D", m))) == 4
        else:
            assert poly.terms == ((0, 1), (1, -1), (m - 1, 1), (m, -1))
            assert determinant(ade_link(DynkinType("D", m))) == 4


def test_zero_winding_collapses():
    assert delta(ZeroCore(2, 3, 2, 0)).terms == ((0, 6), (1, -6))
    assert delta(ZeroCore(2, 3, 4, 0)).is_zero
    assert delta(ZeroCore(1, 2, 6, 0)).is_zero


# -- independent oracles ---------------------------------------------------------


def test_simply_laced_links_match_plumbing_trees():
    cases = [DynkinType("A", m) for m in range(1, 13)]
    cases += [DynkinType("D", m) for m in range(4, 13)]
    cases += [DynkinType("E", m) for m in (6, 7, 8)]
    for dynkin in cases:
        link = ade_link(dynkin)
        tree = oracles.dynkin_seifert(dynkin.family, dynkin.index)
        assert delta(link).terms == oracles.alexander_terms(tree), dynkin
        assert determinant(link) == oracles.symmetrized_det(tree), dynkin


@pytest.mark.parametrize(
    "a, b",
    [
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 8), (2, 9),
        (3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6), (5, 6),
    ],
)
def test_torus_links_match_burau_closures(a, b):
    link = alias_to_link(f"T({a},{b})")
    strands, word = oracles.torus_word(a, b)
    assert delta(link).terms == oracles.braid_closure_alexander(strands, word)
    assert components(link) == oracles.braid_components(strands, word)


@pytest.mark.parametrize("q", range(2, 9))
def test_pretzel_links_match_burau_closures(q):
    link = alias_to_link(f"P(-2,2,{q})")
    strands, word = oracles.pretzel_two_two_q_word(q)
    assert delta(link).terms == oracles.braid_closure_alexander(strands, word)
    assert components(link) == oracles.braid_components(strands, word)
    # The same link is a torus closure with its braid axis added.
    axis = oracles.closure_and_axis_word(2, [1] * q)
    assert delta(link).terms == oracles.braid_closure_alexander(*axis)


def test_trefoil_with_axis_matches_one_core_form():
    link = OneCore(3, 2, 1, 1, 1)
    strands, word = oracles.trefoil_and_axis_word()
    assert delta(link).terms == oracles.braid_closure_alexander(strands, word)


def test_adding_axis_to_square_word_gives_next_torus_link():
    # The closure of the three-strand square word plus its axis is T(4,4).
    strands, word = oracles.closure_and_axis_word(*oracles.torus_word(3, 3))
    link = alias_to_link("T(4,4)")
    assert delta(link).terms == oracles.braid_closure_alexander(strands, word)


# -- the factored form against the expanded reference ------------------------------


def test_delta_matches_expanded_reference(grid):
    for link in grid:
        assert delta(link) == reference_delta(link), link


def test_invariants_match_expanded_reference(grid):
    levels = {}  # n in 2..60 with Phi_n | Delta, per distinct polynomial
    for link in grid:
        assert genus(link) == reference_genus(link), link
        assert determinant(link) == reference_determinant(link), link
        poly = reference_delta(link)
        if poly not in levels:
            levels[poly] = [
                n for n in range(2, 61) if reference_cyclotomic_divides(n, poly)
            ]
        found = [n for n in range(2, 61) if cyclotomic_divides(n, link)]
        assert found == levels[poly], link


def test_large_parameters_need_no_expansion():
    # An expansion of this Delta would hold 10^11 coefficients.
    start = time.process_time()
    assert determinant(ZeroCore(99999999999, 2, 1, 1)) == 99999999999
    assert genus(ZeroCore(99999999999, 2, 1, 1)) == 49999999999
    assert cyclotomic_divides(2 * 99999999999, ZeroCore(99999999999, 2, 1, 1))
    assert time.process_time() - start < 5


def test_delta_of_large_link_has_the_closed_form_breadth():
    start = time.process_time()
    poly = delta(ZeroCore(101, 103, 3, 3))
    assert time.process_time() - start < 5
    assert poly.breadth == delta_degree(ZeroCore(101, 103, 3, 3)) == 93016
    assert poly.coefficient(0) == 1
    assert sum(c for _, c in poly.terms) == 0


def test_inexact_division_is_an_invariant_violation():
    # 1 - t^2 does not divide 1 - t: the quotient would be a power series.
    one_minus_t = LaurentPoly(((0, 1), (1, -1)))
    with pytest.raises(InvariantViolation):
        _divide_by_one_minus_power(one_minus_t, 2)
    assert _divide_by_one_minus_power(one_minus_t, 1) == LaurentPoly(((0, 1),))


# -- torus knot polynomial --------------------------------------------------------


def test_single_fibre_is_torus_knot():
    for p, q in [(2, 3), (2, 7), (3, 4), (3, 5), (4, 5), (5, 7)]:
        assert delta(ZeroCore(p, q, 1, 1)) == torus_knot_delta(p, q)


def test_torus_knot_delta_unknot_cases():
    assert torus_knot_delta(1, 1).terms == ((0, 1),)
    assert torus_knot_delta(1, 9).terms == ((0, 1),)


# -- numeric invariants -----------------------------------------------------------


def test_determinant_values():
    assert determinant(ZeroCore(2, 3, 1, 1)) == 3
    assert determinant(ZeroCore(3, 5, 1, 1)) == 1
    assert determinant(ZeroCore(1, 2, 2, 2)) == 4
    assert determinant(ZeroCore(2, 3, 2, 2)) == 12
    assert determinant(ZeroCore(2, 5, 2, 2)) == 20
    assert determinant(HopfSum(2, 0)) == 4


def test_genus_values():
    assert genus(ZeroCore(3, 5, 1, 1)) == 4
    assert genus(ZeroCore(2, 5, 1, 1)) == 2
    assert genus(ZeroCore(1, 3, 2, 0)) == 0
    assert genus(ZeroCore(1, 2, 4, 0)) == 0
    assert genus(HopfSum(3, 1)) == 0
    assert genus(OneCore(3, 2, 1, 1, 1)) == 3


def test_cyclotomic_divisor_levels():
    trefoil = ZeroCore(2, 3, 1, 1)
    assert [n for n in range(1, 31) if cyclotomic_divides(n, trefoil)] == [6]
    four = ZeroCore(1, 2, 2, 2)
    assert [n for n in range(1, 31) if cyclotomic_divides(n, four)] == [1, 4]
    e6 = ZeroCore(3, 4, 1, 1)
    assert [n for n in range(1, 31) if cyclotomic_divides(n, e6)] == [6, 12]
    e8 = ZeroCore(3, 5, 1, 1)
    assert [n for n in range(1, 31) if cyclotomic_divides(n, e8)] == [15]


def test_cyclotomic_divides_zero_polynomial():
    flat = ZeroCore(1, 2, 4, 0)
    assert delta(flat).is_zero
    assert all(cyclotomic_divides(n, flat) for n in range(1, 10))


def test_bad_caller_input_is_a_link_input_error():
    # Every rejection of caller data derives from LinkInputError.
    with pytest.raises(LinkInputError, match="cyclotomic index must be"):
        cyclotomic_divides(0, ZeroCore(2, 3, 1, 1))
    for family, index in [("D", 3), ("B", 2)]:
        with pytest.raises(LinkInputError, match="no Dynkin type"):
            DynkinType(family, index)


# -- laws over the whole grid ------------------------------------------------------


def test_delta_output_is_unit_normalized(grid):
    for link in grid:
        poly = delta(link)
        if poly.is_zero:
            continue
        assert poly.min_exp == 0
        assert poly.coefficient(0) > 0


def test_delta_is_palindromic_up_to_sign(grid):
    for link in grid:
        poly = delta(link)
        if poly.is_zero:
            continue
        top = poly.max_exp
        mirrored = [(top - e, c) for e, c in poly.terms]
        forward = dict(poly.terms)
        assert dict(mirrored) in (
            forward,
            {e: -c for e, c in forward.items()},
        ), link


def test_delta_at_one_detects_multiple_components(grid):
    for link in grid:
        poly = delta(link)
        total = sum(c for _, c in poly.terms)
        if components(link) == 1:
            assert abs(total) == 1, link
        else:
            assert total == 0, link


def test_breadth_matches_degree_formula(small_grid):
    from seifertlinks import ZeroPolynomial

    for link in small_grid:
        poly = delta(link)
        if poly.is_zero:
            with pytest.raises(ZeroPolynomial):
                delta_degree(link)
        else:
            assert poly.breadth == delta_degree(link), link


def test_genus_is_nonnegative_and_vanishes_with_delta(grid):
    for link in grid:
        g = genus(link)
        assert g >= 0
        if delta(link).is_zero:
            assert g == 0
