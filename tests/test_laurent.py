"""Exact Laurent polynomial arithmetic, checked against a naive
dictionary model and by algebraic laws; the division helpers of the
expanded reference are checked here too."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_alexander import (
    NotDivisible,
    compose_power,
    cyclotomic,
    div_exact,
    divisible_by,
    geometric_sum,
    one_minus_t_power,
    power,
)
from seifertlinks import LaurentPoly


def naive_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def as_dict(poly: LaurentPoly) -> dict[int, int]:
    return dict(poly.terms)


polys = st.builds(
    LaurentPoly.from_terms,
    st.lists(
        st.tuples(
            st.integers(min_value=-6, max_value=12),
            st.integers(min_value=-9, max_value=9),
        ),
        max_size=6,
    ),
)


@given(polys, polys)
def test_mul_matches_naive_model(a, b):
    assert as_dict(a * b) == naive_product(as_dict(a), as_dict(b))


@given(polys, polys, polys)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys)
def test_add_neg_cancels(a):
    assert (a + (-a)).is_zero
    assert a - a == LaurentPoly.zero()


@given(polys, st.integers(min_value=0, max_value=4))
def test_pow_is_repeated_mul(a, n):
    expected = LaurentPoly.one()
    for _ in range(n):
        expected = expected * a
    assert power(a, n) == expected


@given(polys, st.integers(min_value=-5, max_value=5))
def test_shift_multiplies_by_monomial(a, j):
    assert a.shift(j) == a * LaurentPoly.monomial(j)


@given(polys, st.integers(min_value=1, max_value=4))
def test_compose_power_rescales_exponents(a, m):
    assert as_dict(compose_power(a, m)) == {
        e * m: c for e, c in as_dict(a).items()
    }


@given(polys, polys)
def test_div_exact_inverts_mul(a, b):
    if b.is_zero:
        return
    assert div_exact(a * b, b) == a


def test_div_exact_rejects_non_factor():
    t = LaurentPoly.monomial(1)
    with pytest.raises(NotDivisible):
        div_exact(t * t + LaurentPoly.one(), t + LaurentPoly.one())


def test_divisible_by_reports_without_raising():
    squares = one_minus_t_power(4)
    assert divisible_by(squares, one_minus_t_power(2))
    assert not divisible_by(squares, one_minus_t_power(3))


@given(polys)
def test_normalize_units_shape(a):
    if a.is_zero:
        assert a.normalize_units().is_zero
        return
    normalized = a.normalize_units()
    assert normalized.min_exp == 0
    assert normalized.coefficient(0) > 0
    assert normalized.normalize_units() == normalized


@given(polys, st.integers(min_value=-4, max_value=4), st.sampled_from([1, -1]))
def test_normalize_units_forgets_units(a, j, sign):
    if a.is_zero:
        return
    assert a.shift(j).scale(sign).normalize_units() == a.normalize_units()


def test_eval_at_minus_one_on_alternating_products():
    # (t - 1)(1 + t^3 + t^6) has |value| 2 at t = -1; evaluation happens
    # on the unit-normalized form, whose constant term is positive.
    poly = (LaurentPoly.monomial(1) - LaurentPoly.one()) * (
        LaurentPoly.from_terms([(0, 1), (3, 1), (6, 1)])
    )
    assert poly.eval_at_minus_one() == 2


@given(polys)
def test_eval_at_minus_one_matches_direct_sum(a):
    normal = a.normalize_units()
    expected = sum(c * (-1) ** e for e, c in normal.terms)
    assert a.eval_at_minus_one() == expected


@given(polys, st.integers(min_value=-4, max_value=4), st.sampled_from([1, -1]))
def test_eval_at_minus_one_ignores_units(a, j, sign):
    assert a.shift(j).scale(sign).eval_at_minus_one() == a.eval_at_minus_one()


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
)
def test_geometric_sum_telescopes(step, count):
    product = one_minus_t_power(step) * geometric_sum(step, count)
    assert product == one_minus_t_power(step * count)


def test_cyclotomic_base_case():
    assert cyclotomic(1) == LaurentPoly.from_terms([(0, -1), (1, 1)])


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_product_over_divisors(n):
    product = LaurentPoly.one()
    for d in range(1, n + 1):
        if n % d == 0:
            product = product * cyclotomic(d)
    assert product == LaurentPoly.monomial(n) - LaurentPoly.one()


def test_cyclotomic_known_small_values():
    assert dict(cyclotomic(2).terms) == {0: 1, 1: 1}
    assert dict(cyclotomic(4).terms) == {0: 1, 2: 1}
    assert dict(cyclotomic(6).terms) == {0: 1, 1: -1, 2: 1}
    assert dict(cyclotomic(12).terms) == {0: 1, 2: -1, 4: 1}


def test_to_text_readable_forms():
    assert LaurentPoly.zero().to_text() == "0"
    assert LaurentPoly.one().to_text() == "1"
    poly = LaurentPoly.from_terms([(0, 1), (3, -1), (7, 2)])
    assert poly.to_text() == "1 - t^3 + 2t^7"
    assert LaurentPoly.from_terms([(1, -1)]).to_text() == "-t"


def test_breadth_and_extremes():
    poly = LaurentPoly.from_terms([(-2, 3), (5, -1)])
    assert poly.min_exp == -2
    assert poly.max_exp == 5
    assert poly.breadth == 7
    assert list(poly) == [(-2, 3), (5, -1)]
