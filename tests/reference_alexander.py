"""Expanded Alexander polynomials: the reference the package is checked
against.

These are the splice formulas written as products and exact quotients of
expanded `reference_laurent.Poly` values, with genus, determinant and
cyclotomic divisibility read back off the expansion.  The package reads the same
invariants off the factored form without expanding anything; the tests
compare the two over the whole grid.  The genus-zero catalog is kept here
for the same reason: the package derives the predicate from the genus.
"""

from __future__ import annotations

import math
from functools import cache

from reference_laurent import Poly
from seifertlinks import (
    HopfSum,
    InvariantViolation,
    NotCoprime,
    OneCore,
    ZeroCore,
    ZeroPolynomial,
    components,
    normalize,
)


class NotDivisible(ArithmeticError):
    """Exact polynomial division was requested but leaves a remainder."""


# -- polynomial helpers ------------------------------------------------------------


def one_minus_t_power(n: int) -> Poly:
    """The polynomial 1 - t^n (for any integer n, including negatives)."""
    if n == 0:
        return Poly.zero()
    return Poly.from_terms([(0, 1), (n, -1)])


def geometric_sum(step: int, count: int) -> Poly:
    """1 + t^step + t^(2 step) + ... with `count` terms (count >= 1)."""
    if count < 1 or step < 1:
        raise ValueError("geometric_sum needs count >= 1 and step >= 1")
    return Poly(tuple((step * i, 1) for i in range(count)))


def power(poly: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative powers are not polynomials")
    out = Poly.one()
    while n:
        if n & 1:
            out = out * poly
        poly = poly * poly
        n >>= 1
    return out


def compose_power(poly: Poly, m: int) -> Poly:
    """Substitute t -> t^m (m >= 1)."""
    if m < 1:
        raise ValueError("substitution exponent must be positive")
    return Poly(tuple((e * m, c) for e, c in poly.terms))


def div_exact(poly: Poly, divisor: Poly) -> Poly:
    """Exact quotient poly / divisor; NotDivisible on any remainder."""
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if poly.is_zero:
        return Poly.zero()
    # Work with ordinary polynomials and restore the exponent shift at
    # the end; Laurent units are invertible so this loses nothing.
    low, div_low = poly.min_exp, divisor.min_exp
    rem = {e - low: c for e, c in poly.terms}
    div = {e - div_low: c for e, c in divisor.terms}
    div_deg = max(div)
    div_lead = div[div_deg]
    quot: dict[int, int] = {}
    while rem:
        rem_deg = max(rem)
        if rem_deg < div_deg:
            raise NotDivisible("non-zero remainder in exact division")
        lead, residue = divmod(rem[rem_deg], div_lead)
        if residue:
            raise NotDivisible("non-zero remainder in exact division")
        quot[rem_deg - div_deg] = lead
        for e, c in div.items():
            k = e + rem_deg - div_deg
            v = rem.get(k, 0) - lead * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return Poly.from_terms((e + low - div_low, c) for e, c in quot.items())


def divisible_by(poly: Poly, divisor: Poly) -> bool:
    try:
        div_exact(poly, divisor)
    except NotDivisible:
        return False
    return True


@cache
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial: t^n - 1 divided by the product of
    the lower cyclotomic factors."""
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    numerator = -one_minus_t_power(n)  # t^n - 1
    if n == 1:
        return numerator
    lower = Poly.one()
    for d in range(1, n):
        if n % d == 0:
            lower = lower * cyclotomic(d)
    return div_exact(numerator, lower)


# -- the splice formulas, expanded -------------------------------------------------


def torus_knot_delta(p: int, q: int) -> Poly:
    """(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), which is 1 when either
    multiplicity is 1."""
    if p < 1 or q < 1:
        raise ValueError("torus knot multiplicities must be positive")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"({p},{q}) is a torus link, not a knot")
    if p == 1 or q == 1:
        return Poly.one()
    numerator = one_minus_t_power(p * q) * one_minus_t_power(1)
    denominator = one_minus_t_power(p) * one_minus_t_power(q)
    return div_exact(numerator, denominator).normalize_units()


def reference_delta(link) -> Poly:
    """Unit-normalized Alexander polynomial, expanded factor by factor."""
    link = normalize(link)
    if isinstance(link, HopfSum):
        return power(one_minus_t_power(1), link.plus + link.minus).normalize_units()
    if isinstance(link, ZeroCore):
        p, q, k, w = link.p, link.q, link.k, link.w
        if w == 0:
            if k == 2:
                return one_minus_t_power(1).scale(p * q).normalize_units()
            return Poly.zero()
        base = (
            one_minus_t_power(1)
            * geometric_sum(w, p * q)
            * compose_power(torus_knot_delta(p, q), w)
        )
        if k == 1:
            return div_exact(base, one_minus_t_power(w * p * q)).normalize_units()
        return (base * power(one_minus_t_power(w * p * q), k - 2)).normalize_units()
    if isinstance(link, OneCore):
        winding = link.w * link.q + link.sign
        out = (
            one_minus_t_power(1)
            * power(one_minus_t_power(winding * link.p), link.k - 1)
            * geometric_sum(winding, link.p)
        )
        return out.normalize_units()
    winding = link.w * link.p * link.q + link.sign1 * link.p + link.sign2 * link.q
    return (one_minus_t_power(1) * power(one_minus_t_power(winding), link.k)).normalize_units()


def delta_degree(link) -> int:
    """Breadth of the Alexander polynomial by closed formula; raises
    ZeroPolynomial when the polynomial vanishes identically."""
    link = normalize(link)
    if isinstance(link, HopfSum):
        return link.plus + link.minus
    if isinstance(link, ZeroCore):
        p, q, k, w = link.p, link.q, link.k, link.w
        if w == 0:
            if k == 2:
                return 1
            raise ZeroPolynomial(
                "the Alexander polynomial of this link is identically zero"
            )
        return 1 + w * (k * p * q - p - q)
    if isinstance(link, OneCore):
        return 1 + (link.k * link.p - 1) * (link.w * link.q + link.sign)
    winding = link.w * link.p * link.q + link.sign1 * link.p + link.sign2 * link.q
    return 1 + link.k * abs(winding)


# -- invariants read off the expansion ---------------------------------------------


def reference_determinant(link) -> int:
    return abs(reference_delta(link).eval_at_minus_one())


def reference_genus(link) -> int:
    link = normalize(link)
    poly = reference_delta(link)
    if poly.is_zero:
        return 0
    spread = poly.breadth - components(link) + 1
    if spread % 2 != 0:
        raise InvariantViolation(f"odd genus spread for {link!r}")
    return spread // 2


def fold(poly: Poly, n: int) -> Poly:
    """The remainder of poly modulo t^n - 1, which Phi_n divides."""
    return Poly.from_terms((e % n, c) for e, c in poly.terms)


def reference_cyclotomic_divides(n: int, poly: Poly) -> bool:
    """Whether Phi_n divides the expanded polynomial (true for zero).
    Divides the remainder modulo t^n - 1, which keeps the long division
    short."""
    return poly.is_zero or divisible_by(fold(poly, n), cyclotomic(n))


def reference_is_genus_zero(link) -> bool:
    """Whether the Seifert genus vanishes, by catalog lookup."""
    link = normalize(link)
    if isinstance(link, HopfSum):
        return True
    if isinstance(link, ZeroCore):
        return link.w == 0 or (link.p == 1 and link.q == 1 and link.w == 1)
    if isinstance(link, OneCore):
        if link.w == 0 and link.p == 1:
            return True
        return (link.p, link.q, link.w, link.sign) == (1, 2, 1, -1)
    if link.w == 0 and (link.sign1, link.sign2) == (1, -1):
        return link.q == link.p + 1
    return (link.p, link.q, link.w, link.sign1, link.sign2) == (2, 3, 1, -1, -1)
