"""Closed-form Alexander polynomials and the invariants derived from them.

Every link of the class has a multiplicative splice decomposition, which
turns the one-variable Alexander polynomial into a short product of
cyclotomic-type factors.  The formulas below produce the polynomial
exactly (up to units, in the unit-normalized representative), and breadth,
genus, determinant, and cyclotomic divisibility are read off from it.
"""

from __future__ import annotations

import math

from .errors import InvariantViolation, NotCoprime, ZeroPolynomial
from .laurent import LaurentPoly, cyclotomic, geometric_sum, one_minus_t_power
from .link_model import (
    HopfSum,
    OneCore,
    SeifertLink,
    ZeroCore,
    components,
    normalize,
)

__all__ = [
    "torus_knot_delta",
    "delta",
    "delta_degree",
    "determinant",
    "genus",
    "cyclotomic_divides",
]


def torus_knot_delta(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p,q) torus knot.

    (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), which is 1 when either
    multiplicity is 1.  Raises NotCoprime otherwise undefined.
    """
    if p < 1 or q < 1:
        raise ValueError("torus knot multiplicities must be positive")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"({p},{q}) is a torus link, not a knot")
    if p == 1 or q == 1:
        return LaurentPoly.one()
    numerator = one_minus_t_power(p * q) * one_minus_t_power(1)
    denominator = one_minus_t_power(p) * one_minus_t_power(q)
    return numerator.div_exact(denominator).normalize_units()


def delta(link: SeifertLink) -> LaurentPoly:
    """One-variable Alexander polynomial, unit-normalized.

    The zero polynomial occurs exactly for ZeroCore links with w = 0 and
    k >= 4 (positive first Betti number of the complement kills it).
    """
    link = normalize(link)
    if isinstance(link, HopfSum):
        return (one_minus_t_power(1) ** (link.plus + link.minus)).normalize_units()
    if isinstance(link, ZeroCore):
        p, q, k, w = link.p, link.q, link.k, link.w
        if w == 0:
            if k == 2:
                return one_minus_t_power(1).scale(p * q).normalize_units()
            return LaurentPoly.zero()
        base = (
            one_minus_t_power(1)
            * geometric_sum(w, p * q)
            * torus_knot_delta(p, q).compose_power(w)
        )
        if k == 1:
            return base.div_exact(one_minus_t_power(w * p * q)).normalize_units()
        return (base * one_minus_t_power(w * p * q) ** (k - 2)).normalize_units()
    if isinstance(link, OneCore):
        winding = link.w * link.q + link.sign
        out = (
            one_minus_t_power(1)
            * one_minus_t_power(winding * link.p) ** (link.k - 1)
            * geometric_sum(winding, link.p)
        )
        return out.normalize_units()
    winding = link.w * link.p * link.q + link.sign1 * link.p + link.sign2 * link.q
    out = one_minus_t_power(1) * one_minus_t_power(winding) ** link.k
    return out.normalize_units()


def delta_degree(link: SeifertLink) -> int:
    """Breadth of the Alexander polynomial, by closed formula.

    Raises ZeroPolynomial when the polynomial vanishes identically.
    Agrees with delta(link).breadth everywhere else.
    """
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


def determinant(link: SeifertLink) -> int:
    """|Delta(-1)|, the order of the first homology of the double branched
    cover when that group is finite, and 0 when Delta(-1) vanishes."""
    return abs(delta(link).eval_at_minus_one())


def genus(link: SeifertLink) -> int:
    """Genus of the fibre surface (Seifert genus).

    Every link of the class realizes the Alexander-polynomial bound, so
    the genus is (breadth - components + 1) / 2, and 0 on the
    non-fibred (zero polynomial) cases.
    """
    link = normalize(link)
    poly = delta(link)
    if poly.is_zero:
        return 0
    spread = poly.breadth - components(link) + 1
    if spread % 2 != 0:
        raise InvariantViolation(f"odd genus spread for {link!r}")
    return spread // 2


def cyclotomic_divides(n: int, link: SeifertLink) -> bool:
    """Whether the n-th cyclotomic polynomial divides Delta (true for the
    zero polynomial).  Detects positive first Betti number of the n-fold
    cyclic branched cover."""
    poly = delta(link)
    if poly.is_zero:
        return True
    return poly.divisible_by(cyclotomic(n))
