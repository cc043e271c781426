"""Alexander polynomials in factored form and the invariants read off it.

Every link of the class has a multiplicative splice decomposition, so up
to units its one-variable Alexander polynomial is

    c * prod(1 - t^m for m in numerator) / prod(1 - t^d for d in denominator)

over two short lists of positive exponents (None stands for the zero
polynomial).  Breadth, genus, determinant and cyclotomic divisibility
are read off the exponents directly; only `delta` expands the product,
term by term, so its cost follows the number of terms, not the breadth.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from .errors import InvalidParameters, InvariantViolation
from .laurent import LaurentPoly
from .link_model import (
    HopfSum,
    OneCore,
    SeifertLink,
    ZeroCore,
    components,
    normalize,
)

__all__ = [
    "delta",
    "determinant",
    "genus",
    "cyclotomic_divides",
]

# (content, numerator exponents, denominator exponents)
_Factored = tuple[int, tuple[int, ...], tuple[int, ...]]


def _factored(link: SeifertLink) -> Optional[_Factored]:
    """(content, numerator exponents, denominator exponents) of Delta for
    a canonical link, or None when Delta vanishes identically."""
    if isinstance(link, HopfSum):
        return 1, (1,) * (link.plus + link.minus), ()
    if isinstance(link, ZeroCore):
        p, q, k, w = link.p, link.q, link.k, link.w
        if w == 0:
            return (p * q, (1,), ()) if k == 2 else None
        return 1, (1,) + (w * p * q,) * k, (w * p, w * q)
    if isinstance(link, OneCore):
        winding = link.w * link.q + link.sign
        return 1, (1,) + (winding * link.p,) * link.k, (winding,)
    # Never 0: both multiplicities of a two-core link are coprime and >= 2.
    winding = abs(link.w * link.p * link.q + link.sign1 * link.p + link.sign2 * link.q)
    return 1, (1,) + (winding,) * link.k, ()


def _cyclotomic_count(n: int, factored: _Factored) -> int:
    """Multiplicity of Phi_n in Delta: Phi_n divides 1 - t^m exactly when
    n divides m, and then only once."""
    _, numerator, denominator = factored
    return sum(m % n == 0 for m in numerator) - sum(d % n == 0 for d in denominator)


def _divide_by_one_minus_power(poly: LaurentPoly, d: int) -> LaurentPoly:
    """Exact quotient of `poly` by 1 - t^d.

    Along each residue class mod d the quotient's coefficients are the
    running sums of poly's coefficients, constant from one exponent of
    the class to the next, so only the stretches where that sum is
    nonzero are visited."""
    classes: dict[int, list[tuple[int, int]]] = {}
    for exp, coef in poly.terms:
        classes.setdefault(exp % d, []).append((exp, coef))
    runs = []
    for chain in classes.values():
        total = 0
        for (start, coef), (stop, _) in zip(chain, chain[1:]):
            total += coef
            if total:
                runs.append((range(start, stop, d), total))
        if total + chain[-1][1]:
            raise InvariantViolation(f"1 - t^{d} does not divide {poly}")
    # Sized before it is filled, so a quotient too large for memory fails
    # at once instead of growing until the machine runs out.
    terms: list = [None] * sum(len(span) for span, _ in runs)
    filled = 0
    for span, total in runs:
        terms[filled : filled + len(span)] = zip(span, repeat(total))
        filled += len(span)
    terms.sort()
    return LaurentPoly(tuple(terms))


def delta(link: SeifertLink) -> LaurentPoly:
    """One-variable Alexander polynomial, unit-normalized (lowest exponent
    0, positive constant term).

    The numerator binomials are multiplied as sparse polynomials, then
    each denominator binomial is divided out, so the cost follows the
    number of terms rather than the breadth.  The zero polynomial occurs
    exactly for ZeroCore links with w = 0 and k != 2.
    """
    factored = _factored(normalize(link))
    if factored is None:
        return LaurentPoly.zero()
    content, numerator, denominator = factored
    poly = LaurentPoly.monomial(0, content)
    for m in numerator:
        poly = poly * LaurentPoly(((0, 1), (m, -1)))
    for d in denominator:
        poly = _divide_by_one_minus_power(poly, d)
    return poly


def determinant(link: SeifertLink) -> int:
    """|Delta(-1)|, the order of the first homology of the double branched
    cover when that group is finite, and 0 when Delta(-1) vanishes.

    1 - t^m vanishes at -1 for even m; a ratio of two such factors tends
    to m/d there.  So Delta(-1) is 0 when 1 + t divides Delta, and
    otherwise c times the product of f(m) over the numerator divided by
    that over the denominator, f(m) = m for even m and 2 for odd m."""
    factored = _factored(normalize(link))
    if factored is None or _cyclotomic_count(2, factored) > 0:
        return 0
    content, numerator, denominator = factored
    top, bottom = content, 1
    for m in numerator:
        top *= m if m % 2 == 0 else 2
    for d in denominator:
        bottom *= d if d % 2 == 0 else 2
    return top // bottom


def genus(link: SeifertLink) -> int:
    """Genus of the fibre surface (Seifert genus).

    Every link of the class realizes the Alexander-polynomial bound, so
    the genus is (breadth - components + 1) / 2, and 0 on the
    non-fibred (zero polynomial) cases.
    """
    link = normalize(link)
    factored = _factored(link)
    if factored is None:
        return 0
    _, numerator, denominator = factored
    spread = sum(numerator) - sum(denominator) - components(link) + 1
    if spread % 2 != 0:
        raise InvariantViolation(f"odd genus spread for {link!r}")
    return spread // 2


def cyclotomic_divides(n: int, link: SeifertLink) -> bool:
    """Whether the n-th cyclotomic polynomial divides Delta (true for the
    zero polynomial).  Detects positive first Betti number of the n-fold
    cyclic branched cover.

    Read off the exponents: see `_cyclotomic_count`."""
    if n < 1:
        raise InvalidParameters("cyclotomic index must be a positive integer")
    factored = _factored(normalize(link))
    return factored is None or _cyclotomic_count(n, factored) > 0
