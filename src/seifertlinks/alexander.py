"""Alexander polynomials in factored form and the invariants read off it.

Every link of the class has a multiplicative splice decomposition, so up
to units its one-variable Alexander polynomial is

    c * prod(1 - t^m for m in numerator) / prod(1 - t^d for d in denominator)

over short lists of positive exponents, the k equal ones held once with
their count (None stands for the zero polynomial).  Genus, determinant
and cyclotomic divisibility are read off them in time independent of k.
`delta` returns a `LaurentPoly` that holds this factored form and
expands its terms only when they are read (see `laurent`), so asking for
an invariant, or for the breadth of Delta, never expands a polynomial.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvalidParameters, InvariantViolation
from .laurent import LaurentPoly
from .link_model import HopfSum, SeifertLink, normalize

__all__ = [
    "delta",
    "determinant",
    "genus",
    "cyclotomic_divides",
]

# (c, (m, count), denominator): c (1 - t)(1 - t^m)^count / prod(1 - t^d).
_Factored = tuple[int, tuple[int, int], tuple[int, ...]]


def _factored(link: SeifertLink, view: Optional[tuple] = None) -> Optional[_Factored]:
    """(content, (m, count), denominator exponents) of Delta for a
    canonical link, or None when Delta vanishes identically.

    Off the Hopf sums this is the splice formula of Eisenbud and Neumann
    over the view (p, q, k, w, e1, e2) of `link_model`: with the total
    winding s = w p q + e1 p + e2 q, Delta = (1 - t)(1 - t^|s|)^k /
    prod(1 - t^(|s|/a)) over the positions of multiplicity a not in the
    link.  s = 0 only for coreless links with w = 0: k = 2 gives p q.
    A `view` given in place of the link's own is that of a reorientation,
    which changes only w and the signs and needs no normalizing."""
    if isinstance(link, HopfSum):
        return 1, (1, link.plus + link.minus - 1), ()
    p, q, k, w, e1, e2 = view or link._view
    s = abs(w * p * q + e1 * p + e2 * q)
    if s == 0:
        return (p * q, (1, 0), ()) if k == 2 else None
    return 1, (s, k), (() if e1 else (s // q,)) + (() if e2 else (s // p,))


def _phi_divides(n: int, factored: Optional[_Factored]) -> bool:
    """Whether Phi_n divides Delta (always for the zero polynomial, None):
    Phi_n divides 1 - t^m exactly when n divides m, and then only once."""
    if factored is None:
        return True
    _, (m, count), denominator = factored
    return (n == 1) + count * (m % n == 0) > sum(d % n == 0 for d in denominator)


def delta(link: SeifertLink) -> LaurentPoly:
    """One-variable Alexander polynomial, unit-normalized (lowest exponent
    0, positive constant term), holding the factored form of `_factored`:
    its terms are expanded on first read.  The zero polynomial occurs
    exactly for ZeroCore links with w = 0 and k != 2.
    """
    factored = _factored(normalize(link))
    if factored is None:
        return LaurentPoly(())
    poly = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(poly, "_factored", factored)
    return poly


def determinant(link: SeifertLink) -> int:
    """|Delta(-1)|, the order of the first homology of the double branched
    cover when that group is finite, and 0 when Delta(-1) vanishes.

    1 - t^m vanishes at -1 for even m; a ratio of two such factors tends
    to m/d there.  So Delta(-1) is 0 when 1 + t divides Delta, and
    otherwise c times the product of f(m) over the numerator divided by
    that over the denominator, f(m) = m for even m and 2 for odd m."""
    factored = _factored(normalize(link))
    if _phi_divides(2, factored):
        return 0
    content, (m, count), denominator = factored
    # f(1) = 2 for the leading exponent, then f(m) once per copy of m.
    top, bottom = content * 2 * (m if m % 2 == 0 else 2) ** count, 1
    for d in denominator:
        bottom *= d if d % 2 == 0 else 2
    return top // bottom


def genus(link: SeifertLink) -> int:
    """Genus of the fibre surface (Seifert genus).

    Every link of the class realizes the Alexander-polynomial bound, so
    the genus is (breadth - components + 1) / 2, and 0 on the
    non-fibred (zero polynomial) cases.  Delta has components - 1 more
    numerator factors than denominator factors, so 2g = sum(m - 1) -
    sum(d - 1) over their exponents.
    """
    return _factored_genus(_factored(normalize(link)))


def _factored_genus(factored: Optional[_Factored]) -> int:
    """The genus read off the factored Delta of `_factored`."""
    if factored is None:
        return 0
    _, (m, count), denominator = factored
    spread = count * (m - 1) - sum(denominator) + len(denominator)
    if spread % 2 != 0:
        raise InvariantViolation(f"odd genus spread in {factored!r}")
    return spread // 2


def cyclotomic_divides(n: int, link: SeifertLink) -> bool:
    """Whether the n-th cyclotomic polynomial divides Delta (true for the
    zero polynomial).  Detects positive first Betti number of the n-fold
    cyclic branched cover.

    Read off the exponents: see `_phi_divides`."""
    if n < 1:
        raise InvalidParameters("cyclotomic index must be a positive integer")
    return _phi_divides(n, _factored(normalize(link)))
