"""Alexander polynomials in factored form and the invariants read off it.

Every link of the class has a multiplicative splice decomposition, so up
to units its one-variable Alexander polynomial is

    c * prod(1 - t^m for m in numerator) / prod(1 - t^d for d in denominator)

over short lists of positive exponents, the k equal ones held once with
their count (None stands for the zero polynomial).  Genus, determinant
and cyclotomic divisibility are read off them in time independent of k.
No polynomial arithmetic is done elsewhere than in `delta`, which
expands the product and wraps the sorted terms in the one `LaurentPoly`
it returns.

The first numerator exponent is always 1, so Delta = c (1 - t) F(t^g),
where g is the gcd of the other exponents, and `delta` takes one of two
paths, each taking time and memory in proportion to the answer:

- g >= 2, where g is |s| of `_factored` divided by the multiplicities
  of the exceptional positions not in the link (w for ZeroCore links,
  w q + sign for one-core links, |s| for two-core links): F is expanded
  in a dense list of integer coefficients over its own breadth.  Each
  nonzero coefficient gives two terms of Delta, at g e and g e + 1, so
  they come out sorted and never collide, and the list is no longer
  than the answer as long as at least half its slots are nonzero.  For
  every canonical link with p, q <= 11 and k <= 9, at least 0.55 of
  the slots of F are nonzero; for ZeroCore links with k = 2, where F is
  a product of two geometric sums with p q distinct exponents over
  2 p q - p - q + 1 slots, the share tends to one half from above.
- otherwise (g = 1, as for torus knots and Hopf sums, or no exponent
  after the leading 1, as for the ZeroCore links with w = 0): the
  answer can be far sparser than its breadth (T(1500,1501) has 2,999
  terms over a breadth of about 2.25 million), so the product is
  expanded term by term in a dictionary and each denominator is divided
  out along runs of equal running sums, visiting only the terms.
"""

from __future__ import annotations

from itertools import accumulate, count, repeat
from math import gcd
from operator import sub
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


def _divide_by_one_minus_power(
    terms: list[tuple[int, int]], d: int
) -> list[tuple[int, int]]:
    """Exact quotient by 1 - t^d of the polynomial with these sorted
    (exponent, coefficient) terms, as sorted terms.

    Along each residue class mod d the quotient's coefficients are the
    running sums of the dividend's coefficients, constant from one
    exponent of the class to the next, so only the stretches where that
    sum is nonzero are visited."""
    classes: dict[int, list[tuple[int, int]]] = {}
    for exp, coef in terms:
        classes.setdefault(exp % d, []).append((exp, coef))
    runs = []
    for chain in classes.values():
        total = 0
        for (start, coef), (stop, _) in zip(chain, chain[1:]):
            total += coef
            if total:
                runs.append((range(start, stop, d), total))
        if total + chain[-1][1]:
            raise InvariantViolation(f"1 - t^{d} does not divide {terms}")
    # Sized before it is filled, so a quotient too large for memory fails
    # at once instead of growing until the machine runs out.
    quotient: list = [None] * sum(len(span) for span, _ in runs)
    filled = 0
    for span, total in runs:
        quotient[filled : filled + len(span)] = zip(span, repeat(total))
        filled += len(span)
    quotient.sort()
    return quotient


def _strided_coefficients(expanded: tuple, g: int) -> list[int]:
    """Coefficients of c * F(u), from u^0 up with none left out, where
    Delta = c (1 - t) F(t^g) is (c, numerator, denominator) with every
    exponent listed, and g divides every exponent but the first.

    Multiplying by 1 - u^m subtracts the list, shifted up by m, from
    itself.  Dividing by 1 - u^d replaces each residue class mod d by its
    running sums; the quotient is exact only when the top d entries are
    then zero.  Each numerator factor is followed by the first pending
    divisor that divides it, which makes that quotient exact and keeps
    the list short; a divisor left over is taken out at the end."""
    content, numerator, denominator = expanded
    coefficients = [content]

    def divide(d: int) -> None:
        for residue in range(d):
            coefficients[residue::d] = accumulate(coefficients[residue::d])
        if any(coefficients[-d:]):
            raise InvariantViolation(f"1 - t^{g * d} leaves a remainder in {expanded}")
        del coefficients[-d:]

    pending = [d // g for d in denominator]
    for m in numerator[1:]:
        m //= g
        coefficients += repeat(0, m)
        coefficients[m:] = map(sub, coefficients[m:], coefficients)
        d = next((d for d in pending if m % d == 0), 0)
        if d:
            pending.remove(d)
            divide(d)
    for d in pending:
        divide(d)
    return coefficients


def delta(link: SeifertLink) -> LaurentPoly:
    """One-variable Alexander polynomial, unit-normalized (lowest exponent
    0, positive constant term).

    With Delta = c (1 - t) F(t^g) as in the module docstring: when
    g >= 2, F is expanded densely by `_strided_coefficients` and each
    nonzero coefficient a of u^e gives the terms a t^(g e) and
    -a t^(g e + 1), already in order.  Otherwise the content is
    multiplied by each numerator binomial in place, term by term, and
    each denominator binomial is divided out along runs, so the cost
    follows the number of terms rather than the breadth.  Either way one
    `LaurentPoly` is built at the end.  The zero polynomial occurs
    exactly for ZeroCore links with w = 0 and k != 2.
    """
    factored = _factored(normalize(link))
    if factored is None:
        return LaurentPoly(())
    content, (m, copies), denominator = factored
    numerator = (1,) + (m,) * copies
    g = gcd(m, *denominator)
    if g >= 2:
        dense = _strided_coefficients((content, numerator, denominator), g)
        even = [(exp, coef) for exp, coef in zip(count(0, g), dense) if coef]
        terms = [None] * (2 * len(even))
        terms[::2] = even
        terms[1::2] = [(exp + 1, -coef) for exp, coef in even]
        return LaurentPoly(tuple(terms))
    coefficients = {0: content}
    for m in numerator:
        # Highest exponent first: each coefficient is read before the
        # shifted copy of a lower term lands on it.
        for exp in sorted(coefficients, reverse=True):
            shifted = coefficients.get(exp + m, 0) - coefficients[exp]
            if shifted:
                coefficients[exp + m] = shifted
            else:
                del coefficients[exp + m]
    terms = sorted(coefficients.items())
    for d in denominator:
        terms = _divide_by_one_minus_power(terms, d)
    return LaurentPoly(tuple(terms))


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
