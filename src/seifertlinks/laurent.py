"""The value `alexander.delta` returns: a Laurent polynomial that holds
Delta factored and expands it on first read.

`LaurentPoly` holds the terms of one polynomial with integer
coefficients and renders them the way the reports print them.  A record
`delta` returns holds only c (1 - t)(1 - t^m)^count / prod(1 - t^d): its
breadth and `is_zero` are read off that form, and `_expand` computes its
terms the first time they are read and stores them on the record.

>>> print(LaurentPoly(((0, 1), (1, -2), (2, 1))))
1 - 2t + t^2
"""

from __future__ import annotations

from itertools import accumulate, count, repeat
from math import gcd
from operator import sub

from ._record import Record
from .errors import InvariantViolation, ZeroPolynomial

__all__ = ["LaurentPoly"]


class LaurentPoly(Record):
    """A sparse Laurent polynomial: sorted (exponent, coefficient) pairs.

    Coefficients are nonzero integers; exponents are integers of either
    sign, strictly increasing.  Instances are immutable and hashable, and
    equality is exact: a record `delta` returns equals, hashes, prints,
    copies and pickles as the one built from its expanded terms.
    """

    terms: tuple[tuple[int, int], ...]

    # (c, (m, count), denominator) of a record `delta` returned, whose
    # terms `__getattr__` expands on first read; None for one built from them.
    _factored = None

    def __getattr__(self, name: str) -> tuple[tuple[int, int], ...]:
        if name != "terms":
            raise AttributeError(name)
        value = _expand(self._factored)
        object.__setattr__(self, "terms", value)
        return value

    @property
    def is_zero(self) -> bool:
        return self._factored is None and not self.terms

    @property
    def breadth(self) -> int:
        """Highest exponent minus lowest exponent.

        >>> LaurentPoly(((-1, 2), (3, 1))).breadth
        4
        """
        if self._factored is not None:
            _, (m, copies), denominator = self._factored
            return 1 + copies * m - sum(denominator)
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no highest term")
        return self.terms[-1][0] - self.terms[0][0]

    def __str__(self) -> str:
        """Sparse human-readable form, ascending exponents.

        >>> str(LaurentPoly(((0, 1), (3, -1), (7, 2))))
        '1 - t^3 + 2t^7'
        >>> str(LaurentPoly(()))
        '0'
        """
        if self.is_zero:
            return "0"
        chunks: list[str] = []
        for i, (exp, coef) in enumerate(self.terms):
            mag = abs(coef)
            if exp == 0:
                body = str(mag)
            else:
                var = "t" if exp == 1 else f"t^{exp}"
                body = var if mag == 1 else f"{mag}{var}"
            if i == 0:
                chunks.append(body if coef > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(chunks)


def _expand(factored: tuple) -> tuple[tuple[int, int], ...]:
    """The sorted terms of the factored Delta (c, (m, count), denominator),
    in time and memory in proportion to the answer.  With g the gcd of m
    and the denominator, Delta = c (1 - t) F(t^g), and:

    - g >= 2: `_strided_coefficients` expands F densely over its own
      breadth, and each nonzero coefficient a of u^e gives the terms
      a t^(g e) and -a t^(g e + 1), sorted and never colliding.  The list
      is no longer than the answer while at least half its slots are
      nonzero: for every canonical link with p, q <= 11 and k <= 9 at
      least 0.55 are; for ZeroCore links with k = 2, where F is a product
      of two geometric sums with p q distinct exponents over
      2 p q - p - q + 1 slots, the share tends to one half from above.
    - otherwise (g = 1, as for torus knots, Hopf sums and the ZeroCore
      links with w = 0): the answer can be far sparser than its breadth
      (T(1500,1501) has 2,999 terms over a breadth of about 2.25
      million), so the numerator is multiplied out term by term in a
      dictionary and each denominator is divided out along runs of equal
      running sums, visiting only the terms."""
    content, (m, copies), denominator = factored
    numerator = (1,) + (m,) * copies
    g = gcd(m, *denominator)
    if g >= 2:
        dense = _strided_coefficients((content, numerator, denominator), g)
        even = [(exp, coef) for exp, coef in zip(count(0, g), dense) if coef]
        terms = [None] * (2 * len(even))
        terms[::2] = even
        terms[1::2] = [(exp + 1, -coef) for exp, coef in even]
        return tuple(terms)
    coefficients = {0: content}
    for m in numerator:
        # Highest exponent first: each coefficient is read before the
        # shifted copy of a lower term lands on it.  None cancels: for
        # m >= 2, (1 - t)(1 - t^m)^j has pairwise distinct exponents, and
        # for m = 1 it is (1 - t)^(j + 1), whose binomials are never 0.
        for exp in sorted(coefficients, reverse=True):
            coefficients[exp + m] = coefficients.get(exp + m, 0) - coefficients[exp]
    terms = sorted(coefficients.items())
    for d in denominator:
        terms = _divide_by_one_minus_power(terms, d)
    return tuple(terms)


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
