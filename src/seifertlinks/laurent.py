"""The value `alexander.delta` returns: a Laurent polynomial that holds
Delta factored and expands it on first read.

`LaurentPoly` holds the terms of one polynomial with integer
coefficients and renders them the way the reports print them.  A record
`delta` returns holds only c (1 - t)(1 - t^m)^count / prod(1 - t^d): its
breadth and `is_zero` are read off that form, and `_expand` computes its
terms the first time they are read and stores them on the record.  The
expansion has one path: the numerator by the binomial theorem, then one
exact division by each 1 - t^d.

>>> print(LaurentPoly(((0, 1), (1, -2), (2, 1))))
1 - 2t + t^2
"""

from __future__ import annotations

from itertools import repeat

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
    """The sorted terms of the factored Delta (c, (m, count), denominator).

    The numerator c (1 - t)(1 - t^m)^count is written out by the binomial
    theorem: for m = 1 it is c (1 - t)^(count + 1), and for m >= 2 each
    term a t^(m j) of c (1 - t^m)^count gives a t^(m j) and -a t^(m j + 1),
    already in order and never colliding.  No binomial is 0, so nothing
    cancels.  Each 1 - t^d of the denominator is then divided out by
    `_divide_by_one_minus_power`, which visits only the terms.  So the
    cost is linear in count before the divisions and follows the terms
    after them."""
    content, (m, copies), denominator = factored
    n, width = (copies + 1, 1) if m == 1 else (copies, 2)
    # Sized before it is filled, so a numerator too large for memory
    # fails at once instead of growing until the machine runs out.
    terms: list = [None] * (width * (n + 1))
    coef = content
    for j in range(n + 1):
        terms[width * j] = (m * j, coef)
        if width == 2:
            terms[2 * j + 1] = (m * j + 1, -coef)
        # c (-1)^(j+1) C(n, j+1) from c (-1)^j C(n, j): the division is exact.
        coef = -coef * (n - j) // (j + 1)
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

