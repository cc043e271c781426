"""The value `alexander.delta` returns: an expanded Laurent polynomial.

`LaurentPoly` holds the terms of one polynomial with integer
coefficients, as `delta` expands them from the factored form, and
renders them the way the reports print them.  It does no arithmetic:
the package reads every invariant off the factored form.

>>> print(LaurentPoly(((0, 1), (1, -2), (2, 1))))
1 - 2t + t^2
"""

from __future__ import annotations

from ._record import Record
from .errors import ZeroPolynomial

__all__ = ["LaurentPoly"]


class LaurentPoly(Record):
    """A sparse Laurent polynomial: sorted (exponent, coefficient) pairs.

    Coefficients are nonzero integers; exponents are integers of either
    sign, strictly increasing.  Instances are immutable and hashable, and
    equality is exact.
    """

    terms: tuple[tuple[int, int], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def breadth(self) -> int:
        """Highest exponent minus lowest exponent.

        >>> LaurentPoly(((-1, 2), (3, 1))).breadth
        4
        """
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
