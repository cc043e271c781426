"""Exact Laurent polynomials in one variable over the integers.

`LaurentPoly` is the value type of `alexander.delta`: an immutable sparse
polynomial with integer coefficients and integer exponents of either
sign, with the ring operations, a unit-normal form for comparing values
that are only defined up to units (signs and powers of t), evaluation at
t = -1, and the text rendering the reports print.

>>> p = LaurentPoly.from_terms([(0, 1), (1, -1)])   # 1 - t
>>> print(p * p)
1 - 2t + t^2
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ._record import Record
from .errors import ZeroPolynomial

__all__ = ["LaurentPoly"]


class LaurentPoly(Record):
    """A sparse Laurent polynomial: sorted (exponent, coefficient) pairs.

    Coefficients are nonzero integers; exponents are integers of either
    sign, strictly increasing.  Instances are immutable and hashable, and
    equality is exact (use `normalize_units` before comparing values that
    are only defined up to units).
    """

    terms: tuple[tuple[int, int], ...]

    def __init__(self, terms: tuple[tuple[int, int], ...]) -> None:
        # Direct, not Record.__init__: about half of all records built.
        object.__setattr__(self, "terms", terms)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(pairs: Iterable[tuple[int, int]]) -> "LaurentPoly":
        """Build from (exponent, coefficient) pairs, merging duplicates.

        >>> print(LaurentPoly.from_terms([(2, 1), (0, 3), (2, -1)]))
        3
        """
        acc: dict[int, int] = {}
        for exp, coef in pairs:
            acc[exp] = acc.get(exp, 0) + coef
        return LaurentPoly(tuple(sorted((e, c) for e, c in acc.items() if c)))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(((0, 1),))

    @staticmethod
    def monomial(exp: int, coef: int = 1) -> "LaurentPoly":
        """The single term coef * t^exp.

        >>> print(LaurentPoly.monomial(3, -2))
        -2t^3
        """
        if coef == 0:
            return LaurentPoly(())
        return LaurentPoly(((exp, coef),))

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no lowest term")
        return self.terms[0][0]

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no highest term")
        return self.terms[-1][0]

    @property
    def breadth(self) -> int:
        """Highest exponent minus lowest exponent.

        >>> LaurentPoly.from_terms([(-1, 2), (3, 1)]).breadth
        4
        """
        return self.max_exp - self.min_exp

    def coefficient(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self.terms)
        for exp, coef in other.terms:
            acc[exp] = acc.get(exp, 0) + coef
        return LaurentPoly(tuple(sorted((e, c) for e, c in acc.items() if c)))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(tuple(sorted((e, c) for e, c in acc.items() if c)))

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly(())
        return LaurentPoly(tuple((e, c * k) for e, k in self.terms))

    def shift(self, j: int) -> "LaurentPoly":
        """Multiply by t^j.

        >>> print(LaurentPoly.from_terms([(0, 1), (1, 1)]).shift(-1))
        t^-1 + 1
        """
        return LaurentPoly(tuple((e + j, c) for e, c in self.terms))

    # -- normal forms and evaluation ----------------------------------------

    def normalize_units(self) -> "LaurentPoly":
        """Canonical representative up to units: lowest exponent 0 and a
        positive constant term.

        >>> print(LaurentPoly.from_terms([(2, -1), (3, 1)]).normalize_units())
        1 - t
        >>> print(LaurentPoly.monomial(-1, -3).normalize_units())
        3
        """
        if self.is_zero:
            return self
        shifted = self.shift(-self.min_exp)
        if shifted.terms[0][1] < 0:
            return -shifted
        return shifted

    def eval_at_minus_one(self) -> int:
        """Integer value of the unit-normalized form at t = -1.

        >>> LaurentPoly.from_terms([(0, 1), (1, -1), (2, 1)]).eval_at_minus_one()
        3
        """
        normal = self.normalize_units()
        return sum(c if e % 2 == 0 else -c for e, c in normal.terms)

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        """Sparse human-readable form, ascending exponents.

        >>> LaurentPoly.from_terms([(0, 1), (3, -1), (7, 2)]).to_text()
        '1 - t^3 + 2t^7'
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

    def __str__(self) -> str:
        return self.to_text()

