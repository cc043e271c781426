"""Exact Laurent polynomial arithmetic for the expanded reference.

`Poly` is the ring `reference_alexander` expands the splice formulas in:
an immutable sparse polynomial with integer coefficients and integer
exponents of either sign, with the ring operations, a unit-normal form
for comparing values that are only defined up to units (signs and powers
of t), and evaluation at t = -1.  It imports nothing from the package, so
the reference shares no arithmetic with the code it checks; the tests
compare the two through their sorted `terms`.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Poly:
    """A sparse Laurent polynomial: sorted (exponent, coefficient) pairs.

    Coefficients are nonzero integers; exponents are strictly increasing.
    Equality is exact (use `normalize_units` before comparing values that
    are only defined up to units).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...]) -> None:
        self.terms = terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"Poly({self.terms!r})"

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(pairs: Iterable[tuple[int, int]]) -> "Poly":
        """Build from (exponent, coefficient) pairs, merging duplicates."""
        acc: dict[int, int] = {}
        for exp, coef in pairs:
            acc[exp] = acc.get(exp, 0) + coef
        return Poly(tuple(sorted((e, c) for e, c in acc.items() if c)))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly(((0, 1),))

    @staticmethod
    def monomial(exp: int, coef: int = 1) -> "Poly":
        """The single term coef * t^exp."""
        if coef == 0:
            return Poly(())
        return Poly(((exp, coef),))

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no lowest term")
        return self.terms[0][0]

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no highest term")
        return self.terms[-1][0]

    @property
    def breadth(self) -> int:
        """Highest exponent minus lowest exponent."""
        return self.max_exp - self.min_exp

    def coefficient(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for exp, coef in other.terms:
            acc[exp] = acc.get(exp, 0) + coef
        return Poly(tuple(sorted((e, c) for e, c in acc.items() if c)))

    def __neg__(self) -> "Poly":
        return Poly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return Poly(tuple(sorted((e, c) for e, c in acc.items() if c)))

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly(())
        return Poly(tuple((e, c * k) for e, k in self.terms))

    def shift(self, j: int) -> "Poly":
        """Multiply by t^j."""
        return Poly(tuple((e + j, c) for e, c in self.terms))

    # -- normal forms and evaluation ----------------------------------------

    def normalize_units(self) -> "Poly":
        """Canonical representative up to units: lowest exponent 0 and a
        positive constant term."""
        if self.is_zero:
            return self
        shifted = self.shift(-self.min_exp)
        if shifted.terms[0][1] < 0:
            return -shifted
        return shifted

    def eval_at_minus_one(self) -> int:
        """Integer value of the unit-normalized form at t = -1."""
        normal = self.normalize_units()
        return sum(c if e % 2 == 0 else -c for e, c in normal.terms)
