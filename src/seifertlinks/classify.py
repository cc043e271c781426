"""Coarse classification predicates: positivity, genus, definiteness, and
the simply laced (ADE) catalog.

Everything here is a finite case analysis on the canonical form; the
heavier orbifold machinery lives one layer up and imports this module.
"""

from __future__ import annotations

from typing import Optional, Union

from ._record import Record
from .alexander import genus
from .errors import InvalidParameters, NotPrime
from .link_model import (
    HopfSum,
    OneCore,
    SeifertLink,
    TwoCore,
    ZeroCore,
    normalize,
)

__all__ = [
    "DynkinType",
    "Known",
    "StrictlyLessThanGenus",
    "FourGenus",
    "ade_link",
    "is_ade",
    "is_prime",
    "is_fibred",
    "in_P",
    "is_braid_positive",
    "is_sqp",
    "is_genus_zero",
    "g4_status",
    "is_definite",
    "is_ade_up_to_orientation",
    "ClassificationReport",
    "classification_report",
]


class DynkinType(Record):
    """A simply laced root-system type: A_m (m>=1), D_m (m>=4), E_6/7/8."""

    family: str
    index: int

    def __post_init__(self) -> None:
        valid = (
            (self.family == "A" and self.index >= 1)
            or (self.family == "D" and self.index >= 4)
            or (self.family == "E" and self.index in (6, 7, 8))
        )
        if not valid:
            raise InvalidParameters(f"no Dynkin type {self.family}{self.index}")

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


class Known(Record):
    """A four-genus value that is determined exactly."""

    value: int


class StrictlyLessThanGenus(Record):
    """The four-genus is strictly below the Seifert genus, value unknown."""


FourGenus = Union[Known, StrictlyLessThanGenus]


def ade_link(dynkin: DynkinType) -> SeifertLink:
    """The canonical link bounding the definite plumbing of this type."""
    m = dynkin.index
    if dynkin.family == "A":
        if m == 1:
            return HopfSum(1, 0)
        if m % 2 == 0:
            return ZeroCore(2, m + 1, 1, 1)
        return ZeroCore(1, (m + 1) // 2, 2, 2)
    if dynkin.family == "D":
        if m == 4:
            return ZeroCore(1, 1, 3, 3)
        if m % 2 == 1:
            return OneCore(2, m - 2, 1, 1, 1)
        return OneCore(1, (m - 2) // 2, 2, 2, 1)
    return {
        6: ZeroCore(3, 4, 1, 1),
        7: OneCore(3, 2, 1, 1, 1),
        8: ZeroCore(3, 5, 1, 1),
    }[m]


def is_ade(link: SeifertLink) -> Optional[DynkinType]:
    """The Dynkin type of `link` if it is one of the ADE links, else None."""
    link = normalize(link)
    if isinstance(link, HopfSum):
        return DynkinType("A", 1) if (link.plus, link.minus) == (1, 0) else None
    if isinstance(link, ZeroCore):
        shape = (link.p, link.k, link.w)
        if shape == (2, 1, 1):
            return DynkinType("A", link.q - 1)
        if shape == (1, 2, 2):
            return DynkinType("A", 2 * link.q - 1)
        if (link.p, link.q, link.k, link.w) == (1, 1, 3, 3):
            return DynkinType("D", 4)
        if (link.p, link.q, link.k, link.w) == (3, 4, 1, 1):
            return DynkinType("E", 6)
        if (link.p, link.q, link.k, link.w) == (3, 5, 1, 1):
            return DynkinType("E", 8)
        return None
    if isinstance(link, OneCore) and link.sign == 1:
        shape = (link.p, link.k, link.w)
        if shape == (2, 1, 1):
            return DynkinType("D", link.q + 2)
        if shape == (1, 2, 2):
            return DynkinType("D", 2 * link.q + 2)
        if (link.p, link.q, link.k, link.w) == (3, 2, 1, 1):
            return DynkinType("E", 7)
    return None


def is_prime(link: SeifertLink) -> bool:
    """False exactly for connected sums of two or more Hopf links."""
    link = normalize(link)
    return not (isinstance(link, HopfSum) and link.plus + link.minus >= 2)


def is_fibred(link: SeifertLink) -> bool:
    """False exactly for the balanced coreless links (w = 0, no cores)."""
    link = normalize(link)
    return not (isinstance(link, ZeroCore) and link.w == 0)


def in_P(link: SeifertLink) -> bool:
    """Membership in the positively oriented class: every fibre copy and
    every core runs with the fibration."""
    link = normalize(link)
    if isinstance(link, HopfSum):
        return link.minus == 0
    if isinstance(link, ZeroCore):
        return link.w == link.k
    if isinstance(link, OneCore):
        return link.w == link.k and link.sign == 1
    return link.w == link.k and link.sign1 == 1 and link.sign2 == 1


# Closure of a positive braid word: for this family that is exactly
# membership in the positively oriented class.
is_braid_positive = in_P


def is_sqp(link: SeifertLink) -> bool:
    """Strong quasipositivity."""
    link = normalize(link)
    return in_P(link) or (isinstance(link, ZeroCore) and link.w == 0)


def is_genus_zero(link: SeifertLink) -> bool:
    """Whether the Seifert genus vanishes."""
    return genus(link) == 0


def g4_status(link: SeifertLink) -> tuple[bool, FourGenus]:
    """(whether the smooth four-genus equals the Seifert genus, and the
    best four-genus information available)."""
    link = normalize(link)
    g = genus(link)
    if in_P(link) or g == 0:
        return True, Known(g)
    if not isinstance(link, HopfSum) and link.w == 0:
        # Balanced orientations bound annuli in the four-ball.
        return False, Known(0)
    return False, StrictlyLessThanGenus()


def is_definite(link: SeifertLink) -> bool:
    """Whether the link bounds a surface with definite symmetrized Seifert
    form realizing the genus."""
    link = normalize(link)
    if isinstance(link, HopfSum):
        return link.minus == 0
    if is_ade(link) is not None:
        return True
    if isinstance(link, ZeroCore) and link.k == 2 and link.w == 0:
        return True
    if isinstance(link, TwoCore):
        return (link.p, link.q, link.k, link.w, link.sign1, link.sign2) == (
            2, 3, 1, 1, -1, -1,
        )
    return False


def is_ade_up_to_orientation(link: SeifertLink) -> bool:
    """Whether some reorientation of the underlying link is an ADE link.

    Raises NotPrime on composite input.  Equivalent to positivity of the
    orbifold Euler characteristic of the double-cover base; the suite
    checks that equivalence against the orbifold module.  Decided in
    integers: the double-cover base has cone orders 2 (k times), a and b,
    and its Euler characteristic 1/a + 1/b - k/2 is positive exactly when
    k*a*b < 2(a + b).
    """
    link = normalize(link)
    if not is_prime(link):
        raise NotPrime("ADE membership up to orientation needs a prime link")
    if isinstance(link, HopfSum):
        return True
    a = link.q if isinstance(link, ZeroCore) else 2 * link.q
    b = 2 * link.p if isinstance(link, TwoCore) else link.p
    return link.k * a * b < 2 * (a + b)


class ClassificationReport(Record):
    """Bundle of every classification predicate for one link."""

    is_prime: bool
    is_fibred: bool
    in_P: bool
    is_braid_positive: bool
    is_sqp: bool
    is_genus_zero: bool
    g4_equals_g: bool
    genus: int
    g4: FourGenus
    is_definite: bool
    dynkin: Optional[DynkinType]
    ade_up_to_orientation: bool


def classification_report(link: SeifertLink) -> ClassificationReport:
    link = normalize(link)
    prime = is_prime(link)
    positive = in_P(link)
    g = genus(link)
    equal, four_genus = g4_status(link)
    return ClassificationReport(
        is_prime=prime,
        is_fibred=is_fibred(link),
        in_P=positive,
        is_braid_positive=positive,
        is_sqp=is_sqp(link),
        is_genus_zero=g == 0,
        g4_equals_g=equal,
        genus=g,
        g4=four_genus,
        is_definite=is_definite(link),
        dynkin=is_ade(link),
        ade_up_to_orientation=(
            is_ade_up_to_orientation(link) if prime else False
        ),
    )
