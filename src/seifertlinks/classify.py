"""Coarse classification predicates: positivity, genus, definiteness, and
the simply laced (ADE) catalog.

Everything here is a finite case analysis on the canonical form; the
heavier orbifold machinery lives one layer up and imports this module.
"""

from __future__ import annotations

from typing import Optional, Union

from ._record import Record
from .alexander import _factored, _factored_genus
from .errors import InvalidParameters, NotPrime
from .link_model import HopfSum, OneCore, SeifertLink, ZeroCore, normalize

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


# The ADE links whose view fits no family of `is_ade`.
_EXCEPTIONAL_ADE = {
    (1, 1, 3, 3, 0, 0): DynkinType("D", 4),
    (3, 4, 1, 1, 0, 0): DynkinType("E", 6),
    (3, 2, 1, 1, 1, 0): DynkinType("E", 7),
    (3, 5, 1, 1, 0, 0): DynkinType("E", 8),
}


def is_ade(link: SeifertLink) -> Optional[DynkinType]:
    """The Dynkin type of `link` if it is one of the ADE links, else None."""
    return _dynkin(normalize(link)._view)


def _dynkin(view: Optional[tuple[int, ...]]) -> Optional[DynkinType]:
    """`is_ade` over a view (p, q, k, w, e1, e2) of `link_model`: every ADE
    link is positive with at most the core at q: one fibre with p = 2, or
    two with p = 1, give A without that core and D with it; four more are
    exceptional."""
    if view is None:
        return None
    p, q, k, w, e1, e2 = view
    if w != k or e1 < 0 or e2:
        return None
    if (p, k) == (2, 1):
        return DynkinType("D", q + 2) if e1 else DynkinType("A", q - 1)
    if (p, k) == (1, 2):
        return DynkinType("D", 2 * q + 2) if e1 else DynkinType("A", 2 * q - 1)
    return _EXCEPTIONAL_ADE.get(view)


def is_prime(link: SeifertLink) -> bool:
    """False exactly for connected sums of two or more Hopf links, the
    links without a Seifert view."""
    return normalize(link)._view is not None


def is_fibred(link: SeifertLink) -> bool:
    """False exactly for the balanced coreless links (w = 0, no cores)."""
    return classification_report(link).is_fibred


def in_P(link: SeifertLink) -> bool:
    """Membership in the positively oriented class: every fibre copy and
    every core runs with the fibration."""
    return classification_report(link).in_P


# Closure of a positive braid word: for this family that is exactly
# membership in the positively oriented class.
is_braid_positive = in_P


def is_sqp(link: SeifertLink) -> bool:
    """Strong quasipositivity."""
    return classification_report(link).is_sqp


def is_genus_zero(link: SeifertLink) -> bool:
    """Whether the Seifert genus vanishes."""
    return classification_report(link).is_genus_zero


def g4_status(link: SeifertLink) -> tuple[bool, FourGenus]:
    """(whether the smooth four-genus equals the Seifert genus, and the
    best four-genus information available)."""
    report = classification_report(link)
    return report.g4_equals_g, report.g4


def is_definite(link: SeifertLink) -> bool:
    """Whether the link bounds a surface with definite symmetrized Seifert
    form realizing the genus."""
    return classification_report(link).is_definite


def is_ade_up_to_orientation(link: SeifertLink) -> bool:
    """Whether some reorientation of the underlying link is an ADE link.

    Raises NotPrime on composite input.  Equivalent to a double-cover
    base of positive Euler characteristic (`_spherical_base` at n = 2);
    the suite checks that equivalence against the orbifold module.
    """
    view = normalize(link)._view
    if view is None:
        raise NotPrime("ADE membership up to orientation needs a prime link")
    return _spherical_base(view, 2)


def _core_orders(view: tuple[int, ...], n: int) -> tuple[int, int]:
    """The orders a and b of the exceptional positions of a prime link's
    view in the n-fold cover's base: q and p, times n at a core."""
    p, q, _, _, e1, e2 = view
    return (q * n if e1 else q), (p * n if e2 else p)


def _spherical_base(view: tuple[int, ...], n: int) -> bool:
    """Whether the n-fold cover's base, with k cone points of order n and
    those of `_core_orders` (an order 1 adds nothing), has chi = 1/a + 1/b -
    k(1 - 1/n) > 0, that is k a b (n - 1) < n (a + b)."""
    a, b = _core_orders(view, n)
    return view[2] * a * b * (n - 1) < n * (a + b)


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
    """Every predicate of this module for one link, read off its one view;
    `is_fibred`, `in_P`, `is_sqp`, `is_genus_zero`, `g4_status` and
    `is_definite` return fields of this report."""
    link = normalize(link)
    view = link._view
    g = _factored_genus(_factored(link))
    dynkin = _dynkin(view)
    if view is None:  # a composite Hopf sum
        positive = definite = link.minus == 0
        balanced = annular = False
    else:
        _, _, k, w, e1, e2 = view
        positive = w == k and e1 >= 0 and e2 >= 0
        # Balanced orientations bound annuli in the four-ball; without
        # cores they are the links that are not fibred.
        annular = w == 0
        balanced = annular and e1 == e2 == 0
        # The ADE links, the balanced two-copy coreless links and L(2,3;1,1;-,-).
        definite = (
            dynkin is not None
            or (k, w, e1) == (2, 0, 0)
            or view == (2, 3, 1, 1, -1, -1)
        )
    if positive or g == 0:
        equal, four_genus = True, Known(g)
    else:
        equal, four_genus = False, Known(0) if annular else StrictlyLessThanGenus()
    # In field order: keyword arguments would go through `_record._arrange`.
    return ClassificationReport(
        view is not None, not balanced, positive, positive, positive or balanced,
        g == 0, equal, g, four_genus, definite, dynkin,
        view is not None and _spherical_base(view, 2),
    )
