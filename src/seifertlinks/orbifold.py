"""Base orbifolds of cyclic branched covers and finiteness detection.

The n-fold cyclic cover of the 3-sphere branched over a link of this
class is a Seifert fibred space.  Its base is a 2-sphere with cone
points whose orders depend only on (p, q, k, n); the orbifold Euler
characteristic of that base decides finiteness of the fundamental group,
and in the finite cases a short catalog identifies the group itself.
Every finite group is one `FiniteGroupTag(label, group_order, h1_order)`
record; `Cyclic(m)`, `BinaryDihedral(m)` and the other capitalized names
are constructors of it, not classes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from ._record import Record
from .classify import DynkinType, is_ade, is_prime
from .errors import InvalidParameters, InvariantViolation, NotPrime
from .link_model import (
    HopfSum,
    OneCore,
    SeifertLink,
    TwoCore,
    ZeroCore,
    normalize,
    reorient_to_P,
)

__all__ = [
    "ConeOrbifold",
    "b_bar",
    "FibreCoverData",
    "fibre_data",
    "Cyclic",
    "BinaryDihedral",
    "BinaryTetrahedral",
    "BinaryOctahedral",
    "BinaryIcosahedral",
    "FiniteUnidentified",
    "FiniteGroupTag",
    "finite_group",
]


class ConeOrbifold(Record):
    """A 2-sphere with cone points; orders sorted ascending, all >= 2."""

    cone_orders: tuple[int, ...]

    def __init__(self, cone_orders: tuple[int, ...]) -> None:
        # Direct, not Record.__init__: about a fifth of all records built.
        object.__setattr__(self, "cone_orders", cone_orders)

    @staticmethod
    def build(orders: Iterable[int]) -> "ConeOrbifold":
        """Sort the orders and drop trivial (order 1) cone points."""
        ordered = sorted(orders)
        if ordered and ordered[0] < 1:
            raise InvalidParameters("cone orders must be positive")
        return ConeOrbifold(tuple(ordered[ordered.count(1):]))

    @property
    def chi(self) -> Fraction:
        """Orbifold Euler characteristic 2 - sum(1 - 1/a)."""
        return Fraction(*_chi_terms(self.cone_orders))

    @property
    def geometry(self) -> str:
        numerator = _chi_terms(self.cone_orders)[0]
        if numerator > 0:
            return "spherical"
        if numerator == 0:
            return "euclidean"
        return "hyperbolic"

    def render(self) -> str:
        if not self.cone_orders:
            return "S2"
        return "S2(" + ",".join(str(a) for a in self.cone_orders) + ")"

    def __str__(self) -> str:
        return self.render()


def _chi_terms(cone_orders: tuple[int, ...]) -> tuple[int, int]:
    """(numerator, L) with chi = numerator / L, summed in integers over the
    lcm L of the r orders: numerator = (2 - r)L + sum L/a.  L > 0, so the
    numerator carries the sign of chi."""
    lcm = math.lcm(*cone_orders)
    inverses = sum(map(lcm.__floordiv__, cone_orders))
    return (2 - len(cone_orders)) * lcm + inverses, lcm


def _require_level(n: int) -> None:
    if n < 2:
        raise InvalidParameters("branched-cover index n must be at least 2")


def _require_prime(
    link: SeifertLink,
    message: str = "branched-cover analysis applies to prime links only",
) -> SeifertLink:
    """The canonical `link` itself, once it is known to be prime."""
    if not is_prime(link):
        raise NotPrime(message)
    return link


def b_bar(link: SeifertLink, n: int) -> ConeOrbifold:
    """Base orbifold of the n-fold cyclic branched cover.

    The branch copies each contribute a cone of order n; the exceptional
    fibres contribute their multiplicities, amplified by n when the
    corresponding core is part of the link.  The two core orders are
    placed among the k copies of n by comparison, and an order 1 is
    dropped, so the orders come out sorted without a sort.
    """
    _require_level(n)
    link = _require_prime(normalize(link))
    if isinstance(link, HopfSum):
        return ConeOrbifold((n, n))
    if isinstance(link, ZeroCore):
        a, b = link.q, link.p
    elif isinstance(link, OneCore):
        a, b = n * link.q, link.p
    else:
        a, b = n * link.q, n * link.p
    low, high = (a, b) if a <= b else (b, a)
    copies = (n,) * link.k
    if low >= n:
        return ConeOrbifold(copies + (low, high))
    if high > n:
        return ConeOrbifold(((low,) if low > 1 else ()) + copies + (high,))
    # Both orders are at most n, and only they can be a trivial 1.
    if low > 1:
        return ConeOrbifold((low, high) + copies)
    return ConeOrbifold(((high,) if high > 1 else ()) + copies)


class FibreCoverData(Record):
    """How the regular fibre behaves under the n-fold branched cover.

    `s` is the total winding of the link against a regular fibre, `r` the
    order of the fibre class in the covering group, and cover_degree =
    n / r the number of fibre preimages.
    """

    s: int
    r: int
    cover_degree: int


def fibre_data(link: SeifertLink, n: int) -> FibreCoverData:
    _require_level(n)
    link = _require_prime(normalize(link))
    # The prime Hopf link enters through its coreless presentation with
    # p = q = 1 and two positively oriented copies.
    s = 2 if isinstance(link, HopfSum) else link.w * link.p * link.q
    if isinstance(link, OneCore):
        s += link.sign * link.p
    elif isinstance(link, TwoCore):
        s += link.sign1 * link.p + link.sign2 * link.q
    r = n // math.gcd(n, s % n)
    return FibreCoverData(s=s, r=r, cover_degree=n // r)


# -- identification of the finite groups --------------------------------------


class FiniteGroupTag(Record):
    """A finite fundamental group: its name, its order and the order of its
    abelianization H_1.  Both orders are None for a group that is finite by
    the Euler-characteristic test but outside the catalog of groups this
    package identifies by name."""

    label: str
    group_order: Optional[int]
    h1_order: Optional[int]


def Cyclic(m: int) -> FiniteGroupTag:
    return FiniteGroupTag(f"Z/{m}", m, m)


def BinaryDihedral(m: int) -> FiniteGroupTag:
    return FiniteGroupTag(f"D*_{m}", 4 * m, 4)


def BinaryTetrahedral() -> FiniteGroupTag:
    return FiniteGroupTag("T*", 24, 3)


def BinaryOctahedral() -> FiniteGroupTag:
    return FiniteGroupTag("O*", 48, 2)


def BinaryIcosahedral() -> FiniteGroupTag:
    return FiniteGroupTag("I*", 120, 1)


def FiniteUnidentified(orbifold: ConeOrbifold) -> FiniteGroupTag:
    return FiniteGroupTag(
        f"finite central extension over {orbifold.render()}", None, None
    )


_E_GROUPS = {6: BinaryTetrahedral(), 7: BinaryOctahedral(), 8: BinaryIcosahedral()}


def _two_fold_group(dynkin: DynkinType) -> FiniteGroupTag:
    if dynkin.family == "A":
        return Cyclic(dynkin.index + 1)
    if dynkin.family == "D":
        return BinaryDihedral(dynkin.index - 2)
    return _E_GROUPS[dynkin.index]


_HIGHER_COVER_GROUPS: dict[tuple[SeifertLink, int], FiniteGroupTag] = {
    (ZeroCore(2, 3, 1, 1), 3): BinaryDihedral(2),
    (ZeroCore(2, 3, 1, 1), 4): BinaryTetrahedral(),
    (ZeroCore(2, 3, 1, 1), 5): BinaryIcosahedral(),
    (ZeroCore(1, 2, 2, 2), 3): BinaryTetrahedral(),
    (ZeroCore(2, 5, 1, 1), 3): BinaryIcosahedral(),
}


def finite_group(link: SeifertLink, n: int) -> Optional[FiniteGroupTag]:
    """The fundamental group of the n-fold branched cover when finite.

    None when the group is infinite (non-positive base Euler
    characteristic).  At n = 2 the group is read off the Dynkin type of
    the positively reoriented link; at higher n a finite catalog covers
    the torus-link cases, lens-space bases give cyclic groups, and the
    one genuinely unidentified case is reported as such.
    """
    _require_level(n)
    link = normalize(link)
    base = b_bar(link, n)  # also requires a prime link
    if _chi_terms(base.cone_orders)[0] <= 0:
        return None
    if n == 2:
        dynkin = is_ade(reorient_to_P(link))
        if dynkin is None:
            raise InvariantViolation(f"spherical double cover of non-ADE {link!r}")
        return _two_fold_group(dynkin)
    if len(base.cone_orders) <= 2:
        return Cyclic(n)
    tag = _HIGHER_COVER_GROUPS.get((link, n))
    if tag is not None:
        return tag
    return FiniteUnidentified(base)
