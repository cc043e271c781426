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
from itertools import chain, groupby, repeat
from typing import Iterable, Optional

from ._record import Record
from .classify import DynkinType, _core_orders, _spherical_base, is_ade
from .errors import InvalidParameters, InvariantViolation, NotPrime
from .link_model import SeifertLink, ZeroCore, normalize, reorient_to_P

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
    """A 2-sphere with cone points, held as (order, count) pairs: orders
    ascending, all >= 2, each with a count >= 1."""

    counted: tuple[tuple[int, int], ...]

    def __init__(self, counted: tuple[tuple[int, int], ...]) -> None:
        # Direct, not Record.__init__: about a fifth of all records built.
        object.__setattr__(self, "counted", counted)

    @staticmethod
    def build(orders: Iterable[int]) -> "ConeOrbifold":
        """Count the orders and drop trivial (order 1) cone points."""
        ordered = sorted(orders)
        if ordered and ordered[0] < 1:
            raise InvalidParameters("cone orders must be positive")
        runs = ((a, len(list(run))) for a, run in groupby(ordered) if a > 1)
        return ConeOrbifold(tuple(runs))

    @property
    def cone_orders(self) -> tuple[int, ...]:
        """Every cone order, ascending and repeated by its count."""
        return tuple(chain.from_iterable(repeat(a, c) for a, c in self.counted))

    @property
    def chi(self) -> Fraction:
        """Orbifold Euler characteristic 2 - sum(1 - 1/a)."""
        return Fraction(*_chi_terms(self.counted))

    @property
    def geometry(self) -> str:
        numerator = _chi_terms(self.counted)[0]
        if numerator > 0:
            return "spherical"
        if numerator == 0:
            return "euclidean"
        return "hyperbolic"

    def __str__(self) -> str:
        if not self.counted:
            return "S2"
        return "S2(" + ",".join(map(str, self.cone_orders)) + ")"


def _chi_terms(counted: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """(N, D) with chi = N / D and D > 0, so N carries the sign of chi:
    from 2/1, each pair (a, c) subtracts c (1 - 1/a) in integers."""
    numerator, denominator = 2, 1
    for a, c in counted:
        numerator = numerator * a - c * (a - 1) * denominator
        denominator *= a
    return numerator, denominator


_BAD_LEVEL = "branched-cover index n must be at least 2"
_NOT_PRIME = "branched-cover analysis applies to prime links only"


def b_bar(link: SeifertLink, n: int) -> ConeOrbifold:
    """Base orbifold of the n-fold cyclic branched cover.

    The k branch copies give one pair (n, k), and the two exceptional
    positions the orders of `_core_orders`.  Those two are placed beside
    the copies by comparison, merged where equal, and an order 1 is
    dropped, so the pairs come out ascending without a sort.
    """
    if n < 2:
        raise InvalidParameters(_BAD_LEVEL)
    view = normalize(link)._view
    if view is None:
        raise NotPrime(_NOT_PRIME)
    a, b = _core_orders(view, n)
    low, high = (a, b) if a <= b else (b, a)
    k = view[2]
    if high < n:
        return ConeOrbifold(_pair(low, high) + ((n, k),))
    if low > n:
        return ConeOrbifold(((n, k),) + _pair(low, high))
    # low <= n <= high: a core of order n joins the copies.
    below, above = ((low, 1),) * (1 < low < n), ((high, 1),) * (high > n)
    return ConeOrbifold(below + ((n, k + (low == n) + (high == n)),) + above)


def _pair(low: int, high: int) -> tuple[tuple[int, int], ...]:
    """The counted cone points of orders low <= high, order 1 dropped."""
    pairs = ((low, 2),) if low == high else ((low, 1), (high, 1))
    return pairs if low > 1 else pairs[1:]


class FibreCoverData(Record):
    """How the regular fibre behaves under the n-fold branched cover.

    `s` = w p q + e1 p + e2 q, over the view of `link_model`, is the
    total winding of the link against a regular fibre, `r` the order of
    the fibre class in the covering group, and cover_degree = n / r the
    number of fibre preimages.
    """

    s: int
    r: int
    cover_degree: int


def fibre_data(link: SeifertLink, n: int) -> FibreCoverData:
    if n < 2:
        raise InvalidParameters(_BAD_LEVEL)
    view = normalize(link)._view
    if view is None:
        raise NotPrime(_NOT_PRIME)
    p, q, _, w, e1, e2 = view
    s = w * p * q + e1 * p + e2 * q
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
        f"finite central extension over {orbifold}", None, None
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
    characteristic, read off the link's view by `_spherical_base`).  At
    n = 2 the group is read off the Dynkin type of the positively
    reoriented link; at higher n lens-space bases (at most two cone
    points) give cyclic groups, a finite catalog covers the torus-link
    cases, and the one genuinely unidentified case is reported as such,
    the only one for which the base orbifold is built.
    """
    if n < 2:
        raise InvalidParameters(_BAD_LEVEL)
    link = normalize(link)
    view = link._view
    if view is None:
        raise NotPrime(_NOT_PRIME)
    if not _spherical_base(view, n):
        return None
    if n == 2:
        dynkin = is_ade(reorient_to_P(link))
        if dynkin is None:
            raise InvariantViolation(f"spherical double cover of non-ADE {link!r}")
        return _two_fold_group(dynkin)
    a, b = _core_orders(view, n)
    if view[2] + (a > 1) + (b > 1) <= 2:
        return Cyclic(n)
    tag = _HIGHER_COVER_GROUPS.get((link, n))
    if tag is not None:
        return tag
    return FiniteUnidentified(b_bar(link, n))
