"""Left-orderability analysis of cyclic branched covers.

For a prime link L of the class and an index n, the n-fold cyclic cover
branched over L is a Seifert fibred rational homology sphere (or has
positive first Betti number), and three mutually exclusive mechanisms
decide whether its fundamental group is left-orderable:

  * the group is finite (never left-orderable),
  * the cover carries no co-oriented taut foliation, certified by its
    normalized Seifert invariants (never left-orderable),
  * the group surjects onto the reals or admits a faithful lift of a
    PSL(2,R) representation, witnessed either by a positive first Betti
    number or by rotation-number data (left-orderable).

`canonical_star_status` runs the complete decision for the canonical
cover and proves that it decides every one; `general_psi_lo` gives the
one-sided test available for an arbitrary weighted cover.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Optional, Union

from ._record import Record
from .alexander import _factored, _phi_divides
from .classify import _spherical_base
from .errors import (
    InvalidParameters,
    InvariantViolation,
    NotCore,
    NotInCatalog,
    NotPrime,
    WeightMismatch,
)
from .link_model import HopfSum, SeifertLink, normalize
from .orbifold import _BAD_LEVEL, FiniteGroupTag, finite_group

__all__ = [
    "CoverSpec",
    "canonical_weights",
    "JNData",
    "jn_data",
    "jn_lo_sufficient",
    "SeifertInvariants",
    "nlo_seifert_invariants",
    "FinitePi1",
    "NoCTF_SeifertObstruction",
    "PositiveBetti",
    "PSL2R_Rep",
    "Catalog",
    "Evidence",
    "LO",
    "Inconclusive",
    "general_psi_lo",
    "StarStatus",
    "canonical_star_status",
]


CATALOG_NONPOSITIVE_CHI = (
    "the double branched cover's base orbifold has non-positive Euler "
    "characteristic, which forces left-orderability of every cyclic "
    "branched cover of the link"
)
CATALOG_TWO_BRIDGE = (
    "cyclic branched covers in this reoriented family are two-bridge "
    "covers with non-left-orderable fundamental groups"
)


class CoverSpec(Record):
    """A branching index n >= 2 and one weight per component, listed as
    copies first, then the first core, then the second, measured against
    the positively reoriented link.  Weights lie in 1..n-1."""

    n: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidParameters(_BAD_LEVEL)
        for a in self.weights:
            if not 1 <= a <= self.n - 1:
                raise InvalidParameters(
                    f"cover weight {a} is outside 1..{self.n - 1}"
                )

    def reflected(self) -> "CoverSpec":
        """The complementary cover (deck transformation reversed)."""
        return CoverSpec(self.n, tuple(self.n - a for a in self.weights))


def _require_core(link: SeifertLink) -> SeifertLink:
    if isinstance(link, HopfSum):
        raise NotCore("this operation needs a core presentation, not a Hopf sum")
    return link


def _require_weighted_core(link: SeifertLink, spec: CoverSpec) -> SeifertLink:
    """The canonical `link`, once it has cores and one weight per component."""
    _, _, k, _, e1, e2 = _require_core(link)._view
    expected = k + abs(e1) + abs(e2)
    if len(spec.weights) != expected:
        raise WeightMismatch(
            f"expected {expected} weights, got {len(spec.weights)}"
        )
    return link


def canonical_weights(link: SeifertLink, n: int) -> CoverSpec:
    """The weights of the canonical n-fold cover of the link as oriented:
    1 on positively oriented components, n-1 on reversed ones."""
    if n < 2:
        raise InvalidParameters(_BAD_LEVEL)
    runs, cores = _canonical_runs(_require_core(normalize(link)), n)
    (a, c), (b, d) = runs
    return CoverSpec(n, (a,) * c + (b,) * d + tuple(filter(None, cores)))


def _canonical_runs(link: SeifertLink, n: int) -> tuple[tuple, tuple[int, int]]:
    """The weights of `canonical_weights` as `_runs` gives them, read off
    the view: the (k + w)/2 positive copies, then the reversed ones; a
    core of sign 1 or -1 has weight e % n, 1 or n - 1 (0: no core)."""
    _, _, k, w, e1, e2 = link._view
    positives = (k + w) // 2
    return ((1, positives), (n - 1, k - positives)), (e1 % n, e2 % n)


def _runs(link: SeifertLink, weights: tuple[int, ...]) -> tuple[tuple, tuple[int, int]]:
    """(copy runs, core weights) of a weight tuple: the copies' weights as
    ordered (weight, count) runs, and the weight of each core, 0 where the
    core is not a component."""
    _, _, k, _, e1, e2 = link._view
    runs = tuple((a, len(list(run))) for a, run in groupby(weights[:k]))
    return runs, (e1 and weights[k], e2 and weights[-1])


class JNData(Record):
    """Rotation-number data of the weighted cover: one angle per cone
    point of the base, their sum sigma, and the count r.

    A verdict returns it in integers (`_jn_record`): sigma and the angles
    are each built on their first read and then stored, so a record
    equals, hashes, prints, copies and pickles as one built with them."""

    thetas: tuple[Fraction, ...]
    sigma: Fraction
    r: int

    def __getattr__(self, name: str) -> Union[Fraction, tuple[Fraction, ...]]:
        # Called only for a field `_jn_record` left unbuilt; `_cover` holds
        # the integers (n, p, q, runs, core weights, sigma*npq).
        if name == "sigma":
            n, p, q, _, _, total = self._cover
            value = Fraction(total, n * p * q)
        elif name == "thetas":
            n, p, q, runs, (c1, c2), _ = self._cover
            value = ()
            for a, c in runs:
                if c:
                    value += (Fraction(a, n),) * c
            if c1 or q > 1:
                value += (Fraction(c1, n * q) if c1 else Fraction(1, q),)
            if c2 or p > 1:
                value += (Fraction(c2, n * p) if c2 else Fraction(1, p),)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value


def jn_data(link: SeifertLink, spec: CoverSpec) -> JNData:
    """Cone angles of the weighted cover.

    Branch copies contribute weight/n; a branched core of multiplicity m
    contributes weight/(n m); an unbranched exceptional fibre of
    multiplicity m > 1 contributes the background angle 1/m.
    """
    link = _require_weighted_core(normalize(link), spec)
    runs, cores = _runs(link, spec.weights)
    r, total, _ = _sigma_sums(link, spec.n, runs, cores)
    return _jn_record(link, spec.n, runs, cores, r, total)


def _sigma_sums(
    link: SeifertLink, n: int, runs: tuple, cores: tuple[int, int]
) -> tuple[int, int, int]:
    """(r, sigma*npq of the cover, sigma*npq of its reflection), in
    integers straight from the runs: every angle's denominator divides
    n*p*q, and reflecting sends each weight a to n - a.

    Per exceptional position of multiplicity a, in units of npq/(na):
    a core of weight c adds c, and n - c on the reflected side; an
    unbranched fibre adds n to both sides when a > 1, nothing when a = 1."""
    p, q, k = link._view[:3]
    c1, c2 = cores
    c1, d1 = (c1, n - c1) if c1 else (n, n) if q > 1 else (0, 0)
    c2, d2 = (c2, n - c2) if c2 else (n, n) if p > 1 else (0, 0)
    copies = 0
    for a, c in runs:
        copies += a * c
    pq = p * q
    return (
        k + (c1 > 0) + (c2 > 0),
        pq * copies + c1 * p + c2 * q,
        pq * (k * n - copies) + d1 * p + d2 * q,
    )


def _jn_record(
    link: SeifertLink, n: int, runs: tuple, cores: tuple, r: int, total: int
) -> JNData:
    """The record of the cover with these runs and core weights, r angles
    and sigma*npq `total`, returned in integers: its sigma and angles are
    built when read."""
    record = JNData.__new__(JNData)
    object.__setattr__(record, "r", r)
    object.__setattr__(record, "_cover", (n, *link._view[:2], runs, cores, total))
    return record


def jn_lo_sufficient(data: JNData) -> bool:
    """Whether the rotation numbers force a PSL(2,R) representation with
    a left-orderable lift (sufficient, not necessary)."""
    return _lo_sufficient(data.r, *data.sigma.as_integer_ratio())


def _lo_sufficient(r: int, total: int, common: int) -> bool:
    """The criterion for r angles summing to sigma = total/common > 0."""
    if r == 3:
        return total < common or total > 2 * common
    if r == 4:
        return total != 2 * common
    return r >= 5


class SeifertInvariants(Record):
    """Normalized Seifert invariants (e0; b1/a1, ..., br/ar) of a cover."""

    e0: int
    coefficients: tuple[Fraction, ...]

    def __str__(self) -> str:
        parts = ", ".join(str(c) for c in self.coefficients)
        return f"({self.e0}; {parts})"


def nlo_seifert_invariants(link: SeifertLink, n: int) -> SeifertInvariants:
    """Seifert invariants certifying that the n-fold canonical cover has
    no co-oriented taut foliation.

    Only the three catalogued families admit this certificate; any other
    pair raises NotInCatalog.
    """
    if n < 2:
        raise InvalidParameters(_BAD_LEVEL)
    link = normalize(link)
    invariants = _catalogued_invariants(link, n)
    if invariants is None:
        raise NotInCatalog(
            "no non-foliation Seifert-invariant certificate is catalogued "
            f"for ({link!r}, n={n})"
        )
    return invariants


def _catalogued_invariants(
    link: SeifertLink, n: int
) -> Optional[SeifertInvariants]:
    """The certificate of `nlo_seifert_invariants`, or None where the
    catalog has none; read off the view."""
    view = link._view
    if view == (1, 1, 3, 1, 0, 0) and n >= 3:
        third = Fraction(1, n)
        return SeifertInvariants(0, (third, third, -third))
    if view and view[0] == 1 and view[2:] == (2, 0, 1, 0) and n >= 3:
        return SeifertInvariants(
            0, (Fraction(-1, n), Fraction(1, n), Fraction(-1, n * view[1]))
        )
    if view == (2, 3, 1, 1, -1, 0) and n == 3:
        return SeifertInvariants(
            0, (Fraction(1, 3), Fraction(2, 9), Fraction(-3, 2))
        )
    return None


# -- evidence and verdicts -----------------------------------------------------


class FinitePi1(Record):
    """The cover's fundamental group is finite."""

    group: FiniteGroupTag


class NoCTF_SeifertObstruction(Record):
    """The cover admits no co-oriented taut foliation."""

    invariants: SeifertInvariants


class PositiveBetti(Record):
    """The cover has positive first Betti number."""

    n: int


class PSL2R_Rep(Record):
    """Rotation-number witness of a left-orderable PSL(2,R) lift."""

    data: JNData


class Catalog(Record):
    """A catalogued fact, carried as a neutral descriptive note."""

    note: str


Evidence = Union[
    FinitePi1, NoCTF_SeifertObstruction, PositiveBetti, PSL2R_Rep, Catalog
]


class LO(Record):
    """Left-orderability established, with its witness."""

    evidence: Evidence


class Inconclusive(Record):
    """The one-sided tests for this weighted cover all failed."""


# Verdicts that carry no per-call data are built once: records are
# immutable and compare by value.
_LO_NONPOSITIVE_CHI = LO(Catalog(CATALOG_NONPOSITIVE_CHI))
_INCONCLUSIVE = Inconclusive()


def general_psi_lo(
    link: SeifertLink, spec: CoverSpec
) -> Union[LO, Inconclusive]:
    """One-sided left-orderability test for an arbitrary weighted cover.

    Tries, in order: the non-positive double-cover Euler characteristic
    catalog, the rotation-number criterion for the cover and for its
    reflection, and, when every weight is 1 or n-1, the cyclotomic
    Betti-number witness of the reorientation whose canonical cover the
    weights describe: weight 1 keeps a component, n-1 reverses it.
    """
    link = _require_weighted_core(normalize(link), spec)
    p, q, k, _, e1, e2 = view = link._view
    if not _spherical_base(view, 2):
        return _LO_NONPOSITIVE_CHI
    data = _rotation_witness(link, spec.n, *_runs(link, spec.weights))
    if data is not None:
        return LO(PSL2R_Rep(data))
    if all(a in (1, spec.n - 1) for a in spec.weights):
        signs = [1 if a == 1 else -1 for a in spec.weights]
        reoriented = (p, q, k, sum(signs[:k]), e1 and signs[k], e2 and signs[-1])
        if _phi_divides(spec.n, _factored(link, reoriented)):
            return LO(PositiveBetti(spec.n))
    return _INCONCLUSIVE


def _rotation_witness(
    link: SeifertLink, n: int, runs: tuple, cores: tuple[int, int]
) -> Optional[JNData]:
    """Rotation-number data forcing a left-orderable lift, read from the
    cover with these runs and core weights or else from its reflection;
    None when neither suffices.

    Both sides are tested on the integer sigma*npq of `_sigma_sums`, and
    the record of the side that wins is returned in integers, so no angle
    is built here; the reflected runs are built only when the reflection
    wins."""
    r, total, reflected = _sigma_sums(link, n, runs, cores)
    p, q = link._view[:2]
    common = n * p * q
    if _lo_sufficient(r, total, common):
        return _jn_record(link, n, runs, cores, r, total)
    if _lo_sufficient(r, reflected, common):
        runs = tuple((n - a, c) for a, c in runs)
        cores = tuple(c and n - c for c in cores)
        return _jn_record(link, n, runs, cores, r, reflected)
    return None


class StarStatus(Record):
    """Verdict for the canonical n-fold cover, read off its evidence.

    `star` is True when the cover's fundamental group is left-orderable:
    exactly when the evidence is a PositiveBetti or PSL2R_Rep witness.
    FinitePi1, NoCTF_SeifertObstruction and the two-bridge Catalog note
    mean NotStar.
    """

    evidence: Evidence

    def __init__(self, evidence: Evidence) -> None:
        # Direct, not Record.__init__: one per star verdict.
        object.__setattr__(self, "evidence", evidence)

    @property
    def star(self) -> bool:
        return isinstance(self.evidence, (PositiveBetti, PSL2R_Rep))

    @property
    def verdict(self) -> str:
        return "Star" if self.star else "NotStar"


_TWO_BRIDGE = StarStatus(Catalog(CATALOG_TWO_BRIDGE))


def canonical_star_status(link: SeifertLink, n: int) -> StarStatus:
    """Left-orderability verdict for the canonical n-fold branched cover.

    Raises NotPrime on composite links.  Links that are ADE up to
    orientation are tried, once each, by a finite group, a catalogued
    non-foliation certificate, the two-bridge catalog, a positive first
    Betti number and rotation numbers; other links by the last two in
    the opposite order.

    No cover passes every rung, so the ladder ends in a theorem guard.
    Proof: let r count the cone points, sigma and sigma' be the angle
    sums of the cover and of its reflection, and S = sigma + sigma' =
    k + sum(t), t = 1/a at a core of multiplicity a and 2/a at an
    unbranched fibre of multiplicity a > 1.  Rotation numbers decide
    unless r <= 4 and both sums lie in [1, 2] (r = 3) or equal 2 (r = 4).

    - r <= 2: the base is a sphere with at most two cone points at every
      n, so the link is ADE and the group finite.
    - r = 4: a cone point adds at most 1 to S, exactly 1 at a copy or an
      unbranched fibre of multiplicity 2, so S = 4 leaves L(1,1;4,w) and
      L(1,2;3,w); sigma = 2 then leaves L(1,1;4,0) at every n, and
      L(1,1;4,2), L(1,1;4,4), L(1,2;3,1) and L(1,2;3,3) at n = 2.  None
      is ADE, and Phi_n divides Delta for each.
    - r = 3, n = 2: each angle is 1/(its cone order), so chi = sigma - 1,
      and no such base is Euclidean: sigma >= 1 makes the link ADE and
      the group finite.
    - r = 3, n >= 3: over L(1,1;3,w), L(1,q;2,w) with or without the
      core, and k = 1 with two exceptional positions, only ADE covers
      remain.  Finite: L(1,2;2,2) and L(2,5;1,1) at n = 3, L(2,3;1,1) at
      n = 3, 4, 5.  Certified: L(1,1;3,1), L(1,q;2,0;+), and L(2,3;1,1;-)
      at n = 3.  Finite or two-bridge: L(1,q;2,0).  Phi_n | Delta:
      L(1,1;3,3), L(1,3;2,2), L(1,2;2,2;-) and L(3,2;1,1;-) at n = 3,
      L(1,2;2,2) and L(2,3;1,1;-) at n = 4, L(2,3;1,1) at n = 6.
    """
    if n < 2:
        raise InvalidParameters(_BAD_LEVEL)
    link = normalize(link)
    view = link._view
    if view is None:
        raise NotPrime("star status is defined for prime links only")
    ade = _spherical_base(view, 2)
    if ade:
        group = finite_group(link, n)
        if group is not None:
            return StarStatus(FinitePi1(group))
        if n == 2:
            # The double cover of an ADE link is spherical.
            raise InvariantViolation(f"infinite group for {link!r} at n=2")
        invariants = _catalogued_invariants(link, n)
        if invariants is not None:
            return StarStatus(NoCTF_SeifertObstruction(invariants))
        if view[0] == 1 and view[2:] == (2, 0, 0, 0):
            return _TWO_BRIDGE
        if _phi_divides(n, _factored(link)):
            return StarStatus(PositiveBetti(n))
    data = _rotation_witness(link, n, *_canonical_runs(link, n))
    if data is not None:
        return StarStatus(PSL2R_Rep(data))
    if not ade and _phi_divides(n, _factored(link)):
        return StarStatus(PositiveBetti(n))
    # Unreachable by the proof above.
    raise InvariantViolation(f"no rung decides {link!r} at n={n}")
