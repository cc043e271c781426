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
cover; `general_psi_lo` gives the one-sided test available for an
arbitrary weighted cover.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from ._record import Record
from .alexander import cyclotomic_divides
from .classify import is_ade_up_to_orientation
from .errors import (
    InvalidParameters,
    InvariantViolation,
    NotCore,
    NotInCatalog,
    WeightMismatch,
)
from .link_model import (
    HopfSum,
    OneCore,
    SeifertLink,
    TwoCore,
    ZeroCore,
    components,
    normalize,
)
from .orbifold import (
    FiniteGroupTag,
    _require_level,
    _require_prime,
    finite_group,
)

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
CATALOG_HOROFOLIATION = (
    "left-orderable by the horizontal-foliation catalog for Seifert "
    "fibred branched covers"
)


class CoverSpec(Record):
    """A branching index n >= 2 and one weight per component, listed as
    copies first, then the first core, then the second, measured against
    the positively reoriented link.  Weights lie in 1..n-1."""

    n: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_level(self.n)
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
    expected = components(_require_core(link))
    if len(spec.weights) != expected:
        raise WeightMismatch(
            f"expected {expected} weights, got {len(spec.weights)}"
        )
    return link


def canonical_weights(link: SeifertLink, n: int) -> CoverSpec:
    """The weights of the canonical n-fold cover of the link as oriented:
    1 on positively oriented components, n-1 on reversed ones."""
    _require_level(n)
    link = _require_core(normalize(link))
    return CoverSpec(n, _canonical_weight_tuple(link, n))


def _canonical_weight_tuple(link: SeifertLink, n: int) -> tuple[int, ...]:
    """The weights of `canonical_weights` as a bare tuple, for the callers
    that need no `CoverSpec`."""
    positives = (link.k + link.w) // 2
    weights = (1,) * positives + (n - 1,) * (link.k - positives)
    if isinstance(link, OneCore):
        return weights + (1 if link.sign > 0 else n - 1,)
    if isinstance(link, TwoCore):
        return weights + (
            1 if link.sign1 > 0 else n - 1,
            1 if link.sign2 > 0 else n - 1,
        )
    return weights


class JNData(Record):
    """Rotation-number data of the weighted cover: one angle per cone
    point of the base, their sum sigma, and the count r."""

    thetas: tuple[Fraction, ...]
    sigma: Fraction
    r: int

    def __init__(
        self, thetas: tuple[Fraction, ...], sigma: Fraction, r: int
    ) -> None:
        # Direct, not Record.__init__: one per rotation verdict.
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "r", r)


def jn_data(link: SeifertLink, spec: CoverSpec) -> JNData:
    """Cone angles of the weighted cover.

    Branch copies contribute weight/n; a branched core of multiplicity m
    contributes weight/(n m); an unbranched exceptional fibre of
    multiplicity m > 1 contributes the background angle 1/m.
    """
    link = _require_weighted_core(normalize(link), spec)
    total = _sigma_sums(link, spec.n, spec.weights)[1]
    return _jn_record(link, spec.n, spec.weights, total)


def _sigma_sums(
    link: SeifertLink, n: int, weights: tuple[int, ...]
) -> tuple[int, int, int]:
    """(r, sigma*npq of the cover, sigma*npq of its reflection), in
    integers straight from the weights: every angle's denominator divides
    n*p*q, and reflecting sends each weight a to n - a."""
    k, p, q = link.k, link.p, link.q
    copies = sum(weights)  # less the core weights below
    # `tail` and `reflected_tail` sum the angles after the k copies.
    if isinstance(link, ZeroCore):
        # Unbranched fibres, 1/q and 1/p, are the same on both sides.
        tail = reflected_tail = (n * p if q > 1 else 0) + (n * q if p > 1 else 0)
        r = k + (q > 1) + (p > 1)
    elif isinstance(link, OneCore):
        c = weights[k]
        copies -= c
        fibre = n * q if p > 1 else 0
        tail = c * p + fibre
        reflected_tail = (n - c) * p + fibre
        r = k + 1 + (p > 1)
    else:
        c1, c2 = weights[k], weights[k + 1]
        copies -= c1 + c2
        tail = c1 * p + c2 * q
        reflected_tail = (n - c1) * p + (n - c2) * q
        r = k + 2
    pq = p * q
    return r, pq * copies + tail, pq * (k * n - copies) + reflected_tail


def _angles(link: SeifertLink, n: int, weights: tuple[int, ...]) -> list:
    """(numerator, denominator) of each angle of the weighted cover."""
    angles = [(weights[i], n) for i in range(link.k)]
    if isinstance(link, ZeroCore):
        angles += [(1, m) for m in (link.q, link.p) if m > 1]
    elif isinstance(link, OneCore):
        angles.append((weights[link.k], n * link.q))
        if link.p > 1:
            angles.append((1, link.p))
    else:
        angles.append((weights[link.k], n * link.q))
        angles.append((weights[link.k + 1], n * link.p))
    return angles


def _jn_record(
    link: SeifertLink, n: int, weights: tuple[int, ...], total: int
) -> JNData:
    """The record of the cover with these weights, whose sigma*npq is
    `total`."""
    angles = _angles(link, n, weights)
    # The k branch copies often share one angle: one Fraction per value.
    made = {angle: Fraction(*angle) for angle in set(angles)}
    thetas = tuple(map(made.__getitem__, angles))
    return JNData(thetas, Fraction(total, n * link.p * link.q), len(thetas))


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

    def render(self) -> str:
        parts = ", ".join(str(c) for c in self.coefficients)
        return f"({self.e0}; {parts})"

    def __str__(self) -> str:
        return self.render()


def nlo_seifert_invariants(link: SeifertLink, n: int) -> SeifertInvariants:
    """Seifert invariants certifying that the n-fold canonical cover has
    no co-oriented taut foliation.

    Only the three catalogued families admit this certificate; any other
    pair raises NotInCatalog.
    """
    _require_level(n)
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
    catalog has none."""
    if (
        isinstance(link, ZeroCore)
        and (link.p, link.q, link.k, link.w) == (1, 1, 3, 1)
        and n >= 3
    ):
        third = Fraction(1, n)
        return SeifertInvariants(0, (third, third, -third))
    if (
        isinstance(link, OneCore)
        and (link.p, link.k, link.w, link.sign) == (1, 2, 0, 1)
        and n >= 3
    ):
        return SeifertInvariants(
            0, (Fraction(-1, n), Fraction(1, n), Fraction(-1, n * link.q))
        )
    if (
        isinstance(link, OneCore)
        and (link.p, link.q, link.k, link.w, link.sign) == (2, 3, 1, 1, -1)
        and n == 3
    ):
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

_STAR_EVIDENCE = (PositiveBetti, PSL2R_Rep, Catalog)
_NOT_STAR_EVIDENCE = (FinitePi1, NoCTF_SeifertObstruction, Catalog)


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
    reflection, and (when the weights describe a canonical cover of a
    reorientation) the cyclotomic Betti-number witness.
    """
    link = _require_weighted_core(normalize(link), spec)
    if not is_ade_up_to_orientation(link):
        return _LO_NONPOSITIVE_CHI
    data = _rotation_witness(link, spec.n, spec.weights)
    if data is not None:
        return LO(PSL2R_Rep(data))
    if all(a in (1, spec.n - 1) for a in spec.weights):
        reoriented = _link_of_weights(link, spec)
        if cyclotomic_divides(spec.n, reoriented):
            return LO(PositiveBetti(spec.n))
    return _INCONCLUSIVE


def _rotation_witness(
    link: SeifertLink, n: int, weights: tuple[int, ...]
) -> Optional[JNData]:
    """Rotation-number data forcing a left-orderable lift, read from the
    cover with these weights or else from its reflection; None when
    neither suffices.

    Both sides are tested on the integer sigma*npq of `_sigma_sums`, so
    no angle and no reflected weight is built for a side that fails; the
    angle list, and the reflected weights when the reflection wins, are
    built once, for the one record returned."""
    r, total, reflected = _sigma_sums(link, n, weights)
    common = n * link.p * link.q
    if _lo_sufficient(r, total, common):
        return _jn_record(link, n, weights, total)
    if _lo_sufficient(r, reflected, common):
        return _jn_record(link, n, tuple(n - a for a in weights), reflected)
    return None


def _link_of_weights(link: SeifertLink, spec: CoverSpec) -> SeifertLink:
    """The reorientation of `link` whose canonical cover `spec` describes.

    Only meaningful when every weight is 1 or n-1: weight 1 keeps the
    positive orientation of the component, weight n-1 reverses it.  (At
    n = 2 both coincide and the cover is orientation-independent.)
    """
    balance = sum(1 if a == 1 else -1 for a in spec.weights[: link.k])
    if isinstance(link, ZeroCore):
        fresh = ZeroCore(link.p, link.q, link.k, balance)
    elif isinstance(link, OneCore):
        sign = 1 if spec.weights[link.k] == 1 else -1
        fresh = OneCore(link.p, link.q, link.k, balance, sign)
    else:
        sign1 = 1 if spec.weights[link.k] == 1 else -1
        sign2 = 1 if spec.weights[link.k + 1] == 1 else -1
        fresh = TwoCore(link.p, link.q, link.k, balance, sign1, sign2)
    # The canonical cover of the canonical link itself needs no rewriting.
    return link if fresh == link else normalize(fresh)


class StarStatus(Record):
    """Verdict for the canonical n-fold cover, with matching evidence.

    `star` is True when the cover's fundamental group is left-orderable.
    Star verdicts carry PositiveBetti, PSL2R_Rep, or Catalog evidence;
    NotStar verdicts carry FinitePi1, NoCTF_SeifertObstruction, or
    Catalog evidence.
    """

    star: bool
    evidence: Evidence

    def __init__(self, star: bool, evidence: Evidence) -> None:
        # Direct, not Record.__init__: one per star verdict.
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "evidence", evidence)
        self.__post_init__()

    def __post_init__(self) -> None:
        allowed = _STAR_EVIDENCE if self.star else _NOT_STAR_EVIDENCE
        if not isinstance(self.evidence, allowed):
            raise ValueError(
                f"{type(self.evidence).__name__} cannot support "
                f"verdict {self.verdict}"
            )

    @property
    def verdict(self) -> str:
        return "Star" if self.star else "NotStar"


_TWO_BRIDGE = StarStatus(False, Catalog(CATALOG_TWO_BRIDGE))
_HOROFOLIATION = StarStatus(True, Catalog(CATALOG_HOROFOLIATION))


def canonical_star_status(link: SeifertLink, n: int) -> StarStatus:
    """Left-orderability verdict for the canonical n-fold branched cover.

    Raises NotPrime on composite links.  Links that are ADE up to
    orientation are decided, in order, by a finite fundamental group, a
    catalogued non-foliation certificate, the two-bridge catalog and a
    positive first Betti number.  Every other cover is left-orderable,
    witnessed by rotation numbers, a positive first Betti number or the
    horizontal-foliation catalog.
    """
    _require_level(n)
    link = _require_prime(
        normalize(link), "star status is defined for prime links only"
    )
    if is_ade_up_to_orientation(link):
        group = finite_group(link, n)
        if group is not None:
            return StarStatus(False, FinitePi1(group))
        if n == 2:
            # The double cover of an ADE link is spherical.
            raise InvariantViolation(f"infinite group for {link!r} at n=2")
        invariants = _catalogued_invariants(link, n)
        if invariants is not None:
            return StarStatus(False, NoCTF_SeifertObstruction(invariants))
        if isinstance(link, ZeroCore) and (link.p, link.k, link.w) == (1, 2, 0):
            return _TWO_BRIDGE
        if cyclotomic_divides(n, link):
            return StarStatus(True, PositiveBetti(n))
    data = _rotation_witness(link, n, _canonical_weight_tuple(link, n))
    if data is not None:
        return StarStatus(True, PSL2R_Rep(data))
    if cyclotomic_divides(n, link):
        return StarStatus(True, PositiveBetti(n))
    return _HOROFOLIATION
