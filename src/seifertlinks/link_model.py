"""Parametric notation for Seifert links and its canonical normal form.

A link in this class is either a connected sum of Hopf links or a union of
parallel fibres of a Seifert fibration of the 3-sphere together with zero,
one, or two of the exceptional cores.  Four parameter shapes cover all of
these:

    HopfSum(plus, minus)                 #plus H+ # minus H-
    ZeroCore(p, q, k, w)                 L(p,q;k,w)      k fibre copies
    OneCore(p, q, k, w, sign)            L(p,q;k,w;e)    plus one core
    TwoCore(p, q, k, w, sign1, sign2)    L(p,q;k,w;e1,e2)  plus both cores

Here p, q are the coprime fibre multiplicities, k the number of parallel
copies, w the signed count of copy orientations (number oriented with the
fibration minus number against it), and each sign records the orientation
of an included core circle.

Different parameter tuples can denote the same oriented link.  `normalize`
writes down the unique canonical representative of any valid tuple in one
pass over its view (below) and flags it, and a flagged link passes through
it again in O(1).  Every public function of the package starts by
normalizing its link, so a link is validated and normalized once, where it
enters; the verdicts of `alexander`, `orbifold` and `cover` check the rest
inline.

Every prime link of the class is k regular fibres and two exceptional
positions, of multiplicities q and p, each either a core of the link or
not.  `normalize` stores this view on the link it returns as the tuple
(p, q, k, w, e1, e2) of `_shape`: e1 and e2 are the core signs at q and
p, 0 where the core is not a component, and the prime Hopf link is
(1, 1, 2, 2, 0, 0).  The other modules read their formulas off it.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Union

from ._record import Record
from .errors import (
    InvalidParameters,
    LinkInputError,
    NotCoprime,
    UnknotInput,
    UnknownAlias,
)

__all__ = [
    "HopfSum",
    "ZeroCore",
    "OneCore",
    "TwoCore",
    "SeifertLink",
    "LinkAlias",
    "normalize",
    "is_canonical",
    "components",
    "render",
    "alias",
    "alias_to_link",
    "reorient_to_P",
]


class HopfSum(Record):
    """Connected sum of `plus` positive and `minus` negative Hopf links.

    The normal form identifies each Hopf sum with its mirror image: it
    swaps `plus` and `minus` so that plus >= minus, and it maps every
    two-component unit-multiplicity presentation to HopfSum(1, 0),
    whatever its linking number."""

    plus: int
    minus: int
    # Set only by `normalize`, not fields: the flag, and the view of
    # `_shape` (None for a composite Hopf sum).
    _canonical = False
    _view = None


class ZeroCore(Record):
    """k parallel fibre copies, no exceptional cores: L(p,q;k,w)."""

    p: int
    q: int
    k: int
    w: int
    _canonical = False
    _view = None


class OneCore(Record):
    """k fibre copies plus the first core: L(p,q;k,w;sign)."""

    p: int
    q: int
    k: int
    w: int
    sign: int
    _canonical = False
    _view = None


class TwoCore(Record):
    """k fibre copies plus both cores: L(p,q;k,w;sign1,sign2)."""

    p: int
    q: int
    k: int
    w: int
    sign1: int
    sign2: int
    _canonical = False
    _view = None


SeifertLink = Union[HopfSum, ZeroCore, OneCore, TwoCore]

_SIGNS = (1, -1)


def components(link: SeifertLink) -> int:
    """Number of components of the underlying link."""
    link = normalize(link)
    if isinstance(link, HopfSum):
        return link.plus + link.minus + 1
    _, _, k, _, e1, e2 = link._view
    return k + abs(e1) + abs(e2)


# -- the Seifert view -----------------------------------------------------------


def _shape(link: SeifertLink) -> Optional[tuple[int, int, int, int, int, int]]:
    """(p, q, k, w, e1, e2) of a link, as in the module docstring, read
    off its fields; None for a composite Hopf sum."""
    if isinstance(link, HopfSum):
        return (1, 1, 2, 2, 0, 0) if link.plus + link.minus == 1 else None
    if isinstance(link, ZeroCore):
        return link.p, link.q, link.k, link.w, 0, 0
    if isinstance(link, OneCore):
        return link.p, link.q, link.k, link.w, link.sign, 0
    return link.p, link.q, link.k, link.w, link.sign1, link.sign2


def _of_shape(p: int, q: int, k: int, w: int, e1: int, e2: int) -> SeifertLink:
    """The core presentation with this view, not yet normalized."""
    if e2:
        return TwoCore(p, q, k, w, e1, e2)
    if e1:
        return OneCore(p, q, k, w, e1)
    return ZeroCore(p, q, k, w)


# -- validation --------------------------------------------------------------


def _validate(link: SeifertLink) -> None:
    if isinstance(link, HopfSum):
        if link.plus < 0 or link.minus < 0:
            raise InvalidParameters("Hopf summand counts must be non-negative")
        if link.plus + link.minus < 1:
            raise InvalidParameters("a Hopf sum needs at least one summand")
        return
    p, q, k, w = link.p, link.q, link.k, link.w
    if p < 1 or q < 1:
        raise InvalidParameters("fibre multiplicities must be positive")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"multiplicities {p} and {q} are not coprime")
    if k < 1:
        raise InvalidParameters("at least one fibre copy is required")
    if abs(w) > k:
        raise InvalidParameters("|w| cannot exceed the number of copies")
    if (k - abs(w)) % 2 != 0:
        raise InvalidParameters("w must have the same parity as k")
    if isinstance(link, ZeroCore):
        if k == 1 and min(p, q) == 1:
            raise UnknotInput("L(1,q;1,1) is the unknot, which is excluded")
        return
    if isinstance(link, OneCore):
        if link.sign not in _SIGNS:
            raise InvalidParameters("core orientation sign must be +1 or -1")
        return
    if link.sign1 not in _SIGNS or link.sign2 not in _SIGNS:
        raise InvalidParameters("core orientation signs must be +1 or -1")
    if min(p, q) == 1:
        raise InvalidParameters(
            "a two-core presentation needs both multiplicities at least 2"
        )


# -- the normal form ----------------------------------------------------------
#
# One pass over the view of a valid raw link writes down its canonical view.
# Each step is an oriented isotopy, named beside it; the suite keeps the
# same moves as separate rewrite rules and checks that the pass agrees with
# their fixed point, in any order of the rules.


def _normal_form(link: SeifertLink) -> tuple[SeifertLink, Optional[tuple]]:
    """The canonical presentation of a valid `link` and its view: `link`
    itself when it is already canonical, else the one record of that
    view."""
    if isinstance(link, HopfSum):
        # Component reversal identifies the two Hopf chiralities, so only
        # the summand counts up to order matter.
        if link.minus > link.plus:
            link = HopfSum(link.minus, link.plus)
        return link, _shape(link)
    view = p, q, k, w, e1, e2 = _shape(link)
    if e1 and q == 1:
        # When q = 1 the first core is itself a regular fibre, so it joins
        # the parallel copies with its own orientation sign.
        k, w, e1 = k + 1, w + e1, 0
    if (p, q, k) == (1, 1, 2) or (p, k) == (1, 1):
        # Two-component unit-multiplicity presentations are the Hopf link:
        # two regular fibres of the (1, 1) fibration, or a regular fibre
        # beside a core when p = 1 (a single fibre with p = 1 and no core
        # is the unknot, which `_validate` rejects).
        return HopfSum(1, 0), (1, 1, 2, 2, 0, 0)
    if w < 0 or (w == 0 and e1 < 0):
        # Reversing every component at once is an isotopy of the link: it
        # negates w with every core sign.  With w = 0 it forces a leading
        # positive sign.
        w, e1, e2 = -w, -e1, -e2
    if e2 and e1 < e2:
        # Exchanging the two cores swaps p with q and the sign pair.
        p, q, e1, e2 = q, p, e2, e1
    if p > q and (e1 == e2 or (e2 and w == 0)):
        # The multiplicities play symmetric roles when no core, or a
        # like-oriented pair of cores, breaks the symmetry; a balanced
        # mixed pair is symmetric too, by the exchange composed with
        # reversal.
        p, q = q, p
    canonical = p, q, k, w, e1, e2
    if canonical == view:
        # Equal views imply the same record class.
        return link, view
    return _of_shape(*canonical), canonical


def normalize(link: SeifertLink) -> SeifertLink:
    """Validate `link` and return the canonical representative.

    Raises NotCoprime, InvalidParameters, or UnknotInput when the
    parameters do not denote a link of the class.  Idempotent and total on
    valid input; `link` itself comes back when its view is already
    canonical.  It flags its result and stores the result's view of
    `_shape` beside the flag, and returns a flagged link at once.
    """
    if link._canonical:
        return link
    _validate(link)
    link, view = _normal_form(link)
    object.__setattr__(link, "_view", view)
    object.__setattr__(link, "_canonical", True)
    return link


def is_canonical(link: SeifertLink) -> bool:
    """True when `link` is already in the unique normal form: it is valid
    and the normal-form pass hands it back unchanged."""
    try:
        _validate(link)
    except LinkInputError:
        return False
    return _normal_form(link)[0] is link


# -- rendering ----------------------------------------------------------------


def render(link: SeifertLink) -> str:
    """The notation string that parses back to a valid `link`: a core
    link is written off its `_shape`, a sign after `;` for the core at q
    and after `,` for the core at p."""
    if isinstance(link, HopfSum):
        if link.minus == 0:
            return f"#{link.plus} H+"
        return f"#{link.plus} H+ # {link.minus} H-"
    p, q, k, w, e1, e2 = _shape(link)
    cores = "".join(
        mark + ("+" if e > 0 else "-") for mark, e in ((";", e1), (",", e2)) if e
    )
    return f"L({p},{q};{k},{w}{cores})"


# -- aliases ------------------------------------------------------------------


class LinkAlias(Record):
    """A conventional name for a catalogued link: a torus link T(a,b) or a
    pretzel link P(-2,b,c), with one or two primes for a reorientation."""

    name: str


def alias(link: SeifertLink) -> Optional[LinkAlias]:
    """The catalogued torus/pretzel name of `link`, if it has one, read
    off its view."""
    view = normalize(link)._view
    if view is None or view[5]:  # a composite Hopf sum, or two cores
        return None
    p, q, k, w, e, _ = view
    if not e:
        if w == k:
            return LinkAlias(f"T({k * p},{k * q})")
        if (p, k, w) == (1, 2, 0):
            return LinkAlias(f"T(2,{2 * q})'")
        return LinkAlias("P(-2,2,2)'") if view[:4] == (1, 1, 3, 1) else None
    prime = "'" if e < 0 else ""
    if (p, k, w) == (2, 1, 1):
        return LinkAlias(f"P(-2,2,{q}){prime}")
    if (p, k, w) == (1, 2, 2):
        return LinkAlias(f"P(-2,2,{2 * q}){2 * prime}")
    if (p, k, w) == (1, 2, 0):
        return LinkAlias(f"P(-2,2,{2 * q})'")
    if (p, q, k, w) == (3, 2, 1, 1):
        return LinkAlias(f"P(-2,3,4){prime}")
    return None


_ALIAS_SHAPE = re.compile(r"^([TP])\(([-0-9,]+)\)('{0,2})$")


def alias_to_link(name: str) -> SeifertLink:
    """Resolve a torus/pretzel alias to its canonical link.

    Raises UnknownAlias when the name matches no catalogued link.
    """
    return normalize(_alias_to_raw_link(name))


def _alias_to_raw_link(name: str) -> SeifertLink:
    compact = "".join(name.split())
    match = _ALIAS_SHAPE.match(compact)
    if not match:
        raise UnknownAlias(f"not a recognized link name: {name!r}")
    base, arg_text, primes_text = match.groups()
    try:
        args = tuple(int(piece) for piece in arg_text.split(","))
    except ValueError:
        raise UnknownAlias(f"malformed alias arguments in {name!r}") from None
    primes = len(primes_text)
    resolved = _resolve_alias(base, args, primes)
    if resolved is None:
        raise UnknownAlias(f"no catalogued link is named {compact!r}")
    return resolved


def _resolve_alias(
    base: str, args: tuple[int, ...], primes: int
) -> Optional[SeifertLink]:
    if base == "T" and len(args) == 2:
        a, b = sorted(args)
        if primes == 0:
            if a < 1 or b < 2:
                return None
            g = math.gcd(a, b)
            return ZeroCore(a // g, b // g, g, g)
        if primes == 1 and a == 2 and b >= 2 and b % 2 == 0:
            return ZeroCore(1, b // 2, 2, 0)
        return None
    if base == "P" and len(args) == 3 and args[0] == -2:
        _, b, c = args
        if b == 2 and c >= 2:
            if c % 2 == 0:
                half = c // 2
                if primes == 0:
                    return OneCore(1, half, 2, 2, 1)
                if primes == 1:
                    return OneCore(1, half, 2, 0, 1)
                return OneCore(1, half, 2, 2, -1)
            if primes == 0:
                return OneCore(2, c, 1, 1, 1)
            if primes == 1:
                return OneCore(2, c, 1, 1, -1)
            return None
        if (b, c) == (3, 3) and primes == 0:
            return ZeroCore(3, 4, 1, 1)
        if (b, c) == (3, 4):
            if primes == 0:
                return OneCore(3, 2, 1, 1, 1)
            if primes == 1:
                return OneCore(3, 2, 1, 1, -1)
            return None
        if (b, c) == (3, 5) and primes == 0:
            return ZeroCore(3, 5, 1, 1)
    return None


# -- reorientation -------------------------------------------------------------


def reorient_to_P(link: SeifertLink) -> SeifertLink:
    """Reorient every component positively (the braid-positive form).

    The result is the canonical form of the same underlying unoriented
    link with w = k and positive core signs.
    """
    link = normalize(link)
    if isinstance(link, HopfSum):
        fresh = HopfSum(link.plus + link.minus, 0)
    else:
        p, q, k, _, e1, e2 = link._view
        fresh = _of_shape(p, q, k, k, abs(e1), abs(e2))
    # A canonical link that is already positive is its own reorientation.
    return link if fresh == link else normalize(fresh)


def _reorientations(link: SeifertLink) -> tuple[SeifertLink, ...]:
    """Every orientation of the components of a prime `link`, each
    normalized once, without repeats, ordered by view: w ascending, then a
    positive core before a negative one, then p and q."""
    p, q, k, _, e1, e2 = normalize(link)._view
    # Reversing every component is an isotopy, so the first core keeps
    # its sign while the copies and the second core take every sign.
    found = {
        normalize(_of_shape(p, q, k, w, e1, c2))
        for w in range(-k, k + 1, 2)
        for c2 in {e2, -e2}
    }
    return tuple(sorted(found, key=_orientation_order))


def _orientation_order(link: SeifertLink) -> tuple[int, ...]:
    p, q, _, w, e1, e2 = link._view
    return w, -e1, -e2, p, q
