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
rewrites any valid tuple to the unique canonical representative and flags
it, and a flagged link passes through it again in O(1).  Every public
function of the package starts with `link = normalize(link)`, so a link
is validated and rewritten once, where it enters, and the inner calls on
it cost one flag test each.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Optional, Union

from ._record import Record, replace
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
    """Connected sum of `plus` positive and `minus` negative Hopf links."""

    plus: int
    minus: int
    _canonical = False  # set only by `normalize`; not a field


class ZeroCore(Record):
    """k parallel fibre copies, no exceptional cores: L(p,q;k,w)."""

    p: int
    q: int
    k: int
    w: int
    _canonical = False


class OneCore(Record):
    """k fibre copies plus the first core: L(p,q;k,w;sign)."""

    p: int
    q: int
    k: int
    w: int
    sign: int
    _canonical = False


class TwoCore(Record):
    """k fibre copies plus both cores: L(p,q;k,w;sign1,sign2)."""

    p: int
    q: int
    k: int
    w: int
    sign1: int
    sign2: int
    _canonical = False


SeifertLink = Union[HopfSum, ZeroCore, OneCore, TwoCore]

_SIGNS = (1, -1)


def components(link: SeifertLink) -> int:
    """Number of components of the underlying link."""
    if isinstance(link, HopfSum):
        return link.plus + link.minus + 1
    if isinstance(link, ZeroCore):
        return link.k
    if isinstance(link, OneCore):
        return link.k + 1
    return link.k + 2


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


# -- rewriting to normal form -------------------------------------------------
#
# Each rule either returns a strictly simpler presentation of the same
# oriented link or None.  `normalize` applies them to a fixed point; the
# randomized-order confluence test in the suite relies on every rule being
# sound on its own, not on the order used here.


def _rule_hopf_order(link: SeifertLink) -> Optional[SeifertLink]:
    # Component reversal identifies the two Hopf chiralities, so only the
    # summand counts up to order matter.
    if isinstance(link, HopfSum) and link.minus > link.plus:
        return HopfSum(link.minus, link.plus)
    return None


def _rule_negative_w(link: SeifertLink) -> Optional[SeifertLink]:
    # Reversing every component at once is an isotopy of the link, and it
    # negates w together with every core sign.
    if isinstance(link, ZeroCore) and link.w < 0:
        return replace(link, w=-link.w)
    if isinstance(link, OneCore) and link.w < 0:
        return replace(link, w=-link.w, sign=-link.sign)
    if isinstance(link, TwoCore) and link.w < 0:
        return replace(
            link, w=-link.w, sign1=-link.sign1, sign2=-link.sign2
        )
    return None


def _rule_absorb_unit_core(link: SeifertLink) -> Optional[SeifertLink]:
    # When q = 1 the first core is itself a regular fibre, so it joins the
    # parallel copies with its own orientation sign.
    if isinstance(link, OneCore) and link.q == 1:
        return ZeroCore(link.p, 1, link.k + 1, link.w + link.sign)
    return None


def _rule_hopf_forms(link: SeifertLink) -> Optional[SeifertLink]:
    # Two-component unit-multiplicity presentations are the Hopf link.
    if isinstance(link, ZeroCore) and (link.p, link.q, link.k) == (1, 1, 2):
        return HopfSum(1, 0)
    if isinstance(link, OneCore) and link.p == 1 and link.k == 1:
        return HopfSum(1, 0)
    return None


def _rule_swap_multiplicities(link: SeifertLink) -> Optional[SeifertLink]:
    # The two fibre multiplicities play symmetric roles when no core (or a
    # like-oriented pair of cores) breaks the symmetry.
    if isinstance(link, ZeroCore) and link.p > link.q:
        return ZeroCore(link.q, link.p, link.k, link.w)
    if (
        isinstance(link, TwoCore)
        and link.sign1 == link.sign2
        and link.p > link.q
    ):
        return TwoCore(link.q, link.p, link.k, link.w, link.sign1, link.sign2)
    return None


def _rule_two_core_sign_order(link: SeifertLink) -> Optional[SeifertLink]:
    # Exchanging the two cores swaps p with q and the sign pair.
    if isinstance(link, TwoCore) and (link.sign1, link.sign2) == (-1, 1):
        return TwoCore(link.q, link.p, link.k, link.w, 1, -1)
    return None


def _rule_balanced_signs(link: SeifertLink) -> Optional[SeifertLink]:
    # With w = 0 the link is reversal-symmetric, which flips every core
    # sign; use that to force a leading positive sign.
    if isinstance(link, OneCore) and link.w == 0 and link.sign == -1:
        return replace(link, sign=1)
    if isinstance(link, TwoCore) and link.w == 0 and link.sign1 == -1:
        return replace(link, sign1=-link.sign1, sign2=-link.sign2)
    return None


def _rule_balanced_mixed_swap(link: SeifertLink) -> Optional[SeifertLink]:
    # Composing reversal with the core exchange shows that a balanced
    # mixed-sign pair also has symmetric multiplicities.
    if (
        isinstance(link, TwoCore)
        and link.w == 0
        and (link.sign1, link.sign2) == (1, -1)
        and link.p > link.q
    ):
        return TwoCore(link.q, link.p, link.k, 0, 1, -1)
    return None


_REWRITE_RULES: tuple[Callable[[SeifertLink], Optional[SeifertLink]], ...] = (
    _rule_hopf_order,
    _rule_negative_w,
    _rule_absorb_unit_core,
    _rule_hopf_forms,
    _rule_swap_multiplicities,
    _rule_two_core_sign_order,
    _rule_balanced_signs,
    _rule_balanced_mixed_swap,
)


def normalize(link: SeifertLink) -> SeifertLink:
    """Validate `link` and rewrite it to the canonical representative.

    Raises NotCoprime, InvalidParameters, or UnknotInput when the
    parameters do not denote a link of the class.  Idempotent and total on
    valid input.  It flags its result, and returns a flagged link at once.
    """
    if link._canonical:
        return link
    _validate(link)
    current = link
    changed = True
    while changed:
        changed = False
        for rule in _REWRITE_RULES:
            result = rule(current)
            if result is not None:
                current = result
                changed = True
                break
    object.__setattr__(current, "_canonical", True)
    return current


def is_canonical(link: SeifertLink) -> bool:
    """True when `link` is already in the unique normal form: it is valid
    and no rewrite rule applies to it."""
    try:
        _validate(link)
    except LinkInputError:
        return False
    return all(rule(link) is None for rule in _REWRITE_RULES)


# -- rendering ----------------------------------------------------------------


def _sign_char(sign: int) -> str:
    return "+" if sign > 0 else "-"


def render(link: SeifertLink) -> str:
    """The notation string that parses back to `link`."""
    if isinstance(link, HopfSum):
        if link.minus == 0:
            return f"#{link.plus} H+"
        return f"#{link.plus} H+ # {link.minus} H-"
    if isinstance(link, ZeroCore):
        return f"L({link.p},{link.q};{link.k},{link.w})"
    if isinstance(link, OneCore):
        return (
            f"L({link.p},{link.q};{link.k},{link.w};{_sign_char(link.sign)})"
        )
    return (
        f"L({link.p},{link.q};{link.k},{link.w};"
        f"{_sign_char(link.sign1)},{_sign_char(link.sign2)})"
    )


# -- aliases ------------------------------------------------------------------


class LinkAlias(Record):
    """A conventional name for a catalogued link: a torus link T(a,b) or a
    pretzel link P(-2,b,c), with one or two primes for a reorientation."""

    name: str


def alias(link: SeifertLink) -> Optional[LinkAlias]:
    """The catalogued torus/pretzel name of `link`, if it has one."""
    link = normalize(link)
    if isinstance(link, HopfSum):
        if (link.plus, link.minus) == (1, 0):
            return LinkAlias("T(2,2)")
        return None
    if isinstance(link, ZeroCore):
        if link.w == link.k:
            a, b = link.k * link.p, link.k * link.q
            return LinkAlias(f"T({a},{b})")
        if (link.p, link.k, link.w) == (1, 2, 0):
            return LinkAlias(f"T(2,{2 * link.q})'")
        if (link.p, link.q, link.k, link.w) == (1, 1, 3, 1):
            return LinkAlias("P(-2,2,2)'")
        return None
    if isinstance(link, OneCore):
        p, q, k, w, sign = link.p, link.q, link.k, link.w, link.sign
        if (p, k, w) == (2, 1, 1):
            if sign > 0:
                return LinkAlias(f"P(-2,2,{q})")
            return LinkAlias(f"P(-2,2,{q})'")
        if (p, k) == (1, 2) and w == 2:
            if sign > 0:
                return LinkAlias(f"P(-2,2,{2 * q})")
            return LinkAlias(f"P(-2,2,{2 * q})''")
        if (p, k, w) == (1, 2, 0):
            return LinkAlias(f"P(-2,2,{2 * q})'")
        if (p, q, k, w) == (3, 2, 1, 1):
            if sign > 0:
                return LinkAlias("P(-2,3,4)")
            return LinkAlias("P(-2,3,4)'")
        return None
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
            if a < 1 or b < 2 or (a, b) == (1, 1):
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
    elif isinstance(link, ZeroCore):
        fresh = ZeroCore(link.p, link.q, link.k, link.k)
    elif isinstance(link, OneCore):
        fresh = OneCore(link.p, link.q, link.k, link.k, 1)
    else:
        fresh = TwoCore(link.p, link.q, link.k, link.k, 1, 1)
    # A canonical link that is already positive is its own reorientation.
    return link if fresh == link else normalize(fresh)
