"""Normalization, validation, rendering, and the alias catalog."""

from __future__ import annotations

import json
import random
from itertools import product
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifertlinks import (
    HopfSum,
    InvalidParameters,
    LinkInputError,
    NotCoprime,
    OneCore,
    TwoCore,
    UnknotInput,
    UnknownAlias,
    ZeroCore,
    alias,
    alias_to_link,
    components,
    is_canonical,
    normalize,
    render,
    reorient_to_P,
)
from seifertlinks import link_model
from seifertlinks._record import Record, replace
from seifertlinks.cli import _encode
from seifertlinks.link_model import SeifertLink, _of_shape, _shape

from conftest import raw_core_links, raw_links
from reference_alexander import reference_delta


# -- worked normalization examples ---------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        (OneCore(3, 1, 2, 2, 1), ZeroCore(1, 3, 3, 3)),
        (ZeroCore(5, 3, 1, 1), ZeroCore(3, 5, 1, 1)),
        (OneCore(2, 1, 1, 1, -1), ZeroCore(1, 2, 2, 0)),
        (OneCore(1, 1, 2, 2, -1), ZeroCore(1, 1, 3, 1)),
        (OneCore(4, 7, 3, -1, -1), OneCore(4, 7, 3, 1, 1)),
        (OneCore(2, 1, 1, -1, 1), ZeroCore(1, 2, 2, 0)),
        (TwoCore(2, 3, 2, -2, -1, 1), TwoCore(2, 3, 2, 2, 1, -1)),
        (ZeroCore(1, 1, 2, 0), HopfSum(1, 0)),
        (ZeroCore(1, 1, 2, 2), HopfSum(1, 0)),
        (OneCore(1, 5, 1, 1, 1), HopfSum(1, 0)),
        (HopfSum(1, 3), HopfSum(3, 1)),
        (TwoCore(5, 2, 2, 2, -1, 1), TwoCore(2, 5, 2, 2, 1, -1)),
        (TwoCore(3, 2, 2, 0, -1, -1), TwoCore(2, 3, 2, 0, 1, 1)),
        (OneCore(2, 3, 2, 0, -1), OneCore(2, 3, 2, 0, 1)),
        (TwoCore(3, 2, 2, 0, 1, -1), TwoCore(2, 3, 2, 0, 1, -1)),
    ],
)
def test_normalize_worked_examples(raw, expected):
    assert normalize(raw) == expected


# -- validation ----------------------------------------------------------------


def test_rejects_non_coprime_multiplicities():
    with pytest.raises(NotCoprime):
        normalize(ZeroCore(4, 6, 1, 1))


def test_rejects_bad_parameter_ranges():
    with pytest.raises(InvalidParameters):
        normalize(ZeroCore(0, 1, 2, 0))
    with pytest.raises(InvalidParameters):
        normalize(ZeroCore(2, 3, 0, 0))
    with pytest.raises(InvalidParameters):
        normalize(ZeroCore(2, 3, 2, 4))
    with pytest.raises(InvalidParameters):
        normalize(ZeroCore(2, 3, 2, 1))
    with pytest.raises(InvalidParameters):
        normalize(OneCore(2, 3, 1, 1, 2))
    with pytest.raises(InvalidParameters):
        normalize(HopfSum(0, 0))
    with pytest.raises(InvalidParameters):
        normalize(HopfSum(-1, 2))


def test_rejects_two_core_with_unit_multiplicity():
    with pytest.raises(InvalidParameters):
        normalize(TwoCore(1, 3, 1, 1, 1, 1))


def test_rejects_unknot_presentations():
    with pytest.raises(UnknotInput):
        normalize(ZeroCore(1, 5, 1, 1))
    with pytest.raises(UnknotInput):
        normalize(ZeroCore(1, 1, 1, -1))


# -- the canonical flag ---------------------------------------------------------
#
# `normalize` flags the link it returns and hands a flagged link straight
# back.  The flag is not a field: it must not show in any comparison or
# output, and only `normalize` may set it.


@settings(max_examples=300)
@given(raw_links())
def test_normalize_returns_its_own_result_unchanged(raw):
    once = normalize(raw)
    assert once._canonical
    assert normalize(once) is once


@pytest.mark.parametrize(
    "link", [HopfSum(2, 1), ZeroCore(2, 3, 1, 1), OneCore(2, 3, 2, 0, 1),
             TwoCore(2, 3, 2, 2, 1, -1)],
)
def test_flag_is_invisible(link):
    flagged = normalize(link)
    twin = type(link)(*flagged._values(flagged))
    assert flagged._canonical and not twin._canonical
    assert flagged == twin and twin == flagged
    assert hash(flagged) == hash(twin)
    assert repr(flagged) == repr(twin)
    assert json.dumps(flagged, default=_encode) == json.dumps(
        twin, default=_encode
    )


def test_replace_gives_an_unflagged_link():
    flagged = normalize(ZeroCore(2, 3, 2, 2))
    changed = replace(flagged, w=-2)
    assert not changed._canonical
    assert normalize(changed) == flagged
    assert not replace(flagged)._canonical


def test_flag_belongs_to_the_instance_not_the_value():
    assert normalize(ZeroCore(2, 3, 1, 1))._canonical
    raw = ZeroCore(3, 2, 1, -1)
    assert not raw._canonical
    assert normalize(raw) == ZeroCore(2, 3, 1, 1)
    assert not raw._canonical


@pytest.mark.parametrize(
    "raw",
    [ZeroCore(4, 6, 1, 1), ZeroCore(2, 3, 2, 1), HopfSum(0, 0),
     TwoCore(1, 3, 1, 1, 1, 1), ZeroCore(1, 5, 1, 1)],
)
def test_invalid_input_raises_every_time_and_is_never_flagged(raw):
    for _ in range(2):
        with pytest.raises(LinkInputError):
            normalize(raw)
    assert not raw._canonical


# -- the reference: the normal form as eight rewrite rules ---------------------
#
# Each rule either returns a strictly simpler presentation of the same
# oriented link or None.  Applied to a fixed point, in any order, they reach
# the canonical form that `normalize` writes down in one pass; the tests
# below check that on random orders and on every valid tuple of a box.


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


def rules_fixed_point(link, rng=None):
    """Apply the rewrite rules until none fires, in a fresh random order
    each round when `rng` is given."""
    rules = list(_REWRITE_RULES)
    while True:
        if rng is not None:
            rng.shuffle(rules)
        for rule in rules:
            replaced = rule(link)
            if replaced is not None:
                link = replaced
                break
        else:
            return link


# -- normalization is total, idempotent, and confluent --------------------------


def reference_is_canonical(link) -> bool:
    """The normal form written out case by case, independently of both
    the rewrite rules and the pass of `is_canonical`."""
    try:
        normalize(link)
    except LinkInputError:
        return False
    if isinstance(link, HopfSum):
        return link.plus >= link.minus
    if link.w < 0:
        return False
    if isinstance(link, ZeroCore):
        if (link.p, link.q, link.k) == (1, 1, 2):
            return False
        return link.p <= link.q
    if isinstance(link, OneCore):
        if link.q == 1 or (link.p == 1 and link.k == 1):
            return False
        return not (link.w == 0 and link.sign == -1)
    if (link.sign1, link.sign2) == (-1, 1):
        return False
    if link.sign1 == link.sign2 and link.p > link.q:
        return False
    if link.w == 0:
        if link.sign1 == -1:
            return False
        if (link.sign1, link.sign2) == (1, -1) and link.p > link.q:
            return False
    return True


def dense_box():
    """Every parameter tuple in a small box, valid or not."""
    signs = (1, -1, 0)
    for a, b in product(range(-1, 4), repeat=2):
        yield HopfSum(a, b)
    for p, q, k, w in product(range(0, 6), range(0, 6), range(0, 5), range(-5, 6)):
        yield ZeroCore(p, q, k, w)
        for s1 in signs:
            yield OneCore(p, q, k, w, s1)
            for s2 in signs:
                yield TwoCore(p, q, k, w, s1, s2)


def test_is_canonical_matches_reference_on_dense_box(grid):
    links = list(dense_box()) + list(grid)
    disagree = [
        link
        for link in links
        if is_canonical(link) != reference_is_canonical(link)
    ]
    assert not disagree, disagree[:5]
    assert any(is_canonical(link) for link in dense_box())


@settings(max_examples=300)
@given(raw_links())
def test_is_canonical_matches_reference_on_raw_links(raw):
    assert is_canonical(raw) == reference_is_canonical(raw)
    canonical = normalize(raw)
    assert is_canonical(canonical) and reference_is_canonical(canonical)


def test_grid_links_are_canonical(grid):
    for link in grid:
        assert is_canonical(link)
        assert normalize(link) == link


@settings(max_examples=300)
@given(raw_links())
def test_normalize_total_and_idempotent(raw):
    link = normalize(raw)
    assert is_canonical(link)
    assert normalize(link) == link


@settings(max_examples=300)
@given(raw_links(), st.randoms(use_true_random=False))
def test_rewrite_order_does_not_matter(raw, rng):
    # Any order of the rules reaches the form that `normalize` writes down.
    assert rules_fixed_point(raw, rng) == normalize(raw)


def test_rules_reach_normalize_on_dense_box():
    valid = 0
    for raw in dense_box():
        try:
            canonical = normalize(raw)
        except LinkInputError:
            continue
        valid += 1
        assert rules_fixed_point(raw) == canonical, raw
    assert valid == 1355


def test_normalize_returns_a_canonical_input_itself_and_builds_nothing(
    grid, monkeypatch
):
    # The fast path: an unflagged copy of a canonical link comes back as
    # the same object, with no record built on the way.
    copies = [replace(link) for link in grid]
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(args)
        Record.__init__(self, *args, **kwargs)

    def counting_of_shape(*view):
        built.append(view)
        return _of_shape(*view)

    for cls in (HopfSum, ZeroCore, OneCore, TwoCore):
        monkeypatch.setattr(cls, "__init__", counting_init)
    monkeypatch.setattr(link_model, "_of_shape", counting_of_shape)
    assert all(normalize(copy) is copy for copy in copies)
    assert not built, built[:5]
    assert normalize(ZeroCore(3, 2, 1, 1)) == ZeroCore(2, 3, 1, 1)
    assert built, "the counters saw no record being built"


def _presented_components(link):
    # Read off the presentation itself: `components` normalizes first.
    if isinstance(link, HopfSum):
        return link.plus + link.minus + 1
    return link.k + isinstance(link, OneCore) + 2 * isinstance(link, TwoCore)


@settings(max_examples=300)
@given(raw_links())
def test_normalize_preserves_component_count(raw):
    assert components(raw) == _presented_components(raw)
    assert _presented_components(normalize(raw)) == _presented_components(raw)


@pytest.mark.parametrize(
    "raw",
    [HopfSum(-3, 0), ZeroCore(2, 3, 0, 0), ZeroCore(1, 3, 1, 1),
     ZeroCore(2, 4, 1, 1)],
)
def test_components_rejects_invalid_input(raw):
    with pytest.raises(LinkInputError):
        components(raw)


# -- the Seifert view -------------------------------------------------------------


def test_view_round_trips_on_the_grid(grid):
    cores = [link for link in grid if not isinstance(link, HopfSum)]
    assert len(cores) > 1000
    for link in cores + [HopfSum(1, 0)]:
        assert normalize(_of_shape(*_shape(link))) == link


def test_normalize_stores_the_view(grid):
    for link in grid:
        assert normalize(link)._view == _shape(link)
    assert normalize(HopfSum(0, 1))._view == (1, 1, 2, 2, 0, 0)
    assert normalize(HopfSum(2, 1))._view is None
    assert normalize(TwoCore(5, 2, 1, 1, -1, 1))._view == (2, 5, 1, 1, 1, -1)


# -- an invariant key ----------------------------------------------------------
#
# Oriented-isotopy invariants read off a presentation without normalizing
# it, so they check `normalize` independently of both normal-form codes.
# The linking numbers come straight from the fibration: two fibre copies
# link pq times, a copy links the q-side core p times and the p-side core
# q times, and the two cores link once; a Hopf sum is the keychain, whose
# ring links each key once with the summand's sign.  A fibre copy is the
# torus knot T(p, q) and every other component an unknot, written (1, 1).
# Source: Burde and Murasugi, Duke Math. J. 1970.


def _knots_and_linking(link):
    """(knot types, linking signature): the sorted knot types of the
    components, and the sorted list of each component's sorted linking
    numbers with the others."""
    if isinstance(link, HopfSum):
        signs = [1] * link.plus + [-1] * link.minus
        rows = [signs] + [[sign] + [0] * (len(signs) - 1) for sign in signs]
        knots = [(1, 1)] * len(rows)
    else:
        p, q, k, w = link.p, link.q, link.k, link.w
        e1 = e2 = 0
        if isinstance(link, OneCore):
            e1 = link.sign
        elif isinstance(link, TwoCore):
            e1, e2 = link.sign1, link.sign2
        times = {("copy", "copy"): p * q, ("copy", "q"): p, ("copy", "p"): q,
                 ("p", "q"): 1}
        parts = [("copy", 1)] * ((k + w) // 2) + [("copy", -1)] * ((k - w) // 2)
        parts += [("q", e1)] * abs(e1) + [("p", e2)] * abs(e2)
        rows = [
            [
                times[min(a, b), max(a, b)] * sign_a * sign_b
                for j, (b, sign_b) in enumerate(parts)
                if j != i
            ]
            for i, (a, sign_a) in enumerate(parts)
        ]
        fibre = (min(p, q), max(p, q)) if min(p, q) > 1 else (1, 1)
        knots = [fibre] * k + [(1, 1)] * (abs(e1) + abs(e2))
    return tuple(sorted(knots)), tuple(sorted(tuple(sorted(row)) for row in rows))


# The raw Hopf links of linking number -1 in `raw_core_links(7, 6)`:
# `normalize` identifies each Hopf sum with its mirror image, as the
# `HopfSum` docstring says, so these alone change their linking signature.
_MIRRORED_HOPF_LINKS = {ZeroCore(1, 1, 2, 0), OneCore(1, 1, 1, 1, -1)} | {
    OneCore(1, q, 1, 1, -1) for q in range(2, 8)
}


def test_normalize_preserves_linking_signature():
    moved = {
        raw
        for raw in raw_core_links(7, 6)
        if _knots_and_linking(normalize(raw)) != _knots_and_linking(raw)
    }
    assert moved == _MIRRORED_HOPF_LINKS
    assert all(normalize(raw) == HopfSum(1, 0) for raw in moved)


def test_invariant_key_separates_the_grid(grid):
    # Components, Alexander polynomial, knot types and linking signature
    # tell every two canonical grid links apart: no two canonical tuples
    # name the same link.
    keys = {}
    for link in grid:
        knots, linking = _knots_and_linking(link)
        key = (len(knots), reference_delta(link), knots, linking)
        keys.setdefault(key, []).append(link)
    collisions = [links for links in keys.values() if len(links) > 1]
    assert len(grid) == 1636
    assert not collisions, collisions[:5]


# -- rendering -----------------------------------------------------------------


def test_render_forms():
    assert render(ZeroCore(2, 3, 1, 1)) == "L(2,3;1,1)"
    assert render(OneCore(3, 2, 1, 1, -1)) == "L(3,2;1,1;-)"
    assert render(TwoCore(2, 5, 2, 0, 1, -1)) == "L(2,5;2,0;+,-)"
    assert render(HopfSum(1, 0)) == "#1 H+"
    assert render(HopfSum(2, 1)) == "#2 H+ # 1 H-"


# -- the alias catalog ----------------------------------------------------------


@pytest.mark.parametrize(
    "link, name",
    [
        (HopfSum(1, 0), "T(2,2)"),
        (ZeroCore(2, 3, 1, 1), "T(2,3)"),
        (ZeroCore(2, 3, 2, 2), "T(4,6)"),
        (ZeroCore(1, 1, 3, 3), "T(3,3)"),
        (ZeroCore(1, 3, 2, 0), "T(2,6)'"),
        (ZeroCore(1, 1, 3, 1), "P(-2,2,2)'"),
        (OneCore(2, 5, 1, 1, 1), "P(-2,2,5)"),
        (OneCore(1, 3, 2, 2, 1), "P(-2,2,6)"),
        (OneCore(3, 2, 1, 1, 1), "P(-2,3,4)"),
        (OneCore(1, 3, 2, 0, 1), "P(-2,2,6)'"),
        (OneCore(2, 5, 1, 1, -1), "P(-2,2,5)'"),
        (OneCore(1, 3, 2, 2, -1), "P(-2,2,6)''"),
        (OneCore(3, 2, 1, 1, -1), "P(-2,3,4)'"),
    ],
)
def test_alias_names(link, name):
    found = alias(link)
    assert found is not None and found.name == name
    assert alias_to_link(name) == link


def test_alias_round_trip_over_grid(grid):
    named = 0
    for link in grid:
        found = alias(link)
        if found is None:
            continue
        named += 1
        assert alias_to_link(found.name) == link
    assert named > 40


def test_extra_alias_spellings_resolve():
    assert alias_to_link("P(-2,2,2)") == normalize(ZeroCore(1, 1, 3, 3))
    assert alias_to_link("P(-2,3,3)") == alias_to_link("T(3,4)")
    assert alias_to_link("P(-2,3,5)") == alias_to_link("T(3,5)")
    assert alias_to_link("P(-2,2,2)''") == ZeroCore(1, 1, 3, 1)
    assert alias_to_link("T(3, 2)") == ZeroCore(2, 3, 1, 1)


def test_alias_rejects_unknown_names():
    for name in ("T(1,1)", "T(2,3)''", "P(-3,3,4)", "P(-2,3,4)''", "W(2,3)"):
        with pytest.raises(UnknownAlias):
            alias_to_link(name)


def test_alias_unknot_is_reported_as_unknot():
    with pytest.raises(UnknotInput):
        alias_to_link("T(1,5)")


def test_unnamed_links_have_no_alias(grid):
    assert alias(ZeroCore(2, 3, 2, 0)) is None
    assert alias(TwoCore(2, 3, 1, 1, 1, 1)) is None


# -- reorientation into the positive catalog ------------------------------------


def test_reorient_to_P_examples():
    assert reorient_to_P(ZeroCore(1, 3, 2, 0)) == ZeroCore(1, 3, 2, 2)
    assert reorient_to_P(OneCore(3, 2, 1, 1, -1)) == OneCore(3, 2, 1, 1, 1)
    assert reorient_to_P(ZeroCore(2, 3, 1, 1)) == ZeroCore(2, 3, 1, 1)
    assert reorient_to_P(HopfSum(1, 0)) == HopfSum(1, 0)
