"""Normalization, validation, rendering, and the alias catalog."""

from __future__ import annotations

import json
import random
from itertools import product

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
from seifertlinks._record import replace
from seifertlinks.cli import _encode
from seifertlinks.link_model import _REWRITE_RULES

from conftest import raw_links


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


# -- normalization is total, idempotent, and confluent --------------------------


def reference_is_canonical(link) -> bool:
    """The normal form written out case by case, independently of the
    rewrite rules that `is_canonical` is derived from."""
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
    # Apply the rewrite rules in a random order until no rule fires; any
    # order must reach the same canonical form.
    rules = list(_REWRITE_RULES)
    current = raw
    while True:
        rng.shuffle(rules)
        for rule in rules:
            replaced = rule(current)
            if replaced is not None:
                current = replaced
                break
        else:
            break
    assert current == normalize(raw)


@settings(max_examples=300)
@given(raw_links())
def test_normalize_preserves_component_count(raw):
    assert components(normalize(raw)) == components(raw)


def _total_linking_number(link):
    # Sum of all pairwise linking numbers, straight from the fibration:
    # two fibre copies link pq times, a copy links the q-side core p
    # times and the p-side core q times, and the two cores link once.
    p, q, k, w = link.p, link.q, link.k, link.w
    total = p * q * (w * w - k) // 2
    if isinstance(link, OneCore):
        total += p * link.sign * w
    if isinstance(link, TwoCore):
        total += p * link.sign1 * w + q * link.sign2 * w
        total += link.sign1 * link.sign2
    return total


@settings(max_examples=300)
@given(raw_links())
def test_normalize_preserves_total_linking_number(raw):
    # An oriented-isotopy invariant computed without normalizing, so it
    # cross-checks every rewrite rule at once.  The Hopf identifications
    # are excluded: they equate the two chiralities on purpose.
    canonical = normalize(raw)
    if isinstance(raw, HopfSum) or isinstance(canonical, HopfSum):
        return
    assert _total_linking_number(canonical) == _total_linking_number(raw)


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
