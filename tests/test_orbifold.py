"""Base orbifolds of cyclic branched covers and finiteness of their
fundamental groups."""

from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import cyclic_cover_h1_order
from reference_alexander import reference_delta
from seifertlinks import (
    BinaryDihedral,
    BinaryIcosahedral,
    BinaryOctahedral,
    BinaryTetrahedral,
    ConeOrbifold,
    Cyclic,
    FiniteUnidentified,
    HopfSum,
    InvalidParameters,
    InvariantViolation,
    NotPrime,
    OneCore,
    PositiveBetti,
    TwoCore,
    ZeroCore,
    b_bar,
    canonical_star_status,
    cyclotomic_divides,
    determinant,
    fibre_data,
    finite_group,
    is_ade_up_to_orientation,
    is_prime,
    normalize,
    reorient_to_P,
)
from seifertlinks.classify import _spherical_base


# -- cone orbifolds ---------------------------------------------------------------


def test_cone_orders_are_sorted_and_trivial_cones_dropped():
    orbifold = ConeOrbifold.build([2, 5, 1, 3, 1])
    assert orbifold.cone_orders == (2, 3, 5)
    assert str(orbifold) == "S2(2,3,5)"
    assert str(ConeOrbifold.build([])) == "S2"


def test_cone_orders_must_be_positive():
    with pytest.raises(InvalidParameters):
        ConeOrbifold.build([0, 3])
    # A generator is validated before the trivial cones are dropped.
    with pytest.raises(InvalidParameters):
        ConeOrbifold.build(x for x in [0, 3])


def test_chi_values():
    assert ConeOrbifold.build([2, 3, 5]).chi == Fraction(1, 30)
    assert ConeOrbifold.build([2, 3, 6]).chi == Fraction(0)
    assert ConeOrbifold.build([3, 3, 3]).chi == Fraction(0)
    assert ConeOrbifold.build([2, 2, 2, 2]).chi == Fraction(0)
    assert ConeOrbifold.build([3, 3, 3, 3]).chi == Fraction(-2, 3)
    assert ConeOrbifold.build([7, 7, 14]).chi == Fraction(-9, 14)
    assert ConeOrbifold.build([4, 4]).chi == Fraction(1, 2)
    assert ConeOrbifold.build([]).chi == Fraction(2)
    # Huge orders (10**20 - 1 is a multiple of 3), three pairwise-coprime
    # ones whose lcm is their product, and [6, 10, 15], whose lcm 30 is
    # far below the product.
    huge = 10**20 - 1
    assert ConeOrbifold.build([2, 3, huge]).chi == (
        Fraction(-1, 6) + Fraction(1, huge)
    )
    assert ConeOrbifold.build([huge, huge + 1, huge + 2]).chi == (
        -1 + Fraction(1, huge) + Fraction(1, huge + 1) + Fraction(1, huge + 2)
    )
    assert ConeOrbifold.build([6, 10, 15]).chi == Fraction(-2, 3)


def test_geometry_by_sign():
    assert ConeOrbifold.build([2, 3, 5]).geometry == "spherical"
    assert ConeOrbifold.build([2, 4, 4]).geometry == "euclidean"
    assert ConeOrbifold.build([2, 3, 7]).geometry == "hyperbolic"


# -- quotient orbifolds of branched covers ------------------------------------------


@pytest.mark.parametrize(
    "link, n, cones",
    [
        (ZeroCore(2, 3, 1, 1), 2, (2, 2, 3)),
        (ZeroCore(2, 3, 1, 1), 5, (2, 3, 5)),
        (ZeroCore(2, 3, 1, 1), 7, (2, 3, 7)),
        (ZeroCore(1, 2, 2, 2), 2, (2, 2, 2)),
        (ZeroCore(1, 1, 3, 3), 2, (2, 2, 2)),
        (ZeroCore(1, 2, 3, 3), 2, (2, 2, 2, 2)),
        (ZeroCore(1, 1, 4, 0), 2, (2, 2, 2, 2)),
        (OneCore(2, 3, 1, 1, -1), 2, (2, 2, 6)),
        (OneCore(2, 3, 1, 1, -1), 3, (2, 3, 9)),
        (OneCore(1, 3, 2, 0, 1), 3, (3, 3, 9)),
        (TwoCore(2, 3, 1, 1, 1, 1), 2, (2, 4, 6)),
        (HopfSum(1, 0), 2, (2, 2)),
        (HopfSum(1, 0), 9, (9, 9)),
    ],
)
def test_cover_base_cones(link, n, cones):
    assert b_bar(link, n).cone_orders == cones


def copies_and_cores(link, n):
    """The number k of branch copies and the two core orders, read off the
    link's shape: a core in the link is branched, so its order is n m."""
    if isinstance(link, HopfSum):
        return 2, ()
    if isinstance(link, ZeroCore):
        return link.k, (link.q, link.p)
    if isinstance(link, OneCore):
        return link.k, (n * link.q, link.p)
    return link.k, (n * link.q, n * link.p)


def placement(order, n):
    if order == 1:
        return "trivial"
    if order < n:
        return "below"
    return "at" if order == n else "above"


def test_placed_cone_orders_are_the_sorted_nontrivial_orders(grid):
    # `b_bar` places the core orders among the copies of n instead of
    # sorting; compare with the definition at every index of the
    # acceptance suite and at large n = 60p.
    seen = set()
    for link in grid:
        if not is_prime(link):
            continue
        for n in [*range(2, 61), *(60 * p for p in (17, 101, 251))]:
            k, cores = copies_and_cores(link, n)
            orders = (n,) * k + cores
            expected = tuple(sorted(o for o in orders if o > 1))
            assert b_bar(link, n).cone_orders == expected, (link, n)
            if isinstance(link, HopfSum):
                seen.add("hopf")
            seen |= {placement(order, n) for order in cores}
            if min(cores, default=n) < n < max(cores, default=n):
                seen.add("copies between")
    assert seen == {"hopf", "trivial", "below", "at", "above", "copies between"}


# The first twelve primes from 17 on, for the large indices n = 60p.
LARGE_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def test_counted_cones_are_ascending_and_agree_with_the_view(grid):
    # `b_bar` builds its (order, count) pairs without `build`: they must be
    # the pairs `build` counts from the expanded orders, and the sign of
    # chi must be the one the view decides without building the base.
    geometries = set()
    for link in grid:
        if not is_prime(link):
            continue
        view = normalize(link)._view
        for n in [*range(2, 61), *(60 * p for p in LARGE_PRIMES)]:
            base = b_bar(link, n)
            orders = [order for order, _ in base.counted]
            assert all(order >= 2 for order in orders), (link, n)
            assert all(count >= 1 for _, count in base.counted), (link, n)
            assert all(a < b for a, b in zip(orders, orders[1:])), (link, n)
            assert ConeOrbifold.build(base.cone_orders) == base, (link, n)
            spherical = _spherical_base(view, n)
            assert (base.geometry == "spherical") == spherical, (link, n)
            geometries.add(base.geometry)
    assert geometries == {"spherical", "euclidean", "hyperbolic"}


def test_composite_links_are_rejected():
    with pytest.raises(NotPrime):
        b_bar(HopfSum(2, 1), 2)
    with pytest.raises(NotPrime):
        finite_group(HopfSum(1, 1), 3)


def test_cover_level_must_be_at_least_two():
    with pytest.raises(InvalidParameters):
        b_bar(ZeroCore(2, 3, 1, 1), 1)


# -- fibre behaviour under the cover -------------------------------------------------


def test_fibre_data_examples():
    data = fibre_data(ZeroCore(2, 3, 1, 1), 5)
    assert (data.s, data.r, data.cover_degree) == (6, 5, 1)
    data = fibre_data(ZeroCore(2, 3, 1, 1), 6)
    assert (data.s, data.r, data.cover_degree) == (6, 1, 6)
    data = fibre_data(ZeroCore(1, 1, 4, 4), 2)
    assert (data.s, data.r, data.cover_degree) == (4, 1, 2)
    data = fibre_data(OneCore(1, 2, 2, 0, 1), 7)
    assert (data.s, data.r, data.cover_degree) == (1, 7, 1)
    data = fibre_data(OneCore(2, 3, 1, 1, -1), 3)
    assert (data.s, data.r, data.cover_degree) == (4, 3, 1)


# -- finiteness -----------------------------------------------------------------------


def test_finiteness_follows_chi_sign(grid):
    for link in grid:
        if isinstance(link, HopfSum) and link.plus + link.minus > 1:
            continue
        for n in (2, 3, 5):
            expected = b_bar(link, n).chi > 0
            assert (finite_group(link, n) is not None) is expected, (link, n)


def test_two_fold_groups_of_simply_laced_links():
    assert finite_group(ZeroCore(2, 3, 1, 1), 2) == Cyclic(3)
    assert finite_group(ZeroCore(1, 3, 2, 2), 2) == Cyclic(6)
    assert finite_group(ZeroCore(1, 1, 3, 3), 2) == BinaryDihedral(2)
    assert finite_group(OneCore(2, 5, 1, 1, 1), 2) == BinaryDihedral(5)
    assert finite_group(ZeroCore(3, 4, 1, 1), 2) == BinaryTetrahedral()
    assert finite_group(OneCore(3, 2, 1, 1, 1), 2) == BinaryOctahedral()
    assert finite_group(ZeroCore(3, 5, 1, 1), 2) == BinaryIcosahedral()


def test_spherical_double_cover_of_a_non_ade_link_is_a_broken_invariant(
    monkeypatch,
):
    # A spherical double-cover base makes the positive reorientation ADE;
    # a type missing there is a fault, not a rejected input.
    import seifertlinks.orbifold as orbifold

    monkeypatch.setattr(orbifold, "is_ade", lambda link: None)
    with pytest.raises(InvariantViolation, match="non-ADE"):
        finite_group(ZeroCore(2, 3, 1, 1), 2)


def test_two_fold_groups_cover_reversed_orientations():
    assert finite_group(OneCore(3, 2, 1, 1, -1), 2) == BinaryOctahedral()
    assert finite_group(OneCore(2, 3, 1, 1, -1), 2) == BinaryDihedral(3)
    assert finite_group(ZeroCore(1, 3, 2, 0), 2) == Cyclic(6)
    assert finite_group(ZeroCore(1, 1, 3, 1), 2) == BinaryDihedral(2)


def test_higher_cover_group_catalog():
    trefoil = ZeroCore(2, 3, 1, 1)
    assert finite_group(trefoil, 3) == BinaryDihedral(2)
    assert finite_group(trefoil, 4) == BinaryTetrahedral()
    assert finite_group(trefoil, 5) == BinaryIcosahedral()
    assert finite_group(trefoil, 6) is None
    assert finite_group(ZeroCore(1, 2, 2, 2), 3) == BinaryTetrahedral()
    assert finite_group(ZeroCore(1, 2, 2, 2), 4) is None
    assert finite_group(ZeroCore(2, 5, 1, 1), 3) == BinaryIcosahedral()
    assert finite_group(ZeroCore(2, 5, 1, 1), 4) is None


def test_hopf_link_covers_are_cyclic_at_every_level():
    for n in range(2, 12):
        assert finite_group(HopfSum(1, 0), n) == Cyclic(n)


def test_the_one_unidentified_finite_group(grid):
    hits = []
    for link in grid:
        if isinstance(link, HopfSum) and link.plus + link.minus > 1:
            continue
        for n in range(2, 9):
            tag = finite_group(link, n)
            if tag is not None and tag.group_order is None:
                hits.append((link, n))
    assert hits == [(ZeroCore(1, 2, 2, 0), 3)]
    tag = finite_group(ZeroCore(1, 2, 2, 0), 3)
    assert tag == FiniteUnidentified(b_bar(ZeroCore(1, 2, 2, 0), 3))
    assert tag.label == "finite central extension over S2(2,3,3)"
    assert (tag.group_order, tag.h1_order) == (None, None)


def test_h1_orders_match_the_cover_oracle(grid):
    # The oracle reads |H_1| of the n-fold cover off an expanded reference
    # Delta.  At n = 2 it is the determinant; for every identified finite
    # group it is the order of the abelianization the tag records.
    checked = 0
    unidentified = []
    for link in grid:
        if not is_prime(link):
            continue
        terms = reference_delta(link).terms
        assert cyclic_cover_h1_order(terms, 2) == determinant(link), link
        for n in range(2, 61):
            tag = finite_group(link, n)
            if tag is None:
                continue
            order = cyclic_cover_h1_order(terms, n)
            if tag.h1_order is None:
                unidentified.append((link, n, order))
            else:
                assert order == tag.h1_order, (link, n, tag)
                checked += 1
    assert checked > 100
    # The one group outside the catalog keeps its label; its H_1 has
    # order 12.
    assert unidentified == [(ZeroCore(1, 2, 2, 0), 3, 12)]


def test_betti_rungs_match_the_cover_oracle(grid):
    # H_1 of the n-fold cover is infinite, and the oracle order 0, exactly
    # when Delta vanishes at an n-th root of unity other than 1, that is
    # when Phi_d divides Delta for some d | n with d > 1.  Every
    # PositiveBetti verdict must sit on such a rung.
    infinite = 0
    for link in grid:
        if not is_prime(link):
            continue
        terms = reference_delta(link).terms
        for n in range(2, 13):
            order = cyclic_cover_h1_order(terms, n)
            rung = any(
                cyclotomic_divides(d, link)
                for d in range(2, n + 1)
                if n % d == 0
            )
            assert (order == 0) == rung, (link, n, order)
            infinite += order == 0
            evidence = canonical_star_status(link, n).evidence
            if isinstance(evidence, PositiveBetti):
                assert order == 0, (link, n)
    assert infinite > 1000


def test_group_tag_labels_and_orders():
    assert (Cyclic(5).label, Cyclic(5).group_order, Cyclic(5).h1_order) == (
        "Z/5",
        5,
        5,
    )
    tag = BinaryDihedral(3)
    assert (tag.label, tag.group_order, tag.h1_order) == ("D*_3", 12, 4)
    assert (BinaryTetrahedral().label, BinaryTetrahedral().group_order) == (
        "T*",
        24,
    )
    assert BinaryTetrahedral().h1_order == 3
    assert (BinaryOctahedral().group_order, BinaryOctahedral().h1_order) == (
        48,
        2,
    )
    assert (BinaryIcosahedral().group_order, BinaryIcosahedral().h1_order) == (
        120,
        1,
    )


def test_two_fold_finiteness_matches_orientation_catalog(grid):
    # chi of the double-cover base is positive exactly for the links that
    # reorient into the simply laced catalog.
    for link in grid:
        if isinstance(link, HopfSum) and link.plus + link.minus > 1:
            continue
        assert (b_bar(link, 2).chi > 0) is is_ade_up_to_orientation(link), link
