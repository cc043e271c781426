"""Acceptance gate: one test per advertised guarantee, each checked
against independently frozen values or from-scratch recomputation.

Run with -v to get one pass/fail line per criterion.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from conftest import raw_core_links
from oracles import dynkin_seifert, symmetrized_det
from reference_alexander import delta_degree, reference_is_genus_zero
from seifertlinks import (
    BinaryDihedral,
    BinaryIcosahedral,
    BinaryOctahedral,
    BinaryTetrahedral,
    CoverSpec,
    Cyclic,
    DynkinType,
    HopfSum,
    LinkInputError,
    OneCore,
    SeifertInvariants,
    TwoCore,
    ZeroCore,
    ade_link,
    b_bar,
    canonical_star_status,
    canonical_weights,
    cyclotomic_divides,
    delta,
    determinant,
    finite_group,
    g4_status,
    genus,
    in_P,
    is_ade,
    is_ade_up_to_orientation,
    is_braid_positive,
    is_definite,
    is_genus_zero,
    is_prime,
    is_sqp,
    jn_data,
    nlo_seifert_invariants,
    normalize,
    reorient_to_P,
    tables,
)
from seifertlinks.cli import parse_link
from seifertlinks.link_model import _reorientations


def chi_of_cones(cones):
    return 2 - sum(Fraction(m - 1, m) for m in cones)


def double_cover_cones(link):
    """Cone orders of the double branched cover's base, recomputed from
    the raw parameters without the orbifold module."""
    if isinstance(link, HopfSum):
        return (2, 2)
    if isinstance(link, ZeroCore):
        extra = [m for m in (link.q, link.p) if m > 1]
    elif isinstance(link, OneCore):
        extra = [2 * link.q] + ([link.p] if link.p > 1 else [])
    else:
        extra = [2 * link.q, 2 * link.p]
    return tuple(sorted([2] * link.k + extra))


def test_criterion_01_double_cover_groups_and_determinants():
    # Simply laced links: the double cover's group and the determinant.
    for m in range(1, 13):
        link = ade_link(DynkinType("A", m))
        assert finite_group(link, 2) == Cyclic(m + 1)
        assert determinant(link) == m + 1
    for m in range(4, 13, 2):
        link = ade_link(DynkinType("D", m))
        assert finite_group(link, 2) == BinaryDihedral(m - 2)
        assert determinant(link) == 4
    for index, group, det in [
        (6, BinaryTetrahedral(), 3),
        (7, BinaryOctahedral(), 2),
        (8, BinaryIcosahedral(), 1),
    ]:
        link = ade_link(DynkinType("E", index))
        assert finite_group(link, 2) == group
        assert determinant(link) == det
    # Odd D types: the determinant is 4, agreeing with the plumbing-tree
    # Seifert-matrix oracle evaluated at t = -1.
    for m in range(5, 13, 2):
        link = ade_link(DynkinType("D", m))
        assert determinant(link) == 4
        assert symmetrized_det(dynkin_seifert("D", m)) == 4


def test_criterion_02_alexander_polynomials_are_exact():
    def terms(link):
        return delta(link).terms

    for m in range(1, 13):
        alternating = tuple((i, (-1) ** i) for i in range(m + 1))
        assert terms(ade_link(DynkinType("A", m))) == alternating
    for m in range(4, 13, 2):
        assert terms(ade_link(DynkinType("D", m))) == (
            (0, 1), (1, -1), (m - 1, -1), (m, 1)
        )
    assert terms(ade_link(DynkinType("E", 6))) == (
        (0, 1), (1, -1), (3, 1), (5, -1), (6, 1)
    )
    assert terms(ade_link(DynkinType("E", 7))) == (
        (0, 1), (1, -1), (3, 1), (4, -1), (6, 1), (7, -1)
    )
    assert terms(ade_link(DynkinType("E", 8))) == (
        (0, 1), (1, -1), (3, 1), (4, -1), (5, 1), (7, -1), (8, 1)
    )
    assert terms(OneCore(3, 2, 1, 1, -1)) == ((0, 1), (3, -1))
    assert terms(OneCore(2, 3, 1, 1, -1)) == ((0, 1), (1, -1), (2, 1), (3, -1))
    assert terms(OneCore(1, 2, 2, 2, -1)) == ((0, 1), (1, -1), (3, -1), (4, 1))


def test_criterion_03_degree_identity_over_the_grid():
    presentations = 0
    for link in raw_core_links(7, 6):
        poly = delta(link)
        presentations += 1
        if not poly.is_zero:
            assert poly.breadth == delta_degree(link), link
    assert presentations > 2000


SPHERICAL_ROWS = [
    (2, "#1 H+", (2, 2)),
    (2, "L(1,2;2,0)", (2, 2, 2)),
    (2, "L(1,2;2,2)", (2, 2, 2)),
    (2, "L(1,3;2,0)", (2, 2, 3)),
    (2, "L(1,3;2,2)", (2, 2, 3)),
    (2, "L(1,4;2,0)", (2, 2, 4)),
    (2, "L(1,4;2,2)", (2, 2, 4)),
    (2, "L(1,5;2,0)", (2, 2, 5)),
    (2, "L(1,5;2,2)", (2, 2, 5)),
    (2, "L(1,6;2,0)", (2, 2, 6)),
    (2, "L(1,6;2,2)", (2, 2, 6)),
    (2, "L(2,3;1,1)", (2, 2, 3)),
    (2, "L(2,5;1,1)", (2, 2, 5)),
    (2, "L(1,1;3,1)", (2, 2, 2)),
    (2, "L(1,1;3,3)", (2, 2, 2)),
    (2, "L(1,2;2,0;+)", (2, 2, 4)),
    (2, "L(1,2;2,2;+)", (2, 2, 4)),
    (2, "L(1,2;2,2;-)", (2, 2, 4)),
    (2, "L(1,3;2,0;+)", (2, 2, 6)),
    (2, "L(1,3;2,2;+)", (2, 2, 6)),
    (2, "L(1,3;2,2;-)", (2, 2, 6)),
    (2, "L(1,4;2,0;+)", (2, 2, 8)),
    (2, "L(1,4;2,2;+)", (2, 2, 8)),
    (2, "L(1,4;2,2;-)", (2, 2, 8)),
    (2, "L(1,5;2,0;+)", (2, 2, 10)),
    (2, "L(1,5;2,2;+)", (2, 2, 10)),
    (2, "L(1,5;2,2;-)", (2, 2, 10)),
    (2, "L(1,6;2,0;+)", (2, 2, 12)),
    (2, "L(1,6;2,2;+)", (2, 2, 12)),
    (2, "L(1,6;2,2;-)", (2, 2, 12)),
    (2, "L(2,3;1,1;+)", (2, 2, 6)),
    (2, "L(2,3;1,1;-)", (2, 2, 6)),
    (2, "L(2,5;1,1;+)", (2, 2, 10)),
    (2, "L(2,5;1,1;-)", (2, 2, 10)),
    (2, "L(3,4;1,1)", (2, 3, 4)),
    (2, "L(3,2;1,1;+)", (2, 3, 4)),
    (2, "L(3,2;1,1;-)", (2, 3, 4)),
    (2, "L(3,5;1,1)", (2, 3, 5)),
    (3, "#1 H+", (3, 3)),
    (3, "L(2,3;1,1)", (2, 3, 3)),
    (3, "L(1,2;2,0)", (2, 3, 3)),
    (3, "L(1,2;2,2)", (2, 3, 3)),
    (3, "L(2,5;1,1)", (2, 3, 5)),
    (4, "#1 H+", (4, 4)),
    (4, "L(2,3;1,1)", (2, 3, 4)),
    (5, "#1 H+", (5, 5)),
    (5, "L(2,3;1,1)", (2, 3, 5)),
]

EUCLIDEAN_ROWS = [
    (2, ["L(1,2;3,1)", "L(1,2;3,3)"], (2, 2, 2, 2), "L(1,2;3,3)"),
    (2, ["L(1,1;4,0)", "L(1,1;4,2)", "L(1,1;4,4)"], (2, 2, 2, 2), "L(1,1;4,4)"),
    (3, ["L(1,3;2,0)", "L(1,3;2,2)"], (3, 3, 3), "L(1,3;2,2)"),
    (3, ["L(1,1;3,1)", "L(1,1;3,3)"], (3, 3, 3), "L(1,1;3,3)"),
    (4, ["L(1,2;2,0)", "L(1,2;2,2)"], (2, 4, 4), "L(1,2;2,2)"),
    (6, ["L(2,3;1,1)"], (2, 3, 6), "L(2,3;1,1)"),
]


def test_criterion_04_cover_base_tables():
    for n, notation, cones in SPHERICAL_ROWS:
        link = parse_link(notation)
        assert b_bar(link, n).cone_orders == cones, (n, notation)
        assert chi_of_cones(cones) > 0, (n, notation)
    for n, notations, cones, reoriented in EUCLIDEAN_ROWS:
        for notation in notations:
            link = parse_link(notation)
            assert b_bar(link, n).cone_orders == cones, (n, notation)
        assert chi_of_cones(cones) == 0, (n, cones)
        assert cyclotomic_divides(n, parse_link(reoriented)), (n, reoriented)


def test_family_tables_are_complete_on_the_grid(grid):
    # The prime grid links, grouped by their positive reorientation.
    groups = {}
    for link in grid:
        if is_prime(link):
            groups.setdefault(reorient_to_P(link), set()).add(link)
    for group in groups.values():
        for link in group:
            found = _reorientations(link)
            assert len(found) == len(group) and set(found) == group, link
    # Every family of the tables' extent at every level they reach.
    chi = {
        (n, positive): chi_of_cones(b_bar(positive, n).cone_orders)
        for positive in groups
        if max(positive._view[:2]) <= tables._MAX_Q
        for n in range(2, tables._MAX_N + 1)
    }
    spherical = {
        pair
        for pair, value in chi.items()
        if value > 0 and pair[0] <= tables._MAX_SPHERICAL_N
    }
    euclidean = {pair for pair, value in chi.items() if value == 0}
    for rows, expected in [
        (tables.spherical_rows(), spherical),
        (tables.euclidean_rows(), euclidean),
    ]:
        fields = [{row.key: row.value for row in columns} for columns in rows]
        assert len(fields) == len(expected)
        assert {(row["n"], row["reoriented"]) for row in fields} == expected
        for row in fields:
            group = groups[row["reoriented"]]
            assert len(row["instances"]) == len(group), row
            assert set(row["instances"]) == group, row


def test_euclidean_table_is_every_euclidean_positive_family():
    # Past the bounds that `euclidean_rows` derives (n <= 6, k <= 4,
    # p, q <= 6, no core): the positive family of each core shape.
    positives = set()
    for p, q, k in product(range(1, 13), range(1, 13), range(1, 9)):
        if gcd(p, q) != 1:
            continue
        shapes = ZeroCore(p, q, k, k), OneCore(p, q, k, k, 1), TwoCore(p, q, k, k, 1, 1)
        for raw in shapes:
            try:
                positives.add(normalize(raw))
            except LinkInputError:  # the unknot, or a core at a 1
                pass
    expected = {
        (n, link)
        for link in positives
        for n in range(2, 25)
        if b_bar(link, n).geometry == "euclidean"
    }
    rows = [
        {row.key: row.value for row in columns}
        for columns in tables.euclidean_rows()
    ]
    assert len(rows) == len(expected)
    assert {(row["n"], row["reoriented"]) for row in rows} == expected


def test_criterion_05_star_status_grid(grid):
    # Families whose canonical covers are never left-orderable.
    always_not_star = [HopfSum(1, 0), ZeroCore(1, 1, 3, 1)]
    always_not_star += [ZeroCore(1, q, 2, 0) for q in range(2, 7)]
    always_not_star += [OneCore(1, q, 2, 0, 1) for q in range(2, 7)]
    for link in always_not_star:
        for n in range(2, 13):
            assert not canonical_star_status(link, n).star, (link, n)

    # Simply laced links fail up to a type-dependent bound, then succeed.
    def bound(dynkin):
        if dynkin == DynkinType("A", 2):
            return 5
        if dynkin in (DynkinType("A", 3), DynkinType("A", 4)):
            return 3
        return 2

    ade_types = (
        [DynkinType("A", m) for m in range(2, 13)]
        + [DynkinType("D", m) for m in range(4, 13)]
        + [DynkinType("E", m) for m in (6, 7, 8)]
    )
    for dynkin in ade_types:
        link = ade_link(dynkin)
        for n in range(2, 13):
            expected = n > bound(dynkin)
            assert canonical_star_status(link, n).star is expected, (dynkin, n)

    # Complete sweep: every prime grid link at every level must agree
    # with the trichotomy, where catalog membership is decided from
    # scratch by the sign of the double-cover base's Euler characteristic
    # and the frozen never-star and bound tables above.  The links that
    # reorient to the catalog run to n = 60, far past every bound, so the
    # verdicts derived from the finite-group test and the certificate
    # catalog are checked where the base stays non-positive.
    def never_star(link):
        if link == HopfSum(1, 0) or link == ZeroCore(1, 1, 3, 1):
            return True
        if isinstance(link, ZeroCore):
            return (link.p, link.k, link.w) == (1, 2, 0)
        if isinstance(link, OneCore):
            return (link.p, link.k, link.w, link.sign) == (1, 2, 0, 1)
        return False

    def bound_of_link(link):
        if link == ZeroCore(2, 3, 1, 1):
            return 5
        reversed_d5 = OneCore(2, 3, 1, 1, -1)
        if link in (ZeroCore(1, 2, 2, 2), ZeroCore(2, 5, 1, 1), reversed_d5):
            return 3
        return 2

    swept = 0
    for link in grid:
        if not is_prime(link):
            continue
        reorients_to_catalog = chi_of_cones(double_cover_cones(link)) > 0
        swept += reorients_to_catalog
        for n in range(2, 61 if reorients_to_catalog else 13):
            if not reorients_to_catalog:
                expected = True
            elif never_star(link):
                expected = False
            else:
                expected = n > bound_of_link(link)
            assert canonical_star_status(link, n).star is expected, (link, n)
    assert swept == 46


def test_criterion_06_genus_zero_equivalence(grid):
    for link in grid:
        assert (genus(link) == 0) is reference_is_genus_zero(link), link
        assert is_genus_zero(link) is reference_is_genus_zero(link), link


def test_criterion_07_classification_consistency(grid):
    for link in grid:
        if is_ade(link) is not None:
            assert in_P(link) and is_definite(link), link
        if is_definite(link):
            assert g4_status(link)[0], link
        assert is_braid_positive(link) is in_P(link)
        canonical = normalize(link)
        balanced = isinstance(canonical, ZeroCore) and canonical.w == 0
        assert is_sqp(link) is (in_P(link) or balanced), link
        if is_prime(link):
            assert is_ade_up_to_orientation(link) is (b_bar(link, 2).chi > 0)


def test_criterion_08_chi_monotone_with_unique_euclidean_level(grid):
    for link in grid:
        if not is_prime(link):
            continue
        values = [b_bar(link, n).chi for n in range(2, 61)]
        for earlier, later in zip(values[:19], values[1:20]):
            assert later < earlier, link
        assert sum(1 for chi in values if chi == 0) <= 1, link


def test_chi_matches_the_fraction_sum_on_the_grid(grid):
    # The orbifold folds chi in integers over its (order, count) pairs;
    # `chi_of_cones` is the plain sum of Fractions over the expanded orders.
    for link in grid:
        if not is_prime(link):
            continue
        for n in range(2, 61):
            base = b_bar(link, n)
            assert base.chi == chi_of_cones(base.cone_orders), (link, n)


def test_criterion_09_rotation_sum_threshold():
    for q in range(3, 16, 2):
        link = OneCore(2, q, 1, 1, -1)
        for n in range(3, 16):
            sigma = jn_data(link, canonical_weights(link, n)).sigma
            assert (sigma < 1) is ((n - 2) * (q - 2) > 2), (q, n)
    data = jn_data(
        OneCore(2, 3, 1, 1, -1), canonical_weights(OneCore(2, 3, 1, 1, -1), 3)
    )
    assert data.sigma == Fraction(19, 18)


def test_criterion_10_seifert_invariant_catalog():
    for n in (3, 4, 5, 7):
        third = Fraction(1, n)
        assert nlo_seifert_invariants(ZeroCore(1, 1, 3, 1), n) == (
            SeifertInvariants(0, (third, third, -third))
        )
        for q in (2, 3, 4):
            assert nlo_seifert_invariants(OneCore(1, q, 2, 0, 1), n) == (
                SeifertInvariants(
                    0, (Fraction(-1, n), Fraction(1, n), Fraction(-1, n * q))
                )
            )
    assert nlo_seifert_invariants(OneCore(2, 3, 1, 1, -1), 3) == (
        SeifertInvariants(0, (Fraction(1, 3), Fraction(2, 9), Fraction(-3, 2)))
    )
