"""Classification predicates: ADE catalog, positivity, genus bounds,
definiteness, and the report bundle."""

import pytest
from hypothesis import given, settings

from seifertlinks import (
    DynkinType,
    HopfSum,
    Known,
    NotPrime,
    OneCore,
    StrictlyLessThanGenus,
    TwoCore,
    ZeroCore,
    ade_link,
    b_bar,
    classification_report,
    delta,
    g4_status,
    genus,
    in_P,
    is_ade,
    is_ade_up_to_orientation,
    is_braid_positive,
    is_definite,
    is_fibred,
    is_genus_zero,
    is_prime,
    is_sqp,
    normalize,
    reorient_to_P,
)

from conftest import raw_links
from reference_alexander import reference_is_genus_zero

ALL_DYNKIN_TYPES = (
    [DynkinType("A", m) for m in range(1, 13)]
    + [DynkinType("D", m) for m in range(4, 13)]
    + [DynkinType("E", m) for m in (6, 7, 8)]
)


# -- the ADE catalog ----------------------------------------------------------


@pytest.mark.parametrize(
    "link, family, index",
    [
        (HopfSum(1, 0), "A", 1),
        (ZeroCore(2, 3, 1, 1), "A", 2),
        (ZeroCore(1, 2, 2, 2), "A", 3),
        (ZeroCore(2, 7, 1, 1), "A", 6),
        (ZeroCore(1, 4, 2, 2), "A", 7),
        (ZeroCore(1, 1, 3, 3), "D", 4),
        (OneCore(2, 3, 1, 1, 1), "D", 5),
        (OneCore(1, 2, 2, 2, 1), "D", 6),
        (OneCore(2, 5, 1, 1, 1), "D", 7),
        (OneCore(1, 3, 2, 2, 1), "D", 8),
        (ZeroCore(3, 4, 1, 1), "E", 6),
        (OneCore(3, 2, 1, 1, 1), "E", 7),
        (ZeroCore(3, 5, 1, 1), "E", 8),
    ],
)
def test_ade_members(link, family, index):
    assert is_ade(link) == DynkinType(family, index)


@pytest.mark.parametrize(
    "link",
    [
        ZeroCore(4, 5, 1, 1),
        ZeroCore(2, 3, 3, 3),
        ZeroCore(1, 3, 2, 0),
        OneCore(3, 2, 1, 1, -1),
        OneCore(4, 7, 3, 1, -1),
        TwoCore(2, 3, 1, 1, 1, 1),
        TwoCore(2, 3, 1, 1, -1, -1),
        HopfSum(2, 0),
        HopfSum(1, 1),
    ],
)
def test_non_ade_members(link):
    assert is_ade(link) is None


def test_ade_link_round_trip():
    for dynkin in ALL_DYNKIN_TYPES:
        link = ade_link(dynkin)
        assert normalize(link) == link, dynkin
        assert is_ade(link) == dynkin


def test_ade_links_on_grid_are_exactly_the_catalog(grid):
    for link in grid:
        dynkin = is_ade(link)
        if dynkin is not None:
            assert link == ade_link(dynkin)


def test_dynkin_type_validation():
    assert str(DynkinType("E", 7)) == "E7"
    assert str(DynkinType("A", 12)) == "A12"
    for family, index in [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("F", 4)]:
        with pytest.raises(ValueError):
            DynkinType(family, index)


# -- primality and fibredness -------------------------------------------------


def test_prime_examples():
    assert is_prime(HopfSum(1, 0))
    assert not is_prime(HopfSum(2, 0))
    assert not is_prime(HopfSum(1, 1))
    assert is_prime(ZeroCore(2, 3, 1, 1))
    assert is_prime(TwoCore(2, 3, 2, 0, 1, -1))


def test_fibred_examples():
    assert not is_fibred(ZeroCore(1, 3, 2, 0))
    assert not is_fibred(ZeroCore(3, 5, 4, 0))
    assert is_fibred(ZeroCore(2, 3, 1, 1))
    assert is_fibred(OneCore(1, 2, 2, 0, 1))
    assert is_fibred(TwoCore(2, 3, 2, 0, 1, -1))
    assert is_fibred(HopfSum(2, 1))


def test_fibred_iff_monic_alexander(grid):
    # Fibredness is equivalent to the Alexander polynomial being nonzero
    # with unit extreme coefficients.
    for link in grid:
        poly = delta(link)
        monic = (
            not poly.is_zero
            and abs(poly.terms[0][1]) == 1
            and abs(poly.terms[-1][1]) == 1
        )
        assert is_fibred(link) is monic, link


# -- positivity ---------------------------------------------------------------


def test_in_P_examples():
    assert in_P(ZeroCore(2, 3, 1, 1))
    assert in_P(ZeroCore(5, 3, 1, 1))
    assert in_P(OneCore(4, 7, 3, 3, 1))
    assert in_P(TwoCore(2, 3, 2, 2, 1, 1))
    assert in_P(HopfSum(3, 0))
    assert not in_P(ZeroCore(1, 3, 2, 0))
    assert not in_P(OneCore(4, 7, 3, 3, -1))
    assert not in_P(TwoCore(2, 3, 2, 2, 1, -1))
    assert not in_P(HopfSum(2, 1))


def test_braid_positive_is_membership_in_P(grid):
    for link in grid:
        assert is_braid_positive(link) is in_P(link)


def test_sqp_examples():
    assert is_sqp(ZeroCore(2, 3, 1, 1))
    assert is_sqp(ZeroCore(1, 3, 2, 0))
    assert is_sqp(ZeroCore(3, 5, 4, 0))
    assert not is_sqp(ZeroCore(1, 1, 3, 1))
    assert not is_sqp(OneCore(1, 2, 2, 0, 1))
    assert not is_sqp(TwoCore(3, 2, 2, 0, 1, -1))
    assert not is_sqp(HopfSum(2, 1))


def test_positivity_implications(grid):
    for link in grid:
        if is_braid_positive(link):
            assert is_sqp(link), link
        if is_sqp(link) and not in_P(link):
            canonical = normalize(link)
            assert isinstance(canonical, ZeroCore) and canonical.w == 0


# -- genus and four-genus -----------------------------------------------------


def test_genus_zero_catalog_matches_genus(grid):
    for link in grid:
        assert (genus(link) == 0) is reference_is_genus_zero(link), link
        assert is_genus_zero(link) is reference_is_genus_zero(link), link


def test_genus_zero_two_core_family():
    assert is_genus_zero(TwoCore(2, 3, 2, 0, 1, -1))
    assert is_genus_zero(TwoCore(3, 4, 2, 0, 1, -1))
    assert is_genus_zero(TwoCore(4, 5, 4, 0, 1, -1))
    assert not is_genus_zero(TwoCore(2, 5, 2, 0, 1, -1))
    assert is_genus_zero(TwoCore(2, 3, 1, 1, -1, -1))
    assert not is_genus_zero(TwoCore(2, 3, 1, 1, 1, 1))


def test_g4_status_examples():
    assert g4_status(ZeroCore(2, 3, 1, 1)) == (True, Known(1))
    assert g4_status(ZeroCore(3, 5, 1, 1)) == (True, Known(4))
    assert g4_status(ZeroCore(1, 2, 2, 0)) == (True, Known(0))
    assert g4_status(HopfSum(2, 1)) == (True, Known(0))
    # Balanced orientations with positive genus bound annuli.
    assert g4_status(OneCore(2, 3, 2, 0, 1)) == (False, Known(0))
    assert genus(OneCore(2, 3, 2, 0, 1)) == 1
    # Mixed orientations with nonzero winding lose the exact value.
    assert g4_status(ZeroCore(2, 3, 3, 1)) == (False, StrictlyLessThanGenus())
    assert g4_status(OneCore(4, 7, 3, 1, -1)) == (False, StrictlyLessThanGenus())
    assert g4_status(TwoCore(2, 5, 2, 2, 1, -1)) == (False, StrictlyLessThanGenus())


def test_g4_status_laws(grid):
    for link in grid:
        equal, status = g4_status(link)
        if equal:
            assert status == Known(genus(link))
        elif isinstance(status, Known):
            assert status.value == 0 and genus(link) > 0
        else:
            assert genus(link) > 0


# -- definiteness -------------------------------------------------------------


def test_definite_examples():
    assert is_definite(HopfSum(3, 0))
    assert not is_definite(HopfSum(2, 1))
    assert is_definite(ZeroCore(2, 5, 2, 0))
    assert not is_definite(ZeroCore(2, 5, 3, 1))
    assert is_definite(TwoCore(2, 3, 1, 1, -1, -1))
    assert not is_definite(TwoCore(2, 3, 1, 1, 1, 1))
    for dynkin in ALL_DYNKIN_TYPES:
        assert is_definite(ade_link(dynkin)), dynkin


def test_definite_iff_ade_among_positive_prime_links(grid):
    for link in grid:
        if is_prime(link) and in_P(link):
            assert (is_ade(link) is not None) is is_definite(link), link


# -- ADE membership up to orientation -----------------------------------------


def test_ade_up_to_orientation_examples():
    assert is_ade_up_to_orientation(HopfSum(1, 0))
    assert is_ade_up_to_orientation(OneCore(3, 2, 1, 1, -1))
    assert is_ade_up_to_orientation(ZeroCore(1, 1, 3, 1))
    assert is_ade_up_to_orientation(ZeroCore(1, 2, 2, 0))
    assert not is_ade_up_to_orientation(ZeroCore(4, 5, 1, 1))
    assert not is_ade_up_to_orientation(TwoCore(2, 3, 1, 1, -1, -1))


def test_ade_up_to_orientation_requires_prime():
    with pytest.raises(NotPrime):
        is_ade_up_to_orientation(HopfSum(2, 0))
    with pytest.raises(NotPrime):
        is_ade_up_to_orientation(HopfSum(1, 1))


def test_ade_membership_is_orientation_insensitive(grid):
    # `is_ade_up_to_orientation` is the integer test k*a*b < 2(a + b); this
    # compares it with the ADE catalog on the reorientation.  Five grid links
    # sit on the Euclidean boundary k*a*b == 2(a + b), so a `<=` in place of
    # `<` fails here.
    boundary = []
    for link in grid:
        if not is_prime(link):
            continue
        if is_ade(link) is not None:
            assert is_ade_up_to_orientation(link)
        assert is_ade_up_to_orientation(link) is (
            is_ade(reorient_to_P(link)) is not None
        )
        if b_bar(link, 2).chi == 0:
            boundary.append(link)
    assert set(boundary) == {
        ZeroCore(1, 1, 4, 0), ZeroCore(1, 1, 4, 2), ZeroCore(1, 1, 4, 4),
        ZeroCore(1, 2, 3, 1), ZeroCore(1, 2, 3, 3),
    }


# -- the report bundle --------------------------------------------------------


def test_report_matches_individual_predicates(small_grid):
    for link in small_grid:
        report = classification_report(link)
        equal, status = g4_status(link)
        assert report.is_prime is is_prime(link)
        assert report.is_fibred is is_fibred(link)
        assert report.in_P is in_P(link)
        assert report.is_braid_positive is is_braid_positive(link)
        assert report.is_sqp is is_sqp(link)
        assert report.is_genus_zero is is_genus_zero(link)
        assert report.genus == genus(link)
        assert (report.g4_equals_g, report.g4) == (equal, status)
        assert report.is_definite is is_definite(link)
        assert report.dynkin == is_ade(link)


def test_report_on_composite_does_not_raise():
    report = classification_report(HopfSum(2, 1))
    assert not report.is_prime
    assert not report.ade_up_to_orientation
    assert report.genus == 0 and report.g4 == Known(0)


@settings(max_examples=200)
@given(raw_links())
def test_report_total_on_raw_presentations(link):
    report = classification_report(link)
    assert report.genus >= 0
