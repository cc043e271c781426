"""Branched-cover left-orderability: weighted covers, rotation numbers,
the non-foliation catalog, and the canonical-cover verdict."""

import random
from fractions import Fraction

import pytest

from seifertlinks import (
    Catalog,
    CoverSpec,
    FinitePi1,
    HopfSum,
    Inconclusive,
    InvalidParameters,
    InvariantViolation,
    JNData,
    LO,
    NoCTF_SeifertObstruction,
    NotCore,
    NotInCatalog,
    NotPrime,
    OneCore,
    PSL2R_Rep,
    PositiveBetti,
    SeifertInvariants,
    StarStatus,
    TwoCore,
    WeightMismatch,
    ZeroCore,
    b_bar,
    canonical_star_status,
    canonical_weights,
    general_psi_lo,
    is_prime,
    jn_data,
    jn_lo_sufficient,
    nlo_seifert_invariants,
)
from seifertlinks.cover import _rotation_witness


# -- cover specifications -----------------------------------------------------


def test_cover_spec_validation():
    CoverSpec(2, (1, 1))
    with pytest.raises(InvalidParameters):
        CoverSpec(1, ())
    with pytest.raises(InvalidParameters):
        CoverSpec(3, (1, 3))
    with pytest.raises(InvalidParameters):
        CoverSpec(3, (0,))


def test_cover_spec_reflection():
    spec = CoverSpec(5, (1, 2, 4))
    assert spec.reflected() == CoverSpec(5, (4, 3, 1))
    assert spec.reflected().reflected() == spec


def test_canonical_weights():
    assert canonical_weights(ZeroCore(2, 3, 3, 1), 5) == CoverSpec(5, (1, 1, 4))
    assert canonical_weights(OneCore(4, 7, 3, 1, -1), 3) == CoverSpec(
        3, (1, 1, 2, 2)
    )
    assert canonical_weights(TwoCore(2, 3, 2, 0, 1, -1), 4) == CoverSpec(
        4, (1, 3, 1, 3)
    )
    assert canonical_weights(ZeroCore(2, 3, 1, 1), 2) == CoverSpec(2, (1,))


def test_canonical_weights_rejections():
    with pytest.raises(NotCore):
        canonical_weights(HopfSum(1, 0), 3)
    with pytest.raises(InvalidParameters):
        canonical_weights(ZeroCore(2, 3, 1, 1), 1)


def test_cover_index_is_checked_before_the_link():
    # n < 2 is reported first, whatever is wrong with the link, and each
    # check keeps its own error type and message.
    bad_index = "branched-cover index n must be at least 2"
    for link in (HopfSum(1, 0), HopfSum(2, 1), ZeroCore(2, 4, 1, 1)):
        for check in (
            canonical_weights,
            canonical_star_status,
            nlo_seifert_invariants,
            b_bar,
        ):
            with pytest.raises(InvalidParameters, match=bad_index):
                check(link, 1)
    with pytest.raises(NotCore, match="needs a core presentation"):
        canonical_weights(HopfSum(1, 0), 3)
    with pytest.raises(NotPrime, match="star status is defined for prime"):
        canonical_star_status(HopfSum(2, 1), 3)


def test_weight_count_must_match_components():
    with pytest.raises(WeightMismatch):
        jn_data(OneCore(2, 3, 1, 1, -1), CoverSpec(3, (1, 2, 1)))
    with pytest.raises(WeightMismatch):
        general_psi_lo(ZeroCore(2, 3, 3, 1), CoverSpec(3, (1, 1)))


# -- rotation-number data -----------------------------------------------------


def test_jn_data_examples():
    data = jn_data(OneCore(2, 3, 1, 1, -1), CoverSpec(3, (1, 2)))
    assert data == JNData(
        (Fraction(1, 3), Fraction(2, 9), Fraction(1, 2)), Fraction(19, 18), 3
    )

    data = jn_data(ZeroCore(1, 1, 4, 4), canonical_weights(ZeroCore(1, 1, 4, 4), 2))
    assert data.sigma == Fraction(2) and data.r == 4

    data = jn_data(OneCore(2, 5, 1, 1, -1), CoverSpec(5, (1, 4)))
    assert data.sigma == Fraction(43, 50) and data.r == 3
    assert jn_lo_sufficient(data)

    data = jn_data(ZeroCore(2, 3, 1, 1), CoverSpec(5, (1,)))
    assert data.sigma == Fraction(31, 30) and data.r == 3
    assert not jn_lo_sufficient(data)


def test_sigma_is_the_sum_of_the_thetas(grid):
    # sigma is summed in integers over n*p*q; the angles stay Fractions.
    for link in grid:
        if isinstance(link, HopfSum):
            continue
        for n in range(2, 13):
            spec = canonical_weights(link, n)
            for weights in (spec, spec.reflected()):
                data = jn_data(link, weights)
                assert data.sigma == sum(data.thetas, start=Fraction(0))
                assert data.r == len(data.thetas)


def test_jn_sufficiency_thresholds():
    def with_sigma(r, sigma):
        return JNData((Fraction(0),) * r, Fraction(sigma), r)

    assert jn_lo_sufficient(with_sigma(3, Fraction(9, 10)))
    assert not jn_lo_sufficient(with_sigma(3, 1))
    assert not jn_lo_sufficient(with_sigma(3, Fraction(3, 2)))
    assert not jn_lo_sufficient(with_sigma(3, 2))
    assert jn_lo_sufficient(with_sigma(3, Fraction(21, 10)))
    assert jn_lo_sufficient(with_sigma(4, 1))
    assert not jn_lo_sufficient(with_sigma(4, 2))
    assert jn_lo_sufficient(with_sigma(4, 3))
    assert jn_lo_sufficient(with_sigma(5, 2))
    assert not jn_lo_sufficient(with_sigma(2, 1))


def fraction_ladder(link, spec):
    """Reference for the rotation witness: the Fraction angles of the cover,
    then of its reflection, each tested on its Fraction sigma.  Returns
    the winning record and whether the reflection won, or (None, None)."""
    for reflected, candidate in enumerate((spec, spec.reflected())):
        n, weights = candidate.n, candidate.weights
        thetas = [Fraction(a, n) for a in weights[: link.k]]
        if isinstance(link, ZeroCore):
            thetas += [Fraction(1, m) for m in (link.q, link.p) if m > 1]
        elif isinstance(link, OneCore):
            thetas.append(Fraction(weights[link.k], n * link.q))
            if link.p > 1:
                thetas.append(Fraction(1, link.p))
        else:
            thetas.append(Fraction(weights[link.k], n * link.q))
            thetas.append(Fraction(weights[link.k + 1], n * link.p))
        sigma, r = sum(thetas, Fraction(0)), len(thetas)
        if (r == 3 and not 1 <= sigma <= 2) or (r == 4 and sigma != 2) or r >= 5:
            return JNData(tuple(thetas), sigma, r), bool(reflected)
    return None, None


def test_rotation_witness_matches_the_fraction_ladder(grid):
    # The witness tests sigma*npq in integers and builds only the winning
    # record; it must return what the Fraction ladder returns, None included.
    rng = random.Random(1616)
    outcomes = set()
    reflections = 0
    for link in grid:
        if isinstance(link, HopfSum):
            continue
        for n in range(2, 61):
            specs = [canonical_weights(link, n)]
            if rng.random() < 0.25:
                sampled = (rng.randint(1, n - 1) for _ in specs[0].weights)
                specs.append(CoverSpec(n, tuple(sampled)))
            for weights in specs:
                expected, reflected = fraction_ladder(link, weights)
                assert _rotation_witness(link, n, weights.weights) == expected, (link, weights)
                outcomes.add(None if expected is None else expected.r > 4)
                reflections += bool(reflected)
    assert outcomes == {None, False, True}
    # The reflected side must win too, or its sum would go untested.
    assert reflections > 0


# -- the non-foliation catalog ------------------------------------------------


def test_seifert_invariants_render():
    inv = SeifertInvariants(
        0, (Fraction(1, 3), Fraction(2, 9), Fraction(-3, 2))
    )
    assert str(inv) == "(0; 1/3, 2/9, -3/2)"


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_nlo_invariants_balanced_three_copy_family(n):
    third = Fraction(1, n)
    assert nlo_seifert_invariants(ZeroCore(1, 1, 3, 1), n) == SeifertInvariants(
        0, (third, third, -third)
    )


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [3, 5])
def test_nlo_invariants_reversed_pair_family(q, n):
    assert nlo_seifert_invariants(
        OneCore(1, q, 2, 0, 1), n
    ) == SeifertInvariants(
        0, (Fraction(-1, n), Fraction(1, n), Fraction(-1, n * q))
    )


def test_nlo_invariants_exceptional_case():
    assert nlo_seifert_invariants(OneCore(2, 3, 1, 1, -1), 3) == SeifertInvariants(
        0, (Fraction(1, 3), Fraction(2, 9), Fraction(-3, 2))
    )


def test_nlo_invariants_normalize_first():
    # OneCore(1, 1, 2, 2, -1) rewrites to ZeroCore(1, 1, 3, 1).
    assert nlo_seifert_invariants(OneCore(1, 1, 2, 2, -1), 4) == SeifertInvariants(
        0, (Fraction(1, 4), Fraction(1, 4), Fraction(-1, 4))
    )


@pytest.mark.parametrize(
    "link, n",
    [
        (ZeroCore(2, 3, 1, 1), 3),
        (OneCore(2, 3, 1, 1, -1), 4),
        (ZeroCore(1, 1, 3, 1), 2),
        (OneCore(1, 2, 2, 0, 1), 2),
        (TwoCore(2, 3, 2, 0, 1, -1), 3),
    ],
)
def test_nlo_invariants_outside_catalog(link, n):
    with pytest.raises(NotInCatalog):
        nlo_seifert_invariants(link, n)


def test_nlo_invariants_need_valid_index():
    with pytest.raises(InvalidParameters):
        nlo_seifert_invariants(ZeroCore(1, 1, 3, 1), 1)


# -- the one-sided weighted test ----------------------------------------------


def test_psi_catalog_branch():
    link = ZeroCore(4, 5, 1, 1)
    result = general_psi_lo(link, canonical_weights(link, 2))
    assert isinstance(result, LO) and isinstance(result.evidence, Catalog)
    assert "non-positive Euler characteristic" in result.evidence.note


def test_psi_rotation_branch():
    result = general_psi_lo(OneCore(2, 5, 1, 1, -1), CoverSpec(5, (1, 4)))
    assert isinstance(result, LO) and isinstance(result.evidence, PSL2R_Rep)
    assert result.evidence.data.sigma == Fraction(43, 50)


def test_psi_betti_branch():
    link = ZeroCore(1, 3, 2, 2)
    result = general_psi_lo(link, canonical_weights(link, 3))
    assert result == LO(PositiveBetti(3))


def test_psi_inconclusive():
    link = OneCore(1, 2, 2, 0, 1)
    assert general_psi_lo(link, canonical_weights(link, 3)) == Inconclusive()


def test_psi_verdict_stable_under_reflection(grid):
    sample = [link for link in grid if not isinstance(link, HopfSum)][::17]
    for link in sample:
        spec = canonical_weights(link, 3)
        direct = general_psi_lo(link, spec)
        mirrored = general_psi_lo(link, spec.reflected())
        assert isinstance(direct, LO) is isinstance(mirrored, LO), link


def test_psi_rejects_hopf_sums():
    with pytest.raises(NotCore):
        general_psi_lo(HopfSum(1, 0), CoverSpec(3, (1, 1)))


# -- canonical-cover verdicts ---------------------------------------------------


def test_star_status_validation():
    status = canonical_star_status(ZeroCore(2, 3, 1, 1), 6)
    assert status.verdict == "Star"
    assert canonical_star_status(ZeroCore(2, 3, 1, 1), 5).verdict == "NotStar"
    with pytest.raises(ValueError):
        StarStatus(True, FinitePi1(None))
    with pytest.raises(ValueError):
        StarStatus(False, PositiveBetti(3))


@pytest.mark.parametrize(
    "link, n, star, kind",
    [
        (ZeroCore(2, 3, 1, 1), 5, False, FinitePi1),
        (ZeroCore(2, 3, 1, 1), 6, True, PositiveBetti),
        (ZeroCore(1, 3, 2, 0), 3, False, Catalog),
        (OneCore(3, 2, 1, 1, -1), 3, True, PositiveBetti),
        (OneCore(2, 3, 1, 1, -1), 3, False, NoCTF_SeifertObstruction),
        (OneCore(2, 3, 1, 1, -1), 4, True, PositiveBetti),
        (ZeroCore(1, 2, 2, 2), 3, False, FinitePi1),
        (ZeroCore(1, 2, 2, 2), 4, True, PositiveBetti),
        (ZeroCore(2, 5, 1, 1), 3, False, FinitePi1),
        (ZeroCore(2, 5, 1, 1), 4, True, PSL2R_Rep),
        (ZeroCore(1, 1, 3, 3), 2, False, FinitePi1),
        (ZeroCore(1, 1, 3, 3), 3, True, PositiveBetti),
        (ZeroCore(1, 2, 2, 0), 3, False, FinitePi1),
        (ZeroCore(1, 2, 2, 0), 4, False, Catalog),
        (OneCore(1, 2, 2, 2, -1), 3, True, PositiveBetti),
        (ZeroCore(1, 1, 3, 1), 5, False, NoCTF_SeifertObstruction),
        (OneCore(1, 3, 2, 0, 1), 4, False, NoCTF_SeifertObstruction),
    ],
)
def test_star_status_examples(link, n, star, kind):
    status = canonical_star_status(link, n)
    assert status.star is star
    assert isinstance(status.evidence, kind)


def test_star_status_details():
    status = canonical_star_status(OneCore(2, 3, 1, 1, -1), 3)
    assert str(status.evidence.invariants) == "(0; 1/3, 2/9, -3/2)"
    status = canonical_star_status(ZeroCore(2, 5, 1, 1), 4)
    assert status.evidence.data.sigma == Fraction(19, 20)
    status = canonical_star_status(ZeroCore(1, 3, 2, 0), 3)
    assert "two-bridge" in status.evidence.note


def test_hopf_covers_are_always_finite():
    for n in range(2, 9):
        status = canonical_star_status(HopfSum(1, 0), n)
        assert not status.star
        assert status.evidence.group.label == f"Z/{n}"


def test_infinite_double_cover_of_an_ade_link_is_a_broken_invariant(
    monkeypatch,
):
    # The double cover of a link that is ADE up to orientation is
    # spherical; an infinite group there is a fault, not a rejected input.
    import seifertlinks.cover as cover

    monkeypatch.setattr(cover, "finite_group", lambda link, n: None)
    with pytest.raises(InvariantViolation):
        canonical_star_status(ZeroCore(2, 3, 1, 1), 2)


def test_star_status_rejections():
    with pytest.raises(NotPrime):
        canonical_star_status(HopfSum(2, 0), 3)
    with pytest.raises(NotPrime):
        canonical_star_status(HopfSum(1, 1), 2)
    with pytest.raises(InvalidParameters):
        canonical_star_status(ZeroCore(2, 3, 1, 1), 1)


def test_evidence_kind_matches_verdict(grid):
    star_kinds = (PositiveBetti, PSL2R_Rep, Catalog)
    not_star_kinds = (FinitePi1, NoCTF_SeifertObstruction, Catalog)
    for link in grid:
        if not is_prime(link):
            continue
        for n in (2, 3, 5):
            status = canonical_star_status(link, n)
            allowed = star_kinds if status.star else not_star_kinds
            assert isinstance(status.evidence, allowed), (link, n)


def test_not_star_with_nonpositive_chi_is_exactly_the_catalog(grid):
    # Failing covers split into finite ones (chi > 0) and the catalogued
    # infinite families; this pins the latter set exactly.
    expected = set()
    for n in range(4, 9):
        expected.add((ZeroCore(1, 2, 2, 0), n))
    for q in range(3, 8):
        for n in range(3, 9):
            expected.add((ZeroCore(1, q, 2, 0), n))
    for n in range(3, 9):
        expected.add((ZeroCore(1, 1, 3, 1), n))
    for q in range(2, 8):
        for n in range(3, 9):
            expected.add((OneCore(1, q, 2, 0, 1), n))
    expected.add((OneCore(2, 3, 1, 1, -1), 3))

    actual = set()
    for link in grid:
        if not is_prime(link):
            continue
        for n in range(2, 9):
            status = canonical_star_status(link, n)
            if not status.star and b_bar(link, n).chi <= 0:
                actual.add((link, n))
    assert actual == expected
