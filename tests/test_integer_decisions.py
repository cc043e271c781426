"""Finiteness and the canonical cover verdict are decided in integers.

`finite_group` reads the sign of the integer numerator of chi, so it
builds no `Fraction` in `orbifold`; `canonical_star_status` reads the
canonical weights off the view as (weight, count) runs, so it builds no
`CoverSpec`.  The tests patch each constructor to fail and compare the
answers over the prime grid links with `repr`s taken before patching.
The rotation witness tests sigma*npq of the cover and of its reflection
in integers and returns the winning side's record in integers: one
record per `PSL2R_Rep` verdict and none otherwise, whose sigma and
angles are built, once each, only when read.  So no verdict but the
catalogued non-foliation certificate builds a `Fraction` in `cover`.

The k equal exponents of Delta and the k equal cone orders of the
cover's base are each held once with their count, and finiteness is read
off the view, so the genus, the determinant where 1 + t divides Delta,
cyclotomic divisibility, the finite group, the fibre data, the base
orbifold's chi and geometry, the classification report and the star
verdict with its witness's sigma and r are answered for k = 10^11 fibre
copies, in memory that does not grow with k.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from seifertlinks import (
    ClassificationReport,
    FibreCoverData,
    HopfSum,
    NoCTF_SeifertObstruction,
    OneCore,
    PSL2R_Rep,
    StrictlyLessThanGenus,
    TwoCore,
    ZeroCore,
    b_bar,
    canonical_star_status,
    canonical_weights,
    classification_report,
    cover,
    cyclotomic_divides,
    determinant,
    fibre_data,
    finite_group,
    general_psi_lo,
    genus,
    is_ade_up_to_orientation,
    is_prime,
    orbifold,
)

LEVELS = range(2, 13)


def unreachable(*args, **kwargs):
    raise AssertionError(f"constructor called with {args!r}")


@pytest.fixture(scope="module")
def prime_links(grid):
    return [link for link in grid if is_prime(link)]


def answers(function, links):
    return [repr(function(link, n)) for link in links for n in LEVELS]


def test_finite_group_builds_no_fraction(prime_links, monkeypatch):
    expected = answers(finite_group, prime_links)
    monkeypatch.setattr(orbifold, "Fraction", unreachable)
    assert answers(finite_group, prime_links) == expected


def test_star_status_builds_no_cover_spec(prime_links, monkeypatch):
    expected = answers(canonical_star_status, prime_links)
    monkeypatch.setattr(cover, "CoverSpec", unreachable)
    assert answers(canonical_star_status, prime_links) == expected


def deciders(link, n):
    """The star verdict and, on a core link, the one-sided test at the
    canonical weights, each as a call that decides afresh."""
    yield lambda: canonical_star_status(link, n)
    if not isinstance(link, HopfSum):
        yield lambda: general_psi_lo(link, canonical_weights(link, n))


def test_only_the_returned_witness_builds_angles(prime_links, monkeypatch):
    # `_jn_record` is the one place that builds a witness record.
    built = []
    record = cover._jn_record

    def counted(*args):
        built.append(args)
        return record(*args)

    monkeypatch.setattr(cover, "_jn_record", counted)
    witnesses = 0
    for link in prime_links:
        for n in LEVELS:
            for decide in deciders(link, n):
                built.clear()
                verdict = decide()
                evidence = getattr(verdict, "evidence", None)  # Inconclusive has none
                expected = isinstance(evidence, PSL2R_Rep)
                assert len(built) == expected, (link, n, verdict)
                witnesses += expected
    assert witnesses > 1000


def test_verdicts_build_no_angle(prime_links, monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(cover, "Fraction", counted)
    witnesses = 0
    for link in prime_links:
        for n in LEVELS:
            for decide in deciders(link, n):
                built.clear()
                verdict = decide()
                evidence = getattr(verdict, "evidence", None)  # Inconclusive has none
                if isinstance(evidence, NoCTF_SeifertObstruction):
                    continue  # the catalog builds its invariants
                assert not built, (link, n, verdict)
                if isinstance(evidence, PSL2R_Rep):
                    thetas = evidence.data.thetas
                    once = len(built)
                    assert once and evidence.data.thetas is thetas
                    assert len(built) == once, (link, n, verdict)
                    witnesses += 1
    assert witnesses > 1000


def base_chi(link, n):
    return b_bar(link, n).chi


def base_geometry(link, n):
    return b_bar(link, n).geometry


def base_counted(link, n):
    return b_bar(link, n).counted


def base_cases(link, k, cores):
    """The base orbifold at n = 2, 3, 7 against its closed form: k cones of
    order n and the core orders a, b (an order 1 is no cone point), so
    chi = 1/a + 1/b + k/n - k."""
    for n in (2, 3, 7):
        a, b = cores(n)
        chi = Fraction(1, a) + Fraction(1, b) + Fraction(k, n) - k
        counts = Counter({n: k})
        counts.update(order for order in (a, b) if order > 1)
        sign = (chi > 0) - (chi < 0)
        geometry = {1: "spherical", 0: "euclidean", -1: "hyperbolic"}[sign]
        yield link, base_chi, (link, n), chi
        yield link, base_geometry, (link, n), geometry
        yield link, base_counted, (link, n), tuple(sorted(counts.items()))


def star_witness(link, n):
    status = canonical_star_status(link, n)
    data = status.evidence.data
    return status.verdict, type(status.evidence), data.r, data.sigma


def many_copies(k):
    """(link, function, args, closed-form value) of every verdict that
    must not grow with k, on three links with k (odd) fibre copies.

    Per link: the genus, whether Phi_n divides Delta for n = 2, 3, 5, 6,
    the determinant, the fibre data at n = 3, and the base orbifold's chi,
    geometry and counted cone points at n = 2, 3, 7.  On L(2,3;k,1) also
    the star verdict at n = 3 with its witness's r and sigma."""
    shapes = [
        # s = 6; Delta = (1 - t)(1 - t^6)^k / ((1 - t^2)(1 - t^3)).
        (ZeroCore(2, 3, k, 1), (5 * k - 3) // 2, (1, 1, 0, 1), 0, (6, 1, 3)),
        # s = 8; Delta = (1 - t)(1 - t^8)^k / (1 - t^4).
        (OneCore(2, 3, k, 1, 1), (7 * k - 3) // 2, (1, 0, 0, 0), 0, (8, 3, 1)),
        # s = 3; Delta = (1 - t)(1 - t^3)^k.  1 + t does not divide it, so
        # the determinant is 2^(k + 1), an answer of k bits, and is left out.
        (TwoCore(2, 5, k, 1, -1, -1), k, (0, 1, 0, 0), None, (3, 1, 3)),
    ]
    # The core orders at index n: q and p, times n at a core.
    core_orders = [lambda n: (3, 2), lambda n: (3 * n, 2), lambda n: (5 * n, 2 * n)]
    cases = []
    for (link, g, divides, det, fibre), cores in zip(shapes, core_orders):
        cases += base_cases(link, k, cores)
        cases.append((link, genus, (link,), g))
        cases += [
            (link, cyclotomic_divides, (n, link), bool(answer))
            for n, answer in zip((2, 3, 5, 6), divides)
        ]
        if det is not None:
            cases.append((link, determinant, (link,), det))
        cases += [(link, finite_group, (link, n), None) for n in (2, 3)]
        cases.append((link, is_ade_up_to_orientation, (link,), False))
        cases.append((link, fibre_data, (link, 3), FibreCoverData(*fibre)))
        report = ClassificationReport(
            is_prime=True,
            is_fibred=True,
            in_P=False,
            is_braid_positive=False,
            is_sqp=False,
            is_genus_zero=False,
            g4_equals_g=False,
            genus=g,
            g4=StrictlyLessThanGenus(),
            is_definite=False,
            dynkin=None,
            ade_up_to_orientation=False,
        )
        cases.append((link, classification_report, (link,), report))
    # (k + 1)/2 copies of angle 1/3 and (k - 1)/2 of 2/3, and 1/3 and 1/2
    # from the exceptional fibres: sigma = (3k + 4)/6 over k + 2 angles.
    link = shapes[0][0]
    witness = ("Star", PSL2R_Rep, k + 2, Fraction(3 * k + 4, 6))
    cases.append((link, star_witness, (link, 3), witness))
    return cases


def test_verdicts_at_a_hundred_billion_copies():
    for link, function, args, expected in many_copies(99_999_999_999):
        assert function(*args) == expected, (link, function.__name__)
    assert genus(ZeroCore(2, 3, 99_999_999_999, 1)) == 249_999_999_996


def test_verdict_memory_does_not_grow_with_k():
    cases = many_copies(10**7 + 1)
    tracemalloc.start()
    try:
        for link, function, args, expected in cases:
            assert function(*args) == expected, (link, function.__name__)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
