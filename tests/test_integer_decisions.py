"""Finiteness and the canonical cover verdict are decided in integers.

`finite_group` reads the sign of the integer numerator of chi, so it
builds no `Fraction` in `orbifold`; `canonical_star_status` takes the
canonical weights as a tuple, so it builds no `CoverSpec`.  The tests
patch each constructor to fail and compare the answers over the prime
grid links with `repr`s taken before patching.  The rotation witness
tests sigma*npq of the cover and of its reflection in integers, so the
angle list is built once per `PSL2R_Rep` verdict and never otherwise.
"""

from __future__ import annotations

import pytest

from seifertlinks import (
    HopfSum,
    PSL2R_Rep,
    canonical_star_status,
    canonical_weights,
    cover,
    finite_group,
    general_psi_lo,
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
    built = []
    angles = cover._angles

    def counted(*args):
        built.append(args)
        return angles(*args)

    monkeypatch.setattr(cover, "_angles", counted)
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
