"""Finiteness and the canonical cover verdict are decided in integers.

`finite_group` reads the sign of the integer numerator of chi, so it
builds no `Fraction` in `orbifold`; `canonical_star_status` takes the
canonical weights as a tuple, so it builds no `CoverSpec`.  The tests
patch each constructor to fail and compare the answers over the prime
grid links with `repr`s taken before patching.
"""

from __future__ import annotations

import pytest

from seifertlinks import (
    canonical_star_status,
    cover,
    finite_group,
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
