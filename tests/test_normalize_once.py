"""Every public call normalizes its link argument once.

One mechanism does it: `normalize` flags the link it returns, and a
flagged link passes through it again in O(1), unchecked and unchanged.
Every public function starts with `link = normalize(link)`, so the inner
calls on a canonical link cost one flag test each.  The only other full
normalizations are of links built fresh inside a call, such as the
positive reorientation of a link outside P.  The tests count the full
normalizations, the calls whose argument is not yet flagged, in process
by wrapping every module binding of `link_model.normalize`.
"""

from __future__ import annotations

import sys

import pytest

from seifertlinks import (
    TABLE_NAMES,
    HopfSum,
    canonical_star_status,
    canonical_weights,
    classification_report,
    cover,
    general_psi_lo,
    in_P,
    is_prime,
    link_model,
    normalize,
)
from seifertlinks._record import replace
from seifertlinks.cli import main


@pytest.fixture
def normalize_calls(monkeypatch):
    """(argument, result) of every full `normalize` call, one whose
    argument is not flagged canonical, in call order."""
    original = link_model.normalize
    calls = []

    def counted(link):
        if link._canonical:
            return original(link)
        calls.append((link, None))
        result = original(link)
        calls[-1] = (link, result)
        return result

    for name, module in list(sys.modules.items()):
        if name == "seifertlinks" or name.startswith("seifertlinks."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def renormalized(calls):
    """Arguments of calls that were handed the result of an earlier call."""
    results = []
    again = []
    for argument, result in calls:
        if any(argument is earlier for earlier in results):
            again.append(argument)
        results.append(result)
    return again


IN_P = [
    ["classify", "T(2,3)"],
    ["classify", "L(2,3;1,1)", "--json"],
    ["cover", "T(2,3)", "--n", "7"],
    ["cover", "T(2,5)", "--n", "3", "--json"],
    ["cover", "T(2,3)", "--n", "7", "--weights", "3"],
]
OUTSIDE_P = [
    ["classify", "#1 H+ # 2 H-"],
    ["classify", "L(2,3;2,0;+,-)"],
    ["cover", "L(2,3;2,0;+,-)", "--n", "2"],
    ["cover", "L(2,5;3,1;-)", "--n", "4", "--json"],
    ["cover", "L(2,3;1,1;-)", "--n", "5", "--weights", "1,4"],
]
TABLES = [["table", name] for name in TABLE_NAMES]


@pytest.mark.parametrize("argv", IN_P)
def test_cli_commands_normalize_once(normalize_calls, capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()
    assert len(normalize_calls) == 1


@pytest.mark.parametrize("argv", IN_P + OUTSIDE_P + TABLES)
def test_cli_commands_never_renormalize(normalize_calls, capsys, argv):
    # Outside P the verdicts reorient the link; only those fresh links
    # are normalized after the first call.  A table normalizes each of its
    # candidate links once.
    assert main(argv) == 0
    capsys.readouterr()
    assert not renormalized(normalize_calls)


def test_star_status_normalizes_positive_links_once(grid, normalize_calls):
    positive = [link for link in grid if is_prime(link) and in_P(link)]
    assert len(positive) > 100
    for link in positive:
        for n in range(2, 13):
            normalize_calls.clear()
            canonical_star_status(replace(link), n)
            assert len(normalize_calls) == 1, (link, n)


def test_no_call_renormalizes_a_canonical_link(grid, normalize_calls):
    for link in grid:
        normalize_calls.clear()
        classification_report(replace(link))
        assert not renormalized(normalize_calls), link
        if not is_prime(link):
            continue
        for n in range(2, 13):
            normalize_calls.clear()
            unflagged = replace(link)
            canonical_star_status(unflagged, n)
            assert normalize_calls[0][0] is unflagged, (link, n)
            assert not renormalized(normalize_calls), (link, n)


def test_psi_at_canonical_weights_rebuilds_no_link(grid, normalize_calls, monkeypatch):
    # At the Betti rung `general_psi_lo` rebuilds the link its weights
    # describe.  At the canonical weights that is the link itself, except
    # at n = 2 outside P, where 1 = n - 1 and the weights describe the
    # positive reorientation.
    betti_tests = []
    divides = cover.cyclotomic_divides

    def counted(n, link):
        betti_tests.append(link)
        return divides(n, link)

    monkeypatch.setattr(cover, "cyclotomic_divides", counted)
    reached = 0
    for link in grid:
        if isinstance(link, HopfSum) or not is_prime(link):
            continue
        for n in range(2 if in_P(link) else 3, 8):
            spec = canonical_weights(link, n)
            betti_tests.clear()
            normalize_calls.clear()
            general_psi_lo(link, spec)
            assert not normalize_calls, (link, n)
            if betti_tests:
                assert betti_tests == [link], (link, n)
                reached += 1
    assert reached > 50


def test_a_canonical_link_passes_through_normalize_unchecked(grid, monkeypatch):
    # A grid link came out of `normalize`, so it comes back as the same
    # object without being validated again.  Without the flag it would be
    # validated, and `unreachable` would fail the test.
    def unreachable(link):
        raise AssertionError(f"{link!r} was checked again")

    monkeypatch.setattr(link_model, "_validate", unreachable)
    for link in grid:
        assert normalize(link) is link
