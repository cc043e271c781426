"""Every public call normalizes its link argument once.

One mechanism does it: `normalize` flags the link it returns, and a
flagged link passes through it again in O(1), unchecked and unchanged.
Every public function starts with `link = normalize(link)`, so the inner
calls on a canonical link cost one flag test each.  The only other full
normalizations are of links built fresh inside a call, such as the
positive reorientation of a link outside P.  The tests count the full
normalizations, the calls whose argument is not yet flagged, in process
by wrapping every module binding of `link_model.normalize`.

The cover verdicts, the Alexander invariants and the classification
report go further: each reads its link's view through one `normalize`
call, flagged or not, and makes its checks inline instead of through
other public functions.  One test counts every call.
"""

from __future__ import annotations

import sys
from itertools import product

import pytest

from seifertlinks import (
    TABLE_NAMES,
    CoverSpec,
    HopfSum,
    PSL2R_Rep,
    b_bar,
    canonical_star_status,
    classification_report,
    components,
    cyclotomic_divides,
    fibre_data,
    general_psi_lo,
    genus,
    in_P,
    is_ade_up_to_orientation,
    is_prime,
    link_model,
    normalize,
)
from seifertlinks._record import replace
from seifertlinks.cli import main


def patch_normalize(monkeypatch, replacement):
    """Put `replacement` in place of every module binding of `normalize`."""
    original = link_model.normalize
    for name, module in list(sys.modules.items()):
        if name == "seifertlinks" or name.startswith("seifertlinks."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


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

    patch_normalize(monkeypatch, counted)
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


def test_psi_at_reoriented_weights_normalizes_nothing(grid, normalize_calls):
    # The Betti rung reads the reorientation that weights of 1 and n - 1
    # describe off the view, so no link is built or normalized.  Links not
    # ADE up to orientation stop at the Euler characteristic catalog.
    reached = 0
    for link in grid:
        if isinstance(link, HopfSum) or not is_ade_up_to_orientation(link):
            continue
        for n in range(2, 8):
            for weights in product(sorted({1, n - 1}), repeat=components(link)):
                normalize_calls.clear()
                outcome = general_psi_lo(link, CoverSpec(n, weights))
                assert not normalize_calls, (link, weights)
                reached += not isinstance(getattr(outcome, "evidence", None), PSL2R_Rep)
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


ONE_READ = {
    "b_bar": b_bar,
    "fibre_data": fibre_data,
    "genus": lambda link, n: genus(link),
    "cyclotomic_divides": lambda link, n: cyclotomic_divides(n, link),
    "canonical_star_status": canonical_star_status,
    "classification_report": lambda link, n: classification_report(link),
}


@pytest.mark.parametrize("name", ONE_READ)
def test_a_verdict_reads_its_link_once(grid, monkeypatch, name):
    # Every call counts, flagged or not.  The star verdict of a link that
    # is ADE up to orientation also asks `finite_group`, so it is left out.
    links = [link for link in grid if is_prime(link)]
    if name == "canonical_star_status":
        links = [link for link in links if not is_ade_up_to_orientation(link)]
    assert len(links) > 1000
    original = link_model.normalize
    calls = []

    def counted(link):
        calls.append(link)
        return original(link)

    patch_normalize(monkeypatch, counted)
    verdict = ONE_READ[name]
    for link in links:
        for n in range(2, 13):
            calls.clear()
            verdict(link, n)
            assert len(calls) == 1, (link, n, len(calls))
