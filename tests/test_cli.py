"""Command-line surface: notation parsing, the three subcommands, their
JSON payloads, and exit codes."""

import json
import os
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

import seifertlinks
from conftest import raw_core_links
from seifertlinks import (
    HopfSum,
    InvariantViolation,
    LinkSyntaxError,
    NotInCatalog,
    OneCore,
    TwoCore,
    UnknownAlias,
    ZeroCore,
    finite_group,
    is_prime,
    nlo_seifert_invariants,
    render,
)
from seifertlinks.cli import main, parse_link

CLASSIFY_KEYS = {
    "link", "normalized", "alias", "components", "is_prime", "is_fibred",
    "in_P", "is_braid_positive", "is_sqp", "is_genus_zero", "g4_equals_g",
    "genus", "g4", "is_definite", "dynkin", "ade_up_to_orientation",
    "alexander", "determinant", "citations",
}
COVER_KEYS = {
    "link", "normalized", "alias", "n", "base_orbifold", "fibre",
    "cover_base_chi", "cover_base_orbifold", "pi1_finite", "finite_group",
    "verdict", "evidence", "seifert_invariants", "citations",
}
WEIGHTED_KEYS = {
    "link", "normalized", "alias", "n", "weights", "jn", "jn_lo_sufficient",
    "outcome", "evidence", "citations",
}


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


# -- notation parsing -----------------------------------------------------------


@pytest.mark.parametrize(
    "text, link",
    [
        ("L(2,3;1,1)", ZeroCore(2, 3, 1, 1)),
        ("L(4,7;3,1;-)", OneCore(4, 7, 3, 1, -1)),
        ("L(2,3;2,0;+,-)", TwoCore(2, 3, 2, 0, 1, -1)),
        ("L( 2 , 3 ; 1 , -1 )", ZeroCore(2, 3, 1, -1)),
        ("#2 H+ # 1 H-", HopfSum(2, 1)),
        ("#3H+", HopfSum(3, 0)),
        ("#1H-", HopfSum(0, 1)),
        ("L(2,3;1,+1)", ZeroCore(2, 3, 1, 1)),
    ],
)
def test_parse_link_notation(text, link):
    assert parse_link(text) == link


def test_parse_round_trips_renders(grid):
    # Canonical links and every raw presentation of the box, canonical or
    # not: `render` writes any valid link, and the parser reads it back.
    for link in [*grid, *raw_core_links(7, 6)]:
        assert parse_link(render(link)) == link


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("L(1,1", "expected ';'", 5),
        ("L(2,3;1,1;*)", "expected '+' or '-'", 10),
        ("Q(2,3)", "expected link notation", 0),
        ("#2H*", "expected '+' or '-'", 3),
        ("L(2,3;1,1) extra", "unexpected trailing text", 11),
        ("L(a,3;1,1)", "expected an integer", 2),
        ("L(\u00b2,3;1,1)", "expected an integer", 2),
        ("L(2,3;1,- 1)", "expected an integer", 8),
    ],
)
def test_parse_errors_carry_positions(text, message, position):
    with pytest.raises(LinkSyntaxError) as info:
        parse_link(text)
    assert info.value.position == position
    assert message in str(info.value)


def test_parse_resolves_aliases():
    assert parse_link("T(3,4)") == ZeroCore(3, 4, 1, 1)
    assert parse_link("P(-2,2,6)'") == OneCore(1, 3, 2, 0, 1)
    assert parse_link("P(-2,3,4)") == OneCore(3, 2, 1, 1, 1)
    with pytest.raises(UnknownAlias):
        parse_link("T(1,1)")


# -- classify ---------------------------------------------------------------------


def test_classify_json_payload(capsys):
    payload = run_json(capsys, ["classify", "T(2,3)", "--json"])
    assert set(payload) == CLASSIFY_KEYS
    assert payload["normalized"] == "L(2,3;1,1)"
    assert payload["alias"] == "T(2,3)"
    assert payload["components"] == 1
    assert payload["dynkin"] == "A2"
    assert payload["is_braid_positive"] and payload["is_definite"]
    assert payload["alexander"] == [
        {"exp": 0, "coef": 1},
        {"exp": 1, "coef": -1},
        {"exp": 2, "coef": 1},
    ]
    assert payload["determinant"] == 3
    assert payload["g4"] == {"kind": "known", "value": 1}
    assert payload["citations"]


def test_classify_json_unknown_four_genus(capsys):
    payload = run_json(capsys, ["classify", "L(2,3;3,1)", "--json"])
    assert payload["g4"] == {"kind": "strictly_less_than_genus"}
    assert not payload["g4_equals_g"]
    assert payload["alias"] is None and payload["dynkin"] is None


def test_classify_text_output(capsys):
    assert main(["classify", "T(2,3)"]) == 0
    out = capsys.readouterr().out
    rows = dict(
        (line[:24].strip(), line[24:].strip().split("  ")[0].strip())
        for line in out.splitlines()
    )
    assert rows["normalized"] == "L(2,3;1,1)"
    assert rows["dynkin type"] == "A2"
    assert rows["genus"] == "1"
    assert rows["braid positive"] == "yes"
    assert rows["alexander"] == "1 - t + t^2"


def test_classify_composite_hopf(capsys):
    payload = run_json(capsys, ["classify", "#2H+", "--json"])
    assert not payload["is_prime"]
    assert not payload["ade_up_to_orientation"]
    assert payload["genus"] == 0


# -- cover ------------------------------------------------------------------------


def test_cover_json_payload(capsys):
    payload = run_json(capsys, ["cover", "T(2,3)", "--n", "5", "--json"])
    assert set(payload) == COVER_KEYS
    assert payload["base_orbifold"] == {
        "cone_orders": [2, 3, 5],
        "chi": {"num": 1, "den": 30},
        "geometry": "spherical",
    }
    assert payload["fibre"] == {"s": 6, "r": 5, "cover_degree": 1}
    assert payload["pi1_finite"] is True
    assert payload["finite_group"] == {"label": "I*", "order": 120, "h1_order": 1}
    assert payload["verdict"] == "NotStar"
    assert payload["evidence"]["kind"] == "finite_pi1"
    assert payload["seifert_invariants"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", " T(2,3)\t", "--json"],
        ["cover", " T(2,3) ", "--n", "5", "--json"],
        ["cover", " T(2,3) ", "--n", "5", "--weights", "1", "--json"],
    ],
)
def test_json_link_is_stripped_like_the_text(capsys, argv):
    assert run_json(capsys, argv)["link"] == "T(2,3)"
    assert main([arg for arg in argv if arg != "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["link", "T(2,3)"]


def test_cover_json_noctf_case(capsys):
    payload = run_json(capsys, ["cover", "L(2,3;1,1;-)", "--n", "3", "--json"])
    assert payload["verdict"] == "NotStar"
    assert payload["evidence"]["kind"] == "no_ctf_seifert_obstruction"
    assert payload["evidence"]["invariants"] == {
        "e0": 0,
        "coefficients": [
            {"num": 1, "den": 3},
            {"num": 2, "den": 9},
            {"num": -3, "den": 2},
        ],
    }
    assert payload["pi1_finite"] is False and payload["finite_group"] is None


def test_cover_json_reads_group_and_invariants_off_the_verdict(grid, monkeypatch):
    # The command takes the group and the certificate from the verdict's
    # evidence; they must be what the two public lookups return.  The
    # `--json` object is caught before encoding, and the command is called
    # without the parser, to keep the sweep fast.
    import seifertlinks.cli as cli

    payloads = []
    monkeypatch.setattr(
        cli, "_emit", lambda record, as_json: payloads.append(cli._json_object(record))
    )
    for link in grid:
        if not is_prime(link):
            continue
        for n in range(2, 13):
            cli._cmd_cover(Namespace(link=render(link), n=n, weights=None, json=True))
            payload = payloads.pop()
            try:
                invariants = nlo_seifert_invariants(link, n)
            except NotInCatalog:
                invariants = None
            assert payload["finite_group"] == finite_group(link, n), (link, n)
            assert payload["seifert_invariants"] == invariants, (link, n)


def test_cover_json_star_case(capsys):
    payload = run_json(capsys, ["cover", "T(2,3)", "--n", "6", "--json"])
    assert payload["verdict"] == "Star"
    assert payload["evidence"] == {"kind": "positive_betti", "n": 6}
    assert payload["cover_base_chi"] == {"num": 0, "den": 1}


def test_cover_base_when_fibration_unwraps(capsys):
    # The cover's base has Euler characteristic cover_degree * chi; the base
    # orbifold itself is reported only when the fibre does not unwrap (r = n).
    for text, n, total_chi, unwrapped in [
        ("T(2,3)", 5, {"num": 1, "den": 30}, [2, 3, 5]),
        ("T(2,3)", 6, {"num": 0, "den": 1}, None),
        ("L(1,1;4,4)", 2, {"num": 0, "den": 1}, None),
    ]:
        payload = run_json(capsys, ["cover", text, "--n", str(n), "--json"])
        assert payload["cover_base_chi"] == total_chi, (text, n)
        assert payload["cover_base_orbifold"] == unwrapped, (text, n)


def test_cover_text_output(capsys):
    assert main(["cover", "P(-2,2,4)'", "--n", "7"]) == 0
    out = capsys.readouterr().out
    assert "base orbifold  S2(7,7,14)" in out
    assert "chi            -9/14" in out
    assert "fibre          s = 1, r = 7, cover degree = 1" in out
    assert "verdict        NotStar" in out
    assert "seifert data   (0; -1/7, 1/7, -1/14)" in out


def test_cover_weighted_json(capsys):
    payload = run_json(
        capsys,
        ["cover", "L(2,5;1,1;-)", "--n", "5", "--weights", "1,4", "--json"],
    )
    assert set(payload) == WEIGHTED_KEYS
    assert payload["jn"]["sigma"] == {"num": 43, "den": 50}
    assert payload["jn"]["r"] == 3
    assert payload["jn_lo_sufficient"] is True
    assert payload["outcome"] == "left-orderable"
    assert payload["evidence"]["kind"] == "psl2r_rep"


def test_cover_weighted_inconclusive(capsys):
    payload = run_json(
        capsys,
        ["cover", "L(1,2;2,0;+)", "--n", "3", "--weights", "1,2,1", "--json"],
    )
    assert payload["outcome"] == "inconclusive"
    assert payload["evidence"] is None


def test_cover_weighted_text(capsys):
    code = main(["cover", "L(2,3;1,1;-)", "--n", "3", "--weights", "1,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sigma       19/18" in out
    assert "r           3" in out
    assert "outcome     inconclusive" in out


# -- tables -----------------------------------------------------------------------


def test_table_names_and_sizes(capsys):
    for name, rows in [
        ("ade-2fold", 24),
        ("spherical", 27),
        ("euclidean", 6),
        ("higher-finite", 15),
        ("canonical-status", 43),
    ]:
        payload = run_json(capsys, ["table", name, "--json"])
        assert payload["table"] == name
        assert len(payload["rows"]) == rows


def test_table_text_output(capsys):
    assert main(["table", "ade-2fold"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["type", "link", "alias", "pi1(Sigma_2)", "order", "det"]
    assert len(out) == 26  # header, rule, 24 rows


def test_canonical_status_table_shape(capsys):
    payload = run_json(capsys, ["table", "canonical-status", "--json"])
    hopf = payload["rows"][0]
    assert hopf["alias"] == "T(2,2)"
    statuses = hopf["statuses"]
    assert [s["n"] for s in statuses] == list(range(2, 13))
    assert all(s["verdict"] == "NotStar" for s in statuses)
    trefoil = next(r for r in payload["rows"] if r["alias"] == "T(2,3)")
    verdicts = [s["verdict"] for s in trefoil["statuses"]]
    assert verdicts[:4] == ["NotStar"] * 4 and set(verdicts[4:]) == {"Star"}


# -- exit codes ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "L(1,1"],
        ["classify", "L(2,4;1,1)"],
        ["classify", "T(1,5)"],
        ["cover", "#2H+", "--n", "3"],
        ["cover", "T(2,3)", "--n", "1"],
        ["cover", "T(2,3)", "--n", "3", "--weights", "1,1"],
        ["table", "nope"],
        ["cover", "T(2,3)", "--n", "3", "--weights", "a"],
        ["cover", "T(2,3)", "--n", "3", "--weights", "1,,2"],
        ["cover", "T(2,3)", "--n", "3", "--weights", ""],
        ["cover", "T(2,3)", "--n", "3", "--weights", "1.5"],
        ["classify", "L(\u00b2,3;1,1)"],
        ["classify", "L(\uff12,3;1,1)"],
        ["classify", "#\u00b9 H+"],
        ["cover", "T(2,3)", "--n", "11", "--weights", "1_0"],
        ["cover", "T(2,3)", "--n", "11", "--weights", "\uff15"],
        ["cover", "T(2,3)", "--n", "11", "--weights", " 5"],
        # A negative summand count, hidden in a total that is not negative
        ["classify", "#2H+#-1H+"],
    ],
)
def test_rejected_input_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("text", ["#-1H+", "#1H+ #-1H- #1H-"])
def test_negative_hopf_count_is_rejected_per_summand(capsys, text):
    # One message, whether the totals show the negative count or hide it.
    assert main(["classify", text]) == 2
    assert capsys.readouterr().err == (
        "error: Hopf summand counts must be non-negative\n"
    )


@pytest.mark.parametrize("n", ["abc", "\uff15", "\u00b3", "1_0", " 5", "5 ", "+-5"])
def test_malformed_cover_index_is_usage_error(capsys, n):
    # argparse rejects its own arguments by exiting, code 2.
    with pytest.raises(SystemExit) as stop:
        main(["cover", "T(2,3)", "--n", n])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --n: expected an integer" in captured.err
    assert captured.out == ""


def test_parse_error_message_example(capsys):
    assert main(["classify", "L(1,1"]) == 2
    assert capsys.readouterr().err.strip() == "error: expected ';' (at position 5)"


def test_internal_failure_exits_3(capsys, monkeypatch):
    import seifertlinks.cli as cli

    def boom(link):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "classification_report", boom)
    assert main(["classify", "T(2,3)"]) == 3
    assert capsys.readouterr().err == "internal error: synthetic failure\n"

    def exhausted(link):
        raise MemoryError()

    # An exception without a message is reported by its class name.
    monkeypatch.setattr(cli, "classification_report", exhausted)
    assert main(["classify", "T(2,3)"]) == 3
    assert capsys.readouterr().err == "internal error: MemoryError\n"


def terms(*pairs):
    """The JSON form of Delta's terms."""
    return [{"exp": exp, "coef": coef} for exp, coef in pairs]


@pytest.mark.parametrize(
    "argv, key, expected",
    [
        (["cover", "T(2,5)", "--n", "55440"], "verdict", "Star"),
        (["cover", "T(2,5)", "--n", "720720"], "verdict", "Star"),
        # genus (1 + 3(3*101*103 - 204) - 3 + 1) / 2 of a 41,612-term Delta
        (["classify", "L(101,103;3,3)"], "genus", 46507),
        # Sparse Delta of large breadth: (1 - t)(1 - t^W), W = pq + p + q
        (
            ["classify", "L(10007,10009;1,1;+,+)"],
            "alexander",
            terms((0, 1), (1, -1), (100180079, -1), (100180080, 1)),
        ),
        # (1 - t)(1 - t^2W)/(1 - t^W) = (1 - t)(1 + t^W), W = q + 1
        (
            ["classify", "L(2,99999999999;1,1;+)"],
            "alexander",
            terms((0, 1), (1, -1), (10**11, 1), (10**11 + 1, -1)),
        ),
    ],
)
def test_large_inputs_answer_in_bounded_time(capsys, argv, key, expected):
    start = time.process_time()
    payload = run_json(capsys, argv + ["--json"])
    assert time.process_time() - start < 5
    assert payload[key] == expected


def test_cover_with_a_huge_index_keeps_the_exact_chi(capsys):
    assert main(["cover", "T(2,3)", "--n", "99999999999999999999"]) == 0
    rows = dict(
        line.split(None, 1) for line in capsys.readouterr().out.splitlines()
    )
    assert rows["chi"] == (
        "-33333333333333333331/199999999999999999998  (hyperbolic)"
    )


def test_broken_invariant_exits_3(capsys, monkeypatch):
    # Invariants are checks that raise, not asserts `python -O` strips.
    import seifertlinks.tables as tables

    monkeypatch.setattr(tables, "finite_group", lambda link, n: None)
    with pytest.raises(InvariantViolation, match="infinite group"):
        tables.ade_two_fold_rows()
    assert main(["table", "ade-2fold"]) == 3
    assert capsys.readouterr().err.startswith("internal error: infinite group")


def test_infinite_ade_double_cover_exits_3(capsys, monkeypatch):
    # The verdict's own group check fails, not the input.
    import seifertlinks.cover as cover

    monkeypatch.setattr(cover, "finite_group", lambda link, n: None)
    assert main(["cover", "T(2,3)", "--n", "2"]) == 3
    assert capsys.readouterr().err.startswith("internal error: infinite group")


def test_non_ade_spherical_double_cover_exits_3(capsys, monkeypatch):
    # The guard of `finite_group` fails below the verdict's own check.
    import seifertlinks.orbifold as orbifold

    monkeypatch.setattr(orbifold, "is_ade", lambda link: None)
    assert main(["cover", "T(2,3)", "--n", "2"]) == 3
    assert capsys.readouterr().err.startswith(
        "internal error: spherical double cover of non-ADE"
    )


def test_closed_stdout_exits_1_without_a_message():
    # As `| head -c 10` does: the reader closes the pipe while the long
    # Alexander polynomial is still being written.
    env = {**os.environ, "PYTHONPATH": str(Path(seifertlinks.__file__).parent.parent)}
    child = subprocess.Popen(
        [sys.executable, "-m", "seifertlinks", "classify", "L(101,103;3,3)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
    finally:
        child.kill()
        child.wait()
        child.stderr.close()
    assert err == b""


def test_closed_captured_stdout_exits_1(capsys, monkeypatch):
    # With no descriptor behind stdout there is nothing to redirect.
    import seifertlinks.cli as cli

    def closed(link):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "classification_report", closed)
    assert main(["classify", "T(2,3)"]) == 1
    assert capsys.readouterr().err == ""


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_main_calls_share_one_parser(capsys):
    import seifertlinks.cli as cli

    parser = cli._build_parser()
    built = cli._build_parser.cache_info().misses
    argv = ["cover", "T(2,3)", "--n", "7"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == built
    assert outputs[0] == outputs[1]


def test_in_process_main_leaves_the_heap_unfrozen(capsys):
    # Only `python -m seifertlinks` freezes the heap, on its way out.
    import gc

    frozen = gc.get_freeze_count()
    assert main(["classify", "T(2,3)"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


# -- the module entry point -----------------------------------------------------
#
# One interpreter per case: `__main__` raises `SystemExit` and freezes the
# heap, which only a process of its own may do.


def run_module(argv, code=None):
    """Run `python -m seifertlinks ARGV`, or `python -c CODE` with ARGV as
    its arguments, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(seifertlinks.__file__).parent.parent)}
    head = ["-m", "seifertlinks"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *head, *argv],
        env=env,
        capture_output=True,
        timeout=60,
    )


def test_module_exit_runs_atexit_handlers():
    # The exit path stays the normal one: a shortcut such as `os._exit`
    # would skip `atexit`, and with it the reports of coverage and profilers.
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
        "runpy.run_module('seifertlinks', run_name='__main__', alter_sys=True)\n"
    )
    result = run_module(["classify", "T(2,3)"], code)
    assert result.returncode == 0, result.stderr
    assert result.stderr == b"atexit ran\n"
    assert result.stdout.startswith(b"link ")


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["cover", "T(2,3)", "--n", "abc"], 2)],
)
def test_module_exit_codes_of_argparse(argv, code):
    result = run_module(argv)
    assert result.returncode == code, result.stderr
    assert (result.stdout if code == 0 else result.stderr).startswith(b"usage: ")


def test_module_output_matches_in_process_main(capsys):
    argv = ["cover", "T(2,3)", "--n", "7", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    result = run_module(argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected
