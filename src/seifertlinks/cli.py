"""Command-line interface: classify links, analyse branched covers, and
print the reference tables.

Exit codes: 0 success, 1 standard output closed by its reader before
the answer was written (as by `| head`), 2 rejected input (syntax,
parameters, unknown names), 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Any, Optional

from . import tables
from ._record import Row
from .alexander import delta, determinant
from .classify import (
    DynkinType,
    Known,
    StrictlyLessThanGenus,
    classification_report,
)
from .cover import (
    Catalog,
    CoverSpec,
    FinitePi1,
    LO,
    NoCTF_SeifertObstruction,
    PSL2R_Rep,
    PositiveBetti,
    canonical_star_status,
    general_psi_lo,
    jn_data,
    jn_lo_sufficient,
)
from .errors import InvalidParameters, LinkInputError, LinkSyntaxError
from .laurent import LaurentPoly
from .link_model import (
    HopfSum,
    OneCore,
    SeifertLink,
    TwoCore,
    ZeroCore,
    _alias_to_raw_link,
    alias,
    components,
    normalize,
    render,
)
from .orbifold import (
    ConeOrbifold,
    FiniteGroupTag,
    b_bar,
    fibre_data,
)

_CLASSIFY_CITATIONS = (
    "splice formulas for one-variable Alexander polynomials of Seifert links",
    "orientation catalog of braid-positive, quasipositive, and definite "
    "Seifert links",
    "simply laced plumbing catalog of definite Seifert links",
)
_COVER_CITATIONS = (
    "Seifert fibred structure of cyclic covers branched over Seifert links",
    "orbifold Euler characteristic test for finiteness of branched-cover "
    "fundamental groups",
    "rotation-number criterion for left-orderable lifts of PSL(2,R) "
    "representations",
    "Seifert-invariant obstruction to co-oriented taut foliations",
)
_TABLE_CITATIONS = (
    "catalog tables of spherical and Euclidean cyclic branched covers of "
    "Seifert links",
)


# -- link notation parser ------------------------------------------------------

# Every integer the CLI reads, in link notation, `--n` or `--weights`: an
# optional sign and ASCII digits.  (`str.isdigit` and `int` also take
# superscripts, other scripts' digits, underscores and surrounding blanks.)
_INTEGER = re.compile(r"[+-]?[0-9]+")


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise LinkSyntaxError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def integer(self) -> int:
        self.skip_ws()
        match = _INTEGER.match(self.text, self.pos)
        if match is None:
            raise LinkSyntaxError("expected an integer", self.pos)
        self.pos = match.end()
        return int(match.group())

    def sign(self) -> int:
        ch = self.peek()
        if ch not in ("+", "-"):
            raise LinkSyntaxError("expected '+' or '-'", self.pos)
        self.pos += 1
        return 1 if ch == "+" else -1

    def end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise LinkSyntaxError("unexpected trailing text", self.pos)


def _parse_core(scanner: _Scanner) -> SeifertLink:
    scanner.expect("L")
    scanner.expect("(")
    p = scanner.integer()
    scanner.expect(",")
    q = scanner.integer()
    scanner.expect(";")
    k = scanner.integer()
    scanner.expect(",")
    w = scanner.integer()
    signs: list[int] = []
    while scanner.peek() == ";" or (signs and scanner.peek() == ","):
        scanner.expect(";" if not signs else ",")
        signs.append(scanner.sign())
        if len(signs) == 2:
            break
    scanner.expect(")")
    scanner.end()
    if not signs:
        return ZeroCore(p, q, k, w)
    if len(signs) == 1:
        return OneCore(p, q, k, w, signs[0])
    return TwoCore(p, q, k, w, signs[0], signs[1])


def _parse_hopf(scanner: _Scanner) -> SeifertLink:
    plus = minus = 0
    while True:
        scanner.expect("#")
        count = scanner.integer()
        scanner.expect("H")
        if scanner.sign() > 0:
            plus += count
        else:
            minus += count
        if scanner.peek() != "#":
            break
    scanner.end()
    return HopfSum(plus, minus)


def parse_link(text: str) -> SeifertLink:
    """Parse link notation (core forms, Hopf sums, or aliases) into the
    raw, not yet normalized, link."""
    scanner = _Scanner(text)
    head = scanner.peek()
    if head == "L":
        return _parse_core(scanner)
    if head == "#":
        return _parse_hopf(scanner)
    if head in ("T", "P"):
        return _alias_to_raw_link(text)
    raise LinkSyntaxError("expected link notation", scanner.pos)


# -- records -------------------------------------------------------------------
#
# Each command builds one `Row` list (see `_record`).


_KINDS = {
    Known: "known",
    StrictlyLessThanGenus: "strictly_less_than_genus",
    FinitePi1: "finite_pi1",
    NoCTF_SeifertObstruction: "no_ctf_seifert_obstruction",
    PositiveBetti: "positive_betti",
    PSL2R_Rep: "psl2r_rep",
    Catalog: "catalog",
}


def _encode(value: Any) -> Any:
    """JSON form of a package value; `json.dumps` calls this for every
    object it cannot encode itself, nested ones included."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, LaurentPoly):
        return [{"exp": e, "coef": c} for e, c in value.terms]
    if isinstance(value, ConeOrbifold):
        return {
            "cone_orders": value.cone_orders,
            "chi": value.chi,
            "geometry": value.geometry,
        }
    if isinstance(value, FiniteGroupTag):
        return {
            "label": value.label,
            "order": value.group_order,
            "h1_order": value.h1_order,
        }
    if isinstance(value, SeifertLink):
        return render(value)
    if isinstance(value, DynkinType):
        return str(value)
    fields = {name: getattr(value, name) for name in value._fields}
    kind = _KINDS.get(type(value))
    return fields if kind is None else {"kind": kind, **fields}


def _text(value: Any) -> str:
    """Text form of a row value."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, SeifertLink):
        return render(value)
    if isinstance(value, Known):
        return str(value.value)
    if isinstance(value, StrictlyLessThanGenus):
        return "strictly less than the genus"
    if isinstance(value, FiniteGroupTag):
        return value.label
    if isinstance(value, FinitePi1):
        return f"finite fundamental group {value.group.label}"
    if isinstance(value, NoCTF_SeifertObstruction):
        return (
            "no co-oriented taut foliation; Seifert invariants "
            f"{value.invariants.render()}"
        )
    if isinstance(value, PositiveBetti):
        return f"positive first Betti number at level {value.n}"
    if isinstance(value, PSL2R_Rep):
        return (
            f"PSL(2,R) representation witness (sigma = {value.data.sigma}, "
            f"r = {value.data.r})"
        )
    if isinstance(value, Catalog):
        return value.note
    return str(value)


def _json_object(record: list[Row]) -> dict[str, Any]:
    return {row.key: row.value for row in record if row.key is not None}


def _text_cells(record: list[Row]) -> list[tuple[str, str]]:
    return [
        (row.label, _text(row.value) if row.text is None else row.text)
        for row in record
        if row.label is not None
    ]


def _emit(record: list[Row], as_json: bool) -> int:
    if as_json:
        import json  # only here: a text query never loads the json package

        print(json.dumps(_json_object(record), indent=2, default=_encode))
        return 0
    cells = _text_cells(record)
    width = max(len(label) for label, _ in cells)
    for label, text in cells:
        print(label.ljust(width) + "  " + text)
    return 0


def _link_rows(
    text: str, link: SeifertLink, alias_text: bool = True
) -> list[Row]:
    found = alias(link)
    name = found.name if found else None
    return [
        Row("link", text.strip(), "link"),
        Row("normalized", render(link), "normalized"),
        Row("alias", name, "alias" if alias_text else None),
    ]


# -- classify ------------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> int:
    # Normalized once: the library functions below find the canonical flag
    # on `link` and skip their own validation.
    link = normalize(parse_link(args.link))
    report = classification_report(link)
    return _emit(
        _link_rows(args.link, link)
        + [
            Row("components", components(link), "components"),
            Row("is_prime", report.is_prime, "prime"),
            Row("is_fibred", report.is_fibred, "fibred"),
            Row("in_P", report.in_P),
            Row("is_braid_positive", report.is_braid_positive, "braid positive"),
            Row("is_sqp", report.is_sqp, "strongly quasipositive"),
            Row("is_genus_zero", report.is_genus_zero, "genus zero"),
            Row("g4_equals_g", report.g4_equals_g),
            Row("genus", report.genus, "genus"),
            Row("g4", report.g4, "four-genus"),
            Row("is_definite", report.is_definite, "definite"),
            Row("dynkin", report.dynkin, "dynkin type"),
            Row(
                "ade_up_to_orientation",
                report.ade_up_to_orientation,
                "ADE up to orientation",
            ),
            Row("alexander", delta(link), "alexander"),
            Row("determinant", determinant(link), "determinant"),
            Row("citations", _CLASSIFY_CITATIONS),
        ],
        args.json,
    )


# -- cover ---------------------------------------------------------------------


def _parse_weights(text: str) -> tuple[int, ...]:
    pieces = text.split(",")
    if not all(_INTEGER.fullmatch(piece) for piece in pieces):
        raise InvalidParameters(
            f"malformed weights {text!r}: expected comma-separated integers"
        )
    return tuple(int(piece) for piece in pieces)


def _cover_index(text: str) -> int:
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _cmd_cover(args: argparse.Namespace) -> int:
    link = normalize(parse_link(args.link))
    n = args.n
    if args.weights is not None:
        weights = _parse_weights(args.weights)
        spec = CoverSpec(n, weights)
        data = jn_data(link, spec)
        outcome = general_psi_lo(link, spec)
        evidence = outcome.evidence if isinstance(outcome, LO) else None
        verdict = "inconclusive" if evidence is None else "left-orderable"
        return _emit(
            _link_rows(args.link, link, alias_text=False)
            + [
                Row("n", n, "n"),
                Row("weights", weights, "weights", ",".join(map(str, weights))),
                Row("jn", data),
                Row(None, None, "thetas", ", ".join(map(str, data.thetas))),
                Row(None, data.sigma, "sigma"),
                Row(None, data.r, "r"),
                Row("jn_lo_sufficient", jn_lo_sufficient(data)),
                Row("outcome", verdict, "outcome"),
                Row("evidence", evidence, evidence and "evidence"),
                Row("citations", _COVER_CITATIONS),
            ],
            args.json,
        )

    base = b_bar(link, n)
    fibre = fibre_data(link, n)
    status = canonical_star_status(link, n)
    # Only FinitePi1 has a group, only NoCTF_SeifertObstruction invariants.
    group = getattr(status.evidence, "group", None)
    invariants = getattr(status.evidence, "invariants", None)
    unwrapped_base = base.cone_orders if fibre.r == n else None
    pi1_text = "infinite" if group is None else f"finite: {group.label}"
    if group is not None and group.group_order is not None:
        pi1_text += f", order {group.group_order}"
    return _emit(
        _link_rows(args.link, link)
        + [
            Row("n", n, "n"),
            Row("base_orbifold", base, "base orbifold"),
            Row(None, None, "chi", f"{base.chi}  ({base.geometry})"),
            Row(
                "fibre",
                fibre,
                "fibre",
                f"s = {fibre.s}, r = {fibre.r}, "
                f"cover degree = {fibre.cover_degree}",
            ),
            Row("cover_base_chi", fibre.cover_degree * base.chi),
            Row("cover_base_orbifold", unwrapped_base),
            Row("pi1_finite", group is not None),
            Row("finite_group", group, "pi1", pi1_text),
            Row("verdict", status.verdict, "verdict"),
            Row("evidence", status.evidence, "evidence"),
            Row("seifert_invariants", invariants, invariants and "seifert data"),
            Row("citations", _COVER_CITATIONS),
        ],
        args.json,
    )


# -- table ---------------------------------------------------------------------


def _print_columns(header: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    print(fmt(header))
    print(fmt(["-" * w for w in widths]))
    for row in rows:
        print(fmt(row))


def _cmd_table(args: argparse.Namespace) -> int:
    records = tables.build_table(args.name)
    if args.json:
        return _emit(
            [
                Row("table", args.name),
                Row("rows", [_json_object(record) for record in records]),
                Row("citations", _TABLE_CITATIONS),
            ],
            True,
        )
    _print_columns(
        [label for label, _ in _text_cells(records[0])],
        [[text for _, text in _text_cells(record)] for record in records],
    )
    return 0


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifertlinks",
        description=(
            "Exact invariants and branched-cover analysis for Seifert links"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classification report for a link"
    )
    p_classify.add_argument("link", help="link notation, e.g. 'L(2,3;1,1)'")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=_cmd_classify)

    p_cover = sub.add_parser(
        "cover", help="branched-cover analysis for a link"
    )
    p_cover.add_argument("link")
    p_cover.add_argument(
        "--n", type=_cover_index, required=True, help="cover index"
    )
    p_cover.add_argument(
        "--weights",
        help="comma-separated branching weights, one per component",
    )
    p_cover.add_argument("--json", action="store_true")
    p_cover.set_defaults(func=_cmd_cover)

    p_table = sub.add_parser("table", help="print a reference table")
    p_table.add_argument("name", help=", ".join(tables.TABLE_NAMES))
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=_cmd_table)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails inside the `try`
        return code
    except LinkInputError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early: the null device takes the rest of stdout.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # no descriptor, as when captured
            return 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except Exception as error:  # noqa: BLE001
        # A MemoryError carries no message: name the class instead.
        message = str(error) or type(error).__name__
        print(f"internal error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
