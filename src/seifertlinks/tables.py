"""Generated reference tables backing the `table` CLI subcommand.

Each builder enumerates a family of links, runs the relevant library
operations, and returns one `Row` list per table row: the record the CLI
prints, whose labels are the column headers of the text table.  Nothing
here is frozen data: the tables are recomputed on every call, so they stay
consistent with the library by construction.  Every candidate link is
normalized once; the library functions then take the flagged canonical
link without checking it again.  The test suite compares the tables
against independently frozen expectations.
"""

from __future__ import annotations

from ._record import Row
from .alexander import cyclotomic_divides, determinant
from .classify import DynkinType, ade_link, is_ade
from .cover import canonical_star_status
from .errors import InvariantViolation, UnknownTable
from .link_model import (
    OneCore,
    SeifertLink,
    ZeroCore,
    alias,
    normalize,
    reorient_to_P,
)
from .orbifold import b_bar, finite_group

__all__ = ["TABLE_NAMES", "build_table"]

Table = tuple[list[Row], ...]

# The extent of the tables: the largest A and D index, the largest q of
# the q-indexed families, and the largest cover level.
_MAX_INDEX = 12
_MAX_Q = 6
_MAX_N = 12


def _alias_row(link: SeifertLink) -> Row:
    found = alias(link)
    return Row("alias", found.name if found else None, "alias")


def _dedupe(links: list[SeifertLink]) -> tuple[SeifertLink, ...]:
    seen: list[SeifertLink] = []
    for link in links:
        canonical = normalize(link)
        if canonical not in seen:
            seen.append(canonical)
    return tuple(seen)


def _ade_types() -> list[DynkinType]:
    types = [DynkinType("A", m) for m in range(1, _MAX_INDEX + 1)]
    types += [DynkinType("D", m) for m in range(4, _MAX_INDEX + 1)]
    return types + [DynkinType("E", m) for m in (6, 7, 8)]


def ade_two_fold_rows() -> Table:
    """One row per simply laced type: its link and double-cover data."""
    rows = []
    for dynkin in _ade_types():
        link = normalize(ade_link(dynkin))
        group = finite_group(link, 2)
        if group is None:
            raise InvariantViolation(f"infinite group for {link!r} at n=2")
        rows.append(
            [
                Row("dynkin", dynkin, "type"),
                Row("link", link, "link"),
                _alias_row(link),
                Row("group", group, "pi1(Sigma_2)"),
                Row(None, group.group_order, "order"),
                Row("determinant", determinant(link), "det"),
            ]
        )
    return tuple(rows)


def _family_row(
    n: int, family: str, raw_instances: list[SeifertLink]
) -> tuple[list[Row], SeifertLink]:
    """The columns shared by the spherical and Euclidean tables: the level,
    the display text, the concrete reorientations the family covers, their
    common base orbifold and the positively reoriented link, which is
    returned again for the table's own last column."""
    instances = _dedupe(raw_instances)
    bases = {b_bar(link, n) for link in instances}
    if len(bases) != 1:
        raise InvariantViolation(f"family {family} has mixed bases at n={n}")
    base = bases.pop()
    reoriented = reorient_to_P(instances[0])
    return [
        Row("n", n, "n"),
        Row("family", family, "family"),
        Row("instances", instances),
        Row("base", base.cone_orders, "base", base.render()),
        Row("reoriented", reoriented, "reoriented"),
    ], reoriented


def _spherical_row(
    n: int, family: str, raw_instances: list[SeifertLink]
) -> list[Row]:
    """A family whose n-fold cover base is spherical, with the Dynkin type
    of its reoriented link."""
    row, reoriented = _family_row(n, family, raw_instances)
    dynkin = is_ade(reoriented)
    if dynkin is None:
        raise InvariantViolation(f"family {family} is not ADE up to orientation")
    return row + [Row("dynkin", dynkin, "type")]


def spherical_rows() -> Table:
    rows: list[list[Row]] = []

    def hopf_row(n: int) -> list[Row]:
        return _spherical_row(
            n, "L(1,1;2,w)", [ZeroCore(1, 1, 2, 0), ZeroCore(1, 1, 2, 2)]
        )

    # n = 2: every ADE family is spherical at the double cover.
    rows.append(hopf_row(2))
    for q in range(2, _MAX_Q + 1):
        rows.append(
            _spherical_row(
                2, f"L(1,{q};2,w)", [ZeroCore(1, q, 2, w) for w in (0, 2)]
            )
        )
    for q in range(3, _MAX_Q + 1, 2):
        rows.append(_spherical_row(2, f"L(2,{q};1,1)", [ZeroCore(2, q, 1, 1)]))
    for q in range(1, _MAX_Q + 1):
        rows.append(
            _spherical_row(
                2,
                f"L(1,{q};2,w;e)",
                [
                    OneCore(1, q, 2, w, sign)
                    for w in (0, 2)
                    for sign in (1, -1)
                ],
            )
        )
    for q in range(3, _MAX_Q + 1, 2):
        rows.append(
            _spherical_row(
                2, f"L(2,{q};1,1;e)", [OneCore(2, q, 1, 1, s) for s in (1, -1)]
            )
        )
    rows.append(_spherical_row(2, "L(3,4;1,1)", [ZeroCore(3, 4, 1, 1)]))
    rows.append(
        _spherical_row(
            2, "L(3,2;1,1;e)", [OneCore(3, 2, 1, 1, s) for s in (1, -1)]
        )
    )
    rows.append(_spherical_row(2, "L(3,5;1,1)", [ZeroCore(3, 5, 1, 1)]))

    # Higher levels stay spherical only for the shortest torus links.
    rows.append(hopf_row(3))
    rows.append(_spherical_row(3, "L(2,3;1,1)", [ZeroCore(2, 3, 1, 1)]))
    rows.append(
        _spherical_row(3, "L(1,2;2,w)", [ZeroCore(1, 2, 2, w) for w in (0, 2)])
    )
    rows.append(_spherical_row(3, "L(2,5;1,1)", [ZeroCore(2, 5, 1, 1)]))
    rows.append(hopf_row(4))
    rows.append(_spherical_row(4, "L(2,3;1,1)", [ZeroCore(2, 3, 1, 1)]))
    rows.append(hopf_row(5))
    rows.append(_spherical_row(5, "L(2,3;1,1)", [ZeroCore(2, 3, 1, 1)]))
    return tuple(rows)


def _euclidean_row(
    n: int, family: str, raw_instances: list[SeifertLink]
) -> list[Row]:
    """A family whose n-fold cover base is Euclidean, with the
    cyclotomic Betti-number witness for the reoriented link."""
    row, reoriented = _family_row(n, family, raw_instances)
    betti_positive = cyclotomic_divides(n, reoriented)
    return row + [Row("betti_positive", betti_positive, "betti>0")]


def euclidean_rows() -> Table:
    return (
        _euclidean_row(
            2, "L(1,2;3,w)", [ZeroCore(1, 2, 3, w) for w in (1, 3)]
        ),
        _euclidean_row(
            2, "L(1,1;4,w)", [ZeroCore(1, 1, 4, w) for w in (0, 2, 4)]
        ),
        _euclidean_row(
            3, "L(1,3;2,w)", [ZeroCore(1, 3, 2, w) for w in (0, 2)]
        ),
        _euclidean_row(
            3, "L(1,1;3,w)", [ZeroCore(1, 1, 3, w) for w in (1, 3)]
        ),
        _euclidean_row(
            4, "L(1,2;2,w)", [ZeroCore(1, 2, 2, w) for w in (0, 2)]
        ),
        _euclidean_row(6, "L(2,3;1,1)", [ZeroCore(2, 3, 1, 1)]),
    )


def higher_finite_rows() -> Table:
    """One row per branched cover of index three or more with finite
    fundamental group."""
    candidates = _dedupe(
        [
            ZeroCore(1, 1, 2, 2),  # T(2,2)
            ZeroCore(2, 3, 1, 1),
            ZeroCore(1, 2, 2, 2),
            ZeroCore(2, 5, 1, 1),
        ]
    )
    rows = []
    for link in candidates:
        alias_row = _alias_row(link)
        for n in range(3, _MAX_N + 1):
            group = finite_group(link, n)
            if group is not None:
                rows.append(
                    [
                        Row("link", link, "link"),
                        alias_row,
                        Row("n", n, "n"),
                        Row("group", group, "pi1"),
                        Row(None, group.group_order, "order"),
                    ]
                )
    return tuple(rows)


def canonical_status_rows() -> Table:
    """One row per link: its Star/NotStar verdicts at the cover levels
    2.._MAX_N."""
    candidates = [ade_link(dynkin) for dynkin in _ade_types()]
    candidates += [ZeroCore(1, q, 2, 0) for q in range(2, _MAX_Q + 1)]
    candidates.append(ZeroCore(1, 1, 3, 1))
    candidates += [OneCore(1, q, 2, 0, 1) for q in range(2, _MAX_Q + 1)]
    candidates += [OneCore(2, q, 1, 1, -1) for q in range(3, _MAX_Q + 1, 2)]
    candidates += [OneCore(1, q, 2, 2, -1) for q in range(2, _MAX_Q + 1)]
    candidates.append(OneCore(3, 2, 1, 1, -1))
    rows = []
    for link in _dedupe(candidates):
        statuses = [
            (n, canonical_star_status(link, n)) for n in range(2, _MAX_N + 1)
        ]
        rows.append(
            [
                Row("link", link, "link"),
                _alias_row(link),
                Row(
                    "statuses",
                    [
                        {
                            "n": n,
                            "verdict": status.verdict,
                            "evidence": status.evidence,
                        }
                        for n, status in statuses
                    ],
                ),
            ]
            + [
                Row(None, None, f"n={n}", "*" if status.star else "x")
                for n, status in statuses
            ]
        )
    return tuple(rows)


_BUILDERS = {
    "ade-2fold": ade_two_fold_rows,
    "spherical": spherical_rows,
    "euclidean": euclidean_rows,
    "higher-finite": higher_finite_rows,
    "canonical-status": canonical_status_rows,
}

TABLE_NAMES = tuple(_BUILDERS)


def build_table(name: str) -> Table:
    """The rows of the named table, each as the CLI's `Row` list; raises
    UnknownTable for any other name."""
    if name not in _BUILDERS:
        known = ", ".join(TABLE_NAMES)
        raise UnknownTable(f"unknown table {name!r}; available: {known}")
    return _BUILDERS[name]()
