"""Generated reference tables backing the `table` CLI subcommand.

Each builder enumerates a family of links, runs the relevant library
operations, and returns one `Row` list per table row: the record the CLI
prints, whose labels are the column headers of the text table.  Nothing
here is frozen data: the tables are recomputed on every call, so they stay
consistent with the library by construction.  Every candidate link is
normalized once; the library functions then take the flagged canonical
link without checking it again.  The test suite compares the tables
against independently frozen expectations, and checks on the canonical
grid that the spherical and Euclidean tables list every family there is.

Four tables are computed from the simply laced (ADE) links and from chi:
`ade-2fold` and `higher-finite` read the link of each type of index at
most 12, the spherical table reads the positive presentation of each ADE
family with q at most 6 at every level where its base is spherical, and
the Euclidean table each coreless positive family whose base has chi = 0.
A family row names its family by that presentation and lists the family's
reorientations.  Only the canonical-status candidates are a hand list.
The golden files and the benchmark's recorded answers fix every row byte
for byte, so the Euclidean table keeps the name `L(1,1;3,w)` of D4, where
the spherical table says `L(1,1;2,w;e)`.
"""

from __future__ import annotations

import math
from itertools import product

from ._record import Row
from .alexander import cyclotomic_divides, determinant
from .classify import DynkinType, ade_link, is_ade
from .cover import canonical_star_status
from .errors import InvariantViolation, UnknownTable
from .link_model import (
    OneCore,
    SeifertLink,
    ZeroCore,
    _reorientations,
    _shape,
    alias,
    normalize,
)
from .orbifold import b_bar, finite_group

__all__ = ["TABLE_NAMES", "build_table"]

Table = tuple[list[Row], ...]

# The extent of the tables: the largest A and D index, the largest q of
# the q-indexed families, the largest cover level, and the largest level
# of the spherical table; past n = 5 only lens spaces stay spherical.
_MAX_INDEX = 12
_MAX_Q = 6
_MAX_N = 12
_MAX_SPHERICAL_N = 5

# The positive presentation of each ADE family with q <= _MAX_Q, in the
# double-cover row order: A with two fibres, then with one, the same with
# the core (D), then E6, E7 and E8.  A1 and D4 are written as the
# presentations their names read.
_ADE_FAMILIES = (
    [ZeroCore(1, q, 2, 2) for q in range(1, _MAX_Q + 1)]
    + [ZeroCore(2, q, 1, 1) for q in range(3, _MAX_Q + 1, 2)]
    + [OneCore(1, q, 2, 2, 1) for q in range(1, _MAX_Q + 1)]
    + [OneCore(2, q, 1, 1, 1) for q in range(3, _MAX_Q + 1, 2)]
    + [ade_link(DynkinType("E", m)) for m in (6, 7, 8)]
)


def _alias_row(link: SeifertLink) -> Row:
    found = alias(link)
    return Row("alias", found.name if found else None, "alias")


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


def _family_row(n: int, family: SeifertLink, reoriented: SeifertLink) -> list[Row]:
    """The columns shared by the spherical and Euclidean tables, read off
    the positive presentation of a family and its normal form: the level,
    the family's name (w stands for every count of copy orientations, e
    for either core sign), the reorientations it covers, their base
    orbifold and the reoriented link.  The base reads only p, q, k and the
    cores, which every reorientation shares."""
    base = b_bar(reoriented, n)
    p, q, k, w, e1, _ = _shape(family)
    name = f"L({p},{q};{k},{'w' if k >= 2 else w}{';e' if e1 else ''})"
    return [
        Row("n", n, "n"),
        Row("family", name, "family"),
        Row("instances", _reorientations(reoriented)),
        Row("base", base.cone_orders, "base", str(base)),
        Row("reoriented", reoriented, "reoriented"),
    ]


def spherical_rows() -> Table:
    """One row per ADE family and level n <= _MAX_SPHERICAL_N at which the
    family's n-fold cover base is spherical, with its Dynkin type: every
    family at n = 2, in `_ADE_FAMILIES` order, and at each higher n the
    few that stay spherical, in Dynkin order."""
    typed = []
    for family in _ADE_FAMILIES:
        reoriented = normalize(family)
        typed.append((is_ade(reoriented), family, reoriented))
    by_type = sorted(typed, key=lambda entry: (entry[0].family, entry[0].index))
    rows = []
    for n in range(2, _MAX_SPHERICAL_N + 1):
        for dynkin, family, reoriented in typed if n == 2 else by_type:
            if b_bar(reoriented, n).geometry == "spherical":
                row = _family_row(n, family, reoriented)
                rows.append(row + [Row("dynkin", dynkin, "type")])
    return tuple(rows)


def euclidean_rows() -> Table:
    """One row per coreless positive family L(p,q;k,k) and level n whose
    base is Euclidean, by n, k, q and p, with its Betti-number witness.

    The base has k cone points of order n and ones of orders p and q, and a
    Euclidean 2-sphere orbifold has at most four, each of order at most 6:
    so n <= 6, k <= 4 and p <= q <= 6, and chi = 0 reads n(p + q) =
    k(n - 1)pq.  A core at q adds a cone point of order qn >= 4, found only
    in S2(2,4,4) and S2(2,3,6), where the other cone points then make p a
    multiple of q: no base with a core and coprime p, q is Euclidean.
    """
    rows = []
    for n, k, q, p in product(range(2, 7), range(1, 5), range(1, 7), range(1, 7)):
        if p <= q and math.gcd(p, q) == 1 and n * (p + q) == k * (n - 1) * p * q:
            link = normalize(ZeroCore(p, q, k, k))  # its own normal form
            betti = Row("betti_positive", cyclotomic_divides(n, link), "betti>0")
            rows.append(_family_row(n, link, link) + [betti])
    return tuple(rows)


def higher_finite_rows() -> Table:
    """One row per branched cover of index three or more of an ADE link
    with finite fundamental group."""
    rows = []
    for dynkin in _ade_types():
        link = normalize(ade_link(dynkin))
        for n in range(3, _MAX_N + 1):
            group = finite_group(link, n)
            if group is not None:
                rows.append(
                    [
                        Row("link", link, "link"),
                        _alias_row(link),
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
    for link in map(normalize, candidates):
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
