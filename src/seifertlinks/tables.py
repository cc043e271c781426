"""Generated reference tables backing the `table` CLI subcommand.

Each builder enumerates a family of links, runs the relevant library
operations, and returns structured rows.  Nothing here is frozen data:
the tables are recomputed on every call, so they stay consistent with
the library by construction.  The test suite compares them against
independently frozen expectations.
"""

from __future__ import annotations

from typing import Optional

from ._record import Record
from .alexander import cyclotomic_divides, determinant
from .classify import DynkinType, ade_link, is_ade
from .cover import StarStatus, canonical_star_status
from .errors import InvariantViolation, UnknownTable
from .link_model import (
    OneCore,
    SeifertLink,
    ZeroCore,
    alias,
    normalize,
    reorient_to_P,
)
from .orbifold import ConeOrbifold, FiniteGroupTag, b_bar, finite_group

__all__ = [
    "AdeTwoFoldRow",
    "SphericalRow",
    "EuclideanRow",
    "HigherFiniteRow",
    "StatusRow",
    "ade_two_fold_rows",
    "spherical_rows",
    "euclidean_rows",
    "higher_finite_rows",
    "canonical_status_rows",
    "TABLE_NAMES",
    "build_table",
]


def _alias_name(link: SeifertLink) -> Optional[str]:
    found = alias(link)
    return found.name if found else None


def _dedupe(links: list[SeifertLink]) -> tuple[SeifertLink, ...]:
    seen: list[SeifertLink] = []
    for link in links:
        canonical = normalize(link)
        if canonical not in seen:
            seen.append(canonical)
    return tuple(seen)


class AdeTwoFoldRow(Record):
    """One simply laced type with its link and double-cover data."""

    dynkin: DynkinType
    link: SeifertLink
    alias_name: Optional[str]
    group: FiniteGroupTag
    determinant: int


def ade_two_fold_rows(max_index: int = 12) -> tuple[AdeTwoFoldRow, ...]:
    types = [DynkinType("A", m) for m in range(1, max_index + 1)]
    types += [DynkinType("D", m) for m in range(4, max_index + 1)]
    types += [DynkinType("E", m) for m in (6, 7, 8)]
    rows = []
    for dynkin in types:
        link = normalize(ade_link(dynkin))
        group = finite_group(link, 2)
        if group is None:
            raise InvariantViolation(f"infinite group for {link!r} at n=2")
        rows.append(
            AdeTwoFoldRow(
                dynkin=dynkin,
                link=link,
                alias_name=_alias_name(link),
                group=group,
                determinant=determinant(link),
            )
        )
    return tuple(rows)


class SphericalRow(Record):
    """A family whose n-fold cover base is spherical: the display text,
    the concrete reorientations it covers, their common base orbifold,
    the positively reoriented link, and its Dynkin type."""

    n: int
    family: str
    instances: tuple[SeifertLink, ...]
    base: ConeOrbifold
    reoriented: SeifertLink
    dynkin: DynkinType


def _family_row(
    n: int, family: str, raw_instances: list[SeifertLink]
) -> SphericalRow:
    instances = _dedupe(raw_instances)
    bases = {b_bar(link, n) for link in instances}
    if len(bases) != 1:
        raise InvariantViolation(f"family {family} has mixed bases at n={n}")
    reoriented = reorient_to_P(instances[0])
    dynkin = is_ade(reoriented)
    if dynkin is None:
        raise InvariantViolation(f"family {family} is not ADE up to orientation")
    return SphericalRow(
        n=n,
        family=family,
        instances=instances,
        base=bases.pop(),
        reoriented=reoriented,
        dynkin=dynkin,
    )


def spherical_rows(max_q: int = 6) -> tuple[SphericalRow, ...]:
    rows: list[SphericalRow] = []

    def hopf_row(n: int) -> SphericalRow:
        return _family_row(
            n, "L(1,1;2,w)", [ZeroCore(1, 1, 2, 0), ZeroCore(1, 1, 2, 2)]
        )

    # n = 2: every ADE family is spherical at the double cover.
    rows.append(hopf_row(2))
    for q in range(2, max_q + 1):
        rows.append(
            _family_row(
                2, f"L(1,{q};2,w)", [ZeroCore(1, q, 2, w) for w in (0, 2)]
            )
        )
    for q in range(3, max_q + 1, 2):
        rows.append(_family_row(2, f"L(2,{q};1,1)", [ZeroCore(2, q, 1, 1)]))
    for q in range(1, max_q + 1):
        rows.append(
            _family_row(
                2,
                f"L(1,{q};2,w;e)",
                [
                    OneCore(1, q, 2, w, sign)
                    for w in (0, 2)
                    for sign in (1, -1)
                ],
            )
        )
    for q in range(3, max_q + 1, 2):
        rows.append(
            _family_row(
                2, f"L(2,{q};1,1;e)", [OneCore(2, q, 1, 1, s) for s in (1, -1)]
            )
        )
    rows.append(_family_row(2, "L(3,4;1,1)", [ZeroCore(3, 4, 1, 1)]))
    rows.append(
        _family_row(2, "L(3,2;1,1;e)", [OneCore(3, 2, 1, 1, s) for s in (1, -1)])
    )
    rows.append(_family_row(2, "L(3,5;1,1)", [ZeroCore(3, 5, 1, 1)]))

    # Higher levels stay spherical only for the shortest torus links.
    rows.append(hopf_row(3))
    rows.append(_family_row(3, "L(2,3;1,1)", [ZeroCore(2, 3, 1, 1)]))
    rows.append(
        _family_row(3, "L(1,2;2,w)", [ZeroCore(1, 2, 2, w) for w in (0, 2)])
    )
    rows.append(_family_row(3, "L(2,5;1,1)", [ZeroCore(2, 5, 1, 1)]))
    rows.append(hopf_row(4))
    rows.append(_family_row(4, "L(2,3;1,1)", [ZeroCore(2, 3, 1, 1)]))
    rows.append(hopf_row(5))
    rows.append(_family_row(5, "L(2,3;1,1)", [ZeroCore(2, 3, 1, 1)]))
    return tuple(rows)


class EuclideanRow(Record):
    """A family whose n-fold cover base is Euclidean, with the
    cyclotomic Betti-number witness for the reoriented link."""

    n: int
    family: str
    instances: tuple[SeifertLink, ...]
    base: ConeOrbifold
    reoriented: SeifertLink
    betti_positive: bool


def _euclidean_row(
    n: int, family: str, raw_instances: list[SeifertLink]
) -> EuclideanRow:
    instances = _dedupe(raw_instances)
    bases = {b_bar(link, n) for link in instances}
    if len(bases) != 1:
        raise InvariantViolation(f"family {family} has mixed bases at n={n}")
    reoriented = reorient_to_P(instances[0])
    return EuclideanRow(
        n=n,
        family=family,
        instances=instances,
        base=bases.pop(),
        reoriented=reoriented,
        betti_positive=cyclotomic_divides(n, reoriented),
    )


def euclidean_rows() -> tuple[EuclideanRow, ...]:
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


class HigherFiniteRow(Record):
    """A branched cover of index three or more with finite fundamental
    group."""

    link: SeifertLink
    alias_name: Optional[str]
    n: int
    group: FiniteGroupTag


def higher_finite_rows(max_n: int = 12) -> tuple[HigherFiniteRow, ...]:
    candidates = [
        normalize(ZeroCore(1, 1, 2, 2)),  # T(2,2)
        ZeroCore(2, 3, 1, 1),
        ZeroCore(1, 2, 2, 2),
        ZeroCore(2, 5, 1, 1),
    ]
    rows = []
    for link in candidates:
        for n in range(3, max_n + 1):
            group = finite_group(link, n)
            if group is not None:
                rows.append(
                    HigherFiniteRow(
                        link=link,
                        alias_name=_alias_name(link),
                        n=n,
                        group=group,
                    )
                )
    return tuple(rows)


class StatusRow(Record):
    """Star/NotStar verdicts for one link across a range of cover levels."""

    link: SeifertLink
    alias_name: Optional[str]
    first_n: int
    statuses: tuple[StarStatus, ...]


def canonical_status_rows(
    max_q: int = 6, max_index: int = 12, max_n: int = 12
) -> tuple[StatusRow, ...]:
    candidates: list[SeifertLink] = []
    for m in range(1, max_index + 1):
        candidates.append(ade_link(DynkinType("A", m)))
    for m in range(4, max_index + 1):
        candidates.append(ade_link(DynkinType("D", m)))
    for m in (6, 7, 8):
        candidates.append(ade_link(DynkinType("E", m)))
    candidates += [ZeroCore(1, q, 2, 0) for q in range(2, max_q + 1)]
    candidates.append(ZeroCore(1, 1, 3, 1))
    candidates += [OneCore(1, q, 2, 0, 1) for q in range(2, max_q + 1)]
    candidates += [OneCore(2, q, 1, 1, -1) for q in range(3, max_q + 1, 2)]
    candidates += [OneCore(1, q, 2, 2, -1) for q in range(2, max_q + 1)]
    candidates.append(OneCore(3, 2, 1, 1, -1))
    rows = []
    for link in _dedupe(candidates):
        statuses = tuple(
            canonical_star_status(link, n) for n in range(2, max_n + 1)
        )
        rows.append(
            StatusRow(
                link=link,
                alias_name=_alias_name(link),
                first_n=2,
                statuses=statuses,
            )
        )
    return tuple(rows)


TABLE_NAMES = (
    "ade-2fold",
    "spherical",
    "euclidean",
    "higher-finite",
    "canonical-status",
)


def build_table(name: str):
    """Rows of the named table; raises UnknownTable for anything else."""
    builders = {
        "ade-2fold": ade_two_fold_rows,
        "spherical": spherical_rows,
        "euclidean": euclidean_rows,
        "higher-finite": higher_finite_rows,
        "canonical-status": canonical_status_rows,
    }
    if name not in builders:
        known = ", ".join(TABLE_NAMES)
        raise UnknownTable(f"unknown table {name!r}; available: {known}")
    return builders[name]()
