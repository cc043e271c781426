"""Independent cross-checks used by the test suite.

Everything in this module is computed from first principles, without
importing the package: Alexander polynomials come either from integer
Seifert matrices of plumbing trees or from the reduced Burau
representation of a positive braid word, so agreement with the package's
closed-form product formulas is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


# -- exact linear algebra ------------------------------------------------------


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def fraction_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a rational matrix by Gaussian elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return det


def interpolate(
    xs: Sequence[Fraction], ys: Sequence[Fraction]
) -> list[Fraction]:
    """Coefficients (low to high) of the polynomial through the points."""
    coeffs = [Fraction(0)] * len(xs)
    for x_i, y_i in zip(xs, ys):
        # Build the Lagrange basis polynomial for x_i, scaled by y_i.
        basis = [Fraction(1)]
        denom = Fraction(1)
        for x_j in xs:
            if x_j == x_i:
                continue
            denom *= x_i - x_j
            shifted = [Fraction(0)] + basis
            for idx, value in enumerate(basis):
                shifted[idx] -= x_j * value
            basis = shifted
        scale = Fraction(y_i) / denom
        for idx, value in enumerate(basis):
            coeffs[idx] += scale * value
    return coeffs


def _normalized_terms(values: list[Fraction]) -> tuple[tuple[int, int], ...]:
    """Integer coefficient list -> sorted (exponent, coefficient) pairs
    with minimum exponent 0 and positive constant term."""
    assert all(v.denominator == 1 for v in values)
    ints = [int(v) for v in values]
    while ints and ints[-1] == 0:
        ints.pop()
    low = 0
    while low < len(ints) and ints[low] == 0:
        low += 1
    ints = ints[low:]
    if not ints:
        return ()
    if ints[0] < 0:
        ints = [-v for v in ints]
    return tuple((e, c) for e, c in enumerate(ints) if c != 0)


# -- Alexander polynomial from a Seifert matrix --------------------------------


def alexander_terms(
    seifert: Sequence[Sequence[int]],
) -> tuple[tuple[int, int], ...]:
    """det(V - t V^T) normalized to minimum exponent 0 and positive
    constant term, as sorted (exponent, coefficient) pairs."""
    n = len(seifert)
    xs = [Fraction(x) for x in range(n + 1)]
    ys = []
    for x in xs:
        m = [
            [Fraction(seifert[i][j]) - x * seifert[j][i] for j in range(n)]
            for i in range(n)
        ]
        ys.append(fraction_det(m))
    return _normalized_terms(interpolate(xs, ys))


# -- plumbing trees ------------------------------------------------------------


def star_tree_seifert(arms: Sequence[int]) -> list[list[int]]:
    """Seifert matrix of the star-shaped plumbing of (-2)-spheres with the
    given arm lengths: -I plus the adjacency restricted above the
    diagonal.  Vertex 0 is the centre; each arm walks outward."""
    size = 1 + sum(arms)
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        matrix[i][i] = -1
    index = 1
    for length in arms:
        previous = 0
        for _ in range(length):
            a, b = sorted((previous, index))
            matrix[a][b] = 1
            previous = index
            index += 1
    return matrix


def path_tree_seifert(length: int) -> list[list[int]]:
    """Seifert matrix of a linear chain of (-2)-spheres (type A)."""
    matrix = [[0] * length for _ in range(length)]
    for i in range(length):
        matrix[i][i] = -1
        if i + 1 < length:
            matrix[i][i + 1] = 1
    return matrix


def dynkin_seifert(family: str, index: int) -> list[list[int]]:
    """Seifert matrix of the simply laced plumbing with the given label."""
    if family == "A":
        return path_tree_seifert(index)
    if family == "D":
        assert index >= 4
        return star_tree_seifert((1, 1, index - 3))
    assert family == "E" and index in (6, 7, 8)
    return star_tree_seifert((1, 2, index - 4))


def symmetrized_det(seifert: Sequence[Sequence[int]]) -> int:
    """Determinant of the link bounding the surface, |det(V + V^T)|."""
    n = len(seifert)
    return abs(
        integer_det(
            [
                [seifert[i][j] + seifert[j][i] for j in range(n)]
                for i in range(n)
            ]
        )
    )


def cyclic_cover_h1_order(terms: Sequence[tuple[int, int]], n: int) -> int:
    """|H_1| of the canonical n-fold cyclic branched cover of a link whose
    Alexander polynomial is the sum of c t^e over the (e, c) `terms`, or 0
    when H_1 is infinite.

    The order is |det| of multiplication by Delta on the free module
    Z[t]/(1 + t + ... + t^(n-1)) with basis 1, t, ..., t^(n-2), that is
    |prod Delta(zeta)| over the n-th roots of unity zeta != 1.  In the
    quotient t^n = 1 and t^(n-1) = -(1 + t + ... + t^(n-2)).
    """
    size = n - 1
    columns = []
    for j in range(size):
        column = [0] * size
        for e, c in terms:
            power = (e + j) % n
            if power == size:
                column = [entry - c for entry in column]
            else:
                column[power] += c
        columns.append(column)
    return abs(integer_det(columns))


# -- positive braid closures via the reduced Burau representation ---------------


def _burau_reduced(
    strands: int, word: Sequence[int], t: Fraction
) -> list[list[Fraction]]:
    n = strands - 1
    product = [
        [Fraction(1) if a == b else Fraction(0) for b in range(n)]
        for a in range(n)
    ]
    for generator in word:
        assert 1 <= generator < strands
        step = [
            [Fraction(1) if a == b else Fraction(0) for b in range(n)]
            for a in range(n)
        ]
        j = generator - 1
        step[j][j] = -t
        if j > 0:
            step[j][j - 1] = t
        if j < n - 1:
            step[j][j + 1] = Fraction(1)
        product = [
            [
                sum(product[a][k] * step[k][b] for k in range(n))
                for b in range(n)
            ]
            for a in range(n)
        ]
    return product


def braid_closure_alexander(
    strands: int, word: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """Alexander polynomial of the closure of the braid word, from
    det(Burau - I) * (1 - t) / (1 - t^strands), interpolated exactly and
    normalized like `alexander_terms`."""
    degree = len(word) + strands
    xs = [Fraction(x) for x in range(2, degree + 3)]
    ys = []
    for t in xs:
        matrix = _burau_reduced(strands, word, t)
        for i in range(strands - 1):
            matrix[i][i] -= 1
        ys.append(fraction_det(matrix) * (1 - t) / (1 - t**strands))
    return _normalized_terms(interpolate(xs, ys))


def braid_components(strands: int, word: Sequence[int]) -> int:
    """Number of components of the braid closure."""
    permutation = list(range(strands))
    for generator in word:
        i = generator - 1
        permutation[i], permutation[i + 1] = permutation[i + 1], permutation[i]
    seen = [False] * strands
    cycles = 0
    for start in range(strands):
        if seen[start]:
            continue
        cycles += 1
        current = start
        while not seen[current]:
            seen[current] = True
            current = permutation[current]
    return cycles


def torus_word(p: int, q: int) -> tuple[int, list[int]]:
    """Strand count and positive braid word for the (p,q) torus link."""
    return p, list(range(1, p)) * q


def pretzel_two_two_q_word(q: int) -> tuple[int, list[int]]:
    """Strand count and positive braid word whose closure is the pretzel
    P(-2,2,q): two clasped strands with q extra half twists, seen from a
    three-strand viewpoint."""
    return 3, [1, 1, 2] + [1] * q + [2]


def trefoil_and_axis_word() -> tuple[int, list[int]]:
    """Positive braid word for the trefoil together with the axis of its
    three-strand presentation: the fourth strand loops once around the
    other three."""
    return 4, [1, 2, 1, 2, 3, 2, 1, 1, 2, 3]


def closure_and_axis_word(
    strands: int, word: Sequence[int]
) -> tuple[int, list[int]]:
    """Add one strand looping once around all the others, so the closure
    gains the braid axis as an extra component."""
    encircle = list(range(strands, 0, -1)) + list(range(1, strands + 1))
    return strands + 1, list(word) + encircle
