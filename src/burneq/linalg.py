"""Exact linear algebra over rational matrices.

Matrices are tuples of row tuples of Fraction; vectors are tuples of
Fraction; an orbit (`IntOrbit`) is (points, scale), integer points over one
scale. Everything here is pure and exact. Kernels, solves and determinants
all come from one fraction-free elimination on integers, `_echelon`. Only
what the package uses lives here; the Fraction reduced row echelon form
that the tests use as an oracle lives in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
IntVector = tuple[int, ...]
IntOrbit = tuple[tuple[IntVector, ...], int]


def vec(items: Iterable) -> Vector:
    """A vector of Fractions; an entry that is already a Fraction is kept as is."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in items)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def matvec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _echelon(m: Sequence[Sequence], full: bool = True
             ) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of a rational matrix.

    Each row's denominators are cleared once; then, for each pivot p in
    column c, every other row becomes (p * row - row[c] * pivot_row) //
    prev, prev the pivot before p. Every entry stays a minor of the cleared
    matrix, so each division is exact (Bareiss, Math. Comp. 22 (1968);
    Nakos, Turner and Williams, SIGSAM Bull. 31(3) (1997)), and each pivot
    row ends with the last pivot in its pivot column: row / pivot is the
    reduced row echelon form. With full=False only the rows below a pivot
    are reduced, right of it, and the walk stops at the first column
    without a pivot, as a determinant needs no more. Returns (rows, pivot
    columns, sign of the row swaps, product of the row denominators).
    """
    rows, scale = [], 1
    for r in m:
        q = lcm(*(x.denominator for x in r))
        rows.append([x.numerator * (q // x.denominator) for x in r])
        scale *= q
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            if full:
                continue
            break
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        p, lo = rows[r][c], 0 if full else c + 1
        tail = rows[r][lo:]
        for row in rows[:r] + rows[r + 1:] if full else rows[r + 1:]:
            f = row[c]
            row[lo:] = [(p * x - f * y) // prev for x, y in zip(row[lo:], tail)]
        pivots.append(c)
        prev = p
    return rows, pivots, sign, scale


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the null space, one vector per free column: 1 in
    its own free column, 0 in the others', read off the reduced form."""
    if not m:
        return []
    rows, pivots, _, _ = _echelon(m)
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vector] = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return basis


def det(m: Matrix) -> Fraction:
    """Exact determinant; det of a 0x0 matrix is 1. The forward half of
    `_echelon` leaves the determinant of the cleared matrix, up to the sign
    of the row swaps, as the last pivot."""
    rows, pivots, sign, scale = _echelon(m, full=False)
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction(sign * rows[-1][-1], scale) if rows else Fraction(1)


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a X = b for square invertible a, exactly; ZeroDivisionError
    when a is singular."""
    n = len(a)
    rows, pivots, _, _ = _echelon([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix in solve")
    return tuple(tuple(Fraction(x, row[i]) for x in row[n:]) for i, row in enumerate(rows))


def columns(basis: Sequence[Vector]) -> Matrix:
    """Stack vectors as the columns of a matrix."""
    return transpose(tuple(basis))


def restricted_matrix(f: Matrix, basis: Sequence[Vector]) -> Matrix:
    """Matrix of f on the subspace spanned by `basis`, in that basis.

    Requires f to map the subspace into itself; solves C M = f C through
    the normal equations, which is exact for full-column-rank C.
    """
    if not basis:
        return ()
    c = columns(basis)
    ct = transpose(c)
    gram = matmul(ct, c)
    return solve(gram, matmul(ct, matmul(f, c)))


def rational_sqrt_floor(s: Fraction) -> Fraction:
    """A positive rational r with r*r <= s, for s > 0."""
    if s <= 0:
        raise ValueError("need a positive value")
    a, b = s.numerator, s.denominator
    return Fraction(isqrt(a * b), b)


def int_norm2(a: IntVector, b: IntVector) -> int:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def _lift(orbits: Sequence[IntOrbit]) -> tuple[list[list[IntVector]], int]:
    """Every orbit's points over s, the lcm of the scales, by integer multiplication."""
    scale = lcm(*(s for _, s in orbits))
    return [[tuple(scale // s * v for v in p) for p in points] for points, s in orbits], scale


def orbit_gaps2(orbits: Sequence[IntOrbit]) -> tuple[list[list[int | None]], int]:
    """Squared closest approach between distinct orbits of one isometric action.

    Each orbit is a pair (points, s_k) of integer points over a scale, base
    point first. Returns a table whose entry [i][j], j > i, is s^2 min
    |a - b|^2 over a in orbit i and b in orbit j (None on and below the
    diagonal), and s, the lcm of the s_k, to which every orbit is lifted by
    integer multiplication. As |g x - b| = |x - g^-1 b|, a can stay at the
    base point x: #orbits x #points distances give the all-pairs minima
    exactly.
    """
    ints, scale = _lift(orbits)
    return [[None] * (i + 1) + [min(int_norm2(orb[0], b) for b in other)
                                for other in ints[i + 1:]]
            for i, orb in enumerate(ints)], scale


def min_orbit_spacing2(orbits: Sequence[IntOrbit]) -> Fraction | None:
    """Minimum squared distance between distinct points of a union of orbits.

    The orbits come from one isometric action and list their base points
    first; each base point is compared with the rest of its own orbit and
    with every later orbit (see `orbit_gaps2`), and two orbits that share a
    point give 0. None when the union has fewer than two points.
    """
    ints, scale = _lift(orbits)
    best = min((int_norm2(orb[0], b) for i, orb in enumerate(ints)
                for other in (orb[1:], *ints[i + 1:]) for b in other), default=None)
    return None if best is None else Fraction(best, scale * scale)
