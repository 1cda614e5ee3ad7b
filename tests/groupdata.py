"""Shared catalog of small test groups and representations, and oracles:
the Fraction elimination (reduced row echelon form, kernel, determinant)
for the fraction-free `linalg`; the interval jet over Fraction endpoints
for the integer interval kernel of `expr`; the multiplication table by composing every
pair of permutations; the Weyl data by scanning G for elements normalizing
the subgroup; the ring product over the full mark vectors; and the action
check over all |G|^2 pairs of elements.

Groups are cached so the per-group derived data (class tables, marks) is
computed once per session. Q8 acts on itself by left translation with
elements ordered 1, -1, i, -i, j, -j, k, -k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import burneq as bq
from burneq import expr
from burneq.errors import DivisionByZero

GROUP_GENERATORS: dict[str, list[list[int]]] = {
    "Z2": [[1, 0]],
    "Z4": [[1, 2, 3, 0]],
    "V4": [[1, 0, 2, 3], [0, 1, 3, 2]],
    "Z6": [[1, 0, 3, 4, 2]],
    "S3": [[1, 0, 2], [1, 2, 0]],
    "D4": [[1, 2, 3, 0], [3, 2, 1, 0]],
    "Q8": [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]],
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
}

# groups too large to sweep in every parametrized test; published lattice
# sizes in test_lattice.py
LARGER_GROUPS: dict[str, list[list[int]]] = {
    "D8": [[1, 2, 3, 4, 5, 6, 7, 0], [7, 6, 5, 4, 3, 2, 1, 0]],
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "S4xZ2": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]],
    "A5": [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]],
    "S5": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
    "S6": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]],
}

MARKS_GROUPS = ["Z2", "Z4", "V4", "Z6", "S3", "D4", "Q8", "A4"]

EXPECTED_ORDER = {
    "Z2": 2, "Z4": 4, "V4": 4, "Z6": 6, "S3": 6, "D4": 8, "Q8": 8, "A4": 12,
}


@lru_cache(maxsize=None)
def make_group(name: str) -> bq.FiniteGroup:
    return bq.generate_group({**GROUP_GENERATORS, **LARGER_GROUPS}[name])


@lru_cache(maxsize=None)
def make_rep(name: str) -> bq.OrthogonalRepresentation:
    """The degree-test representations: one per group in the product corpus."""
    if name == "Z2-sign":
        return bq.build_representation(make_group("Z2"), [[[-1]]], label=name)
    if name == "V4-signs":
        return bq.build_representation(
            make_group("V4"),
            [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]],
            label=name,
        )
    if name == "S3-perm":
        return bq.permutation_representation(make_group("S3"))
    if name == "S3-regular":
        return bq.regular_representation(make_group("S3"))
    if name == "D4-standard":
        return bq.build_representation(
            make_group("D4"),
            [[[0, -1], [1, 0]], [[1, 0], [0, -1]]],
            label=name,
        )
    raise KeyError(name)


PRODUCT_CORPUS_REPS = ["Z2-sign", "V4-signs", "S3-perm", "D4-standard"]


def fraction_det(m) -> Fraction:
    """Determinant by Gaussian elimination over Fractions, independent of
    `linalg.det`; det of a 0x0 matrix is 1."""
    n = len(m)
    rows = [[Fraction(x) for x in r] for r in m]
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def fraction_rref(m) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan over Fractions, independent
    of `linalg`; returns (rows, pivot column indices)."""
    rows = [[Fraction(x) for x in r] for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def fraction_kernel(m) -> list[tuple[Fraction, ...]]:
    """The canonical null-space basis read off `fraction_rref`: one vector
    per free column, 1 there, 0 in the other free columns."""
    if not m:
        return []
    rows, pivots = fraction_rref(m)
    ncols = len(m[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def _fraction_imul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _fraction_ipow(v, n):
    lo, hi = v
    if any(x and n * (x.numerator.bit_length() + x.denominator.bit_length())
           > expr.EXACT_POWER_BITS for x in v):
        raise OverflowError("a power too large to evaluate exactly")
    a, b = lo ** n, hi ** n
    if n % 2 or lo >= 0:
        return a, b
    return (b, a) if hi <= 0 else (0, max(a, b))


def kernel_interval_jet(node, center, radii):
    """`expr.integer_interval_jet` over the box |u - center| <= radii, its
    endpoints converted to Fractions, to compare with `fraction_interval_jet`."""
    (lo, hi, den), grad = expr.integer_interval_jet(node, expr.clear_box(center, radii))
    return ((Fraction(lo, den), Fraction(hi, den)),
            [(Fraction(g, e), Fraction(h, e)) for g, h, e in grad])


def fraction_interval_jet(node, center, radii):
    """`kernel_interval_jet` over Fraction endpoints, one Fraction operation
    per endpoint operation, independent of the integer kernel; the same
    enclosures, and the same DivisionByZero and OverflowError messages."""
    def ev(node):
        if isinstance(node, expr.Affine):
            mid, rad = node.const, 0
            for a, c, r in zip(node.coeffs, center, radii):
                if a:
                    mid += a * c
                    rad += abs(a) * r
            return (mid - rad, mid + rad), [(a, a) for a in node.coeffs]
        if isinstance(node, expr.Neg):
            (lo, hi), grad = ev(node.operand)
            return (-hi, -lo), [(-h, -g) for g, h in grad]
        if isinstance(node, expr.Pow):
            (v, dv), n = ev(node.base), node.exponent
            if n == 0:
                return (1, 1), [(0, 0)] * len(dv)
            p = _fraction_ipow(v, n - 1)
            return _fraction_ipow(v, n), [_fraction_imul((n * p[0], n * p[1]), g) for g in dv]
        (a, da), (b, db) = ev(node.left), ev(node.right)
        if node.op == "+":
            return ((a[0] + b[0], a[1] + b[1]),
                    [(x[0] + y[0], x[1] + y[1]) for x, y in zip(da, db)])
        if node.op == "-":
            return ((a[0] - b[1], a[1] - b[0]),
                    [(x[0] - y[1], x[1] - y[0]) for x, y in zip(da, db)])
        if node.op == "*":
            grad = []
            for x, y in zip(da, db):
                s, t = _fraction_imul(x, b), _fraction_imul(a, y)
                grad.append((s[0] + t[0], s[1] + t[1]))
            return _fraction_imul(a, b), grad
        if b[0] <= 0 <= b[1]:
            raise DivisionByZero("a divisor's enclosure contains zero")
        inv = (Fraction(1) / b[1], Fraction(1) / b[0])
        q = _fraction_imul(a, inv)
        grad = []
        for x, y in zip(da, db):
            t = _fraction_imul(q, y)
            grad.append(_fraction_imul((x[0] - t[1], x[1] - t[0]), inv))
        return q, grad

    return ev(node)


def compose_mult_table(group: bq.FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """mult[a][b] = index of perm_a composed after perm_b, by |G|^2 compositions."""
    elems = group.element_perms
    index = {p: i for i, p in enumerate(elems)}
    return tuple(tuple(index[tuple(a[x] for x in b)] for b in elems) for a in elems)


def scan_weyl_data(group: bq.FiniteGroup, subgroup: bq.Subgroup) -> bq.WeylData:
    """The normalizer by testing g H g^-1 <= H for every g in G, and a Weyl
    coset representative at each normalizer element, ascending, that no
    earlier coset covers."""
    mult, inv = group.mult_table, group.inverse
    elems = subgroup.element_set
    normalizer: list[int] = []
    reps: list[int] = []
    covered: set[int] = set()
    for g in range(group.order):
        if all(mult[mult[g][h]][inv[g]] in subgroup for h in elems):
            normalizer.append(g)
            if g not in covered:
                reps.append(g)
                covered.update(mult[g][h] for h in elems)
    return bq.WeylData(
        subgroup=subgroup,
        normalizer=bq.Subgroup.of(normalizer),
        weyl_order=len(normalizer) // subgroup.order,
        weyl_coset_reps=tuple(reps),
    )


def full_peel_mul(a: bq.BurnsideElement, b: bq.BurnsideElement) -> bq.BurnsideElement:
    """The ring product from full mark vectors, peeled over every class from
    the top down."""
    marks = a.group.marks
    n = len(marks)

    def mark_vector(x):
        return [sum(c * marks[i][j] for i, c in enumerate(x.coeffs)) for j in range(n)]

    residual = [x * y for x, y in zip(mark_vector(a), mark_vector(b))]
    coeffs = [0] * n
    for j in range(n - 1, -1, -1):
        q, r = divmod(residual[j], marks[j][j])
        assert r == 0, f"not a mark vector at class {j}"
        coeffs[j] = q
        residual = [x - q * m for x, m in zip(residual, marks[j])]
    return bq.BurnsideElement(a.group, tuple(coeffs))


def all_pairs_action(x: bq.FiniteGSet) -> bool:
    """Whether rho(g h) = rho(g) rho(h) for every pair of elements g, h."""
    mult, action = x.group.mult_table, x.action
    return all(action[mult[g][h]][p] == rg[rh[p]]
               for g, rg in enumerate(action) for h, rh in enumerate(action)
               for p in range(x.size))
