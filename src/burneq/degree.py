"""Polystandard map descriptors and their Burnside-ring-valued degree.

A standard piece is the data of one orbit of zeros: a rational base point,
its exact isotropy subgroup, a ball radius inside the fixed subspace, the
thickness of the normal tube, and a local map on fixed-subspace coordinates
(an exact linear block, a coordinate expression system, or a declared
integer index). A polystandard map is a finite list of pieces with pairwise
disjoint orbits and tubes; its degree is the sum of local indices times the
classes of the zero orbits. Each piece keeps the orbit of its base point as
integer points over one scale, enumerated once: when the piece is built, or
on a product piece's first read. Disjointness is checked orbit by orbit, and
exactly: G acts by isometries, so two orbits come closest with one point at
its base point, and #pieces x #points integer distances decide what comparing
all pairs of points would.

Each piece carries its local index, decided once where the piece is made:
the declared integer, 1 at dim V^H = 0, or the sign of an exact, nonzero
determinant, of a linear block or of an expression piece's Jacobian at its
base point, where the expressions must vanish exactly. A singular block or
Jacobian is refused when the piece is built. That the base point is the
only zero of an expression piece in its ball is proved by an exact interval
Krawczyk certificate, which reads the Jacobian and so gives the index, or
the piece is refused. No decision here uses floating-point arithmetic; the
float range bounds expression inputs only as a limit on what is accepted.

Products of maps over V and W live over the block sum V (+) W: each pair of
zero orbits G y x G z splits into diagonal orbits, and every resulting piece
carries the product of the two local indices as a declared index. Every
diagonal orbit meets the row {y} x G z, where it is a G_y-orbit, so the
diagonal orbits are enumerated from that one row. The split is group data:
one diagonal orbit per double coset G_y h G_z (`group.double_cosets`). G y
is G/G_y, so rho(g) y is point `left_cosets(G, G_y)[g]` of its orbit, and
every image on the block sum is an index lookup. The product is built
directly, as `standard_piece` and `polystandard_map` validate outside input
only; `OrbitProductRow` says what that means for its rows. The degree reads
a product piece's isotropy, index and base point only, so its orbit points
are built on first read (`_product_orbit`), and its radii are half the
least radius or epsilon of the factor pieces: the factor tubes alone keep
the product's tubes apart (see `_product`).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from typing import Callable, Sequence, Union

from . import expr as expr_mod
from . import linalg
from .burnside import BurnsideElement, mul as ring_mul
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    InvalidPiece,
    OverlappingPieces,
    SingularJacobian,
)
from .expr import Expr
from .group import Subgroup, class_index_of, double_cosets, left_cosets, subgroup_classes
from .linalg import IntOrbit, Matrix, Vector
from .representation import (
    OrthogonalRepresentation,
    direct_sum,
    fixed_subspace,
    integer_orbit,
    isotropy,
)

CERTIFICATE_BOXES = 300  # boxes the Krawczyk certificate examines before it refuses a piece


@dataclass(frozen=True)
class LinearLocalMap:
    """Exact-rational linear block on fixed-subspace coordinates."""

    matrix: Matrix


@dataclass(frozen=True)
class ExpressionLocalMap:
    """One expression per fixed-subspace output coordinate.

    Expressions are written in ambient variables x1..xn; inputs are mapped
    through base_point + sum u_k b_k over the fixed-subspace basis.
    """

    exprs: tuple[Expr, ...]


@dataclass(frozen=True)
class DeclaredLocalMap:
    """A user-asserted local index."""

    index: int


LocalMapDef = Union[LinearLocalMap, ExpressionLocalMap, DeclaredLocalMap]


@dataclass(frozen=True)
class StandardPiece:
    """One zero orbit; `orbit` lists rho(g) x0 for g = 0, 1, ..., each new point
    once, as integer points over one scale. Every constructor keeps that order,
    and `_product` reads rho(g) x0 as point `left_cosets(G, isotropy)[g]`.
    `orbit_source` is the orbit, or the function that builds it on first read."""

    base_point: Vector
    isotropy: Subgroup
    radius: Fraction
    epsilon: Fraction
    local: LocalMapDef
    index: int
    orbit_source: IntOrbit | Callable[[], IntOrbit] = field(compare=False, repr=False)

    @cached_property
    def orbit(self) -> IntOrbit:
        source = self.orbit_source
        return source() if callable(source) else source

    @cached_property
    def label(self) -> str:
        """The base point as "(c1, c2, ...)", for degree and product rows."""
        return "(" + ", ".join(str(c) for c in self.base_point) + ")"


@dataclass(frozen=True)
class PolystandardMap:
    rep: OrthogonalRepresentation
    pieces: tuple[StandardPiece, ...]


@dataclass(frozen=True)
class OrbitContribution:
    orbit_label: str
    class_index: int
    index: int


@dataclass(frozen=True)
class DegreeResult:
    value: BurnsideElement
    per_orbit: tuple[OrbitContribution, ...]


@dataclass(frozen=True)
class OrbitProductRow:
    """index_product is index_left * index_right by construction; consistent,
    always true, is kept for output stability. Criterion 3 and
    `test_independent_block_route_on_seeded_pairs` check the per-orbit law."""

    base_label: str
    class_index: int
    index_left: int
    index_right: int
    index_product: int
    consistent: bool


@dataclass(frozen=True)
class ProductCheck:
    lhs: BurnsideElement
    rhs: BurnsideElement
    equal: bool
    product_result: DegreeResult
    left_result: DegreeResult
    right_result: DegreeResult
    orbit_rows: tuple[OrbitProductRow, ...]


# ---------------------------------------------------------------- piece construction

def tube_size(spacing2: Fraction | None) -> Fraction:
    """The default tube size for points whose squared spacing is spacing2:
    `rational_sqrt_floor(spacing2 / 32)`, or 1 when there is no second point
    (spacing2 is None). Tubes of 2 * size then stay apart, and 4 * size^2 < spacing2."""
    return Fraction(1) if spacing2 is None else linalg.rational_sqrt_floor(spacing2 / 32)


def standard_piece(rep: OrthogonalRepresentation, base_point, local: LocalMapDef,
                   radius=None, epsilon=None) -> StandardPiece:
    """Validate and build one standard piece.

    When radius or epsilon are omitted they default to a safe bound below a
    quarter of the minimal spacing of the orbit. Validation covers: exact
    isotropy and orbit computation (the orbit is kept on the piece), the
    epsilon-versus-orbit-spacing bound, arity of the local map against dim
    V^H, the {0,1} constraint on declared indices at dimension zero, a
    nonsingular linear block (SingularJacobian otherwise), and for
    expression pieces an exact zero at the base point with a nonsingular
    Jacobian (SingularJacobian otherwise), then uniqueness of that zero in
    the ball, which an exact interval Krawczyk certificate proves or the
    piece is refused (`_certify_unique`). The piece's local index is the
    declared integer or the sign of that determinant; at d = 0 it is the
    empty determinant's sign, 1.
    """
    x0 = linalg.vec(base_point)
    if len(x0) != rep.dim:
        raise InvalidPiece(
            f"base point has {len(x0)} coordinates, expected {rep.dim}"
        )
    sub, orb = integer_orbit(rep, x0)
    spacing2 = linalg.min_orbit_spacing2([orb])
    default_size = tube_size(spacing2)
    radius = Fraction(radius) if radius is not None else default_size
    epsilon = Fraction(epsilon) if epsilon is not None else default_size
    if radius <= 0 or epsilon <= 0:
        raise InvalidPiece("radius and epsilon must be positive")
    if spacing2 is not None and 4 * epsilon * epsilon >= spacing2:
        raise InvalidPiece(
            "epsilon must stay below half the minimal spacing of the orbit"
        )

    fs = fixed_subspace(rep, sub)
    d = fs.dim_fixed
    if isinstance(local, LinearLocalMap):
        matrix = linalg.mat(local.matrix)
        if len(matrix) != d or any(len(row) != d for row in matrix):
            raise InvalidPiece(
                f"linear block must be {d}x{d} for this base point"
            )
        local = LinearLocalMap(matrix)
        index = _det_sign(matrix)
    elif isinstance(local, ExpressionLocalMap):
        if len(local.exprs) != d:
            raise InvalidPiece(
                f"expression piece needs {d} expressions, got {len(local.exprs)}"
            )
        if any(e.dim != rep.dim for e in local.exprs):
            raise InvalidPiece("expressions must use ambient variables x1..xn")
        if any(abs(c) > sys.float_info.max for c in (*x0, radius)):
            raise InvalidPiece("expression piece coordinates are out of floating-point range")
        try:
            trees = []
            for e in local.exprs:
                value, tree = expr_mod.fold(e, x0, fs.basis)
                if value:
                    raise InvalidPiece("expression local map does not vanish at the base point")
                trees.append(tree)
            index = _certify_unique(trees, radius)
        except OverflowError as exc:
            raise InvalidPiece(f"expression piece has {exc}") from exc
    elif isinstance(local, DeclaredLocalMap):
        if d == 0 and local.index not in (0, 1):
            raise InvalidPiece(
                "a zero-dimensional piece can only carry index 0 or 1"
            )
        index = local.index
    else:
        raise InvalidPiece(f"unknown local map variant: {local!r}")
    return StandardPiece(x0, sub, radius, epsilon, local, index, orb)


def _certify_unique(trees: Sequence[expr_mod.Node], radius: Fraction) -> int:
    """Prove, by an exact interval Krawczyk test, that x0 is the only zero
    of the expressions on the ball |u| <= radius, x = x0 + sum u_k b_k, and
    return the local index, the sign of det F'(x0); `trees` are the
    expressions `fold`ed along the basis b_k of V^H at x0.

    The ball holds the piece's radius ball: each `kernel_basis` vector has
    a 1 in its own free column and a 0 in the others', so |sum u_k b_k| >=
    |u|. The boxes live in the coordinates v = J u, with J = F'(x0) read
    exactly off the trees at u = 0. The trees of G(v) = F(J^-1 v) are the
    u-trees with each leaf's coefficients mapped by (J^-1)^T
    (`expr.change_basis`). G has G'(0) = I and the Krawczyk operator needs
    no preconditioner: K(X) = c - G(c) + (I - G'(X))(X - c) (Krawczyk,
    Computing 4 (1969); Moore, Interval Analysis (1966)). The first box,
    |v_i| <= radius |J_i|, holds the image of the ball; a box whose u-range
    misses the ball is dropped. Every other box must be unique (it holds x0
    and K(X) lies in its interior, so x0 is its only zero) or empty (0 is
    outside G(X), or K(X) misses X); the rest, and a box on which a
    divisor's enclosure contains 0, split in thirds along their widest
    side, so x0 stays inside the middle box; on a bisected box it would sit
    on an edge. Raises SingularJacobian when J is singular, InvalidPiece
    when CERTIFICATE_BOXES boxes do not decide the ball, and OverflowError
    on a power beyond EXACT_POWER_BITS.
    """
    d = len(trees)
    origin = (0,) * d
    jacobian = _jacobian_at_origin(trees)
    index = _det_sign(jacobian)
    y = linalg.solve(jacobian, linalg.identity(d))
    trees = [expr_mod.change_basis(t, y) for t in trees]
    # u = J^-1 v = Y v / q on integers, for the gap test below
    q = math.lcm(*(c.denominator for row in y for c in row))
    y = [[c.numerator * (q // c.denominator) for c in row] for row in y]
    r2 = radius * radius
    widths = []
    for row in jacobian:
        # |v_i| <= sqrt(a / b) on the ball, and ceil(sqrt(a b)) / b >= sqrt(a / b)
        a, b = (r2 * sum(g * g for g in row)).as_integer_ratio()
        widths.append(Fraction(math.isqrt(a * b - 1) + 1, b))
    boxes = [(origin, tuple(widths))]
    for _ in range(CERTIFICATE_BOXES):
        if not boxes:
            break
        center, radii = boxes.pop()
        box = expr_mod.clear_box(center, radii)
        if any(center):
            # squared distance from 0 to the box's u-range, row by row of u =
            # Y v / q, over (q D)^2 for the box cleared over D
            cs, ws, den = box
            gap2 = sum(max(abs(sum(a * c for a, c in zip(row, cs) if a))
                           - sum(abs(a) * w for a, w in zip(row, ws) if a), 0) ** 2
                       for row in y)
            if gap2 * r2.denominator > r2.numerator * (q * den) ** 2:
                continue  # no point of the box lies in the ball
        try:
            if _krawczyk_decides(trees, box):
                continue
        except DivisionByZero:
            pass  # a divisor's enclosure contains 0
        k = max(range(d), key=radii.__getitem__)
        third = radii[k] / 3
        narrow = radii[:k] + (third,) + radii[k + 1:]
        boxes.extend((center[:k] + (center[k] + step,) + center[k + 1:], narrow)
                     for step in (-2 * third, 0, 2 * third))
    if boxes:
        raise InvalidPiece("cannot certify the base point as the only zero in the radius ball; "
                           "shrink the radius")
    return index


def _krawczyk_decides(trees: Sequence[expr_mod.Node], box: expr_mod.Box) -> bool:
    """Whether the `clear_box`ed box X = {|v - c| <= w} is empty or unique
    for the trees G, with G'(0) = I; raises DivisionByZero as
    `integer_interval_jet` does. The box is integers over one denominator
    D, and each test below is an integer comparison scaled by positive
    denominators."""
    cs, ws, den = box
    grads = []
    for t in trees:
        (lo, hi, _), grad = expr_mod.integer_interval_jet(t, box)
        if lo > 0 or hi < 0:
            return True  # empty: 0 is outside G(X)
        grads.append(grad)
    # row i of (I - G'(X))(X - c) is [-spread_i, spread_i], spread_i = n_i / (m_i D)
    spread = []
    for i, grad in enumerate(grads):
        n, m = 0, 1
        for k, ((lo, hi, e), w) in enumerate(zip(grad, ws)):
            x = max(hi - e, e - lo) if i == k else max(hi, -lo)
            if e == m:
                n += x * w
            else:
                n, m = n * e + x * w * m, m * e
        spread.append((n, m))
    if not any(cs):  # x0 is never on an edge, so X holds x0 iff c = 0
        # unique: K(X) = x0 + [-spread, spread] lies inside X
        return all(n < w * m for (n, m), w in zip(spread, ws))
    # empty: K(X) = c - G(c) + [-spread, spread] misses X
    at_center = (cs, (0,) * len(cs), den)
    for t, (n, m), w in zip(trees, spread, ws):
        (g, _, e), _ = expr_mod.integer_interval_jet(t, at_center)
        if abs(g) * m * den > (n + w * m) * e:
            return True
    return False


def polystandard_map(rep: OrthogonalRepresentation, pieces) -> PolystandardMap:
    """Validate orbit and tube disjointness across pieces and build the map.

    Pieces clash when their orbits come within the sum of their tubes
    (radius + epsilon); with tubes T / q over one denominator q, exactly
    when gap * q^2 <= (T_i + T_j)^2 * s^2 for the gaps of `orbit_gaps2`.
    """
    pieces = tuple(pieces)
    if any(len(p.base_point) != rep.dim for p in pieces):
        raise DimensionMismatch(f"every base point needs {rep.dim} coordinates")
    gaps, scale = linalg.orbit_gaps2([p.orbit for p in pieces])
    s2 = scale * scale
    tubes = [p.radius + p.epsilon for p in pieces]
    q = math.lcm(*(t.denominator for t in tubes))
    q2 = q * q
    tube = [t.numerator * (q // t.denominator) for t in tubes]
    for i, j in itertools.combinations(range(len(pieces)), 2):
        if gaps[i][j] * q2 <= (tube[i] + tube[j]) ** 2 * s2:
            raise OverlappingPieces(
                f"pieces {i} and {j} have orbits closer than the sum "
                f"of their tube radii"
            )
    return PolystandardMap(rep=rep, pieces=pieces)


# ---------------------------------------------------------------- local index

def _det_sign(jacobian) -> int:
    """The local index from an exact Jacobian; exactly 0 is singular."""
    det = linalg.det(jacobian)
    if det == 0:
        raise SingularJacobian("the Jacobian determinant is exactly zero at the base point")
    return 1 if det > 0 else -1


def _jacobian_at_origin(trees: Sequence[expr_mod.Node]) -> list[list[Fraction]]:
    """The exact Jacobian at u = 0 of `restrict`ed trees, one pass each over the zero box."""
    box = ((0,) * len(trees),) * 2 + (1,)
    return [[Fraction(g, e) for g, _, e in expr_mod.integer_interval_jet(t, box)[1]] for t in trees]


def expression_local_index(exprs: Sequence[Expr], base_point,
                           basis: Sequence[Vector]) -> int:
    """Sign of the exact Jacobian determinant along a basis, read off the
    `restrict`ed trees as `_certify_unique` reads it. The library decides
    an expression piece's index in the certificate and does not call this."""
    if len(exprs) != len(basis):
        raise InvalidPiece(f"need {len(basis)} expressions for a {len(basis)}-dimensional block")
    x0 = linalg.vec(base_point)
    return _det_sign(_jacobian_at_origin([expr_mod.restrict(e, x0, basis) for e in exprs]))


def local_index(piece: StandardPiece, rep: OrthogonalRepresentation) -> int:
    """The integer degree of the local map at the base point, decided when
    the piece was made; `rep` is no longer read."""
    return piece.index


# ---------------------------------------------------------------- degree

def deg_standard(piece: StandardPiece, rep: OrthogonalRepresentation) -> DegreeResult:
    """Degree of a single piece: local index times the class of its orbit."""
    return deg_polystandard(PolystandardMap(rep, (piece,)))


def deg_polystandard(f: PolystandardMap) -> DegreeResult:
    """Sum of the per-piece degrees; zero-index pieces are dropped."""
    group = f.rep.group
    coeffs = [0] * len(subgroup_classes(group))
    rows: list[OrbitContribution] = []
    for piece in f.pieces:
        d = piece.index
        if d == 0:
            continue
        ci = class_index_of(group, piece.isotropy)
        coeffs[ci] += d
        rows.append(OrbitContribution(piece.label, ci, d))
    return DegreeResult(value=BurnsideElement(group, tuple(coeffs)), per_orbit=tuple(rows))


def existence_check(result: DegreeResult) -> bool:
    """A nonzero degree certifies a zero of the map."""
    return not result.value.is_zero()


# ---------------------------------------------------------------- products

def _product_orbit(p: StandardPiece, q: StandardPiece, mult, ytable: Sequence[int],
                   ztable: Sequence[int], h: int, x: Vector, denom: int) -> IntOrbit:
    """The orbit of the product point x = (y, rho(h) z0) on the block sum:
    rho(g) x is (point ytable[g] of p's orbit, point ztable[g h] of q's), each
    new pair once in g order, over the scale that `integer_orbit` gives x."""
    scale = denom * math.lcm(*(c.denominator for c in x))
    ys, zs = (points if s == scale else [tuple(v * scale // s for v in pt) for pt in points]
              for points, s in (p.orbit, q.orbit))
    moved = [ztable[row[h]] for row in mult]
    return tuple(ys[a] + zs[b] for a, b in dict.fromkeys(zip(ytable, moved))), scale


def _product(f: PolystandardMap, g: PolystandardMap):
    """The product map and the factor pieces (p, q) of each of its pieces.

    rho(g) x0 is point `left_cosets(G, G_x0)[g]` of a piece's orbit, and
    rho(k)(y, rho(h) z0) = (rho(k) y, rho(kh) z0), so every image on the block
    sum is an index lookup and no matrix is applied. A piece's isotropy and
    orbit are what `integer_orbit` on the sum gives; the orbit is built on
    first read, by `_product_orbit` from the factor orbits and these lookups.
    """
    sum_rep = direct_sum(f.rep, g.rep)
    if not f.pieces or not g.pieces:
        return PolystandardMap(sum_rep, ()), ()

    # the product needs no validation. Let m be the least radius or epsilon
    # of all factor pieces. In every map the library accepts or builds,
    # distinct zeros are more than 2m apart: `standard_piece` keeps
    # 4 epsilon^2 < s inside an orbit, `polystandard_map` keeps two orbits
    # more than r_i + epsilon_i + r_j + epsilon_j apart, realized pieces are
    # at least sqrt(32) * size apart, and product pieces more than 4 * size.
    # Two distinct product points differ in one factor, so they too are more
    # than 2m apart: tubes of 2 * size = m stay disjoint, and each piece's own
    # check, 4 * size^2 = m^2 < s, holds
    size = min(min(p.radius, p.epsilon) for p in (*f.pieces, *g.pieces)) / 2

    group, denom = sum_rep.group, sum_rep.denom
    tables = [left_cosets(group, q.isotropy) for q in g.pieces]
    pieces, factors = [], []
    for p in f.pieces:
        ytable = left_cosets(group, p.isotropy)
        for q, ztable in zip(g.pieces, tables):
            # the diagonal orbits of G y x G z meet {y} x G z in its G_y-orbits:
            # one piece per double coset G_y h G_z, at (y, rho(h) z0) for its least h
            zs, zscale = q.orbit
            index = p.index * q.index
            for h, sub in double_cosets(group, p.isotropy, ztable):
                x = p.base_point + tuple(Fraction(v, zscale) for v in zs[ztable[h]])
                pieces.append(StandardPiece(x, sub, size, size, DeclaredLocalMap(index), index,
                                            partial(_product_orbit, p, q, group.mult_table,
                                                    ytable, ztable, h, x, denom)))
                factors.append((p, q))
    return PolystandardMap(sum_rep, tuple(pieces)), tuple(factors)


def product_map(f: PolystandardMap, g: PolystandardMap) -> PolystandardMap:
    """The product map over V (+) W as a polystandard descriptor.

    For each pair of zero orbits, one piece per diagonal orbit of their
    product, carrying the declared index d_left * d_right and radii shrunk
    to fit inside the product tube.
    """
    return _product(f, g)[0]


def verify_product(f: PolystandardMap, g: PolystandardMap) -> ProductCheck:
    """Compare the degree of the product map against the ring product.

    Every local index was decided when its piece was made, so this reads
    indices and computes no determinant or Jacobian; each product piece's
    label is formatted once, for both its degree row and its orbit row.
    """
    prod, factors = _product(f, g)
    product_result = deg_polystandard(prod)
    left_result = deg_polystandard(f)
    right_result = deg_polystandard(g)
    rhs = ring_mul(left_result.value, right_result.value)
    orbit_rows = [
        OrbitProductRow(
            base_label=piece.label,
            class_index=class_index_of(prod.rep.group, piece.isotropy),
            index_left=p.index,
            index_right=q.index,
            index_product=piece.index,
            consistent=True,
        )
        for piece, (p, q) in zip(prod.pieces, factors)
    ]
    return ProductCheck(
        lhs=product_result.value,
        rhs=rhs,
        equal=(product_result.value == rhs),
        product_result=product_result,
        left_result=left_result,
        right_result=right_result,
        orbit_rows=tuple(orbit_rows),
    )


# ---------------------------------------------------------------- linear transport

def ambient_linear_map(rep: OrthogonalRepresentation, piece: StandardPiece) -> Matrix:
    """The linear block extended to all of V: A on V^H, identity normal to it."""
    if not isinstance(piece.local, LinearLocalMap):
        raise InvalidPiece("ambient extension needs a linear-variant piece")
    fs = fixed_subspace(rep, piece.isotropy)
    n = rep.dim
    if fs.dim_fixed == 0:
        return linalg.identity(n)
    c = linalg.columns(fs.basis)
    ct = linalg.transpose(c)
    gram = linalg.matmul(ct, c)
    pinv = linalg.solve(gram, ct)  # (C^T C)^-1 C^T
    proj = linalg.matmul(c, pinv)
    on_fixed = linalg.matmul(c, linalg.matmul(piece.local.matrix, pinv))
    return linalg.madd(on_fixed, linalg.msub(linalg.identity(n), proj))


def conjugate_linear_piece(rep: OrthogonalRepresentation, piece: StandardPiece,
                           g: int) -> StandardPiece:
    """Transport a linear piece along a group element.

    The base point moves to rho(g) x0 and the block becomes the restriction
    of rho(g) F rho(g)^-1 to the conjugate fixed subspace; the local index
    is invariant under this transport.
    """
    rg = rep.matrices[g]
    rginv = rep.matrices[rep.group.inverse[g]]
    y = linalg.matvec(rg, piece.base_point)
    moved = linalg.matmul(rg, linalg.matmul(ambient_linear_map(rep, piece), rginv))
    target = isotropy(rep, y)
    basis = fixed_subspace(rep, target).basis
    block = linalg.restricted_matrix(moved, basis)
    return standard_piece(
        rep, y, LinearLocalMap(block), radius=piece.radius, epsilon=piece.epsilon
    )
