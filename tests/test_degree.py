"""Local indices, degrees, products, and the independent block-matrix route."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import burneq as bq
import burneq.linalg as la
from burneq import degree, expr, fuzz
from burneq.degree import (
    DeclaredLocalMap,
    ExpressionLocalMap,
    LinearLocalMap,
    ambient_linear_map,
    conjugate_linear_piece,
)
from burneq.representation import OrthogonalRepresentation
from burneq.errors import (
    DivisionByZero,
    EmptyOrbitTypeStratum,
    GroupMismatch,
    InvalidPiece,
    OverlappingPieces,
    SingularJacobian,
)
from groupdata import (
    PRODUCT_CORPUS_REPS,
    canonical_tree,
    fraction_det,
    fraction_interval_jet,
    fraction_restrict,
    jet,
    kernel_interval_jet,
    make_group,
    make_rep,
)

QUARTER = Fraction(1, 4)


def unit_piece(rep, point, size=None):
    if size is None:
        return bq.standard_piece(rep, point, LinearLocalMap(la.identity(_local_dim(rep, point))))
    return bq.standard_piece(
        rep, point, LinearLocalMap(la.identity(_local_dim(rep, point))),
        radius=size, epsilon=size,
    )


def _local_dim(rep, point):
    return bq.fixed_subspace(rep, bq.isotropy(rep, point)).dim_fixed


def unmutated_draw(rep, rng):
    """The map a fuzz draw realizes before its mutation, from the same random stream."""
    return bq.realize_element(bq.RealizationTarget(fuzz.random_feasible_element(rep, rng), rep))


def block_diag(a, b, na, nb):
    zero = Fraction(0)
    top = [tuple(row) + (zero,) * nb for row in a]
    bottom = [(zero,) * na + tuple(row) for row in b]
    return tuple(top + bottom)


def independent_product_index(f, g, sum_rep, prod_piece):
    """Recompute the product index from block matrices, no index products.

    Transports each factor's ambient linear extension to the relevant orbit
    point, forms the block sum, restricts it to the fixed subspace of the
    product isotropy, and takes the exact determinant sign.
    """
    nv = f.rep.dim
    y = prod_piece.base_point[:nv]
    z = prod_piece.base_point[nv:]

    def transported(poly, point):
        rep = poly.rep
        for piece in poly.pieces:
            for w in range(rep.group.order):
                if rep.apply(w, piece.base_point) == point:
                    rw = rep.matrices[w]
                    rwinv = rep.matrices[rep.group.inverse[w]]
                    amb = ambient_linear_map(rep, piece)
                    return la.matmul(rw, la.matmul(amb, rwinv))
        raise AssertionError("orbit point does not belong to any piece")

    block = block_diag(transported(f, y), transported(g, z), nv, g.rep.dim)
    basis = bq.fixed_subspace(sum_rep, prod_piece.isotropy).basis
    restricted = la.restricted_matrix(block, basis)
    det = fraction_det(restricted)
    assert det != 0
    return 1 if det > 0 else -1


# ---------------------------------------------------------------- local index

def test_identity_block_has_index_one(z2_sign):
    p = unit_piece(z2_sign, [1])
    assert bq.local_index(p, z2_sign) == 1


def test_sign_block_has_index_minus_one(s3_perm):
    w = la.vec([1, 1, 0])
    p = bq.standard_piece(s3_perm, w, LinearLocalMap(la.mat([[-1, 0], [0, 1]])))
    assert bq.local_index(p, s3_perm) == -1


def test_cubic_is_singular():
    # V^G = {0} for the sign action, so put the cubic on the trivial group;
    # the uniqueness certificate needs F'(x0), so standard_piece refuses it
    triv = bq.generate_group([[0]])
    line = bq.trivial_representation(triv, 1)
    with pytest.raises(SingularJacobian, match="exactly zero at the base point"):
        bq.standard_piece(
            line, [0], ExpressionLocalMap((expr.parse("x1^3", 1),)), radius=1, epsilon=1
        )


def test_expression_index_plus_one():
    triv = bq.generate_group([[0]])
    plane = bq.trivial_representation(triv, 2)
    local = ExpressionLocalMap(
        (expr.parse("x1 - x2^2", 2), expr.parse("x2 + x1^2", 2))
    )
    p = bq.standard_piece(plane, [0, 0], local, radius=1, epsilon=1)
    assert bq.local_index(p, plane) == 1


@pytest.mark.parametrize("sources", [
    ("1000*x1", "0.000000001*x2"),
    ("x1 + x2", "x1 + 1.000000001*x2"),
])
def test_expression_index_is_exact_for_small_determinants(sources):
    exprs = [expr.parse(src, 2) for src in sources]
    basis = [la.vec([1, 0]), la.vec([0, 1])]
    assert bq.expression_local_index(exprs, la.vec([0, 0]), basis) == 1


def test_exactly_singular_expression_jacobian():
    exprs = [expr.parse("0.1*x1 + 0.3*x2", 2), expr.parse("x1 + 3*x2", 2)]
    with pytest.raises(SingularJacobian):
        bq.expression_local_index(exprs, la.vec([0, 0]), [la.vec([1, 0]), la.vec([0, 1])])


def test_approximate_zero_is_refused():
    triv = bq.generate_group([[0]])
    line = bq.trivial_representation(triv, 1)
    local = ExpressionLocalMap((expr.parse("x1^2 - 2", 1),))
    with pytest.raises(InvalidPiece, match="does not vanish"):
        bq.standard_piece(line, ["1.4142135623730951"], local, radius="1/4", epsilon="1/4")


def test_singular_linear_block(z2_sign):
    with pytest.raises(SingularJacobian):
        bq.standard_piece(z2_sign, [1], LinearLocalMap(((Fraction(0),),)))


def test_declared_index_returned_verbatim(s3_perm):
    p = bq.standard_piece(s3_perm, [1, 1, 0], DeclaredLocalMap(-7))
    assert bq.local_index(p, s3_perm) == -7


def test_zero_dim_piece_constraint():
    rep = make_rep("V4-signs")  # dim V^G = 0
    origin = [0, 0]
    assert bq.local_index(bq.standard_piece(rep, origin, DeclaredLocalMap(1)), rep) == 1
    assert bq.local_index(bq.standard_piece(rep, origin, LinearLocalMap(())), rep) == 1
    empty_exprs = bq.standard_piece(rep, origin, ExpressionLocalMap(()))
    assert bq.local_index(empty_exprs, rep) == 1
    with pytest.raises(InvalidPiece):
        bq.standard_piece(rep, origin, DeclaredLocalMap(2))
    with pytest.raises(InvalidPiece):
        bq.standard_piece(rep, origin, DeclaredLocalMap(-1))


# ---------------------------------------------------------------- piece validation

def test_epsilon_bound_enforced(z2_sign):
    with pytest.raises(InvalidPiece):
        bq.standard_piece(
            z2_sign, [1], LinearLocalMap(((Fraction(1),),)), radius=1, epsilon=1
        )


def test_wrong_block_size_rejected(s3_perm):
    with pytest.raises(InvalidPiece):
        bq.standard_piece(s3_perm, [1, 1, 0], LinearLocalMap(la.identity(3)))


def test_expression_arity_checked(s3_perm):
    with pytest.raises(InvalidPiece):
        bq.standard_piece(
            s3_perm, [1, 1, 0], ExpressionLocalMap((expr.parse("x1", 3),))
        )


def test_expression_dimension_cap():
    # there is no cap: the certificate decides d = 4 pieces too
    triv = bq.generate_group([[0]])
    big = bq.trivial_representation(triv, 4)
    local = ExpressionLocalMap(tuple(expr.parse(f"x{i + 1}", 4) for i in range(4)))
    p = bq.standard_piece(big, [0, 0, 0, 0], local, radius=1, epsilon=1)
    assert bq.local_index(p, big) == 1
    local, det = dense_cubic(4, random.Random("dense cubic:4"))
    p = bq.standard_piece(big, [0, 0, 0, 0], local, radius=1, epsilon=1)
    assert bq.local_index(p, big) == (1 if det > 0 else -1)


def test_expression_must_vanish_at_base():
    triv = bq.generate_group([[0]])
    line = bq.trivial_representation(triv, 1)
    with pytest.raises(InvalidPiece):
        bq.standard_piece(
            line, [0], ExpressionLocalMap((expr.parse("x1 + 1", 1),)),
            radius=1, epsilon=1,
        )


def test_second_zero_detected():
    triv = bq.generate_group([[0]])
    line = bq.trivial_representation(triv, 1)
    # zeros at 0 and 1/2 inside a unit ball
    local = ExpressionLocalMap((expr.parse("x1 * (x1 - 0.5)", 1),))
    with pytest.raises(InvalidPiece):
        bq.standard_piece(line, [0], local, radius=1, epsilon=1)
    # the same map is fine once the ball stops before the second zero
    p = bq.standard_piece(line, [0], local, radius="1/4", epsilon="1/4")
    assert bq.local_index(p, line) == -1


# ---------------------------------------------------------------- uniqueness certificate

def _tree(depth):
    leaf = st.one_of(st.builds(lambda k: expr.Num(Fraction(k, 4)), st.integers(-8, 8)),
                     st.builds(expr.Var, st.integers(1, 3)))
    if depth == 0:
        return leaf
    sub = _tree(depth - 1)
    return st.one_of(leaf, st.builds(expr.Neg, sub),
                     st.builds(expr.Pow, sub, st.integers(0, 4)),
                     st.builds(expr.BinOp, st.sampled_from("+-*/"), sub, sub))


_SMALL = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3, 4]))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(root=_tree(3), x0=st.lists(_SMALL, min_size=3, max_size=3),
       basis=st.lists(st.lists(_SMALL, min_size=3, max_size=3), min_size=1, max_size=2),
       data=st.data())
def test_interval_jet_encloses_the_exact_jet(root, x0, basis, data):
    """At rational points of a box, `jet`'s value and its derivative along
    each basis vector lie in the interval kernel's intervals."""
    e, d = expr.Expr(root, 3), len(basis)
    center = data.draw(st.lists(_SMALL, min_size=d, max_size=d))
    radii = data.draw(st.lists(st.builds(Fraction, st.integers(0, 8), st.just(8)),
                               min_size=d, max_size=d))
    try:
        value, grad = kernel_interval_jet(expr.restrict(e, x0, basis), center, radii)
    except (DivisionByZero, OverflowError):
        return  # the certificate splits such a box, or refuses the piece
    for _ in range(3):
        u = [c + r * Fraction(data.draw(st.integers(-16, 16)), 16)
             for c, r in zip(center, radii)]
        x = [a + sum(uk * b[j] for uk, b in zip(u, basis)) for j, a in enumerate(x0)]
        try:
            jets = [jet(e, x, b) for b in basis]
        except OverflowError:  # a value beyond the float range, which jet refuses
            continue
        assert value[0] <= jets[0][0] <= value[1]
        assert all(lo <= dv <= hi for (lo, hi), (_, dv) in zip(grad, jets))



def _outcome(f, *args):
    try:
        return f(*args)
    except (DivisionByZero, OverflowError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(root=_tree(3), x0=st.lists(_SMALL, min_size=3, max_size=3),
       basis=st.lists(st.lists(_SMALL, min_size=3, max_size=3), min_size=1, max_size=2),
       data=st.data())
def test_integer_interval_jet_matches_the_fraction_oracle(root, x0, basis, data):
    """The integer kernel gives the Fraction evaluator's enclosures, as
    rationals, or raises the same exception with the same message."""
    tree, d = expr.restrict(expr.Expr(root, 3), x0, basis), len(basis)
    center = data.draw(st.lists(_SMALL, min_size=d, max_size=d))
    radii = data.draw(st.lists(st.builds(Fraction, st.integers(0, 8), st.sampled_from([1, 3, 8])),
                               min_size=d, max_size=d))
    assert (_outcome(kernel_interval_jet, tree, center, radii)
            == _outcome(fraction_interval_jet, tree, center, radii))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(root=_tree(3), x0=st.lists(_SMALL, min_size=3, max_size=3),
       basis=st.lists(st.lists(_SMALL, min_size=3, max_size=3), min_size=1, max_size=2),
       data=st.data())
def test_fold_matches_the_fraction_oracle(root, x0, basis, data):
    """`fold` gives the Fraction jet's value at x0 and the Fraction
    restriction's tree, leaf for leaf as rationals, or raises the same
    exception with the same message, the jet's first; and its tree in
    coordinates u = M v is the restriction along M^T basis."""
    e, d = expr.Expr(root, 3), len(basis)

    def oracle():
        value = jet(e, x0, (0,) * 3)[0]
        return value, fraction_restrict(e, x0, basis)

    def folded():
        value, tree = expr.fold(e, x0, basis)
        return value, canonical_tree(tree)

    assert _outcome(folded) == _outcome(oracle)
    # restrict folds the same tree and checks nothing at x0
    assert (_outcome(lambda: canonical_tree(expr.restrict(e, x0, basis)))
            == _outcome(fraction_restrict, e, x0, basis))
    try:
        tree = expr.restrict(e, x0, basis)
    except OverflowError:
        return
    m = data.draw(st.lists(st.lists(_SMALL, min_size=d, max_size=d), min_size=d, max_size=d)
                  .filter(lambda m: fraction_det(m) != 0))
    moved = la.matmul(la.transpose(m), basis)
    assert canonical_tree(expr.change_basis(tree, m)) == fraction_restrict(e, x0, moved)


def test_power_bound_is_decided_on_reduced_endpoints():
    # over u in [0, 1], kept as [0/2, 2/2]: the unreduced endpoint 2/2 is
    # over EXACT_POWER_BITS at exponent n, and its reduced form 1/1 is not
    tree = expr.restrict(expr.parse("x1^" + str(expr.EXACT_POWER_BITS // 2), 1),
                         [Fraction(0)], [[Fraction(1)]])
    box = ([Fraction(1, 2)], [Fraction(1, 2)])
    assert expr.clear_box(*box) == ([1], [1], 2)
    n = tree.exponent
    assert n * ((2).bit_length() + (2).bit_length()) > expr.EXACT_POWER_BITS
    value, grad = kernel_interval_jet(tree, *box)
    assert (value, grad) == fraction_interval_jet(tree, *box) == ((0, 1), [(0, n)])
    over = expr.Pow(tree.base, n + 1)
    message = "a power too large to evaluate exactly"
    assert _outcome(kernel_interval_jet, over, *box) == (OverflowError, message)
    assert _outcome(fraction_interval_jet, over, *box) == (OverflowError, message)
    # x1 / 4 over |u| <= 4 is [-4/4, 4/4]: both endpoints are reduced
    # against the bound, each against the interval's own denominator
    tree = expr.restrict(expr.parse("(x1 / 4)^" + str(n), 1), [Fraction(0)], [[Fraction(1)]])
    box = ([Fraction(0)], [Fraction(4)])
    assert kernel_interval_jet(tree, *box) == fraction_interval_jet(tree, *box) == (
        (0, 1), [(Fraction(-n, 4), Fraction(n, 4))])
    # x1 / 12 over |u - 7/2| <= 1/2 is [6/24, 8/24] = [1/4, 1/3]: over the
    # bound at n / 2 unreduced and not reduced, and only the common factor
    # 2 of both endpoints and the denominator may be divided out; compared
    # by cross-multiplication, as a gcd of the million-bit results is slow
    tree = expr.restrict(expr.parse(f"(x1 / 12)^{n // 2}", 1), [Fraction(0)], [[Fraction(1)]])
    box = ([Fraction(7, 2)], [Fraction(1, 2)])
    value, grad = expr.integer_interval_jet(tree, expr.clear_box(*box))
    oracle_value, oracle_grad = fraction_interval_jet(tree, *box)
    for (lo, hi, den), (a, b) in zip([value, *grad], [oracle_value, *oracle_grad], strict=True):
        assert lo * a.denominator == a.numerator * den and hi * b.denominator == b.numerator * den


def cubic_piece(rep, d, rng, second_zero=False):
    """perfbench's expression piece: L + L^3 with L(x0 + sum u_k b_k) = M u
    for a seeded scaled signed permutation M, at a point whose isotropy has
    dim V^H = d, in its default ball of radius r. With `second_zero`, the
    first expression is L_1 (L_1 - a) instead, which vanishes again at
    distance r/2 from x0 along a basis vector. Returns the arguments of
    `standard_piece` and det M."""
    classes = [c for c in bq.subgroup_classes(rep.group)
               if bq.fixed_subspace(rep, c.representative).dim_fixed == d]
    rng.shuffle(classes)
    for cls in classes:
        try:
            x0 = bq.point_with_exact_isotropy(rep, cls.representative)
        except EmptyOrbitTypeStratum:
            continue
        break
    basis = bq.fixed_subspace(rep, cls.representative).basis
    perm = list(range(d))
    rng.shuffle(perm)
    m = la.mat([[rng.choice((-3, -2, -1, 1, 2, 3)) if j == perm[i] else 0 for j in range(d)]
                for i in range(d)])
    # (B B^T)^-1 B (x - x0) = u on x = x0 + B^T u
    coeff = la.matmul(m, la.solve(la.matmul(basis, la.transpose(basis)), basis))
    linear = [" + ".join(f"({c})*(x{j + 1} - ({x0[j]}))" for j, c in enumerate(row) if c)
              for row in coeff]
    sources = [f"({l}) + ({l})^3" for l in linear]
    if second_zero:
        radius = bq.standard_piece(rep, x0, DeclaredLocalMap(1)).radius
        a = m[0][perm[0]] * radius / 2
        sources[0] = f"({linear[0]}) * ({linear[0]} - ({a}))"
    local = ExpressionLocalMap(tuple(expr.parse(src, rep.dim) for src in sources))
    return (rep, x0, local), fraction_det(m)


CUBIC_GROUPS = [("D4", 2), ("S4", 3), ("A5", 1)]


@pytest.mark.parametrize("group, d", CUBIC_GROUPS)
def test_certificate_decides_cubic_pieces(group, d):
    rep = bq.permutation_representation(make_group(group))
    rng = random.Random(f"cubic:{group}")
    for _ in range(4):
        args, det = cubic_piece(rep, d, rng)
        assert bq.local_index(bq.standard_piece(*args), rep) == (1 if det > 0 else -1)


@pytest.mark.parametrize("group, d", CUBIC_GROUPS)
def test_second_zero_in_the_box_is_never_certified(group, d):
    # on A5 the second zero lies at ambient distance (r/2) sqrt(5), outside
    # the radius ball but inside the ball |u| <= r the certificate covers
    rep = bq.permutation_representation(make_group(group))
    rng = random.Random(f"second zero:{group}")
    for _ in range(3):
        args, _ = cubic_piece(rep, d, rng, second_zero=True)
        with pytest.raises(InvalidPiece, match="shrink the radius"):
            bq.standard_piece(*args)


def dense_cubic(d, rng):
    """L + L^3 with L = M x for a seeded nonsingular M with entries in
    [-3, 3], on the trivial representation of dimension d; returns the local
    map and det M. L + L^3 vanishes only where L does, at 0."""
    while True:
        m = la.mat([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        det = fraction_det(m)
        if det:
            break
    linear = [" + ".join(f"({c})*x{j + 1}" for j, c in enumerate(row) if c) for row in m]
    return ExpressionLocalMap(tuple(expr.parse(f"({l}) + ({l})^3", d) for l in linear)), det


@pytest.mark.parametrize("d", [2, 3, 4])
def test_certificate_trees_have_the_identity_jacobian(d, monkeypatch):
    # the Krawczyk operator runs without a preconditioner, so the trees it
    # gets, the expressions restricted along the columns of J^-1, must have
    # G(0) = 0 and G'(0) = I exactly
    space = bq.trivial_representation(bq.generate_group([[0]]), d)
    rng = random.Random(f"dense cubic:{d}")
    seen = []
    decides = degree._krawczyk_decides
    monkeypatch.setattr(degree, "_krawczyk_decides",
                        lambda trees, box: seen.append(trees) or decides(trees, box))
    for _ in range(20):
        seen.clear()
        local, _ = dense_cubic(d, rng)
        bq.standard_piece(space, [0] * d, local, radius=1, epsilon=1)
        trees = seen[0]
        origin = (0,) * d
        assert [kernel_interval_jet(t, origin, origin)[0] for t in trees] == [(0, 0)] * d
        assert degree._jacobian_at_origin(trees) == [list(row) for row in la.identity(d)]


def _fraction_decides(trees, center, radii):
    """The Krawczyk box test over `fraction_interval_jet`, in Fractions."""
    grads = []
    for t in trees:
        (lo, hi), grad = fraction_interval_jet(t, center, radii)
        if lo > 0 or hi < 0:
            return True
        grads.append(grad)
    spread = [sum(max(hi - (i == k), (i == k) - lo) * w
                  for k, ((lo, hi), w) in enumerate(zip(grad, radii)))
              for i, grad in enumerate(grads)]
    if not any(center):
        return all(s < w for s, w in zip(spread, radii))
    origin = (0,) * len(center)
    return any(abs(fraction_interval_jet(t, center, origin)[0][0]) > s + w
               for t, s, w in zip(trees, spread, radii))


def test_certificate_box_decisions_match_the_fraction_oracle(monkeypatch):
    # every box of z^7 - 1 at (1, 0), refused at radius 1 once
    # CERTIFICATE_BOXES boxes are spent and certified at 1/2, and of dense cubics
    decides = degree._krawczyk_decides

    def both(trees, box):
        cs, ws, den = box
        center, radii = [Fraction(c, den) for c in cs], [Fraction(w, den) for w in ws]
        assert expr.clear_box(center, radii) == box
        assert _outcome(decides, trees, box) == _outcome(_fraction_decides, trees, center, radii)
        return decides(trees, box)

    monkeypatch.setattr(degree, "_krawczyk_decides", both)
    plane = bq.trivial_representation(bq.generate_group([[0]]), 2)
    z7 = ExpressionLocalMap((
        expr.parse("x1^7 - 21*x1^5*x2^2 + 35*x1^3*x2^4 - 7*x1*x2^6 - 1", 2),
        expr.parse("7*x1^6*x2 - 35*x1^4*x2^3 + 21*x1^2*x2^5 - x2^7", 2)))
    with pytest.raises(InvalidPiece, match="shrink the radius"):
        bq.standard_piece(plane, [1, 0], z7, radius=1, epsilon=1)
    assert bq.standard_piece(plane, [1, 0], z7, radius="1/2", epsilon=1).index == 1
    rng = random.Random("dense cubic:3")
    space = bq.trivial_representation(bq.generate_group([[0]]), 3)
    for _ in range(5):
        local, det = dense_cubic(3, rng)
        piece = bq.standard_piece(space, [0] * 3, local, radius=1, epsilon=1)
        assert piece.index == (1 if det > 0 else -1)


def test_box_drop_matches_the_fraction_gap(monkeypatch):
    # every box the certificate pops is cleared once; the boxes it hands
    # to the Krawczyk test must be those whose u-range, by the Fraction
    # gap over u = J^-1 v, meets the ball
    popped, decided = [], []
    clear, decides = expr.clear_box, degree._krawczyk_decides
    monkeypatch.setattr(expr, "clear_box",
                        lambda c, r: popped.append((tuple(c), tuple(r))) or clear(c, r))
    monkeypatch.setattr(degree, "_krawczyk_decides",
                        lambda trees, box: decided.append(box) or decides(trees, box))
    plane = bq.trivial_representation(bq.generate_group([[0]]), 2)
    z7 = ExpressionLocalMap((
        expr.parse("x1^7 - 21*x1^5*x2^2 + 35*x1^3*x2^4 - 7*x1*x2^6 - 1", 2),
        expr.parse("7*x1^6*x2 - 35*x1^4*x2^3 + 21*x1^2*x2^5 - x2^7", 2)))
    cases = [(plane, (1, 0), z7, Fraction(1)), (plane, (1, 0), z7, Fraction(1, 2))]
    rng = random.Random("dense cubic:3")
    space = bq.trivial_representation(bq.generate_group([[0]]), 3)
    cases += [(space, (0, 0, 0), dense_cubic(3, rng)[0], Fraction(1)) for _ in range(3)]
    dropped = 0
    for rep, x0, local, radius in cases:
        popped.clear()
        decided.clear()
        try:
            bq.standard_piece(rep, x0, local, radius=radius, epsilon=1)
        except InvalidPiece:
            pass
        x0 = la.vec(x0)
        basis = bq.fixed_subspace(rep, bq.isotropy(rep, x0)).basis
        jacobian = degree._jacobian_at_origin([expr.restrict(e, x0, basis) for e in local.exprs])
        y = la.solve(jacobian, la.identity(len(basis)))

        def meets_ball(box):
            center, radii = box
            gap2 = sum(max(abs(sum(a * c for a, c in zip(row, center)))
                           - sum(abs(a) * w for a, w in zip(row, radii)), 0) ** 2 for row in y)
            return not any(center) or gap2 <= radius * radius

        kept = [clear(*box) for box in popped if meets_ball(box)]
        assert kept == decided
        dropped += len(popped) - len(kept)
    assert dropped > 0


@pytest.mark.parametrize("d", [2, 3])
def test_certificate_decides_dense_cubic_pieces(d):
    space = bq.trivial_representation(bq.generate_group([[0]]), d)
    rng = random.Random(f"dense cubic:{d}")
    for _ in range(20):
        local, det = dense_cubic(d, rng)
        p = bq.standard_piece(space, [0] * d, local, radius=1, epsilon=1)
        assert bq.local_index(p, space) == (1 if det > 0 else -1)


@pytest.mark.parametrize("source, refusal", [
    ("x1 / (x1*x1 - x1 + 1)", None),  # the divisor's enclosure on [-1, 1] is [-1, 3]
    ("x1 * (x1 - 0.5) / (x1*x1 - x1 + 1)", InvalidPiece),
    ("x1^3", SingularJacobian),  # F'(x0) = 0
    ("x1 * x1 * (x1 - 0.5)", SingularJacobian),
], ids=["divisor", "divisor-second-zero", "cube", "square-second-zero"])
def test_certificate_on_divisors_and_flat_zeros(source, refusal):
    line = bq.trivial_representation(bq.generate_group([[0]]), 1)
    local = ExpressionLocalMap((expr.parse(source, 1),))
    if refusal is None:
        bq.standard_piece(line, [0], local, radius=1, epsilon=1)
    else:
        with pytest.raises(refusal):
            bq.standard_piece(line, [0], local, radius=1, epsilon=1)


def test_overlapping_pieces_rejected(z2_sign):
    size = Fraction(3, 4)  # valid per piece, but the tubes around 1 and 2 meet
    a = unit_piece(z2_sign, [1], size=size)
    b = unit_piece(z2_sign, [2], size=size)
    with pytest.raises(OverlappingPieces):
        bq.polystandard_map(z2_sign, (a, b))


def test_same_orbit_twice_rejected(z2_sign):
    a = unit_piece(z2_sign, [1], size=QUARTER)
    b = unit_piece(z2_sign, [-1], size=QUARTER)
    with pytest.raises(OverlappingPieces):
        bq.polystandard_map(z2_sign, (a, b))


# ---------------------------------------------------------------- degree

def test_normalization_sign_rep(z2_sign):
    result = bq.deg_standard(unit_piece(z2_sign, [1]), z2_sign)
    assert result.value == bq.basis_element(z2_sign.group, 0)
    assert len(result.per_orbit) == 1


def test_normalization_origin_unit(s3_perm):
    p = bq.standard_piece(s3_perm, [1, 1, 1], DeclaredLocalMap(1))
    result = bq.deg_standard(p, s3_perm)
    assert result.value == bq.unit_element(s3_perm.group)


def test_normalization_three_point_orbit(s3_perm):
    result = bq.deg_standard(unit_piece(s3_perm, [1, 1, 0]), s3_perm)
    assert result.value == bq.basis_element(s3_perm.group, 1)
    # oracle: the orbit itself as a G-set decomposes to the same class
    orbit_points = bq.orbit(s3_perm, [1, 1, 0])
    index = {pt: i for i, pt in enumerate(orbit_points)}
    action = tuple(
        tuple(index[s3_perm.apply(g, pt)] for pt in orbit_points)
        for g in range(s3_perm.group.order)
    )
    gset = bq.FiniteGSet(group=s3_perm.group, size=len(orbit_points), action=action)
    assert bq.decompose_gset(gset) == result.value


def test_empty_map_has_zero_degree(z2_sign):
    f = bq.polystandard_map(z2_sign, ())
    assert bq.deg_polystandard(f).value.is_zero()


def test_two_pieces_add(z2_sign):
    f = bq.polystandard_map(
        z2_sign, (unit_piece(z2_sign, [1], QUARTER), unit_piece(z2_sign, [3], QUARTER))
    )
    assert bq.deg_polystandard(f).value.coeffs == (2, 0)


def test_opposite_indices_cancel(z2_sign):
    minus = bq.standard_piece(
        z2_sign, [3], LinearLocalMap(((Fraction(-1),),)), radius=QUARTER, epsilon=QUARTER
    )
    f = bq.polystandard_map(z2_sign, (unit_piece(z2_sign, [1], QUARTER), minus))
    result = bq.deg_polystandard(f)
    assert result.value.is_zero()
    assert not bq.existence_check(result)


def test_additivity_of_concatenation(s3_perm):
    rng = random.Random(5)
    f = fuzz.random_polystandard_map(s3_perm, rng)
    while len(f.pieces) < 2:
        f = fuzz.random_polystandard_map(s3_perm, rng)
    left = bq.polystandard_map(s3_perm, f.pieces[0::2])
    right = bq.polystandard_map(s3_perm, f.pieces[1::2])
    assert bq.deg_polystandard(f).value == bq.add(
        bq.deg_polystandard(left).value, bq.deg_polystandard(right).value
    )


def test_zero_index_pieces_dropped(s3_perm):
    p = bq.standard_piece(s3_perm, [1, 1, 0], DeclaredLocalMap(0))
    result = bq.deg_polystandard(bq.polystandard_map(s3_perm, (p,)))
    assert result.value.is_zero()
    assert result.per_orbit == ()


def test_existence_check(z2_sign):
    assert bq.existence_check(bq.deg_standard(unit_piece(z2_sign, [1]), z2_sign))
    empty = bq.deg_polystandard(bq.polystandard_map(z2_sign, ()))
    assert not bq.existence_check(empty)


def test_degree_result_recomputable(s3_perm):
    rng = random.Random(11)
    f = fuzz.random_polystandard_map(s3_perm, rng)
    result = bq.deg_polystandard(f)
    total = bq.zero_element(s3_perm.group)
    for row in result.per_orbit:
        total = bq.add(total, row.index * bq.basis_element(s3_perm.group, row.class_index))
    assert total == result.value


# ---------------------------------------------------------------- conjugation invariance

@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_conjugation_invariance_of_linear_pieces(name):
    rep = make_rep(name)
    rng = random.Random(f"conjugation {name}")
    for entry in bq.representation.occupied_classes(rep):
        if entry.dim_fixed == 0:
            continue
        sub = bq.subgroup_classes(rep.group)[entry.class_index].representative
        w = bq.point_with_exact_isotropy(rep, sub)
        block, _ = fuzz._signed_block(rng, entry.dim_fixed)
        piece = bq.standard_piece(rep, w, LinearLocalMap(block))
        d = bq.local_index(piece, rep)
        for g in range(rep.group.order):
            moved = conjugate_linear_piece(rep, piece, g)
            assert bq.local_index(moved, rep) == d
            assert moved.isotropy == bq.group.conjugate_subgroup(rep.group, sub, g)


# ---------------------------------------------------------------- products

def test_product_z2_example(z2_sign):
    f = bq.polystandard_map(z2_sign, (unit_piece(z2_sign, [1]),))
    check = bq.verify_product(f, f)
    assert check.equal
    assert check.lhs.coeffs == (2, 0)
    assert len(check.orbit_rows) == 2
    assert all(r.index_product == 1 and r.consistent for r in check.orbit_rows)


def test_product_with_empty_factor(z2_sign):
    f = bq.polystandard_map(z2_sign, (unit_piece(z2_sign, [1]),))
    empty = bq.polystandard_map(z2_sign, ())
    prod = bq.product_map(f, empty)
    assert prod.pieces == ()
    assert bq.verify_product(f, empty).equal


def test_minus_times_minus(z2_sign):
    minus = bq.standard_piece(z2_sign, [1], LinearLocalMap(((Fraction(-1),),)))
    f = bq.polystandard_map(z2_sign, (minus,))
    check = bq.verify_product(f, f)
    assert check.equal
    assert all(r.index_product == 1 for r in check.orbit_rows)
    assert check.lhs.coeffs == (2, 0)


def test_product_with_unit_germ(s3_perm):
    f = bq.polystandard_map(s3_perm, (unit_piece(s3_perm, [1, 1, 0]),))
    unit_map = bq.polystandard_map(
        s3_perm, (bq.standard_piece(s3_perm, [1, 1, 1], DeclaredLocalMap(1)),)
    )
    check = bq.verify_product(f, unit_map)
    assert check.equal
    assert check.lhs == bq.deg_polystandard(f).value


def test_product_c2_times_c3(s3_perm):
    reg = make_rep("S3-regular")
    c3 = next(s for s in bq.all_subgroups(s3_perm.group) if s.order == 3)
    w3 = bq.point_with_exact_isotropy(reg, c3)
    f = bq.polystandard_map(s3_perm, (unit_piece(s3_perm, [1, 1, 0]),))
    g = bq.polystandard_map(reg, (unit_piece(reg, w3),))
    check = bq.verify_product(f, g)
    assert check.equal
    assert check.lhs == bq.basis_element(s3_perm.group, 0)


def test_product_group_mismatch(z2_sign):
    other = bq.polystandard_map(make_rep("S3-perm"), ())
    f = bq.polystandard_map(z2_sign, ())
    with pytest.raises(GroupMismatch):
        bq.product_map(f, other)


def test_product_cardinality_conservation(s3_perm):
    rng = random.Random(23)
    f = fuzz.random_polystandard_map(s3_perm, rng)
    g = fuzz.random_polystandard_map(s3_perm, rng)
    sum_rep = bq.direct_sum(s3_perm, s3_perm)
    prod = bq.product_map(f, g)
    left_points = sum(len(bq.orbit(s3_perm, p.base_point)) for p in f.pieces)
    right_points = sum(len(bq.orbit(s3_perm, p.base_point)) for p in g.pieces)
    prod_points = sum(len(bq.orbit(sum_rep, p.base_point)) for p in prod.pieces)
    assert prod_points == left_points * right_points


def test_independent_block_route_on_seeded_pairs():
    rng = random.Random(314)
    for name in PRODUCT_CORPUS_REPS:
        rep = make_rep(name)
        for _ in range(3):
            f = fuzz.random_polystandard_map(rep, rng)
            g = fuzz.random_polystandard_map(rep, rng)
            if not all(isinstance(p.local, LinearLocalMap) for p in (*f.pieces, *g.pieces)):
                continue
            check = bq.verify_product(f, g)
            assert check.equal
            sum_rep = bq.direct_sum(rep, rep)
            prod = bq.product_map(f, g)
            for piece, row in zip(prod.pieces, check.orbit_rows):
                recomputed = independent_product_index(f, g, sum_rep, piece)
                assert recomputed == row.index_left * row.index_right
                assert recomputed == row.index_product


@pytest.mark.parametrize("name", [*PRODUCT_CORPUS_REPS, "S3-regular"])
def test_mutated_piece_matches_a_full_rebuild(name):
    rep = make_rep(name)
    changed = 0
    for seed in range(40):
        rng = random.Random(seed)
        f = unmutated_draw(rep, rng)
        for piece in f.pieces:
            mutated = fuzz._mutate_piece(piece, rng)
            rebuilt = bq.standard_piece(rep, piece.base_point, mutated.local,
                                        radius=piece.radius, epsilon=piece.epsilon)
            assert mutated == rebuilt
            assert mutated.orbit == rebuilt.orbit
            changed += mutated.local != piece.local
    assert changed > 0


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_verify_product_computes_each_factor_index_once(name, monkeypatch):
    # every index is decided when its piece is made: the degrees and the
    # product read them, and compute no determinant and no Jacobian
    rep = make_rep(name)
    rng = random.Random(0)
    f = fuzz.random_polystandard_map(rep, rng)
    g = fuzz.random_polystandard_map(rep, rng)
    # swap a piece with dim V^H > 0 for the expression piece u = B^T (x - x0)
    # on the same base point; its Jacobian is the Gram matrix of the basis B
    # of V^H, so its local index is +1
    k = next(i for i, p in enumerate(f.pieces) if _local_dim(rep, p.base_point) > 0)
    piece = f.pieces[k]
    basis = bq.fixed_subspace(rep, piece.isotropy).basis
    local = ExpressionLocalMap(tuple(
        expr.parse(" + ".join(f"({b}) * (x{j + 1} - ({c}))"
                              for j, (b, c) in enumerate(zip(row, piece.base_point)) if b),
                   rep.dim)
        for row in basis))
    swapped = bq.standard_piece(rep, piece.base_point, local, piece.radius, piece.epsilon)
    assert swapped.index == 1
    f = bq.polystandard_map(rep, f.pieces[:k] + (swapped,) + f.pieces[k + 1:])
    assert any(isinstance(p.local, LinearLocalMap) for m in (f, g) for p in m.pieces)
    calls = []
    det, restrict, fold = la.det, expr.restrict, expr.fold
    monkeypatch.setattr(la, "det", lambda matrix: calls.append(matrix) or det(matrix))
    monkeypatch.setattr(expr, "restrict", lambda *a: calls.append(a) or restrict(*a))
    monkeypatch.setattr(expr, "fold", lambda *a: calls.append(a) or fold(*a))
    assert bq.verify_product(f, g).equal
    bq.deg_polystandard(f)
    bq.deg_polystandard(g)
    assert calls == []


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_one_image_pass_per_piece_and_none_per_product(name, monkeypatch):
    rep = make_rep(name)
    rng = random.Random(0)
    f = fuzz.random_polystandard_map(rep, rng)
    g = fuzz.random_polystandard_map(rep, rng)
    calls = []
    images = OrthogonalRepresentation.images
    monkeypatch.setattr(OrthogonalRepresentation, "images",
                        lambda self, point: calls.append(self) or images(self, point))
    for p in f.pieces:
        bq.standard_piece(rep, p.base_point, p.local, p.radius, p.epsilon)
    assert len(calls) == len(f.pieces) > 0
    calls.clear()
    # the product reads each factor point's position off the coset numbering
    # of its isotropy, so no image pass runs, on a factor or on the block sum
    prod = bq.product_map(f, g)
    check = bq.verify_product(f, g)
    assert prod.pieces and check.equal
    assert calls == []


@pytest.mark.parametrize("name", [*PRODUCT_CORPUS_REPS, "S3-regular"])
def test_verify_product_builds_no_product_point_and_no_spacing(name, monkeypatch):
    # the degree reads each product piece's isotropy, index and base point;
    # the product's tubes come from the factor tubes, so no orbit spacing is
    # computed, for fuzz maps or for maps rebuilt through the validators as
    # `load_map` rebuilds them; the product orbits are built only when a
    # caller reads them
    rep = make_rep(name)
    rng = random.Random(f"lazy {name}")
    f = fuzz.random_polystandard_map(rep, rng)
    g = fuzz.random_polystandard_map(rep, rng)
    rebuilt = [bq.polystandard_map(rep, [
        bq.standard_piece(rep, p.base_point, p.local, p.radius, p.epsilon) for p in m.pieces
    ]) for m in (f, g)]
    spacings, built = [], []
    min_orbit_spacing2, product_orbit = la.min_orbit_spacing2, degree._product_orbit
    monkeypatch.setattr(la, "min_orbit_spacing2",
                        lambda orbits: spacings.append(orbits) or min_orbit_spacing2(orbits))
    monkeypatch.setattr(degree, "_product_orbit",
                        lambda *args: built.append(args) or product_orbit(*args))
    check = bq.verify_product(f, g)
    assert check.equal and check.orbit_rows
    assert bq.verify_product(*rebuilt) == check
    assert spacings == [] and built == []
    prod = bq.product_map(f, g)
    assert [p.orbit for p in prod.pieces] == [p.orbit for p in prod.pieces]  # read twice
    assert len(built) == len(prod.pieces)  # built once each
    assert spacings == []


def assert_signed_block(block, sign):
    """An integer block with entries in [-12, 12] whose determinant, by an
    elimination independent of linalg.det, is nonzero and has the given sign."""
    det = fraction_det(block)
    assert det != 0
    assert sign == (1 if det > 0 else -1)
    assert all(type(x) is Fraction and x.denominator == 1 and abs(x) <= 12
               for row in block for x in row)


@pytest.mark.parametrize("name", [*PRODUCT_CORPUS_REPS, "S3-regular"])
def test_fuzz_draws_blocks_of_known_sign_without_elimination(name, monkeypatch):
    # the sign of a sampled block is known by construction, so over whole
    # fuzz draws linalg.det is never called, from any module; every block
    # the mutation keeps, found against the unmutated draw of the same seed,
    # is nonsingular, its piece's index is its determinant's sign by an
    # independent elimination, and its entries are integers in [-12, 12]
    rep = make_rep(name)
    det, kept = la.det, []
    for seed in range(20):
        rng = random.Random(seed)
        plain = unmutated_draw(rep, rng)
        rng = random.Random(seed)
        calls = []
        monkeypatch.setattr(la, "det", lambda matrix: calls.append(matrix) or det(matrix))
        f = fuzz.random_polystandard_map(rep, rng)
        monkeypatch.undo()
        assert calls == []
        assert len(f.pieces) == len(plain.pieces)
        kept += [after for before, after in zip(plain.pieces, f.pieces)
                 if after.local != before.local and isinstance(after.local, LinearLocalMap)]
    assert kept
    for piece in kept:
        assert_signed_block(piece.local.matrix, piece.index)


@pytest.mark.parametrize("dim", range(1, 13))
def test_signed_block_sign_matches_an_independent_elimination(dim):
    for seed in range(50):
        block, sign = fuzz._signed_block(random.Random(f"block {dim} {seed}"), dim)
        assert len(block) == dim and all(len(row) == dim for row in block)
        assert_signed_block(block, sign)
