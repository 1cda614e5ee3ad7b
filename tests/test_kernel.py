"""The integer action kernel and orbit-level geometry against Fraction brute force.

`integer_orbit`, and `orbit` and `isotropy` through it, run on integer rows
with cleared denominators; here they are recomputed with `linalg.matvec` on
the Fraction matrices. The
orbit-level spacing and overlap checks are compared with all-pairs minima
kept in this file, `direct_sum` with a validated build of the dense block
matrices, the one-row enumeration of diagonal orbits with a walk over all
rows and its table-built orbits with `integer_orbit` on the block sum, the
left-coset numbering the product reads with the positions of one image pass,
the witness ladder with brute-force isotropy and orbits, and the
fraction-free elimination (kernels, fixed subspaces, solves, determinants)
with Fraction elimination.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import burneq as bq
import burneq.linalg as la
from burneq import fuzz
from burneq.degree import DeclaredLocalMap, StandardPiece
from burneq.errors import DimensionMismatch, EmptyOrbitTypeStratum, OverlappingPieces
from burneq.representation import _witness_orbits, integer_orbit
from burneq.group import class_index_of, left_cosets
from groupdata import PRODUCT_CORPUS_REPS, fraction_det, fraction_kernel, make_group, make_rep
from test_representation import OCCUPANCY_CORPUS, occupancy_rep

# the three-four-five rotation; conjugating by it makes rows dense rational
ROTATION = la.mat([["3/5", "-4/5", 0], ["4/5", "3/5", 0], [0, 0, 1]])

KERNEL_REPS = [
    "Z2-sign", "V4-signs", "S3-perm", "S3-regular", "D4-standard",
    "Z2-reflection", "S3-rotated", "D4-rotated",
]


def conjugated(rep, dim):
    """rho(g) -> Q rho(g) Q^T for the rotation Q restricted to `dim` coordinates."""
    q = tuple(row[:dim] for row in ROTATION[:dim])
    return [la.matmul(q, la.matmul(m, la.transpose(q))) for m in rep.matrices]


def kernel_rep(name):
    if name == "Z2-reflection":  # the rational reflection of test_descriptors
        return bq.build_representation(make_group("Z2"), [[["-3/5", "4/5"], ["4/5", "3/5"]]])
    if name in ("S3-rotated", "D4-rotated"):
        base = make_rep("S3-perm" if name == "S3-rotated" else "D4-standard")
        mats = conjugated(base, base.dim)
        gens = [mats[ge] for ge in base.group.generator_indices]
        return bq.build_representation(base.group, gens)
    return make_rep(name)


def brute_orbit(rep, x):
    seen = {}
    for g in range(rep.group.order):
        seen.setdefault(la.matvec(rep.matrices[g], x), None)
    return tuple(seen)


def brute_isotropy(rep, x):
    return tuple(g for g in range(rep.group.order) if la.matvec(rep.matrices[g], x) == x)


def as_fractions(int_orbit):
    """The Fraction points of an orbit kept as (integer points, scale)."""
    points, scale = int_orbit
    return tuple(tuple(Fraction(v, scale) for v in p) for p in points)


def sq_dist(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def all_pairs_min2(points):
    """Minimum squared distance over distinct index pairs; None below two points."""
    return min((sq_dist(a, b) for a, b in itertools.combinations(points, 2)), default=None)


def random_point(rng, dim):
    return tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(dim))


def sample_points(rep, rng, count=6):
    """Generic points plus witnesses of every occupied stratum, all rescaled."""
    points = [random_point(rng, rep.dim) for _ in range(count)]
    for cls in bq.subgroup_classes(rep.group):
        try:
            x = bq.point_with_exact_isotropy(rep, cls.representative)
        except bq.errors.EmptyOrbitTypeStratum:
            continue
        scale = Fraction(rng.randint(1, 9), rng.choice((1, 2, 5, 6)))
        points.append(tuple(scale * c for c in x))
    return points


# ---------------------------------------------------------------- kernel

@pytest.mark.parametrize("name", KERNEL_REPS)
def test_orbit_and_isotropy_match_fraction_matvec(name):
    rep = kernel_rep(name)
    rng = random.Random(name)
    for x in sample_points(rep, rng):
        assert bq.orbit(rep, x) == brute_orbit(rep, x)
        assert bq.isotropy(rep, x).element_set == brute_isotropy(rep, x)
        sub, (points, scale) = integer_orbit(rep, x)
        assert points[0] == tuple(scale * c for c in x)
        assert as_fractions((points, scale)) == brute_orbit(rep, x)
        assert sub.element_set == brute_isotropy(rep, x)


@pytest.mark.parametrize("name", ["S3-rotated", "D4-rotated"])
def test_rotated_matrices_are_the_conjugates(name):
    rep = kernel_rep(name)
    base = make_rep("S3-perm" if name == "S3-rotated" else "D4-standard")
    assert list(rep.matrices) == conjugated(base, base.dim)
    assert rep.denom > 1


def test_point_of_wrong_dimension_rejected():
    rep = kernel_rep("S3-perm")
    with pytest.raises(DimensionMismatch):
        bq.orbit(rep, [1, 2])
    with pytest.raises(DimensionMismatch):
        bq.isotropy(rep, [1, 2, 3, 4])


# ---------------------------------------------------------------- orbit geometry

@pytest.mark.parametrize("name", KERNEL_REPS)
def test_orbit_spacing_equals_all_pairs(name):
    rep = kernel_rep(name)
    rng = random.Random(f"spacing {name}")
    points = sample_points(rep, rng)
    for _ in range(12):
        bases = rng.sample(points, rng.randint(1, 3))
        if rng.random() < 0.3:  # a second copy of an orbit from another base point
            g = rng.randrange(rep.group.order)
            bases.append(rep.apply(g, bases[0]))
        orbits = [brute_orbit(rep, x) for x in bases]
        int_orbits = [integer_orbit(rep, x)[1] for x in bases]
        expected = all_pairs_min2([p for orb in orbits for p in orb])
        assert la.min_orbit_spacing2(int_orbits) == expected
        gaps, scale = la.orbit_gaps2(int_orbits)
        for i, j in itertools.combinations(range(len(orbits)), 2):
            cross = min(sq_dist(a, b) for a in orbits[i] for b in orbits[j])
            assert Fraction(gaps[i][j], scale * scale) == cross


def brute_overlap(rep, pieces):
    orbits = [brute_orbit(rep, p.base_point) for p in pieces]
    for i, j in itertools.combinations(range(len(pieces)), 2):
        threshold = (pieces[i].radius + pieces[i].epsilon + pieces[j].radius + pieces[j].epsilon) ** 2
        if any(sq_dist(a, b) <= threshold for a in orbits[i] for b in orbits[j]):
            return True
    return False


@pytest.mark.parametrize("name", KERNEL_REPS)
def test_overlap_check_agrees_with_all_pairs(name):
    rep = kernel_rep(name)
    rng = random.Random(f"overlap {name}")
    points = sample_points(rep, rng)
    outcomes = set()
    for _ in range(30):
        bases = rng.sample(points, rng.randint(2, 3))
        orbits = [brute_orbit(rep, x) for x in bases]
        closest = min(
            sq_dist(a, b) for oi, oj in itertools.combinations(orbits, 2) for a in oi for b in oj
        )
        # tubes around half the closest approach, so some pairs just touch
        half = la.rational_sqrt_floor(closest) / 2 if closest else Fraction(1)
        pieces = []
        for x in bases:
            tube = half * (1 + Fraction(rng.randint(-2, 2), 64))
            epsilon = tube * Fraction(rng.randint(1, 3), 4)
            sub, orb = integer_orbit(rep, x)
            pieces.append(StandardPiece(x, sub, tube - epsilon, epsilon, DeclaredLocalMap(1), 1, orb))
        expected = brute_overlap(rep, pieces)
        try:
            bq.polystandard_map(rep, pieces)
            raised = False
        except OverlappingPieces:
            raised = True
        assert raised == expected
        outcomes.add(raised)
    assert outcomes == {True, False}


def test_polystandard_map_rejects_piece_of_wrong_dimension():
    piece = bq.standard_piece(make_rep("S3-perm"), [1, 1, 0], DeclaredLocalMap(1))
    with pytest.raises(DimensionMismatch):
        bq.polystandard_map(make_rep("S3-regular"), (piece,))


# ---------------------------------------------------------------- direct sums

def block_sum_oracle(a, b):
    """The block sum through `build_representation` of dense Fraction generators."""
    zero = Fraction(0)
    gens = []
    for ge in a.group.generator_indices:
        top = [row + (zero,) * b.dim for row in a.matrices[ge]]
        bottom = [(zero,) * a.dim + row for row in b.matrices[ge]]
        gens.append(top + bottom)
    return bq.build_representation(a.group, gens)


GROUPDATA_REPS = ["Z2-sign", "V4-signs", "S3-perm", "S3-regular", "D4-standard"]
SUM_PAIRS = [(name, name) for name in GROUPDATA_REPS] + [
    ("S3-rotated", "S3-perm"), ("S3-perm", "S3-rotated"), ("S3-rotated", "S3-regular"),
    ("D4-rotated", "D4-standard"), ("D4-standard", "D4-rotated"),
    ("D4-rotated", "D4-rotated"), ("Z2-reflection", "Z2-sign"),
]


@pytest.mark.parametrize("left,right", SUM_PAIRS)
def test_direct_sum_matches_dense_block_build(left, right):
    a, b = kernel_rep(left), kernel_rep(right)
    fast, oracle = bq.direct_sum(a, b), block_sum_oracle(a, b)
    assert fast.dim == oracle.dim == a.dim + b.dim
    assert fast.matrices == oracle.matrices
    assert (fast.rows, fast.denom) == (oracle.rows, oracle.denom)


# ---------------------------------------------------------------- products

def all_rows_base_points(f, g):
    """Diagonal orbit base points in the order a walk over every pair (y, z) meets them."""
    sum_rep = bq.direct_sum(f.rep, g.rep)
    points = []
    for p in f.pieces:
        for q in g.pieces:
            covered = set()
            for y in brute_orbit(f.rep, p.base_point):
                for z in brute_orbit(g.rep, q.base_point):
                    if y + z not in covered:
                        covered.update(brute_orbit(sum_rep, y + z))
                        points.append(y + z)
    return points


@pytest.mark.parametrize("left,right", [(name, name) for name in PRODUCT_CORPUS_REPS]
                         + [("S3-perm", "S3-rotated"), ("S3-regular", "S3-perm"),
                            ("S3-rotated", "S3-perm"), ("Z2-reflection", "Z2-sign"),
                            ("D4-rotated", "D4-standard")])
def test_product_pieces_match_all_rows_enumeration(left, right):
    # the last two pairs have sum denominator 5 or 25 against 1, so the
    # product orbits are restated over a scale that differs from a factor's
    rng = random.Random(f"product {left} {right}")
    a, b = kernel_rep(left), kernel_rep(right)
    for _ in range(3):
        f = fuzz.random_polystandard_map(a, rng)
        g = fuzz.random_polystandard_map(b, rng)
        prod = bq.product_map(f, g)
        assert [p.base_point for p in prod.pieces] == all_rows_base_points(f, g)
        for p in prod.pieces:
            assert as_fractions(p.orbit) == brute_orbit(prod.rep, p.base_point)
            assert integer_orbit(prod.rep, p.base_point) == (p.isotropy, p.orbit)


@pytest.mark.parametrize("left,middle,right", [("Z2-sign", "Z2-reflection", "Z2-sign"),
                                               ("S3-perm", "S3-rotated", "S3-perm"),
                                               ("D4-rotated", "D4-standard", "D4-standard")])
def test_product_with_a_product_factor_matches_all_rows_enumeration(left, middle, right):
    # the left factor is itself a product map, whose orbits are built only
    # when read, over a scale that differs from the right factor's
    rng = random.Random(f"nested {left} {middle} {right}")
    for _ in range(2):
        f = bq.product_map(fuzz.random_polystandard_map(kernel_rep(left), rng),
                           fuzz.random_polystandard_map(kernel_rep(middle), rng))
        g = fuzz.random_polystandard_map(kernel_rep(right), rng)
        prod = bq.product_map(f, g)
        assert prod.pieces
        assert [p.base_point for p in prod.pieces] == all_rows_base_points(f, g)
        for p in prod.pieces:
            assert integer_orbit(prod.rep, p.base_point) == (p.isotropy, p.orbit)
        assert bq.verify_product(f, g).equal


def image_positions(rep, piece):
    """The position of rho(g) x0 in the piece's orbit for each g, from one image pass."""
    s = math.lcm(*(c.denominator for c in piece.base_point))
    position = {point: k for k, point in enumerate(piece.orbit[0])}
    return [position[image]
            for image in rep.images(tuple(c.numerator * (s // c.denominator)
                                          for c in piece.base_point))]


@pytest.mark.parametrize("name", KERNEL_REPS)
def test_left_coset_numbers_are_orbit_positions(name):
    # the product reads where rho(g) moves a base point off the coset
    # numbering of its isotropy; the witness ladder, integer_orbit and the
    # product itself must each list an orbit so that this holds
    rep = kernel_rep(name)
    rng = random.Random(f"cosets {name}")
    f = fuzz.random_polystandard_map(rep, rng)
    g = fuzz.random_polystandard_map(rep, rng)
    prod = bq.product_map(f, g)
    for p in (*f.pieces, *g.pieces):
        assert integer_orbit(rep, p.base_point) == (p.isotropy, p.orbit)
    cases = [(rep, p) for p in (*f.pieces, *g.pieces)] + [(prod.rep, p) for p in prod.pieces]
    assert len(cases) > len(f.pieces) + len(g.pieces) > 0
    for r, p in cases:
        assert left_cosets(r.group, p.isotropy) == image_positions(r, p), p.base_point


# ---------------------------------------------------------------- witness ladder

@pytest.mark.parametrize("name", KERNEL_REPS)
def test_witness_points_exact_and_on_distinct_orbits(name):
    rep = kernel_rep(name)
    for cls in bq.subgroup_classes(rep.group):
        sub = cls.representative
        try:
            first = bq.point_with_exact_isotropy(rep, sub)
        except EmptyOrbitTypeStratum:
            with pytest.raises(EmptyOrbitTypeStratum):
                bq.witness_points(rep, sub, 3)
            continue
        if bq.fixed_subspace(rep, sub).dim_fixed == 0:
            assert bq.witness_points(rep, sub) == [first]
            with pytest.raises(ValueError):
                bq.witness_points(rep, sub, 2)
            continue
        points = bq.witness_points(rep, sub, 4)
        assert len(points) == 4 and points[0] == first
        assert all(brute_isotropy(rep, x) == sub.element_set for x in points)
        orbits = [set(brute_orbit(rep, x)) for x in points]
        assert all(not a & b for a, b in itertools.combinations(orbits, 2))


@pytest.mark.parametrize("name", KERNEL_REPS + ["S4-twisted"])
def test_ladder_orbits_equal_integer_orbit(name):
    rep = fixed_space_rep(name)
    for cls in bq.subgroup_classes(rep.group):
        sub = cls.representative
        if not rep.orbit_types.entries[cls.class_index].occupied:
            continue
        count = 3 if bq.fixed_subspace(rep, sub).dim_fixed else 1
        picks = _witness_orbits(rep, sub, count)
        assert [x for x, _ in picks] == bq.witness_points(rep, sub, count)
        for x, orb in picks:
            assert integer_orbit(rep, x) == (sub, orb)


def reflection(w):
    n2 = sum(c * c for c in w)
    return [[Fraction(int(i == j)) - Fraction(2 * w[i] * w[j], n2) for j in range(3)]
            for i in range(3)]


def test_ladder_skips_a_candidate_on_an_earlier_orbit():
    # V4 = <a, b> on Q^3 by two commuting reflections. H = <a> fixes the
    # plane n-perp, n = (4, -37, 15), whose canonical basis is
    # (37/4, 1, 0), (-15/4, 0, 1); so X_t = (37t/4 - 15t^2/4, t, t^2), and
    # X_1 = (11/2, 1, 1) and X_2 = (7/2, 2, 4) have equal norms. b reflects
    # in w = X_2 - X_1 = (-2, 1, 3), which is orthogonal to n, so b swaps
    # them: X_2 has isotropy exactly H but lies on the first pick's orbit.
    rep = bq.build_representation(make_group("V4"), [reflection((4, -37, 15)),
                                                     reflection((-2, 1, 3))])
    sub = bq.Subgroup.of([0, rep.group.generator_indices[0]])
    assert rep.denom == 805 and bq.fixed_subspace(rep, sub).dim_fixed == 2

    def ladder(t):
        return (Fraction(37 * t - 15 * t * t, 4), Fraction(t), Fraction(t * t))

    assert brute_isotropy(rep, ladder(2)) == sub.element_set
    assert ladder(2) in brute_orbit(rep, ladder(1))
    picks = _witness_orbits(rep, sub, 3)
    assert [x for x, _ in picks] == [ladder(1), ladder(3), ladder(4)]
    for x, orb in picks:
        assert integer_orbit(rep, x) == (sub, orb)


# ---------------------------------------------------------------- determinant

@st.composite
def rational_matrices(draw):
    """Square matrices of small rationals; some repeat a row or a multiple of
    one, so singular matrices are drawn as well."""
    n = draw(st.integers(0, 6))
    entry = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3, 7]))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = [draw(entry) * x for x in rows[j]]
    return la.mat(rows)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(rational_matrices())
def test_bareiss_det_equals_fraction_elimination(m):
    assert la.det(m) == fraction_det(m)


def test_bareiss_det_on_a_dense_block():
    rng = random.Random(0)
    m = la.mat([[rng.randint(-3, 3) for _ in range(30)] for _ in range(30)])
    assert la.det(m) == fraction_det(m) != 0
    assert la.det(la.mat([[Fraction(1, 3), 0], [0, 0]])) == 0


# ---------------------------------------------------------------- elimination

ENTRY = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3, 7]))


@st.composite
def shaped_matrices(draw, square=False):
    """Wide, tall and square matrices of small integers or small rationals;
    some rows are a multiple of another row plus a third, and some columns
    are zero, so rank-deficient matrices are drawn as well."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    entry = ENTRY if draw(st.booleans()) else st.builds(Fraction, st.integers(-5, 5))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        i, j, *rest = draw(st.permutations(range(nrows)))
        c = draw(entry)
        extra = rows[rest[0]] if rest else [0] * ncols
        rows[i] = [c * x + y for x, y in zip(rows[j], extra)]
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = Fraction(0)
    return la.mat(rows)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(shaped_matrices())
def test_kernel_basis_equals_the_fraction_rref_kernel(m):
    basis = la.kernel_basis(m)
    assert basis == fraction_kernel(m)
    zero = tuple(Fraction(0) for _ in m)
    assert all(la.matvec(m, v) == zero for v in basis)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(shaped_matrices(square=True), st.data())
def test_solve_and_det_against_fraction_elimination(a, data):
    width = data.draw(st.integers(1, 3))
    b = la.mat(data.draw(st.lists(st.lists(ENTRY, min_size=width, max_size=width),
                                  min_size=len(a), max_size=len(a))))
    exact = fraction_det(a)
    assert la.det(a) == exact
    if exact == 0:
        with pytest.raises(ZeroDivisionError, match="singular"):
            la.solve(a, b)
    else:
        assert la.matmul(a, la.solve(a, b)) == b


def sign_twisted_s4():
    """S4 on 4 coordinates twisted by the sign character: a transposition
    sends e_i to -e_j, so the orbits of signed coordinates under a subgroup
    with a transposition and a 3-cycle meet their own negatives."""
    group = make_group("S4")
    gens = []
    for p in group.generator_perms:
        sign = (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        gens.append([[sign if i == p[j] else 0 for j in range(4)] for i in range(4)])
    return bq.build_representation(group, gens)


def fixed_space_rep(name):
    if name in ("S4-perm", "A5-perm"):
        return bq.permutation_representation(make_group(name[:2]))
    if name in ("Q8-regular", "A4-regular"):
        return bq.regular_representation(make_group(name[:2]))
    if name == "S4-twisted":
        return sign_twisted_s4()
    if name == "S4-twisted+S4-perm":  # signs on one block only
        return bq.direct_sum(sign_twisted_s4(), fixed_space_rep("S4-perm"))
    return kernel_rep(name)


def p_minus_i(rep, sub):
    """P - I for P the mean of the subgroup's Fraction matrices."""
    mats = [rep.matrices[h] for h in sub.element_set]
    return tuple(
        tuple(sum(m[i][j] for m in mats) / sub.order - (i == j) for j in range(rep.dim))
        for i in range(rep.dim)
    )


DENSE_REPS = ["Z2-reflection", "S3-rotated", "D4-rotated"]
FIXED_SPACE_REPS = PRODUCT_CORPUS_REPS + [
    "S4-perm", "S3-regular", "Q8-regular", "S4-twisted",
    "A4-regular", "A5-perm", "S4-twisted+S4-perm",
]


@pytest.mark.parametrize("name", FIXED_SPACE_REPS + DENSE_REPS)
def test_fixed_subspace_bases_equal_the_fraction_rref_kernel(name):
    rep = fixed_space_rep(name)
    for sub in bq.all_subgroups(rep.group):
        assert bq.fixed_subspace(rep, sub).basis == tuple(fraction_kernel(p_minus_i(rep, sub)))


@pytest.mark.parametrize("name", FIXED_SPACE_REPS + DENSE_REPS
                         + [f"occupancy:{n}" for n in OCCUPANCY_CORPUS])
def test_trace_dimensions_equal_the_fraction_rref_kernel(name):
    # dim V^H from characters, read per class, on every member of the class
    rep = (occupancy_rep(name.split(":")[1]) if name.startswith("occupancy:")
           else fixed_space_rep(name))
    entries = bq.orbit_types(rep).entries
    for sub in bq.all_subgroups(rep.group):
        expected = len(fraction_kernel(p_minus_i(rep, sub)))
        assert entries[class_index_of(rep.group, sub)].dim_fixed == expected


@pytest.mark.parametrize("name", FIXED_SPACE_REPS)
def test_shuffles_and_dense_rows_agree(name):
    # the same matrices in the dense storage take the row routes: equal
    # image passes, orbit-type tables and fixed-space bases
    rep = fixed_space_rep(name)
    assert rep.sources is not None
    dense = bq.OrthogonalRepresentation(rep.group, rep.dim, rep.rows, rep.denom)
    rng = random.Random(f"storages {name}")
    for _ in range(4):
        point = tuple(rng.randint(-3, 3) for _ in range(rep.dim))
        assert rep.images(point) == dense.images(point)
    assert bq.orbit_types(rep) == bq.orbit_types(dense)
    for sub in bq.all_subgroups(rep.group):
        assert bq.fixed_subspace(rep, sub) == bq.fixed_subspace(dense, sub)
