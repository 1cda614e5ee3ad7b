"""Acceptance suite: one test per criterion, one printed line each.

Everything here is exact arithmetic. Run with -s to see the per-criterion
lines and timings.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import burneq as bq
import burneq.linalg as la
from burneq import expr, fuzz
from burneq.degree import LinearLocalMap, ambient_linear_map, conjugate_linear_piece
from burneq.errors import InfeasibleCoefficient, SingularJacobian
from groupdata import MARKS_GROUPS, PRODUCT_CORPUS_REPS, fraction_det, make_group, make_rep
from test_expr import exact_jacobian, oracle_jacobian, random_node

CORPUS_SEED = 1729
PAIRS_PER_REP = 50  # 4 representations x 50 = 200 seeded pairs


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"[criterion {number}] {name}: PASS ({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def product_corpus():
    """200 seeded pairs of feasible polystandard maps over the test reps."""
    pairs = []
    for name in PRODUCT_CORPUS_REPS:
        rep = make_rep(name)
        rng = random.Random(f"{CORPUS_SEED}:{name}")
        for _ in range(PAIRS_PER_REP):
            pairs.append(
                (
                    name,
                    rep,
                    fuzz.random_polystandard_map(rep, rng),
                    fuzz.random_polystandard_map(rep, rng),
                )
            )
    return pairs


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_marks_vs_orbit_oracle():
    with criterion(1, "marks-vs-orbit oracle on eight groups"):
        checked = 0
        for name in MARKS_GROUPS:
            group = make_group(name)
            classes = bq.subgroup_classes(group)
            for a, b in itertools.product(classes, classes):
                via_marks = bq.mul(
                    bq.basis_element(group, a.class_index),
                    bq.basis_element(group, b.class_index),
                )
                via_orbits = bq.decompose_gset(bq.product_gset(a, b))
                assert via_marks == via_orbits, (name, a.class_index, b.class_index)
                checked += 1
        assert checked == sum(len(bq.subgroup_classes(make_group(n))) ** 2
                              for n in MARKS_GROUPS)


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_product_formula(product_corpus):
    with criterion(2, "product formula on 200 seeded map pairs"):
        assert len(product_corpus) == 4 * PAIRS_PER_REP
        for name, rep, f, g in product_corpus:
            check = bq.verify_product(f, g)
            assert check.equal, (name, check.lhs.coeffs, check.rhs.coeffs)
            assert all(row.consistent for row in check.orbit_rows)


# ---------------------------------------------------------------- criterion 3

def _transported_ambient(rep, piece, point):
    for w in range(rep.group.order):
        if rep.apply(w, piece.base_point) == point:
            rw = rep.matrices[w]
            rwi = rep.matrices[rep.group.inverse[w]]
            return la.matmul(rw, la.matmul(ambient_linear_map(rep, piece), rwi))
    raise AssertionError("point not on the piece orbit")


def _block_diag(a, b, na, nb):
    zero = Fraction(0)
    return tuple(
        [tuple(row) + (zero,) * nb for row in a]
        + [(zero,) * na + tuple(row) for row in b]
    )


def test_criterion_3_per_orbit_law(product_corpus):
    with criterion(3, "per-orbit index law via independent block determinants"):
        sums = {name: bq.direct_sum(make_rep(name), make_rep(name))
                for name in PRODUCT_CORPUS_REPS}
        checked = 0
        for name, rep, f, g in product_corpus:
            sum_rep = sums[name]
            for p in f.pieces:
                if not isinstance(p.local, LinearLocalMap):
                    continue
                for q in g.pieces:
                    if not isinstance(q.local, LinearLocalMap):
                        continue
                    da = bq.local_index(p, rep)
                    db = bq.local_index(q, rep)
                    orb_a = bq.orbit(rep, p.base_point)
                    orb_b = bq.orbit(rep, q.base_point)
                    covered = set()
                    for y in orb_a:
                        for z in orb_b:
                            if y + z in covered:
                                continue
                            for w in range(rep.group.order):
                                covered.add(rep.apply(w, y) + rep.apply(w, z))
                            block = _block_diag(
                                _transported_ambient(rep, p, y),
                                _transported_ambient(rep, q, z),
                                rep.dim,
                                rep.dim,
                            )
                            sub = bq.isotropy(sum_rep, y + z)
                            basis = bq.fixed_subspace(sum_rep, sub).basis
                            det = fraction_det(la.restricted_matrix(block, basis))
                            assert det != 0
                            assert (1 if det > 0 else -1) == da * db
                            checked += 1
        assert checked > 0


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_degree_axioms(product_corpus):
    with criterion(4, "normalization, additivity, existence"):
        # normalization: identity block on every occupied witness orbit
        for name in PRODUCT_CORPUS_REPS:
            rep = make_rep(name)
            for entry in bq.representation.occupied_classes(rep):
                sub = bq.subgroup_classes(rep.group)[entry.class_index].representative
                witness = bq.point_with_exact_isotropy(rep, sub)
                piece = bq.standard_piece(
                    rep, witness, LinearLocalMap(la.identity(entry.dim_fixed))
                )
                result = bq.deg_standard(piece, rep)
                assert result.value == bq.basis_element(rep.group, entry.class_index)
        # additivity: split every corpus map into two disjoint halves
        for name, rep, f, g in product_corpus:
            for poly in (f, g):
                if len(poly.pieces) < 2:
                    continue
                left = bq.polystandard_map(rep, poly.pieces[0::2])
                right = bq.polystandard_map(rep, poly.pieces[1::2])
                assert bq.deg_polystandard(poly).value == bq.add(
                    bq.deg_polystandard(left).value,
                    bq.deg_polystandard(right).value,
                )
        # existence: a nonzero degree always names an orbit of zeros
        for name, rep, f, g in product_corpus:
            for poly in (f, g):
                result = bq.deg_polystandard(poly)
                if bq.existence_check(result):
                    assert result.per_orbit


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_conjugation_invariance(product_corpus):
    with criterion(5, "conjugation invariance of every linear corpus piece"):
        seen: set[tuple] = set()
        checked = 0
        for name, rep, f, g in product_corpus:
            for poly in (f, g):
                for piece in poly.pieces:
                    if not isinstance(piece.local, LinearLocalMap):
                        continue
                    key = (name, piece.base_point, piece.local.matrix)
                    if key in seen:
                        continue
                    seen.add(key)
                    d = bq.local_index(piece, rep)
                    for w in range(rep.group.order):
                        moved = conjugate_linear_piece(rep, piece, w)
                        assert bq.local_index(moved, rep) == d
                        checked += 1
        assert checked > 0


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_realization_round_trip():
    with criterion(6, "realization round trip, 100 targets per representation"):
        for name in PRODUCT_CORPUS_REPS:
            rep = make_rep(name)
            rng = random.Random(f"{CORPUS_SEED}:realize:{name}")
            for _ in range(100):
                target = fuzz.random_feasible_element(rep, rng, max_classes=3,
                                                      max_coeff=3)
                f = bq.realize_element(bq.RealizationTarget(element=target, rep=rep))
                assert bq.deg_polystandard(f).value == target
        # infeasible: doubled unit class when the fixed space is trivial
        for name in ("Z2-sign", "V4-signs", "D4-standard"):
            rep = make_rep(name)
            group = rep.group
            coeffs = [0] * len(bq.subgroup_classes(group))
            coeffs[-1] = 2
            with pytest.raises(InfeasibleCoefficient):
                bq.realize_element(
                    bq.RealizationTarget(
                        element=bq.BurnsideElement(group, tuple(coeffs)), rep=rep
                    )
                )
        # infeasible: empty stratum (the three-cycle class of the 3-point action)
        rep = make_rep("S3-perm")
        with pytest.raises(InfeasibleCoefficient):
            bq.realize_element(
                bq.RealizationTarget(
                    element=bq.basis_element(rep.group, 2), rep=rep
                )
            )


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_numerical_local_index():
    with criterion(7, "numerical index vs exact determinant, dims 1-4"):
        rng = random.Random(CORPUS_SEED + 7)
        checked = 0
        for dim in (1, 2, 3, 4):
            basis = [
                tuple(Fraction(1 if i == j else 0) for j in range(dim))
                for i in range(dim)
            ]
            produced = 0
            while produced < 25:
                rows = [
                    [rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)
                ]
                exact = fraction_det(rows)
                if abs(exact) < 1:
                    continue
                exprs = [
                    expr.parse(
                        " + ".join(f"{rows[i][j]}*x{j + 1}" for j in range(dim)),
                        dim,
                    )
                    for i in range(dim)
                ]
                origin = tuple(Fraction(0) for _ in range(dim))
                got = bq.expression_local_index(exprs, origin, basis)
                assert got == (1 if exact > 0 else -1), rows
                produced += 1
                checked += 1
            # exactly singular systems must be refused
            for _ in range(5):
                rows = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
                rows[-1] = rows[0]  # repeated row forces determinant zero
                if dim == 1:
                    rows = [[0]]
                exprs = [
                    expr.parse(
                        " + ".join(f"{rows[i][j]}*x{j + 1}" for j in range(dim)),
                        dim,
                    )
                    for i in range(dim)
                ]
                origin = tuple(Fraction(0) for _ in range(dim))
                with pytest.raises(SingularJacobian):
                    bq.expression_local_index(exprs, origin, basis)
        assert checked == 100


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_parser_suite():
    with criterion(8, "parser round trips and Jacobian versus symbolic oracle"):
        rng = random.Random(CORPUS_SEED + 8)
        for _ in range(50):
            dim = rng.randint(1, 3)
            e = expr.Expr(root=random_node(rng, dim, 4, allow_div=True), dim=dim)
            assert expr.parse(str(e), dim) == e
        rng = random.Random(CORPUS_SEED + 88)
        systems = 0
        while systems < 50:
            dim = rng.randint(1, 3)
            exprs = [
                expr.Expr(root=random_node(rng, dim, 3, allow_div=False), dim=dim)
                for _ in range(dim)
            ]
            point = tuple(Fraction(rng.randint(-21, 21), 14) for _ in range(dim))
            assert exact_jacobian(exprs, point) == oracle_jacobian(exprs, point)
            systems += 1
