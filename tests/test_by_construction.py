"""Maps the library builds by construction against the validated route.

Products, realized maps and fuzz maps are built without `standard_piece`
and `polystandard_map`. Here every piece goes back through those
validators with its own base point, local map, radius and epsilon; the
rebuilt map must equal the constructed one, orbits included.
"""

import itertools
import random
from fractions import Fraction

import pytest

import burneq as bq
import burneq.linalg as la
from burneq import fuzz
from burneq.degree import LinearLocalMap
from groupdata import PRODUCT_CORPUS_REPS, make_rep

PERMUTATION_GROUPS = {
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "D8": [[1, 2, 3, 4, 5, 6, 7, 0], [7, 6, 5, 4, 3, 2, 1, 0]],
    "S5": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
}


def assert_validated_rebuild_equal(m):
    rebuilt = bq.polystandard_map(m.rep, [
        bq.standard_piece(m.rep, p.base_point, p.local, p.radius, p.epsilon)
        for p in m.pieces
    ])
    assert rebuilt == m
    assert [p.orbit for p in rebuilt.pieces] == [p.orbit for p in m.pieces]


def all_pairs_spacing2(m):
    """Minimum squared distance between distinct zeros of m, by brute force."""
    points = {la.matvec(mat, p.base_point) for p in m.pieces for mat in m.rep.matrices}
    return min((sum((x - y) ** 2 for x, y in zip(a, b))
                for a, b in itertools.combinations(points, 2)), default=None)


def assert_product_size_bound(f, g, prod):
    """Every product tube is 2 * size with 32 * size^2 <= the smaller factor spacing."""
    spacings = [s for s in (all_pairs_spacing2(f), all_pairs_spacing2(g)) if s is not None]
    for p in prod.pieces:
        assert p.radius == p.epsilon
        assert not spacings or 32 * p.radius ** 2 <= min(spacings)


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_product_equals_validated_rebuild_on_corpus(name):
    rep = make_rep(name)
    rng = random.Random(f"by construction {name}")
    for _ in range(3):
        f = fuzz.random_polystandard_map(rep, rng)
        g = fuzz.random_polystandard_map(rep, rng)
        prod = bq.product_map(f, g)
        assert_validated_rebuild_equal(prod)
        assert_product_size_bound(f, g, prod)


@pytest.mark.parametrize("name,seed", [(n, s) for n in PERMUTATION_GROUPS for s in (0, 1)])
def test_product_equals_validated_rebuild_on_permutation_reps(name, seed):
    rep = bq.permutation_representation(bq.generate_group(PERMUTATION_GROUPS[name]))
    rng = random.Random(seed)
    f = fuzz.random_polystandard_map(rep, rng)
    g = fuzz.random_polystandard_map(rep, rng)
    prod = bq.product_map(f, g)
    assert prod.pieces
    assert_validated_rebuild_equal(prod)


def test_product_size_bound_binds_for_wide_factor_tubes(z2_sign):
    # epsilon 9/10 is just inside the orbit {1, -1}; the factor tubes alone
    # would allow product pieces of size 9/20, the spacing bound gives 1/4
    wide = Fraction(9, 10)
    f = bq.polystandard_map(z2_sign, [
        bq.standard_piece(z2_sign, [1], LinearLocalMap(la.identity(1)), wide, wide)
    ])
    prod = bq.product_map(f, f)
    assert_validated_rebuild_equal(prod)
    assert_product_size_bound(f, f, prod)
    assert {p.radius for p in prod.pieces} == {Fraction(1, 4)}


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_realized_and_fuzz_maps_equal_validated_rebuild(name):
    rep = make_rep(name)
    rng = random.Random(f"realize {name}")
    for _ in range(10):
        target = fuzz.random_feasible_element(rep, rng, max_classes=3, max_coeff=3)
        assert_validated_rebuild_equal(
            bq.realize_element(bq.RealizationTarget(element=target, rep=rep))
        )
        assert_validated_rebuild_equal(fuzz.random_polystandard_map(rep, rng))
    zero = bq.realize_element(bq.RealizationTarget(element=bq.zero_element(rep.group), rep=rep))
    assert_validated_rebuild_equal(zero)
