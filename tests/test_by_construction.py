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
from burneq.representation import occupied_classes
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


def least_size(*maps):
    """m, the least radius or epsilon over the pieces of the maps."""
    return min(min(p.radius, p.epsilon) for m in maps for p in m.pieces)


def spacing_term(*maps):
    """rational_sqrt_floor(s / 32) for s the least orbit spacing of the maps:
    the size a spacing bound on product radii would allow; None when no map
    has two zeros."""
    spacings = [s for s in (la.min_orbit_spacing2([p.orbit for p in m.pieces]) for m in maps)
                if s is not None]
    return la.rational_sqrt_floor(min(spacings) / 32) if spacings else None


def assert_product_size(f, g, prod):
    """Every product piece has radius = epsilon = m / 2."""
    half = least_size(f, g) / 2
    assert all(p.radius == p.epsilon == half for p in prod.pieces)


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_product_equals_validated_rebuild_on_corpus(name):
    rep = make_rep(name)
    rng = random.Random(f"by construction {name}")
    for _ in range(3):
        f = fuzz.random_polystandard_map(rep, rng)
        g = fuzz.random_polystandard_map(rep, rng)
        prod = bq.product_map(f, g)
        assert_validated_rebuild_equal(prod)
        assert_product_size(f, g, prod)


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
    # epsilon 9/10 is just inside the orbit {1, -1}; product pieces are half
    # the least factor tube, 9/20, where a spacing bound would allow 1/4
    wide = Fraction(9, 10)
    f = bq.polystandard_map(z2_sign, [
        bq.standard_piece(z2_sign, [1], LinearLocalMap(la.identity(1)), wide, wide)
    ])
    prod = bq.product_map(f, f)
    assert_validated_rebuild_equal(prod)
    assert spacing_term(f, f) == Fraction(1, 4)
    assert {(p.radius, p.epsilon) for p in prod.pieces} == {(Fraction(9, 20), Fraction(9, 20))}


def wide_map(rep, piece):
    """A one-piece map at the piece's base point, with radius and epsilon
    at most 9/10 of what `standard_piece` allows its orbit, half the spacing."""
    wide = la.rational_sqrt_floor(la.min_orbit_spacing2([piece.orbit]) * Fraction(81, 400))
    return bq.polystandard_map(rep, [
        bq.standard_piece(rep, piece.base_point, piece.local, wide, wide)
    ])


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_wide_factor_tubes_give_wide_valid_product_tubes(name):
    # one wide map per occupied class of isotropy other than G, so more
    # than one point per orbit: half the least factor tube exceeds the
    # spacing term, so a spacing bound would have cut these product radii;
    # the wider product pieces still pass the validators, and so do
    # products of those products
    rep = make_rep(name)
    classes = bq.subgroup_classes(rep.group)
    coeffs = [0] * len(classes)
    for entry in occupied_classes(rep):
        if classes[entry.class_index].representative.order < rep.group.order:
            coeffs[entry.class_index] = 1
    target = bq.BurnsideElement(rep.group, tuple(coeffs))
    realized = bq.realize_element(bq.RealizationTarget(element=target, rep=rep))
    maps = [wide_map(rep, p) for p in realized.pieces]
    assert maps and all(len(p.orbit[0]) > 1 for m in maps for p in m.pieces)
    for f, g in itertools.product(maps, repeat=2):
        prod = bq.product_map(f, g)
        assert spacing_term(f, g) < least_size(f, g) / 2
        assert_product_size(f, g, prod)
        assert_validated_rebuild_equal(prod)
        again = bq.product_map(prod, f)
        assert_product_size(prod, f, again)
        assert_validated_rebuild_equal(again)


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_spacing_term_never_binds_on_maps_the_library_builds(name):
    # fuzz x realized pairs, products of products, and realized maps rebuilt
    # through the validators: every product radius is what min(m / 2,
    # spacing term) gave, so leaving the spacing term out changes none
    rep = make_rep(name)
    rng = random.Random(f"spacing term {name}")
    for _ in range(3):
        f = fuzz.random_polystandard_map(rep, rng)
        target = fuzz.random_feasible_element(rep, rng)
        realized = bq.realize_element(bq.RealizationTarget(element=target, rep=rep))
        rebuilt = bq.polystandard_map(rep, [
            bq.standard_piece(rep, p.base_point, p.local, p.radius, p.epsilon)
            for p in realized.pieces
        ])
        fr = bq.product_map(f, realized)
        for a, b in [(f, realized), (realized, f), (rebuilt, f), (fr, f), (rebuilt, fr)]:
            prod = bq.product_map(a, b)
            term = spacing_term(a, b)
            size = least_size(a, b) / 2 if term is None else min(least_size(a, b) / 2, term)
            assert prod.pieces
            assert {(p.radius, p.epsilon) for p in prod.pieces} == {(size, size)}


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
