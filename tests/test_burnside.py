"""Table of marks, ring arithmetic, and the orbit-decomposition oracle."""

import dataclasses
import itertools
import random
from functools import cached_property, lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import burneq as bq
from burneq import burnside
from burneq.errors import DescriptorError, GroupMismatch, InvalidAction, NonIntegralSolution
from groupdata import MARKS_GROUPS, all_pairs_action, full_peel_mul, make_group


# ---------------------------------------------------------------- marks

def test_marks_z2(z2):
    assert bq.table_of_marks(z2).marks == ((2, 0), (1, 1))


def test_marks_s3(s3):
    assert bq.table_of_marks(s3).marks == (
        (6, 0, 0, 0),
        (3, 1, 0, 0),
        (2, 0, 2, 0),
        (1, 1, 1, 1),
    )


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_marks_invariants(name):
    group = make_group(name)
    classes = bq.subgroup_classes(group)
    marks = bq.table_of_marks(group).marks
    for i, ci in enumerate(classes):
        # column of the trivial subgroup counts all cosets
        assert marks[i][0] == group.order // ci.representative.order
        # diagonal equals the Weyl group order
        assert marks[i][i] == bq.weyl_data(group, ci.representative).weyl_order
        for j, cj in enumerate(classes):
            if marks[i][j] != 0:
                assert bq.class_leq(cj, ci)
            if j > i:
                assert marks[i][j] == 0  # lower triangular in canonical order


def test_whole_group_row_is_all_ones(s3):
    assert bq.table_of_marks(s3).marks[-1] == (1, 1, 1, 1)


def test_marks_a4_against_published_table():
    # classes 1, C2, C3, V4, A4; values as in the standard published table
    assert bq.table_of_marks(make_group("A4")).marks == (
        (12, 0, 0, 0, 0),
        (6, 2, 0, 0, 0),
        (4, 0, 1, 0, 0),
        (3, 3, 0, 3, 0),
        (1, 1, 1, 1, 1),
    )


# ---------------------------------------------------------------- add / mul

def test_unit_is_two_sided(s3):
    one = bq.unit_element(s3)
    for i in range(len(bq.subgroup_classes(s3))):
        x = bq.basis_element(s3, i)
        assert bq.mul(one, x) == x
        assert bq.mul(x, one) == x


def test_z2_free_times_free(z2):
    free = bq.basis_element(z2, 0)
    assert bq.mul(free, free).coeffs == (2, 0)


def test_s3_c2_squared(s3):
    c2 = bq.basis_element(s3, 1)
    product = bq.mul(c2, c2)
    oracle = bq.decompose_gset(
        bq.product_gset(bq.subgroup_classes(s3)[1], bq.subgroup_classes(s3)[1])
    )
    assert product == oracle
    assert product.coeffs == (1, 1, 0, 0)


def test_s3_c3_squared(s3):
    c3 = bq.basis_element(s3, 2)
    assert bq.mul(c3, c3).coeffs == (0, 0, 2, 0)


def test_add_examples(z2):
    x = bq.basis_element(z2, 0)
    assert bq.add(x, bq.zero_element(z2)) == x
    assert bq.add(x, x).coeffs == (2, 0)
    assert bq.add(bq.basis_element(z2, 0), bq.basis_element(z2, 1)).coeffs == (1, 1)


def test_operators(s3):
    a = bq.basis_element(s3, 1)
    b = bq.basis_element(s3, 2)
    assert (a + b).coeffs == (0, 1, 1, 0)
    assert (a - a).is_zero()
    assert (2 * a).coeffs == (0, 2, 0, 0)
    assert (a * b).coeffs == (1, 0, 0, 0)


def test_group_mismatch(z2, s3):
    with pytest.raises(GroupMismatch):
        bq.add(bq.zero_element(z2), bq.zero_element(s3))


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_mul_commutative_and_associative(name):
    group = make_group(name)
    n = len(bq.subgroup_classes(group))
    basis = [bq.basis_element(group, i) for i in range(n)]
    for a, b in itertools.combinations_with_replacement(basis, 2):
        assert bq.mul(a, b) == bq.mul(b, a)
    for a, b, c in itertools.combinations_with_replacement(basis, 3):
        assert bq.mul(bq.mul(a, b), c) == bq.mul(a, bq.mul(b, c))


def dense_marks(group, coeffs):
    """Oracle: the mark vector as dense dot products with the table of marks."""
    marks = group.marks
    return [sum(c * marks[i][j] for i, c in enumerate(coeffs)) for j in range(len(marks))]


@lru_cache(maxsize=None)
def basis_products(name):
    group = make_group(name)
    basis = [bq.basis_element(group, i) for i in range(len(bq.subgroup_classes(group)))]
    return tuple(tuple(bq.mul(a, b).coeffs for b in basis) for a in basis)


@pytest.mark.parametrize("name, mk, refused_at", [
    ("Z2", (1, 0), 0),
    ("S3", (0, 0, 1, 0), 2),
    ("S3", (1, 1, 2, 1), 2),  # the unit's marks peel off first
])
def test_mark_vector_outside_the_image_is_refused(name, mk, refused_at):
    with pytest.raises(NonIntegralSolution) as err:
        burnside._coeffs_from_marks(make_group(name), mk)
    assert str(err.value) == (
        f"mark vector is not in the image of the mark homomorphism at class {refused_at}"
    )


@pytest.mark.parametrize("name", ["S4", "D8"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_virtual_products_multiply_marks_pointwise(name, data):
    group = make_group(name)
    n = len(bq.subgroup_classes(group))
    vector = st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=n, max_size=n)
    a, b = data.draw(vector), data.draw(vector)
    product = bq.mul(bq.BurnsideElement(group, tuple(a)), bq.BurnsideElement(group, tuple(b)))
    assert dense_marks(group, product.coeffs) == [
        x * y for x, y in zip(dense_marks(group, a), dense_marks(group, b))
    ]
    bilinear = [0] * n
    for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
        for k, c in enumerate(basis_products(name)[i][j]):
            bilinear[k] += x * y * c
    assert list(product.coeffs) == bilinear


@pytest.mark.parametrize("name", ["D8", "S4", "S4xZ2", "A5"])
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_truncated_products_match_the_full_peel(name, data):
    """Each factor has zeros above a drawn top class, so the product's marks
    vanish above the lower top and mul peels that prefix only."""
    group = make_group(name)
    n = len(bq.subgroup_classes(group))

    def element():
        top = data.draw(st.integers(-1, n - 1))
        coeffs = data.draw(st.lists(st.one_of(st.just(0), st.integers(-50, 50)),
                                    min_size=top + 1, max_size=top + 1))
        return bq.BurnsideElement(group, (*coeffs, *[0] * (n - 1 - top)))

    a, b = element(), element()
    assert bq.mul(a, b) == full_peel_mul(a, b)
    assert list(bq.mark_vector(a)) == dense_marks(group, a.coeffs)


def test_coefficient_count_is_checked_against_the_classes(s3, monkeypatch):
    # the count comes off the group's classes without a subgroup_classes call
    monkeypatch.setattr(burnside, "subgroup_classes", None)
    assert bq.BurnsideElement(s3, (1, 0, 0, 2)).coeffs == (1, 0, 0, 2)
    for coeffs in ((1, 0, 0), (0,) * 5):
        with pytest.raises(ValueError, match=f"has {len(coeffs)} entries, expected 4$"):
            bq.BurnsideElement(s3, coeffs)


def expected_prefix(group, coeffs):
    """The dense mark vector cut after the top nonzero class."""
    top = max((i for i, c in enumerate(coeffs) if c), default=-1)
    return tuple(dense_marks(group, coeffs)[:top + 1])


def test_each_basis_element_builds_its_mark_prefix_once(monkeypatch):
    builds = []
    build = burnside.BurnsideElement.mark_prefix.func

    def counted(x):
        builds.append(x.coeffs)
        return build(x)

    counting = cached_property(counted)
    counting.__set_name__(burnside.BurnsideElement, "mark_prefix")
    monkeypatch.setattr(burnside.BurnsideElement, "mark_prefix", counting)
    group = make_group("S4")
    n = len(bq.subgroup_classes(group))
    basis = [bq.basis_element(group, i) for i in range(n)]
    products = [bq.mul(a, b) for a in basis for b in basis]
    assert (n, len(products)) == (11, 121)
    assert sorted(builds) == sorted(x.coeffs for x in basis)


@pytest.mark.parametrize("name", [*MARKS_GROUPS, "D8", "S4", "S4xZ2", "A5", "S5"])
def test_mark_rows_are_the_nonzero_marks_below_the_diagonal(name):
    group = make_group(name)
    marks = group.marks
    assert group.mark_rows == tuple(
        tuple((k, marks[j][k]) for k in range(j) if marks[j][k] != 0) for j in range(len(marks))
    )


def test_a_cached_prefix_is_not_part_of_the_value():
    group = make_group("S4")
    x = bq.BurnsideElement(group, (3, 0, -1, 0, 2, 0, 0, 1, 0, 0, 0))
    y = bq.BurnsideElement(group, (0, 1, 0, 0, 0, 0, 5, 0, 0, -2, 0))
    assert x.mark_prefix == expected_prefix(group, x.coeffs)
    fresh = bq.BurnsideElement(group, x.coeffs)
    assert "mark_prefix" in vars(x) and "mark_prefix" not in vars(fresh)
    assert x == fresh and hash(x) == hash(fresh)
    assert bq.zero_element(group).mark_prefix == ()
    for derived in (-x, x + y, 2 * x, dataclasses.replace(x, coeffs=y.coeffs)):
        assert derived.mark_prefix == expected_prefix(group, derived.coeffs)


ORACLE_COST_CAP = 200_000  # |G|^2 * |G/H| * |G/K|: the orbit oracle's work


def test_s4xz2_ring_against_dense_marks_and_orbits():
    group = make_group("S4xZ2")
    classes = bq.subgroup_classes(group)
    n = len(classes)
    assert n == 33
    products = basis_products("S4xZ2")
    index = [group.order // c.representative.order for c in classes]
    oracle_pairs = 0
    for i, j in itertools.product(range(n), repeat=2):
        assert products[i][j] == products[j][i]
        assert dense_marks(group, products[i][j]) == [
            x * y for x, y in zip(group.marks[i], group.marks[j])
        ]
        if i <= j and group.order ** 2 * index[i] * index[j] <= ORACLE_COST_CAP:
            oracle_pairs += 1
            orbits = bq.decompose_gset(bq.product_gset(classes[i], classes[j]))
            assert orbits.coeffs == products[i][j]
    for i in range(n):
        assert products[i][n - 1] == tuple(int(k == i) for k in range(n))
    assert oracle_pairs == 312


# ---------------------------------------------------------------- G-sets

def test_one_point_gset(s3):
    x = bq.coset_gset(s3, bq.all_subgroups(s3)[-1])
    assert x.size == 1
    assert bq.decompose_gset(x) == bq.unit_element(s3)


def test_regular_gset_is_free(s3):
    x = bq.coset_gset(s3, bq.all_subgroups(s3)[0])
    assert x.size == 6
    assert bq.decompose_gset(x) == bq.basis_element(s3, 0)


def test_s3_six_point_diagonal_product(s3):
    classes = bq.subgroup_classes(s3)
    x = bq.product_gset(classes[1], classes[2])
    assert x.size == 6
    # the stabilizer of every pair is trivial, one free orbit
    assert bq.decompose_gset(x) == bq.basis_element(s3, 0)


def test_product_with_whole_group(s3):
    classes = bq.subgroup_classes(s3)
    x = bq.product_gset(classes[-1], classes[2])
    assert bq.decompose_gset(x) == bq.basis_element(s3, 2)


def test_product_with_trivial_is_free(s3):
    classes = bq.subgroup_classes(s3)
    x = bq.product_gset(classes[1], classes[0])
    assert x.size == 18
    assert bq.decompose_gset(x).coeffs == (3, 0, 0, 0)


def test_invalid_action_rejected(z2):
    # the involution cannot act by a 3-cycle
    bad = bq.FiniteGSet(group=z2, size=3, action=((0, 1, 2), (1, 2, 0)))
    with pytest.raises(InvalidAction):
        bq.decompose_gset(bad)
    swapped_identity = bq.FiniteGSet(group=z2, size=2, action=((1, 0), (0, 1)))
    with pytest.raises(InvalidAction):
        bq.decompose_gset(swapped_identity)
    not_a_permutation = bq.FiniteGSet(group=z2, size=2, action=((0, 1), (0, 0)))
    with pytest.raises(InvalidAction):
        bq.decompose_gset(not_a_permutation)


@pytest.mark.parametrize("name", ["S3", "D4", "A4"])
def test_generator_sided_action_check_agrees_with_all_pairs(name):
    # every w != e is y g for a generator g, so a swap in row w breaks
    # rho(y g) = rho(y) rho(g) and the generator-sided check must see it
    group = make_group(name)
    classes = bq.subgroup_classes(group)
    gsets = [bq.coset_gset(group, c.representative) for c in classes]
    gsets += [bq.product_gset(a, b) for a in classes for b in classes]
    rng = random.Random(len(gsets))
    for x in gsets:
        assert all_pairs_action(x)
        burnside._validate_action(x)
        if x.size < 2:
            continue
        for w in range(1, group.order):
            p, q = rng.sample(range(x.size), 2)
            row = list(x.action[w])
            row[p], row[q] = row[q], row[p]
            bad = bq.FiniteGSet(group, x.size, x.action[:w] + (tuple(row),) + x.action[w + 1:])
            assert not all_pairs_action(bad)
            with pytest.raises(InvalidAction, match="not a homomorphism"):
                burnside._validate_action(bad)


@pytest.mark.parametrize("name", ["S3", "D4", "A4"])
def test_action_check_uses_every_generator(name):
    # rows altered on a whole coset y<g>, so that rho(z g) = rho(z) rho(g)
    # still holds for every z: only the other generators can refuse them
    group = make_group(name)
    mult = group.mult_table
    refused = set()
    for cls in bq.subgroup_classes(group):
        x = bq.coset_gset(group, cls.representative)
        if x.size < 2:
            continue
        for g in group.generator_indices:
            powers = [0]
            while mult[powers[-1]][g]:
                powers.append(mult[powers[-1]][g])
            y = min(set(range(group.order)) - set(powers))
            sigma = list(x.action[y])
            sigma[0], sigma[1] = sigma[1], sigma[0]
            action = list(x.action)
            for h in powers:
                action[mult[y][h]] = tuple(sigma[p] for p in x.action[h])
            bad = bq.FiniteGSet(group, x.size, tuple(action))
            if all_pairs_action(bad):  # the altered rows form an action again
                burnside._validate_action(bad)
                continue
            refused.add(g)
            with pytest.raises(InvalidAction, match="not a homomorphism"):
                burnside._validate_action(bad)
    assert refused == set(group.generator_indices)


def test_disjoint_union_additivity(s3):
    classes = bq.subgroup_classes(s3)
    a = bq.coset_gset(s3, classes[1].representative)
    b = bq.coset_gset(s3, classes[2].representative)
    union_action = tuple(
        tuple(list(ra) + [x + a.size for x in rb])
        for ra, rb in zip(a.action, b.action)
    )
    union = bq.FiniteGSet(group=s3, size=a.size + b.size, action=union_action)
    assert bq.decompose_gset(union) == bq.add(bq.decompose_gset(a), bq.decompose_gset(b))


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_cardinality_conservation(name):
    group = make_group(name)
    classes = bq.subgroup_classes(group)
    sizes = [group.order // c.representative.order for c in classes]
    for a, b in itertools.product(classes[:3], classes[:3]):
        x = bq.product_gset(a, b)
        decomposition = bq.decompose_gset(x)
        assert sum(c * s for c, s in zip(decomposition.coeffs, sizes)) == x.size


# ---------------------------------------------------------------- marks vs orbits

@pytest.mark.parametrize("name", ["Z2", "S3", "D4"])
def test_marks_vs_orbit_oracle_small(name):
    group = make_group(name)
    classes = bq.subgroup_classes(group)
    for a, b in itertools.product(classes, classes):
        via_marks = bq.mul(
            bq.basis_element(group, a.class_index),
            bq.basis_element(group, b.class_index),
        )
        via_orbits = bq.decompose_gset(bq.product_gset(a, b))
        assert via_marks == via_orbits


# ---------------------------------------------------------------- text form

def test_format_element(s3):
    x = bq.BurnsideElement(s3, (2, 1, 0, 0))
    assert bq.format_element(x) == "2*[G/e] + 1*[G/(1 2)]"
    assert bq.format_element(bq.zero_element(s3)) == "0"
    assert bq.format_element(bq.BurnsideElement(s3, (-1, 0, 2, 0))) == (
        "-1*[G/e] + 2*[G/(1 2 3)]"
    )
    assert bq.format_element(bq.BurnsideElement(s3, (1, -3, 0, 0))) == (
        "1*[G/e] - 3*[G/(1 2)]"
    )


def test_parse_element(s3):
    assert bq.parse_element(s3, "2*[G/e] + 1*[G/(1 2)]").coeffs == (2, 1, 0, 0)
    assert bq.parse_element(s3, "[G/G]") == bq.unit_element(s3)
    assert bq.parse_element(s3, "1*[G/e] - 3*[G/(1 2)]").coeffs == (1, -3, 0, 0)
    assert bq.parse_element(s3, "-2*[G/(1 2 3)]").coeffs == (0, 0, -2, 0)
    assert bq.parse_element(s3, "0").is_zero()
    for blank in ("", "   "):
        with pytest.raises(DescriptorError, match="written 0"):
            bq.parse_element(s3, blank)


def test_parse_format_round_trip(s3):
    for coeffs in [(2, 1, 0, 0), (-1, 0, 3, -2), (0, 0, 0, 1), (0, 0, 0, 0)]:
        x = bq.BurnsideElement(s3, coeffs)
        assert bq.parse_element(s3, bq.format_element(x)) == x


def test_parse_bad_label(s3):
    with pytest.raises(DescriptorError):
        bq.parse_element(s3, "1*[G/(9 9)]")


def test_marks_csv(s3):
    text = bq.marks_csv(bq.table_of_marks(s3))
    lines = text.strip().split("\n")
    assert lines[0] == "class,e,(1 2),(1 2 3),G"
    assert lines[1] == "e,6,0,0,0"
    assert lines[-1] == "G,1,1,1,1"
