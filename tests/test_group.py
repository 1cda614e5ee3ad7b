"""Group construction, subgroup enumeration, classes, Weyl data."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import burneq as bq
import burneq.group as group_mod
from burneq.errors import EmptyGeneratorList, NotASubgroup, OrderCapExceeded
from burneq.group import (
    _elements,
    _lex_key,
    class_index_of,
    conjugate_subgroup,
    double_cosets,
    left_cosets,
)
from groupdata import (
    EXPECTED_ORDER,
    MARKS_GROUPS,
    compose_mult_table,
    make_group,
    scan_weyl_data,
)


def brute_force_subgroups(group):
    """Oracle: filter all element subsets for the subgroup axioms."""
    n = group.order
    mult = group.mult_table
    found = set()
    for mask in range(1, 1 << n):
        if not mask & 1:  # must contain the identity
            continue
        subset = [i for i in range(n) if mask >> i & 1]
        members = set(subset)
        if all(mult[a][b] in members for a in subset for b in subset):
            found.add(tuple(subset))
    return found


# ---------------------------------------------------------------- construction

def test_swap_generates_order_two():
    assert bq.generate_group([[1, 0]]).order == 2


def test_transposition_and_three_cycle_generate_order_six():
    assert bq.generate_group([[1, 0, 2], [1, 2, 0]]).order == 6


def test_empty_generator_list_rejected():
    with pytest.raises(EmptyGeneratorList):
        bq.generate_group([])


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        bq.generate_group([[1, 2, 3, 0]], order_cap=3)


def test_non_permutation_rejected():
    with pytest.raises(ValueError):
        bq.generate_group([[0, 0, 1]])


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_expected_orders(name):
    assert make_group(name).order == EXPECTED_ORDER[name]


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_mult_table_is_a_group_law(name):
    group = make_group(name)
    n = group.order
    mult = group.mult_table
    assert all(mult[0][a] == a and mult[a][0] == a for a in range(n))
    for row in mult:
        assert sorted(row) == list(range(n))
    for col in zip(*mult):
        assert sorted(col) == list(range(n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert mult[mult[a][b]][c] == mult[a][mult[b][c]]


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_index_to_permutation_is_injective_homomorphism(name):
    group = make_group(name)
    perms = group.element_perms
    assert len(set(perms)) == group.order
    for a in range(group.order):
        for b in range(group.order):
            composed = tuple(perms[a][x] for x in perms[b])
            assert composed == perms[group.mult_table[a][b]]


@pytest.mark.parametrize("name", [*MARKS_GROUPS, "S5"])
def test_mult_table_matches_composition(name):
    group = make_group(name)
    assert group.mult_table == compose_mult_table(group)


@pytest.mark.parametrize("block", [1, 7, 24, 128])
def test_mult_table_filled_in_row_blocks_matches_composition(block, monkeypatch):
    # order 24: one row per block, three blocks of 7 and one of 3, one block
    monkeypatch.setattr(group_mod, "_ROW_BLOCK", block)
    s4 = bq.generate_group([[1, 0, 2, 3], [1, 2, 3, 0]])
    assert s4.mult_table == compose_mult_table(s4)


def test_deterministic_indexing():
    a = bq.generate_group([[1, 0, 2], [1, 2, 0]])
    b = bq.generate_group([[1, 0, 2], [1, 2, 0]])
    assert a.element_perms == b.element_perms
    assert a.mult_table == b.mult_table


# ---------------------------------------------------------------- subgroups

def test_z2_has_two_subgroups(z2):
    assert len(bq.all_subgroups(z2)) == 2


def test_z4_has_three_subgroups():
    assert len(bq.all_subgroups(make_group("Z4"))) == 3


def test_s3_subgroups_against_brute_force(s3):
    subs = bq.all_subgroups(s3)
    assert len(subs) == 6
    orders = sorted(s.order for s in subs)
    assert orders == [1, 2, 2, 2, 3, 6]
    assert {s.element_set for s in subs} == brute_force_subgroups(s3)


@pytest.mark.parametrize("name", ["Z6", "D4", "Q8", "A4"])
def test_subgroups_against_brute_force(name):
    group = make_group(name)
    subs = bq.all_subgroups(group)
    assert {s.element_set for s in subs} == brute_force_subgroups(group)


def test_subgroup_list_sorted(s3):
    subs = bq.all_subgroups(s3)
    keys = [(s.order, s.element_set) for s in subs]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_conjugates_are_subgroups_of_same_order(name):
    group = make_group(name)
    subgroup_sets = {s.element_set for s in bq.all_subgroups(group)}
    for sub in bq.all_subgroups(group):
        for g in range(group.order):
            conj = bq.group.conjugate_subgroup(group, sub, g)
            assert conj.order == sub.order
            assert conj.element_set in subgroup_sets


# ---------------------------------------------------------------- classes

def test_s3_class_member_counts(s3):
    classes = bq.subgroup_classes(s3)
    assert [len(c.members) for c in classes] == [1, 3, 1, 1]


def test_abelian_classes_are_singletons():
    for name in ["Z2", "Z4", "V4", "Z6"]:
        group = make_group(name)
        assert all(len(c.members) == 1 for c in bq.subgroup_classes(group))


def test_d4_has_eight_classes():
    assert len(bq.subgroup_classes(make_group("D4"))) == 8


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_classes_partition_subgroups(name):
    group = make_group(name)
    classes = bq.subgroup_classes(group)
    members = [m.element_set for c in classes for m in c.members]
    assert sorted(members) == sorted(s.element_set for s in bq.all_subgroups(group))


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_class_members_by_direct_conjugation(name):
    group = make_group(name)
    for cls in bq.subgroup_classes(group):
        conjugates = {
            bq.group.conjugate_subgroup(group, cls.representative, g).element_set
            for g in range(group.order)
        }
        assert {m.element_set for m in cls.members} == conjugates


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_class_size_is_normalizer_index(name):
    group = make_group(name)
    for cls in bq.subgroup_classes(group):
        wd = bq.weyl_data(group, cls.representative)
        assert len(cls.members) == group.order // wd.normalizer.order


# ---------------------------------------------------------------- partial order

def test_trivial_class_below_everything(s3):
    classes = bq.subgroup_classes(s3)
    assert all(bq.class_leq(classes[0], c) for c in classes)


def test_everything_below_whole_group(s3):
    classes = bq.subgroup_classes(s3)
    assert all(bq.class_leq(c, classes[-1]) for c in classes)


def test_c3_not_below_c2_in_s3(s3):
    classes = bq.subgroup_classes(s3)
    c2 = next(c for c in classes if c.representative.order == 2)
    c3 = next(c for c in classes if c.representative.order == 3)
    assert not bq.class_leq(c3, c2)


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_class_leq_is_a_partial_order(name):
    group = make_group(name)
    classes = bq.subgroup_classes(group)
    for a in classes:
        assert bq.class_leq(a, a)
    for a, b in itertools.product(classes, classes):
        if bq.class_leq(a, b) and bq.class_leq(b, a):
            assert a.class_index == b.class_index
        for c in classes:
            if bq.class_leq(a, b) and bq.class_leq(b, c):
                assert bq.class_leq(a, c)


# ---------------------------------------------------------------- Weyl data

def test_weyl_of_whole_group(s3):
    whole = bq.all_subgroups(s3)[-1]
    wd = bq.weyl_data(s3, whole)
    assert wd.normalizer.order == 6
    assert wd.weyl_order == 1


def test_weyl_of_trivial_subgroup(s3):
    trivial = bq.all_subgroups(s3)[0]
    wd = bq.weyl_data(s3, trivial)
    assert wd.normalizer.order == 6
    assert wd.weyl_order == 6


def test_weyl_of_transposition_is_trivial(s3):
    c2 = next(s for s in bq.all_subgroups(s3) if s.order == 2)
    wd = bq.weyl_data(s3, c2)
    # direct conjugation: no element outside the subgroup normalizes it
    normalizer = {
        g
        for g in range(s3.order)
        if set(bq.group.conjugate_subgroup(s3, c2, g).element_set) == set(c2.element_set)
    }
    assert set(wd.normalizer.element_set) == normalizer
    assert wd.weyl_order == 1


def test_weyl_rejects_non_subgroup(s3):
    with pytest.raises(NotASubgroup):
        bq.weyl_data(s3, bq.Subgroup.of((0, 1, 2)))
    c3 = next(s for s in bq.all_subgroups(s3) if s.order == 3)
    # no identity, a bit at |G|, not closed
    for candidate in [(1, 2), (0, s3.order), c3.element_set[:2]]:
        with pytest.raises(NotASubgroup):
            bq.weyl_data(s3, bq.Subgroup.of(candidate))


def test_subgroup_identity_ignores_element_order():
    a, b = bq.Subgroup.of((2, 0, 1)), bq.Subgroup.of((0, 1, 2))
    assert a == b and hash(a) == hash(b)
    assert a.element_set == (0, 1, 2) and a.order == 3
    assert 2 in a and 3 not in a


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_lex_key_sorts_equal_size_masks_as_element_tuples(data):
    """Masks of one bit count, each a swap of one set bit with one clear bit
    of an earlier one, so that many share long low prefixes; up to 2000 bits."""
    bits = data.draw(st.integers(1, 2000), label="bits")
    masks = [data.draw(st.integers(0, (1 << bits) - 1), label="base")]
    for _ in range(data.draw(st.integers(1, 12), label="variants")):
        m = data.draw(st.sampled_from(masks))
        ones, zeros = _elements(m), _elements(~m & ((1 << bits) - 1))
        if ones and zeros:
            masks.append(m ^ 1 << data.draw(st.sampled_from(ones)) ^ 1 << data.draw(st.sampled_from(zeros)))
    masks = list(dict.fromkeys(masks))
    assert sorted(masks, key=_lex_key(bits)) == sorted(masks, key=_elements)


@pytest.mark.parametrize("name", MARKS_GROUPS)
def test_weyl_invariants(name):
    group = make_group(name)
    for sub in bq.all_subgroups(group):
        wd = bq.weyl_data(group, sub)
        assert wd.weyl_order * sub.order == wd.normalizer.order
        assert group.order % wd.normalizer.order == 0
        # coset reps hit each coset of the subgroup in the normalizer once
        covered = set()
        for r in wd.weyl_coset_reps:
            coset = {group.mult_table[r][h] for h in sub.element_set}
            assert not coset & covered
            covered |= coset
        assert covered == set(wd.normalizer.element_set)


@pytest.mark.parametrize("name", [*MARKS_GROUPS, "S4xZ2", "A5"])
def test_weyl_data_matches_the_scan_on_every_subgroup(name):
    group = make_group(name)
    for sub in bq.all_subgroups(group):
        assert bq.weyl_data(group, sub) == scan_weyl_data(group, sub)


@pytest.mark.parametrize("name", ["S4xZ2", "S5"])
def test_weyl_data_of_non_representative_members_matches_the_scan(name):
    """A representative's conjugator is the identity, which conjugates its
    normalizer to itself; every other member's normalizer is conjugated over
    by a nonidentity element, and must still match the scan."""
    group = make_group(name)
    for cls in bq.subgroup_classes(group):
        assert cls.conjugators[cls.representative.mask] == 0
        assert bq.group.conjugate_subgroup(group, cls.normalizer, 0) is cls.normalizer
        for member in cls.members[1:]:
            assert cls.conjugators[member.mask] != 0
            assert bq.weyl_data(group, member) == scan_weyl_data(group, member)


# ---------------------------------------------------------------- double cosets

DOUBLE_COSET_GROUPS = [*MARKS_GROUPS, "S4", "A5"]


@pytest.mark.parametrize("name", DOUBLE_COSET_GROUPS)
def test_double_cosets_count_the_orbits_of_the_product_gset(name):
    # G/H x G/K has one orbit G/(H ∩ g K g^-1) per double coset H g K, so
    # the class counts equal the orbit decomposition of the product G-set
    group = make_group(name)
    classes = bq.subgroup_classes(group)
    for a, b in itertools.product(classes, classes):
        coeffs = [0] * len(classes)
        cosets = left_cosets(group, b.representative)
        for _, sub in double_cosets(group, a.representative, cosets):
            coeffs[class_index_of(group, sub)] += 1
        oracle = bq.decompose_gset(bq.product_gset(a, b))
        assert tuple(coeffs) == oracle.coeffs, (name, a.class_index, b.class_index)


@pytest.mark.parametrize("name", DOUBLE_COSET_GROUPS)
def test_double_cosets_partition_g_at_their_least_elements(name):
    # each g is the least element of H g K, the double cosets partition G,
    # and each subgroup is H ∩ g K g^-1, for H and K over every pair of
    # subgroups, as product pieces take any isotropy, not only a representative
    group = make_group(name)
    mult = group.mult_table
    subgroups = bq.all_subgroups(group)
    for h_sub, k_sub in itertools.product(subgroups, subgroups):
        found = double_cosets(group, h_sub, left_cosets(group, k_sub))
        seen = set()
        for g, sub in found:
            coset = {mult[mult[h][g]][k] for h in h_sub.element_set for k in k_sub.element_set}
            assert min(coset) == g and not coset & seen
            seen |= coset
            assert sub.mask == h_sub.mask & conjugate_subgroup(group, k_sub, g).mask
        assert seen == set(range(group.order))
        assert [g for g, _ in found] == sorted(g for g, _ in found)


# ---------------------------------------------------------------- labels

def test_s3_labels(s3):
    assert bq.class_labels(s3) == ("e", "(1 2)", "(1 2 3)", "G")


def test_labels_are_unique():
    for name in MARKS_GROUPS:
        labels = bq.class_labels(make_group(name))
        assert len(set(labels)) == len(labels)
