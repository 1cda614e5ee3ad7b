"""Representation validation, fixed subspaces, isotropy, orbit types."""

import re
from fractions import Fraction

import pytest

import burneq as bq
import burneq.linalg as la
import burneq.representation as rep_mod
from burneq.errors import (
    DimensionMismatch,
    EmptyOrbitTypeStratum,
    NotAHomomorphism,
    NotOrthogonal,
)
from groupdata import (
    MARKS_GROUPS,
    PRODUCT_CORPUS_REPS,
    fraction_rref,
    full_pass_witness_orbits,
    make_group,
    make_rep,
)


def rank(m):
    return len(fraction_rref(m)[1])


def row_space_equal(a, b):
    """Whether two vector lists span the same subspace."""
    ra = fraction_rref(tuple(a))[0] if a else []
    rb = fraction_rref(tuple(b))[0] if b else []
    strip = lambda rows: [tuple(r) for r in rows if any(x != 0 for x in r)]
    return strip(ra) == strip(rb)


# ---------------------------------------------------------------- build

def test_sign_representation_accepted(z2):
    rep = bq.build_representation(z2, [[[-1]]])
    assert rep.dim == 1
    assert rep.matrices[1] == ((Fraction(-1),),)


def test_permutation_matrices_accepted(s3):
    rep = bq.permutation_representation(s3)
    assert rep.dim == 3
    assert rep.matrices[1] == la.mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert rep.matrices[2] == la.mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def test_not_orthogonal_rejected(z2):
    with pytest.raises(NotOrthogonal):
        bq.build_representation(z2, [[[2]]])
    with pytest.raises(NotOrthogonal):
        bq.build_representation(z2, [[["1/2", 0], [0, 1]]])


def test_relation_violation_rejected(z2):
    # a rotation matrix of order 4 cannot represent an involution
    with pytest.raises(NotAHomomorphism):
        bq.build_representation(z2, [[[0, -1], [1, 0]]])


def test_two_generator_relation_violation_rejected(s3):
    # (0 1) -> I and (0 1 2) -> its permutation matrix: the 3-cycle's
    # conjugate by (0 1) would be itself, not its inverse
    cycle = bq.permutation_representation(s3).matrices[s3.generator_indices[1]]
    with pytest.raises(NotAHomomorphism):
        bq.build_representation(s3, [la.identity(3), cycle])


def count_calls(monkeypatch, *names):
    """Record every call of the named `representation` functions in one list."""
    calls = []
    for name in names:
        fn = getattr(rep_mod, name)
        monkeypatch.setattr(rep_mod, name,
                            lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    return calls


@pytest.mark.parametrize("kind", ["permutation", "regular"])
def test_build_skips_the_construction_edges(kind, monkeypatch):
    a5 = make_group("A5")
    k = len(a5.generator_perms)
    construct = bq.permutation_representation if kind == "permutation" else bq.regular_representation
    # the constructors read the group's tables: no build, no composition
    calls = count_calls(monkeypatch, "build_representation", "_compose", "_product")
    rep = construct(a5)
    assert calls == []
    # from the generator matrices: |G| - 1 closure compositions and
    # |G| k - (|G| - 1) relation checks off the construction edges, and no
    # orthogonality product, as a signed permutation is orthogonal by shape
    gens = [rep.matrices[ge] for ge in a5.generator_indices]
    built = rep_mod.build_representation(a5, gens)
    assert calls == ["build_representation"] + ["_compose"] * (a5.order * k) and len(calls) == 121
    assert (built.sources, built.signs) == (rep.sources, rep.signs)


def test_dense_build_skips_the_construction_edges(monkeypatch):
    # k orthogonality checks, |G| - 1 closure products, and |G| k - (|G| - 1)
    # relation checks off the construction edges
    s3 = make_group("S3")
    k = len(s3.generator_perms)
    rotation = la.mat([["3/5", "-4/5", 0], ["4/5", "3/5", 0], [0, 0, 1]])
    perm = bq.permutation_representation(s3)
    gens = [la.matmul(rotation, la.matmul(perm.matrices[ge], la.transpose(rotation)))
            for ge in s3.generator_indices]
    calls = count_calls(monkeypatch, "_product", "_compose")
    rep = bq.build_representation(s3, gens)
    assert rep.sources is None and rep.denom > 1
    assert calls == ["_product"] * (k + s3.order * k) and len(calls) == 14


def dense_generators(group, kind):
    """Generator matrices of the permutation (e_j -> e_perm(j)) or regular
    (e_x -> e_gx) representation, by composing permutations."""
    perms = group.generator_perms
    if kind == "regular":
        index = {p: i for i, p in enumerate(group.element_perms)}
        perms = [[index[tuple(g[y] for y in e)] for e in group.element_perms] for g in perms]
    return [la.mat([[int(i == p[j]) for j in range(len(p))] for i in range(len(p))])
            for p in perms]


@pytest.mark.parametrize("kind", ["perm", "regular"])
@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "S4", "A5"])
def test_table_constructors_equal_the_build_of_dense_generators(name, kind):
    group = make_group(name)
    gens = dense_generators(group, kind)
    rep = (bq.permutation_representation if kind == "perm" else bq.regular_representation)(group)
    built = bq.build_representation(group, gens)
    assert (rep.sources, rep.signs) == (built.sources, built.signs)
    assert (rep.rows, rep.denom) == (built.rows, built.denom) and rep.denom == 1
    assert rep.matrices == built.matrices
    if (name, kind) == ("A5", "regular"):
        return  # 59 products of 60 x 60 Fraction matrices take about 40 s
    products = [la.identity(rep.dim)] * group.order
    for idx, (parent, gi) in enumerate(group.construction[1:], 1):
        products[idx] = la.matmul(products[parent], gens[gi])
    assert rep.matrices == tuple(products)


def test_monomial_looking_inputs_take_the_dense_checks(z2):
    # one nonzero entry per row, but a repeated column of +-1 or a -2
    for m in ([[0, 1], [0, -1]], [[-2, 0], [0, 1]]):
        with pytest.raises(NotOrthogonal):
            bq.build_representation(z2, [m])
    # a sign has order 2, so it cannot represent a generator of order 3
    with pytest.raises(NotAHomomorphism, match="at element 2, generator 0"):
        bq.build_representation(bq.generate_group([[1, 2, 0]]), [[[-1]]])


def test_wrong_matrix_count_rejected(s3):
    with pytest.raises(DimensionMismatch):
        bq.build_representation(s3, [la.identity(2)])


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS + ["S3-regular"])
def test_representation_invariants(name):
    rep = make_rep(name)
    group = rep.group
    ident = la.identity(rep.dim)
    assert rep.matrices[0] == ident
    for m in rep.matrices:
        assert la.matmul(la.transpose(m), m) == ident
    for a in range(group.order):
        for b in range(group.order):
            assert la.matmul(rep.matrices[a], rep.matrices[b]) == rep.matrices[
                group.mult_table[a][b]
            ]


# ---------------------------------------------------------------- fixed subspaces

def test_fixed_space_of_trivial_subgroup_is_everything(s3_perm):
    trivial = bq.all_subgroups(s3_perm.group)[0]
    fs = bq.fixed_subspace(s3_perm, trivial)
    assert fs.dim_fixed == 3


def test_fixed_space_of_whole_group(s3_perm):
    whole = bq.all_subgroups(s3_perm.group)[-1]
    fs = bq.fixed_subspace(s3_perm, whole)
    assert fs.dim_fixed == 1
    assert row_space_equal(fs.basis, [la.vec([1, 1, 1])])


def test_fixed_space_of_transposition(s3_perm):
    c2 = next(s for s in bq.all_subgroups(s3_perm.group) if s.order == 2)
    fs = bq.fixed_subspace(s3_perm, c2)
    assert fs.dim_fixed == 2
    assert row_space_equal(fs.basis, [la.vec([1, 1, 0]), la.vec([0, 0, 1])])


def test_fixed_vectors_actually_fixed(s3_perm):
    for sub in bq.all_subgroups(s3_perm.group):
        fs = bq.fixed_subspace(s3_perm, sub)
        for b in fs.basis:
            for h in sub.element_set:
                assert s3_perm.apply(h, b) == b


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_projector_rank_cross_check(name):
    # dim V^H from the kernel equals n - rank(P - I), two exact routes
    rep = make_rep(name)
    n = rep.dim
    for sub in bq.all_subgroups(rep.group):
        weight = Fraction(1, sub.order)
        projector = [[Fraction(0)] * n for _ in range(n)]
        for h in sub.element_set:
            for i in range(n):
                for j in range(n):
                    projector[i][j] += weight * rep.matrices[h][i][j]
        delta = la.msub(la.mat(projector), la.identity(n))
        fs = bq.fixed_subspace(rep, sub)
        assert fs.dim_fixed == n - rank(delta)
        assert rank(la.mat(projector)) == fs.dim_fixed


def test_nested_subgroups_have_nested_fixed_spaces(s3_perm):
    subs = bq.all_subgroups(s3_perm.group)
    for small in subs:
        for big in subs:
            if set(small.element_set) <= set(big.element_set):
                assert (
                    bq.fixed_subspace(s3_perm, big).dim_fixed
                    <= bq.fixed_subspace(s3_perm, small).dim_fixed
                )


# ---------------------------------------------------------------- isotropy / orbits

def test_origin_has_full_isotropy(s3_perm):
    assert bq.isotropy(s3_perm, [0, 0, 0]).order == 6


def test_isotropy_of_symmetric_pair(s3_perm):
    assert bq.isotropy(s3_perm, [1, 1, 0]).element_set == (0, 1)


def test_generic_point_has_trivial_isotropy(s3_perm):
    assert bq.isotropy(s3_perm, [1, 2, 4]).order == 1


def test_orbit_of_origin(s3_perm):
    assert bq.orbit(s3_perm, [0, 0, 0]) == (la.vec([0, 0, 0]),)


def test_orbit_of_sign_rep(z2_sign):
    assert bq.orbit(z2_sign, [1]) == (la.vec([1]), la.vec([-1]))


def test_orbit_stabilizer_count(s3_perm):
    for point in ([1, 1, 0], [1, 2, 4], [5, 5, 5]):
        orb = bq.orbit(s3_perm, point)
        sub = bq.isotropy(s3_perm, point)
        assert len(orb) == s3_perm.group.order // sub.order


def test_isotropy_conjugation_equivariance(s3_perm):
    group = s3_perm.group
    for point in ([1, 1, 0], [1, 2, 4], [0, 0, 3]):
        x = la.vec(point)
        base = bq.isotropy(s3_perm, x)
        for g in range(group.order):
            moved = bq.isotropy(s3_perm, s3_perm.apply(g, x))
            assert moved == bq.group.conjugate_subgroup(group, base, g)


# ---------------------------------------------------------------- orbit types

def test_orbit_types_sign_rep(z2_sign):
    table = bq.orbit_types(z2_sign)
    assert [(e.dim_fixed, e.occupied) for e in table.entries] == [(1, True), (0, True)]


def test_orbit_types_trivial_rep(s3):
    rep = bq.trivial_representation(s3, 1)
    table = bq.orbit_types(rep)
    occupied = [e.class_index for e in table.entries if e.occupied]
    assert occupied == [len(bq.subgroup_classes(s3)) - 1]


def test_orbit_types_s3_perm(s3_perm):
    table = bq.orbit_types(s3_perm)
    assert [(e.class_index, e.dim_fixed, e.occupied) for e in table.entries] == [
        (0, 3, True),
        (1, 2, True),
        (2, 1, False),
        (3, 1, True),
    ]


def stratum_empty_oracle(rep, sub):
    """Per subgroup: no point has isotropy exactly H iff some strictly larger
    subgroup has a fixed space of the same dimension."""
    d = bq.fixed_subspace(rep, sub).dim_fixed
    return any(set(sub.element_set) < set(k.element_set)
               and bq.fixed_subspace(rep, k).dim_fixed == d
               for k in bq.all_subgroups(rep.group))


LARGER_GROUPS = {"S4": [[1, 0, 2, 3], [1, 2, 3, 0]], "A5": [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]}
OCCUPANCY_CORPUS = list(dict.fromkeys([  # S3-perm is in both lists
    *PRODUCT_CORPUS_REPS, *(f"{g}-{kind}" for g in MARKS_GROUPS for kind in ("perm", "regular")),
    "S4-perm", "A5-perm"]))


def occupancy_rep(name):
    if name in PRODUCT_CORPUS_REPS:
        return make_rep(name)
    group_name, kind = name.split("-")
    group = (make_group(group_name) if group_name in MARKS_GROUPS
             else bq.generate_group(LARGER_GROUPS[group_name]))
    build = bq.permutation_representation if kind == "perm" else bq.regular_representation
    return build(group)


@pytest.mark.parametrize("name", OCCUPANCY_CORPUS)
def test_orbit_types_match_the_per_subgroup_oracle(name):
    rep = occupancy_rep(name)
    table = bq.orbit_types(rep)
    classes = bq.subgroup_classes(rep.group)
    assert [e.class_index for e in table.entries] == list(range(len(classes)))
    for entry, cls in zip(table.entries, classes):
        assert entry.dim_fixed == bq.fixed_subspace(rep, cls.representative).dim_fixed
        assert entry.occupied == (not stratum_empty_oracle(rep, cls.representative))
    assert bq.orbit_types(rep) is table


@pytest.mark.parametrize("name", ["S4-perm", "Z2-reflection"])
def test_orbit_types_build_no_fixed_space(name, monkeypatch):
    # dimensions come from traces, so the table builds no basis, on a
    # permutation representation or on a dense reflection
    calls = []
    for module, attr in [(bq.representation, "fixed_subspace"), (la, "kernel_basis")]:
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a, _real=real: calls.append(a) or _real(*a))
    if name == "S4-perm":
        rep = bq.permutation_representation(make_group("S4"))
    else:
        rep = bq.build_representation(make_group("Z2"), [[["-3/5", "4/5"], ["4/5", "3/5"]]])
    table = bq.orbit_types(rep)
    assert len(table.entries) == len(bq.subgroup_classes(rep.group))
    assert calls == []


def test_witness_points_have_exact_isotropy(s3_perm):
    for cls in bq.subgroup_classes(s3_perm.group):
        try:
            x = bq.point_with_exact_isotropy(s3_perm, cls.representative)
        except EmptyOrbitTypeStratum:
            continue
        assert bq.isotropy(s3_perm, x) == cls.representative


@pytest.mark.parametrize("count", [0, -1])
def test_witness_points_need_a_positive_count(s3_perm, count):
    for sub in (bq.all_subgroups(s3_perm.group)[0], bq.all_subgroups(s3_perm.group)[-1]):
        with pytest.raises(ValueError, match="at least 1"):
            bq.witness_points(s3_perm, sub, count)


def test_witness_for_empty_stratum_raises(s3_perm):
    c3 = next(s for s in bq.all_subgroups(s3_perm.group) if s.order == 3)
    with pytest.raises(EmptyOrbitTypeStratum):
        bq.point_with_exact_isotropy(s3_perm, c3)


def test_sign_rep_first_ladder_candidate(z2_sign):
    trivial = bq.all_subgroups(z2_sign.group)[0]
    assert bq.point_with_exact_isotropy(z2_sign, trivial) == (Fraction(1),)


def test_whole_group_witness_with_trivial_summand(s3_perm):
    whole = bq.all_subgroups(s3_perm.group)[-1]
    x = bq.point_with_exact_isotropy(s3_perm, whole)
    assert bq.isotropy(s3_perm, x).order == 6
    assert any(c != 0 for c in x)


@pytest.mark.parametrize("name", OCCUPANCY_CORPUS)
def test_witness_ladder_matches_the_full_pass_ladder(name, monkeypatch):
    # a candidate is tested on one image per left coset of H, |G| / |H| of
    # them, and the picks and their orbits are the full-pass ladder's
    rep = occupancy_rep(name)
    group = rep.group
    lengths = []
    images = rep_mod.OrthogonalRepresentation.images
    monkeypatch.setattr(rep_mod.OrthogonalRepresentation, "images",
                        lambda self, point, elements=None: lengths.append(
                            None if elements is None else len(elements))
                        or images(self, point, elements))
    for entry, cls in zip(bq.orbit_types(rep).entries, bq.subgroup_classes(group)):
        if not entry.occupied:
            continue
        sub = cls.representative
        for count in (1, 2, 3):
            lengths.clear()
            try:
                picks = rep_mod._witness_orbits(rep, sub, count)
            except ValueError as exc:  # the origin, for the whole group
                assert entry.dim_fixed == 0 and count > 1
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    full_pass_witness_orbits(rep, sub, count)
                continue
            assert lengths == [group.order // sub.order] * len(lengths)
            assert len(lengths) >= (count if entry.dim_fixed else 0)
            assert picks == full_pass_witness_orbits(rep, sub, count)


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_weyl_acts_freely_on_witnesses(name):
    rep = make_rep(name)
    group = rep.group
    for cls in bq.subgroup_classes(group):
        try:
            x = bq.point_with_exact_isotropy(rep, cls.representative)
        except EmptyOrbitTypeStratum:
            continue
        wd = bq.weyl_data(group, cls.representative)
        for w in wd.weyl_coset_reps:
            if w not in cls.representative:
                assert rep.apply(w, x) != x


# ---------------------------------------------------------------- sums

def test_direct_sum(z2_sign):
    double = bq.direct_sum(z2_sign, z2_sign)
    assert double.dim == 2
    assert double.matrices[1] == la.mat([[-1, 0], [0, -1]])


def test_regular_representation_dimensions(s3):
    reg = bq.regular_representation(s3)
    assert reg.dim == 6
    c3 = next(s for s in bq.all_subgroups(s3) if s.order == 3)
    assert bq.fixed_subspace(reg, c3).dim_fixed == 2
    # the three-cycle stratum is occupied here, unlike in the 3-point action
    assert bq.isotropy(reg, bq.point_with_exact_isotropy(reg, c3)) == c3
