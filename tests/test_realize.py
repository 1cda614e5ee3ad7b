"""Witness construction and realization of prescribed elements."""

import random
from fractions import Fraction

import pytest

import burneq as bq
import burneq.realize as realize_mod
import burneq.representation as rep_mod
from burneq import fuzz
from burneq.errors import EmptyOrbitTypeStratum, InfeasibleCoefficient, ZeroDimNegative
from burneq.realize import signed_linear_block
from groupdata import PRODUCT_CORPUS_REPS, fraction_det, make_rep


# ---------------------------------------------------------------- signed blocks

def test_signed_blocks():
    assert signed_linear_block(2, 1) == bq.linalg.identity(2)
    assert signed_linear_block(1, -1) == ((Fraction(-1),),)
    block = signed_linear_block(3, -1)
    assert fraction_det(block) == -1
    assert block[0][0] == -1 and block[1][1] == 1 and block[2][2] == 1


def test_zero_dim_negative_block_rejected():
    with pytest.raises(ZeroDimNegative):
        signed_linear_block(0, -1)
    assert signed_linear_block(0, 1) == ()


# ---------------------------------------------------------------- witnesses

def test_witness_for_whole_group_with_trivial_summand(s3_perm):
    whole = bq.all_subgroups(s3_perm.group)[-1]
    x = bq.point_with_exact_isotropy(s3_perm, whole)
    assert bq.isotropy(s3_perm, x) == whole


def test_witness_for_empty_stratum(s3_perm):
    c3 = next(s for s in bq.all_subgroups(s3_perm.group) if s.order == 3)
    with pytest.raises(EmptyOrbitTypeStratum):
        bq.point_with_exact_isotropy(s3_perm, c3)


def test_witness_sign_rep_is_first_candidate(z2_sign):
    trivial = bq.all_subgroups(z2_sign.group)[0]
    assert bq.point_with_exact_isotropy(z2_sign, trivial) == (Fraction(1),)


# ---------------------------------------------------------------- realize

def test_realize_zero_is_empty_map(z2_sign):
    f = bq.realize_element(
        bq.RealizationTarget(element=bq.zero_element(z2_sign.group), rep=z2_sign)
    )
    assert f.pieces == ()
    assert bq.deg_polystandard(f).value.is_zero()


def test_realize_three_free_orbits(z2_sign):
    target = bq.BurnsideElement(z2_sign.group, (3, 0))
    f = bq.realize_element(bq.RealizationTarget(element=target, rep=z2_sign))
    assert len(f.pieces) == 3
    assert bq.deg_polystandard(f).value == target


def test_realize_negative_coefficients(z2_sign):
    target = bq.BurnsideElement(z2_sign.group, (-2, 0))
    f = bq.realize_element(bq.RealizationTarget(element=target, rep=z2_sign))
    assert bq.deg_polystandard(f).value == target


def test_realize_unit_coefficient_cap(z2_sign):
    target = bq.BurnsideElement(z2_sign.group, (0, 2))
    with pytest.raises(InfeasibleCoefficient) as info:
        bq.realize_element(bq.RealizationTarget(element=target, rep=z2_sign))
    assert info.value.kind == "unit-coefficient"


def test_realize_origin_unit_germ(z2_sign):
    target = bq.BurnsideElement(z2_sign.group, (0, 1))
    f = bq.realize_element(bq.RealizationTarget(element=target, rep=z2_sign))
    assert bq.deg_polystandard(f).value == target
    assert f.pieces[0].base_point == (Fraction(0),)


def test_realize_empty_stratum_rejected(s3_perm):
    target = bq.basis_element(s3_perm.group, 2)  # the three-cycle class
    with pytest.raises(InfeasibleCoefficient) as info:
        bq.realize_element(bq.RealizationTarget(element=target, rep=s3_perm))
    assert info.value.kind == "empty-stratum"
    assert info.value.class_index == 2


def test_whole_group_coefficient_free_when_fixed_space_positive(s3_perm):
    # dim V^G = 1 here, so [G/G] may carry any integer
    target = bq.BurnsideElement(s3_perm.group, (0, 0, 0, -3))
    f = bq.realize_element(bq.RealizationTarget(element=target, rep=s3_perm))
    assert bq.deg_polystandard(f).value == target


def test_realized_pieces_satisfy_invariants(s3_perm):
    target = bq.BurnsideElement(s3_perm.group, (2, -2, 0, 1))
    f = bq.realize_element(bq.RealizationTarget(element=target, rep=s3_perm))
    for piece in f.pieces:
        assert bq.isotropy(s3_perm, piece.base_point) == piece.isotropy
        assert piece.radius > 0 and piece.epsilon > 0
    orbits = [bq.orbit(s3_perm, p.base_point) for p in f.pieces]
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            assert not set(orbits[i]) & set(orbits[j])


@pytest.mark.parametrize("name", PRODUCT_CORPUS_REPS)
def test_round_trip_on_seeded_targets(name):
    rep = make_rep(name)
    rng = random.Random(len(name))
    for _ in range(20):
        target = fuzz.random_feasible_element(rep, rng, max_classes=3, max_coeff=3)
        f = bq.realize_element(bq.RealizationTarget(element=target, rep=rep))
        assert bq.deg_polystandard(f).value == target


def test_realize_then_product(s3_perm):
    # the composite check: products of realized maps match the ring product
    a = bq.BurnsideElement(s3_perm.group, (1, 1, 0, 0))
    b = bq.BurnsideElement(s3_perm.group, (0, 2, 0, 1))
    f = bq.realize_element(bq.RealizationTarget(element=a, rep=s3_perm))
    g = bq.realize_element(bq.RealizationTarget(element=b, rep=s3_perm))
    check = bq.verify_product(f, g)
    assert check.equal
    assert check.rhs == bq.mul(a, b)


def test_realize_takes_the_orbits_from_the_ladder(s3_perm, monkeypatch):
    # each pick's orbit comes out of the ladder's own image pass; no point
    # is walked a second time by integer_orbit
    calls = []
    real = rep_mod.integer_orbit
    for module in (rep_mod, realize_mod):
        monkeypatch.setattr(module, "integer_orbit",
                            lambda r, x: calls.append(x) or real(r, x), raising=False)
    target = bq.BurnsideElement(s3_perm.group, (2, -2, 0, 1))
    f = bq.realize_element(bq.RealizationTarget(element=target, rep=s3_perm))
    assert calls == []
    for piece in f.pieces:
        assert real(s3_perm, piece.base_point) == (piece.isotropy, piece.orbit)
