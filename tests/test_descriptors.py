"""Descriptor file round trips and validation."""

import json
from fractions import Fraction

import pytest

import burneq as bq
import burneq.linalg as la
from burneq import descriptors
from burneq.degree import DeclaredLocalMap, ExpressionLocalMap, LinearLocalMap
from burneq.errors import DescriptorError


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


S3_GROUP = {"points": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
S3_PERM_REP = {
    "dim": 3,
    "generator_matrices": [
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
        [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
    ],
}


def test_load_group(tmp_path):
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    assert group.order == 6


def test_group_header_mismatch(tmp_path):
    bad = {"points": 4, "generators": [[1, 0, 2]]}
    with pytest.raises(DescriptorError):
        descriptors.load_group(write(tmp_path / "g.json", bad))


def test_non_permutation_generator(tmp_path):
    bad = {"points": 3, "generators": [[0, 0, 1]]}
    with pytest.raises(DescriptorError):
        descriptors.load_group(write(tmp_path / "g.json", bad))


def test_missing_file():
    with pytest.raises(DescriptorError):
        descriptors.load_group("/nonexistent/g.json")


def test_bad_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DescriptorError):
        descriptors.load_group(str(path))


def test_load_representation(tmp_path):
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    rep = descriptors.load_representation(write(tmp_path / "r.json", S3_PERM_REP), group)
    assert rep.dim == 3


def test_rational_entries(tmp_path):
    group = descriptors.load_group(
        write(tmp_path / "g.json", {"points": 2, "generators": [[1, 0]]})
    )
    rep_payload = {
        "dim": 2,
        "generator_matrices": [[["-3/5", "4/5"], ["4/5", "3/5"]]],
    }
    rep = descriptors.load_representation(write(tmp_path / "r.json", rep_payload), group)
    assert rep.matrices[1][0][0] == Fraction(-3, 5)


def test_bad_rational_rejected(tmp_path):
    group = descriptors.load_group(
        write(tmp_path / "g.json", {"points": 2, "generators": [[1, 0]]})
    )
    for bad in ("sqrt(2)", 0.5, "1/0"):
        rep_payload = {"dim": 1, "generator_matrices": [[[bad]]]}
        with pytest.raises(DescriptorError):
            descriptors.load_representation(
                write(tmp_path / "r.json", rep_payload), group
            )



@pytest.mark.parametrize("text", [
    "3", "-3", "007", "1/2", "-4/6", "0/5", "1/02",
    "1/0", "1/-2", "--1", "+1", " 1", "1_000", "1.5", "1e3", "\u0663", "\u00b2",
    "", "-", "/2", "1/", "9" * 5000,
])
def test_rationals_read_as_fraction_reads_them(text):
    # the int fast path for "-?digits(/digits)?" and Fraction's own parser
    # for the rest accept, refuse and value exactly what Fraction(text) does
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(DescriptorError) as refused:
            descriptors._fraction(text, "here")
        assert str(refused.value) == f"here: expected a rational like \"p/q\", got {text!r}"
    else:
        value = descriptors._fraction(text, "here")
        assert type(value) is Fraction and value == expected


def test_vec_keeps_fractions_and_converts_the_rest():
    half, third = Fraction(1, 2), Fraction(1, 3)
    kept = la.vec([half, third])
    assert kept[0] is half and kept[1] is third
    converted = la.vec([1, "3/6", -2])
    assert converted == (1, half, -2) and all(type(x) is Fraction for x in converted)

def test_map_round_trip(tmp_path):
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    rep = descriptors.load_representation(write(tmp_path / "r.json", S3_PERM_REP), group)
    target = bq.BurnsideElement(group, (1, 2, 0, 0))
    f = bq.realize_element(bq.RealizationTarget(element=target, rep=rep))
    path = tmp_path / "m.json"
    descriptors.save_map(path, f)
    loaded = descriptors.load_map(str(path), rep)
    assert loaded.pieces == f.pieces
    assert bq.deg_polystandard(loaded).value == target


def test_map_with_all_local_variants(tmp_path):
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    rep = descriptors.load_representation(write(tmp_path / "r.json", S3_PERM_REP), group)
    payload = {
        "rep": None,
        "pieces": [
            {
                "base_point": ["1", "1", "0"],
                "radius": "1/8",
                "epsilon": "1/8",
                "local": {"type": "linear", "matrix": [["1", "0"], ["0", "-1"]]},
            },
            {
                "base_point": ["2", "2", "2"],
                "radius": "1/8",
                "epsilon": "1/8",
                "local": {"type": "degree", "d": -2},
            },
            {
                "base_point": ["1", "2", "4"],
                "radius": "1/8",
                "epsilon": "1/8",
                "local": {
                    "type": "expr",
                    "exprs": ["x1 - 1", "x2 - 2", "x3 - 4"],
                },
            },
        ],
    }
    f = descriptors.load_map(write(tmp_path / "m.json", payload), rep)
    kinds = [type(p.local) for p in f.pieces]
    assert kinds == [LinearLocalMap, DeclaredLocalMap, ExpressionLocalMap]
    result = bq.deg_polystandard(f)
    assert result.value.coeffs == (1, -1, 0, -2)


def test_map_missing_fields(tmp_path):
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    rep = descriptors.load_representation(write(tmp_path / "r.json", S3_PERM_REP), group)
    payload = {"pieces": [{"base_point": ["1", "1", "0"]}]}
    with pytest.raises(DescriptorError):
        descriptors.load_map(write(tmp_path / "m.json", payload), rep)


def test_map_unknown_local_type(tmp_path):
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    rep = descriptors.load_representation(write(tmp_path / "r.json", S3_PERM_REP), group)
    payload = {
        "pieces": [
            {
                "base_point": ["1", "1", "0"],
                "radius": "1/8",
                "epsilon": "1/8",
                "local": {"type": "mystery"},
            }
        ]
    }
    with pytest.raises(DescriptorError):
        descriptors.load_map(write(tmp_path / "m.json", payload), rep)


def test_saved_map_is_byte_stable(tmp_path):
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    rep = descriptors.load_representation(write(tmp_path / "r.json", S3_PERM_REP), group)
    target = bq.BurnsideElement(group, (2, 0, 0, 0))
    f = bq.realize_element(bq.RealizationTarget(element=target, rep=rep))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    descriptors.save_map(a, f)
    descriptors.save_map(b, f)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("raw", [5, None, "abc", [5], [[5]], [["1", "0"]], [{"a": 1}]])
def test_malformed_generator_matrices(tmp_path, raw):
    group = descriptors.load_group(
        write(tmp_path / "g.json", {"points": 2, "generators": [[1, 0]]})
    )
    rep_payload = {"dim": 1, "generator_matrices": raw}
    with pytest.raises(DescriptorError):
        descriptors.load_representation(write(tmp_path / "r.json", rep_payload), group)


@pytest.mark.parametrize("generators", [[5], [[None, 0]], [[1, "a"]]])
def test_malformed_generators(tmp_path, generators):
    bad = {"points": 2, "generators": generators}
    with pytest.raises(DescriptorError):
        descriptors.load_group(write(tmp_path / "g.json", bad))


def test_map_local_not_an_object(tmp_path):
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    rep = descriptors.load_representation(write(tmp_path / "r.json", S3_PERM_REP), group)
    payload = {
        "pieces": [
            {"base_point": ["1", "1", "0"], "radius": "1/8", "epsilon": "1/8", "local": 5}
        ]
    }
    with pytest.raises(DescriptorError):
        descriptors.load_map(write(tmp_path / "m.json", payload), rep)


@pytest.mark.parametrize("payload", [
    {"points": 3, "generators": [[1, 0, 2.5]]},
    {"points": 3, "generators": [[True, 0, 2]]},
    {"points": 3, "generators": [[1.0, 0, 2]]},
    {"points": 3.0, "generators": [[1, 0, 2]]},
    {"points": True, "generators": [[0]]},
    {"points": "3", "generators": [[1, 0, 2]]},
])
def test_group_integers_are_exact(tmp_path, payload):
    with pytest.raises(DescriptorError):
        descriptors.load_group(write(tmp_path / "g.json", payload))


@pytest.mark.parametrize("dim", [1.5, 1.0, True, "1"])
def test_rep_dim_must_be_an_integer(tmp_path, dim):
    group = descriptors.load_group(
        write(tmp_path / "g.json", {"points": 2, "generators": [[1, 0]]})
    )
    rep_payload = {"dim": dim, "generator_matrices": [[["-1"]]]}
    with pytest.raises(DescriptorError):
        descriptors.load_representation(write(tmp_path / "r.json", rep_payload), group)


@pytest.mark.parametrize("d", [1.5, 1.0, True, "1", None])
def test_declared_index_must_be_an_integer(tmp_path, d):
    group = descriptors.load_group(
        write(tmp_path / "g.json", {"points": 2, "generators": [[1, 0]]})
    )
    rep = descriptors.load_representation(
        write(tmp_path / "r.json", {"dim": 1, "generator_matrices": [[["-1"]]]}), group
    )
    payload = {"pieces": [{"base_point": ["1"], "radius": "1/4", "epsilon": "1/4",
                           "local": {"type": "degree", "d": d}}]}
    with pytest.raises(DescriptorError):
        descriptors.load_map(write(tmp_path / "m.json", payload), rep)


@pytest.mark.parametrize("local,field", [
    ({"type": "expr", "exprs": [5]}, "'exprs'"),
    ({"type": "expr", "exprs": ["x1 - 1", None]}, "'exprs'"),
    ({"type": "linear", "matrix": [1]}, "'matrix'"),
    ({"type": "linear", "matrix": [["1", "0"], "01"]}, "'matrix'"),
])
def test_malformed_local_map_names_its_field(tmp_path, local, field):
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    rep = descriptors.load_representation(write(tmp_path / "r.json", S3_PERM_REP), group)
    payload = {"pieces": [{"base_point": ["1", "2", "4"], "radius": "1/8", "epsilon": "1/8",
                           "local": local}]}
    with pytest.raises(DescriptorError) as info:
        descriptors.load_map(write(tmp_path / "m.json", payload), rep)
    assert field in str(info.value) and "needs base_point" not in str(info.value)


@pytest.mark.parametrize("base_point", ["110", {"1": 0, "2": 0, "0": 0}])
def test_base_point_must_be_a_list(tmp_path, base_point):
    # a string or an object iterates as its characters or keys, which would
    # read as the points (1, 1, 0) and (1, 2, 0)
    group = descriptors.load_group(write(tmp_path / "g.json", S3_GROUP))
    rep = descriptors.load_representation(write(tmp_path / "r.json", S3_PERM_REP), group)
    payload = {"pieces": [{"base_point": base_point, "radius": "1/8", "epsilon": "1/8",
                           "local": {"type": "degree", "d": -1}}]}
    with pytest.raises(DescriptorError) as info:
        descriptors.load_map(write(tmp_path / "m.json", payload), rep)
    assert "piece 0" in str(info.value) and "'base_point'" in str(info.value)
    assert "\n" not in str(info.value)


def test_expression_map_keeps_its_literals(tmp_path):
    trivial = {"points": 1, "generators": [[0]]}
    group = descriptors.load_group(write(tmp_path / "g.json", trivial))
    rep = descriptors.load_representation(
        write(tmp_path / "r.json", {"dim": 1, "generator_matrices": [[["1"]]]}), group
    )
    source = "123456789012345678901.5 * (x1 - 0.00001)"
    payload = {"pieces": [{"base_point": ["1/100000"], "radius": "1/1000000",
                           "epsilon": "1/1000000", "local": {"type": "expr", "exprs": [source]}}]}
    f = descriptors.load_map(write(tmp_path / "m.json", payload), rep)
    path = tmp_path / "saved.json"
    descriptors.save_map(path, f)
    assert json.loads(path.read_text())["pieces"][0]["local"]["exprs"] == [source]
    loaded = descriptors.load_map(str(path), rep)
    assert loaded.pieces == f.pieces
    assert bq.deg_polystandard(loaded).value.coeffs == (1,)
