"""No input ends in a traceback: random descriptor files and settings through `main`.

Each example writes a group, a representation and a map descriptor, most of
them near the valid forms and some fields replaced by arbitrary JSON, sets
`BURNEQ_ORDER_CAP`, and runs one subcommand in process. Every outcome must
be exit code 0, 1 or 2 with at most one line on stderr. A second test keeps
the group, the representation and the setting valid, so that random maps
reach piece validation and the local index. A third keeps the files valid
and draws the `check` flags instead.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from burneq.cli import main

KEYS = ["points", "generators", "dim", "generator_matrices", "pieces", "base_point",
        "radius", "epsilon", "local", "type", "d", "matrix", "exprs", "rep"]
RATIONALS = ["0", "1", "-1", "2", "1/2", "-1/3", "3/5", "-4/5", "1/8", "1/0", "x", ""]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.sampled_from([2.5, 1.0, -0.5]),
    st.sampled_from(RATIONALS),
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=3),
    max_leaves=8,
)
HUGE = "1" + "0" * 400  # beyond the float range
INF = "9" * 400  # a literal that parses to an infinite float
EXPRS = ["x1 - 1", "x1^1100 - 2^1100", f"{INF} * (x1 - 2)", "x1 - x2", "x2 + x1^3",
         "x1 * x1 - 4", "1/x1", "x1/0", "(x1", "y1", "x1^-1", "2.", "x3 - 3"]
ELEMENTS = ["1*[G/e]", "2*[G/e] - 1*[G/G]", "[G/G]", "-1*[G/G]", "3*[G/e]", "[G/zz]"]
ORDER_CAPS = ["2000", "24", "6", " 7 ", "2", "1", "", "0", "-3", "2.5", "abc"]


def maybe(valid):
    """The valid value seven times in eight, arbitrary JSON otherwise."""
    return st.integers(0, 7).flatmap(lambda k: ANY_JSON if k == 7 else st.just(valid))


def matrices(n, entries):
    return st.lists(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
                    min_size=1, max_size=2)


def perm_matrix(p):
    n = len(p)
    return [["1" if i == p[j] else "0" for j in range(n)] for i in range(n)]


@st.composite
def inputs(draw, sound_setup=False):
    """Descriptors, command, element and order cap; `sound_setup` keeps the first two valid."""
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    group = {"points": n, "generators": gens}

    dim = draw(st.integers(1, 3))
    sound = [  # the permutation and the trivial representation
        st.just([perm_matrix(p) for p in gens]),
        st.just([[["1" if i == j else "0" for j in range(dim)] for i in range(dim)]] * len(gens)),
    ]
    mats = draw(st.one_of(*sound) if sound_setup else st.one_of(
        *sound,
        st.just([[["-1"]]] * len(gens)),
        matrices(dim, st.sampled_from(["0", "1", "-1", "3/5", "4/5", "-4/5"])),
    ))
    dim = len(mats[0])
    rep = {"dim": dim, "generator_matrices": mats}
    if not sound_setup:
        group = {key: draw(maybe(value)) for key, value in group.items()}
        rep = {key: draw(maybe(value)) for key, value in rep.items()}

    local = draw(st.one_of(
        st.fixed_dictionaries({"type": st.just("expr"),
                               "exprs": st.lists(st.sampled_from(EXPRS), min_size=1, max_size=3)}),
        st.fixed_dictionaries({"type": st.just("degree"), "d": maybe(1)}),
        st.fixed_dictionaries({"type": st.just("linear"), "matrix": st.lists(
            st.lists(st.sampled_from(RATIONALS[:8]), min_size=1, max_size=2),
            min_size=0, max_size=2)}),
        ANY_JSON,
    ))
    piece = {
        "base_point": draw(maybe(draw(st.lists(st.sampled_from(RATIONALS[:4] + [HUGE]),
                                               min_size=dim, max_size=dim)))),
        "radius": draw(maybe("1/8")),
        "epsilon": draw(maybe(draw(st.sampled_from(["1/8", "1/4", "4", "0"])))),
        "local": local,
    }
    the_map = {"rep": draw(st.sampled_from([None, "other"])),
               "pieces": draw(maybe([piece] * draw(st.integers(1, 2))))}
    if sound_setup:
        return group, rep, the_map, draw(st.sampled_from(["degree", "product"])), None, None
    if draw(st.booleans()) and draw(st.booleans()):
        the_map = draw(ANY_JSON)
    command = draw(st.sampled_from(["degree", "product", "realize", "group", "check", "marks"]))
    return group, rep, the_map, command, draw(st.sampled_from(ELEMENTS)), draw(
        st.one_of(st.none(), st.sampled_from(ORDER_CAPS)))


def argv_for(command, paths, element):
    g, r, m = (str(p) for p in paths)
    return {
        "group": ["group", "-g", g, "-r", r],
        "marks": ["marks", "-g", g],
        "degree": ["degree", "-g", g, "-r", r, "-m", m],
        "product": ["product", "-g", g, "-r", r, "-r", r, "-m", m, "-m", m],
        "realize": ["realize", "-g", g, "-r", r, f"--element={element}"],
        "check": ["check", "-g", g, "-r", r, "--pairs", "1"],
    }[command]


def run_main(case):
    """Write the descriptors, run the command and check its exit code and stderr."""
    group, rep, the_map, command, element, order_cap = case
    env = {k: v for k, v in os.environ.items() if k != "BURNEQ_ORDER_CAP"}
    if order_cap is not None:
        env["BURNEQ_ORDER_CAP"] = order_cap
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env, clear=True):
        paths = []
        for name, payload in (("group", group), ("rep", rep), ("map", the_map)):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            paths.append(path)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_for(command, paths, element))
    assert code in (0, 1, 2), err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(inputs())
def test_random_inputs_never_escape_main(case):
    run_main(case)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(inputs(sound_setup=True))
def test_random_maps_on_sound_representations_never_escape_main(case):
    run_main(case)


S3_GROUP = {"points": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
S3_PERM = {"dim": 3, "generator_matrices": [perm_matrix(p) for p in S3_GROUP["generators"]]}
# None is a flag without its value; `--pairs` runs stay cheap, as larger
# counts come only as text that is not an integer
NOT_INTS = st.sampled_from(["abc", "1.5", "", "2e0", "-", "1/2", "nan", "--seed"])
NEGATIVE = st.integers(-10, -1).map(str)
FLAG_VALUES = {
    "--pairs": st.one_of(st.integers(0, 2).map(str), NEGATIVE, NOT_INTS, st.none()),
    "--seed": st.one_of(st.integers(0, 10**6).map(str), NEGATIVE, NOT_INTS, st.none()),
    "--format": st.one_of(st.sampled_from(["text", "json", "xml", "JSON", ""]), st.none()),
}


@st.composite
def check_flags(draw):
    """Some of the `check` flags in a random order, each with a drawn value."""
    argv = []
    for flag in draw(st.permutations(sorted(FLAG_VALUES))):
        if draw(st.booleans()):
            value = draw(FLAG_VALUES[flag])
            argv += [flag] if value is None else [flag, value]
    return argv


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(check_flags())
def test_random_check_flags_never_escape_main(flags):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        group, rep = Path(tmp) / "group.json", Path(tmp) / "rep.json"
        group.write_text(json.dumps(S3_GROUP), encoding="utf-8")
        rep.write_text(json.dumps(S3_PERM), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "-g", str(group), "-r", str(rep), *flags])
    assert code in (0, 1, 2), err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()


@pytest.mark.parametrize("base,expr,message", [
    ("2", "x1^1100 - 2^1100", "error: expression piece has a power value out of floating-point"),
    ("2", f"{INF} * (x1 - 2)", "error: expression piece has a literal out of floating-point"),
    # a NaN Jacobian used to come out as index -1
    ("2", f"{INF} * (x1 - 2) - {INF} * (x1 - 2)",
     "error: expression piece has a literal out of floating-point"),
    (HUGE, f"x1 - {HUGE}", "error: expression piece coordinates are out of floating-point"),
])
def test_float_range_expression_pieces_are_one_line_errors(tmp_path, capsys, base, expr,
                                                           message):
    group = tmp_path / "z2.json"
    group.write_text('{"points": 2, "generators": [[1, 0]]}', encoding="utf-8")
    rep = tmp_path / "sign.json"
    rep.write_text('{"dim": 1, "generator_matrices": [[["-1"]]]}', encoding="utf-8")
    the_map = tmp_path / "map.json"
    the_map.write_text(json.dumps({"pieces": [{
        "base_point": [base], "radius": "1/4", "epsilon": "1/4",
        "local": {"type": "expr", "exprs": [expr]}}]}), encoding="utf-8")
    assert main(["degree", "-g", str(group), "-r", str(rep), "-m", str(the_map)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("expr,message", [
    ("(x1 - 2) / (x1 - 2)", "error: division by zero during exact evaluation"),
    ("(x1 - 2) + 0 / (x1 - 2)", "error: division by zero during exact evaluation"),
    ("1 / (1 / (x1 - 2))", "error: division by zero during exact evaluation"),
    ("x1 - 1", "error: expression local map does not vanish at the base point"),
    # the constant powers cancel, but 2^1100 is refused before it is folded
    ("(x1 - 2) + 2^1100 - 2^1100",
     "error: expression piece has a power value out of floating-point range"),
])
def test_base_point_refusals_are_one_line_errors(tmp_path, capsys, expr, message):
    # Z/2-sign at base point 2: each expression is undefined at the base
    # point, nonzero there, or holds a power that the exact evaluation refuses
    group = tmp_path / "z2.json"
    group.write_text('{"points": 2, "generators": [[1, 0]]}', encoding="utf-8")
    rep = tmp_path / "sign.json"
    rep.write_text('{"dim": 1, "generator_matrices": [[["-1"]]]}', encoding="utf-8")
    the_map = tmp_path / "map.json"
    the_map.write_text(json.dumps({"pieces": [{
        "base_point": ["2"], "radius": "1/4", "epsilon": "1/4",
        "local": {"type": "expr", "exprs": [expr]}}]}), encoding="utf-8")
    assert main(["degree", "-g", str(group), "-r", str(rep), "-m", str(the_map)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


def test_huge_power_is_refused_before_it_is_taken(tmp_path, capsys):
    # (2/3)^99999999 as an exact Fraction would take minutes to compute
    group = tmp_path / "z2.json"
    group.write_text('{"points": 2, "generators": [[1, 0]]}', encoding="utf-8")
    rep = tmp_path / "sign.json"
    rep.write_text('{"dim": 1, "generator_matrices": [[["-1"]]]}', encoding="utf-8")
    the_map = tmp_path / "map.json"
    the_map.write_text(json.dumps({"pieces": [{
        "base_point": ["2/3"], "radius": "1/4", "epsilon": "1/4",
        "local": {"type": "expr", "exprs": ["x1^99999999 + (x1 - 2/3)"]}}]}), encoding="utf-8")
    start = time.perf_counter()
    assert main(["degree", "-g", str(group), "-r", str(rep), "-m", str(the_map)]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: expression piece has a power value out of floating-point range")


def test_power_too_large_to_evaluate_exactly_is_refused(tmp_path, capsys):
    # the value is about 1, inside the float range, but the exact power has
    # about 1.2e8 bits and took minutes to compute
    base = "1.000000000000000001"
    group = tmp_path / "z2.json"
    group.write_text('{"points": 2, "generators": [[1, 0]]}', encoding="utf-8")
    rep = tmp_path / "sign.json"
    rep.write_text('{"dim": 1, "generator_matrices": [[["-1"]]]}', encoding="utf-8")
    the_map = tmp_path / "map.json"
    the_map.write_text(json.dumps({"pieces": [{
        "base_point": [base], "radius": "1/4", "epsilon": "1/4",
        "local": {"type": "expr", "exprs": ["x1^1000000 - 1"]}}]}), encoding="utf-8")
    start = time.perf_counter()
    assert main(["degree", "-g", str(group), "-r", str(rep), "-m", str(the_map)]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: expression piece has a power too large to evaluate exactly\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="integer-string conversion has no digit limit here")
@pytest.mark.parametrize("where", ["descriptor", "order cap", "coefficient", "literal",
                                   "exponent", "variable"])
def test_integers_beyond_the_digit_limit_are_one_line_errors(tmp_path, capsys, monkeypatch,
                                                             where):
    big = "9" * (sys.get_int_max_str_digits() + 1)
    expr = {"exponent": f"x1^{big}", "variable": f"x{big}"}.get(where, f"x1 - {big}")
    group, rep, the_map = (tmp_path / name for name in ("group.json", "rep.json", "map.json"))
    group.write_text(f'{{"points": {big}, "generators": [[0]]}}' if where == "descriptor"
                     else json.dumps(S3_GROUP), encoding="utf-8")
    rep.write_text(json.dumps(S3_PERM), encoding="utf-8")
    the_map.write_text(json.dumps({"pieces": [{
        "base_point": ["1", "1", "1"], "radius": "1/4", "epsilon": "1/4",
        "local": {"type": "expr", "exprs": [expr]}}]}), encoding="utf-8")
    monkeypatch.delenv("BURNEQ_ORDER_CAP", raising=False)
    if where == "order cap":
        monkeypatch.setenv("BURNEQ_ORDER_CAP", big)
    g, r, m = str(group), str(rep), str(the_map)
    argv = {
        "descriptor": ["marks", "-g", g],
        "order cap": ["marks", "-g", g],
        "coefficient": ["realize", "-g", g, "-r", r, f"--element={big}*[G/e]"],
    }.get(where, ["degree", "-g", g, "-r", r, "-m", m])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
