"""CLI golden outputs and exit codes (runs main() in process; the closed
stdout test runs it in a subprocess)."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import burneq
from burneq import cli
from burneq.cli import main

S3_GROUP = '{"points": 3, "generators": [[1,0,2],[1,2,0]]}'
S3_REP = (
    '{"dim": 3, "generator_matrices": ['
    '[["0","1","0"],["1","0","0"],["0","0","1"]],'
    '[["0","0","1"],["1","0","0"],["0","1","0"]]]}'
)
Z2_GROUP = '{"points": 2, "generators": [[1,0]]}'
Z2_SIGN = '{"dim": 1, "generator_matrices": [[["-1"]]]}'
Z2_MAP = (
    '{"rep": null, "pieces": [{"base_point": ["1"], "radius": "1/4", '
    '"epsilon": "1/4", "local": {"type": "linear", "matrix": [["1"]]}}]}'
)


@pytest.fixture
def files(tmp_path):
    def put(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return {
        "s3": put("s3.json", S3_GROUP),
        "s3rep": put("s3rep.json", S3_REP),
        "z2": put("z2.json", Z2_GROUP),
        "sign": put("sign.json", Z2_SIGN),
        "zmap": put("zmap.json", Z2_MAP),
        "dir": tmp_path,
    }


def test_mul_transposition_times_three_cycle(files, capsys):
    code = main(["mul", "-g", files["s3"], "-a", "[G/(1 2)]", "-b", "[G/(1 2 3)]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1*[G/e]"


def test_mul_by_unit(files, capsys):
    code = main(["mul", "-g", files["s3"], "-a", "[G/G]", "-b", "2*[G/(1 2)]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2*[G/(1 2)]"


def test_group_output(files, capsys):
    assert main(["group", "-g", files["s3"]]) == 0
    out = capsys.readouterr().out
    assert "order: 6" in out
    assert "(1 2 3)" in out
    assert "partial order" in out


def test_group_with_rep_shows_orbit_types(files, capsys):
    assert main(["group", "-g", files["s3"], "-r", files["s3rep"]]) == 0
    out = capsys.readouterr().out
    assert "orbit types:" in out
    assert "[empty]" in out  # the three-cycle stratum


def test_marks_csv(files, capsys):
    assert main(["marks", "-g", files["s3"]]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "class,e,(1 2),(1 2 3),G"
    assert out.splitlines()[1] == "e,6,0,0,0"


def test_marks_to_file(files, capsys):
    out_path = files["dir"] / "marks.csv"
    assert main(["marks", "-g", files["s3"], "-o", str(out_path)]) == 0
    assert out_path.read_text().splitlines()[-1] == "G,1,1,1,1"


def test_product_sign_rep_pair(files, capsys):
    code = main(
        [
            "product", "-g", files["z2"],
            "-r1", files["sign"], "-r2", files["sign"],
            "-m1", files["zmap"], "-m2", files["zmap"],
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "deg(f x f') = 2*[G/e]" in out
    assert "deg(f) * deg(f') = 2*[G/e]" in out
    assert "equal: yes" in out


def test_product_repeatable_flags(files, capsys):
    code = main(
        [
            "product", "-g", files["z2"],
            "-r", files["sign"], "-r", files["sign"],
            "-m", files["zmap"], "-m", files["zmap"],
        ]
    )
    assert code == 0


def test_degree_round_trip_through_realize(files, capsys):
    out_map = str(files["dir"] / "map.json")
    code = main(
        [
            "realize", "-g", files["s3"], "-r", files["s3rep"],
            "-e", "1*[G/e]+2*[G/(1 2)]", "-o", out_map,
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["degree", "-g", files["s3"], "-r", files["s3rep"], "-m", out_map])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "deg = 1*[G/e] + 2*[G/(1 2)]"


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_141_silently(files, unbuffered):
    # `burneq degree ... | head -n 1` once the reader has gone: no error
    # message, and the status a shell reports after SIGPIPE, whether the
    # write fails at once or only when the buffered stdout is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(burneq.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from burneq.cli import main; sys.exit(main())",
             "degree", "-g", files["z2"], "-r", files["sign"], "-m", files["zmap"]],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_degree_json_format(files, capsys):
    out_map = str(files["dir"] / "map.json")
    main(["realize", "-g", files["s3"], "-r", files["s3rep"], "-e", "[G/G]",
          "-o", out_map])
    capsys.readouterr()
    code = main(["degree", "-g", files["s3"], "-r", files["s3rep"], "-m", out_map,
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coeffs"] == [0, 0, 0, 1]


def test_realize_infeasible_exit_two(files, capsys):
    code = main(
        ["realize", "-g", files["s3"], "-r", files["s3rep"], "-e", "1*[G/(1 2 3)]"]
    )
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "InfeasibleCoefficient"
    assert payload["kind"] == "empty-stratum"


def test_missing_file_exit_one(files, capsys):
    code = main(["mul", "-g", str(files["dir"] / "nope.json"), "-a", "[G/e]",
                 "-b", "[G/e]"])
    assert code == 1


def test_bad_element_exit_one(files, capsys):
    code = main(["mul", "-g", files["s3"], "-a", "[G/zzz]", "-b", "[G/e]"])
    assert code == 1


def test_empty_element_exit_one(files, capsys):
    code = main(["mul", "-g", files["s3"], "-a", "", "-b", "[G/e]"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "written 0" in captured.err


def test_check_subcommand(files, capsys):
    code = main(["check", "-g", files["s3"], "-r", files["s3rep"],
                 "--seed", "3", "--pairs", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "marks-vs-orbit oracle: 16 class pairs, OK" in out
    assert "product fuzz: 4 pairs, seed 3, OK" in out


def test_check_on_a5_runs_every_class_pair(tmp_path, capsys):
    a5 = tmp_path / "a5.json"
    a5.write_text('{"points": 5, "generators": [[1,2,0,3,4],[0,1,3,4,2]]}', encoding="utf-8")
    assert main(["check", "-g", str(a5), "--pairs", "0"]) == 0
    assert capsys.readouterr().out == "marks-vs-orbit oracle: 81 class pairs, OK\n"


def test_check_builds_no_product_gset(files, capsys, monkeypatch):
    # the oracle counts double cosets; the G-sets stay the tests' oracle only
    calls = []
    for name in ("product_gset", "decompose_gset"):
        real = getattr(burneq.burnside, name)
        monkeypatch.setattr(burneq.burnside, name,
                            lambda *args, real=real: calls.append(args) or real(*args))
    assert main(["check", "-g", files["s3"], "-r", files["s3rep"], "--pairs", "2"]) == 0
    assert capsys.readouterr().out == ("marks-vs-orbit oracle: 16 class pairs, OK\n"
                                       "product fuzz: 2 pairs, seed 0, OK\n")
    assert calls == []


def test_outputs_byte_stable(files, capsys):
    def run():
        main(["group", "-g", files["s3"], "--format", "json"])
        return capsys.readouterr().out

    assert run() == run()


def test_order_cap_env_var(files, capsys, monkeypatch):
    monkeypatch.setenv("BURNEQ_ORDER_CAP", "4")
    code = main(["group", "-g", files["s3"]])
    assert code == 1
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_bad_order_cap_is_a_one_line_error(files, capsys, monkeypatch, value):
    monkeypatch.setenv("BURNEQ_ORDER_CAP", value)
    code = main(["group", "-g", files["s3"]])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BURNEQ_ORDER_CAP") and err.count("\n") == 1


def test_malformed_rep_descriptor_is_a_one_line_error(files, capsys):
    bad = files["dir"] / "bad.json"
    bad.write_text('{"dim": 1, "generator_matrices": 5}', encoding="utf-8")
    code = main(["group", "-g", files["z2"], "-r", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fractional_declared_index_is_a_one_line_error(files, capsys):
    bad = files["dir"] / "bad_map.json"
    bad.write_text(
        '{"rep": null, "pieces": [{"base_point": ["1"], "radius": "1/4", '
        '"epsilon": "1/4", "local": {"type": "degree", "d": 1.5}}]}',
        encoding="utf-8",
    )
    code = main(["degree", "-g", files["z2"], "-r", files["sign"], "-m", str(bad)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fractional_generator_image_is_a_one_line_error(files, capsys):
    bad = files["dir"] / "bad_group.json"
    bad.write_text('{"points": 3, "generators": [[1, 0, 2.5]]}', encoding="utf-8")
    code = main(["group", "-g", str(bad)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_failure_is_an_assertion_with_exit_three(files, capsys, monkeypatch):
    monkeypatch.setattr(cli.degree, "verify_product", lambda f, g: SimpleNamespace(equal=False))
    argv = ["check", "-g", files["z2"], "-r", files["sign"], "--pairs", "2"]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(AssertionError, match="2 self-check failures"):
        args.func(args)
    capsys.readouterr()
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "product fuzz: 2 pairs, seed 0, 2 FAILED" in out
    assert err == "internal error: 2 self-check failures\n"


def test_negative_pairs_is_a_one_line_error(files, capsys):
    code = main(["check", "-g", files["z2"], "-r", files["sign"], "--pairs", "-3"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags, message", [
    (["--pairs", "abc"], "error: argument --pairs: invalid int value: 'abc'"),
    (["--seed", "1.5"], "error: argument --seed: invalid int value: '1.5'"),
    (["--format", "xml"], "error: argument --format: invalid choice: 'xml'"),
    (["--pairs"], "error: argument --pairs: expected one argument"),
    (["--frob"], "error: unrecognized arguments: --frob"),
])
def test_malformed_flag_is_a_one_line_error(files, capsys, flags, message):
    assert main(["check", "-g", files["s3"], *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and err.count("\n") == 1


def test_missing_subcommand_is_a_one_line_error(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: burneq check")


@pytest.mark.parametrize("radius", ["1/1" + "0" * 400, "1/1" + "0" * 20, "1/1000"],
                         ids=["1e-400", "1e-20", "1e-3"])
def test_expression_radius_against_float_resolution(files, capsys, radius):
    # the certificate is exact, so a radius below float resolution is fine
    path = files["dir"] / "tiny.json"
    path.write_text(json.dumps({"rep": None, "pieces": [{
        "base_point": ["1"], "radius": radius, "epsilon": "1/4",
        "local": {"type": "expr", "exprs": ["x1 - 1"]}}]}), encoding="utf-8")
    assert main(["degree", "-g", files["z2"], "-r", files["sign"], "-m", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "deg = 1*[G/e]"


def test_second_zero_in_the_ball_is_a_one_line_error(tmp_path, capsys):
    group = tmp_path / "trivial.json"
    group.write_text('{"points": 1, "generators": [[0]]}', encoding="utf-8")
    rep = tmp_path / "line.json"
    rep.write_text('{"dim": 1, "generator_matrices": [[["1"]]]}', encoding="utf-8")
    the_map = tmp_path / "map.json"
    the_map.write_text(json.dumps({"pieces": [{
        "base_point": ["0"], "radius": "1", "epsilon": "1",
        "local": {"type": "expr", "exprs": ["x1*(x1 - 0.5)"]}}]}), encoding="utf-8")
    assert main(["degree", "-g", str(group), "-r", str(rep), "-m", str(the_map)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "shrink the radius" in err


@pytest.mark.parametrize("command", ["degree", "product"])
def test_singular_linear_block_is_a_one_line_error(files, capsys, command):
    singular = files["dir"] / "singular.json"
    singular.write_text(json.dumps({"pieces": [{
        "base_point": ["1"], "radius": "1/4", "epsilon": "1/4",
        "local": {"type": "linear", "matrix": [["0"]]}}]}), encoding="utf-8")
    argv = {
        "degree": ["degree", "-g", files["z2"], "-r", files["sign"], "-m", str(singular)],
        "product": ["product", "-g", files["z2"], "-r", files["sign"], "-r", files["sign"],
                    "-m", files["zmap"], "-m", str(singular)],
    }[command]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the Jacobian determinant is exactly zero at the base point\n"


def test_degree_of_a_small_nonzero_determinant(tmp_path, capsys):
    group = tmp_path / "trivial.json"
    group.write_text('{"points": 1, "generators": [[0]]}', encoding="utf-8")
    rep = tmp_path / "plane.json"
    rep.write_text('{"dim": 2, "generator_matrices": [[["1", "0"], ["0", "1"]]]}',
                   encoding="utf-8")
    the_map = tmp_path / "map.json"
    the_map.write_text(json.dumps({"pieces": [{
        "base_point": ["0", "0"], "radius": "1", "epsilon": "1",
        "local": {"type": "expr", "exprs": ["1000*x1", "0.000000001*x2"]}}]}), encoding="utf-8")
    assert main(["degree", "-g", str(group), "-r", str(rep), "-m", str(the_map)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "deg = 1*[G/e]"


@pytest.mark.parametrize("argv", [
    ["group", "-g", "{s3}", "-r", "{s3rep}", "-r", "{missing}"],
    ["check", "-g", "{s3}", "-r", "{s3rep}", "-r", "{missing}", "--pairs", "0"],
    ["product", "-g", "{z2}", "-r", "{sign}", "-r", "{sign}", "-r", "{sign}",
     "-m", "{zmap}", "-m", "{zmap}"],
    ["product", "-g", "{z2}", "-r", "{sign}", "-r", "{sign}",
     "-m", "{zmap}", "-m", "{zmap}", "-m", "{zmap}"],
    ["product", "-g", "{z2}", "-r1", "{sign}", "-r", "{sign}", "-r", "{sign}",
     "-m", "{zmap}", "-m", "{zmap}"],
])
def test_surplus_rep_and_map_values_are_refused(files, capsys, argv):
    # a value that no slot reads is an input error, not silently dropped
    paths = {**files, "missing": str(files["dir"] / "missing.json")}
    code = main([a.format(**paths) for a in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "-r/--rep" in err or "-m/--map" in err
