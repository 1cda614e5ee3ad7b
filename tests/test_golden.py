"""Byte-exact CLI outputs on S4 acting on 4 points.

Each command's stdout is compared with the sha256 of the output recorded
when this file was written, so any change to class order, labels, marks,
orbit types, realized pieces, degrees or product rows shows up here.
"""

import hashlib

import pytest

from burneq.cli import main

S4_GROUP = '{"points": 4, "generators": [[1,0,2,3],[1,2,3,0]]}'
S4_PERM = (
    '{"dim": 4, "generator_matrices": ['
    '[["0","1","0","0"],["1","0","0","0"],["0","0","1","0"],["0","0","0","1"]],'
    '[["0","0","0","1"],["1","0","0","0"],["0","1","0","0"],["0","0","1","0"]]]}'
)
TARGET_1 = "1*[G/e] - 1*[G/(1 2)] + 2*[G/(1 2),(3 4)] + 1*[G/(1 2),(1 4 2)] + 1*[G/G]"
TARGET_2 = "-2*[G/e] + 1*[G/(1 2)] + 1*[G/G]"

GOLDEN = {
    "group": "d50db6fb19996fddca28c340464d24efdbc71e378c73b8369d882839f91426f8",
    "marks": "f730bffbbe9f449901f3eb98148318b66326a6ce5edbcb04a01365ca30f19270",
    "realize_1": "363ab9dfc5f6b40b9fbe7ed172db94c39e21469cfaf9d042af6f941b6afacae0",
    "realize_2": "c0041ab309e6c3634cd12cb4564eb2a441cb87145e057ae819f0383ef5453373",
    "degree": "60aa7ae6a935914d04cecd769c081b2b9f75c5f5081d28df7f3ca679e38d8d6a",
    "product": "06f185b085ce028e5b78d24badc74c62554795daccaf5601014c86826c550627",
}


@pytest.fixture
def files(tmp_path):
    def put(name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return {"g": put("s4.json", S4_GROUP), "r": put("s4perm.json", S4_PERM),
            "m1": str(tmp_path / "m1.json"), "m2": str(tmp_path / "m2.json")}


def _digest(capsys, argv) -> str:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return hashlib.sha256(out.encode()).hexdigest()


def test_s4_perm_cli_outputs_are_unchanged(files, capsys):
    g, r, m1, m2 = files["g"], files["r"], files["m1"], files["m2"]
    got = {
        "group": _digest(capsys, ["group", "-g", g, "-r", r, "--format", "json"]),
        "marks": _digest(capsys, ["marks", "-g", g]),
        "realize_1": _digest(capsys, ["realize", "-g", g, "-r", r, "-e", TARGET_1,
                                      "--format", "json", "-o", m1]),
        "realize_2": _digest(capsys, ["realize", "-g", g, "-r", r, "-e", TARGET_2,
                                      "--format", "json", "-o", m2]),
        "degree": _digest(capsys, ["degree", "-g", g, "-r", r, "-m", m1, "--format", "json"]),
        "product": _digest(capsys, ["product", "-g", g, "-r", r, "-r", r, "-m", m1, "-m", m2,
                                    "--format", "json"]),
    }
    assert got == GOLDEN
