"""Seeded input generation: the group ladder and representation descriptors.

Everything here is plain Python and never calls the library, so the inputs
the library sees are fixed by the seed alone. Descriptors are written as
the JSON files the `burneq` command line reads.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# Permutation generators, 0-based images. The first eight are the groups of
# the test catalog; Q8 acts on itself (1, -1, i, -i, j, -j, k, -k).
GROUPS: dict[str, list[list[int]]] = {
    "Z2": [[1, 0]],
    "Z4": [[1, 2, 3, 0]],
    "V4": [[1, 0, 2, 3], [0, 1, 3, 2]],
    "Z6": [[1, 0, 3, 4, 2]],
    "S3": [[1, 0, 2], [1, 2, 0]],
    "D4": [[1, 2, 3, 0], [3, 2, 1, 0]],
    "Q8": [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]],
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "D8": [[1, 2, 3, 4, 5, 6, 7, 0], [7, 6, 5, 4, 3, 2, 1, 0]],
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "S4xZ2": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]],
    "A5": [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]],
}

# Published (order, subgroups, conjugacy classes of subgroups).
PUBLISHED: dict[str, tuple[int, int, int]] = {
    "Z2": (2, 2, 2),
    "Z4": (4, 3, 3),
    "V4": (4, 5, 5),
    "Z6": (6, 4, 4),
    "S3": (6, 6, 4),
    "D4": (8, 10, 8),
    "Q8": (8, 6, 6),
    "A4": (12, 10, 5),
    "D8": (16, 19, 11),
    "S4": (24, 30, 11),
    "S4xZ2": (48, 98, 33),
    "A5": (60, 59, 9),
}

# Hand-written orthogonal representations: generator matrices per group.
EXPLICIT_REPS: dict[str, tuple[str, list]] = {
    "Z2-sign": ("Z2", [[[-1]]]),
    "V4-signs": ("V4", [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]]),
    "D4-standard": ("D4", [[[0, -1], [1, 0]], [[1, 0], [0, -1]]]),
}


def _compose(p, q):
    return tuple(p[x] for x in q)


def _perm_matrix(perm) -> list[list[int]]:
    n = len(perm)
    return [[1 if i == perm[j] else 0 for j in range(n)] for i in range(n)]


def _closure(gens) -> list[tuple[int, ...]]:
    ident = tuple(range(len(gens[0])))
    elems, seen = [ident], {ident}
    for x in elems:
        for g in gens:
            y = _compose(g, x)
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return sorted(elems)


def rep_generator_matrices(rep_name: str) -> tuple[str, list]:
    """(group name, generator matrices) for "<G>-perm", "<G>-regular" or an explicit rep."""
    if rep_name in EXPLICIT_REPS:
        return EXPLICIT_REPS[rep_name]
    group_name, kind = rep_name.rsplit("-", 1)
    gens = [tuple(g) for g in GROUPS[group_name]]
    if kind == "perm":
        return group_name, [_perm_matrix(g) for g in gens]
    if kind == "regular":
        elems = _closure(gens)
        index = {e: i for i, e in enumerate(elems)}
        return group_name, [
            _perm_matrix([index[_compose(g, e)] for e in elems]) for g in gens
        ]
    raise KeyError(rep_name)


def relabelled(name: str, rng: random.Random) -> list[list[int]]:
    """The group's generators conjugated by a random point permutation, shuffled.

    The result presents an isomorphic group, so every published count still
    applies, while element and class order change with the seed.
    """
    gens = [list(g) for g in GROUPS[name]]
    n = len(gens[0])
    sigma = list(range(n))
    rng.shuffle(sigma)
    inverse = [0] * n
    for i, s in enumerate(sigma):
        inverse[s] = i
    out = [[sigma[g[inverse[x]]] for x in range(n)] for g in gens]
    rng.shuffle(out)
    return out


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_group(workdir: Path, name: str) -> Path:
    gens = GROUPS[name]
    return write_json(
        workdir / f"group-{name}.json", {"points": len(gens[0]), "generators": gens}
    )


def write_rep(workdir: Path, rep_name: str) -> tuple[Path, Path]:
    """Writes the group and representation descriptors; returns both paths."""
    group_name, matrices = rep_generator_matrices(rep_name)
    rep_path = write_json(
        workdir / f"rep-{rep_name}.json",
        {
            "id": rep_name,
            "dim": len(matrices[0]),
            "generator_matrices": [
                [[str(Fraction(x)) for x in row] for row in m] for m in matrices
            ],
        },
    )
    return write_group(workdir, group_name), rep_path
