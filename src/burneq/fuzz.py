"""Seeded random generation of feasible targets and polystandard maps.

Backs the CLI self-check and the verification suite. Everything is driven
by a caller-supplied random.Random so runs are reproducible for a fixed
seed. A random linear block comes with its determinant's sign, known by
construction (`_signed_block`): a draw eliminates nothing and never retries.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from .burnside import BurnsideElement
from .degree import (
    DeclaredLocalMap,
    LinearLocalMap,
    PolystandardMap,
    StandardPiece,
)
from .group import subgroup_classes
from .linalg import Matrix
from .realize import RealizationTarget, realize_element
from .representation import OrthogonalRepresentation, occupied_classes


def _signed_block(rng: random.Random, dim: int) -> tuple[Matrix, int]:
    """A random dim x dim integer block and the sign of its determinant.

    U is upper triangular, with diagonal entries from +-{1, 2, 3} and entries
    in [-3, 3] above it; each row i >= 1 then gains c times row j of U, for
    a random j < i and c in [-3, 3]. The block is (I + N) U with N strictly
    lower triangular, so its determinant is the product of U's diagonal, and
    every entry lies in [-12, 12].
    """
    upper = [[0] * i + [rng.choice((-3, -2, -1, 1, 2, 3))]
             + [rng.randint(-3, 3) for _ in range(dim - i - 1)]
             for i in range(dim)]
    sign = (-1) ** sum(row[i] < 0 for i, row in enumerate(upper))
    rows = upper[:1]
    for i in range(1, dim):
        j, c = rng.randrange(i), rng.randint(-3, 3)
        rows.append([a + c * b for a, b in zip(upper[i], upper[j])])
    return tuple(tuple(map(Fraction, row)) for row in rows), sign


def random_feasible_element(rep: OrthogonalRepresentation, rng: random.Random,
                            max_classes: int = 2, max_coeff: int = 2) -> BurnsideElement:
    """A nonzero element supported on occupied classes of the representation."""
    group = rep.group
    entries = occupied_classes(rep)
    count = rng.randint(1, min(max_classes, len(entries)))
    picked = rng.sample(range(len(entries)), count)
    coeffs = [0] * len(subgroup_classes(group))
    for k in picked:
        entry = entries[k]
        if entry.dim_fixed == 0:
            coeffs[entry.class_index] = 1
        else:
            c = rng.randint(1, max_coeff)
            coeffs[entry.class_index] = c if rng.random() < 0.5 else -c
    return BurnsideElement(group, tuple(coeffs))


def _mutate_piece(piece: StandardPiece, rng: random.Random) -> StandardPiece:
    d = len(piece.local.matrix)  # a realized piece carries a d x d signed unit block
    if d == 0:
        return piece
    roll = rng.random()
    if roll < 0.15:
        index = rng.choice([-3, -2, -1, 1, 2, 3])
        local = DeclaredLocalMap(index)
    elif roll < 0.65:
        matrix, index = _signed_block(rng, d)
        local = LinearLocalMap(matrix)
    else:
        return piece
    # same base point, and a d x d nonsingular block or a declared index at
    # d > 0 passes every local-map check, so the validated piece carries over
    # with the new local map's index
    return replace(piece, local=local, index=index)


def random_polystandard_map(rep: OrthogonalRepresentation,
                            rng: random.Random) -> PolystandardMap:
    """Realize a random feasible element, then vary the local indices.

    Mutation swaps some signed unit blocks for declared indices or for
    `_signed_block` draws, whose known sign is the piece's index; base points
    and radii stay put, so the map remains valid while the per-orbit indices
    get interesting.
    """
    f = realize_element(RealizationTarget(random_feasible_element(rep, rng), rep))
    return PolystandardMap(rep, tuple(_mutate_piece(p, rng) for p in f.pieces))
