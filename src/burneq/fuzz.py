"""Seeded random generation of feasible targets and polystandard maps.

Backs the CLI self-check and the verification suite. Everything is driven
by a caller-supplied random.Random so runs are reproducible for a fixed
seed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from . import linalg
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


def random_nonsingular_matrix(rng: random.Random, dim: int, bound: int = 3) -> Matrix:
    """A random integer matrix with nonzero exact determinant."""
    return _nonsingular_block(rng, dim, bound)[0]


def _nonsingular_block(rng: random.Random, dim: int, bound: int = 3) -> tuple[Matrix, Fraction]:
    """A random nonsingular integer matrix and its determinant, one elimination per draw."""
    for _ in range(200):
        rows = tuple(
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim))
            for _ in range(dim)
        )
        det = linalg.det(rows)
        if det != 0:
            return rows, det
    raise AssertionError("could not sample a nonsingular matrix")


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


def _mutate_piece(rep: OrthogonalRepresentation, piece: StandardPiece,
                  rng: random.Random) -> StandardPiece:
    d = rep.orbit_types.entries[rep.group.class_of[piece.isotropy.mask]].dim_fixed
    if d == 0:
        return piece
    roll = rng.random()
    if roll < 0.15:
        index = rng.choice([-3, -2, -1, 1, 2, 3])
        local = DeclaredLocalMap(index)
    elif roll < 0.65:
        matrix, det = _nonsingular_block(rng, d)
        local = LinearLocalMap(matrix)
        index = 1 if det > 0 else -1
    else:
        return piece
    # same base point, and a d x d nonsingular block or a declared index at
    # d > 0 passes every local-map check, so the validated piece carries over
    # with the new local map's index
    return replace(piece, local=local, index=index)


def random_polystandard_map(rep: OrthogonalRepresentation, rng: random.Random,
                            mutate: bool = True) -> PolystandardMap:
    """Realize a random feasible element, then vary the local indices.

    Mutation swaps some signed unit blocks for random nonsingular integer
    blocks or declared indices; base points and radii stay put, so the map
    remains valid while the per-orbit indices get interesting.
    """
    target = random_feasible_element(rep, rng)
    f = realize_element(RealizationTarget(element=target, rep=rep))
    if not mutate:
        return f
    pieces = tuple(_mutate_piece(rep, p, rng) for p in f.pieces)
    return PolystandardMap(rep, pieces, known_spacing2=f.known_spacing2)  # orbits unchanged
