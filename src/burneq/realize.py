"""Construct witnesses: maps realizing a prescribed Burnside element.

Feasibility over a representation V: every class carrying a nonzero
coefficient must have a nonempty stratum of points with exactly that
isotropy, and when dim V^G = 0 the coefficient of [G/G] can only be 0 or 1
(the only candidate orbit is the origin, which admits a single unit germ).

Realization places |c| pieces on distinct orbits inside the stratum of each
class, each a signed diagonal block diag(sign c, 1, ..., 1) of local index
sign c, with radii shrunk below a quarter of the minimal spacing of all
placed orbit points.
The pieces are not re-validated: each witness point has the class
representative as its exact isotropy, the points lie on distinct orbits,
and with size^2 <= s / 32 for the spacing s of all placed points, tubes of
2 * size stay apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .burnside import BurnsideElement
from .degree import LinearLocalMap, PolystandardMap, StandardPiece
from .errors import InfeasibleCoefficient, ZeroDimNegative
from .group import Subgroup, class_labels, subgroup_classes
from .linalg import IntOrbit, Matrix, Vector
from .representation import OrthogonalRepresentation, _witness_orbits


@dataclass(frozen=True)
class RealizationTarget:
    element: BurnsideElement
    rep: OrthogonalRepresentation


def signed_linear_block(dim: int, sign: int) -> Matrix:
    """diag(sign, 1, ..., 1); the empty block only exists with sign +1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if dim == 0:
        if sign == -1:
            raise ZeroDimNegative("no 0x0 block with determinant -1 exists")
        return ()
    return tuple(
        tuple(Fraction(sign if i == 0 and j == 0 else (1 if i == j else 0))
              for j in range(dim))
        for i in range(dim)
    )


def realize_element(target: RealizationTarget) -> PolystandardMap:
    """A strictly polystandard map whose degree equals the target element."""
    rep = target.rep
    group = rep.group
    if target.element.group is not group:
        raise InfeasibleCoefficient(
            "target element and representation use different groups",
            kind="group-mismatch",
        )
    classes = subgroup_classes(group)
    labels = class_labels(group)

    placements: list[tuple[Vector, Subgroup, LinearLocalMap, int, IntOrbit]] = []
    for cls, coeff in zip(classes, target.element.coeffs):
        if coeff == 0:
            continue
        sub = cls.representative
        entry = rep.orbit_types.entries[cls.class_index]
        d = entry.dim_fixed
        if not entry.occupied:
            raise InfeasibleCoefficient(
                f"class [G/{labels[cls.class_index]}] has an empty stratum "
                f"in this representation",
                kind="empty-stratum",
                class_index=cls.class_index,
            )
        if d == 0 and coeff != 1:
            # then H = G and only the origin can carry it, one unit germ at most
            raise InfeasibleCoefficient(
                f"coefficient of [G/{labels[cls.class_index]}] must be 0 "
                "or 1 when dim V^G = 0",
                kind="unit-coefficient",
                class_index=cls.class_index,
            )
        sign = 1 if coeff > 0 else -1
        local = LinearLocalMap(signed_linear_block(d, sign))
        placements.extend((x, sub, local, sign, orb)
                          for x, orb in _witness_orbits(rep, sub, abs(coeff) if d else 1))

    spacing2 = linalg.min_orbit_spacing2([orb for *_, orb in placements])
    size = Fraction(1) if spacing2 is None else linalg.rational_sqrt_floor(spacing2 / 32)
    return PolystandardMap(rep, tuple(
        StandardPiece(x, sub, size, size, local, sign, orb)
        for x, sub, local, sign, orb in placements
    ), known_spacing2=spacing2)


__all__ = [
    "RealizationTarget",
    "realize_element",
    "signed_linear_block",
]
