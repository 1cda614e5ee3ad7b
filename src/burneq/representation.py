"""Orthogonal representations of finite groups over exact rationals.

All representation algebra is exact and runs on integers: rho(g) = A_g / D
with A_g kept as sparse rows of (column, coefficient) pairs and D common to
the group. A monomial (signed-permutation) row has one pair, so applying it
is an index shuffle; a dense rational row is the same code with more pairs.
`integer_orbit` clears a point's denominators once, x = X / s, and one pass
of integer images A_g X gives its isotropy and its orbit, integer points
over the scale D * s; `isotropy` and `orbit` are views of it. `direct_sum`
stacks the rows of two validated blocks over one denominator. The exact
Fraction matrices (`matrices`, used by `apply`) are derived on first use;
tests check the integer kernel against them. Floats never enter here.
Fixed-space dimensions come from characters: dim V^H is the mean trace of
the subgroup's matrices, read off the diagonals of the integer rows, so the
orbit-type table builds no basis; a basis of V^H, when one is needed, is
the kernel of one fraction-free elimination.
Witnesses come from the one integer ladder of `witness_points`, which
hands back each pick's orbit from its image pass.
Representations that need irrational matrices must be fed in through a
rational orthogonal form; embedding in a permutation representation always
works.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import linalg
from .errors import (
    DimensionMismatch,
    EmptyOrbitTypeStratum,
    GroupMismatch,
    NotAHomomorphism,
    NotOrthogonal,
)
from .group import (
    FiniteGroup,
    Perm,
    Subgroup,
    all_subgroups,
    class_index_of,
    class_labels,
    class_leq,
    subgroup_classes,
)
from .linalg import IntOrbit, IntVector, Matrix, Vector

# sparse integer rows: (column, coefficient) pairs, columns ascending and
# coefficients nonzero, so equal matrices have equal rows
IntMatrix = tuple[tuple[tuple[int, int], ...], ...]


class OrthogonalRepresentation:
    """One exact-rational orthogonal matrix per group element, rows[g] / denom.

    Construct through `build_representation`; immutable afterwards. Derived
    data (Fraction matrices, fixed subspaces, orbit types) is cached.
    """

    def __init__(self, group: FiniteGroup, dim: int, rows: tuple[IntMatrix, ...],
                 denom: int, label: str | None = None):
        self.group = group
        self.dim = dim
        self.rows = rows
        self.denom = denom
        self.label = label
        self._fixed_cache: dict[int, FixedSubspace] = {}  # keyed by subgroup mask

    @cached_property
    def orbit_types(self) -> OrbitTypeTable:
        """Fixed-space dimension and occupancy for every subgroup class.

        dim V^H = sum_h tr A_h / (|H| D), the multiplicity of the trivial
        character (Serre, Linear Representations of Finite Groups, 1977,
        section 2), from one pass over the diagonals; no basis is built.
        Class i is empty iff some class j != i with class_leq(i, j) fixes a
        space of the same dimension, as a finite union of proper subspaces
        cannot cover a rational space."""
        traces = [sum(c for i, row in enumerate(rows) for j, c in row if j == i)
                  for rows in self.rows]
        classes = subgroup_classes(self.group)
        dims = [sum(traces[h] for h in c.representative.element_set)
                // (c.representative.order * self.denom) for c in classes]
        return OrbitTypeTable(entries=tuple(
            OrbitTypeEntry(i, d, not any(j != i and dims[j] == d and class_leq(ci, cj)
                                         for j, cj in enumerate(classes)))
            for i, (ci, d) in enumerate(zip(classes, dims))
        ))

    @cached_property
    def matrices(self) -> tuple[Matrix, ...]:
        """rho(g) as exact Fraction matrices, in element order."""
        return tuple(
            tuple(tuple(Fraction(row.get(j, 0), self.denom) for j in range(self.dim))
                  for row in map(dict, rows))
            for rows in self.rows
        )

    def apply(self, g: int, v: Vector) -> Vector:
        return linalg.matvec(self.matrices[g], v)

    def images(self, point: IntVector) -> list[IntVector]:
        """rows[g] X for every element g; rho(g) (X / s) is that over denom * s."""
        out = []
        for rows in self.rows:
            image = []
            for row in rows:
                acc = 0
                for j, c in row:
                    acc += c * point[j]
                image.append(acc)
            out.append(tuple(image))
        return out

    def __repr__(self) -> str:
        return f"<OrthogonalRepresentation dim={self.dim} of {self.group!r}>"


@dataclass(frozen=True)
class FixedSubspace:
    """Exact basis of the subspace fixed pointwise by a subgroup."""

    subgroup: Subgroup
    class_index: int
    basis: tuple[Vector, ...]
    dim_fixed: int


@dataclass(frozen=True)
class OrbitTypeEntry:
    class_index: int
    dim_fixed: int
    occupied: bool


@dataclass(frozen=True)
class OrbitTypeTable:
    entries: tuple[OrbitTypeEntry, ...]


# ---------------------------------------------------------------- integer kernel
# During closure a matrix is a pair (rows, d), meaning rows / d, kept canonical
# (d shares no factor with every entry) so that equal matrices are equal pairs.

def _clear(m: Matrix) -> tuple[IntMatrix, int]:
    d = lcm(*(x.denominator for row in m for x in row))
    return tuple(
        tuple((j, x.numerator * (d // x.denominator)) for j, x in enumerate(row) if x)
        for row in m
    ), d


def _product(a: tuple[IntMatrix, int], b: tuple[IntMatrix, int]) -> tuple[IntMatrix, int]:
    (ra, da), (rb, db) = a, b
    rows = []
    for row in ra:
        acc: dict[int, int] = {}
        for k, c in row:
            for j, e in rb[k]:
                acc[j] = acc.get(j, 0) + c * e
        rows.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
    d = da * db
    g = gcd(d, *(c for row in rows for _, c in row)) if d > 1 else 1
    if g > 1:
        rows = [tuple((j, c // g) for j, c in row) for row in rows]
    return tuple(rows), d // g


def _transpose(rows: IntMatrix, dim: int) -> IntMatrix:
    cols: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    for i, row in enumerate(rows):
        for j, c in row:
            cols[j].append((i, c))
    return tuple(map(tuple, cols))


def build_representation(group: FiniteGroup, generator_matrices,
                         label: str | None = None) -> OrthogonalRepresentation:
    """Extend generator matrices to the whole group and validate.

    Checks: one square rational matrix per generator, all orthogonal
    exactly, and rho(y g) = rho(y) rho(g) for every element y and generator
    g. The closure defines rho(y g) as rho(y) rho(g) along each of its
    construction edges (y, g), so those |G| - 1 products are not recomputed;
    every other pair is. Together with rho(e) = I the generator-sided
    identity forces the full homomorphism property by induction on word
    length: rho(w g) = rho(w) rho(g) for every word w and generator g.
    """
    gens = [linalg.mat(m) for m in generator_matrices]
    if len(gens) != len(group.generator_perms):
        raise DimensionMismatch(
            f"{len(gens)} matrices for {len(group.generator_perms)} generators"
        )
    if not gens:
        raise DimensionMismatch("no generator matrices")
    dim = len(gens[0])
    identity = (tuple(((i, 1),) for i in range(dim)), 1)
    int_gens = []
    for m in gens:
        if len(m) != dim or any(len(row) != dim for row in m):
            raise DimensionMismatch("generator matrices must be square and equal-sized")
        rows, d = _clear(m)
        if _product((_transpose(rows, dim), d), (rows, d)) != identity:
            raise NotOrthogonal("generator matrix is not orthogonal")
        int_gens.append((rows, d))

    elements = [identity] * group.order
    for idx in range(1, group.order):
        parent, gi = group.construction[idx]
        elements[idx] = _product(elements[parent], int_gens[gi])

    mult, construction = group.mult_table, group.construction
    for y in range(group.order):
        for gi, ge in enumerate(group.generator_indices):
            yg = mult[y][ge]
            if construction[yg] != (y, gi) and elements[yg] != _product(elements[y], int_gens[gi]):
                raise NotAHomomorphism(
                    f"matrices violate the relation at element {y}, generator {gi}"
                )
    denom = lcm(*(d for _, d in elements))
    rows = tuple(
        tuple(tuple((j, c * (denom // d)) for j, c in row) for row in a)
        for a, d in elements
    )
    return OrthogonalRepresentation(group, dim, rows, denom, label=label)


def _perm_matrix(perm: Perm) -> Matrix:
    n = len(perm)
    return tuple(
        tuple(Fraction(1 if i == perm[j] else 0) for j in range(n)) for i in range(n)
    )


def permutation_representation(group: FiniteGroup) -> OrthogonalRepresentation:
    """The defining permutation action as 0/1 orthogonal matrices."""
    return build_representation(
        group, [_perm_matrix(p) for p in group.generator_perms], label="permutation"
    )


def regular_representation(group: FiniteGroup) -> OrthogonalRepresentation:
    """The group permuting itself by left translation."""
    perms = [
        tuple(group.mult_table[ge][x] for x in range(group.order))
        for ge in group.generator_indices
    ]
    return build_representation(group, [_perm_matrix(p) for p in perms], label="regular")


def trivial_representation(group: FiniteGroup, dim: int = 1) -> OrthogonalRepresentation:
    return build_representation(
        group, [linalg.identity(dim) for _ in group.generator_perms], label="trivial"
    )


def direct_sum(a: OrthogonalRepresentation,
               b: OrthogonalRepresentation) -> OrthogonalRepresentation:
    """Block-diagonal sum of two representations of the same group."""
    if a.group is not b.group:
        raise GroupMismatch("representations of different groups")
    denom = lcm(a.denom, b.denom)
    sa, sb = denom // a.denom, denom // b.denom
    rows = tuple(
        tuple(tuple((j, c * sa) for j, c in row) for row in ra)
        + tuple(tuple((a.dim + j, c * sb) for j, c in row) for row in rb)
        for ra, rb in zip(a.rows, b.rows)
    )
    return OrthogonalRepresentation(a.group, a.dim + b.dim, rows, denom)


# ---------------------------------------------------------------- fixed spaces

def fixed_subspace(rep: OrthogonalRepresentation, subgroup: Subgroup) -> FixedSubspace:
    """Exact kernel of P - I, P = sum_h A_h / (|H| D) averaging the subgroup
    matrices, taken fraction-free as the kernel of sum_h A_h - |H| D I."""
    cached = rep._fixed_cache.get(subgroup.mask)
    if cached is not None:
        return cached
    class_index = class_index_of(rep.group, subgroup)
    n, scale = rep.dim, subgroup.order * rep.denom
    total = [[-scale if i == j else 0 for j in range(n)] for i in range(n)]
    for h in subgroup.element_set:
        for acc, row in zip(total, rep.rows[h]):
            for j, c in row:
                acc[j] += c
    basis = tuple(linalg.kernel_basis(total))
    result = FixedSubspace(
        subgroup=subgroup,
        class_index=class_index,
        basis=basis,
        dim_fixed=len(basis),
    )
    rep._fixed_cache[subgroup.mask] = result
    return result


def integer_orbit(rep: OrthogonalRepresentation, point) -> tuple[Subgroup, IntOrbit]:
    """Stabilizer and orbit of x = X / s from one pass: the g with A_g X = A_e X,
    and the distinct images, A_e X = D X first, as integer points over D * s."""
    x = linalg.vec(point)
    if len(x) != rep.dim:
        raise DimensionMismatch(f"point has {len(x)} coordinates, expected {rep.dim}")
    s = lcm(*(c.denominator for c in x))
    images = rep.images(tuple(c.numerator * (s // c.denominator) for c in x))
    fixed = images[0]
    return (Subgroup.of(g for g, image in enumerate(images) if image == fixed),
            (tuple(dict.fromkeys(images)), rep.denom * s))


def isotropy(rep: OrthogonalRepresentation, point) -> Subgroup:
    """Exact stabilizer of a point."""
    return integer_orbit(rep, point)[0]


def orbit(rep: OrthogonalRepresentation, point) -> tuple[Vector, ...]:
    """The orbit of a point, deduplicated exactly, in first-seen order (x first)."""
    points, scale = integer_orbit(rep, point)[1]
    return tuple(tuple(Fraction(v, scale) for v in image) for image in points)


def witness_points(rep: OrthogonalRepresentation, subgroup: Subgroup,
                   count: int = 1) -> list[Vector]:
    """`count` points with stabilizer exactly the subgroup, on distinct orbits.

    Candidates x_t = sum_k t^(k+1) b_k over the basis of V^H are walked for
    t = 1, 2, ..., skipping any point with a larger stabilizer or on the
    orbit of an earlier pick. A proper subspace of V^H holds fewer than
    d = dim V^H ladder points and distinct t give distinct points, so on a
    nonempty stratum d * (#subgroups + count * |G|) steps suffice. The walk
    runs on integers, the basis cleared over one scale once; see
    `_witness_orbits`.
    """
    return [x for x, _ in _witness_orbits(rep, subgroup, count)]


def _witness_orbits(rep: OrthogonalRepresentation, subgroup: Subgroup,
                    count: int) -> list[tuple[Vector, IntOrbit]]:
    """The ladder of `witness_points`, each pick with its orbit as
    `integer_orbit` gives it.

    With the basis cleared once, b_k = B_k / s, a candidate is the integer
    point X_t = sum_k t^(k+1) B_k over s. Divided by the gcd of s and X_t,
    its scale is the lcm of x_t's denominators, and one image pass on it
    gives its stabilizer, which contains H as x_t lies in V^H, and for a
    pick its orbit. The orbits of earlier picks are kept as integer
    points over D * s, so a candidate on one is a set lookup on D * X_t.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    fs = fixed_subspace(rep, subgroup)
    d = fs.dim_fixed
    group = rep.group
    label = class_labels(group)[fs.class_index]
    if not rep.orbit_types.entries[fs.class_index].occupied:
        raise EmptyOrbitTypeStratum(
            f"no point has isotropy exactly ({label}): its fixed space is "
            f"covered by a larger subgroup"
        )
    n, denom = rep.dim, rep.denom
    if d == 0:
        # only reachable for the whole group; everything smaller was caught above
        if count > 1:
            raise ValueError(f"the origin is the only orbit with isotropy ({label})")
        return [(tuple(Fraction(0) for _ in range(n)), ((tuple(0 for _ in range(n)),), denom))]
    s = lcm(*(c.denominator for b in fs.basis for c in b))
    basis = [[(j, c.numerator * (s // c.denominator)) for j, c in enumerate(b) if c]
             for b in fs.basis]
    picks: list[tuple[Vector, IntOrbit]] = []
    taken: set[IntVector] = set()
    for t in range(1, d * (len(all_subgroups(group)) + count * group.order) + 1):
        point = [0] * n
        for k, b in enumerate(basis):
            p = t ** (k + 1)
            for j, c in b:
                point[j] += p * c
        if tuple(denom * v for v in point) in taken:
            continue
        common = gcd(s, *point)
        reduced, scale = tuple(v // common for v in point), s // common
        images = rep.images(reduced)
        if images.count(images[0]) != subgroup.order:
            continue
        points = tuple(dict.fromkeys(images))
        picks.append((tuple(Fraction(v, scale) for v in reduced), (points, denom * scale)))
        if len(picks) == count:
            return picks
        taken.update(tuple(common * v for v in image) for image in points)
    raise AssertionError("witness ladder exhausted on a nonempty stratum")


def point_with_exact_isotropy(rep: OrthogonalRepresentation,
                              subgroup: Subgroup) -> Vector:
    """A rational point whose stabilizer is exactly the given subgroup."""
    return witness_points(rep, subgroup)[0]


def orbit_types(rep: OrthogonalRepresentation) -> OrbitTypeTable:
    """Fixed-space dimension and occupancy for every subgroup class."""
    return rep.orbit_types


def occupied_classes(rep: OrthogonalRepresentation) -> tuple[OrbitTypeEntry, ...]:
    """The occupied rows of the orbit-type table."""
    return tuple(e for e in rep.orbit_types.entries if e.occupied)
