"""Orthogonal representations of finite groups over exact rationals.

A representation has one of two storages, chosen from its input, and each
operation has one route per storage; nothing selects them otherwise.

- Signed permutation: every rho(g) is an orthogonal monomial matrix,
  stored as a coordinate shuffle, (rho(g) x)_i = signs[g][i] *
  x[sources[g][i]], with denom 1. Closure composes shuffles, an image is
  a shuffle of the point, a trace is a signed count of fixed coordinates,
  and a basis of V^H is read off the H-orbits of signed coordinates. The
  permutation and regular representations are built straight from the
  group's tables.
- Dense: rho(g) = A_g / D with A_g kept as sparse integer rows of (column,
  coefficient) pairs and D common to the group, closed by sparse products;
  a basis of V^H is the kernel of one fraction-free elimination.

Both storages expose the integer rows (`rows`, derived on first use for a
shuffle) and the exact Fraction matrices (`matrices`, used by `apply`);
tests check the integer routes against them. `integer_orbit` clears a
point's denominators once, x = X / s, and one pass of integer images A_g X
gives its isotropy and its orbit, integer points over the scale D * s;
`isotropy` and `orbit` are views of it. `direct_sum` concatenates two
shuffles, or stacks the rows of two blocks over one denominator. Floats
never enter here.
Fixed-space dimensions come from characters: dim V^H is the mean trace of
the subgroup's matrices, so the orbit-type table builds no basis.
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
from operator import mul
from typing import Sequence

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
    Subgroup,
    class_index_of,
    class_labels,
    class_leq,
    left_cosets,
    subgroup_classes,
)
from .linalg import IntOrbit, IntVector, Matrix, Vector

# sparse integer rows: (column, coefficient) pairs, columns ascending and
# coefficients nonzero, so equal matrices have equal rows
IntMatrix = tuple[tuple[tuple[int, int], ...], ...]


# one coordinate shuffle: (sources, signs), (rho x)_i = signs[i] * x[sources[i]]
Shuffle = tuple[tuple[int, ...], tuple[int, ...]]

_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


class OrthogonalRepresentation:
    """One exact-rational orthogonal matrix per group element, in one of two
    storages:

    - signed permutation: `sources[g]` and `signs[g]`, with (rho(g) x)_i =
      signs[g][i] * x[sources[g][i]] and denom 1; `rows` is derived from
      them on first use;
    - dense: `rows[g] / denom`, sparse integer rows over one denominator;
      `sources` and `signs` are None.

    Construct through `build_representation`, which picks the storage from
    its input, or the constructors below; immutable afterwards. Images,
    traces and fixed-space bases take one route per storage. Derived data
    (Fraction matrices, fixed subspaces, orbit types) is cached.
    """

    def __init__(self, group: FiniteGroup, dim: int, rows: tuple[IntMatrix, ...] | None = None,
                 denom: int = 1, label: str | None = None,
                 sources: tuple[tuple[int, ...], ...] | None = None,
                 signs: tuple[tuple[int, ...], ...] | None = None):
        self.group = group
        self.dim = dim
        if rows is not None:
            self.rows = rows  # dense; a shuffled representation derives them
        self.denom = denom
        self.label = label
        self.sources = sources
        self.signs = signs
        self._fixed_cache: dict[int, FixedSubspace] = {}  # keyed by subgroup mask

    @cached_property
    def rows(self) -> tuple[IntMatrix, ...]:
        """The integer rows of the shuffles, one (column, sign) pair each."""
        return tuple(tuple(((j, s),) for j, s in zip(src, sgn))
                     for src, sgn in zip(self.sources, self.signs))

    @cached_property
    def orbit_types(self) -> OrbitTypeTable:
        """Fixed-space dimension and occupancy for every subgroup class.

        dim V^H = sum_h tr A_h / (|H| D), the multiplicity of the trivial
        character (Serre, Linear Representations of Finite Groups, 1977,
        section 2), from one pass over the traces: the signed count of the
        coordinates a shuffle keeps in place, or the diagonals of the
        integer rows; no basis is built. Class i is empty iff some class
        j != i with class_leq(i, j) fixes a space of the same dimension, as
        a finite union of proper subspaces cannot cover a rational space."""
        if self.sources is not None:
            coords = range(self.dim)
            traces = [sum(s for i, j, s in zip(coords, src, sgn) if i == j)
                      for src, sgn in zip(self.sources, self.signs)]
        else:
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

    def images(self, point: IntVector, elements: Sequence[int] | None = None
               ) -> list[IntVector]:
        """rows[g] X for each g of `elements`, in that order, or for every
        element; rho(g) (X / s) is that over denom * s."""
        if self.sources is not None:
            sources, signs = self.sources, self.signs
            shuffles = (zip(sources, signs) if elements is None
                        else ((sources[g], signs[g]) for g in elements))
            return [tuple(map(mul, sgn, map(point.__getitem__, src))) for src, sgn in shuffles]
        out = []
        for rows in (self.rows if elements is None else [self.rows[g] for g in elements]):
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


# ---------------------------------------------------------------- closure
# During dense closure a matrix is a pair (rows, d), meaning rows / d, kept
# canonical (d shares no factor with every entry) so that equal matrices are
# equal pairs.

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


def _signed_permutation(m: Matrix, dim: int) -> Shuffle | None:
    """The shuffle of m when m is dim x dim with one nonzero entry, +-1, in
    each row and distinct columns, which is exactly an orthogonal monomial
    matrix; None otherwise."""
    if len(m) != dim:
        return None
    sources, signs = [], []
    for row in m:
        entries = [(j, x) for j, x in enumerate(row) if x]
        if len(row) != dim or len(entries) != 1 or entries[0][1] not in (1, -1):
            return None
        sources.append(entries[0][0])
        signs.append(int(entries[0][1]))
    if len(set(sources)) != dim:
        return None
    return tuple(sources), tuple(signs)


def _compose(a: Shuffle, b: Shuffle) -> Shuffle:
    """rho(a) rho(b): sources_ab[i] = sources_b[sources_a[i]] and
    signs_ab[i] = signs_a[i] * signs_b[sources_a[i]]."""
    (sa, ga), (sb, gb) = a, b
    return tuple(map(sb.__getitem__, sa)), tuple(map(mul, ga, map(gb.__getitem__, sa)))


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

    When every generator is a signed permutation, which is orthogonal by
    its shape, the closure composes shuffles and the representation keeps
    them; any other input is closed and kept densely.
    """
    gens = [linalg.mat(m) for m in generator_matrices]
    if len(gens) != len(group.generator_perms):
        raise DimensionMismatch(
            f"{len(gens)} matrices for {len(group.generator_perms)} generators"
        )
    if not gens:
        raise DimensionMismatch("no generator matrices")
    dim = len(gens[0])
    shuffles = [_signed_permutation(m, dim) for m in gens]
    if None not in shuffles:
        identity = (tuple(range(dim)), (1,) * dim)
        sources, signs = zip(*_close(group, shuffles, identity, _compose))
        return _shuffled(group, sources, signs, label)

    identity = (tuple(((i, 1),) for i in range(dim)), 1)
    int_gens = []
    for m in gens:
        if len(m) != dim or any(len(row) != dim for row in m):
            raise DimensionMismatch("generator matrices must be square and equal-sized")
        rows, d = _clear(m)
        if _product((_transpose(rows, dim), d), (rows, d)) != identity:
            raise NotOrthogonal("generator matrix is not orthogonal")
        int_gens.append((rows, d))
    elements = _close(group, int_gens, identity, _product)
    denom = lcm(*(d for _, d in elements))
    rows = tuple(
        tuple(tuple((j, c * (denom // d)) for j, c in row) for row in a)
        for a, d in elements
    )
    return OrthogonalRepresentation(group, dim, rows, denom, label=label)


def _close(group: FiniteGroup, gens: list, identity, compose) -> list:
    """Every element's matrix, composed along the closure's construction
    edges, then checked against the generator-sided relations off them."""
    elements = [identity] * group.order
    for idx in range(1, group.order):
        parent, gi = group.construction[idx]
        elements[idx] = compose(elements[parent], gens[gi])

    mult, construction = group.mult_table, group.construction
    for y in range(group.order):
        for gi, ge in enumerate(group.generator_indices):
            yg = mult[y][ge]
            if construction[yg] != (y, gi) and elements[yg] != compose(elements[y], gens[gi]):
                raise NotAHomomorphism(
                    f"matrices violate the relation at element {y}, generator {gi}"
                )
    return elements


def _shuffled(group: FiniteGroup, sources, signs, label: str | None = None
              ) -> OrthogonalRepresentation:
    return OrthogonalRepresentation(group, len(sources[0]), label=label,
                                    sources=sources, signs=signs)


def permutation_representation(group: FiniteGroup) -> OrthogonalRepresentation:
    """The defining permutation action, rho(g) e_j = e_perm_g(j): coordinate
    i of rho(g) x is x[perm_g^-1(i)], and perm_g^-1 = perm_(g^-1)."""
    perms, inv = group.element_perms, group.inverse
    ones = (1,) * group.points
    return _shuffled(group, tuple(perms[inv[g]] for g in range(group.order)),
                     (ones,) * group.order, "permutation")


def regular_representation(group: FiniteGroup) -> OrthogonalRepresentation:
    """The group permuting itself by left translation, rho(g) e_x = e_gx:
    coordinate x of rho(g) v is v[g^-1 x], row g^-1 of the table."""
    mult, inv = group.mult_table, group.inverse
    ones = (1,) * group.order
    return _shuffled(group, tuple(mult[inv[g]] for g in range(group.order)),
                     (ones,) * group.order, "regular")


def trivial_representation(group: FiniteGroup, dim: int = 1) -> OrthogonalRepresentation:
    return build_representation(
        group, [linalg.identity(dim) for _ in group.generator_perms], label="trivial"
    )


def direct_sum(a: OrthogonalRepresentation,
               b: OrthogonalRepresentation) -> OrthogonalRepresentation:
    """Block-diagonal sum of two representations of the same group: the
    shuffles concatenated, the second shifted past the first, when both are
    signed permutations; the integer rows stacked otherwise."""
    if a.group is not b.group:
        raise GroupMismatch("representations of different groups")
    if a.sources is not None and b.sources is not None:
        n = a.dim
        return _shuffled(
            a.group,
            tuple(sa + tuple(j + n for j in sb) for sa, sb in zip(a.sources, b.sources)),
            tuple(ga + gb for ga, gb in zip(a.signs, b.signs)),
        )
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
    """A basis of V^H: the canonical `kernel_basis` of P - I, P the mean of
    the subgroup's matrices, read off coordinate orbits for a signed
    permutation representation and taken by elimination for a dense one."""
    cached = rep._fixed_cache.get(subgroup.mask)
    if cached is not None:
        return cached
    basis = (_orbit_basis if rep.sources is not None else _elimination_basis)(rep, subgroup)
    result = FixedSubspace(
        subgroup=subgroup,
        class_index=class_index_of(rep.group, subgroup),
        basis=basis,
        dim_fixed=len(basis),
    )
    rep._fixed_cache[subgroup.mask] = result
    return result


def _elimination_basis(rep: OrthogonalRepresentation, subgroup: Subgroup) -> tuple[Vector, ...]:
    """The kernel of P - I taken fraction-free as the kernel of
    sum_h A_h - |H| D I."""
    n, scale = rep.dim, subgroup.order * rep.denom
    total = [[-scale if i == j else 0 for j in range(n)] for i in range(n)]
    for h in subgroup.element_set:
        for acc, row in zip(total, rep.rows[h]):
            for j, c in row:
                acc[j] += c
    return tuple(linalg.kernel_basis(total))


def _orbit_basis(rep: OrthogonalRepresentation, subgroup: Subgroup) -> tuple[Vector, ...]:
    """V^H from the H-orbits of signed coordinates.

    rho(h^-1) e_i = signs[h][i] e_sources[h][i], so running h over H lists
    the orbit of e_i. Its sum is fixed, and zero exactly when the orbit
    meets -e_i; the other orbits' sums have disjoint supports and span V^H.
    An orbit's largest coordinate is a free column of P - I, so its sum
    signed +1 there is the `kernel_basis` vector of that column. The walk
    runs from the largest coordinate down, and the vectors come back in
    column order.
    """
    n = rep.dim
    shuffles = [(rep.sources[h], rep.signs[h]) for h in subgroup.element_set]
    covered = [False] * n
    basis = []
    for i in range(n - 1, -1, -1):
        if covered[i]:
            continue
        signed: dict[int, int] = {}  # coordinate -> sign of e_i's image there
        vanishes = False
        for src, sgn in shuffles:
            j, s = src[i], sgn[i]
            covered[j] = True
            if signed.setdefault(j, s) != s:
                vanishes = True
        if not vanishes:
            v = [_ZERO] * n
            for j, s in signed.items():
                v[j] = _ONE if s > 0 else _MINUS_ONE
            basis.append(tuple(v))
    basis.reverse()
    return tuple(basis)


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
    its scale is the lcm of x_t's denominators. x_t lies in V^H, so its
    stabilizer K contains H and is a union of left cosets g H; K = H unless
    the least element g of some other coset fixes x_t. So one image pass
    over the least element of each left coset, ascending (`left_cosets`),
    decides the candidate, |G| / |H| images in place of |G|. For a pick
    those images are distinct, and they are its orbit in first-seen element
    order, as a full pass lists it. The orbits of earlier picks are kept as
    integer points over D * s, so a candidate on one is a set lookup on D * X_t.
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
    firsts: list[int] = []  # the least element of each left coset, ascending; 0 is e
    for g, number in enumerate(left_cosets(group, subgroup)):
        if number == len(firsts):
            firsts.append(g)
    picks: list[tuple[Vector, IntOrbit]] = []
    taken: set[IntVector] = set()
    for t in range(1, d * (len(group.class_of) + count * group.order) + 1):  # a key per subgroup
        point = [0] * n
        for k, b in enumerate(basis):
            p = t ** (k + 1)
            for j, c in b:
                point[j] += p * c
        if tuple(denom * v for v in point) in taken:
            continue
        common = gcd(s, *point)
        reduced, scale = tuple(v // common for v in point), s // common
        points = rep.images(reduced, firsts)
        if points.count(points[0]) != 1:
            continue
        picks.append((tuple(Fraction(v, scale) for v in reduced), (tuple(points), denom * scale)))
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
