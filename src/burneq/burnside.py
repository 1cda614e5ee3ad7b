"""Exact arithmetic in the Burnside ring of a finite group.

An element is an integer coefficient vector over the canonical subgroup-class
order of its group. Multiplication runs through the table of marks: mark
vectors multiply pointwise and the coefficients come back by peeling: from
the top class down, the residual entry at class j is divided exactly by the
diagonal mark (the Weyl group order) and row j times that coefficient is
subtracted from the residual. The marks are lower triangular, so once the
classes above j are peeled off, the residual at j is c_j times the diagonal
mark alone: the integer division is exact for a mark vector, and a nonzero
remainder means the vector is not one. Zero residuals are skipped, and a
peeled row subtracts only its nonzero marks below the diagonal
(`FiniteGroup.mark_rows`). Mark row i vanishes above class i, so an
element's marks vanish above its top nonzero class: each element builds its
mark prefix through that class once (`BurnsideElement.mark_prefix`), and a
product multiplies the two prefixes up to the lower top and peels only that.
`decompose_gset` is the independent brute-force route (orbit counting plus
stabilizers) used to cross-check that engine.

Mark convention: marks[i][j] = |(G/H_i)^{H_j}|, the number of cosets of the
class-i representative fixed by the class-j representative. With classes in
canonical order the matrix is lower triangular with the Weyl group orders on
the diagonal. The marks are counted from class members and cached on the
group (`FiniteGroup.marks`); the coset G-sets below never enter them, so
they stay an independent check.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import DescriptorError, GroupMismatch, InvalidAction, NonIntegralSolution
from .group import (
    FiniteGroup,
    Subgroup,
    SubgroupClass,
    class_index_of,
    class_labels,
    left_cosets,
    subgroup_classes,
)


@dataclass(frozen=True)
class BurnsideElement:
    """Ring element: one integer per subgroup class, canonical order."""

    group: FiniteGroup
    coeffs: tuple[int, ...]

    def __post_init__(self):
        expected = len(self.group.classes)
        if len(self.coeffs) != expected:
            raise ValueError(
                f"coefficient vector has {len(self.coeffs)} entries, expected {expected}"
            )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @cached_property
    def mark_prefix(self) -> tuple[int, ...]:
        """The mark vector up to the top nonzero class, above which it is 0,
        as mark row i vanishes above class i. Empty for zero. Built on first
        use and kept; it takes no part in equality or hashing."""
        support = [(i, c) for i, c in enumerate(self.coeffs) if c]
        if not support:
            return ()
        marks = self.group.marks
        (top, c), *rest = reversed(support)
        vec = [c * r for r in marks[top][:top + 1]]
        for i, c in rest:
            vec = [v + c * r for v, r in zip(vec, marks[i])]
        return tuple(vec)

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        return add(self, other)

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return add(self, -other)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.group, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, BurnsideElement):
            return mul(self, other)
        if isinstance(other, int):
            return BurnsideElement(self.group, tuple(other * c for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_element(self)


def zero_element(group: FiniteGroup) -> BurnsideElement:
    return BurnsideElement(group, tuple(0 for _ in subgroup_classes(group)))


def basis_element(group: FiniteGroup, class_index: int) -> BurnsideElement:
    """The class [G/H] of the given subgroup class."""
    n = len(subgroup_classes(group))
    return BurnsideElement(group, tuple(1 if i == class_index else 0 for i in range(n)))


def unit_element(group: FiniteGroup) -> BurnsideElement:
    """The ring unit [G/G]; the whole group is always the last class."""
    return basis_element(group, len(subgroup_classes(group)) - 1)


@dataclass(frozen=True)
class TableOfMarks:
    group: FiniteGroup
    marks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FiniteGSet:
    """A finite G-set as an explicit action table: action[g][x] is g.x."""

    group: FiniteGroup
    size: int
    action: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------- G-sets

def coset_gset(group: FiniteGroup, subgroup: Subgroup) -> FiniteGSet:
    """G acting on the left cosets of a subgroup, in `left_cosets` order:
    by their least elements, so the point order is deterministic."""
    coset_of = left_cosets(group, subgroup)
    reps: list[int] = []
    for g, i in enumerate(coset_of):
        if i == len(reps):  # g is the least element of coset i
            reps.append(g)
    action = tuple(tuple(coset_of[row[r]] for r in reps) for row in group.mult_table)
    return FiniteGSet(group=group, size=len(reps), action=action)


def product_gset(a: SubgroupClass, b: SubgroupClass) -> FiniteGSet:
    """Cartesian product of G/H and G/K with the diagonal action."""
    if a.group is not b.group:
        raise GroupMismatch("classes from different groups")
    group = a.group
    xa = coset_gset(group, a.representative)
    xb = coset_gset(group, b.representative)
    size = xa.size * xb.size
    action = tuple(
        tuple(
            xa.action[g][p // xb.size] * xb.size + xb.action[g][p % xb.size]
            for p in range(size)
        )
        for g in range(group.order)
    )
    return FiniteGSet(group=group, size=size, action=action)


def _validate_action(x: FiniteGSet) -> None:
    """Check that the table is an action: one permutation row per element,
    the identity acting trivially, and rho(y g) = rho(y) rho(g) for every
    element y and generator g. Every element is a word in the generators, so
    with rho(e) = id the generator-sided check gives rho(g_1 ... g_k) =
    rho(g_1) ... rho(g_k) by induction on k, and hence rho(a b) = rho(a)
    rho(b) for all a and b, as in `build_representation`."""
    group = x.group
    if len(x.action) != group.order:
        raise InvalidAction("action table must have one row per group element")
    for row in x.action:
        if len(row) != x.size or sorted(row) != list(range(x.size)):
            raise InvalidAction("each row must permute the points")
    if x.action[0] != tuple(range(x.size)):
        raise InvalidAction("identity must act trivially")
    mult = group.mult_table
    for y, ry in enumerate(x.action):
        for g in group.generator_indices:
            rg = x.action[g]
            ryg = x.action[mult[y][g]]
            if any(ryg[p] != ry[rg[p]] for p in range(x.size)):
                raise InvalidAction("action is not a homomorphism")


def decompose_gset(x: FiniteGSet) -> BurnsideElement:
    """Orbit decomposition: the brute-force oracle for ring multiplication."""
    _validate_action(x)
    group = x.group
    coeffs = [0] * len(subgroup_classes(group))
    seen = [False] * x.size
    for p in range(x.size):
        if seen[p]:
            continue
        images = [row[p] for row in x.action]
        for q in images:
            seen[q] = True
        coeffs[class_index_of(group, Subgroup.of(g for g, q in enumerate(images) if q == p))] += 1
    return BurnsideElement(group, tuple(coeffs))


# ---------------------------------------------------------------- marks

def table_of_marks(group: FiniteGroup) -> TableOfMarks:
    return TableOfMarks(group=group, marks=group.marks)


def mark_vector(x: BurnsideElement) -> tuple[int, ...]:
    """Image of x under the mark homomorphism, one integer per class."""
    return x.mark_prefix + (0,) * (len(x.coeffs) - len(x.mark_prefix))


def _coeffs_from_marks(group: FiniteGroup, mk: Sequence[int]) -> tuple[int, ...]:
    """Peel class rows off a mark vector, or a prefix of one that vanishes
    beyond it, from its top entry down.

    The residual entry at class j is mk[j] minus the marks at j of every
    class above j times its coefficient; peeling class j then lowers the
    entries below j where row j has a nonzero mark.
    """
    marks, rows = group.marks, group.mark_rows
    residual = list(mk)
    coeffs = [0] * len(marks)
    for j in range(len(residual) - 1, -1, -1):
        s = residual[j]
        if s:
            q, r = divmod(s, marks[j][j])
            if r != 0:
                raise NonIntegralSolution(
                    f"mark vector is not in the image of the mark homomorphism at class {j}"
                )
            coeffs[j] = q
            for k, m in rows[j]:
                residual[k] -= q * m
    return tuple(coeffs)


def add(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    if a.group is not b.group:
        raise GroupMismatch("elements of different Burnside rings")
    return BurnsideElement(a.group, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def mul(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Ring product via marks: pointwise product, then exact peeling solve.

    The product's marks vanish above the lower of the two factors' top
    classes, where the zip of their mark prefixes stops; a zero factor has
    an empty prefix and the empty peel gives zero.
    """
    if a.group is not b.group:
        raise GroupMismatch("elements of different Burnside rings")
    mk = [x * y for x, y in zip(a.mark_prefix, b.mark_prefix)]
    return BurnsideElement(a.group, _coeffs_from_marks(a.group, mk))


# ---------------------------------------------------------------- text and CSV forms

def format_element(x: BurnsideElement) -> str:
    """Text form like "2*[G/e] + 1*[G/(1 2)]"; the zero element is "0"."""
    labels = class_labels(x.group)
    terms = [(c, label) for c, label in zip(x.coeffs, labels) if c != 0]
    if not terms:
        return "0"
    pieces: list[str] = []
    for k, (c, label) in enumerate(terms):
        term = f"{abs(c)}*[G/{label}]"
        if k == 0:
            pieces.append(("-" if c < 0 else "") + term)
        else:
            pieces.append((" - " if c < 0 else " + ") + term)
    return "".join(pieces)


def parse_element(group: FiniteGroup, text: str) -> BurnsideElement:
    """Parse the text form; accepts a bare "[G/label]" as coefficient 1."""
    labels = class_labels(group)
    label_index = {label: i for i, label in enumerate(labels)}
    coeffs = [0] * len(labels)
    s = text.strip()
    if not s:
        raise DescriptorError("empty element; the zero element is written 0")
    if s == "0":
        return BurnsideElement(group, tuple(coeffs))
    i = 0
    first = True
    while i < len(s):
        while i < len(s) and s[i] == " ":
            i += 1
        sign = 1
        if s[i] in "+-":
            if first and s[i] == "+":
                raise DescriptorError(f"unexpected '+' at start of element: {text!r}")
            sign = -1 if s[i] == "-" else 1
            i += 1
        elif not first:
            raise DescriptorError(f"expected '+' or '-' at position {i} in {text!r}")
        while i < len(s) and s[i] == " ":
            i += 1
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        coeff = 1
        if j > i:
            try:
                coeff = int(s[i:j])
            except ValueError as exc:  # a digit int() refuses, or beyond its digit limit
                raise DescriptorError(f"bad coefficient at position {i}: {exc}") from exc
            i = j
            if i >= len(s) or s[i] != "*":
                raise DescriptorError(f"expected '*' after coefficient in {text!r}")
            i += 1
        if not s.startswith("[G/", i):
            raise DescriptorError(f"expected '[G/' at position {i} in {text!r}")
        i += 3
        end = s.find("]", i)
        if end == -1:
            raise DescriptorError(f"unterminated class label in {text!r}")
        label = s[i:end].strip()
        if label not in label_index:
            known = ", ".join(labels)
            raise DescriptorError(f"unknown class label {label!r}; known labels: {known}")
        coeffs[label_index[label]] += sign * coeff
        i = end + 1
        first = False
    return BurnsideElement(group, tuple(coeffs))


def marks_csv(tom: TableOfMarks) -> str:
    """Table of marks as CSV with class labels as row and column headers."""
    labels = class_labels(tom.group)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["class", *labels])
    for label, row in zip(labels, tom.marks):
        writer.writerow([label, *row])
    return out.getvalue()
