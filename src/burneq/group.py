"""Finite permutation groups: closure from generators and subgroup structure.

Group elements are integers 0..order-1 with 0 the identity, numbered by the
closure of the permutation generators, which is all a constructor computes.
Everything derived from it (multiplication table, inverses, subgroup classes
as bitmask joins of class representatives with cyclic subgroups, the subgroup
list as the union of their members, labels, and marks counted from class
members) is a lazy `cached_property` on the group. A subgroup is its element
bitmask, a layout no other module reads, so set questions are int operations.

The class order is canonical and deterministic: ascending subgroup order,
ties broken by the sorted element set of the lexicographically smallest
class member. Coefficient vectors of Burnside elements index into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyGeneratorList, GroupMismatch, NotASubgroup, OrderCapExceeded

DEFAULT_ORDER_CAP = 2000

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """Composition p after q: x goes to p[q[x]]."""
    return tuple(map(p.__getitem__, q))


def _check_perm(p: Perm, npoints: int) -> None:
    if len(p) != npoints or sorted(p) != list(range(npoints)):
        raise ValueError(f"not a permutation of {npoints} points: {p!r}")


class FiniteGroup:
    """A finite group presented by permutation generators.

    Built through `generate_group`, which fixes the closure; everything else
    is derived from it on first use and kept. The map from element indices
    to permutations is an injective homomorphism, with mult_table[a][b] the
    index of perm_a composed after perm_b.
    """

    def __init__(self, generator_perms, order_cap: int = DEFAULT_ORDER_CAP):
        perms = [tuple(int(x) for x in p) for p in generator_perms]
        if not perms:
            raise EmptyGeneratorList("at least one generator is required")
        npoints = len(perms[0])
        for p in perms:
            _check_perm(p, npoints)

        ident = tuple(range(npoints))
        elems: list[Perm] = [ident]
        index: dict[Perm, int] = {ident: 0}
        construction: list[tuple[int, int]] = [(0, -1)]
        for i, e in enumerate(elems):  # visits the elements appended meanwhile too
            for gi, g in enumerate(perms):
                w = compose(e, g)
                if w not in index:
                    if len(elems) >= order_cap:
                        raise OrderCapExceeded(f"group order exceeds cap {order_cap}")
                    index[w] = len(elems)
                    elems.append(w)
                    construction.append((i, gi))

        self.points = npoints
        self.generator_perms: tuple[Perm, ...] = tuple(perms)
        self.element_perms: tuple[Perm, ...] = tuple(elems)
        self.order = len(elems)
        self.construction: tuple[tuple[int, int], ...] = tuple(construction)
        self.generator_indices: tuple[int, ...] = tuple(index[p] for p in perms)

    @cached_property
    def mult_table(self) -> tuple[tuple[int, ...], ...]:
        elems = self.element_perms
        index = {p: i for i, p in enumerate(elems)}
        return tuple(tuple(index[compose(a, b)] for b in elems) for a in elems)

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.mult_table)

    @cached_property
    def subgroups(self) -> tuple[Subgroup, ...]:
        """The members of all classes, sorted by (order, element_set)."""
        return tuple(sorted((m for c in subgroup_classes(self) for m in c.members),
                            key=lambda s: (s.order, s.element_set)))

    @cached_property
    def classes(self) -> tuple[SubgroupClass, ...]:
        """One join of each class representative with each cyclic subgroup outside it.

        A subgroup K > 1 is <H, c> for H maximal in K and c in K outside H.
        If H = R^x with R the representative of its class, then
        <H, c> = <R, x c x^-1>^x, so these joins reach every class, and perfect
        subgroups too (joins by normalizing elements only would miss A5 in S5).
        A join not seen before is a new class; all its conjugates are marked
        seen. Classes are sorted by order, then by the element set of their
        smallest member, which is the representative.
        """
        mult, inv = self.mult_table, self.inverse
        cyclic: dict[int, int] = {}  # mask -> smallest generator
        for g in range(self.order):
            cyclic.setdefault(_generate(mult, (g,)), g)
        seen = {1}
        queue: list[tuple[int, tuple[int, ...]]] = [(1, ())]  # representative mask, generators
        members = [[1]]  # per class, the masks of its members in canonical order
        for h, gens in queue:
            for c, g in cyclic.items():
                if c & ~h:
                    k = _generate(mult, gens + (g,))
                    if k not in seen:
                        elems = _elements(k)
                        conjugates = {sum(1 << mult[mult[x][e]][inv[x]] for e in elems)
                                      for x in range(self.order)}
                        seen |= conjugates
                        queue.append((k, gens + (g,)))
                        members.append(sorted(conjugates, key=_elements))
        members.sort(key=lambda m: (m[0].bit_count(), _elements(m[0])))
        return tuple(SubgroupClass(self, subs[0], subs, i)
                     for i, subs in enumerate(tuple(map(Subgroup, m)) for m in members))

    @cached_property
    def class_of(self) -> dict[int, int]:
        """Class index of every subgroup, keyed by its mask."""
        return {m.mask: c.class_index for c in subgroup_classes(self) for m in c.members}

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Per class: e, G, or the cycle strings of the representative's greedy generators."""
        return tuple(
            "e" if c.representative.order == 1
            else "G" if c.representative.order == self.order
            else ",".join(_cycle_string(self.element_perms[g])
                          for g in _minimal_generators(self, c.representative))
            for c in subgroup_classes(self)
        )

    @cached_property
    def marks(self) -> tuple[tuple[int, ...], ...]:
        """marks[i][j] = |(G/H_i)^{H_j}|, from the class-j members inside H_i.

        gH is fixed by K when g^-1 K g <= H, and each conjugate of K is
        g^-1 K g for |G| / |class j| elements g; cosets have |H_i| elements.
        """
        classes = subgroup_classes(self)
        return tuple(
            tuple(
                self.order * sum(k.mask | h.mask == h.mask for k in cj.members)
                // (len(cj.members) * h.order)
                for cj in classes
            )
            for h in (ci.representative for ci in classes)
        )

    def __repr__(self) -> str:
        return f"<FiniteGroup order={self.order} on {self.points} points>"


def generate_group(generators, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Close a list of permutations under composition.

    Indexing is canonical: identity first, then breadth-first product order
    (each known element multiplied by the generators in their given order).
    """
    return FiniteGroup(generators, order_cap=order_cap)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as its bitmask, bit g set for element g; other modules build it by `of`."""

    mask: int

    @classmethod
    def of(cls, elements) -> Subgroup:
        """The subgroup with the given element indices, in any order."""
        return cls(sum(1 << g for g in set(elements)))

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @cached_property
    def element_set(self) -> tuple[int, ...]:
        return _elements(self.mask)

    def __contains__(self, g: int) -> bool:
        return self.mask >> g & 1 == 1


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups in canonical class order."""

    group: FiniteGroup
    representative: Subgroup
    members: tuple[Subgroup, ...]
    class_index: int


@dataclass(frozen=True)
class WeylData:
    """Normalizer and Weyl group data of a subgroup."""

    subgroup: Subgroup
    normalizer: Subgroup
    weyl_order: int
    weyl_coset_reps: tuple[int, ...]


def _generate(mult, gens) -> int:
    """Bitmask of the subgroup generated by gens, whose elements are words 1*g1*...*gk."""
    mask, found = 1, [0]
    for a in found:
        row = mult[a]
        for g in gens:
            c = row[g]
            if not mask >> c & 1:
                mask |= 1 << c
                found.append(c)
    return mask


def _elements(mask: int) -> tuple[int, ...]:
    return tuple(i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")  # bit 0 first


def is_subgroup(group: FiniteGroup, candidate: Subgroup) -> bool:
    """Identity inside, no bit at or above |G|, and closed: the elements generate it."""
    m = candidate.mask
    return (m & 1 == 1 and m >> group.order == 0
            and _generate(group.mult_table, candidate.element_set) == m)


def subgroup_from_elements(group: FiniteGroup, elements) -> Subgroup:
    """The subgroup generated by the given element indices."""
    return Subgroup(_generate(group.mult_table, tuple(elements)))


def conjugate_subgroup(group: FiniteGroup, subgroup: Subgroup, g: int) -> Subgroup:
    mult, gi = group.mult_table, group.inverse[g]
    return Subgroup(sum(1 << mult[mult[g][h]][gi] for h in subgroup.element_set))


def all_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup exactly once, sorted by (order, element_set)."""
    return group.subgroups


def subgroup_classes(group: FiniteGroup) -> tuple[SubgroupClass, ...]:
    """Conjugacy classes of subgroups in canonical class order."""
    return group.classes


def class_index_of(group: FiniteGroup, subgroup: Subgroup) -> int:
    """Canonical class index of an arbitrary subgroup."""
    try:
        return group.class_of[subgroup.mask]
    except KeyError:
        raise NotASubgroup(f"{subgroup.element_set!r} is not a subgroup") from None


def class_leq(a: SubgroupClass, b: SubgroupClass) -> bool:
    """Whether some member of class a sits inside some member of class b."""
    if a.group is not b.group:
        raise GroupMismatch("classes from different groups")
    target = b.representative.mask
    return any(m.mask | target == target for m in a.members)


def weyl_data(group: FiniteGroup, subgroup: Subgroup) -> WeylData:
    if not is_subgroup(group, subgroup):
        raise NotASubgroup(f"{subgroup.element_set!r} is not a subgroup")
    mult, inv = group.mult_table, group.inverse
    mask, elems = subgroup.mask, subgroup.element_set
    normalizer: list[int] = []
    reps: list[int] = []
    covered: set[int] = set()
    for g in range(group.order):
        row, gi = mult[g], inv[g]
        for h in elems:  # g H g^-1 has |H| elements, so it is H once it lies inside H
            if not mask >> mult[row[h]][gi] & 1:
                break
        else:
            normalizer.append(g)
            if g not in covered:
                reps.append(g)
                covered.update(row[h] for h in elems)
    return WeylData(
        subgroup=subgroup,
        normalizer=Subgroup.of(normalizer),
        weyl_order=len(normalizer) // subgroup.order,
        weyl_coset_reps=tuple(reps),
    )


# ---------------------------------------------------------------- class labels

def _cycle_string(perm: Perm) -> str:
    """Disjoint cycle notation with 1-based points, fixed points omitted."""
    seen: set[int] = set()
    parts: list[str] = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = perm[x]
        if len(cycle) > 1:
            parts.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(parts) if parts else "()"


def _minimal_generators(group: FiniteGroup, subgroup: Subgroup) -> list[int]:
    gens: list[int] = []
    have = 1
    while have.bit_count() < subgroup.order:
        gens.append(min(x for x in subgroup.element_set if not have >> x & 1))
        have = _generate(group.mult_table, gens)
    return gens


def class_labels(group: FiniteGroup) -> tuple[str, ...]:
    """Canonical text label per subgroup class, used in element strings."""
    return group.labels
