"""Finite permutation groups: closure from generators and subgroup structure.

Group elements are integers 0..order-1 with 0 the identity, numbered by the
closure of the permutation generators, which is all a constructor computes.
Everything derived from it is a lazy `cached_property` on the group: the
multiplication table, stepped column by column along the closure by one
generator each; inverses; subgroup classes as bitmask joins of one member of
each class with one zuppo (cyclic subgroup of prime-power order) per orbit
of its normalizer, each class keeping that normalizer and a conjugating
element per member, from which `weyl_data` reads any subgroup's normalizer;
the subgroup list as the union of their members; labels; marks counted
from class members, and each mark row's nonzero entries below the diagonal.
A subgroup is its element bitmask, a layout no other module reads, so set
questions are int operations.

Every closure is one routine, `_join`: Dimino's coset-wise closure of
<H, gens> from H's known elements (Butler, Fundamental Algorithms for
Permutation Groups, LNCS 559, 1991).

The class order is canonical and deterministic: ascending subgroup order,
ties broken by the sorted element set of the lexicographically smallest
class member. Coefficient vectors of Burnside elements index into it. Masks
of one bit count are put in that order by `_lex_key`, the bit-reversed
mask, with no element scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from typing import Sequence

from .errors import EmptyGeneratorList, GroupMismatch, NotASubgroup, OrderCapExceeded

DEFAULT_ORDER_CAP = 2000
_ROW_BLOCK = 128  # rows of mult_table filled per block of columns

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
        """Filled column by column along the closure's construction.

        Element b is its parent p composed with generator g, so a*b = (a*p)*g:
        column b is column p stepped by g, a lookup in the table of right
        multiplications by the generators, which takes |G|·k compositions.
        The columns are built for _ROW_BLOCK rows at a time and transposed
        into rows, so only one block's columns are held beside the rows.
        """
        elems = self.element_perms
        index = {p: i for i, p in enumerate(elems)}
        steps = [tuple(index[compose(e, g)] for e in elems) for g in self.generator_perms]
        rows: list[tuple[int, ...]] = []
        for start in range(0, self.order, _ROW_BLOCK):
            columns: list[Sequence[int]] = [range(self.order)[start:start + _ROW_BLOCK]]
            for parent, gi in self.construction[1:]:
                columns.append(tuple(map(steps[gi].__getitem__, columns[parent])))
            rows.extend(zip(*columns))
        return tuple(rows)

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.mult_table)

    @cached_property
    def subgroups(self) -> tuple[Subgroup, ...]:
        """The members of all classes, sorted by (order, element_set)."""
        key = _lex_key(self.order)
        return tuple(sorted((m for c in subgroup_classes(self) for m in c.members),
                            key=lambda s: (s.order, key(s.mask))))

    @cached_property
    def classes(self) -> tuple[SubgroupClass, ...]:
        """Joins of one member R of each class with one zuppo per orbit of N(R).

        A zuppo is a cyclic subgroup of prime-power order. A subgroup K > 1 is
        <H, c> for H maximal in K and c in K outside H. c is the product of
        its prime-power parts, which are powers of c, so one of them, z, lies
        outside H, and <H, z> = K by maximality. If H = x R x^-1, then
        <H, z> = x <R, x^-1 z x> x^-1, so joins of R with the zuppos outside
        it reach every class, perfect subgroups too (joins by normalizing
        elements only would miss A5 in S5). For n in N(R), <R, z^n> =
        <R, z>^n lies in the same class, so one zuppo per N(R)-orbit
        suffices; this is Neubüser's cyclic extension. Each join <R, z>
        starts from the elements of R found by its own join, coset by coset
        (`_join`). A join not seen before is a new class. One conjugation
        pass over G lists its members, one conjugating element for each, and
        its normalizer. Classes are sorted by order, then by the element set
        of their smallest member, which is the representative; both sorts
        compare masks of one bit count by `_lex_key`, with no element scan.
        """
        mult, inv, key = self.mult_table, self.inverse, _lex_key(self.order)
        cyclic = [_join(mult, [0], 1, (g,))[0] for g in range(self.order)]
        zuppos: dict[int, int] = {}  # mask -> smallest generator
        for g, c in enumerate(cyclic):
            if _is_prime_power(c.bit_count()):
                zuppos.setdefault(c, g)
        # per class: the join found, its elements, its generators, its
        # normalizer, member mask -> x with x k x^-1
        found: list[tuple[int, list[int], tuple[int, ...], Sequence[int], dict[int, int]]] = [
            (1, [0], (), range(self.order), {1: 0})]
        seen = {1}
        for h, elements, gens, normalizer, _ in found:
            joined: set[int] = set()  # the zuppos in the N(h)-orbits joined so far
            for c, g in zuppos.items():
                if c & ~h and c not in joined:
                    joined.update(cyclic[mult[mult[n][g]][inv[n]]] for n in normalizer)
                    k_gens = gens + (g,)
                    k, k_elements = _join(mult, elements, h, k_gens)
                    if k not in seen:
                        normalizer_k, conjugators = _conjugation_pass(mult, inv, k, k_elements)
                        seen.update(conjugators)
                        found.append((k, k_elements, k_gens, normalizer_k, conjugators))
        classes = []
        for _, _, _, normalizer, conjugators in found:
            # re-based on the representative r = y k y^-1: N(r) = y N(k) y^-1,
            # and m = x k x^-1 = (x y^-1) r (x y^-1)^-1
            members = sorted(conjugators, key=key)
            y = conjugators[members[0]]
            row, yi = mult[y], inv[y]
            classes.append((members, Subgroup(sum(1 << mult[row[n]][yi] for n in normalizer)),
                            {m: mult[x][yi] for m, x in conjugators.items()}))
        classes.sort(key=lambda c: (c[0][0].bit_count(), key(c[0][0])))
        return tuple(SubgroupClass(self, Subgroup(members[0]), tuple(map(Subgroup, members)), i,
                                   normalizer, conjugators)
                     for i, (members, normalizer, conjugators) in enumerate(classes))

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
        Members are counted only for j <= i with |H_j| dividing |H_i|: a
        conjugate of H_j inside H_i has an order dividing |H_i| (Lagrange),
        and for j > i, |H_j| >= |H_i| in the canonical order, so it would be
        H_i itself, in class i. Every other entry is 0, and is not evaluated.
        """
        classes = subgroup_classes(self)
        orders = [c.representative.order for c in classes]
        members = [[m.mask for m in c.members] for c in classes]
        n = len(classes)
        return tuple(
            tuple(
                self.order * sum(k | h == h for k in members[j]) // (len(members[j]) * orders[i])
                if orders[i] % orders[j] == 0 else 0
                for j in range(i + 1)
            ) + (0,) * (n - 1 - i)
            for i, h in enumerate(m[0] for m in members)
        )

    @cached_property
    def mark_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per class j, the (k, marks[j][k]) pairs with k < j and a nonzero mark."""
        return tuple(tuple((k, m) for k, m in enumerate(row[:j]) if m)
                     for j, row in enumerate(self.marks))

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
    """A conjugacy class of subgroups in canonical class order.

    It keeps the normalizer of its representative R and, per member mask,
    one element x with x R x^-1 that member.
    """

    group: FiniteGroup
    representative: Subgroup
    members: tuple[Subgroup, ...]
    class_index: int
    normalizer: Subgroup = field(compare=False, repr=False)
    conjugators: dict[int, int] = field(compare=False, repr=False)


@dataclass(frozen=True)
class WeylData:
    """Normalizer and Weyl group data of a subgroup."""

    subgroup: Subgroup
    normalizer: Subgroup
    weyl_order: int
    weyl_coset_reps: tuple[int, ...]


def _join(mult, elements: Sequence[int], mask: int, gens) -> tuple[int, list[int]]:
    """Mask and elements of <H, gens>, for a subgroup H given by its elements and mask.

    gens must generate a group containing H, as H's generators with new
    ones do. The join is a union of right cosets H r, and H r g = H (r g),
    so one representative per coset is multiplied by the generators, and a
    new coset H x enters whole as {h x : h in H} (Dimino's method). The
    elements come coset by coset, H's first; with H = 1 they are the words
    1*g1*...*gk in breadth-first order.
    """
    rows = [mult[h] for h in elements]
    elements = list(elements)
    reps = [0]
    for r in reps:
        row = mult[r]
        for g in gens:
            x = row[g]
            if not mask >> x & 1:
                coset = [h[x] for h in rows]
                for c in coset:
                    mask |= 1 << c
                elements += coset
                reps.append(x)
    return mask, elements


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _elements(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    return tuple(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _lex_key(bits: int):
    """Sort key of masks below 2^bits, of one bit count, in element-tuple order.

    The tuples first differ at the lowest set bit of a ^ b, and the mask
    holding it comes first. Reversed over a fixed width, that bit is the
    highest difference, so the key is the negated bit-reversed mask.
    """
    width = (bits + 7) // 8
    return lambda mask: -int.from_bytes(
        mask.to_bytes(width, "little").translate(_REVERSED_BYTES), "big")


def _conjugation_pass(mult, inv, k: int, elems: Sequence[int]) -> tuple[list[int], dict[int, int]]:
    """The normalizer of k, and its conjugates x k x^-1 mapped to their least x.

    Every element of the left coset x k conjugates k as x does, so one
    conjugation per coset, by its least element, covers G. elems are k's
    elements, in any order.
    """
    normalizer: list[int] = []
    conjugators: dict[int, int] = {}
    covered = bytearray(len(mult))
    for x, row in enumerate(mult):
        if not covered[x]:
            coset = [row[h] for h in elems]
            for c in coset:
                covered[c] = 1
            xi = inv[x]
            m = sum(1 << mult[c][xi] for c in coset)  # c k c^-1 = x k x^-1 for c in x k
            conjugators.setdefault(m, x)
            if m == k:
                normalizer += coset
    return normalizer, conjugators


def _is_prime_power(n: int) -> bool:
    """Whether n = p^a for a prime p and a >= 1."""
    if n < 2:
        return False
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def subgroup_from_elements(group: FiniteGroup, elements) -> Subgroup:
    """The subgroup generated by the given element indices."""
    return Subgroup(_join(group.mult_table, [0], 1, tuple(elements))[0])


def conjugate_subgroup(group: FiniteGroup, subgroup: Subgroup, g: int) -> Subgroup:
    """g H g^-1; the identity, the conjugator of every class representative, returns H."""
    if g == 0:
        return subgroup
    mult, gi = group.mult_table, group.inverse[g]
    return Subgroup(sum(1 << mult[mult[g][h]][gi] for h in subgroup.element_set))


def left_cosets(group: FiniteGroup, subgroup: Subgroup) -> list[int]:
    """The number of the left coset g H of each element g, cosets numbered in
    the order of their least elements: the position of rho(g) x in the orbit
    G x = G/H of a point with isotropy H, listed in first-seen element order."""
    number, count = [-1] * group.order, 0
    for g, row in enumerate(group.mult_table):
        if number[g] < 0:
            for h in subgroup.element_set:
                number[row[h]] = count
            count += 1
    return number


def double_cosets(group: FiniteGroup, subgroup: Subgroup,
                  cosets: Sequence[int]) -> list[tuple[int, Subgroup]]:
    """Each double coset H g K, an orbit G/(H ∩ g K g^-1) of G/H x G/K (tom Dieck,
    LNM 766, 1979), as its least g and H ∩ g K g^-1, for `cosets` the `left_cosets`
    of K: g walks G upwards past covered cosets until all are covered, H g K is the
    H-orbit of g K, and h g K = g K exactly when h lies in g K g^-1."""
    mult, elements, last = group.mult_table, subgroup.element_set, max(cosets)
    covered, found = set(), []
    for g, i in enumerate(cosets):
        if i not in covered:
            moved = [cosets[mult[h][g]] for h in elements]
            covered.update(moved)
            found.append((g, Subgroup(sum(1 << h for h, j in zip(elements, moved) if j == i))))
            if len(covered) > last:
                break
    return found


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
    """N(H) = x N(R) x^-1 for H = x R x^-1 in the class of R, from the class's
    normalizer and conjugating element. Walking N(H) in ascending order, each
    element outside the cosets met so far is the next Weyl coset representative.
    """
    cls = subgroup_classes(group)[class_index_of(group, subgroup)]
    normalizer = conjugate_subgroup(group, cls.normalizer, cls.conjugators[subgroup.mask])
    mult, elems = group.mult_table, subgroup.element_set
    reps: list[int] = []
    covered: set[int] = set()
    for g in normalizer.element_set:
        if g not in covered:
            reps.append(g)
            covered.update(mult[g][h] for h in elems)
    return WeylData(
        subgroup=subgroup,
        normalizer=normalizer,
        weyl_order=normalizer.order // subgroup.order,
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
    """Greedy generators: the least element outside the join so far, joined on."""
    gens: list[int] = []
    have, elements = 1, [0]
    while have != subgroup.mask:
        rest = subgroup.mask & ~have
        gens.append((rest & -rest).bit_length() - 1)
        have, elements = _join(group.mult_table, elements, have, gens)
    return gens


def class_labels(group: FiniteGroup) -> tuple[str, ...]:
    """Canonical text label per subgroup class, used in element strings."""
    return group.labels
