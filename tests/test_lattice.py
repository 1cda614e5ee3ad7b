"""Subgroup lattices and tables of marks on larger groups, against oracles.

The marks are checked against fixed cosets counted directly in the coset
G-set of each class representative, and the lattice sizes against the
published numbers of subgroups and of their conjugacy classes. The subgroup
list is checked against joins of every subgroup with every cyclic subgroup,
and each class against the conjugates of its representative.
"""

import random

import pytest

import burneq as bq
from burneq import group as group_module
from groupdata import GROUP_GENERATORS, LARGER_GROUPS, MARKS_GROUPS, make_group

# (order, subgroups, conjugacy classes of subgroups)
PUBLISHED = {
    "D8": (16, 19, 11),
    "S4": (24, 30, 11),
    "S4xZ2": (48, 98, 33),
    "A5": (60, 59, 9),
    "S5": (120, 156, 19),
}


def fixed_coset_marks(group):
    """marks[i][j]: points of G/H_i fixed by every element of H_j."""
    classes = bq.subgroup_classes(group)
    rows = []
    for ci in classes:
        gset = bq.coset_gset(group, ci.representative)
        rows.append(tuple(
            sum(all(gset.action[k][p] == p for k in cj.representative.element_set)
                for p in range(gset.size))
            for cj in classes
        ))
    return tuple(rows)


@pytest.mark.parametrize("name", [*MARKS_GROUPS, "D8", "S4", "S4xZ2", "A5", "S5"])
def test_marks_match_fixed_coset_count(name):
    group = make_group(name)
    assert bq.table_of_marks(group).marks == fixed_coset_marks(group)


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_published_lattice_sizes(name):
    group = make_group(name)
    order, n_subgroups, n_classes = PUBLISHED[name]
    assert group.order == order
    assert len(bq.all_subgroups(group)) == n_subgroups
    assert len(bq.subgroup_classes(group)) == n_classes


def even_permutations(group):
    n = group.points
    return {g for g, p in enumerate(group.element_perms)
            if sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0}


def test_s5_lattice_contains_the_perfect_subgroup_a5():
    s5 = make_group("S5")
    (a5,) = [s for s in bq.all_subgroups(s5) if s.order == 60]
    assert set(a5.element_set) == even_permutations(s5)


def brute_closure(group, elements):
    """Oracle: multiply known elements pairwise until nothing new appears."""
    found = {0, *elements}
    while True:
        new = {group.mult_table[a][b] for a in found for b in found} - found
        if not new:
            return tuple(sorted(found))
        found |= new


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_subgroup_from_elements_matches_brute_closure(name):
    group = make_group(name)
    rng = random.Random(name)
    for _ in range(20):
        elements = rng.sample(range(group.order), rng.randint(1, 3))
        sub = bq.subgroup_from_elements(group, elements)
        assert sub.element_set == brute_closure(group, elements)
        assert sub in bq.all_subgroups(group)


def test_construction_derives_nothing_until_asked():
    group = bq.generate_group(LARGER_GROUPS["S4"])
    assert not {"mult_table", "inverse", "subgroups", "marks"} & set(vars(group))
    assert bq.table_of_marks(group).marks is bq.table_of_marks(group).marks


def joined_subgroups(group):
    """Oracle: join each subgroup found with each cyclic subgroup outside it.

    Every subgroup is the join of its cyclic subgroups, so this reaches all of
    them, at #subgroups x #cyclic subgroups closures.
    """
    cyclic = {}
    for g in range(group.order):
        cyclic.setdefault(bq.subgroup_from_elements(group, [g]).element_set, g)
    found = {(0,): ()}  # element set -> generators
    queue = [(0,)]
    for h in queue:
        inside = set(h)
        for c, g in cyclic.items():
            if not inside.issuperset(c):
                gens = found[h] + (g,)
                k = bq.subgroup_from_elements(group, gens).element_set
                if k not in found:
                    found[k] = gens
                    queue.append(k)
    return sorted(found, key=lambda t: (len(t), t))


@pytest.mark.parametrize("name", [*GROUP_GENERATORS, "D8", "S4", "S4xZ2", "A5"])
def test_lattice_matches_the_join_oracle_and_conjugation(name):
    group = make_group(name)
    assert [s.element_set for s in bq.all_subgroups(group)] == joined_subgroups(group)
    for c in bq.subgroup_classes(group):
        conjugates = {group_module.conjugate_subgroup(group, c.representative, g).element_set
                      for g in range(group.order)}
        assert [m.element_set for m in c.members] == sorted(conjugates)
        assert c.representative == c.members[0]


def zuppo_orbits_outside(group, sub):
    """Oracle: the N(sub)-orbits of cyclic subgroups of prime-power order outside sub."""
    def conjugate(s, g):
        return group_module.conjugate_subgroup(group, s, g)

    normalizer = [g for g in range(group.order) if conjugate(sub, g) == sub]
    zuppos = set()
    for g in range(group.order):
        z = bq.subgroup_from_elements(group, [g])
        if z.order > 1 and len({p for p in range(2, z.order + 1) if z.order % p == 0
                                and all(p % q for q in range(2, p))}) == 1:
            zuppos.add(z)
    outside = [z for z in zuppos if not set(z.element_set) <= set(sub.element_set)]
    return {frozenset(conjugate(z, n) for n in normalizer) for z in outside}


@pytest.mark.parametrize("name", ["S4xZ2", "S5"])
def test_classes_join_each_representative_once_per_cyclic_subgroup(name, monkeypatch):
    """At most |G| closures for the cyclic subgroups, then at most one join
    per class and N(R)-orbit of zuppos (cyclic subgroups of prime-power
    order) outside its representative R. Joining every subgroup with every
    cyclic subgroup instead takes 2851 closures on S4xZ2 and 9681 on S5.
    Every closure goes through `_join`, so the spy counts them all; more
    than |G| calls shows that it sees the joins, not only the cyclic ones."""
    group = bq.generate_group(LARGER_GROUPS[name])
    walks = []
    join = group_module._join
    monkeypatch.setattr(group_module, "_join", lambda mult, elements, mask, gens:
                        walks.append(gens) or join(mult, elements, mask, gens))
    classes = bq.subgroup_classes(group)
    monkeypatch.undo()
    orbits = sum(len(zuppo_orbits_outside(group, c.representative)) for c in classes)
    assert group.order < len(walks) <= group.order + orbits


@pytest.mark.parametrize("name", [*GROUP_GENERATORS, "S4xZ2", "S5"])
def test_join_from_a_subgroup_matches_brute_closure(name):
    """<H, gens> closed coset-wise from H's elements equals the brute closure,
    each element listed once and H's first; every third draw takes its new
    generators inside H, where the join is H itself."""
    group = make_group(name)
    rng = random.Random(f"join:{name}")
    for trial in range(30):
        h_gens = tuple(rng.sample(range(group.order), rng.randint(0, 2)))
        h = bq.subgroup_from_elements(group, h_gens)
        pool = h.element_set if trial % 3 == 0 else range(group.order)
        gens = h_gens + tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        mask, elements = group_module._join(group.mult_table, list(h.element_set), h.mask, gens)
        expected = brute_closure(group, gens)
        assert tuple(sorted(elements)) == expected
        assert mask == bq.Subgroup.of(expected).mask
        assert elements[:h.order] == list(h.element_set)
        if trial % 3 == 0:
            assert mask == h.mask


def test_s6_lattice_sizes_and_its_perfect_subgroup_a6():
    """A6 is perfect, so joins by normalizing elements only would miss it."""
    s6 = make_group("S6")
    subgroups = bq.all_subgroups(s6)
    assert (s6.order, len(subgroups), len(bq.subgroup_classes(s6))) == (720, 1455, 56)
    (a6,) = [s for s in subgroups if s.order == 360]
    assert set(a6.element_set) == even_permutations(s6)
