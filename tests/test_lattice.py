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


@pytest.mark.parametrize("name", [*MARKS_GROUPS, "D8", "S4", "S4xZ2", "A5"])
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


def test_s5_lattice_contains_the_perfect_subgroup_a5():
    s5 = make_group("S5")
    (a5,) = [s for s in bq.all_subgroups(s5) if s.order == 60]
    even = {g for g, p in enumerate(s5.element_perms)
            if sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0}
    assert set(a5.element_set) == even


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


@pytest.mark.parametrize("name", ["S4xZ2", "S5"])
def test_classes_join_each_representative_once_per_cyclic_subgroup(name, monkeypatch):
    """At most |G| closures for the cyclic subgroups, then one per class and
    cyclic subgroup; joining every subgroup instead takes 2851 on S4xZ2 and
    9681 on S5."""
    group = bq.generate_group(LARGER_GROUPS[name])
    walks = []
    generate = group_module._generate
    monkeypatch.setattr(group_module, "_generate",
                        lambda mult, gens: walks.append(gens) or generate(mult, gens))
    classes = bq.subgroup_classes(group)
    monkeypatch.undo()
    cyclic = {bq.subgroup_from_elements(group, [g]) for g in range(group.order)}
    assert len(walks) <= group.order + len(classes) * len(cyclic)
