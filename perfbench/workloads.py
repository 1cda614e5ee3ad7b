"""The three workloads: seeded inputs, set-up, ops and correctness gates.

A workload is built from a seed and a work directory (input generation,
untimed), then `setup()` builds the library objects the ops need (timed as
`setup_s`) and returns the ops of one pass. Each op has a timed `run`, an
untimed `check` that raises `GateFailure` on a wrong answer and returns the
op's canonical output, and optionally an untimed `oracle` run once per key.

Library functions are always called through their module attribute, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import burneq.burnside as burnside
import burneq.degree as degree
import burneq.descriptors as descriptors
import burneq.fuzz as fuzz
import burneq.group as group
import burneq.realize as realize
import burneq.representation as representation
from burneq.errors import EmptyOrbitTypeStratum

from inputs import PUBLISHED, relabelled, rep_generator_matrices, write_json, write_rep


class GateFailure(Exception):
    """An op returned a wrong answer."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], object]
    oracle: Callable[[object], None] | None = None


# ---------------------------------------------------------------- exact helpers

def fraction_det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def fraction_inverse(rows) -> list[list[Fraction]]:
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _load_fraction_matrices(rep_path: Path) -> list[list[list[Fraction]]]:
    data = json.loads(rep_path.read_text(encoding="utf-8"))
    return [[[Fraction(x) for x in row] for row in m] for m in data["generator_matrices"]]


def _shuffled(ops: list[Op], rng: random.Random) -> list[Op]:
    ops = list(ops)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- lattice

# rung -> seeded relabellings per pass: 100 ops, so p90 has ten beyond it.
# The counts put the median op among the D8 ops and p90 among the S4 ops,
# away from the edges between rungs. A pass takes about 3 s, so each op is
# timed about ten times in a run.
LATTICE_PLAN = {
    "Z2": 5, "Z4": 5, "V4": 5, "Z6": 5, "S3": 5, "D4": 5, "Q8": 5, "A4": 5,
    "D8": 30, "S4": 29, "S4xZ2": 1,
}
ORACLE_PAIRS = 2  # sampled basis pairs per input checked against the orbit oracle
ORACLE_COST_CAP = 200_000  # |G|^2 * |G/H| * |G/K|, the oracle's action-check cost


class Lattice:
    """Cold groups through classes, labels, Weyl data, marks and every basis product."""

    name = "lattice"
    op_budget_s = 60.0

    def __init__(self, seed: int, workdir: Path, plan=None):
        self.seed = seed
        rng = random.Random(f"{seed}:lattice")
        self.inputs: list[tuple[str, str, Path]] = []
        for name, count in (plan or LATTICE_PLAN).items():
            for k in range(count):
                gens = relabelled(name, rng)
                path = write_json(
                    workdir / f"lattice-{name}-{k}.json",
                    {"points": len(gens[0]), "generators": gens},
                )
                self.inputs.append((f"{name}#{k}", name, path))
        self.order_rng_seed = rng.random()

    def setup(self) -> list[Op]:
        ops = []
        for key, name, path in self.inputs:
            # the descriptor must present the published group before timing
            order = descriptors.load_group(path).order
            expect(order == PUBLISHED[name][0], f"{key}: descriptor has order {order}")
            gens = json.loads(path.read_text(encoding="utf-8"))["generators"]
            ops.append(self._op(key, name, gens))
        return _shuffled(ops, random.Random(self.order_rng_seed))

    def _op(self, key: str, name: str, gens) -> Op:
        def run():
            g = group.generate_group(gens)
            classes = group.subgroup_classes(g)
            labels = group.class_labels(g)
            weyl = [group.weyl_data(g, c.representative) for c in classes]
            tom = burnside.table_of_marks(g)
            basis = [burnside.basis_element(g, c.class_index) for c in classes]
            products = [[burnside.mul(a, b) for b in basis] for a in basis]
            return g, classes, labels, weyl, tom, products

        def check(raw):
            g, classes, labels, weyl, tom, products = raw
            order, n_subgroups, n_classes = PUBLISHED[name]
            expect(g.order == order, f"{key}: order {g.order}, published {order}")
            got = len(group.all_subgroups(g))
            expect(got == n_subgroups, f"{key}: {got} subgroups, published {n_subgroups}")
            expect(len(classes) == n_classes,
                   f"{key}: {len(classes)} classes, published {n_classes}")
            n = len(classes)
            marks = tom.marks
            for i, cls in enumerate(classes):
                h = cls.representative.order
                expect(marks[i][0] == order // h, f"{key}: mark of e on class {i}")
                expect(marks[i][i] == weyl[i].weyl_order, f"{key}: Weyl order of class {i}")
                expect(all(marks[i][j] == 0 for j in range(i + 1, n)),
                       f"{key}: marks not lower triangular in row {i}")
                expect(list(products[i][n - 1].coeffs) == [int(j == i) for j in range(n)],
                       f"{key}: [G/G] is not the unit on class {i}")
                for j in range(i):
                    expect(products[i][j] == products[j][i], f"{key}: mul not commutative")
            return (g.order, labels, [w.weyl_order for w in weyl],
                    [list(r) for r in marks], [[list(p.coeffs) for p in row] for row in products])

        def oracle(raw):
            g, classes, _, _, _, products = raw
            rng = random.Random(f"{self.seed}:oracle:{key}")
            cheap = [
                (i, j)
                for i in range(len(classes)) for j in range(i, len(classes))
                if g.order ** 2 * (g.order // classes[i].representative.order)
                * (g.order // classes[j].representative.order) <= ORACLE_COST_CAP
            ]
            for i, j in rng.sample(cheap, min(ORACLE_PAIRS, len(cheap))):
                orbits = burnside.decompose_gset(burnside.product_gset(classes[i], classes[j]))
                expect(orbits == products[i][j],
                       f"{key}: mul of classes {i}, {j} disagrees with the orbit oracle")

        return Op(key, run, check, oracle)


# ---------------------------------------------------------------- product

# rep -> (pairs per pass, isotropy orders of each map's pieces). Fixing the
# piece shape makes a pass do about the same work for every seed. 100 pairs,
# so p90 has ten beyond it; the counts put the median op among the
# D4-standard pairs and p90 among the S3-perm pairs, and keep a pass near 4 s.
PRODUCT_PLAN = {
    "Z2-sign": (20, (1, 2)),
    "V4-signs": (20, (2, 2)),
    "D4-standard": (25, (2, 2)),
    "S3-perm": (30, (2, 2)),
    "D4-perm": (1, (2, 2)),
    "S3-regular": (1, (2, 2)),
    "A4-perm": (1, (2, 2)),
    "S4-perm": (1, (4, 4)),
    "Q8-regular": (1, (4, 4)),
}
DRAW_LIMIT = 10_000


def _signature(rep, element) -> tuple[int, ...]:
    """Sorted isotropy orders of the pieces that realize an element."""
    classes = group.subgroup_classes(rep.group)
    return tuple(sorted(classes[i].representative.order
                        for i, c in enumerate(element.coeffs) for _ in range(abs(c))))


def draw_seed(rep, rng: random.Random, signature: tuple[int, ...]) -> int:
    """A seed whose `fuzz.random_feasible_element` draw has the given signature.

    fuzz draws the feasible element first, so testing candidate seeds costs
    no map construction.
    """
    for _ in range(DRAW_LIMIT):
        s = rng.getrandbits(64)
        if _signature(rep, fuzz.random_feasible_element(rep, random.Random(s))) == signature:
            return s
    raise RuntimeError(f"no element with isotropy orders {signature} in {DRAW_LIMIT} draws")


def sized_random_map(rep, rng: random.Random, signature: tuple[int, ...]):
    """A `fuzz.random_polystandard_map` draw whose pieces have the given isotropy orders."""
    f = fuzz.random_polystandard_map(rep, random.Random(draw_seed(rep, rng, signature)))
    got = tuple(sorted(p.isotropy.order for p in f.pieces))
    if got != signature:
        raise RuntimeError(f"fuzz drew pieces of isotropy orders {got}, expected {signature}")
    return f


class Product:
    """verify_product on seeded fuzz pairs built in set-up on warm groups."""

    name = "product"
    op_budget_s = 30.0

    def __init__(self, seed: int, workdir: Path, plan=None):
        self.seed = seed
        self.plan = plan or PRODUCT_PLAN
        self.paths = {rep: write_rep(workdir, rep) for rep in self.plan}

    def setup(self) -> list[Op]:
        groups: dict[Path, object] = {}
        ops = []
        for rep_name, (pairs, signature) in self.plan.items():
            group_path, rep_path = self.paths[rep_name]
            if group_path not in groups:
                groups[group_path] = descriptors.load_group(group_path)
            rep = descriptors.load_representation(rep_path, groups[group_path])
            rng = random.Random(f"{self.seed}:product:{rep_name}")
            for k in range(pairs):
                f = sized_random_map(rep, rng, signature)
                g = sized_random_map(rep, rng, signature)
                ops.append(self._op(f"{rep_name}#{k}", f, g))
        return _shuffled(ops, random.Random(f"{self.seed}:product:order"))

    @staticmethod
    def _op(key: str, f, g) -> Op:
        def run():
            return degree.verify_product(f, g)

        def check(chk):
            expect(chk.equal, f"{key}: deg(f x g) != deg f * deg g")
            expect(all(r.consistent for r in chk.orbit_rows),
                   f"{key}: an orbit row is inconsistent")
            return (list(chk.lhs.coeffs), list(chk.rhs.coeffs),
                    [(r.base_label, r.class_index, r.index_product) for r in chk.orbit_rows])

        return Op(key, run, check)


# ---------------------------------------------------------------- realize

# rep -> (targets per pass, isotropy orders of the target's pieces). With the
# expression maps that makes 100 ops, so p90 has ten beyond it; the counts
# put the median op among the D4-perm ops and p90 among the A4-perm and
# S3-regular round trips, and keep a pass near 4 s.
REALIZE_PLAN = {
    "S3-perm": (30, (2, 2)),
    "D4-perm": (20, (2, 2)),
    "A4-perm": (30, (2, 2)),
    "S3-regular": (4, (2, 2)),
    "S4-perm": (1, (4, 4)),
    "Q8-regular": (1, (4, 4)),
    "A5-perm": (1, (2, 2)),
    "A4-regular": (1, (3, 3)),
}
EXPRESSION_PLAN = (  # (rep, dim V^H of the piece, maps per pass)
    ("D4-perm", 2, 10),
    ("A5-perm", 1, 1),
    ("S4-perm", 3, 1),
)


class Realize:
    """Realization round trips and expression-piece degrees on fresh representations."""

    name = "realize"
    op_budget_s = 30.0

    def __init__(self, seed: int, workdir: Path, plan=None, expression_plan=None):
        self.seed = seed
        self.workdir = workdir
        self.plan = plan or REALIZE_PLAN
        self.expression_plan = expression_plan or EXPRESSION_PLAN
        reps = set(self.plan) | {rep for rep, _, _ in self.expression_plan}
        self.paths = {rep: write_rep(workdir, rep) for rep in sorted(reps)}

    def setup(self) -> list[Op]:
        groups: dict[Path, object] = {}
        warm_reps, matrices = {}, {}
        for rep_name, (group_path, rep_path) in self.paths.items():
            if group_path not in groups:
                g = descriptors.load_group(group_path)
                name = rep_generator_matrices(rep_name)[0]
                n_classes = len(group.subgroup_classes(g))
                expect(n_classes == PUBLISHED[name][2],
                       f"{name}: {n_classes} classes, published {PUBLISHED[name][2]}")
                group.class_labels(g)
                groups[group_path] = g
            warm_reps[rep_name] = descriptors.load_representation(rep_path, groups[group_path])
            matrices[rep_name] = _load_fraction_matrices(rep_path)
        ops = []
        for rep_name, (count, signature) in self.plan.items():
            rep = warm_reps[rep_name]
            rng = random.Random(f"{self.seed}:realize:{rep_name}")
            for k in range(count):
                s = draw_seed(rep, rng, signature)
                target = fuzz.random_feasible_element(rep, random.Random(s))
                ops.append(self._round_trip(f"{rep_name}#{k}", rep.group,
                                            matrices[rep_name], rep_name, target))
        for rep_name, d, count in self.expression_plan:
            rep = warm_reps[rep_name]
            rng = random.Random(f"{self.seed}:expression:{rep_name}:{d}")
            for k in range(count):
                key = f"{rep_name}/expr{d}#{k}"
                path, expected = self._expression_map(rep, rng, d, key)
                ops.append(self._expression_degree(key, rep.group, matrices[rep_name],
                                                   rep_name, path, expected))
        return _shuffled(ops, random.Random(f"{self.seed}:realize:order"))

    def _round_trip(self, key, g, mats, label, target) -> Op:
        path = self.workdir / f"realized-{key.replace('/', '_')}.json"

        def run():
            rep = representation.build_representation(g, mats, label=label)
            table = representation.orbit_types(rep)
            f = realize.realize_element(realize.RealizationTarget(element=target, rep=rep))
            descriptors.save_map(path, f)
            back = descriptors.load_map(path, rep)
            return table, f, degree.deg_polystandard(back)

        def check(raw):
            table, f, result = raw
            expect(result.value == target, f"{key}: reloaded degree differs from the target")
            occupied = {e.class_index for e in table.entries if e.occupied}
            expect(all(i in occupied for i, c in enumerate(target.coeffs) if c),
                   f"{key}: target uses a class the orbit-type table calls empty")
            expect(len(f.pieces) == sum(abs(c) for c in target.coeffs),
                   f"{key}: {len(f.pieces)} pieces for {target.coeffs}")
            return (list(target.coeffs), path.read_text(encoding="utf-8"))

        return Op(key, run, check)

    def _expression_map(self, rep, rng: random.Random, d: int, key: str):
        """A one-piece map whose local map is L + L^3 with L linear, L(x0) = 0.

        On fixed-subspace coordinates u the Jacobian at x0 is the seeded
        matrix M and L + L^3 vanishes only where L does, i.e. at u = 0, so
        the piece is valid and its index is the sign of det M.
        """
        classes = [c for c in group.subgroup_classes(rep.group)
                   if representation.fixed_subspace(rep, c.representative).dim_fixed == d]
        rng.shuffle(classes)
        for cls in classes:
            try:
                x0 = representation.point_with_exact_isotropy(rep, cls.representative)
            except EmptyOrbitTypeStratum:
                continue
            break
        else:
            raise RuntimeError(f"{key}: no occupied class with dim V^H = {d}")
        basis = [list(b) for b in representation.fixed_subspace(rep, cls.representative).basis]
        # M is a scaled signed permutation: the zero sets of its rows meet at
        # right angles. With M nearly singular the library's heuristic grid
        # scan reports a false second zero and rejects the valid piece.
        perm = list(range(d))
        rng.shuffle(perm)
        m = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)) if j == perm[i] else 0)
              for j in range(d)] for i in range(d)]
        # L(x) = M (B B^T)^-1 B (x - x0), so L(x0 + sum u_k b_k) = M u
        coeff = _matmul(_matmul(m, fraction_inverse(_matmul(basis, list(zip(*basis))))), basis)
        jacobian = _matmul(coeff, list(zip(*basis)))
        sign = 1 if fraction_det(jacobian) > 0 else -1
        exprs = []
        for row in coeff:
            linear = " + ".join(f"({c})*(x{j + 1} - ({x0[j]}))" for j, c in enumerate(row) if c)
            exprs.append(f"({linear}) + ({linear})^3")
        points = [tuple(p) for p in representation.orbit(rep, x0)]
        radius = Fraction(1)
        if len(points) > 1:
            spacing2 = min(sum((a - b) ** 2 for a, b in zip(p, q))
                           for i, p in enumerate(points) for q in points[i + 1:])
            while 32 * radius * radius > spacing2:
                radius /= 2
        path = write_json(self.workdir / f"expr-{key.replace('/', '_')}.json", {
            "rep": rep.label,
            "pieces": [{
                "base_point": [str(x) for x in x0],
                "radius": str(radius),
                "epsilon": str(radius),
                "local": {"type": "expr", "exprs": exprs},
            }],
        })
        expected = [0] * len(group.subgroup_classes(rep.group))
        expected[cls.class_index] = sign
        return path, expected

    @staticmethod
    def _expression_degree(key, g, mats, label, path, expected) -> Op:
        def run():
            rep = representation.build_representation(g, mats, label=label)
            return degree.deg_polystandard(descriptors.load_map(path, rep))

        def check(result):
            got = list(result.value.coeffs)
            expect(got == expected, f"{key}: degree {got}, exact determinant gives {expected}")
            return expected

        return Op(key, run, check)


WORKLOADS = {w.name: w for w in (Lattice, Product, Realize)}


def smoke_workloads(seed: int, workdir: Path):
    """One tiny instance of every workload on Z/2, run before set-up."""
    return [
        Lattice(seed, workdir, plan={"Z2": 1}),
        Product(seed, workdir, plan={"Z2-sign": (1, (1, 2))}),
        Realize(seed, workdir, plan={"Z2-sign": (1, (1, 2))},
                expression_plan=(("Z2-sign", 1, 1),)),
    ]
