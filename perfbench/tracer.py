"""Spans and counts around burneq's public functions, from outside the library.

`Tracer.install` replaces each traced function with a wrapper in every
burneq module that references it (so `verify_product` calling
`polystandard_map` is caught too). It is only ever called in the benchmark's
own process. Spans live in flat arrays and are reduced at the end: a span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function) pairs; metric names are "<module>.<function>.s|calls".
TRACED: tuple[tuple[str, str], ...] = (
    ("group", "generate_group"),
    ("group", "all_subgroups"),
    ("group", "subgroup_classes"),
    ("group", "class_labels"),
    ("group", "weyl_data"),
    ("burnside", "table_of_marks"),
    ("burnside", "mul"),
    ("burnside", "decompose_gset"),
    ("burnside", "product_gset"),
    ("representation", "build_representation"),
    ("representation", "direct_sum"),
    ("representation", "fixed_subspace"),
    ("representation", "orbit_types"),
    ("representation", "point_with_exact_isotropy"),
    ("representation", "orbit"),
    ("representation", "isotropy"),
    ("degree", "standard_piece"),
    ("degree", "polystandard_map"),
    ("degree", "local_index"),
    ("degree", "expression_local_index"),
    ("degree", "deg_polystandard"),
    ("degree", "verify_product"),
    ("realize", "realize_element"),
    ("descriptors", "map_to_dict"),
    ("descriptors", "load_map"),
    ("fuzz", "random_polystandard_map"),
)

COUNTS: tuple[str, ...] = (
    "group.elements",
    "group.subgroups",
    "group.classes",
    "burnside.mul_pairs",
    "representation.orbit_points",
    "degree.pieces",
    "degree.product_pieces",
    "degree.point_pairs",
    "realize.pieces",
)


def _point_pairs(f) -> int:
    """Cross-piece orbit-point pairs a map presents to the disjointness check."""
    order = f.rep.group.order
    sizes = [order // p.isotropy.order for p in f.pieces]
    total = sum(sizes)
    return (total * total - sum(n * n for n in sizes)) // 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1  # -1: not recording
        self.next_op = 2  # op ids 0 and 1 are the runner's once and set-up ids
        self._stack: list[int] = []
        # counts per op id, as {op: {name: value}}
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._seen: dict[str, weakref.WeakSet] = defaultdict(weakref.WeakSet)

    # ------------------------------------------------------------ counting

    def _count(self, name: str, n: int) -> None:
        self.counts[self.current_op][name] += n

    def _first_time(self, key: str, group) -> bool:
        seen = self._seen[key]
        if group in seen:
            return False
        seen.add(group)
        return True

    def _on_result(self, qualname: str, args, result) -> None:
        if qualname == "group.generate_group":
            self._count("group.elements", result.order)
        elif qualname == "group.all_subgroups":
            if self._first_time("subgroups", args[0]):
                self._count("group.subgroups", len(result))
        elif qualname == "group.subgroup_classes":
            if self._first_time("classes", args[0]):
                self._count("group.classes", len(result))
        elif qualname == "burnside.mul":
            self._count("burnside.mul_pairs", 1)
        elif qualname == "representation.orbit":
            self._count("representation.orbit_points", len(result))
        elif qualname == "degree.polystandard_map":
            self._count("degree.pieces", len(result.pieces))
            self._count("degree.point_pairs", _point_pairs(result))
        elif qualname == "degree.verify_product":
            self._count("degree.product_pieces", len(result.orbit_rows))
        elif qualname == "realize.realize_element":
            self._count("realize.pieces", len(result.pieces))

    # ------------------------------------------------------------ wrapping

    def _wrap(self, qualname: str, func):
        nid = len(self.names)
        self.names.append(qualname)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current_op < 0:
                return func(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            tracer._on_result(qualname, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a burneq module references it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "burneq" or n.startswith("burneq.")) and m is not None]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"burneq.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # ------------------------------------------------------------ reduction

    def totals(self, ops) -> dict[str, float]:
        """Self seconds, calls and counts summed over spans of the given op ids."""
        ops = set(ops)
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
        for i in range(len(self.start)):
            if self.op[i] in ops:
                name = self.names[self.name_id[i]]
                out[f"{name}.s"] += self.end[i] - self.start[i] - child[i]
                out[f"{name}.calls"] += 1
        for name in COUNTS:
            out[name] = sum(self.counts[op].get(name, 0) for op in ops)
        return out

    def span_count(self) -> int:
        return len(self.start)
