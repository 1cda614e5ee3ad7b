"""Command-line front end.

Exit codes: 0 success (and equal sides for `product`), 1 input errors
(malformed flags included) or a failed product check, 2 infeasible
realization targets, 3 internal assertion failures, 141 a closed stdout
(what a shell reports after SIGPIPE, as in `burneq ... | head -n 1`).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import burnside, degree, descriptors, fuzz, realize
from .errors import (
    BurneqError,
    DescriptorError,
    EmptyOrbitTypeStratum,
    InfeasibleCoefficient,
    NonIntegralSolution,
)
from .group import (
    DEFAULT_ORDER_CAP,
    class_labels,
    class_leq,
    double_cosets,
    left_cosets,
    subgroup_classes,
    weyl_data,
)
from .representation import orbit_types


def _order_cap() -> int:
    value = os.environ.get("BURNEQ_ORDER_CAP")
    if not value:
        return DEFAULT_ORDER_CAP
    try:
        if value.strip().isdecimal() and int(value) >= 1:
            return int(value)
    except ValueError:  # beyond int's digit limit
        pass
    raise DescriptorError(f"BURNEQ_ORDER_CAP must be a positive integer, got {value!r}")


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _load_group(args):
    return descriptors.load_group(args.group, order_cap=_order_cap())


def cmd_group(args) -> int:
    rep_path = _optional(args.rep, "-r/--rep")
    group = _load_group(args)
    classes = subgroup_classes(group)
    labels = class_labels(group)
    rows = []
    for cls, label in zip(classes, labels):
        wd = weyl_data(group, cls.representative)
        rows.append(
            {
                "index": cls.class_index,
                "label": label,
                "order": cls.representative.order,
                "members": len(cls.members),
                "weyl_order": wd.weyl_order,
            }
        )
    leq = [
        [b.class_index for b in classes if class_leq(a, b)] for a in classes
    ]
    payload = {"order": group.order, "points": group.points, "classes": rows, "leq": leq}
    lines = [f"order: {group.order}", f"points: {group.points}", "classes:"]
    lines.append("  idx  order  members  weyl  label")
    for row in rows:
        lines.append(
            f"  {row['index']:<4} {row['order']:<6} {row['members']:<8} "
            f"{row['weyl_order']:<5} {row['label']}"
        )
    lines.append("partial order (classes <= class i):")
    for row, below in zip(rows, leq):
        lines.append(f"  {row['index']}: {' '.join(str(i) for i in below)}")
    if rep_path:
        rep = descriptors.load_representation(rep_path, group)
        table = orbit_types(rep)
        payload["orbit_types"] = [
            {
                "class": e.class_index,
                "dim_fixed": e.dim_fixed,
                "occupied": e.occupied,
            }
            for e in table.entries
        ]
        lines.append("orbit types:")
        for e in table.entries:
            mark = "occupied" if e.occupied else "empty"
            lines.append(
                f"  {e.class_index}: dim V^H = {e.dim_fixed}  [{mark}]"
            )
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_marks(args) -> int:
    group = _load_group(args)
    tom = burnside.table_of_marks(group)
    csv_text = burnside.marks_csv(tom)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
    if args.format == "json":
        print(json.dumps({"labels": list(class_labels(group)),
                          "marks": [list(r) for r in tom.marks]}, sort_keys=True))
    elif not args.out:
        print(csv_text, end="")
    return 0


def cmd_mul(args) -> int:
    group = _load_group(args)
    a = burnside.parse_element(group, args.a)
    b = burnside.parse_element(group, args.b)
    product = burnside.mul(a, b)
    _emit(
        args,
        {"coeffs": list(product.coeffs), "text": burnside.format_element(product)},
        burnside.format_element(product),
    )
    return 0


def _single(values, flag: str):
    if not values or len(values) != 1:
        raise DescriptorError(f"exactly one {flag} is required")
    return values[0]


def _optional(values, flag: str):
    if values and len(values) > 1:
        raise DescriptorError(f"at most one {flag} is allowed")
    return values[0] if values else None


def _pair(values, first, second, flag: str):
    """The two paths of `product`: -x1 and -x2 where given, else the values
    of the repeated flag in order; a value that neither slot reads is refused."""
    values = values or []
    slots = (first, second)
    if any(k > 1 or slots[k] for k in range(len(values))):
        raise DescriptorError(f"surplus {flag}: product takes two, "
                              f"counting {flag[:2]}1 and {flag[:2]}2")
    return tuple(s or (values[k] if k < len(values) else None) for k, s in enumerate(slots))


def cmd_degree(args) -> int:
    group = _load_group(args)
    rep = descriptors.load_representation(_single(args.rep, "-r/--rep"), group)
    f = descriptors.load_map(_single(args.map, "-m/--map"), rep)
    result = degree.deg_polystandard(f)
    text_lines = [f"deg = {burnside.format_element(result.value)}"]
    labels = class_labels(group)
    for row in result.per_orbit:
        text_lines.append(
            f"orbit {row.orbit_label}: class [G/{labels[row.class_index]}], "
            f"index {row.index}"
        )
    _emit(
        args,
        {
            "coeffs": list(result.value.coeffs),
            "text": burnside.format_element(result.value),
            "per_orbit": [
                {
                    "orbit": row.orbit_label,
                    "class": row.class_index,
                    "index": row.index,
                }
                for row in result.per_orbit
            ],
        },
        "\n".join(text_lines),
    )
    return 0


def cmd_product(args) -> int:
    rep1_path, rep2_path = _pair(args.rep, args.r1, args.r2, "-r/--rep")
    map1_path, map2_path = _pair(args.map, args.m1, args.m2, "-m/--map")
    if not all([rep1_path, rep2_path, map1_path, map2_path]):
        raise DescriptorError(
            "product needs two representations and two maps "
            "(-r1/-r2/-m1/-m2, or -r and -m twice)"
        )
    group = _load_group(args)
    rep1 = descriptors.load_representation(rep1_path, group)
    rep2 = descriptors.load_representation(rep2_path, group)
    f = descriptors.load_map(map1_path, rep1)
    g = descriptors.load_map(map2_path, rep2)
    check = degree.verify_product(f, g)
    lhs = burnside.format_element(check.lhs)
    rhs = burnside.format_element(check.rhs)
    text = "\n".join(
        [
            f"deg(f x f') = {lhs}",
            f"deg(f) * deg(f') = {rhs}",
            f"equal: {'yes' if check.equal else 'no'}",
        ]
    )
    _emit(
        args,
        {
            "lhs": {"coeffs": list(check.lhs.coeffs), "text": lhs},
            "rhs": {"coeffs": list(check.rhs.coeffs), "text": rhs},
            "equal": check.equal,
            "orbits": [
                {
                    "base": r.base_label,
                    "class": r.class_index,
                    "d_left": r.index_left,
                    "d_right": r.index_right,
                    "d_product": r.index_product,
                    "consistent": r.consistent,
                }
                for r in check.orbit_rows
            ],
        },
        text,
    )
    return 0 if check.equal else 1


def cmd_realize(args) -> int:
    group = _load_group(args)
    rep = descriptors.load_representation(_single(args.rep, "-r/--rep"), group)
    element = burnside.parse_element(group, args.element)
    f = realize.realize_element(realize.RealizationTarget(element=element, rep=rep))
    if args.out:
        descriptors.save_map(args.out, f)
    payload = descriptors.map_to_dict(f)
    payload["degree"] = burnside.format_element(element)
    _emit(
        args,
        payload,
        f"realized {burnside.format_element(element)} with {len(f.pieces)} pieces"
        + (f" -> {args.out}" if args.out else ""),
    )
    return 0


def cmd_check(args) -> int:
    if args.pairs < 0:
        raise DescriptorError(f"--pairs must not be negative, got {args.pairs}")
    rep_path = _optional(args.rep, "-r/--rep")
    group = _load_group(args)
    classes = subgroup_classes(group)
    failures = 0

    # G/H x G/K splits into one orbit G/(H ∩ g K g^-1) per double coset H g K
    basis = [burnside.basis_element(group, c.class_index) for c in classes]
    tables = [left_cosets(group, c.representative) for c in classes]
    for a, x in zip(classes, basis):
        for table, y in zip(tables, basis):
            coeffs = [0] * len(classes)
            for _, sub in double_cosets(group, a.representative, table):
                coeffs[group.class_of[sub.mask]] += 1
            failures += burnside.mul(x, y).coeffs != tuple(coeffs)
    print(f"marks-vs-orbit oracle: {len(classes) ** 2} class pairs, "
          f"{'OK' if failures == 0 else f'{failures} FAILED'}")

    if rep_path:
        rep = descriptors.load_representation(rep_path, group)
        rng = random.Random(args.seed)
        bad = 0
        for _ in range(args.pairs):
            f = fuzz.random_polystandard_map(rep, rng)
            g = fuzz.random_polystandard_map(rep, rng)
            if not degree.verify_product(f, g).equal:
                bad += 1
        print(f"product fuzz: {args.pairs} pairs, seed {args.seed}, "
              f"{'OK' if bad == 0 else f'{bad} FAILED'}")
        failures += bad

    if failures:
        raise AssertionError(f"{failures} self-check failures")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line is an input error: one line on stderr, exit 1."""

    def error(self, message):
        raise DescriptorError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="burneq",
        description="Burnside ring arithmetic and equivariant degrees of "
        "polystandard maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rep=True, maps=False):
        p.add_argument("-g", "--group", required=True, help="group descriptor JSON")
        if rep:
            p.add_argument("-r", "--rep", action="append",
                           help="representation descriptor JSON")
        if maps:
            p.add_argument("-m", "--map", action="append", help="map descriptor JSON")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("group", help="print subgroup classes and orbit types")
    common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("marks", help="print the table of marks as CSV")
    common(p, rep=False)
    p.add_argument("-o", "--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_marks)

    p = sub.add_parser("mul", help="multiply two elements given in text form")
    common(p, rep=False)
    p.add_argument("-a", required=True, help='element, e.g. "1*[G/e] + 1*[G/(1 2)]"')
    p.add_argument("-b", required=True, help="element")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("degree", help="degree of a polystandard map")
    common(p, maps=True)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("product", help="verify the product formula on two maps")
    common(p, maps=True)
    p.add_argument("-r1", help="representation of the first map")
    p.add_argument("-r2", help="representation of the second map")
    p.add_argument("-m1", help="first map")
    p.add_argument("-m2", help="second map")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("realize", help="construct a map with a prescribed degree")
    common(p)
    p.add_argument("-e", "--element", required=True, help="target element text")
    p.add_argument("-o", "--out", help="write the map descriptor here")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("check", help="run the self-check suite on a group")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="fuzzing seed")
    p.add_argument("--pairs", type=int, default=25, help="number of fuzzed map pairs")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, inside the handlers
        return status
    except BrokenPipeError:  # the reader has gone: send the rest nowhere, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InfeasibleCoefficient, EmptyOrbitTypeStratum) as exc:
        reason = {
            "error": type(exc).__name__,
            "reason": str(exc),
            "kind": getattr(exc, "kind", None),
            "class_index": getattr(exc, "class_index", None),
        }
        print(json.dumps(reason, sort_keys=True), file=sys.stderr)
        return 2
    except (NonIntegralSolution, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (BurneqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
