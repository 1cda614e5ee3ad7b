"""JSON descriptor files for groups, representations and maps.

Formats:

  group: {"points": k, "generators": [[images...], ...]} with 0-based
         images; the permutation [1, 0, 2] maps 0 to 1, 1 to 0, 2 to 2.
  representation: {"dim": n, "generator_matrices": [[[entry, ...], ...], ...]}
         with rational entries as strings "p/q" (plain integers accepted);
         matrix order matches the group generator order.
  map: {"rep": id-or-null, "pieces": [{"base_point": [...], "radius": "p/q",
         "epsilon": "p/q", "local": {...}}]} where local is one of
         {"type": "linear", "matrix": [[...], ...]},
         {"type": "expr", "exprs": ["x1 - x2^2", ...]},
         {"type": "degree", "d": -2}.

k, n, the images and d are JSON integers; a bool or float is an error.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from . import expr as expr_mod
from .degree import (
    DeclaredLocalMap,
    ExpressionLocalMap,
    LinearLocalMap,
    PolystandardMap,
    polystandard_map,
    standard_piece,
)
from .errors import DescriptorError
from .group import DEFAULT_ORDER_CAP, FiniteGroup, generate_group
from .representation import OrthogonalRepresentation, build_representation


def _fraction(value, where: str) -> Fraction:
    """A rational from a JSON integer or string. An ASCII "-?digits" or
    "-?digits/digits" is read with int; any other string goes through
    Fraction's own parser, which accepts the same values and more spellings."""
    try:
        if isinstance(value, bool):
            raise ValueError(value)
        if isinstance(value, str) and value.isascii():
            num, slash, den = value.removeprefix("-").partition("/")
            if num.isdigit() and (den.isdigit() or not slash):
                n = -int(num) if value[0] == "-" else int(num)
                return Fraction(n, int(den)) if slash else Fraction(n)
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise DescriptorError(f"{where}: expected a rational like \"p/q\", got {value!r}")


def _integer(value, where: str) -> int:
    """A JSON integer; bools and floats such as 2.5 or 2.0 are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DescriptorError(f"{where}: expected an integer, got {value!r}")


def _load_json(path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DescriptorError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer beyond int's digit limit
        raise DescriptorError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DescriptorError(f"{path}: top level must be a JSON object")
    return data


def load_group(path, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    data = _load_json(path)
    try:
        points = _integer(data["points"], f"{path} 'points'")
        generators = [[_integer(x, f"{path} generator {k}") for x in p]
                      for k, p in enumerate(data["generators"])]
    except (KeyError, TypeError) as exc:
        raise DescriptorError(f"{path}: needs integer 'points' and 'generators'") from exc
    try:
        group = generate_group(generators, order_cap=order_cap)
    except ValueError as exc:
        raise DescriptorError(f"{path}: {exc}") from exc
    if group.points != points:
        raise DescriptorError(
            f"{path}: generators act on {group.points} points, header says {points}"
        )
    return group


def load_representation(path, group: FiniteGroup) -> OrthogonalRepresentation:
    data = _load_json(path)
    try:
        dim = _integer(data["dim"], f"{path} 'dim'")
        raw = data["generator_matrices"]
    except KeyError as exc:
        raise DescriptorError(
            f"{path}: needs integer 'dim' and 'generator_matrices'"
        ) from exc
    if not isinstance(raw, list) or not all(
        isinstance(m, list) and all(isinstance(row, list) for row in m) for m in raw
    ):
        raise DescriptorError(f"{path}: 'generator_matrices' must be lists of row lists")
    matrices = [
        [[_fraction(entry, f"{path} matrix {k}") for entry in row] for row in matrix]
        for k, matrix in enumerate(raw)
    ]
    rep = build_representation(group, matrices, label=data.get("id"))
    if rep.dim != dim:
        raise DescriptorError(f"{path}: matrices are {rep.dim}x{rep.dim}, header says {dim}")
    return rep


def _local_from_dict(data: dict, rep: OrthogonalRepresentation, where: str):
    if not isinstance(data, dict):
        raise DescriptorError(f"{where}: 'local' must be a JSON object")
    kind = data.get("type")
    if kind == "linear":
        matrix = data.get("matrix")
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise DescriptorError(f"{where}: linear local map needs 'matrix', a list of rows")
        return LinearLocalMap(
            tuple(tuple(_fraction(x, where) for x in row) for row in matrix)
        )
    if kind == "expr":
        sources = data.get("exprs")
        if not isinstance(sources, list) or not all(isinstance(src, str) for src in sources):
            raise DescriptorError(f"{where}: expression local map needs 'exprs', a list of strings")
        return ExpressionLocalMap(
            tuple(expr_mod.parse(src, rep.dim) for src in sources)
        )
    if kind == "degree":
        try:
            return DeclaredLocalMap(_integer(data["d"], f"{where} 'd'"))
        except KeyError as exc:
            raise DescriptorError(f"{where}: declared local map needs integer 'd'") from exc
    raise DescriptorError(f"{where}: unknown local map type {kind!r}")


def load_map(path, rep: OrthogonalRepresentation) -> PolystandardMap:
    data = _load_json(path)
    declared_rep = data.get("rep")
    if declared_rep is not None and rep.label is not None and declared_rep != rep.label:
        raise DescriptorError(
            f"{path}: map references representation {declared_rep!r}, "
            f"got {rep.label!r}"
        )
    raw_pieces = data.get("pieces")
    if not isinstance(raw_pieces, list):
        raise DescriptorError(f"{path}: needs a 'pieces' list")
    pieces = []
    for k, raw in enumerate(raw_pieces):
        where = f"{path} piece {k}"
        try:
            base = raw["base_point"]
            if not isinstance(base, list):
                raise DescriptorError(f"{where}: 'base_point' must be a list of rationals")
            base = [_fraction(x, where) for x in base]
            radius = _fraction(raw["radius"], where)
            epsilon = _fraction(raw["epsilon"], where)
            local = _local_from_dict(raw["local"], rep, where)
        except (KeyError, TypeError) as exc:
            raise DescriptorError(
                f"{where}: needs base_point, radius, epsilon and local"
            ) from exc
        pieces.append(standard_piece(rep, base, local, radius=radius, epsilon=epsilon))
    return polystandard_map(rep, tuple(pieces))


def map_to_dict(f: PolystandardMap) -> dict:
    pieces = []
    for piece in f.pieces:
        if isinstance(piece.local, LinearLocalMap):
            local = {
                "type": "linear",
                "matrix": [[str(x) for x in row] for row in piece.local.matrix],
            }
        elif isinstance(piece.local, ExpressionLocalMap):
            local = {"type": "expr", "exprs": [str(e) for e in piece.local.exprs]}
        else:
            local = {"type": "degree", "d": piece.local.index}
        pieces.append(
            {
                "base_point": [str(x) for x in piece.base_point],
                "radius": str(piece.radius),
                "epsilon": str(piece.epsilon),
                "local": local,
            }
        )
    return {"rep": f.rep.label, "pieces": pieces}


def save_map(path, f: PolystandardMap) -> None:
    Path(path).write_text(
        json.dumps(map_to_dict(f), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

