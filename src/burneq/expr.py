"""A small arithmetic expression language for coordinate maps.

Grammar (standard precedence, left associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' uint)?
    atom   := number | variable | '(' expr ')'

Numbers are decimal literals, kept and printed exactly; variables are
x1..xn for the declared dimension; '^' takes a literal non-negative integer
exponent and binds tighter than unary minus, so "-x1^2" means -(x1^2).
`jet` is exact, and so is `interval_jet`, its interval form over a box.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from sys import float_info
from typing import Sequence, Union

from .errors import (
    BadExponent,
    DivisionByZero,
    ExprSyntaxError,
    UnknownVariable,
)

EXACT_POWER_BITS = 2 ** 20  # jet refuses a power whose exact value would need more bits


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Affine:
    """c + sum_k a_k u_k: a subtree of a `restrict`ed tree, affine in u."""

    const: Fraction
    coeffs: tuple[Fraction, ...]


Node = Union[Num, Var, Neg, BinOp, Pow, Affine]
Interval = tuple[Fraction, Fraction]  # (lo, hi), exact endpoints


@dataclass(frozen=True)
class Expr:
    """A parsed expression together with its declared variable dimension."""

    root: Node
    dim: int

    def __str__(self) -> str:
        return _to_source(self.root, 1)


# ---------------------------------------------------------------- tokenizer

_OPS = set("+-*/^()")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch in " \t":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                if j == n or not src[j].isdigit():
                    raise ExprSyntaxError("digits required after decimal point", j)
                while j < n and src[j].isdigit():
                    j += 1
            tokens.append(("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, src: str, dim: int):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.dim = dim

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, offset = self.next()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)

    def parse(self) -> Node:
        try:
            node = self.expr()
        except ValueError as exc:  # int() on the token just read: a digit it refuses, or too many
            raise ExprSyntaxError(f"bad literal: {exc}", self.tokens[self.pos - 1][2]) from exc
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {value!r}", offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.next()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[:2] == ("op", "-"):
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.next()
            kind, value, offset = self.next()
            if kind != "num" or "." in value:
                raise BadExponent(
                    f"exponent must be a literal non-negative integer (offset {offset})"
                )
            return Pow(base, int(value))
        return base

    def atom(self) -> Node:
        kind, value, offset = self.next()
        if kind == "num":
            return Num(Fraction(value))
        if kind == "ident":
            if value.startswith("x") and value[1:].isdigit():
                index = int(value[1:])
                if 1 <= index <= self.dim:
                    return Var(index)
            raise UnknownVariable(
                f"unknown variable {value!r}; expected x1..x{self.dim}"
            )
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {value!r}", offset)


def parse(src: str, dim: int) -> Expr:
    """Parse an expression over variables x1..x<dim>."""
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    return Expr(root=_Parser(src, dim).parse(), dim=dim)


# ---------------------------------------------------------------- printing

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _node_level(node: Node) -> int:
    if isinstance(node, BinOp):
        return _LEVEL_ADD if node.op in "+-" else _LEVEL_MUL
    if isinstance(node, Neg):
        return _LEVEL_NEG
    if isinstance(node, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _decimal(q: Fraction) -> str:
    """The exact text of a decimal literal; 10^k is a multiple of 2^a 5^b < 2^k."""
    k = q.denominator.bit_length()
    digits = str(q.numerator * 10 ** k // q.denominator).rjust(k + 1, "0")
    whole, frac = digits[:-k], digits[-k:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


def _to_source(node: Node, min_level: int) -> str:
    if isinstance(node, Num):
        text = _decimal(Fraction(node.value))
    elif isinstance(node, Var):
        text = f"x{node.index}"
    elif isinstance(node, Neg):
        text = "-" + _to_source(node.operand, _LEVEL_NEG)
    elif isinstance(node, Pow):
        text = f"{_to_source(node.base, _LEVEL_ATOM)}^{node.exponent}"
    else:
        level = _node_level(node)
        text = (
            f"{_to_source(node.left, level)} {node.op} "
            f"{_to_source(node.right, level + 1)}"
        )
    return f"({text})" if _node_level(node) < min_level else text


def to_source(e: Expr) -> str:
    """Print an expression; parse(to_source(e), e.dim) rebuilds the same tree."""
    return str(e)


# ---------------------------------------------------------------- evaluation

def jet(e: Expr, point: Sequence[Fraction],
        direction: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """Exact value and directional derivative at a rational point. Raises
    DivisionByZero on a zero divisor, and OverflowError on a literal or a power
    outside the float range or beyond EXACT_POWER_BITS, sized before it is taken."""
    def ev(node: Node) -> tuple[Fraction, Fraction]:
        if isinstance(node, Num):
            if node.value > float_info.max:
                raise OverflowError("a literal out of floating-point range")
            return node.value, 0
        if isinstance(node, Var):
            return point[node.index - 1], direction[node.index - 1]
        if isinstance(node, Neg):
            return tuple(-x for x in ev(node.operand))
        if isinstance(node, Pow):
            (v, dv), n = ev(node.base), node.exponent
            num, den = (math.log2(abs(v.numerator)), math.log2(v.denominator)) if v else (0, 0)
            if not float_info.min_exp - float_info.mant_dig <= n * (num - den) <= float_info.max_exp:
                raise OverflowError("a power value out of floating-point range")
            if n * (num + den) > EXACT_POWER_BITS:
                raise OverflowError("a power too large to evaluate exactly")
            p = v ** max(n - 1, 0)  # v^(n-1), or v^0 = v^n for n = 0
            return p * v if n else p, n * p * dv
        (a, da), (b, db) = ev(node.left), ev(node.right)
        if node.op == "+":
            return a + b, da + db
        if node.op == "-":
            return a - b, da - db
        if node.op == "*":
            return a * b, da * b + a * db
        if b == 0:
            raise DivisionByZero("division by zero during exact evaluation")
        return a / b, (da * b - a * db) / (b * b)

    return ev(e.root)


# ---------------------------------------------------------------- intervals

def restrict(e: Expr, point: Sequence[Fraction],
             basis: Sequence[Sequence[Fraction]]) -> Node:
    """The tree of e on x = point + sum_k u_k basis[k], as a function of u.

    Every subtree that is affine in u, constants among them, is folded into
    one `Affine` leaf, once, so that `interval_jet` takes the exact range of
    each such leaf over a box. Raises OverflowError on a constant power
    beyond EXACT_POWER_BITS.
    """
    zero = (0,) * len(basis)

    def scaled(a: Affine, c: Fraction) -> Affine:
        return Affine(a.const * c, tuple(x * c for x in a.coeffs))

    def constant(a: Node) -> bool:
        return isinstance(a, Affine) and not any(a.coeffs)

    def fold(node: Node) -> Node:
        if isinstance(node, Num):
            return Affine(node.value, zero)
        if isinstance(node, Var):
            j = node.index - 1
            return Affine(point[j], tuple(b[j] for b in basis))
        if isinstance(node, Neg):
            a = fold(node.operand)
            return scaled(a, -1) if isinstance(a, Affine) else Neg(a)
        if isinstance(node, Pow):
            a, n = fold(node.base), node.exponent
            if n == 1:
                return a
            if n == 0 and isinstance(a, Affine):
                return Affine(Fraction(1), zero)
            if constant(a):
                return Affine(_ipow((a.const, a.const), n)[0], zero)
            return Pow(a, n)  # n = 0 too: x^0 = 1 only where the base is defined
        a, b = fold(node.left), fold(node.right)
        if isinstance(a, Affine) and isinstance(b, Affine):
            if node.op == "+":
                return Affine(a.const + b.const, tuple(map(operator.add, a.coeffs, b.coeffs)))
            if node.op == "-":
                return Affine(a.const - b.const, tuple(map(operator.sub, a.coeffs, b.coeffs)))
        if node.op == "*" and constant(a) and isinstance(b, Affine):
            return scaled(b, a.const)
        if node.op in "*/" and isinstance(a, Affine) and constant(b) and b.const:
            return scaled(a, b.const if node.op == "*" else 1 / b.const)
        return BinOp(node.op, a, b)

    return fold(e.root)


def _imul(a: Interval, b: Interval) -> Interval:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _ipow(v: Interval, n: int) -> Interval:
    """The exact range of x^n over v, for n >= 1, within EXACT_POWER_BITS."""
    lo, hi = v
    if any(x and n * (x.numerator.bit_length() + x.denominator.bit_length()) > EXACT_POWER_BITS
           for x in v):
        raise OverflowError("a power too large to evaluate exactly")
    a, b = lo ** n, hi ** n
    if n % 2 or lo >= 0:
        return a, b
    return (b, a) if hi <= 0 else (0, max(a, b))


def interval_jet(node: Node, center: Sequence[Fraction],
                 radii: Sequence[Fraction]) -> tuple[Interval, list[Interval]]:
    """Exact enclosures of the value and the gradient in u of a `restrict`ed
    tree over the box |u_k - center_k| <= radii_k, in one pass.

    Interval arithmetic over Fraction endpoints (Moore, Interval Analysis,
    1966): every value the tree takes on the box lies in the value
    interval, and every partial derivative in its gradient interval. Raises
    DivisionByZero when a divisor's enclosure contains 0, and OverflowError
    on a power beyond EXACT_POWER_BITS.
    """
    def ev(node: Node) -> tuple[Interval, list[Interval]]:
        if isinstance(node, Affine):
            mid, rad = node.const, 0
            for a, c, r in zip(node.coeffs, center, radii):
                if a:
                    mid += a * c
                    rad += abs(a) * r
            return (mid - rad, mid + rad), [(a, a) for a in node.coeffs]
        if isinstance(node, Neg):
            (lo, hi), grad = ev(node.operand)
            return (-hi, -lo), [(-h, -g) for g, h in grad]
        if isinstance(node, Pow):
            (v, dv), n = ev(node.base), node.exponent
            if n == 0:
                return (1, 1), [(0, 0)] * len(dv)
            p = _ipow(v, n - 1)
            return _ipow(v, n), [_imul((n * p[0], n * p[1]), g) for g in dv]
        (a, da), (b, db) = ev(node.left), ev(node.right)
        if node.op == "+":
            return ((a[0] + b[0], a[1] + b[1]),
                    [(x[0] + y[0], x[1] + y[1]) for x, y in zip(da, db)])
        if node.op == "-":
            return ((a[0] - b[1], a[1] - b[0]),
                    [(x[0] - y[1], x[1] - y[0]) for x, y in zip(da, db)])
        if node.op == "*":
            grad = []
            for x, y in zip(da, db):
                s, t = _imul(x, b), _imul(a, y)
                grad.append((s[0] + t[0], s[1] + t[1]))
            return _imul(a, b), grad
        if b[0] <= 0 <= b[1]:
            raise DivisionByZero("a divisor's enclosure contains zero")
        inv = (Fraction(1) / b[1], Fraction(1) / b[0])
        q = _imul(a, inv)
        # d(a/b) = (da - (a/b) db) / b
        grad = []
        for x, y in zip(da, db):
            t = _imul(q, y)
            grad.append(_imul((x[0] - t[1], x[1] - t[0]), inv))
        return q, grad

    return ev(node)

