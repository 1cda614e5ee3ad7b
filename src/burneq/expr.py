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
`jet` is exact, and so is `integer_interval_jet`, its interval form over a
box, on integer endpoints over one denominator per interval.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def cleared(self) -> tuple[int, tuple[int, ...], int, tuple[tuple[int, int, int], ...]]:
        """(C, A, q, gradient): const = C / q and coeffs = A / q over their
        lcm q, and the gradient intervals (a, a, q), cleared on first use."""
        q = math.lcm(self.const.denominator, *(a.denominator for a in self.coeffs))
        coeffs = tuple(a.numerator * (q // a.denominator) for a in self.coeffs)
        return (self.const.numerator * (q // self.const.denominator), coeffs, q,
                tuple((a, a, q) for a in coeffs))


Node = Union[Num, Var, Neg, BinOp, Pow, Affine]
IntInterval = tuple[int, int, int]  # (lo, hi, den): [lo / den, hi / den], den > 0
Box = tuple[Sequence[int], Sequence[int], int]  # centre and radii, integers over one den


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
    one `Affine` leaf, once, so that `integer_interval_jet` takes the exact
    range of each such leaf over a box. Raises OverflowError on a constant
    power beyond EXACT_POWER_BITS.
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
                c = a.const
                power, _, den = _ipow((c.numerator, c.numerator, c.denominator), n)
                return Affine(Fraction(power, den), zero)
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


def _ipow(v: IntInterval, n: int) -> IntInterval:
    """The exact range of x^n over v, for n >= 1, within EXACT_POWER_BITS.

    The bound is on each nonzero endpoint in lowest terms. Unreduced sizes
    bound those from above, so an endpoint is reduced only when its
    unreduced size is over the bound."""
    lo, hi, den = v
    if n * (max(lo.bit_length(), hi.bit_length()) + den.bit_length()) > EXACT_POWER_BITS:
        for x in (lo, hi):
            g = math.gcd(x, den)
            if x and n * ((x // g).bit_length() + (den // g).bit_length()) > EXACT_POWER_BITS:
                raise OverflowError("a power too large to evaluate exactly")
        g = math.gcd(lo, hi, den)
        lo, hi, den = lo // g, hi // g, den // g
    a, b, den = lo ** n, hi ** n, den ** n
    if n % 2 or lo >= 0:
        return a, b, den
    return (b, a, den) if hi <= 0 else (0, max(a, b), den)


def _imul(a: IntInterval, b: IntInterval) -> IntInterval:
    a0, a1, ad = a
    b0, b1, bd = b
    if a0 == a1:
        x, y = a0 * b0, a0 * b1
        return (x, y, ad * bd) if x <= y else (y, x, ad * bd)
    products = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    return min(products), max(products), ad * bd


def _iadd(a: IntInterval, b: IntInterval) -> IntInterval:
    a0, a1, ad = a
    b0, b1, bd = b
    if ad == bd:
        return a0 + b0, a1 + b1, ad
    return a0 * bd + b0 * ad, a1 * bd + b1 * ad, ad * bd


def _isub(a: IntInterval, b: IntInterval) -> IntInterval:
    a0, a1, ad = a
    b0, b1, bd = b
    if ad == bd:
        return a0 - b1, a1 - b0, ad
    return a0 * bd - b1 * ad, a1 * bd - b0 * ad, ad * bd


def clear_box(center: Sequence[Fraction], radii: Sequence[Fraction]) -> Box:
    """The box |u_k - center_k| <= radii_k as integers over the lcm of its
    denominators."""
    den = math.lcm(*(x.denominator for x in center), *(x.denominator for x in radii))
    return ([x.numerator * (den // x.denominator) for x in center],
            [x.numerator * (den // x.denominator) for x in radii], den)


def integer_interval_jet(node: Node, box: Box) -> tuple[IntInterval, list[IntInterval]]:
    """Exact enclosures of the value and the gradient in u of a `restrict`ed
    tree over a `clear_box`ed box, in one pass of interval arithmetic (Moore,
    Interval Analysis, 1966) on integer endpoints over one positive
    denominator per interval, with no gcd and no Fraction. Raises
    DivisionByZero when a divisor's enclosure contains 0, and OverflowError
    on a power beyond EXACT_POWER_BITS."""
    center, radii, den = box

    def ev(node: Node) -> tuple[IntInterval, Sequence[IntInterval]]:
        if isinstance(node, Affine):
            const, coeffs, q, grad = node.cleared
            mid, rad = const * den, 0
            for a, c, r in zip(coeffs, center, radii):
                if a:
                    mid += a * c
                    rad += abs(a) * r
            return (mid - rad, mid + rad, q * den), grad
        if isinstance(node, Neg):
            (lo, hi, d), grad = ev(node.operand)
            return (-hi, -lo, d), [(-h, -g, e) for g, h, e in grad]
        if isinstance(node, Pow):
            (v, dv), n = ev(node.base), node.exponent
            if n == 0:
                return (1, 1, 1), [(0, 0, 1)] * len(dv)
            p0, p1, pd = _ipow(v, n - 1)
            p = (n * p0, n * p1, pd)
            return _ipow(v, n), [_imul(p, g) for g in dv]
        (a, da), (b, db) = ev(node.left), ev(node.right)
        if node.op == "+":
            return _iadd(a, b), list(map(_iadd, da, db))
        if node.op == "-":
            return _isub(a, b), list(map(_isub, da, db))
        if node.op == "*":
            return _imul(a, b), [_iadd(_imul(x, b), _imul(a, y)) for x, y in zip(da, db)]
        b0, b1, bd = b
        if b0 <= 0 <= b1:
            raise DivisionByZero("a divisor's enclosure contains zero")
        inv = (bd * b0, bd * b1, b0 * b1)  # [1 / b1, 1 / b0]; b0 b1 > 0
        q = _imul(a, inv)
        # d(a/b) = (da - (a/b) db) / b
        return q, [_imul(_isub(x, _imul(q, y)), inv) for x, y in zip(da, db)]

    value, grad = ev(node)
    return value, list(grad)
