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
`fold` walks an expression once, on integers: it takes the exact value at a
rational point and folds the tree along a basis there. `integer_interval_jet`
encloses the value and gradient of a folded tree over a box, on integer
endpoints over one denominator per interval.
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

_FLOAT_MAX = int(float_info.max)  # exact: literals are compared with it on integers
EXACT_POWER_BITS = 2 ** 20  # `fold` and `_ipow` refuse a power whose exact value needs more bits


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
    """c + sum_k a_k u_k: a subtree of a `restrict`ed tree, affine in u, kept
    as integers over one positive denominator, c = num / den and a_k =
    nums[k] / den."""

    num: int
    nums: tuple[int, ...]
    den: int

    @property
    def const(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    @cached_property
    def cleared(self) -> tuple[int, tuple[int, ...], int, tuple[tuple[int, int, int], ...]]:
        """(C, A, q, gradient): num, nums and den over their gcd, so that q is
        the lcm of the denominators of c and the a_k in lowest terms, and the
        gradient intervals (a, a, q), cleared on first use."""
        g = math.gcd(self.num, *self.nums, self.den)
        coeffs = tuple(a // g for a in self.nums)
        q = self.den // g
        return self.num // g, coeffs, q, tuple((a, a, q) for a in coeffs)


Node = Union[Num, Var, Neg, BinOp, Pow, Affine]
IntInterval = tuple[int, int, int]  # (lo, hi, den): [lo / den, hi / den], den > 0
Box = tuple[Sequence[int], Sequence[int], int]  # centre and radii, integers over one den


@dataclass(frozen=True)
class Expr:
    """A parsed expression together with its declared variable dimension."""

    root: Node
    dim: int

    def __str__(self) -> str:
        """The expression as source text; parse(str(e), e.dim) rebuilds the same tree."""
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


# ---------------------------------------------------------------- folding

def _sum(a: Affine, b: Affine, sign: int) -> Affine:
    """a + sign * b over the lcm of the two denominators."""
    if a.den == b.den:
        return Affine(a.num + sign * b.num,
                      tuple(x + sign * y for x, y in zip(a.nums, b.nums)), a.den)
    g = math.gcd(a.den, b.den)
    s, t = b.den // g, sign * (a.den // g)
    return Affine(a.num * s + b.num * t,
                  tuple(x * s + y * t for x, y in zip(a.nums, b.nums)), a.den * s)


def _scaled(a: Affine, p: int, q: int) -> Affine:
    """a * p / q, for q != 0."""
    if q < 0:
        p, q = -p, -q
    return Affine(a.num * p, tuple(x * p for x in a.nums), a.den * q)


def _fold(e: Expr, point: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]
          ) -> tuple[Node, Fraction | None, list[Exception | None]]:
    """The walk behind `fold` and `restrict`: the tree, e's value at u = 0 (None
    where it is undefined), and the first fault of each kind found, in order:
    one of the value's, one of the fold's own. Nothing is raised here."""
    zero = (0,) * len(basis)
    faults: list[Exception | None] = [None, None]
    leaves: dict[int, Affine] = {}

    def fault(kind: int, exc: Exception) -> None:
        if faults[kind] is None:
            faults[kind] = exc

    def walk(node: Node) -> tuple[Node, int | None, int]:
        """The folded tree and its value at u = 0 as (numerator or None, denominator > 0)."""
        if isinstance(node, Num):
            v = node.value
            if v.numerator > _FLOAT_MAX * v.denominator:
                fault(0, OverflowError("a literal out of floating-point range"))
                return Affine(v.numerator, zero, v.denominator), None, 1
            return Affine(v.numerator, zero, v.denominator), v.numerator, v.denominator
        if isinstance(node, Var):
            a = leaves.get(node.index)
            if a is None:
                j = node.index - 1
                den = math.lcm(point[j].denominator, *(b[j].denominator for b in basis))
                a = leaves[node.index] = Affine(
                    point[j].numerator * (den // point[j].denominator),
                    tuple(b[j].numerator * (den // b[j].denominator) for b in basis), den)
            return a, a.num, a.den
        if isinstance(node, Neg):
            a, vn, vd = walk(node.operand)
            return (_scaled(a, -1, 1) if isinstance(a, Affine) else Neg(a),
                    None if vn is None else -vn, vd)
        if isinstance(node, Pow):
            a, vn, vd = walk(node.base)
            n = node.exponent
            if vn is not None:
                g = math.gcd(vn, vd)
                vn, vd = vn // g, vd // g
                num, den = (math.log2(abs(vn)), math.log2(vd)) if vn else (0, 0)
                if not (float_info.min_exp - float_info.mant_dig
                        <= n * (num - den) <= float_info.max_exp):
                    vn = fault(0, OverflowError("a power value out of floating-point range"))
                elif n * (num + den) > EXACT_POWER_BITS:
                    vn = fault(0, OverflowError("a power too large to evaluate exactly"))
                else:
                    vn, vd = vn ** n, vd ** n
            if n == 1:
                return a, vn, vd
            if isinstance(a, Affine) and n == 0:
                return Affine(1, zero, 1), vn, vd
            if isinstance(a, Affine) and not any(a.nums):
                g = math.gcd(a.num, a.den)
                try:
                    power, _, den = _ipow((a.num // g, a.num // g, a.den // g), n)
                except OverflowError as exc:
                    fault(1, exc)
                    return Pow(a, n), vn, vd
                return Affine(power, zero, den), vn, vd
            return Pow(a, n), vn, vd  # n = 0 too: x^0 = 1 only where the base is defined
        a, an, ad = walk(node.left)
        b, bn, bd = walk(node.right)
        op = node.op
        if an is None or bn is None:
            vn, vd = None, 1
        elif op == "+":
            vn, vd = (an + bn, ad) if ad == bd else (an * bd + bn * ad, ad * bd)
        elif op == "-":
            vn, vd = (an - bn, ad) if ad == bd else (an * bd - bn * ad, ad * bd)
        elif op == "*":
            vn, vd = an * bn, ad * bd
        elif bn:
            vn, vd = (an * bd, ad * bn) if bn > 0 else (-an * bd, -ad * bn)
        else:
            vn, vd = fault(0, DivisionByZero("division by zero during exact evaluation")), 1
        if isinstance(a, Affine) and isinstance(b, Affine):
            if op == "+":
                return _sum(a, b, 1), vn, vd
            if op == "-":
                return _sum(a, b, -1), vn, vd
            if op == "*" and not any(a.nums):
                return _scaled(b, a.num, a.den), vn, vd
            if not any(b.nums) and b.num:
                p, q = (b.num, b.den) if op == "*" else (b.den, b.num)
                return _scaled(a, p, q), vn, vd
        return BinOp(op, a, b), vn, vd

    tree, vn, vd = walk(e.root)
    return tree, None if vn is None else Fraction(vn, vd), faults


def fold(e: Expr, point: Sequence[Fraction],
         basis: Sequence[Sequence[Fraction]]) -> tuple[Fraction, Node]:
    """e's exact value at x = point, and its tree on x = point + sum_k u_k
    basis[k] as `restrict` gives it, from one walk of e.

    The value is taken node by node, left to right, and each power is sized
    before it is taken. The first fault found is raised: DivisionByZero on a
    zero divisor, and OverflowError on a literal or a power value outside
    the float range or a power beyond EXACT_POWER_BITS. A constant power is
    folded only after those checks, so "(x1 - 2) + 2^1100 - 2^1100" is
    refused at x1 = 2. Then `restrict`'s own OverflowError, if any, is raised.
    """
    tree, value, faults = _fold(e, point, basis)
    for exc in faults:
        if exc is not None:
            raise exc
    return value, tree


def restrict(e: Expr, point: Sequence[Fraction],
             basis: Sequence[Sequence[Fraction]]) -> Node:
    """The tree of e on x = point + sum_k u_k basis[k], as a function of u.

    Every subtree that is affine in u, constants among them, is folded into
    one `Affine` leaf, once, on integers, so that `integer_interval_jet`
    takes the exact range of each such leaf over a box. A tree that is
    undefined at u = 0 is still folded. Raises OverflowError on a constant
    power beyond EXACT_POWER_BITS.
    """
    tree, _, (_, exc) = _fold(e, point, basis)
    if exc is not None:
        raise exc
    return tree


def change_basis(node: Node, matrix: Sequence[Sequence[Fraction]]) -> Node:
    """A `restrict`ed tree in new coordinates v, u = matrix v: each `Affine`
    leaf c + a.u becomes c + (matrix^T a).v. For an invertible matrix a leaf
    is constant exactly when it was, so the tree keeps its shape."""
    q = math.lcm(*(c.denominator for row in matrix for c in row))
    columns = list(zip(*([c.numerator * (q // c.denominator) for c in row] for row in matrix)))

    def walk(node: Node) -> Node:
        if isinstance(node, Affine):
            if not any(node.nums):
                return node
            return Affine(node.num * q, tuple(sum(map(operator.mul, col, node.nums))
                                              for col in columns), node.den * q)
        if isinstance(node, Neg):
            return Neg(walk(node.operand))
        if isinstance(node, Pow):
            return Pow(walk(node.base), node.exponent)
        return BinOp(node.op, walk(node.left), walk(node.right))

    return walk(node)


# ---------------------------------------------------------------- intervals

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
