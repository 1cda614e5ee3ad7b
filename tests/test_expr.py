"""Expression parsing, printing, the exact jet and the exact Jacobian."""

import random
from fractions import Fraction

import pytest

import burneq.linalg as la
from burneq import degree, expr
from burneq.errors import (
    BadExponent,
    DivisionByZero,
    ExprSyntaxError,
    InvalidPiece,
    UnknownVariable,
)
from burneq.expr import BinOp, Neg, Num, Pow, Var


# ---------------------------------------------------------------- symbolic oracle

def differentiate(node, var_index):
    """Symbolic derivative of an AST node, used only as a test oracle."""
    if isinstance(node, Num):
        return Num(Fraction(0))
    if isinstance(node, Var):
        return Num(Fraction(1 if node.index == var_index else 0))
    if isinstance(node, Neg):
        return Neg(differentiate(node.operand, var_index))
    if isinstance(node, Pow):
        if node.exponent == 0:
            return Num(Fraction(0))
        inner = differentiate(node.base, var_index)
        return BinOp(
            "*",
            Num(Fraction(node.exponent)),
            BinOp("*", Pow(node.base, node.exponent - 1), inner),
        )
    dl = differentiate(node.left, var_index)
    dr = differentiate(node.right, var_index)
    if node.op in "+-":
        return BinOp(node.op, dl, dr)
    if node.op == "*":
        return BinOp("+", BinOp("*", dl, node.right), BinOp("*", node.left, dr))
    numerator = BinOp("-", BinOp("*", dl, node.right), BinOp("*", node.left, dr))
    return BinOp("/", numerator, Pow(node.right, 2))


def oracle_jacobian(exprs, point):
    """The symbolic derivatives, each evaluated exactly at a rational point."""
    zero = (Fraction(0),) * len(point)
    return [
        [expr.jet(expr.Expr(differentiate(e.root, j + 1), e.dim), point, zero)[0]
         for j in range(len(point))]
        for e in exprs
    ]


def exact_jacobian(exprs, point):
    """The package's exact Jacobian: read off the restricted trees, as the
    local index and the uniqueness certificate read it."""
    basis = la.identity(len(point))
    return degree._jacobian_at_origin([expr.restrict(e, point, basis) for e in exprs])


# ---------------------------------------------------------------- parsing

def test_parse_valid_tree():
    e = expr.parse("x1 - x2^2", 2)
    assert e.root == BinOp("-", Var(1), Pow(Var(2), 2))


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        expr.parse("x3", 2)
    with pytest.raises(UnknownVariable):
        expr.parse("y1", 2)
    with pytest.raises(UnknownVariable):
        expr.parse("x0", 2)


def test_bad_exponent():
    with pytest.raises(BadExponent):
        expr.parse("x1 ^ x2", 2)
    with pytest.raises(BadExponent):
        expr.parse("x1^1.5", 2)
    with pytest.raises(BadExponent):
        expr.parse("x1^-2", 2)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as info:
        expr.parse("x1 + ", 2)
    assert info.value.offset == 5
    with pytest.raises(ExprSyntaxError) as info:
        expr.parse("x1 $ x2", 2)
    assert info.value.offset == 3


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        expr.parse("(x1 + x2", 2)
    with pytest.raises(ExprSyntaxError):
        expr.parse("x1 + x2)", 2)


@pytest.mark.parametrize("source", [
    "x1 - 0.00001",
    "123456789012345678901.5 * x1",
    "x1 + " + "1" * 200 + "." + "2" * 199 + "3",
])
def test_literals_print_back_exactly(source):
    e = expr.parse(source, 1)
    assert str(e) == source
    assert expr.parse(str(e), 1) == e


def test_precedence():
    def value(source):
        return expr.jet(expr.parse(source, 1), (Fraction(0),), (Fraction(0),))[0]

    assert value("2 + 3 * 4") == 14
    assert value("(2 + 3) * 4") == 20
    assert value("2 - 3 - 4") == -5
    assert value("12 / 2 / 3") == 2
    assert value("-2^2") == -4
    assert value("(-2)^2") == 4


# ---------------------------------------------------------------- exact values

def test_eval_examples():
    def value(source, dim, point):
        return expr.jet(expr.parse(source, dim), point, (Fraction(0),) * dim)[0]

    assert value("x1*x2", 2, (Fraction(3), Fraction(4))) == 12
    assert value("-x1^2", 1, (Fraction(2),)) == -4


def test_division_by_zero():
    e = expr.parse("1/x1", 1)
    with pytest.raises(DivisionByZero):
        expr.jet(e, (Fraction(0),), (Fraction(1),))
    with pytest.raises(DivisionByZero):
        exact_jacobian([e], (Fraction(0),))


# ---------------------------------------------------------------- jacobian

def test_jacobian_linear_exact():
    exprs = [expr.parse("2*x1 + x2", 2), expr.parse("x1", 2)]
    assert exact_jacobian(exprs, (Fraction(3, 10), Fraction(-4, 5))) == [[2, 1], [1, 0]]


def test_jacobian_square_derivative():
    assert exact_jacobian([expr.parse("x1^2", 1)], (Fraction(3),)) == [[6]]


def test_jacobian_vanishing_gradient():
    jac = exact_jacobian([expr.parse("x1*x2", 2), expr.parse("x2", 2)], (Fraction(0),) * 2)
    assert jac[0] == [0, 0]


def test_jacobian_requires_square_system():
    with pytest.raises(InvalidPiece):
        degree.expression_local_index([expr.parse("x1", 2)], (0, 0), la.identity(2))


# ---------------------------------------------------------------- random corpora

def random_node(rng, dim, depth, allow_div):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return Num(Fraction(rng.randint(0, 5)))
        return Var(rng.randint(1, dim))
    if roll < 0.45:
        return Neg(random_node(rng, dim, depth - 1, allow_div))
    if roll < 0.6:
        return Pow(random_node(rng, dim, depth - 1, allow_div), rng.randint(0, 3))
    ops = "+-*/" if allow_div else "+-*"
    op = rng.choice(ops)
    return BinOp(
        op,
        random_node(rng, dim, depth - 1, allow_div),
        random_node(rng, dim, depth - 1, allow_div),
    )


def test_round_trip_corpus_of_fifty():
    rng = random.Random(20240 + 1)
    for k in range(50):
        dim = rng.randint(1, 3)
        e = expr.Expr(root=random_node(rng, dim, 4, allow_div=True), dim=dim)
        printed = str(e)
        reparsed = expr.parse(printed, dim)
        assert reparsed == e, f"corpus item {k}: {printed!r}"
        assert str(reparsed) == printed


def test_jacobian_matches_symbolic_oracle_on_fifty_systems():
    rng = random.Random(97)
    checked = 0
    while checked < 50:
        dim = rng.randint(1, 3)
        exprs = [
            expr.Expr(root=random_node(rng, dim, 3, allow_div=False), dim=dim)
            for _ in range(dim)
        ]
        point = tuple(Fraction(rng.randint(-21, 21), 14) for _ in range(dim))
        assert exact_jacobian(exprs, point) == oracle_jacobian(exprs, point)
        checked += 1


def test_jet_is_exact_value_and_directional_derivative():
    e = expr.parse("x1^3 / (x2 - 0.5) + 0.1 * x2", 2)
    point, direction = (Fraction(2), Fraction(3, 2)), (Fraction(1), Fraction(-2))
    value, derivative = expr.jet(e, point, direction)
    assert value == Fraction(8) + Fraction(3, 20)
    # d/dx1 = 3 x1^2 / (x2 - 1/2) = 12, d/dx2 = -x1^3 / (x2 - 1/2)^2 + 1/10
    assert derivative == 12 - 2 * (-8 + Fraction(1, 10))
    with pytest.raises(DivisionByZero):
        expr.jet(expr.parse("1 / (x1 - 0.25)", 1), (Fraction(1, 4),), (Fraction(1),))


def test_jet_refuses_values_beyond_the_float_range():
    with pytest.raises(OverflowError):
        expr.jet(expr.parse("x1^99999999", 1), (Fraction(2, 3),), (Fraction(1),))
    with pytest.raises(OverflowError):
        expr.jet(expr.parse("x1^1100", 1), (Fraction(2),), (Fraction(1),))
    with pytest.raises(OverflowError):
        expr.jet(expr.parse("1" + "0" * 400 + " * x1", 1), (Fraction(0),), (Fraction(1),))
    # powers of 0, 1 and -1 stay small however large the exponent
    huge = expr.parse("x1^999999999", 1)
    assert expr.jet(huge, (Fraction(-1),), (Fraction(1),)) == (-1, 999999999)
    assert expr.jet(huge, (Fraction(0),), (Fraction(1),)) == (0, 0)


def test_jet_refuses_powers_too_large_to_evaluate_exactly():
    near_one = (Fraction("1.000000000000000001"),)
    value, _ = expr.jet(expr.parse("x1^1000", 1), near_one, (Fraction(1),))
    assert value == near_one[0] ** 1000
    with pytest.raises(OverflowError, match="too large to evaluate exactly"):
        expr.jet(expr.parse("x1^1000000", 1), near_one, (Fraction(1),))
