"""Expression parser for chart elements.

Grammar (integers, rationals as quotients, parameter and generator names,
+ - * / ^ with non-negative integer exponents, parentheses, and inv(...)):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')' | 'inv' '(' expr ')'

Denominators (both `/` and `inv`) must be invertible in the chart ring,
i.e. divide a power of the chart denominator up to a rational factor;
anything else raises IllegalDenominator.  Rational literals like 3/4 go
through the same rule (constants invert trivially).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .charts import NotInvertible
from .multipoly import Poly


class ExprSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


class UnknownSymbol(ValueError):
    def __init__(self, name, pos):
        super().__init__(f"unknown symbol {name!r} (position {pos})")
        self.name = name
        self.pos = pos


class IllegalDenominator(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*/^()]))")


def _tokenize(src):
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {src[at]!r}", at)
        start = m.start(1) if m.group(1) else m.start(2) if m.group(2) else m.start(3)
        if m.group(1):
            out.append(("num", int(m.group(1)), start))
        elif m.group(2):
            out.append(("name", m.group(2), start))
        else:
            out.append(("op", m.group(3), start))
        pos = m.end()
    out.append(("end", None, len(src)))
    return out


class _Parser:
    def __init__(self, src):
        self.tokens = _tokenize(src)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        ast = self.expr()
        kind, _val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input", pos)
        return ast

    def expr(self):
        node = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = (val, node, self.term(), pos)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = (val, node, self.unary(), pos)
            else:
                return node

    def unary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.unary()
            return inner if val == "+" else ("neg", inner, pos)
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind2, val2, pos2 = self.next()
            if kind2 != "num":
                raise ExprSyntaxError("exponent must be a non-negative integer", pos2)
            node = ("pow", node, val2, pos)
        return node

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("num", val, pos)
        if kind == "name":
            if val == "inv":
                kind2, val2, _pos2 = self.peek()
                if kind2 == "op" and val2 == "(":
                    self.next()
                    inner = self.expr()
                    self.expect_op(")")
                    return ("inv", inner, pos)
            return ("name", val, pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse_ast(src):
    return _Parser(src).parse()


def _eval(ast, leaf, inverse):
    """Evaluate a parse tree: leaf(kind, value, pos) gives the element of a
    "num" or "name" node, inverse(x) the inverse of a denominator."""
    op = ast[0]
    if op in ("num", "name"):
        return leaf(*ast)
    if op == "neg":
        return -_eval(ast[1], leaf, inverse)
    if op == "pow":
        return _eval(ast[1], leaf, inverse) ** ast[2]
    if op == "inv":
        return inverse(_eval(ast[1], leaf, inverse))
    lhs = _eval(ast[1], leaf, inverse)
    rhs = _eval(ast[2], leaf, inverse)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        return lhs * inverse(rhs)
    raise AssertionError(f"unhandled node {op!r}")


def _invert(elem):
    try:
        return elem.invert()
    except NotInvertible:
        raise IllegalDenominator(
            f"({elem}) is not invertible on chart {elem.chart.name!r}: "
            "denominators must divide a power of the chart denominator"
        ) from None


def _evaluate(src, leaf, inverse):
    """_eval(ast, leaf, inverse) on the parse of src.  Parsing and
    evaluation recurse once per nesting level, so an expression deeper than
    the interpreter's recursion limit raises ExprSyntaxError."""
    try:
        return _eval(parse_ast(src), leaf, inverse)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None


def parse_expression(src, chart):
    """Parse src to a RingElem on the (validated) chart."""
    chart.validate()

    def leaf(kind, val, pos):
        if kind == "num":
            return chart.elem(val)
        if val in chart.allvars:
            return chart.var(val)
        raise UnknownSymbol(val, pos)
    return _evaluate(src, leaf, _invert)


def _const_inverse(poly):
    if poly.degree() > 0 or poly.is_zero():
        raise IllegalDenominator(
            "only rational constants may be inverted in polynomial context"
        )
    c = poly.coeff((0,) * len(poly.vars))
    return Poly.const(poly.vars, Fraction(1) / c)


def parse_poly(src, vars):
    """Parse src to a Poly over the given variable names; division is only
    allowed by rational constants here (used for chart definitions, where
    the ring is not localized yet)."""
    vars = tuple(vars)

    def leaf(kind, val, pos):
        if kind == "num":
            return Poly.const(vars, val)
        if val in vars:
            return Poly.variable(vars, val)
        raise UnknownSymbol(val, pos)
    return _evaluate(src, leaf, _const_inverse)
