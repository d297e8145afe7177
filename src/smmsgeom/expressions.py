"""Parser turning expression strings into scalar fields on a chart.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | identifier | function '(' expr ')' | '(' expr ')' | '-' base

Functions: exp, log, sin, cos, sinh, cosh, sqrt.  Identifiers are chart
coordinate names.  Numbers are decimal literals (optional fraction and
exponent part).  Errors carry the byte offset of the offending token.
"""

from __future__ import annotations

import re

from .fields import FUNCTIONS, Chart, ScalarField

__all__ = ["parse_expression", "ExpressionError", "UnknownIdentifierError",
           "ArityError"]

_TOKEN = re.compile(r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


class ExpressionError(ValueError):
    """Malformed expression; `offset` is the byte offset of the problem."""

    def __init__(self, message: str, text: str, pos: int):
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"{message} (byte offset {self.offset})")


class UnknownIdentifierError(ExpressionError):
    pass


class ArityError(ExpressionError):
    pass


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", text, pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.idx = 0
        self.coord_index = {name: i for i, name in enumerate(chart.names)}

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}, found {val or 'end of input'!r}",
                                  self.text, pos)
        return self.advance()

    def parse(self) -> ScalarField:
        field = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {val!r}", self.text, pos)
        return field

    def expr(self) -> ScalarField:
        field = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                field = field + rhs if val == "+" else field - rhs
            else:
                return field

    def term(self) -> ScalarField:
        field = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                field = field * rhs if val == "*" else field / rhs
            else:
                return field

    def factor(self) -> ScalarField:
        field = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            negative = False
            if kind == "op" and val == "-":
                self.advance()
                negative = True
                kind, val, pos = self.peek()
            if kind != "number" or any(c in val for c in ".eE"):
                raise ExpressionError("exponent must be an integer literal",
                                      self.text, pos)
            self.advance()
            k = int(val)
            field = field ** (-k if negative else k)
        return field

    def base(self) -> ScalarField:
        kind, val, pos = self.peek()
        if kind == "number":
            self.advance()
            return self.chart.constant(float(val))
        if kind == "name":
            self.advance()
            nxt_kind, nxt_val, _ = self.peek()
            if val in FUNCTIONS:
                if not (nxt_kind == "op" and nxt_val == "("):
                    raise ArityError(f"function {val!r} requires an argument list",
                                     self.text, pos)
                self.advance()
                k2, v2, p2 = self.peek()
                if k2 == "op" and v2 == ")":
                    raise ArityError(f"function {val!r} takes exactly one argument",
                                     self.text, p2)
                arg = self.expr()
                k2, v2, p2 = self.peek()
                if k2 == "op" and v2 == ",":
                    raise ArityError(f"function {val!r} takes exactly one argument",
                                     self.text, p2)
                self.expect_op(")")
                return arg.apply(val)
            if val in self.coord_index:
                if nxt_kind == "op" and nxt_val == "(":
                    raise ArityError(f"{val!r} is a coordinate, not a function",
                                     self.text, pos)
                return self.chart.coordinate(self.coord_index[val])
            raise UnknownIdentifierError(f"unknown identifier {val!r}", self.text, pos)
        if kind == "op" and val == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            self.advance()
            return -self.base()
        raise ExpressionError(f"unexpected {val or 'end of input'!r}", self.text, pos)


def parse_expression(text: str, chart) -> ScalarField:
    """Parse `text` over the chart (a Chart or list of coordinate names)."""
    if not isinstance(chart, Chart):
        chart = Chart(chart)
    return _Parser(text, chart).parse()
