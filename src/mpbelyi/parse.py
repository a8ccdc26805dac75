"""Recursive-descent parser for exact polynomial expressions.

Accepted syntax: integer and rational literals (``p/q``), ``sqrt(d)`` for a
square-free integer d > 1, declared variable names, the operators
``+ - * ^``, and parentheses.  Multiplication is always explicit: ``2*x``,
never ``2x``.  ``/`` appears only inside rational literals.

Errors carry the character position at which parsing failed.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly, QQ, QuadDomain
from .scalars import QuadExt


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (position %d)" % (message, pos))
        self.pos = pos


_OPS = set("+-*^/()")


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    toks.append(("EOF", None, n))
    return toks


def _scan_surds(toks):
    """{d: position of the first sqrt(d)} over the surds in toks."""
    ds = {}
    for k, (kind, val, pos) in enumerate(toks):
        if kind == "NAME" and val == "sqrt":
            if k + 2 < len(toks) and toks[k + 1][0] == "(" and toks[k + 2][0] == "INT":
                ds.setdefault(toks[k + 2][1], pos)
    return ds


class _Parser:
    def __init__(self, toks, dom, variables):
        self.toks = toks
        self.k = 0
        self.dom = dom
        self.vars = tuple(variables)

    def peek(self):
        return self.toks[self.k]

    def take(self, kind=None):
        tok = self.toks[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1]), tok[2])
        self.k += 1
        return tok

    def const(self, c):
        return MultiPoly.const(self.dom, self.vars, c)

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] == "*":
            self.take()
            node = node * self.parse_unary()
        return node

    def parse_unary(self):
        kind, _, _ = self.peek()
        if kind == "-":
            self.take()
            return -self.parse_unary()
        if kind == "+":
            self.take()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        while self.peek()[0] == "^":
            self.take()
            tok = self.take("INT")
            base = base ** tok[1]
        return base

    def parse_atom(self):
        kind, val, pos = self.peek()
        if kind == "INT":
            self.take()
            if self.peek()[0] == "/":
                self.take()
                dtok = self.take("INT")
                if dtok[1] == 0:
                    raise ParseError("zero denominator in rational literal", dtok[2])
                return self.const(Fraction(val, dtok[1]))
            return self.const(Fraction(val))
        if kind == "NAME":
            if val == "sqrt":
                self.take()
                self.take("(")
                dtok = self.take("INT")
                self.take(")")
                if not isinstance(self.dom, QuadDomain) or self.dom.d != dtok[1]:
                    raise ParseError("sqrt(%d) not available in %s" % (dtok[1], self.dom.name), pos)
                return self.const(QuadExt(0, 1, dtok[1]))
            if val not in self.vars:
                raise ParseError("undeclared variable %r" % val, pos)
            self.take()
            return MultiPoly.var(self.dom, self.vars, val)
        if kind == "(":
            self.take()
            node = self.parse_expr()
            self.take(")")
            return node
        raise ParseError("expected a value, found %r" % (val,), pos)


def parse_poly(text: str, variables=(), dom=None) -> MultiPoly:
    """Parse an expression into a MultiPoly over the given variables.

    The coefficient domain defaults to the rationals, widening to the
    quadratic field Q(sqrt(d)) when a single sqrt(d) occurs in the text.
    """
    toks = _tokenize(text)
    if dom is None:
        ds = _scan_surds(toks)
        if len(ds) > 1:
            raise ParseError("mixed surds %s in one expression" % sorted(ds), 0)
        dom = QQ
        for d, pos in ds.items():
            try:
                dom = QuadDomain(d)
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
    p = _Parser(toks, dom, variables)
    node = p.parse_expr()
    p.take("EOF")
    return node
