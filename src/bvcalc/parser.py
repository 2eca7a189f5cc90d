"""Recursive-descent parser for superpolynomial expressions.

Grammar (juxtaposition is not multiplication):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational | 'i' | 'hbar' | ident | factor '^' uint | '(' expr ')'
    rational := int ('/' uint)?
    ident    := [A-Za-z_][A-Za-z_0-9]*

This module is the one home of the input's lexical rules: ``_NAME`` is the
identifier pattern, which the model reader also applies to every name a
model file declares, and ``_CONSTANTS`` maps the reserved words 'i' and
'hbar' to their scalars.  Other identifiers must be declared generators;
on an empty Context the grammar reads constant expressions, as the CLI's
``--point`` values are read.  An odd generator raised to a power
of two or more yields zero, with an ``OddPowerWarning`` that names the line
and column of its '^'.  Parentheses nest at most ``MAX_NESTING`` deep;
deeper input is a ParseError at the offending '('.
Exponents are at most ``MAX_EXPONENT``; a larger one is a ParseError at the
exponent's column.  A power is expanded one multiplication at a time.
Every multiplication of one expression draws on one budget of
``MAX_PRODUCT_WORK`` term products, counted by size: a '*' costs the size
of its left factor times the size of its right one, and each step of a '^'
the size of the running product times the size of the base.  A Poly's size
is the sum over its terms of the number of hbar powers in the coefficient,
so it is the term count when every coefficient carries one power, and it
also counts the hbar polynomials that ``(1+hbar)^n`` builds.  The '*' or
'^' whose product would pass the budget is a ParseError at its column.
A number literal has at most ``MAX_LITERAL_DIGITS`` digits; a longer one is
a ParseError at the literal's column.  Every numerator and denominator of
the coefficients that a '+', '-', '*' or step of '^' builds has the same
bound; the operator whose result passes it is a ParseError at its column.
Numbers are ASCII digits, as names are ASCII letters, digits and '_'.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction

from .scalars import Scalar, height
from .superalgebra import Context, Poly


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class OddPowerWarning(UserWarning):
    """An odd generator was squared; the factor is zero."""


# Each level of parentheses costs four interpreter frames (primary, expr,
# term, factor), so 100 levels use about 400 of Python's default recursion
# limit of 1000 and leave the rest to the caller and to Poly arithmetic.
MAX_NESTING = 100

# Enough for the scaled workloads ((x+1)^400); x^1000000 would run for
# seconds.
MAX_EXPONENT = 1000

# Work one expression may spend over all its '*' and '^', counted before each
# product as size times size (``_size``: terms weighted by their hbar
# powers).  (x+1)^400 and (1+hbar)^400 need 160,398 each and (x+y+1)^16
# 2,445; (x+xp*x+1)^1000 would need about 3,000,000 (11 s on a 2-vCPU VM)
# and is refused after 0.6 s, and (1+hbar)^1000 about 1,000,000 and is
# refused after 0.2 s; (x+y+1)^30*(x+y+1)^30*(x+y+1)^30 is refused at its
# first '*', which alone needs 246,016.
MAX_PRODUCT_WORK = 200_000

# The default digit limit of int(str) in CPython; stated here so that
# the bound does not depend on the interpreter or its settings.
MAX_LITERAL_DIGITS = 4300

# a numerator or denominator this large or larger has more digits than that
_DIGIT_BOUND = 10 ** MAX_LITERAL_DIGITS

# the identifier rule of expressions and of every name a model file declares,
# and the reserved words, which read as constants
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_CONSTANTS = {"i": Scalar.i, "hbar": Scalar.hbar}

_TOKEN = re.compile(rf"(?P<num>[0-9]+)|(?P<ident>{_NAME.pattern})|(?P<op>[-+*/^()])"
                    r"|\s+|(?P<bad>\S)")


def _tokenize(src: str, line: int):
    out = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, m.start() + 1)
        if kind:
            out.append((kind, m.group(), m.start() + 1))
    out.append(("end", "", len(src) + 1))
    return out


class _Parser:
    def __init__(self, tokens, ctx: Context, line: int):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.line = line
        self.depth = 0
        self.work = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, self.line, tok[2])

    def parse(self) -> Poly:
        value = self.expr()
        kind, text, _ = self.peek()
        if kind != "end":
            self.error(f"unexpected {text!r} after expression")
        return value

    def expr(self) -> Poly:
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                op = self.advance()
                rhs = self.term()
                value, what = (value + rhs, "sum") if text == "+" else (value - rhs, "difference")
                value = self._bounded(value, what, op)
            else:
                return value

    def term(self) -> Poly:
        value = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                star = self.advance()
                rhs = self.factor()
                value = self._product(value, rhs, "product", star)
            elif kind in ("num", "ident") or (kind == "op" and text == "("):
                self.error("juxtaposition is not multiplication; use '*'")
            else:
                return value

    def factor(self) -> Poly:
        base = self.primary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                caret = self.advance()
                exp_tok = self.advance()
                if exp_tok[0] != "num":
                    self.error("exponent must be an unsigned integer", exp_tok)
                # compare the digits before int() so a huge literal is refused cheaply
                digits = exp_tok[1].lstrip("0") or "0"
                if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                    self.error(f"exponent larger than {MAX_EXPONENT}", exp_tok)
                base = self._power(base, int(digits), caret)
            else:
                return base

    def _power(self, base: Poly, n: int, caret) -> Poly:
        if n == 0:
            return self.ctx.one()
        if n >= 2 and len(base.terms) == 1:
            (exps, mask), = base.terms
            if mask.bit_count() == 1 and not any(exps):
                warnings.warn("odd generator raised to a power >= 2 is zero "
                              f"(line {self.line}, column {caret[2]})", OddPowerWarning)
                return self.ctx.zero()
        out = base
        for _ in range(n - 1):
            out = self._product(out, base, "power", caret)
        return out

    def _product(self, left: Poly, right: Poly, what: str, tok) -> Poly:
        """left * right, its term products (weighted by hbar powers) drawn
        from the expression's budget before it is formed."""
        self.work += _size(left) * _size(right)
        if self.work > MAX_PRODUCT_WORK:
            self.error(f"{what} needs more than {MAX_PRODUCT_WORK} term products", tok)
        return self._bounded(left * right, what, tok)

    def _bounded(self, value: Poly, what: str, tok) -> Poly:
        """value, unless a numerator or denominator of its coefficients has
        more than MAX_LITERAL_DIGITS digits."""
        if height(value.terms.values()) >= _DIGIT_BOUND:
            self.error(f"{what} has a coefficient of more than {MAX_LITERAL_DIGITS} digits", tok)
        return value

    def _int(self, tok) -> int:
        # counted before int(), whose time grows with the square of the digits
        if len(tok[1]) > MAX_LITERAL_DIGITS:
            self.error(f"number literal too long ({len(tok[1])} digits)", tok)
        return int(tok[1])

    def _rational(self, value: int) -> Poly:
        """value, or value/den when '/' and a positive integer follow."""
        nk, ntext, _ = self.peek()
        if nk == "op" and ntext == "/":
            self.advance()
            den = self.advance()
            d = self._int(den) if den[0] == "num" else 0
            if not d:
                self.error("denominator must be a positive integer", den)
            return self.ctx.scalar(Fraction(value, d))
        return self.ctx.scalar(value)

    def primary(self) -> Poly:
        tok = self.advance()
        kind, text, col = tok
        if kind == "num":
            return self._rational(self._int(tok))
        if kind == "op" and text == "-":
            num = self.advance()
            if num[0] != "num":
                self.error("expected a number after '-'", num)
            return self._rational(-self._int(num))
        if kind == "ident":
            if text in _CONSTANTS:
                return self.ctx.scalar(_CONSTANTS[text]())
            try:
                return self.ctx.gen(text)
            except ValueError:
                raise ParseError(f"unknown identifier {text!r}", self.line, col) from None
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 self.line, col)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            closing = self.advance()
            if closing[:2] != ("op", ")"):
                self.error("expected ')'", closing)
            return value
        self.error(f"expected a factor, found {text!r}" if text else "unexpected end of input",
                   (kind, text, col))


def _size(poly: Poly) -> int:
    """The product-budget size: hbar powers summed over the coefficients."""
    return sum(map(len, poly.terms.values()))


def parse_expression(src: str, ctx: Context, line: int = 1) -> Poly:
    """Parse one expression into a canonical Poly on the given context."""
    return _Parser(_tokenize(src, line), ctx, line).parse()
