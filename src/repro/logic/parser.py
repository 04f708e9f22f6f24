"""A small recursive-descent parser for first-order sentences.

Grammar (standard precedence, ``~`` binds tightest, ``->`` is
right-associative and expands to ``~a | b``):

.. code-block:: text

    formula  := 'forall' vars '.' formula
              | 'exists' vars '.' formula
              | iff
    iff      := impl ('<->' impl)*
    impl     := or ('->' impl)?
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '~' unary | 'true' | 'false' | atom | '(' formula ')'
    atom     := IDENT '(' [term (',' term)*] ')'
    term     := IDENT            (a variable)
              | 'text' | "text"  (a string constant)
              | NUMBER           (an integer constant)

By convention a bare identifier in term position is always a *variable*;
constants must be quoted or numeric, e.g. ``R('a1', x)``.

Examples::

    parse("forall x. forall y. (R(x) | S(x,y) | T(y))")      # H0
    parse("exists x. exists y. R(x) & S(x,y)")
    parse("forall m. forall e. Manager(m,e) -> HighComp(m)")
"""

from __future__ import annotations

import re

from .formulas import FALSE, TRUE, And, Atom, Exists, Forall, Formula, Not, Or, implies, iff
from .terms import Const, Term, Var


class ParseError(ValueError):
    """Raised for any syntax error, with position information."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow2><->)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<number>-?\d+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<punct>[().,&|~])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"forall", "exists", "true", "false"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        kind = match.lastgroup or ""
        value = match.group()
        if kind != "ws":
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, value: str) -> None:
        kind, tok, pos = self.peek()
        if tok != value:
            raise ParseError(f"expected {value!r} at position {pos}, found {tok!r}")
        self.advance()

    # -- grammar -----------------------------------------------------------

    def formula(self) -> Formula:
        kind, tok, _ = self.peek()
        if kind == "ident" and tok in ("forall", "exists"):
            self.advance()
            variables = self._variable_list()
            self.expect(".")
            body = self.formula()
            for var in reversed(variables):
                body = Forall(var, body) if tok == "forall" else Exists(var, body)
            return body
        return self.iff_expr()

    def _variable_list(self) -> list[Var]:
        variables = []
        while True:
            kind, tok, pos = self.peek()
            if kind != "ident" or tok in _KEYWORDS:
                break
            variables.append(Var(tok))
            self.advance()
            if self.peek()[1] == ",":
                self.advance()
        if not variables:
            raise ParseError(f"expected variable name at position {self.peek()[2]}")
        return variables

    def iff_expr(self) -> Formula:
        left = self.impl_expr()
        while self.peek()[1] == "<->":
            self.advance()
            right = self.impl_expr()
            left = iff(left, right)
        return left

    def impl_expr(self) -> Formula:
        left = self.or_expr()
        if self.peek()[1] == "->":
            self.advance()
            right = self.impl_expr()
            return implies(left, right)
        return left

    def or_expr(self) -> Formula:
        parts = [self.and_expr()]
        while self.peek()[1] == "|":
            self.advance()
            parts.append(self.and_expr())
        return Or.of(parts) if len(parts) > 1 else parts[0]

    def and_expr(self) -> Formula:
        parts = [self.unary_expr()]
        while self.peek()[1] == "&":
            self.advance()
            parts.append(self.unary_expr())
        return And.of(parts) if len(parts) > 1 else parts[0]

    def unary_expr(self) -> Formula:
        kind, tok, pos = self.peek()
        if tok == "~":
            self.advance()
            return Not(self.unary_expr())
        if tok == "(":
            self.advance()
            inner = self.formula()
            self.expect(")")
            return inner
        if kind == "ident":
            if tok == "true":
                self.advance()
                return TRUE
            if tok == "false":
                self.advance()
                return FALSE
            if tok in ("forall", "exists"):
                return self.formula()
            return self.atom()
        raise ParseError(f"unexpected token {tok!r} at position {pos}")

    def atom(self) -> Atom:
        _, name, _ = self.advance()
        self.expect("(")
        args: list[Term] = [] if self.peek()[1] == ")" else [self.term()]
        while self.peek()[1] == ",":
            self.advance()
            args.append(self.term())
        self.expect(")")
        return Atom(name, tuple(args))

    def term(self) -> Term:
        kind, tok, pos = self.advance()
        if kind == "ident":
            if tok in _KEYWORDS:
                raise ParseError(f"keyword {tok!r} used as a term at position {pos}")
            return Var(tok)
        if kind == "number":
            return Const(int(tok))
        if kind == "string":
            return Const(tok[1:-1])
        raise ParseError(f"expected a term at position {pos}, found {tok!r}")

    def parse(self) -> Formula:
        result = self.formula()
        kind, tok, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input at position {pos}: {tok!r}")
        return result


def parse(text: str) -> Formula:
    """Parse a first-order formula from its textual representation."""
    return _Parser(text).parse()


def parse_sentence(text: str) -> Formula:
    """Parse a formula and verify it is a sentence (no free variables)."""
    formula = parse(text)
    free = formula.free_variables()
    if free:
        names = ", ".join(sorted(v.name for v in free))
        raise ParseError(f"expected a sentence but found free variables: {names}")
    return formula
