"""Propositional formulas: parsing, printing and truth-table evaluation.

Grammar (loosest to tightest, ``->`` right-associative, the rest left):

    formula := iff
    iff     := imp ("<->" imp)*
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := not ("&" not)*
    not     := "!" not | primary
    primary := "0" | "1" | ident | "(" formula ")"

The Unicode spellings ¬ ∧ ∨ → ↔ are accepted as aliases.  ``1`` denotes
the always-true proposition ⊤ and ``0`` the always-false ⊥.  Parsing
builds the AST verbatim; no simplification happens here.  Error
positions count bytes of the UTF-8 encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .algebra import Element, FreeBooleanAlgebra, UnsupportedOperationError


class ParseError(Exception):
    """Lexical or syntax error, carrying the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (byte {position})")
        self.position = position


class UnboundAtomError(Exception):
    """A formula mentions an atom the binding does not cover."""


class Formula:
    """Base class of AST nodes; structural equality, no evaluation state."""

    __slots__ = ()

    def __str__(self) -> str:
        return unparse(self)


@dataclass(frozen=True, slots=True)
class Const(Formula):
    value: int  # 1 is ⊤, 0 is ⊥


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, slots=True)
class _Binary(Formula):
    """A binary node; its subclass, compared by ``==``, names the connective."""

    left: Formula
    right: Formula


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Connective(NamedTuple):
    """One binary connective: spelling, binding and meaning."""

    node: type            # the AST class
    token: str            # ASCII spelling
    alias: str            # Unicode spelling
    level: int            # 1 binds loosest
    right: bool           # right-associative
    truth: Callable[[int, int, int], int]  # (mask, left, right) -> result
    name: str             # the "op" of the AST JSON


# Every binary connective, loosest first; packed truth tables are ints,
# one bit per row, and mask holds every row.
CONNECTIVES = {c.node: c for c in (
    Connective(Iff, "<->", "↔", 1, False, lambda m, p, q: m ^ p ^ q, "iff"),
    Connective(Implies, "->", "→", 2, True, lambda m, p, q: (m ^ p) | q,
               "implies"),
    Connective(Or, "|", "∨", 3, False, lambda m, p, q: p | q, "or"),
    Connective(And, "&", "∧", 4, False, lambda m, p, q: p & q, "and"),
)}
_BINARY = {c.token: c for c in CONNECTIVES.values()}
_NOT_LEVEL = len(CONNECTIVES) + 1  # ! binds tighter than every connective

# Token kind of each operator spelling (no spelling is a prefix of another).
_KIND = {"!": "!", "¬": "!", "(": "(", ")": ")",
         **{s: c.token for c in CONNECTIVES.values()
            for s in (c.token, c.alias)}}
_LEXEME = re.compile(r"\s*(?:(?P<op>%s)|(?P<const>[01])"
                     r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S))"
                     % "|".join(map(re.escape, _KIND)))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, spelling, byte offset) of each token, then the end token."""
    tokens = []
    done = pos = 0  # character index and byte offset of the last token
    for match in _LEXEME.finditer(text):
        kind, start = match.lastgroup, match.start(match.lastgroup)
        pos += len(text[done:start].encode("utf-8"))
        done = start
        spelled = match.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {spelled!r}", pos)
        tokens.append((_KIND[spelled] if kind == "op" else kind, spelled, pos))
    tokens.append(("end", "", len(text.encode("utf-8"))))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.at = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.at]

    def advance(self) -> None:
        self.at += 1

    def formula(self) -> Formula:
        node = self.binary(1)
        kind, spelled, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {spelled!r} after formula", pos)
        return node

    def binary(self, floor: int) -> Formula:
        """Precedence climbing: the longest formula whose connectives all
        have level ``floor`` or above."""
        node = self.not_()
        while True:
            c = _BINARY.get(self.peek()[0])
            if c is None or c.level < floor:
                return node
            self.advance()
            node = c.node(node, self.binary(c.level + (not c.right)))

    def not_(self) -> Formula:
        if self.peek()[0] == "!":
            self.advance()
            return Not(self.not_())
        return self.primary()

    def primary(self) -> Formula:
        kind, spelled, pos = self.peek()
        if kind == "const":
            self.advance()
            return Const(int(spelled))
        if kind == "ident":
            self.advance()
            return Atom(spelled)
        if kind == "(":
            self.advance()
            node = self.binary(1)
            kind, spelled, pos = self.peek()
            if kind != ")":
                raise ParseError(f"expected ')', found {spelled!r}"
                                 if kind != "end" else
                                 "expected ')', found end of input", pos)
            self.advance()
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {spelled!r}", pos)


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError with a byte position on failure."""
    return _Parser(_tokenize(text)).formula()


def _render(f: Formula, floor: int) -> str:
    if isinstance(f, Const):
        return "1" if f.value else "0"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + _render(f.operand, _NOT_LEVEL)
    c = CONNECTIVES[type(f)]  # the side it does not associate to binds tighter
    s = (f"{_render(f.left, c.level + c.right)} {c.token} "
         f"{_render(f.right, c.level + (not c.right))}")
    return f"({s})" if c.level < floor else s


def unparse(f: Formula) -> str:
    """Render with minimal parentheses; parse(unparse(f)) equals f."""
    return _render(f, 0)


def atoms_of(f: Formula) -> list[str]:
    """Atom names occurring in the formula, sorted lexically."""
    seen: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            seen.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif type(node) in CONNECTIVES:
            stack += (node.left, node.right)
    return sorted(seen)


def evaluate(f: Formula, algebra: FreeBooleanAlgebra,
             binding: dict[str, Element | str] | None = None) -> Element:
    """Truth-table evaluation of ``f`` as an element of a free algebra.

    ``binding`` maps atom names to carrier elements (or element names)
    and defaults to binding each of the algebra's own atoms to itself.
    Since every connective acts row by row, this is substitution:
    the result is f with each atom replaced by its bound proposition.
    Logical AND lands on the additive operation and OR on the
    multiplicative one; ``->`` and ``<->`` use their usual expansions.
    """
    if not isinstance(algebra, FreeBooleanAlgebra):
        raise UnsupportedOperationError("evaluation needs a free Boolean algebra")
    if binding is None:
        values = {name: algebra.atom_value(i)
                  for i, name in enumerate(algebra.atoms)}
    else:
        values = {}
        for name, bound in binding.items():
            if isinstance(bound, str):
                values[name] = algebra.index_of(bound)
            else:
                values[name] = algebra._member(bound)
    mask = algebra.mask

    def walk(node: Formula) -> int:
        if isinstance(node, Const):
            return mask if node.value else 0
        if isinstance(node, Atom):
            idx = values.get(node.name)
            if idx is None:
                raise UnboundAtomError(f"atom {node.name!r} is not bound")
            return idx
        if isinstance(node, Not):
            return mask ^ walk(node.operand)
        c = CONNECTIVES.get(type(node))
        if c is not None:
            return c.truth(mask, walk(node.left), walk(node.right))
        raise TypeError(f"not a formula node: {node!r}")

    return algebra.element(walk(f))
