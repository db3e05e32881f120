"""The formula and sequent parser with one object per token, frozen as the
reference for ``namecalc.parser``, which keeps its tokens as plain strings and
finds source spans only when it raises.  Each token here is a ``_Token`` with
its kind and a ``SourceSpan`` made while tokenizing; the grammar, the error
messages and the line helpers are those the package shares with it.  The
grammar keeps one method per binding level, and ``format_formula`` one branch
per connective, where the package reads both from one connective table.
``ParseError`` and ``SourceSpan`` come from the package, so that errors from
either parser compare equal."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from namecalc.core import Atom, Bin, Formula, Functor, FUNCTOR_BY_NAME, Neg, is_letter
from namecalc.parser import ParseError, SourceSpan
from namecalc.proofscript import DeductionClaim, Sequent


@dataclass
class _Token:
    kind: str  # "name", "sym", "int", "end"
    text: str
    span: SourceSpan


# Whitespace, then one group per token kind, longer symbols first; group 4
# catches any other character.
_TOKEN = re.compile(
    r"\s+|(<->|==>|:=|->|\|-|[(),~&|:;\[\]-])|([A-Za-z_][A-Za-z0-9_]*)|([0-9]+)|(.)", re.DOTALL
)
_KINDS = (None, "sym", "name", "int")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind == 4:
            raise ParseError(f"unexpected character {m.group()!r}", SourceSpan(*m.span()))
        if kind:
            tokens.append(_Token(_KINDS[kind], m.group(), SourceSpan(*m.span())))
    tokens.append(_Token("end", "", SourceSpan(len(text), len(text))))
    return tokens


class _Parser:
    def __init__(self, text: str, offset: int = 0):
        self.offset = offset
        try:
            self.tokens = _tokenize(text)
        except ParseError as err:
            raise ParseError(err.message, self._shift(err.span)) from None
        self.pos = 0

    def _shift(self, span: SourceSpan) -> SourceSpan:
        return SourceSpan(span.start + self.offset, span.end + self.offset)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def fail(self, message: str, token: Optional[_Token] = None) -> ParseError:
        token = token or self.peek()
        return ParseError(message, self._shift(token.span))

    def expect_sym(self, sym: str) -> _Token:
        token = self.peek()
        if token.kind != "sym" or token.text != sym:
            raise self.fail(f"expected {sym!r}")
        return self.next()

    def at_sym(self, sym: str) -> bool:
        token = self.peek()
        return token.kind == "sym" and token.text == sym

    def eat_sym(self, sym: str) -> bool:
        if self.at_sym(sym):
            self.next()
            return True
        return False

    def expect_end(self) -> None:
        if self.peek().kind != "end":
            raise self.fail("trailing input")

    # Formula grammar.

    def formula(self) -> Formula:
        node = self.implication()
        while self.eat_sym("<->"):
            node = Bin("<->", node, self.implication())
        return node

    def implication(self) -> Formula:
        node = self.disjunction()
        if self.eat_sym("->"):
            return Bin("->", node, self.implication())
        return node

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.eat_sym("|"):
            node = Bin("|", node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.negation()
        while self.eat_sym("&"):
            node = Bin("&", node, self.negation())
        return node

    def negation(self) -> Formula:
        if self.eat_sym("~"):
            return Neg(self.negation())
        if self.eat_sym("("):
            node = self.formula()
            self.expect_sym(")")
            return node
        return self.atom()

    def atom(self) -> Atom:
        token = self.peek()
        if token.kind != "name":
            raise self.fail("expected a functor")
        functor = FUNCTOR_BY_NAME.get(token.text)
        if functor is None:
            raise self.fail(f"unknown functor {token.text!r}", token)
        self.next()
        self.expect_sym("(")
        subject = self.letter()
        if functor.arity == 2:
            if not self.eat_sym(","):
                raise self.fail(f"functor {functor.value!r} takes two letters")
            predicate = self.letter()
            self.expect_sym(")")
            return Atom(functor, subject, predicate)
        if self.at_sym(","):
            raise self.fail(f"functor {functor.value!r} takes one letter")
        self.expect_sym(")")
        return Atom(functor, subject)

    def letter(self) -> str:
        token = self.peek()
        if token.kind != "name" or not is_letter(token.text):
            raise self.fail("expected a name letter")
        self.next()
        return token.text

    # Sequents and deduction claims.

    def sequent(self) -> Sequent:
        premises, conclusion = self._premises_then("==>")
        return Sequent(frozenset(premises), conclusion)

    def deduction_claim(self) -> DeductionClaim:
        premises, conclusion = self._premises_then("|-")
        for part in premises + [conclusion]:
            if not isinstance(part, Atom) or part.functor not in _CATEGORICAL:
                raise self.fail("deduction claims use a/i/e/o atoms only")
        if not premises:
            raise self.fail("deduction claims need at least one premise")
        return DeductionClaim(frozenset(premises), conclusion)

    def _premises_then(self, arrow: str) -> tuple[list[Formula], Formula]:
        premises: list[Formula] = []
        if not self.eat_sym(arrow):
            premises.append(self.formula())
            while self.eat_sym(","):
                premises.append(self.formula())
            self.expect_sym(arrow)
        return premises, self.formula()

    # Shared justification pieces.

    def substitution(self) -> dict[str, str]:
        subst: dict[str, str] = {}
        self.expect_sym("[")
        if not self.eat_sym("]"):
            while True:
                source = self.letter()
                self.expect_sym(":=")
                target = self.letter()
                if source in subst:
                    raise self.fail(f"letter {source} mapped twice")
                subst[source] = target
                if self.eat_sym("]"):
                    break
                self.expect_sym(",")
        return subst

    def optional_substitution(self) -> Optional[dict[str, str]]:
        if self.at_sym("["):
            return self.substitution()
        return None

    def line_number(self) -> int:
        token = self.peek()
        if token.kind != "int":
            raise self.fail("expected a line number")
        self.next()
        return int(token.text)

    def name(self) -> str:
        token = self.peek()
        if token.kind != "name":
            raise self.fail("expected a name")
        self.next()
        return token.text


_CATEGORICAL = (Functor.A, Functor.I, Functor.E, Functor.O)


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    node = parser.formula()
    parser.expect_end()
    return node


def parse_sequent(text: str) -> Sequent:
    parser = _Parser(text)
    node = parser.sequent()
    parser.expect_end()
    return node


def parse_deduction_claim(text: str) -> DeductionClaim:
    parser = _Parser(text)
    node = parser.deduction_claim()
    parser.expect_end()
    return node


# Formatting with minimal parentheses.  Level: higher binds tighter.

_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_NEG = 1, 2, 3, 4, 5


def _fmt(formula: Formula, minimum: int) -> str:
    if isinstance(formula, Atom):
        if formula.predicate is None:
            return f"{formula.functor.value}({formula.subject})"
        return f"{formula.functor.value}({formula.subject},{formula.predicate})"
    if isinstance(formula, Neg):
        return f"~{_fmt(formula.operand, _LEVEL_NEG)}"
    if formula.op == "<->":
        level = _LEVEL_IFF
        text = f"{_fmt(formula.left, level)} <-> {_fmt(formula.right, level + 1)}"
    elif formula.op == "->":
        level = _LEVEL_IMP
        text = f"{_fmt(formula.left, level + 1)} -> {_fmt(formula.right, level)}"
    elif formula.op == "|":
        level = _LEVEL_OR
        text = f"{_fmt(formula.left, level)} | {_fmt(formula.right, level + 1)}"
    else:
        level = _LEVEL_AND
        text = f"{_fmt(formula.left, level)} & {_fmt(formula.right, level + 1)}"
    if level < minimum:
        return f"({text})"
    return text


def format_formula(formula: Formula) -> str:
    return _fmt(formula, _LEVEL_IFF)


# Script lines.  Lines look like  "3: a(S,P) -> i(S,P) ; mp 1 2".

def _script_lines(text: str) -> list[tuple[int, str]]:
    """Yield (byte_offset, content) for lines that are not blank or comments."""
    out = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        stripped = raw.split("#", 1)[0].rstrip("\n").rstrip()
        if stripped.strip():
            out.append((offset, stripped))
        offset += len(raw)
    return out


def _split_line(offset: int, content: str) -> tuple[_Parser, _Parser]:
    if ";" not in content:
        raise ParseError("missing ';' before the justification", SourceSpan(offset, offset + len(content)))
    body, just = content.rsplit(";", 1)
    return _Parser(body, offset), _Parser(just, offset + len(body) + 1)


def _line_header(parser: _Parser, previous: int) -> int:
    number = parser.line_number()
    parser.expect_sym(":")
    if number <= previous or (previous == 0 and number != 1):
        raise parser.fail(f"bad line number {number} after {previous}", parser.tokens[0])
    return number
