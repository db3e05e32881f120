"""Concrete text syntax: formulas, sequents, models, and the three script formats.

Grammar for formulas (whitespace insensitive, ASCII only):

    formula := unary (BINOP unary)*      levels and grouping: core.PRECEDENCE
    unary   := "~" unary | atom | "(" formula ")"
    BINOP   := "<->" | "->" | "|" | "&"    loosest first; "->" groups right
    atom    := FUNC "(" LETTER ["," LETTER] ")"
    FUNC    := a|i|e|o|ka|ke|kke|ceq|deq|ot|eps|neps|ideq|ex
    LETTER  := [A-Z][A-Za-z0-9_]*

A formula may nest ``MAX_NESTING`` levels deep: each ``(``, each ``~`` and
each ``->`` whose right operand holds the rest of a chain is a level, and the
parser raises ``NestingTooDeep`` at the first level past it.

Sequents are written ``p1, p2 ==> c`` (premises form a set: order and
duplicates are discarded at parse time).  Deduction claims are written
``p1, p2 |- c``.  Script files are line oriented, ``N: BODY ; TAG FIELD ...``,
with ``#`` comments and blank lines ignored; a script with no lines is a parse
error.  Each of the three script formats is data: a tag table maps each
justification tag to its class and its field kinds, each kind a (read, write)
pair, and one parse loop and one formatter serve every format.

Tokens are plain strings from one ``findall`` per text, and a token's kind
follows from its text: a symbol, a digit run, an ASCII word, or a whole atom.
Formulas are read by precedence climbing, one ``formula`` frame per level of
nesting and per right operand of a connective.  A script is tokenized whole:
each line end (those of ``str.splitlines``), with the spaces and the ``#``
comment before it, is the end marker ``""``, and one ``_Parser`` reads the
lines from that one list, each line's last ``;`` made an end marker too.

A text is read with ``_TOKEN`` first (``_SCRIPT_TOKEN`` for a script), which
reads an atom written without inner spaces, such as ``a(S,P)``, as one token
that only ``formula`` and ``atom`` accept, through ``_ATOM_TEXT``, text to
atom.  On a ``ParseError`` it is read again with ``_FINE`` (``_SCRIPT_FINE``),
which reads an atom as 4 or 6 tokens that ``atom`` checks by position,
whatever the spacing; a script from the start of the line that failed, as the
lines before it read alike.  The second read's result or error is the answer, and spans are
computed for its error only (the ``_Parser`` docstring says why the answers
agree).  ``_ATOM_TEXT`` is bounded by interning: its keys are canonical texts
(``format_formula(value) == key``), one per atom of ``core._ATOMS``, which
already lives for the process.  Nothing else outlives a call.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple, NoReturn, Optional

from .core import Atom, Bin, Formula, Functor, FUNCTOR_BY_NAME, LETTER_START, Neg, PRECEDENCE, RIGHT_GROUPING
from .core import is_letter
from .semantics import Model
from .proofscript import (
    AxiomInstance,
    CplConsequenceAxiom,
    CplTautology,
    Cut,
    CutWithRule,
    Deduction,
    DeductionClaim,
    DeductionLine,
    DeductionScript,
    DefInstance,
    DerivedRule,
    Detach,
    LukAxiomSequent,
    ProofLine,
    ProofScript,
    Reductio,
    Sequent,
    SequentLine,
    SequentScript,
    Substitute,
    Trivial,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("span start after end")


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span


# The most levels of nesting a formula may have open at once: each ``(``, each
# ``~`` and each ``->`` whose right operand holds the rest of a chain is one.
MAX_NESTING = 400


class NestingTooDeep(RecursionError):
    """A formula nests past ``MAX_NESTING`` levels.  It is a
    ``RecursionError``, the error a fold too deep for the interpreter raises,
    so one handler serves both."""

    def __init__(self) -> None:
        super().__init__("formula nests too deeply")


# One alternative per token kind, longer symbols first, then a catch-all.
# ``_TOKEN`` adds, after the symbols, a lowercase name directly before one or
# two parenthesised letters: the 4 or 6 tokens ``_FINE`` reads there, joined.
# Letters are spelled out, as ``\w`` is Unicode in ``re``.  Each pattern's one
# group is the token, so ``findall`` gives "" for a script's line end.
_SYMBOL_RULES = r"<->|==>|:=|->|\|-|[(),~&|:;\[\]-]"
_WORD_RULES = r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+"
_LETTER = r"[A-Z][A-Za-z0-9_]*"
_FINE_RULES = f"{_SYMBOL_RULES}|{_WORD_RULES}"
_TOKEN_RULES = rf"{_SYMBOL_RULES}|[a-z]+\({_LETTER}(?:,{_LETTER})?\)|{_WORD_RULES}"
_FINE = re.compile(rf"({_FINE_RULES}|\S)")  # whitespace matches nothing
_TOKEN = re.compile(rf"({_TOKEN_RULES}|\S)")
# A script pattern's match takes the spaces before it, so matches cover the
# text.  Outside the group, it is a line end, with the comment before it, or
# the end of the text.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # ``str.splitlines``'s, and "\r\n" is one
_LINE_END = rf"(?:#[^{_BREAKS}]*)?(?:\r\n|[{_BREAKS}]|\Z)"
_SCRIPT_FINE = re.compile(rf"[^\S{_BREAKS}]*(?:({_FINE_RULES}|[^\s#])|{_LINE_END})")
_SCRIPT_TOKEN = re.compile(rf"[^\S{_BREAKS}]*(?:({_TOKEN_RULES}|[^\s#])|{_LINE_END})")
_SYMBOLS = frozenset(("", "<->", "==>", ":=", "->", "|-", *"(),~&|:;[]-"))  # with the end marker
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def _tokenize(text: str, pattern: re.Pattern, start: int = 0) -> tuple[list[str], int]:
    """The tokens of ``text`` from offset ``start`` by ``pattern``, then ``""``,
    and the index of the first token no token kind accepts, else of ``""``:
    one ``findall`` and one pass over the distinct tokens."""
    tokens = pattern.findall(text, start)
    foreign = [t for t in set(tokens).difference(_SYMBOLS) if t[0] not in _WORD_START]
    tokens.append("")
    return tokens, min(map(tokens.index, foreign)) if foreign else len(tokens) - 1


class _Parser:
    """Reads ``tokens``, the tokens of ``text`` from offset ``start`` by
    ``pattern``; ``""`` ends what one reads: the text, a script line, or the
    body before its line's last ``;``.  No reader passes an end marker.

    Every token accepted here is a symbol, a digit run, an ASCII word or,
    from ``_TOKEN`` only, a whole atom written without spaces, such as
    ``a(S,P)``.  So ``str.isidentifier`` is true exactly for names,
    ``str.isdigit`` exactly for line numbers, and a token (or the end marker)
    is a name letter, as ``core.is_letter`` defines it, exactly when its first
    character is in ``core.LETTER_START``.  No span is kept: ``span`` finds
    one by token index from one scan of the text from ``start``.

    Every text is read with ``_TOKEN`` (``_SCRIPT_TOKEN``) first and, when
    that read raises a ``ParseError``, read again with ``_FINE``
    (``_SCRIPT_FINE``), token by token; the second read's result or error is
    the answer.  That answer is the ``_FINE`` read's by construction:

    - only ``formula`` and ``atom`` accept a whole-atom token: ``formula``
      reads one already in ``_ATOM_TEXT`` and ``atom`` adds one not read
      before.  Either way the atom is the one that ``atom``'s
      position-checked path builds from the 4 or 6 ``_FINE`` tokens the
      whole-atom token joins;
    - every other reader refuses such a token, as it is no name, letter,
      digit run or symbol: ``name``, ``letter``, ``line_number``, ``eat``,
      ``expect``, ``expect_end``, the field readers and ``_READ``.  So a
      ``_TOKEN`` read succeeds only where a ``_FINE`` read succeeds, with the
      same nodes;
    - every error, a foreign character's included, comes from the ``_FINE``
      read, with its message and span;
    - a ``RecursionError`` is not read again.  ``NestingTooDeep`` comes at
      the same token in both reads, as both count the same ``(``, ``~`` and
      ``->`` tokens.  An atom read whole takes no more frames than its 4 or 6
      tokens, so the interpreter's own ``RecursionError`` comes from the
      ``_TOKEN`` read only where the ``_FINE`` read would raise it too.  That
      can happen below ``MAX_NESTING`` only where ``<->``, ``|`` and ``&``
      mix inside every level: each of their right operands read at a
      tighter level takes a frame that no level counts, at most three per
      level."""

    def __init__(self, text: str, tokens: list[str], pattern: re.Pattern, start: int = 0):
        self.text = text
        self.tokens = tokens
        self.pattern = pattern
        self.start = start
        self.pos = 0

    def span(self, index: int, first: Optional[int] = None) -> SourceSpan:
        """The span of token ``index``, or from where token ``first``'s match
        starts.  An end marker's is empty: at the text's end, at the ``;`` it
        replaced, or where its line end's match starts."""
        matches = list(self.pattern.finditer(self.text, self.start))
        if index == len(matches):
            start = end = len(self.text)
        else:
            start, end = matches[index].span(1)
            if not self.tokens[index]:
                start = end = start if start >= 0 else matches[index].start()
        return SourceSpan(start if first is None else matches[first].start(), end)

    def fail(self, message: str, index: Optional[int] = None, first: Optional[int] = None) -> ParseError:
        if self.pattern is _TOKEN or self.pattern is _SCRIPT_TOKEN:  # dropped for the _FINE read's error
            return ParseError(message, SourceSpan(0, 0))
        return ParseError(message, self.span(self.pos if index is None else index, first))

    def eat(self, sym: str) -> bool:
        if self.tokens[self.pos] == sym:
            self.pos += 1
            return True
        return False

    def expect(self, sym: str) -> None:
        if self.tokens[self.pos] != sym:
            raise self.fail(f"expected {sym!r}")
        self.pos += 1

    def expect_end(self) -> None:
        if self.tokens[self.pos]:
            raise self.fail("trailing input")

    def whole(self, node: Any) -> Any:
        """``node``, once no token is left after it."""
        self.expect_end()
        return node

    # Formula grammar.

    def formula(self, level: int = 1, depth: int = 0) -> Formula:
        """A formula whose connectives bind at ``level`` or tighter, inside
        ``depth`` levels of nesting, by precedence climbing over ``_READ``:
        each operand is read here, a whole atom in ``_ATOM_TEXT`` inline and
        any other atom by ``atom``, and each connective read here reads its
        right operand at the level ``_READ`` gives it.  A ``(``, a ``~`` and
        a right-grouped ``->`` open one level of nesting each, and one frame;
        the first level past ``MAX_NESTING`` raises ``NestingTooDeep``."""
        tokens = self.tokens
        at = self.pos
        token = tokens[at]
        node = _ATOM_TEXT.get(token)
        if node is not None:
            self.pos = at + 1
        elif token == "(":
            if depth >= MAX_NESTING:
                raise NestingTooDeep()
            self.pos = at + 1
            node = self.formula(1, depth + 1)
            self.expect(")")
        elif token == "~":
            if depth >= MAX_NESTING:
                raise NestingTooDeep()
            self.pos = at + 1
            node = Neg(self.formula(_UNARY, depth + 1))
        else:
            node = self.atom()
        row = _READ.get(tokens[self.pos])
        while row is not None and row[0] >= level:
            op = tokens[self.pos]
            self.pos += 1
            deeper = depth + row[2]
            if deeper > MAX_NESTING:
                raise NestingTooDeep()
            node = Bin(op, node, self.formula(row[1], deeper))
            row = _READ.get(tokens[self.pos])
        return node

    def atom(self) -> Atom:
        """An atom not in ``_ATOM_TEXT``: a whole-atom token not read before,
        or 4 or 6 tokens checked by position, of which ``_reject_atom`` names
        the first that is wrong."""
        tokens = self.tokens
        at = self.pos
        token = tokens[at]
        if "(" in token:
            # A whole-atom token not read before.  A wrong name or arity is
            # refused here and named by the token-by-token read.
            name, _, letters = token[:-1].partition("(")
            functor = FUNCTOR_BY_NAME.get(name)
            args = letters.split(",")
            if functor is None or len(args) != functor.arity:
                raise self.fail("not an atom")
            atom = _ATOM_TEXT[token] = Atom(functor, *args)
            self.pos = at + 1
            return atom
        functor = FUNCTOR_BY_NAME.get(token)
        if functor is not None and tokens[at + 1] == "(" and tokens[at + 2][:1] in LETTER_START:
            if functor.arity == 2:
                if tokens[at + 3] == "," and tokens[at + 4][:1] in LETTER_START and tokens[at + 5] == ")":
                    self.pos = at + 6
                    return Atom(functor, tokens[at + 2], tokens[at + 4])
            elif tokens[at + 3] == ")":
                self.pos = at + 4
                return Atom(functor, tokens[at + 2])
        self._reject_atom(at, functor)

    def _reject_atom(self, at: int, functor: Optional[Functor]) -> NoReturn:
        """Raises the error for the malformed atom at token ``at``, making
        ``atom``'s checks one token at a time in the same order: when all
        the others pass, the closing parenthesis is the token it refused."""
        token = self.tokens[at]
        if functor is None:
            raise self.fail(f"unknown functor {token!r}" if token.isidentifier() else "expected a functor", at)
        self.pos = at + 1
        self.expect("(")
        self.letter()
        if functor.arity == 2:
            if not self.eat(","):
                raise self.fail(f"functor {functor.value!r} takes two letters")
            self.letter()
        elif self.tokens[self.pos] == ",":
            raise self.fail(f"functor {functor.value!r} takes one letter")
        raise self.fail("expected ')'")

    def letter(self) -> str:
        token = self.tokens[self.pos]
        if token[:1] not in LETTER_START:
            raise self.fail("expected a name letter")
        self.pos += 1
        return token

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
        if not self.eat(arrow):
            premises.append(self.formula())
            while self.eat(","):
                premises.append(self.formula())
            self.expect(arrow)
        return premises, self.formula()

    # Shared justification pieces.

    def substitution(self) -> dict[str, str]:
        subst: dict[str, str] = {}
        self.expect("[")
        if not self.eat("]"):
            while True:
                source = self.letter()
                self.expect(":=")
                target = self.letter()
                if source in subst:
                    raise self.fail(f"letter {source} mapped twice")
                subst[source] = target
                if self.eat("]"):
                    break
                self.expect(",")
        return subst

    def optional_substitution(self) -> Optional[dict[str, str]]:
        if self.tokens[self.pos] == "[":
            return self.substitution()
        return None

    def line_number(self) -> int:
        token = self.tokens[self.pos]
        if not token.isdigit():
            raise self.fail("expected a line number")
        self.pos += 1
        return int(token)

    def name(self) -> str:
        token = self.tokens[self.pos]
        if not token.isidentifier():
            raise self.fail("expected a name")
        self.pos += 1
        return token


_CATEGORICAL = (Functor.A, Functor.I, Functor.E, Functor.O)

# Whole-atom token -> its atom, one entry per interned atom (module docstring).
_ATOM_TEXT: dict[str, Atom] = {}


# The entry points read with ``_TOKEN`` and, on a ``ParseError``, again with
# ``_FINE`` (see ``_Parser``).  The second read runs after the ``except``
# clause, so its error carries no context, and in the entry point's own
# frame, so a formula may nest as deep as before.

def _reader(text: str, pattern: re.Pattern) -> _Parser:
    tokens, foreign = _tokenize(text, pattern)
    parser = _Parser(text, tokens, pattern)
    if tokens[foreign]:
        raise parser.fail(f"unexpected character {tokens[foreign]!r}", foreign)
    return parser


def parse_formula(text: str) -> Formula:
    try:
        parser = _reader(text, _TOKEN)
        return parser.whole(parser.formula())
    except ParseError:
        pass
    parser = _reader(text, _FINE)
    return parser.whole(parser.formula())


def parse_sequent(text: str) -> Sequent:
    try:
        parser = _reader(text, _TOKEN)
        return parser.whole(parser.sequent())
    except ParseError:
        pass
    parser = _reader(text, _FINE)
    return parser.whole(parser.sequent())


def parse_deduction_claim(text: str) -> DeductionClaim:
    try:
        parser = _reader(text, _TOKEN)
        return parser.whole(parser.deduction_claim())
    except ParseError:
        pass
    parser = _reader(text, _FINE)
    return parser.whole(parser.deduction_claim())


# Formatting with minimal parentheses.  Each connective's level, the least
# level each side may have without parentheses (the connective's own on the
# side it groups to, one tighter on the other), and its separator.

_UNARY = max(PRECEDENCE.values()) + 1  # the level of ~, atoms and parentheses
_WRITE = {
    op: (level, level + (op in RIGHT_GROUPING), level + (op not in RIGHT_GROUPING), f" {op} ")
    for op, level in PRECEDENCE.items()
}
# The parser's view of the same table: per connective, its level, the
# level its right operand is read at, and the levels of nesting that operand
# opens: 1 where the connective groups right, so that its right operand may
# hold a chain of any length, else 0.
_READ = {op: (level, right, int(op in RIGHT_GROUPING)) for op, (level, _, right, _) in _WRITE.items()}


def _fmt(formula: Formula, minimum: int) -> str:
    if isinstance(formula, Atom):
        if formula.predicate is None:
            return f"{formula.functor.value}({formula.subject})"
        return f"{formula.functor.value}({formula.subject},{formula.predicate})"
    if isinstance(formula, Neg):
        return f"~{_fmt(formula.operand, _UNARY)}"
    level, left, right, separator = _WRITE[formula.op]
    text = f"{_fmt(formula.left, left)}{separator}{_fmt(formula.right, right)}"
    if level < minimum:
        return f"({text})"
    return text


def format_formula(formula: Formula) -> str:
    return _fmt(formula, 1)


def format_sequent(sequent: Sequent) -> str:
    premises = ", ".join(sorted(format_formula(p) for p in sequent.premises))
    arrow = "==> " if not premises else f"{premises} ==> "
    return arrow + format_formula(sequent.conclusion)


def format_deduction_claim(claim: DeductionClaim) -> str:
    premises = ", ".join(sorted(format_formula(p) for p in claim.premises))
    return f"{premises} |- {format_formula(claim.conclusion)}"


# Models: JSON object {"universe": [...], "denotation": {letter: [...]}}.

def decode_json(text: str) -> tuple[object, SourceSpan]:
    """The decoded value, and the span of the whole text for content errors."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"bad JSON: {err.msg}", SourceSpan(err.pos, err.pos + 1)) from None
    return payload, SourceSpan(0, len(text))


def is_string_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def parse_model(text: str) -> Model:
    payload, span = decode_json(text)
    if not isinstance(payload, dict) or set(payload) != {"universe", "denotation"}:
        raise ParseError("model needs exactly the keys universe and denotation", span)
    universe = payload["universe"]
    denotation = payload["denotation"]
    if not is_string_list(universe):
        raise ParseError("universe must be a list of strings", span)
    if len(set(universe)) != len(universe):
        raise ParseError("duplicate universe element", span)
    if not isinstance(denotation, dict):
        raise ParseError("denotation must be an object", span)
    mapping: dict[str, frozenset[str]] = {}
    for letter, extension in denotation.items():
        if not is_letter(letter):
            raise ParseError(f"bad name letter {letter!r}", span)
        if not is_string_list(extension):
            raise ParseError(f"denotation of {letter} must be a list of strings", span)
        unknown = set(extension) - set(universe)
        if unknown:
            raise ParseError(
                f"denotation of {letter} mentions {sorted(unknown)[0]!r} outside the universe",
                span,
            )
        mapping[letter] = frozenset(extension)
    return Model(frozenset(universe), mapping)


def format_model(model: Model) -> str:
    payload = {
        "universe": sorted(model.universe),
        "denotation": {k: sorted(v) for k, v in sorted(model.denotation.items())},
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=False)


# Script files.  Lines look like  "3: a(S,P) -> i(S,P) ; mp 1 2".

class _Field(NamedTuple):
    """One justification field: ``read(parser, earlier_fields)`` and
    ``write(value)``, which gives None for a field that is left out."""

    read: Callable[[_Parser, list], Any]
    write: Callable[[Any], Optional[str]]


def _freeze(subst: Optional[dict[str, str]]) -> Optional[tuple[tuple[str, str], ...]]:
    if subst is None:
        return None
    return tuple(sorted(subst.items()))


def _write_subst(subst: tuple[tuple[str, str], ...]) -> str:
    return "[" + ",".join(f"{a}:={b}" for a, b in subst) + "]"


def _read_lines(parser: _Parser, _) -> tuple[int, ...]:
    cites = []
    while parser.tokens[parser.pos].isdigit():
        cites.append(parser.line_number())
    return tuple(cites)


def _read_rule_name(parser: _Parser, _) -> str:
    # Derived-rule names contain hyphens: biconditional-split, contraposition-1, ...
    pieces = [parser.name()]
    while parser.eat("-"):
        token = parser.tokens[parser.pos]
        if not (token.isidentifier() or token.isdigit()):
            raise parser.fail("expected a rule-name piece")
        parser.pos += 1
        pieces.append(token)
    return "-".join(pieces)


def _read_smiley_rule(parser: _Parser, cites: list) -> int:
    rule = parser.name()
    if rule not in ("r1", "r2", "r3", "r4"):
        raise parser.fail(f"unknown rule {rule!r}")
    rule_id = int(rule[1])
    cited = sum(cite is not None for cite in cites)
    if rule_id in (1, 2) and cited != 2:
        raise parser.fail("binary rules cite two lines")
    if rule_id in (3, 4) and cited != 1:
        raise parser.fail("unary rules cite one line")
    return rule_id


_NAME = _Field(lambda p, _: p.name(), str)
_OPTIONAL_SUBST = _Field(
    lambda p, _: _freeze(p.optional_substitution()),
    lambda s: None if s is None else _write_subst(s),
)
_SUBST = _Field(  # ``sub i`` without a substitution means ``sub i []``
    lambda p, _: _freeze(p.optional_substitution() or {}), lambda s: _write_subst(s or ())
)
_LINE = _Field(lambda p, _: p.line_number(), str)
_OPTIONAL_LINE = _Field(
    lambda p, _: p.line_number() if p.tokens[p.pos].isdigit() else None,
    lambda n: None if n is None else str(n),
)
_LINES = _Field(_read_lines, lambda cites: " ".join(map(str, cites)) or None)
_RULE_NAME = _Field(_read_rule_name, str)
_SMILEY_RULE = _Field(_read_smiley_rule, lambda rule_id: f"r{rule_id}")


@dataclass(frozen=True)
class _ScriptFormat:
    """A script format: how a line's body is read and written, the line and
    script classes, and the tag table, tag -> (justification class, fields)."""

    read_body: Callable[[_Parser], Any]
    write_body: Callable[[Any], str]
    line: type
    script: type
    tags: dict[str, tuple[type, tuple[_Field, ...]]]


_PROOF = _ScriptFormat(_Parser.formula, format_formula, ProofLine, ProofScript, {
    "ax": (AxiomInstance, (_NAME, _OPTIONAL_SUBST)),
    "def": (DefInstance, (_NAME, _OPTIONAL_SUBST)),
    "cpl": (CplTautology, ()),
    "mp": (Detach, (_LINE, _LINE)),
    "sub": (Substitute, (_LINE, _SUBST)),
})
_SEQUENT = _ScriptFormat(_Parser.sequent, format_sequent, SequentLine, SequentScript, {
    "luk": (LukAxiomSequent, (_NAME, _OPTIONAL_SUBST)),
    "cpl": (CplConsequenceAxiom, ()),
    "cut": (Cut, (_LINE, _LINE)),
    "ded": (Deduction, (_LINE,)),
    "rule": (DerivedRule, (_RULE_NAME, _LINES)),
})
_DEDUCTION = _ScriptFormat(
    _Parser.deduction_claim, format_deduction_claim, DeductionLine, DeductionScript, {
        "triv": (Trivial, ()),
        "cut": (CutWithRule, (_LINE, _OPTIONAL_LINE, _SMILEY_RULE)),
        "red": (Reductio, (_LINE, _LINE)),
    })


def _parse_script(text: str, fmt: _ScriptFormat):
    """Reads the whole script with ``_SCRIPT_TOKEN`` and, on a
    ``ParseError``, again with ``_SCRIPT_FINE`` from the start of the line
    that failed, whose result or error is the answer, as in the entry points
    above."""
    lines: list = []
    offset = 0
    for pattern in (_SCRIPT_TOKEN, _SCRIPT_FINE):
        tokens, foreign = _tokenize(text, pattern, offset)
        parser = _Parser(text, tokens, pattern, offset)
        start, last = 0, len(tokens) - 1
        try:
            while start < last:
                if not tokens[start]:  # a line end, of a blank line or not
                    start += 1
                    continue
                end = tokens.index("", start)
                cut = end - 1
                while tokens[cut] != ";":
                    if cut == start:
                        raise parser.fail("missing ';' before the justification", end, start)
                    cut -= 1
                if foreign < end:
                    raise parser.fail(f"unexpected character {tokens[foreign]!r}", foreign)
                tokens[cut] = ""
                parser.pos = start
                number = parser.line_number()
                parser.expect(":")
                previous = lines[-1].index if lines else 0
                if number <= previous or (previous == 0 and number != 1):
                    raise parser.fail(f"bad line number {number} after {previous}", start)
                claim = parser.whole(fmt.read_body(parser))
                parser.pos = cut + 1
                tag = parser.name()
                if tag not in fmt.tags:
                    raise parser.fail(f"unknown justification tag {tag!r}", cut + 1)
                cls, kinds = fmt.tags[tag]
                values: list = []
                for kind in kinds:
                    values.append(kind.read(parser, values))
                parser.expect_end()
                lines.append(fmt.line(number, claim, cls(*values)))
                start = end + 1
        except ParseError:
            if pattern is _SCRIPT_FINE:
                raise
            # The line starts past the line ends before it: the "" tokens
            # before it, less the ``;`` of each line read.
            ends = tokens[:start].count("") - len(lines)
            offset = sum(map(len, text.splitlines(True)[:ends]))
            continue
        if not lines:
            raise ParseError("script has no lines", SourceSpan(0, 0))
        return fmt.script(tuple(lines))


def _format_script(script, fmt: _ScriptFormat) -> str:
    if not script.lines:
        raise ValueError("script has no lines")
    tag_of = {cls: (tag, kinds) for tag, (cls, kinds) in fmt.tags.items()}
    out = []
    for line in script.lines:
        index, claim, justification = (getattr(line, f.name) for f in fields(line))
        tag, kinds = tag_of[type(justification)]
        values = (getattr(justification, f.name) for f in fields(justification))
        words = [tag] + [w for kind, v in zip(kinds, values) if (w := kind.write(v)) is not None]
        out.append(f"{index}: {fmt.write_body(claim)} ; {' '.join(words)}")
    return "\n".join(out) + "\n"


def parse_proof_script(text: str) -> ProofScript:
    return _parse_script(text, _PROOF)


def parse_sequent_script(text: str) -> SequentScript:
    return _parse_script(text, _SEQUENT)


def parse_deduction_script(text: str) -> DeductionScript:
    return _parse_script(text, _DEDUCTION)


def format_proof_script(script: ProofScript) -> str:
    return _format_script(script, _PROOF)


def format_sequent_script(script: SequentScript) -> str:
    return _format_script(script, _SEQUENT)


def format_deduction_script(script: DeductionScript) -> str:
    return _format_script(script, _DEDUCTION)
