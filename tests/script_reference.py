"""The hand-written script grammars that ``parser``'s tag tables replaced, kept
as the reference the table-driven parse loop and formatter are compared
against: one parse loop per format with an ``if tag == ...`` chain, one
formatter per format with an ``isinstance`` chain, and the rule-name reader.
The line splitting, the line-number check and the formula and sequent
grammar come from ``parser_reference``, so that nothing here runs the parser
under test.  The character-at-a-time tokenizer that the one token regex
replaced is kept too."""

import re
from typing import Optional

from namecalc.parser import ParseError, SourceSpan, format_deduction_claim, format_formula, format_sequent
from namecalc.proofscript import (
    AxiomInstance,
    CplConsequenceAxiom,
    CplTautology,
    Cut,
    CutWithRule,
    Deduction,
    DeductionLine,
    DeductionScript,
    DefInstance,
    DerivedRule,
    Detach,
    LukAxiomSequent,
    ProofLine,
    ProofScript,
    Reductio,
    SequentLine,
    SequentScript,
    Substitute,
    Trivial,
)
from parser_reference import _Parser, _Token, _line_header, _script_lines, _split_line


_SYMBOLS = ("<->", "==>", ":=", "->", "|-", "(", ")", ",", "~", "&", "|", ":", ";", "[", "]", "-")


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, pos):
                tokens.append(_Token("sym", sym, SourceSpan(pos, pos + len(sym))))
                pos += len(sym)
                matched = True
                break
        if matched:
            continue
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[pos:])
        if m:
            tokens.append(_Token("name", m.group(), SourceSpan(pos, pos + m.end())))
            pos += m.end()
            continue
        m = re.match(r"[0-9]+", text[pos:])
        if m:
            tokens.append(_Token("int", m.group(), SourceSpan(pos, pos + m.end())))
            pos += m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(pos, pos + 1))
    tokens.append(_Token("end", "", SourceSpan(size, size)))
    return tokens


def parse_proof_script(text: str) -> ProofScript:
    lines: list[ProofLine] = []
    previous = 0
    for offset, content in _script_lines(text):
        body, just = _split_line(offset, content)
        number = _line_header(body, previous)
        previous = number
        formula = body.formula()
        body.expect_end()
        tag = just.name()
        if tag == "ax":
            justification = AxiomInstance(just.name(), _freeze(just.optional_substitution()))
        elif tag == "def":
            justification = DefInstance(just.name(), _freeze(just.optional_substitution()))
        elif tag == "cpl":
            justification = CplTautology()
        elif tag == "mp":
            justification = Detach(just.line_number(), just.line_number())
        elif tag == "sub":
            source = just.line_number()
            subst = just.optional_substitution() or {}
            justification = Substitute(source, _freeze(subst))
        else:
            raise just.fail(f"unknown justification tag {tag!r}", just.tokens[0])
        just.expect_end()
        lines.append(ProofLine(number, formula, justification))
    return ProofScript(tuple(lines))


def parse_sequent_script(text: str) -> SequentScript:
    lines: list[SequentLine] = []
    previous = 0
    for offset, content in _script_lines(text):
        body, just = _split_line(offset, content)
        number = _line_header(body, previous)
        previous = number
        sequent = body.sequent()
        body.expect_end()
        tag = just.name()
        if tag == "luk":
            justification = LukAxiomSequent(just.name(), _freeze(just.optional_substitution()))
        elif tag == "cpl":
            justification = CplConsequenceAxiom()
        elif tag == "cut":
            justification = Cut(just.line_number(), just.line_number())
        elif tag == "ded":
            justification = Deduction(just.line_number())
        elif tag == "rule":
            name = _rule_name(just)
            cites = []
            while just.peek().kind == "int":
                cites.append(just.line_number())
            justification = DerivedRule(name, tuple(cites))
        else:
            raise just.fail(f"unknown justification tag {tag!r}", just.tokens[0])
        just.expect_end()
        lines.append(SequentLine(number, sequent, justification))
    return SequentScript(tuple(lines))


def _rule_name(parser: _Parser) -> str:
    # Derived-rule names contain hyphens: biconditional-split, contraposition-1, ...
    pieces = [parser.name()]
    while parser.eat_sym("-"):
        token = parser.peek()
        if token.kind not in ("name", "int"):
            raise parser.fail("expected a rule-name piece")
        parser.next()
        pieces.append(token.text)
    return "-".join(pieces)


def parse_deduction_script(text: str) -> DeductionScript:
    lines: list[DeductionLine] = []
    previous = 0
    for offset, content in _script_lines(text):
        body, just = _split_line(offset, content)
        number = _line_header(body, previous)
        previous = number
        claim = body.deduction_claim()
        body.expect_end()
        tag = just.name()
        if tag == "triv":
            justification = Trivial()
        elif tag == "cut":
            cites = [just.line_number()]
            if just.peek().kind == "int":
                cites.append(just.line_number())
            rule = just.name()
            if rule not in ("r1", "r2", "r3", "r4"):
                raise just.fail(f"unknown rule {rule!r}")
            rule_id = int(rule[1])
            if rule_id in (1, 2) and len(cites) != 2:
                raise just.fail("binary rules cite two lines")
            if rule_id in (3, 4) and len(cites) != 1:
                raise just.fail("unary rules cite one line")
            second = cites[1] if len(cites) == 2 else None
            justification = CutWithRule(cites[0], second, rule_id)
        elif tag == "red":
            justification = Reductio(just.line_number(), just.line_number())
        else:
            raise just.fail(f"unknown justification tag {tag!r}", just.tokens[0])
        just.expect_end()
        lines.append(DeductionLine(number, claim, justification))
    return DeductionScript(tuple(lines))


def _freeze(subst: Optional[dict[str, str]]) -> Optional[tuple[tuple[str, str], ...]]:
    if subst is None:
        return None
    return tuple(sorted(subst.items()))


def _format_subst(subst: Optional[tuple[tuple[str, str], ...]]) -> str:
    if subst is None:
        return ""
    inner = ",".join(f"{a}:={b}" for a, b in subst)
    return f" [{inner}]"


def format_proof_script(script: ProofScript) -> str:
    out = []
    for line in script.lines:
        j = line.justification
        if isinstance(j, AxiomInstance):
            just = f"ax {j.schema}{_format_subst(j.subst)}"
        elif isinstance(j, DefInstance):
            just = f"def {j.schema}{_format_subst(j.subst)}"
        elif isinstance(j, CplTautology):
            just = "cpl"
        elif isinstance(j, Detach):
            just = f"mp {j.antecedent} {j.implication}"
        else:
            just = f"sub {j.source}{_format_subst(j.subst) or ' []'}"
        out.append(f"{line.index}: {format_formula(line.formula)} ; {just}")
    return "\n".join(out) + "\n"


def format_sequent_script(script: SequentScript) -> str:
    out = []
    for line in script.lines:
        j = line.justification
        if isinstance(j, LukAxiomSequent):
            just = f"luk {j.schema}{_format_subst(j.subst)}"
        elif isinstance(j, CplConsequenceAxiom):
            just = "cpl"
        elif isinstance(j, Cut):
            just = f"cut {j.left} {j.right}"
        elif isinstance(j, Deduction):
            just = f"ded {j.source}"
        else:
            cites = " ".join(str(c) for c in j.cites)
            just = f"rule {j.rule} {cites}".rstrip()
        out.append(f"{line.index}: {format_sequent(line.sequent)} ; {just}")
    return "\n".join(out) + "\n"


def format_deduction_script(script: DeductionScript) -> str:
    out = []
    for line in script.lines:
        j = line.justification
        if isinstance(j, Trivial):
            just = "triv"
        elif isinstance(j, CutWithRule):
            cites = str(j.first) if j.second is None else f"{j.first} {j.second}"
            just = f"cut {cites} r{j.rule_id}"
        else:
            just = f"red {j.source} {j.refuter}"
        out.append(f"{line.index}: {format_deduction_claim(line.claim)} ; {just}")
    return "\n".join(out) + "\n"
