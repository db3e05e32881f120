import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from namecalc.core import Atom, Bin, Formula, Functor, Neg
from namecalc.corpus import DATA_DIR
from namecalc.parser import (
    MAX_NESTING,
    NestingTooDeep,
    ParseError,
    SourceSpan,
    _ATOM_TEXT,
    _FINE,
    _TOKEN,
    _reader,
    format_deduction_claim,
    format_formula,
    format_model,
    format_proof_script,
    format_sequent,
    format_sequent_script,
    format_deduction_script,
    parse_deduction_claim,
    parse_deduction_script,
    parse_formula,
    parse_model,
    parse_proof_script,
    parse_sequent,
    parse_sequent_script,
)
from namecalc.proofscript import (
    AxiomInstance,
    CplConsequenceAxiom,
    CplTautology,
    Cut,
    CutWithRule,
    Deduction,
    DeductionClaim,
    DeductionLine,
    DeductionScript,
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
from namecalc.semantics import Model
from namecalc.sequent import AXIOM_SEQUENTS
from namecalc.systems import SCHEMAS

import parser_reference
import script_reference as reference
from conftest import NESTED_SHAPES, formulas_st, letters_st, substitutions_st


def test_barbara_concrete_syntax():
    assert parse_formula("(a(M,P) & a(S,M)) -> a(S,P)") == SCHEMAS["Barbara"].pattern


def test_negated_atom():
    assert parse_formula("~i(S,S)") == Neg(Atom(Functor.I, "S", "S"))


def test_malformed_atom_span():
    with pytest.raises(ParseError) as err:
        parse_formula("a(S,")
    assert err.value.span.start == 4


def test_unknown_functor():
    with pytest.raises(ParseError) as err:
        parse_formula("foo(S,P)")
    assert "unknown functor" in err.value.message


def test_arity_mismatch():
    with pytest.raises(ParseError):
        parse_formula("ex(S,P)")
    with pytest.raises(ParseError):
        parse_formula("a(S)")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_formula("(a(S,P) & i(S,P)")


def test_format_examples():
    assert format_formula(Atom(Functor.EX, "S")) == "ex(S)"
    assert format_formula(Bin("->", Atom(Functor.A, "S", "P"), Atom(Functor.I, "S", "P"))) == "a(S,P) -> i(S,P)"


def test_precedence_shapes():
    assert format_formula(parse_formula("a(S,P) & (i(S,P) | e(S,P))")) == "a(S,P) & (i(S,P) | e(S,P))"
    assert format_formula(parse_formula("(a(S,P) -> i(S,P)) -> e(S,P)")) == "(a(S,P) -> i(S,P)) -> e(S,P)"
    assert format_formula(parse_formula("a(S,P) -> (i(S,P) -> e(S,P))")) == "a(S,P) -> i(S,P) -> e(S,P)"


@settings(max_examples=1000)
@given(formulas_st())
def test_formula_round_trip(formula):
    assert parse_formula(format_formula(formula)) == formula


@settings(max_examples=1000)
@given(formulas_st())
def test_formula_text_matches_the_reference(formula):
    assert format_formula(formula) == parser_reference.format_formula(formula)


_CONNECTIVES = ["<->", "->", "|", "&"]
_A, _B, _C = Atom(Functor.A, "S", "P"), Atom(Functor.I, "S", "P"), Atom(Functor.EX, "S")


@pytest.mark.parametrize("outer", _CONNECTIVES)
@pytest.mark.parametrize("inner", _CONNECTIVES)
def test_connective_pairs_match_the_reference(outer, inner):
    # The inner connective under the outer one on either side, with and
    # without a negation around it, and the flat text with no parentheses.
    trees = []
    for nested in (Bin(inner, _A, _B), Neg(Bin(inner, _A, _B))):
        trees += [Bin(outer, nested, _C), Bin(outer, _C, nested)]
    for tree in trees:
        text = format_formula(tree)
        assert text == parser_reference.format_formula(tree)
        assert parse_formula(text) == parser_reference.parse_formula(text) == tree
    flat = f"a(S,P) {outer} i(S,P) {inner} ex(S)"
    tree = parse_formula(flat)
    assert tree == parser_reference.parse_formula(flat)
    assert format_formula(tree) == parser_reference.format_formula(tree) == flat


def test_sequent_set_semantics():
    left = parse_sequent("a(S,P), a(S,P) ==> a(S,P)")
    right = parse_sequent("a(S,P) ==> a(S,P)")
    assert left == right
    assert len(left.premises) == 1


def test_sequent_examples():
    s = parse_sequent("a(M,P), a(S,M) ==> a(S,P)")
    assert len(s.premises) == 2
    empty = parse_sequent("==> a(S,S)")
    assert not empty.premises


@settings(max_examples=1000)
@given(st.lists(formulas_st(), max_size=4), formulas_st())
def test_sequent_round_trip(premises, conclusion):
    from namecalc.proofscript import Sequent

    sequent = Sequent(frozenset(premises), conclusion)
    assert parse_sequent(format_sequent(sequent)) == sequent


def test_model_parse_and_errors():
    model = parse_model('{"universe":["u0"],"denotation":{"S":["u0"],"P":[]}}')
    assert model.of("S") == frozenset({"u0"})
    assert model.of("P") == frozenset()
    empty = parse_model('{"universe":[],"denotation":{}}')
    assert not empty.universe
    with pytest.raises(ParseError):
        parse_model('{"universe":["u0"],"denotation":{"S":["u9"]}}')
    with pytest.raises(ParseError):
        parse_model('{"universe":["u0","u0"],"denotation":{}}')


@settings(max_examples=1000)
@given(
    st.dictionaries(
        st.sampled_from(["S", "P", "M"]),
        st.sets(st.sampled_from(["u0", "u1", "u2"])),
        max_size=3,
    )
)
def test_model_round_trip(denotation):
    universe = frozenset({"u0", "u1", "u2"})
    model = Model(universe, {k: frozenset(v) for k, v in denotation.items()})
    assert parse_model(format_model(model)) == model


def test_proof_script_parse():
    script = parse_proof_script(
        """
        # conversion
        1: a(P,P) ; ax Ia [S:=P]
        2: i(S,S) ; cpl
        3: i(P,S) -> i(S,P) ; mp 1 2
        4: i(Q,S) -> i(S,Q) ; sub 3 [P:=Q]
        """
    )
    assert [line.index for line in script.lines] == [1, 2, 3, 4]
    assert script.lines[0].justification == AxiomInstance("Ia", (("S", "P"),))
    assert script.lines[1].justification == CplTautology()
    assert script.lines[2].justification == Detach(1, 2)
    assert script.lines[3].justification == Substitute(3, (("P", "Q"),))


def test_proof_script_bad_line_number():
    with pytest.raises(ParseError):
        parse_proof_script("2: a(S,S) ; ax Ia")
    with pytest.raises(ParseError):
        parse_proof_script("1: a(S,S) ; ax Ia\n1: i(S,S) ; ax Ii")


def test_proof_script_unknown_tag():
    with pytest.raises(ParseError) as err:
        parse_proof_script("1: a(S,S) ; blah")
    assert "unknown justification tag" in err.value.message


@settings(max_examples=1000)
@given(st.lists(formulas_st(), min_size=1, max_size=5), st.data())
def test_proof_script_round_trip(formulas, data):
    lines = []
    for k, formula in enumerate(formulas, start=1):
        just = data.draw(
            st.one_of(
                st.just(CplTautology()),
                st.builds(
                    AxiomInstance,
                    st.sampled_from(sorted(SCHEMAS)),
                    st.one_of(st.none(), st.just((("S", "Q"),))),
                ),
                st.builds(Detach, st.integers(1, k), st.integers(1, k)),
                st.builds(Substitute, st.integers(1, k), st.just((("S", "Q"),))),
            )
        )
        lines.append(ProofLine(k, formula, just))
    script = ProofScript(tuple(lines))
    assert parse_proof_script(format_proof_script(script)) == script


_RULE_PIECE = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_RULE_NAMES = st.one_of(
    st.sampled_from(["contraposition-3", "bridge-to-implication", "imp-apply"]),
    st.tuples(
        _RULE_PIECE,
        st.lists(st.one_of(_RULE_PIECE, st.from_regex(r"[0-9]{1,3}", fullmatch=True)), max_size=3),
    ).map(lambda t: "-".join([t[0], *t[1]])),
)
_SUBSTS = st.one_of(st.none(), substitutions_st.map(lambda d: tuple(sorted(d.items()))))


def _sequent_justifications(cite):
    return st.one_of(
        st.builds(LukAxiomSequent, st.sampled_from(sorted(AXIOM_SEQUENTS)), _SUBSTS),
        st.just(CplConsequenceAxiom()),
        st.builds(Cut, cite, cite),
        st.builds(Deduction, cite),
        st.builds(DerivedRule, _RULE_NAMES, st.lists(cite, max_size=2).map(tuple)),
    )


def _deduction_justifications(cite):
    return st.one_of(
        st.just(Trivial()),
        st.builds(CutWithRule, cite, cite, st.sampled_from([1, 2])),
        st.builds(CutWithRule, cite, st.none(), st.sampled_from([3, 4])),
        st.builds(Reductio, cite, cite),
    )


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.lists(formulas_st(max_depth=3), max_size=2), formulas_st(max_depth=3)),
        min_size=1,
        max_size=3,
    ),
    st.data(),
)
def test_sequent_script_round_trip(sequents, data):
    lines = []
    for k, (premises, conclusion) in enumerate(sequents, start=1):
        just = data.draw(_sequent_justifications(st.integers(1, k)))
        lines.append(SequentLine(k, Sequent(frozenset(premises), conclusion), just))
    script = SequentScript(tuple(lines))
    text = format_sequent_script(script)
    assert parse_sequent_script(text) == script
    assert text == reference.format_sequent_script(script)


_CATEGORICAL_ATOMS = st.builds(
    Atom,
    st.sampled_from([Functor.A, Functor.I, Functor.E, Functor.O]),
    letters_st,
    letters_st,
)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.lists(_CATEGORICAL_ATOMS, min_size=1, max_size=3), _CATEGORICAL_ATOMS),
        min_size=1,
        max_size=5,
    ),
    st.data(),
)
def test_deduction_script_round_trip(claims, data):
    lines = []
    for k, (premises, conclusion) in enumerate(claims, start=1):
        just = data.draw(_deduction_justifications(st.integers(1, k)))
        lines.append(DeductionLine(k, DeductionClaim(frozenset(premises), conclusion), just))
    script = DeductionScript(tuple(lines))
    text = format_deduction_script(script)
    assert parse_deduction_script(text) == script
    assert text == reference.format_deduction_script(script)


@pytest.mark.parametrize(
    "parse, format_script, text",
    [
        (
            parse_sequent_script,
            format_sequent_script,
            """1: ==> i(S,S) ; luk Ii
2: a(S,P), i(S,S) ==> i(S,P) ; luk Datisi [M:=S]
3: a(S,P) ==> i(S,P) ; cut 1 2
4: ==> a(S,P) -> i(S,P) ; ded 3
5: ==> a(S,P) -> i(S,P) ; rule bridge-to-implication 3
6: i(S,P), i(S,S) ==> i(S,P) ; cpl
""",
        ),
        (
            parse_deduction_script,
            format_deduction_script,
            """1: a(S,M) |- a(S,M) ; triv
2: a(M,P) |- a(M,P) ; triv
3: a(S,M), a(M,P) |- a(S,P) ; cut 1 2 r1
4: e(P,S) |- e(S,P) ; cut 3 r3
5: a(M,P), e(S,P) |- o(S,P) ; red 3 4
""",
        ),
    ],
)
def test_script_examples_round_trip(parse, format_script, text):
    script = parse(text)
    assert parse(format_script(script)) == script


# The table-driven script grammar against the hand-written one it replaced.

_FORMATS = {
    "proof": (parse_proof_script, format_proof_script, reference.parse_proof_script,
              reference.format_proof_script, ("ax", "def", "cpl", "mp", "sub")),
    "seq": (parse_sequent_script, format_sequent_script, reference.parse_sequent_script,
            reference.format_sequent_script, ("luk", "cpl", "cut", "ded", "rule")),
    "ded": (parse_deduction_script, format_deduction_script, reference.parse_deduction_script,
            reference.format_deduction_script, ("triv", "cut", "red")),
}


def _outcome(parse, format_script, text):
    try:
        script = parse(text)
    except ParseError as err:
        return ("error", err.message, err.span)
    return ("parsed", script, format_script(script))


def _assert_matches_reference(fmt, text):
    parse, format_script, ref_parse, ref_format, _ = _FORMATS[fmt]
    expected = _outcome(ref_parse, ref_format, text)
    if expected[0] == "parsed" and not expected[1].lines:
        # The one deliberate difference: an empty script is now refused.
        expected = ("error", "script has no lines", SourceSpan(0, 0))
    assert _outcome(parse, format_script, text) == expected, text


def _corpus_scripts():
    for path in sorted(DATA_DIR.rglob("*")):
        if path.suffix[1:] in _FORMATS:
            yield path.suffix[1:], path.read_text()


def test_corpus_scripts_match_the_reference_grammar():
    scripts = list(_corpus_scripts())
    assert {fmt for fmt, _ in scripts} == set(_FORMATS)
    for fmt, text in scripts:
        _assert_matches_reference(fmt, text)


# The line ends of ``str.splitlines`` other than "\n", each of which the
# script grammar reads as a line end too.
_LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("end", _LINE_ENDS, ids=lambda end: end.encode("unicode_escape").decode())
def test_every_line_end_matches_the_reference_grammar(end):
    # Between the lines of every corpus script, and inside a comment after
    # every line, where it ends the comment: what follows it is another
    # comment, or a line without a ';'.
    for fmt, text in _corpus_scripts():
        _assert_matches_reference(fmt, text.replace("\n", end))
        for rest in ("  # more", "x"):
            _assert_matches_reference(fmt, text.replace("\n", f" # note{end}{rest}\n"))


_TAG = re.compile(r"^[^#]*;\s*([a-z]+)")


def test_corpus_mutants_match_the_reference_grammar():
    # Line k of each script is dropped (k even) or has its tag replaced by the
    # next tag of its format's table (k odd); the mutant keeps the lines
    # before k and the one after it.
    for fmt, text in _corpus_scripts():
        tags = _FORMATS[fmt][4]
        lines = [line for line in text.splitlines(keepends=True) if _TAG.search(line)]
        for k, line in enumerate(lines):
            if k % 2 == 0:
                mutant = lines[:k] + lines[k + 1:k + 2]
            else:
                match = _TAG.search(line)
                tag = match.group(1)
                swapped = tags[(tags.index(tag) + 1) % len(tags)]
                mutant = lines[:k] + [line[: match.start(1)] + swapped + line[match.end(1):]] + lines[k + 1:k + 2]
            _assert_matches_reference(fmt, "".join(mutant))


_MALFORMED = [
    "",
    "# only a comment\n\n",
    "1: a(S,S) ax Ia",
    "1: a(S,S) ; blah",
    "1: a(S,S) ;",
    "1: a(S,S) ; 3",
    "2: a(S,S) ; ax Ia",
    "1: a(S,S) ; ax Ia\n1: i(S,S) ; ax Ii",
    "1: a(S,S) ; ax Ia [S:=]",
    "1: a(S,S) ; ax Ia [S]",
    "1: a(S,S) ; ax Ia [S:=P,S:=Q]",
    "1: a(S,S) ; ax Ia [S:=P",
    "1: a(S,S) ; mp 1",
    "1: a(S,S) ; mp 1 2 3",
    "1: a(S,S) ; sub 1",
    "1: a(S,S) ; sub 1 [P:=Q] extra",
    "1: ==> a(S,S) ; luk Ia []",
    "1: ==> a(S,S) ; rule and-intro-",
    "1: ==> a(S,S) ; rule -x 1",
    "1: ==> a(S,S) ; rule",
    "1: ==> a(S,S) ; rule contraposition-3 2 1",
    "1: ==> a(S,S) ; rule imp-apply 1 x",
    "1: ==> a(S,S) ; ded",
    "1: ==> a(S,S) ; cut 1",
    "1: a(S,M) |- a(S,M) ; cut 1 r1",
    "1: a(S,M) |- a(S,M) ; cut 1 2 r3",
    "1: a(S,M) |- a(S,M) ; cut 1 2 r9",
    "1: a(S,M) |- a(S,M) ; cut 1 2",
    "1: a(S,M) |- a(S,M) ; cut r1",
    "1: a(S,M) |- a(S,M) ; cut 1 2 3 r1",
    "1: a(S,M) |- a(S,M) ; red 1",
    "1: a(S,M) |- a(S,M) ; triv 1",
    "1: a(S,M) |- a(S,M) ; triv\n\n# gap\n3: a(S,M) |- a(S,M) ; cut 1 r4",
    "1: ka(S,M) |- a(S,M) ; triv",
    # Cut at the last ';' of a line that is tokenized once.
    "1: a(S,S) ;; ax Ia",
    "1: a(S,S) ; ax Ia ; mp 1 2",
    "1: a(S,S) § ; ax Ia",
    "1: a(S,S) ; ax Ia §",
    "1: a(S,S) ; ax # Ia",
    "1: a(S,S) ; ax Ia # note ; mp 1 2",
    # Line ends other than "\n", inside a body, a justification and a comment.
    "1: a(S,S) ; cpl\r\n\r\n2: a(S,S) ; mp 1 1\r\n",
    "1: a(S,S)\u2028; cpl",
    "1: a(S,S) ; mp\x851 1",
    "1: a(S,S) ; cpl # note\x0c2: a(S,S) ; cpl",
    "  \x1e1: a(S,S) ; cpl # note\r \x1f\n\xa0 2: a(S,S) § ; cpl",
    # Atoms checked by position: a ',' where '(' belongs is "expected '('"
    # for either arity, and "takes one letter" only where ')' belongs.
    "1: ex,S) ; cpl",
    "1: ex , S) ; cpl",
    "1: ex(S T) ; cpl",
    "1: a,S,T) ; cpl",
    "1: a(S,T,U) ; cpl",
]


@pytest.mark.parametrize("text", _MALFORMED)
@pytest.mark.parametrize("fmt", sorted(_FORMATS))
def test_malformed_lines_match_the_reference_grammar(fmt, text):
    _assert_matches_reference(fmt, text)


def _kind(token):
    # The parser's own reading of an accepted token's kind.
    if not token:
        return "end"
    if token.isidentifier():
        return "name"
    return "int" if token.isdigit() else "sym"


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return (err.message, err.span)


def _live_tokens(text):
    parser = _reader(text, _FINE)
    return [(_kind(token), token, parser.span(i)) for i, token in enumerate(parser.tokens)]


# The token-by-token shape of an atom after its name: None stands for a letter.
_ATOM_SHAPES = {4: ("(", None, ")"), 6: ("(", None, ",", None, ")")}


def _spells_atom(run):
    """Whether ``run``, (kind, text, span) tokens, is an atom without spaces:
    a lowercase ASCII name, then ``(``, one or two letters and ``)``."""
    name, *rest = (text for _, text, _ in run)
    return (
        name.isascii() and name.isalpha() and name.islower()
        and all(t == s if s else t[:1].isascii() and t[:1].isupper() for t, s in zip(rest, _ATOM_SHAPES[len(run)]))
        and all(left[2].end == right[2].start for left, right in zip(run, run[1:]))
    )


def _joined(tokens):
    """The texts of ``tokens`` with each run that spells an atom joined into one."""
    out, i = [], 0
    while i < len(tokens):
        size = next((n for n in (6, 4) if len(tokens[i:i + n]) == n and _spells_atom(tokens[i:i + n])), 1)
        out.append("".join(text for _, text, _ in tokens[i:i + size]))
        i += size
    return out


@settings(max_examples=200)
@given(
    st.lists(
        st.sampled_from(
            list("<->=|:;[](),~&_#S1 \t\n\xa0\u2028é٣§")
            + ["==>", "|-", "r1", "ka", "12", "a(S,P)", "ex(S)", "foo(S,P)", "a(S)", "ex(S,P)"]
        ),
        max_size=12,
    ).map("".join)
)
def test_tokenizer_matches_the_reference(text):
    # ``_FINE``'s tokens and spans are the reference's; ``_TOKEN``'s are
    # ``_FINE``'s with each atom written without spaces read as one token.
    live = _parsed(_live_tokens, text)
    for tokenize in (reference.tokenize, parser_reference._tokenize):
        assert live == _parsed(lambda t: [(x.kind, x.text, x.span) for x in tokenize(t)], text)
    whole = _parsed(lambda t: _reader(t, _TOKEN).tokens, text)
    if isinstance(live, tuple):
        assert whole[0] == live[0]
    else:
        assert whole == _joined(live)


# Formula-level parsing against the frozen reference, on printed formulas,
# sequents and deduction claims with one token-level mutation each.

_SYMBOL_TOKENS = ["<->", "==>", ":=", "->", "|-", "(", ")", ",", "~", "&", "|", ":", ";", "[", "]", "-"]
_STRAY_CHARACTERS = ["§", "é", "٣", "\xa0", " "]


@st.composite
def _mutated_texts(draw):
    shape = draw(st.sampled_from(["formula", "sequent", "claim"]))
    if shape == "formula":
        text = format_formula(draw(formulas_st(max_depth=4)))
    elif shape == "sequent":
        premises = draw(st.lists(formulas_st(max_depth=3), max_size=3))
        text = format_sequent(Sequent(frozenset(premises), draw(formulas_st(max_depth=3))))
    else:
        premises = draw(st.lists(_CATEGORICAL_ATOMS, min_size=1, max_size=3))
        text = format_deduction_claim(DeductionClaim(frozenset(premises), draw(_CATEGORICAL_ATOMS)))
    return _mutate(draw, text, _STRAY_CHARACTERS, _SYMBOL_TOKENS)


def _mutate(draw, text, inserts, swaps):
    """``text`` with one token dropped or duplicated, one symbol token
    swapped for another of ``swaps``, or one of ``inserts`` put anywhere."""
    mutation = draw(st.sampled_from(["drop", "duplicate", "swap", "insert"]))
    if mutation == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(inserts)) + text[at:]
    tokens = parser_reference._tokenize(text)[:-1]
    if mutation == "swap":
        tokens = [token for token in tokens if token.kind == "sym"]
    token = draw(st.sampled_from(tokens))
    replacement = {
        "drop": "",
        "duplicate": f"{token.text} {token.text}",
        "swap": draw(st.sampled_from([sym for sym in swaps if sym != token.text])),
    }[mutation]
    return text[: token.span.start] + replacement + text[token.span.end:]


@settings(max_examples=300)
@given(_mutated_texts())
def test_formula_level_parsing_matches_the_reference(text):
    for parse, reference_parse in (
        (parse_formula, parser_reference.parse_formula),
        (parse_sequent, parser_reference.parse_sequent),
        (parse_deduction_claim, parser_reference.parse_deduction_claim),
    ):
        assert _parsed(parse, text) == _parsed(reference_parse, text), text


# Script-level parsing against the frozen reference, on printed scripts of
# each format with one token-level mutation each, read by all three formats.

def _proof_justifications(cite):
    return st.one_of(
        st.just(CplTautology()),
        st.builds(AxiomInstance, st.sampled_from(sorted(SCHEMAS)), _SUBSTS),
        st.builds(Detach, cite, cite),
        st.builds(Substitute, cite, _SUBSTS.map(lambda subst: subst or ())),
    )


_SCRIPT_SHAPES = {
    "proof": (formulas_st(max_depth=3), _proof_justifications, ProofLine, ProofScript),
    "seq": (
        st.builds(lambda premises, conclusion: Sequent(frozenset(premises), conclusion),
                  st.lists(formulas_st(max_depth=2), max_size=2), formulas_st(max_depth=2)),
        _sequent_justifications, SequentLine, SequentScript,
    ),
    "ded": (
        st.builds(lambda premises, conclusion: DeductionClaim(frozenset(premises), conclusion),
                  st.lists(_CATEGORICAL_ATOMS, min_size=1, max_size=3), _CATEGORICAL_ATOMS),
        _deduction_justifications, DeductionLine, DeductionScript,
    ),
}


@st.composite
def _mutated_scripts(draw):
    fmt = draw(st.sampled_from(sorted(_SCRIPT_SHAPES)))
    bodies, justifications, line, script = _SCRIPT_SHAPES[fmt]
    lines = [
        line(k, draw(bodies), draw(justifications(st.integers(1, k))))
        for k in range(1, draw(st.integers(1, 3)) + 1)
    ]
    text = _FORMATS[fmt][1](script(tuple(lines)))
    return _mutate(draw, text, [";", "#", *_STRAY_CHARACTERS, *_LINE_ENDS], [*_SYMBOL_TOKENS, "#"])


@settings(max_examples=300)
@given(_mutated_scripts())
def test_script_level_parsing_matches_the_reference(text):
    for fmt in _FORMATS:
        _assert_matches_reference(fmt, text)


# Atoms read whole and token by token, in every position a token can take,
# against the frozen references: right and wrong arities, unknown names,
# long letters, and each written with and without inner spaces.

def _atom_texts():
    for functor in Functor:
        for letters in ("S", "S,P", "Ab_1,P", "S,P,Q"):
            yield f"{functor.value}({letters})"
    yield from ("foo(S,P)", "foo(S)", "A(S,P)", "a()", "a(s,P)", "a(S,)", "a1(S,P)", "_a(S,P)")


_ATOM_TEXTS = [*_atom_texts(), *(t.replace("(", " ( ").replace(",", " , ") for t in _atom_texts())]
_FORMULA_PLACES = (
    (parse_formula, parser_reference.parse_formula, ("@", "~@", "(@) & a(S,P)", "a(S,P) -> ~(@)")),
    (parse_sequent, parser_reference.parse_sequent, ("@ ==> a(S,P)", "a(S,P), @ ==> @", "==> @")),
    (parse_deduction_claim, parser_reference.parse_deduction_claim,
     ("@ |- a(S,P)", "a(S,M), @ |- @", "|- @")),
)
_SCRIPT_PLACES = (
    "1: @ ; cpl", "1: ==> @ ; cpl", "1: @ |- a(S,P) ; triv", "1: a(S,S) ; @", "1: a(S,S) ; ax @",
    "1: a(S,S) ; ax Ia @", "1: a(S,S) ; mp 1 @", "1: ==> a(S,S) ; cut 1 @ r1",
    "1: a(S,M) |- a(S,M) ; cut 1 @ r1", "1: ==> a(S,S) ; rule @", "1: ==> a(S,S) ; rule x-@ 1",
)


@pytest.mark.parametrize("atom", _ATOM_TEXTS)
def test_atoms_in_every_position_match_the_references(atom):
    for parse, reference_parse, places in _FORMULA_PLACES:
        for place in places:
            text = place.replace("@", atom)
            assert _parsed(parse, text) == _parsed(reference_parse, text), text
    for place in _SCRIPT_PLACES:
        for fmt in _FORMATS:
            _assert_matches_reference(fmt, place.replace("@", atom))


def _seeded_formula(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        functor = rng.choice(list(Functor))
        return Atom(functor, *rng.choices(("S", "P", "M", "Ab_1", "Q2"), k=functor.arity))
    shape = rng.choice(["~", "&", "|", "->", "<->"])
    if shape == "~":
        return Neg(_seeded_formula(rng, depth - 1))
    return Bin(shape, _seeded_formula(rng, depth - 1), _seeded_formula(rng, depth - 1))


def test_atom_table_holds_one_canonical_entry_per_atom():
    rng = random.Random(29)
    texts = [format_formula(_seeded_formula(rng, 3)) for _ in range(300)]
    scripts = list(_corpus_scripts())

    def parse_all():
        for text in texts:
            parse_formula(text)
        for fmt, text in scripts:
            _FORMATS[fmt][0](text)

    parse_all()
    assert all(format_formula(atom) == text for text, atom in _ATOM_TEXT.items())
    assert len(set(map(id, _ATOM_TEXT.values()))) == len(_ATOM_TEXT)
    size = len(_ATOM_TEXT)
    parse_all()
    assert len(_ATOM_TEXT) == size


def test_script_spans_count_characters():
    # A comment with a non-ASCII character above the bad line: spans are
    # character offsets into the text, not byte offsets.
    head = "# Łukasiewicz's Barbara\n1: a(M,P) & a(S,M) -> a(S,P) ; cpl\n"
    for line, bad in (("2: a(S,P) ; mp 1 x\n", "x"), ("2: a(S,P) & foo(S,P) ; cpl\n", "foo")):
        text = head + line
        with pytest.raises(ParseError) as err:
            parse_proof_script(text)
        assert text[err.value.span.start:err.value.span.end] == bad


def _nested(shape: str, depth: int) -> Formula:
    """The formula that ``NESTED_SHAPES[shape](depth)`` writes, built directly."""
    node = Atom(Functor.A, "S", "S")
    for _ in range(depth if shape != "parentheses" else 0):
        node = Bin("->", Atom(Functor.A, "S", "S"), node) if shape == "implications" else Neg(node)
    return node


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_formula_at_the_nesting_limit_parses(shape):
    assert MAX_NESTING == 400
    expected = _nested(shape, MAX_NESTING if shape != "negated parentheses" else MAX_NESTING // 2)
    assert parse_formula(NESTED_SHAPES[shape](MAX_NESTING)) == expected


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_formula_past_the_nesting_limit_is_refused(shape):
    with pytest.raises(NestingTooDeep) as err:
        parse_formula(NESTED_SHAPES[shape](MAX_NESTING + 1))
    # The declared error, which a ``RecursionError`` handler also catches,
    # not the interpreter's own.
    assert type(err.value) is NestingTooDeep and isinstance(err.value, RecursionError)
    assert str(err.value) == "formula nests too deeply"


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_script_lines_at_and_past_the_nesting_limit(shape):
    for parse, line in ((parse_proof_script, "1: {} ; cpl\n"), (parse_sequent_script, "1: ==> {} ; cpl\n")):
        assert len(parse(line.format(NESTED_SHAPES[shape](MAX_NESTING))).lines) == 1
        with pytest.raises(NestingTooDeep):
            parse(line.format(NESTED_SHAPES[shape](MAX_NESTING + 1)))


def test_nesting_counts_levels_open_at_once():
    # Side by side, two formulas at the limit are still at the limit, and a
    # flat chain of any length is no nesting at all.
    deep = NESTED_SHAPES["parentheses"](MAX_NESTING)
    assert parse_formula(f"{deep} & {deep} | ~{NESTED_SHAPES['parentheses'](MAX_NESTING - 1)}")
    assert parse_sequent(f"{deep}, {deep} ==> {deep}").conclusion == _nested("parentheses", 0)
    assert parse_formula(" & ".join(["a(S,S)"] * 2000))
    with pytest.raises(NestingTooDeep):
        parse_formula(f"{deep} & ~{deep}")


def test_first_of_nesting_and_parse_errors_is_the_answer():
    # Whichever comes first in reading order, as the second, token-by-token
    # read gives the same answer: a nesting refusal is not read again.
    too_deep = NESTED_SHAPES["parentheses"](MAX_NESTING + 1)
    with pytest.raises(NestingTooDeep):
        parse_formula(too_deep + " & foo(S)")
    with pytest.raises(NestingTooDeep):
        parse_formula("(" * (MAX_NESTING + 1) + "a( S , S ) & foo(S)")
    with pytest.raises(ParseError) as err:
        parse_formula("foo(S) & " + too_deep)
    assert err.value.message == "unknown functor 'foo'"


def _from_stack_depth(frames: int, call):
    return call() if frames == 0 else _from_stack_depth(frames - 1, call)


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_formula_at_the_nesting_limit_parses_from_deep_in_the_stack(shape):
    text = NESTED_SHAPES[shape](MAX_NESTING)
    assert _from_stack_depth(300, lambda: parse_formula(text)) == parse_formula(text)


# Run in a fresh interpreter, so that both parsers start from the same stack
# depth: for each shape, whether the live parser accepts it at the limit and
# refuses it one level past, and the largest nesting the reference parser
# accepts before the recursion limit stops it, found by bisection.
_DEPTH_PROBE = """
import json
import sys
import parser_reference
from conftest import NESTED_SHAPES
from namecalc.parser import MAX_NESTING, NestingTooDeep, parse_formula


def accepts(parse, text):
    try:
        parse(text)
    except RecursionError:
        return False
    return True


def refuses(text):
    try:
        parse_formula(text)
    except NestingTooDeep:
        return True
    return False


def deepest(parse, shape):
    low, high = 0, sys.getrecursionlimit()
    assert accepts(parse, shape(low)) and not accepts(parse, shape(high))
    while high - low > 1:
        middle = (low + high) // 2
        if accepts(parse, shape(middle)):
            low = middle
        else:
            high = middle
    return low


for name, shape in NESTED_SHAPES.items():
    at_limit = accepts(parse_formula, shape(MAX_NESTING))
    past_limit = refuses(shape(MAX_NESTING + 1))
    print(json.dumps([name, at_limit, past_limit, deepest(parser_reference.parse_formula, shape)]))
"""


def test_nesting_limit_holds_in_a_fresh_interpreter():
    # Exactly MAX_NESTING levels are accepted and one more refused, and the
    # limit is above the reference's deepest parentheses.  The reference
    # takes one frame per ``~`` or ``->`` and reaches further on those, so
    # chains past the limit that it parses are refused by design.
    tests = Path(__file__).resolve().parent
    path = [str(tests), str(tests.parent / "src"), *sys.path]
    probe = f"import sys; sys.path[:0] = {path!r}\n" + _DEPTH_PROBE
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    frozen = {}
    for line in result.stdout.splitlines():
        shape, at_limit, past_limit, frozen[shape] = json.loads(line)
        assert at_limit and past_limit, line
        assert frozen[shape] > 100, line
    assert sorted(frozen) == sorted(NESTED_SHAPES)
    assert MAX_NESTING == 400
    assert frozen["parentheses"] <= MAX_NESTING, frozen


def test_empty_script_is_a_parse_error():
    for parse in (parse_proof_script, parse_sequent_script, parse_deduction_script):
        for text in ("", "\n  \n# nothing here\n"):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.message, err.value.span) == ("script has no lines", SourceSpan(0, 0))


@pytest.mark.parametrize(
    "format_script, empty",
    [
        (format_proof_script, ProofScript(())),
        (format_sequent_script, SequentScript(())),
        (format_deduction_script, DeductionScript(())),
    ],
)
def test_empty_script_is_not_formatted(format_script, empty):
    # The parse functions refuse a script with no lines, so formatting one
    # would give text that does not parse back.
    with pytest.raises(ValueError, match="script has no lines"):
        format_script(empty)


def test_deduction_claim_rejects_nonatomic():
    with pytest.raises(ParseError):
        parse_deduction_claim("a(S,P) & a(P,S) |- a(S,S)")
    with pytest.raises(ParseError):
        parse_deduction_claim("ka(S,P) |- i(S,P)")
    with pytest.raises(ParseError):
        parse_deduction_claim("|- a(S,S)")
    claim = parse_deduction_claim("a(S,M), a(M,P) |- a(S,P)")
    assert format_deduction_claim(claim) == "a(M,P), a(S,M) |- a(S,P)"


def test_parse_is_total_on_junk():
    for junk in ["", "&", "a(", ")(", "a(S,P) ->", "1:", "§", "~", "a(S,P) extra"]:
        with pytest.raises(ParseError):
            parse_formula(junk)
