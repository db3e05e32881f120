import itertools
import random

import pytest

from namecalc.core import Atom, Functor
from namecalc.parser import ParseError, format_model, parse_model
from namecalc.representation import (
    CANONICAL_METHODS,
    CANONICAL_SYSTEMS,
    RelationalStructure,
    StructureViolation,
    atomic_agreement,
    bracket,
    canonical_model,
    congruence_classes,
    format_structure,
    i_sets,
    parse_structure,
    represent,
    structure_from_model,
    verify_structure,
)
from namecalc.semantics import ModelClass, evaluate, make_model, random_model
from representation_reference import (
    reference_canonical_model,
    reference_i_sets,
    reference_represent,
    reference_structure_from_model,
    reference_verify_structure,
)

VOCAB3 = ("S", "P", "M")


def test_one_point_reflexive_structure():
    s = RelationalStructure(("x",), frozenset([("x", "x")]), frozenset([("x", "x")]))
    assert verify_structure(s, "B1") == []
    assert verify_structure(s, "B3") == []
    assert i_sets(s) == [frozenset({"x"})]
    assert bracket(s, "x", "x") == frozenset({"x"})


def test_one_point_without_overlap():
    s = RelationalStructure(("x",), frozenset([("x", "x")]), frozenset())
    assert verify_structure(s, "B1") == []  # the dichotomy holds through A
    names = [name for name, _ in verify_structure(s, "B3")]
    assert names == ["B4'"]
    assert bracket(s, "x", "x") is None


def test_one_point_b3_representation():
    s = RelationalStructure(("x",), frozenset([("x", "x")]), frozenset([("x", "x")]))
    e_map, report = represent(s, "B3")
    assert e_map["x"] == frozenset({("iset", frozenset({"x"}))})
    assert report.ok


def test_structures_harvested_from_models_are_c_structures():
    for seed in range(60):
        model = random_model(seed, VOCAB3, ModelClass.ALL, 4)
        structure = structure_from_model(model, VOCAB3)
        assert verify_structure(structure, "C") == []


def test_bracket_members_and_i_set_property():
    for seed in range(40):
        model = random_model(seed, VOCAB3, ModelClass.ALL, 4)
        s = structure_from_model(model, VOCAB3)
        family = set(i_sets(s))
        for x, y in itertools.product(s.carrier, repeat=2):
            if s.i(x, y):
                found = bracket(s, x, y)
                assert x in found and y in found
                assert found in family
        for x in s.carrier:
            if not s.i(x, x):
                assert all(x not in f for f in family)


def test_represent_on_random_c_structures():
    for seed in range(50):
        model = random_model(seed, VOCAB3, ModelClass.ALL, 4)
        structure = structure_from_model(model, VOCAB3)
        e_map, report = represent(structure, "C")
        assert report.ok, (seed, report.failures)
        for x in structure.carrier:
            if structure.e(x, x):
                assert len(e_map[x]) == 1


def test_represent_on_random_b3_structures():
    for seed in range(50):
        model = random_model(seed, VOCAB3, ModelClass.TRADITIONAL, 4)
        structure = structure_from_model(model, VOCAB3, with_eps=False)
        assert verify_structure(structure, "B3") == []
        e_map, report = represent(structure, "B3")
        assert report.ok, (seed, report.failures)
        assert all(e_map[x] for x in structure.carrier)


def test_represent_requires_a_clean_structure():
    bad = RelationalStructure(("x", "y"), frozenset([("x", "x")]), frozenset())
    with pytest.raises(StructureViolation, match=r"^structure violates B1 at \('y',\)$") as raised:
        represent(bad, "B1")
    assert isinstance(raised.value, ValueError)
    assert raised.value.violations == verify_structure(bad, "B1")


def test_structure_json_round_trip():
    model = random_model(3, VOCAB3, ModelClass.ALL, 3)
    structure = structure_from_model(model, VOCAB3)
    assert parse_structure(format_structure(structure)) == structure


MALFORMED_STRUCTURES = {
    "list": ('[["x", "x"]]', "keys carrier, A and I"),
    "relation-number": ('{"carrier": ["x"], "A": 5, "I": []}', "A must be a list of pairs"),
    "carrier-string": ('{"carrier": "xy", "A": [], "I": []}', "carrier must be a list of strings"),
    "short-pair": ('{"carrier": ["x"], "A": [["x"]], "I": []}', "A must be a list of pairs"),
    "outside-carrier": ('{"carrier": ["x"], "A": [], "I": [["x", "y"]]}', "outside the carrier"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_STRUCTURES))
def test_malformed_structure_json_is_a_parse_error(name):
    text, message = MALFORMED_STRUCTURES[name]
    with pytest.raises(ParseError, match=message):
        parse_structure(text)


def test_filter_conditions_from_the_diagram():
    for seed in range(60):
        model = random_model(seed, VOCAB3, ModelClass.ALL, 4)
        diagram = structure_from_model(model, VOCAB3)
        filters = set(i_sets(diagram))
        for s, p in itertools.product(VOCAB3, repeat=2):
            if diagram.i(s, p):
                designated = frozenset(
                    m for m in VOCAB3 if diagram.a(s, m) or diagram.a(p, m)
                )
                assert designated in filters
        for s in VOCAB3:
            has_filter = any(s in f for f in filters)
            assert has_filter == diagram.i(s, s)


def test_congruence_blocks_are_a_congruence_for_every_functor():
    for seed in range(40):
        model = random_model(seed, VOCAB3, ModelClass.ALL, 4)
        diagram = structure_from_model(model, VOCAB3)
        blocks = congruence_classes(diagram)
        for letter in VOCAB3:
            assert letter in blocks[letter]
        for x, y in itertools.product(VOCAB3, repeat=2):
            if blocks[x] != blocks[y] or x == y:
                continue
            for functor in Functor:
                for other in VOCAB3:
                    if functor.arity == 1:
                        lhs = evaluate(model, Atom(functor, x))
                        rhs = evaluate(model, Atom(functor, y))
                        assert lhs == rhs
                        continue
                    assert evaluate(model, Atom(functor, x, other)) == evaluate(
                        model, Atom(functor, y, other)
                    )
                    assert evaluate(model, Atom(functor, other, x)) == evaluate(
                        model, Atom(functor, other, y)
                    )


def test_canonical_empty_subject_case():
    model = make_model(["u"], {"S": [], "P": ["u"]})
    built = canonical_model(model, "SH", "pairs", ["S", "P"])
    assert built.of("S") == frozenset()
    assert evaluate(built, Atom(Functor.A, "S", "P"))


def test_canonical_singleton_case():
    model = make_model(["u"], {"S": ["u"]})
    built = canonical_model(model, "SHIS", "pairs", ["S"])
    assert len(built.of("S")) == 1
    assert evaluate(built, Atom(Functor.EPS, "S", "S"))


def test_canonical_agreement_sweep():
    for seed in range(150):
        vocab = VOCAB3[: 1 + seed % 3]
        for system, cls in (
            ("SH", ModelClass.ALL),
            ("LUK", ModelClass.TRADITIONAL),
            ("SHIS", ModelClass.ALL),
        ):
            model = random_model(seed, vocab, cls, 4)
            for method in ("filters", "pairs"):
                built = canonical_model(model, system, method, vocab)
                assert atomic_agreement(model, built, vocab, system == "SHIS") == []


def test_canonical_luk_needs_a_traditional_model():
    model = make_model(["u"], {"S": []})
    with pytest.raises(ValueError):
        canonical_model(model, "LUK", "filters", ["S"])


def test_nonmono_variant_never_builds_singletons():
    for seed in range(100):
        vocab = VOCAB3[: 1 + seed % 3]
        model = random_model(seed, vocab, ModelClass.ALL, 4)
        for method in ("filters", "pairs"):
            built = canonical_model(model, "SH", method, vocab, force_nonmono=True)
            assert all(len(built.of(v)) != 1 for v in vocab)
    for seed in range(50):
        model = random_model(seed, VOCAB3, ModelClass.TRADITIONAL, 4)
        for method in ("filters", "pairs"):
            built = canonical_model(model, "LUK", method, VOCAB3, force_nonmono=True)
            assert all(len(built.of(v)) >= 2 for v in VOCAB3)


def test_canonical_model_from_json_model():
    model = parse_model('{"universe":["u0","u1"],"denotation":{"S":["u0","u1"],"P":["u0"]}}')
    built = canonical_model(model, "SHIS", "filters", ["S", "P"])
    assert atomic_agreement(model, built, ["S", "P"], True) == []


LETTERS6 = ("M", "P", "Q", "R", "S", "T")


def _sample_models(seeds=60):
    """Seeded models over 0-6 letters, in three classes; on odd seeds the
    model does not denote the last letter of the vocabulary."""
    classes = (ModelClass.ALL, ModelClass.TRADITIONAL, ModelClass.NON_MONOREFERENTIAL)
    for n in range(7):
        vocab = LETTERS6[:n]
        for seed in range(seeds):
            yield vocab, random_model(seed, vocab[: n - seed % 2], classes[seed % 3], 2 + seed % 3)


def _outcome(build, *args):
    try:
        return format_model(build(*args))
    except ValueError as err:
        return f"ValueError: {err}"


def test_canonical_models_match_the_reference():
    refused = 0
    for vocab, model in _sample_models():
        for system, method, force in itertools.product(
            CANONICAL_SYSTEMS, CANONICAL_METHODS, (False, True)
        ):
            args = (model, system, method, vocab, force)
            expected = _outcome(reference_canonical_model, *args)
            assert _outcome(canonical_model, *args) == expected, args
            refused += expected.startswith("ValueError: LUK")
    assert refused  # non-traditional models reach LUK's refusal


def _represent_outcome(build, structure, kind):
    try:
        return build(structure, kind)
    except ValueError as err:
        return str(err)


def test_represent_matches_the_reference():
    violated = 0
    for vocab, model in _sample_models(seeds=30):
        if not vocab:
            continue
        for with_eps, kind in itertools.product((True, False), ("B1", "B3", "C")):
            structure = structure_from_model(model, vocab, with_eps)
            expected = _represent_outcome(reference_represent, structure, kind)
            assert _represent_outcome(represent, structure, kind) == expected, (vocab, kind, with_eps)
            violated += isinstance(expected, str)
    assert violated  # empty letters break B3's I-reflexivity


def _canonical_point(point):
    tag, value = point
    return "flt:" + ",".join(sorted(value)) if tag == "iset" else "lt:" + value


def test_filters_model_is_the_represent_map_of_its_diagram():
    """The rewrite rests on this: the filters model's denotation is
    ``represent``'s map of the model's diagram, with I-set points named
    ``flt:`` and letter points ``lt:``.  Its universe adds one thing: the
    ``lt:`` point of every inhabited letter, also when it lies in no image
    (each letter above it is singular under SHIS)."""
    kinds = {("SH", False): "B1", ("LUK", False): "B3", ("SHIS", False): "C",
             ("SH", True): "C", ("LUK", True): "C"}
    outside_every_image = 0
    for vocab, model in _sample_models():
        if not vocab:
            continue
        for (system, force), kind in kinds.items():
            try:
                built = canonical_model(model, system, "filters", vocab, force)
            except ValueError:  # LUK refuses a model that is not traditional
                continue
            diagram = structure_from_model(model, vocab, with_eps=system == "SHIS")
            e_map, report = represent(diagram, kind)
            assert report.ok
            images = {x: frozenset(map(_canonical_point, points)) for x, points in e_map.items()}
            assert dict(built.denotation) == images
            covered = frozenset().union(*images.values())
            letter_points = {f"lt:{v}" for v in vocab if diagram.i(v, v)} if kind == "C" else set()
            assert built.universe == covered | letter_points
            outside_every_image += not letter_points <= covered
    assert outside_every_image


def _random_structure(rng: random.Random, n: int) -> RelationalStructure:
    """A structure on n elements, listed in a random order, with arbitrary A,
    I and eps: each may be empty, not reflexive or not transitive, and eps
    may be missing."""
    carrier = tuple(rng.sample([f"x{k}" for k in range(9)], n))
    loops = rng.choice((0, 0.5, 1))
    pa = rng.choice((0, 0.15, 0.4, 0.8))
    pi = rng.choice((0, 0.3, 0.7, 0.95, 1))

    def relation(p, diagonal):
        return frozenset((x, y) for x in carrier for y in carrier
                         if rng.random() < (diagonal if x == y else p))

    eps = None if rng.random() < 0.3 else relation(rng.choice((0, 0.2, 0.6)), rng.choice((0, 0.5)))
    return RelationalStructure(carrier, relation(pa, loops), relation(pi, max(pi, loops)), eps)


def test_i_sets_and_conditions_match_the_reference_on_arbitrary_structures():
    rng = random.Random(20240)
    with_i_sets = larger = 0
    violated = set()
    for _ in range(3000):
        structure = _random_structure(rng, rng.randint(1, 9))
        expected = reference_i_sets(structure)
        assert i_sets(structure) == expected, format_structure(structure)
        with_i_sets += bool(expected)
        larger += len(expected) > 20
        for kind in ("B1", "B3", "C"):
            found = reference_verify_structure(structure, kind)
            assert verify_structure(structure, kind) == found, (kind, format_structure(structure))
            violated |= {name for name, _ in found}
    assert with_i_sets > 1000 and larger > 100
    assert violated == {"B1", "B2", "B3", "B4", "B4'", "B5", "C0", "C1", "C2", "C4"}


def test_structure_from_model_matches_the_reference():
    letters = ("M", "P", "Q", "R", "S")
    for seed in range(400):
        cls = list(ModelClass)[seed % 4]
        vocab = letters[: 1 + seed % 5]
        denoted = vocab[: len(vocab) - seed // 4 % 3]  # up to two letters left out of the map
        model = random_model(seed, denoted, cls, 2 + seed % 4)
        for with_eps in (True, False):
            assert structure_from_model(model, vocab, with_eps) == reference_structure_from_model(
                model, vocab, with_eps), (seed, with_eps)


CARRIER13 = tuple(f"e{k:02d}" for k in range(13))


def test_i_sets_of_a_sparse_13_element_chain():
    """A total order below a total overlap: only the 13 upper sets are I-sets."""
    chain = RelationalStructure(
        CARRIER13,
        frozenset((x, y) for x, y in itertools.product(CARRIER13, repeat=2) if x <= y),
        frozenset(itertools.product(CARRIER13, repeat=2)),
    )
    family = i_sets(chain)
    assert family == [frozenset(CARRIER13[k:]) for k in reversed(range(13))]
    assert family == reference_i_sets(chain)
    assert verify_structure(chain, "B1") == reference_verify_structure(chain, "B1") == []


def test_i_sets_when_every_subset_is_one():
    every = RelationalStructure(
        CARRIER13,
        frozenset((x, x) for x in CARRIER13),
        frozenset(itertools.product(CARRIER13, repeat=2)),
    )
    family = i_sets(every)
    assert len(family) == 2 ** 13 - 1
    assert family == reference_i_sets(every)
