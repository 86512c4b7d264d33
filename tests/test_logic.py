import random

import pytest

from forestalg import logic, terms
from forestalg.decide import is_ef_algebra
from forestalg.errors import ParseError, RoleError
from forestalg.hom import recognizers_isomorphic, syntactic
from forestalg.oracle import enumerate_forests, random_forest

from helpers import (census_formulas, example_language_recognizer,
                     four_element_algebra, random_formula)


def F(text):
    return terms.parse_forest(text)


def test_parse_example_formula():
    phi = logic.parse_formula("EX(a & !EF b) & EX(b | EF b)")
    assert isinstance(phi, logic.And)
    assert isinstance(phi.left, logic.EX)
    assert logic.print_formula(phi) == "EX(a & !EF b) & EX(b | EF b)"


def test_parse_round_trip():
    rng = random.Random(4)
    for _ in range(300):
        phi = random_formula(rng, ("a", "b"), 3)
        assert logic.parse_formula(logic.print_formula(phi)) == phi


def test_roles():
    assert logic.role(logic.parse_formula("EF T")) == logic.FOREST
    assert logic.role(logic.parse_formula("a")) == logic.TREE
    assert logic.role(logic.parse_formula("a & EF b")) == logic.TREE
    with pytest.raises(RoleError):
        logic.parse_formula("a", require=logic.FOREST)
    with pytest.raises(RoleError):
        logic.models(F("a"), logic.parse_formula("a | b"))


def test_parse_errors():
    with pytest.raises(ParseError):
        logic.parse_formula("EF")
    with pytest.raises(ParseError):
        logic.parse_formula("a &")
    with pytest.raises(ParseError):
        logic.parse_formula("(a & b")


def test_models_clauses():
    s = F("a+b(b)")
    assert logic.models(s, logic.parse_formula("EX a"))
    assert logic.models(s, logic.parse_formula("EX(a & !EF b)"))
    assert logic.models(s, logic.parse_formula("EX(b | EF b)"))
    assert logic.models(s, logic.parse_formula("EF b"))
    assert not logic.models(s, logic.parse_formula("EF(a & EF b)"))


def test_models_tree_ex_means_child():
    # as a tree formula, EX a speaks about children of the root
    t = terms.parse_forest("a(b)")[0]
    assert not logic.models_tree(t, logic.parse_formula("EX a"))
    assert logic.models_tree(t, logic.parse_formula("EX b"))
    # as a forest formula it speaks about roots
    assert logic.models(F("a(b)"), logic.parse_formula("EX a"))


def test_empty_forest():
    assert logic.models((), logic.parse_formula("T"))
    assert not logic.models((), logic.parse_formula("EX a"))
    assert not logic.models((), logic.parse_formula("EF T"))


def test_to_recognizer_trivial():
    rec = logic.to_recognizer(logic.TrueF(), ("a", "b"))
    assert rec.hom.target.H.size == 1
    assert rec.accept == frozenset({0})


def test_to_recognizer_ex_a():
    rec = logic.to_recognizer(logic.parse_formula("EX a"), ("a", "b"))
    syn, _ = syntactic(rec)
    assert syn.hom.target.H.size == 2


def test_to_recognizer_is_valid_and_ic():
    rec = example_language_recognizer()
    alg = rec.hom.target
    assert alg.check_axioms() == []
    for h in range(alg.H.size):
        for g in range(alg.H.size):
            assert alg.plus(h, g) == alg.plus(g, h)
        assert alg.plus(h, h) == h


def test_example_language_syntactic_matches_fixture():
    rec = example_language_recognizer()
    syn, _ = syntactic(rec)
    assert syn.hom.target.H.size == 4
    fixture_syn, _ = syntactic(four_element_algebra())
    assert recognizers_isomorphic(syn, fixture_syn) is not None
    ok, witness = is_ef_algebra(syn.hom.target)
    assert not ok


def test_recognizer_agrees_with_models_enumerated():
    phi = logic.parse_formula("EX(a & !EF b) & EX(b | EF b)")
    full = logic.Or(phi, logic.EF(phi))
    rec = logic.to_recognizer(full, ("a", "b"))
    for s in enumerate_forests(("a", "b"), 3, 2):
        assert rec.accepts(s) == logic.models(s, full)


def test_recognizer_agrees_with_models_on_the_census():
    """Every EF+EX formula of at most five nodes over {a, b}: the compiled
    recognizer accepts exactly the forests of depth and width at most 2
    that satisfy the formula."""
    forests = list(enumerate_forests(("a", "b"), 2, 2))
    formulas = census_formulas(5, (logic.EF, logic.EX))
    assert len(formulas) == 1017
    for phi in formulas:
        rec = logic.to_recognizer(phi, ("a", "b"))
        assert ([rec.accepts(s) for s in forests]
                == [logic.models(s, phi) for s in forests]), logic.print_formula(phi)


def test_recognizer_agrees_with_models_random():
    rng = random.Random(12)
    alphabet = ("a", "b")
    for _ in range(150):
        phi = random_formula(rng, alphabet, 3)
        rec = logic.to_recognizer(phi, alphabet)
        for _ in range(7):
            s = random_forest(rng, alphabet, 4, 3)
            assert rec.accepts(s) == logic.models(s, phi)


def test_ef_monotone_under_wrapping():
    rng = random.Random(13)
    phi = logic.parse_formula("EF(a & EF b)")
    for _ in range(100):
        s = random_forest(rng, ("a", "b"), 3, 2)
        if logic.models(s, phi):
            t = random_forest(rng, ("a", "b"), 2, 2)
            wrapped = t + (terms.tree(rng.choice("ab"), s),)
            assert logic.models(wrapped, phi)


def _random_tree_formula(rng, alphabet, depth):
    """A random formula that may hold letters outside EF/EX."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return logic.Letter(rng.choice(alphabet))
    if roll < 0.4:
        return random_formula(rng, alphabet, depth)
    if roll < 0.55:
        return logic.Not(_random_tree_formula(rng, alphabet, depth - 1))
    op = logic.And if roll < 0.8 else logic.Or
    return op(_random_tree_formula(rng, alphabet, depth - 1),
              _random_tree_formula(rng, alphabet, depth - 1))


def test_models_tree_agrees_with_the_compiled_ex_random():
    """A tree satisfies psi exactly when the one-tree forest satisfies
    EX psi; the compiled recognizer of EX psi decides the latter."""
    rng = random.Random(31)
    alphabet = ("a", "b")
    tree_role = 0
    for _ in range(200):
        psi = _random_tree_formula(rng, alphabet, 3)
        tree_role += logic.role(psi) == logic.TREE
        rec = logic.to_recognizer(logic.EX(psi), alphabet)
        for _ in range(8):
            t = terms.tree(rng.choice(alphabet),
                           random_forest(rng, alphabet, 3, 3))
            assert logic.models_tree(t, psi) == rec.accepts((t,))
    assert tree_role >= 50


def test_malformed_formula_is_refused_everywhere():
    bad = logic.And(logic.Letter("a"), 3)
    with pytest.raises(TypeError, match="not a formula: 3"):
        logic.role(bad)
    with pytest.raises(TypeError, match="not a formula: 3"):
        logic.formula_letters(bad)
