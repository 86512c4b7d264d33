import os
import random

import pytest

from forestalg import defk, logic, terms
from forestalg.algebra import close_vertical, horizontal_monoid
from forestalg.cli import _load_recognizer
from forestalg.decide import decide
from forestalg.defk import (KdefEvaluator, alpha1, definiteness_degree,
                            definiteness_oracle, ex_definable_by_idempotents,
                            free_kdefinite, guarded_semigroup, key_sum,
                            simk_equiv, simk_key)
from forestalg.errors import SizeLimitError
from forestalg.hom import (Homomorphism, factors_through, image_restrict,
                           syntactic)
from forestalg.joint import TensorEvaluator, evaluate, mutually_determine
from forestalg.oracle import enumerate_forests, random_forest

from helpers import (differential_homs, example_language_recognizer,
                     random_big_recognizer, reference_definiteness_degree,
                     reference_definiteness_levels,
                     reference_idempotent_criterion, simk_tset,
                     u2_example_recognizer, xor_u2_hom)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def F(text):
    return terms.parse_forest(text)


def test_simk_level_zero_trivial():
    rng = random.Random(1)
    for _ in range(30):
        s = random_forest(rng, ("a", "b"), 3, 2)
        t = random_forest(rng, ("a", "b"), 3, 2)
        assert simk_equiv(s, t, 0)


def test_simk_examples():
    assert simk_equiv(F("a(b)+a(b+b)"), F("a(c)"), 1)   # both truncate to a
    assert not simk_equiv(F("a(b)"), F("a(c)"), 2)
    # chains of k letters over different leaves
    for k in range(1, 5):
        s = F("a(" * k + "b" + ")" * k)
        t = F("a(" * k + "c" + ")" * k)
        assert simk_equiv(s, t, k)
        assert not simk_equiv(s, t, k + 1)


def test_simk_tset_agrees_with_truncation():
    rng = random.Random(2)
    for _ in range(400):
        s = random_forest(rng, ("a", "b", "c"), 4, 3)
        t = random_forest(rng, ("a", "b", "c"), 4, 3)
        for k in range(5):
            assert (simk_tset(s, k) == simk_tset(t, k)) == simk_equiv(s, t, k)


def test_simk_refinement():
    rng = random.Random(3)
    for _ in range(200):
        s = random_forest(rng, ("a", "b"), 4, 3)
        t = random_forest(rng, ("a", "b"), 4, 3)
        for k in range(4):
            if simk_equiv(s, t, k + 1):
                assert simk_equiv(s, t, k)


def _random_canonical_trees(rng, labels, depth, count):
    """``count`` canonical trees of depth at most ``depth``; children are
    drawn from the trees made before, so keys built from them share
    subtrees."""
    trees = []
    for _ in range(count):
        below = [t for t in trees if terms.forest_depth((t,)) < depth]
        children = ()
        if below:
            children = terms.ic_normalize(
                tuple(rng.choice(below) for _ in range(rng.randint(0, 3))))
        trees.append(terms.tree(rng.choice(labels), children))
    return trees


def test_key_sum_is_normalized_concatenation():
    rng = random.Random(4)
    for depth in (1, 2, 3):
        for _ in range(60):
            letters = ("a", "b", "c")[:rng.randint(1, 3)]
            labels = list(letters) + [(a, rng.choice(("0", "h1", "inf")))
                                      for a in letters]
            trees = _random_canonical_trees(rng, labels, depth, 12)
            keys = [terms.ic_normalize(tuple(rng.sample(trees, rng.randint(
                0, min(4, len(trees)))))) for _ in range(6)]
            ev = KdefEvaluator(depth)
            for c1 in keys:
                for c2 in keys:
                    want = terms.ic_normalize(c1 + c2)
                    assert key_sum(c1, c2) == want
                    assert ev.plus_state(c1, c2) == want


def test_kdef_evaluator_matches_simk_key():
    rng = random.Random(5)
    evaluators = [KdefEvaluator(k) for k in range(4)]
    for _ in range(150):
        s = random_forest(rng, ("a", "b", "c"), 4, 3)
        for k, ev in enumerate(evaluators):
            assert evaluate(ev, s) == simk_key(s, k).key


def test_free_kdefinite_sizes():
    alg0, _ = free_kdefinite(("a", "b"), 0)
    assert alg0.H.size == 1
    alg1, hom1 = free_kdefinite(("a", "b"), 1)
    assert alg1.H.size == 4  # the subsets of the alphabet
    alg2, hom2 = free_kdefinite(("a",), 2)
    keys = {terms.print_forest(k) for k in hom2.keys}
    assert keys == {"0", "a", "a(a)", "a+a(a)"}


def test_free_kdefinite_class_count_matches_enumeration():
    # depth-bounded canonical forests enumerate the classes exactly
    for alphabet, k in ((("a",), 2), (("a", "b"), 1)):
        alg, hom = free_kdefinite(alphabet, k)
        wide = set()
        for f in enumerate_forests(alphabet, k, 10):
            wide.add(terms.ic_normalize(terms.truncate(f, k)))
        assert len(wide) == alg.H.size


def test_free_kdefinite_cap():
    with pytest.raises(SizeLimitError):
        free_kdefinite(("a", "b", "c"), 3, max_classes=50)


def test_alpha1_values():
    hom = alpha1(("a", "b", "c", "d"))
    v = hom.eval(F("a(b(c))+d"))
    key = hom.keys[v]
    assert {t[0] for t in key} == {"a", "d"}
    assert hom.eval(F("0")) == 0


def test_any_kdefinite_hom_factors_through_free():
    # the syntactic morphism of "EX a" is 1-definite, so alpha1 covers it
    rec = logic.to_recognizer(logic.parse_formula("EX a"), ("a", "b"))
    syn, _ = syntactic(rec)
    ok, _ = factors_through(syn.hom, alpha1(("a", "b")))
    assert ok


def test_alpha1_mutual_with_constant_products():
    from forestalg.algebra import u2
    from helpers import direct_product
    from forestalg.hom import Homomorphism

    prod = direct_product(u2(), u2())
    cinf = u2().V.names.index("cinf")
    c0 = u2().V.names.index("c0")
    beta = Homomorphism(("a", "b"), prod,
                        {"a": cinf * 3 + c0, "b": c0 * 3 + cinf})
    a1 = alpha1(("a", "b"))
    assert factors_through(beta, a1)[0]
    assert factors_through(a1, beta)[0]


def test_level_two_mutual_with_tensor():
    A = ("a", "b")
    a1 = alpha1(A)
    tensor = TensorEvaluator(a1, KdefEvaluator(1))
    assert mutually_determine(KdefEvaluator(2), tensor, A)


def test_definiteness_degree_fixtures():
    assert definiteness_degree(alpha1(("a", "b"))) == 1
    rec_ex = logic.to_recognizer(logic.parse_formula("EX a"), ("a", "b"))
    syn_ex, _ = syntactic(rec_ex)
    assert definiteness_degree(syn_ex.hom) == 1
    rec_ef = logic.to_recognizer(logic.parse_formula("EF a"), ("a", "b"))
    syn_ef, _ = syntactic(rec_ef)
    assert definiteness_degree(syn_ef.hom) is None
    rec_exex = logic.to_recognizer(
        logic.parse_formula("EX EX a"), ("a", "b"))
    syn_exex, _ = syntactic(rec_exex)
    assert definiteness_degree(syn_exex.hom) == 2


def test_definiteness_degree_trivial():
    rec = logic.to_recognizer(logic.parse_formula("T"), ("a",))
    syn, _ = syntactic(rec)
    assert definiteness_degree(syn.hom) == 0


def test_definiteness_oracle_agrees():
    rec_ex = logic.to_recognizer(logic.parse_formula("EX a"), ("a", "b"))
    syn_ex, _ = syntactic(rec_ex)
    assert definiteness_oracle(syn_ex.hom, 1)
    rec_ef = logic.to_recognizer(logic.parse_formula("EF a"), ("a", "b"))
    syn_ef, _ = syntactic(rec_ef)
    assert not any(definiteness_oracle(syn_ef.hom, k) for k in (1, 2, 3))
    rec_exex = logic.to_recognizer(logic.parse_formula("EX EX a"), ("a", "b"))
    syn_exex, _ = syntactic(rec_exex)
    assert not definiteness_oracle(syn_exex.hom, 1)
    assert definiteness_oracle(syn_exex.hom, 2)


def test_idempotent_criterion_matches_chain():
    for rec in (logic.to_recognizer(logic.parse_formula("EX a"), ("a", "b")),
                logic.to_recognizer(logic.parse_formula("EF a"), ("a", "b")),
                logic.to_recognizer(logic.parse_formula("EX EX a"), ("a", "b")),
                u2_example_recognizer()):
        syn, _ = syntactic(rec)
        degree = definiteness_degree(syn.hom)
        assert ex_definable_by_idempotents(syn.hom) == (degree is not None)


def test_generator_chain_matches_full_semigroup_chain():
    # E_k is one class exactly when every product of k guarded generators
    # is constant, so the congruence chain gives the full chain's answers
    degrees = set()
    for hom in differential_homs():
        degree = definiteness_degree(hom)
        assert degree == reference_definiteness_degree(hom)
        ok = ex_definable_by_idempotents(hom)
        assert ok == reference_idempotent_criterion(hom) == (degree is not None)
        degrees.add(degree)
    assert {0, 1, 2, None} <= degrees


def _ex_power(n, letters=("a", "b")):
    return logic.to_recognizer(logic.parse_formula("EX " * n + letters[0]),
                               letters)


def test_congruence_chain_matches_pair_levels():
    """The congruence chain gives the forward pair levels' degree, on homs
    with degrees 0 to 8 and None."""
    rng = random.Random(26)
    homs = differential_homs()
    homs += [xor_u2_hom(n) for n in range(3, 7)]
    homs += [syntactic(_ex_power(n))[0].hom for n in range(1, 9)]
    homs += [syntactic(random_big_recognizer(rng))[0].hom for _ in range(20)]
    degrees = [definiteness_degree(hom) for hom in homs]
    assert degrees == [reference_definiteness_levels(hom) for hom in homs]
    assert None in degrees
    assert set(range(9)) <= set(degrees)


def test_degree_reads_the_sums_between_letters():
    """On H = {0, x, y, inf = x + y} with b and c constant y and x, and a
    sending inf to x and the rest to 0, every word of two letters is
    constant.  Yet a.(y + a.h) is 0 at h = 0 and x at h = inf, and so
    is every longer product of that shape: the degree is None, where a
    chain that read only the letter images would give 2."""
    H = horizontal_monoid([[i | j for j in range(4)] for i in range(4)], 0,
                          ["0", "x", "y", "inf"])
    alg, genmap = close_vertical(H, {"a": (0, 0, 0, 1), "b": (2, 2, 2, 2),
                                     "c": (1, 1, 1, 1)}, warn_on_merge=False)
    hom = Homomorphism(("a", "b", "c"), alg, dict(genmap))
    assert image_restrict(hom).target.H.size == 4
    assert definiteness_degree(hom) is None
    assert reference_definiteness_levels(hom) is None
    assert reference_definiteness_degree(hom) is None


def test_ex_decider_scales_to_hundreds_of_elements():
    decision = decide(_ex_power(9, ("a0", "a1")), "ex")
    assert decision.syntactic.hom.target.H.size == 512
    assert decision.definable and decision.detail == "definiteness degree 9"
    assert definiteness_degree(xor_u2_hom(6)) is None


def test_ex_decider_builds_no_semigroup(monkeypatch):
    """The degree comes from a chain of congruences on H, so the EX answers
    stand when the guarded semigroup cannot be built."""
    homs = differential_homs()
    recs = [_load_recognizer(os.path.join(FIXTURES, name))
            for name in ("chain4.fa", "u1_efa.fa", "u2_abc.fa")]
    recs += [example_language_recognizer(), u2_example_recognizer()]

    def answers():
        return ([definiteness_degree(hom) for hom in homs],
                [(d.definable, d.certificate, d.detail)
                 for d in (decide(rec, "ex") for rec in recs)])

    unpatched = answers()

    def refuse(hom):
        raise AssertionError("the EX decider built the guarded semigroup")

    monkeypatch.setattr(defk, "guarded_semigroup", refuse)
    assert answers() == unpatched


def test_transposed_idempotent_criterion_differs():
    # on EX a the guarded semigroup has an absorbing constant, which the
    # sound criterion accepts
    rec = logic.to_recognizer(logic.parse_formula("EX a"), ("a", "b"))
    syn, _ = syntactic(rec)
    assert ex_definable_by_idempotents(syn.hom)


def test_guarded_semigroup_for_ef_a():
    rec = logic.to_recognizer(logic.parse_formula("EF a"), ("a", "b"))
    syn, _ = syntactic(rec)
    hom = image_restrict(syn.hom)
    S = guarded_semigroup(hom)
    n = hom.target.H.size
    assert tuple(range(n)) in S  # the identity action, from letter b
    assert any(len(set(row)) == 1 for row in S)  # a constant, from letter a


def test_guarded_semigroup_is_capped_like_V(monkeypatch):
    rec = logic.to_recognizer(logic.parse_formula("EX(EX a) & EF b"),
                              ("a", "b"))
    hom = image_restrict(rec.hom)
    S = guarded_semigroup(hom)
    monkeypatch.setattr(defk, "DEFAULT_MAX_VERTICAL", len(S))
    assert guarded_semigroup(hom) == S
    monkeypatch.setattr(defk, "DEFAULT_MAX_VERTICAL", len(S) - 1)
    with pytest.raises(SizeLimitError) as exc:
        guarded_semigroup(hom)
    assert (exc.value.what, exc.value.limit) == ("guarded semigroup", len(S) - 1)
