"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.
"""

import random
import time

import pytest

from forestalg import logic, terms
from forestalg.algebra import u1, u2
from forestalg.decide import decide, nonconfusion
from forestalg.decompose import U1_STAGE, decompose_ef, wreath_compose
from forestalg.defk import (KdefEvaluator, alpha1, definiteness_degree,
                            definiteness_oracle, simk_key)
from forestalg.errors import NotEFAlgebra
from forestalg.hom import (Homomorphism, factors_through, image_restrict,
                           recognizers_isomorphic, relabeled, syntactic)
from forestalg.joint import TensorEvaluator, mutually_determine
from forestalg.oracle import brute_confused_pairs, random_forest
from forestalg.reach import class_tag_names, quotient_hom, reachability

from helpers import (direct_product, example_language_recognizer,
                     four_element_algebra, random_big_recognizer, random_hom,
                     simk_tset, u2_example_recognizer)


def _report(name, detail=""):
    print("ACCEPTANCE PASS %s%s" % (name, " (%s)" % detail if detail else ""))


def test_criterion_1_running_example_reproduction():
    t0 = time.monotonic()
    rec = example_language_recognizer()
    syn, _ = syntactic(rec)
    assert syn.hom.target.H.size == 4

    reference, _ = syntactic(four_element_algebra())
    mapping = recognizers_isomorphic(syn, reference)
    assert mapping is not None

    d_ef = decide(rec, "ef")
    assert d_ef.definable is False
    witness = d_ef.certificate
    alg = d_ef.syntactic.hom.target
    vh = alg.act(witness.v, witness.h)
    assert alg.plus(vh, witness.h) != vh

    d_efex = decide(rec, "efex")
    assert d_efex.definable is True
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report("1: running-example reproduction", "%.2fs" % elapsed)


def test_criterion_2_negative_instance_with_witness():
    rec = u2_example_recognizer()
    d = decide(rec, "efex")
    assert d.definable is False
    s, t, k, ci = d.certificate

    mu = d.syntactic.hom
    assert mu.eval(s) != mu.eval(t)
    rs = reachability(mu.target)
    members = set(rs.classes[ci])
    assert mu.eval(s) in members and mu.eval(t) in members
    tags = class_tag_names(mu, ci, rs)
    assert (simk_key(relabeled(s, mu, tags), k)
            == simk_key(relabeled(t, mu, tags), k))

    assert k == 1
    assert terms.ic_normalize(s) == terms.ic_normalize(terms.parse_forest("a(b)"))
    assert terms.ic_normalize(t) == terms.ic_normalize(terms.parse_forest("a(c)"))
    _report("2: negative instance with verified witness")


def test_criterion_3_fixpoint_equals_oracle():
    t0 = time.monotonic()
    instances = [image_restrict(u2_example_recognizer().hom),
                 four_element_algebra().hom]
    rng = random.Random(2024)
    while len(instances) < 52:
        instances.append(random_hom(rng, max_h=5, max_letters=3))
    mismatches = 0
    checks = 0
    for hom in instances:
        assert hom.target.H.size <= 5 and len(hom.alphabet) <= 3
        rs = reachability(hom.target)
        report = nonconfusion(hom, rs)
        for ci, trace in report.traces.items():
            for k in range(0, 4):
                level = set(trace.levels[min(k, len(trace.levels) - 1)])
                if level != brute_confused_pairs(hom, ci, k, rs):
                    mismatches += 1
                checks += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 60.0
    _report("3: fixpoint equals oracle",
            "%d instances, %d checks, %.1fs" % (len(instances), checks, elapsed))


def test_criterion_4_depth_equivalence_dual_definitions():
    rng = random.Random(77)
    forests = [random_forest(rng, ("a", "b", "c"), 4, 3) for _ in range(1000)]
    agreements = 0
    for k in range(0, 5):
        by_key = {}
        by_tset = {}
        for i, f in enumerate(forests):
            by_key.setdefault(simk_key(f, k), set()).add(i)
            by_tset.setdefault(simk_tset(f, k), set()).add(i)
        assert sorted(map(sorted, by_key.values())) == \
            sorted(map(sorted, by_tset.values()))
        agreements += len(forests)
    _report("4: dual depth-k definitions agree",
            "%d classifications" % agreements)


def test_criterion_5_ef_decomposition():
    rec = logic.to_recognizer(logic.parse_formula("EF a"), ("a", "b"))
    mu = syntactic(rec)[0].hom
    casc = decompose_ef(mu)
    assert all(st.kind == U1_STAGE for st in casc.stages)
    assert casc.factors(mu)[0]

    direct = Homomorphism(("a", "b"), u1(), {"a": 1, "b": 0})
    direct = image_restrict(direct)
    casc2 = decompose_ef(direct)
    assert all(st.kind == U1_STAGE for st in casc2.stages)
    assert casc2.factors(direct)[0]

    with pytest.raises(NotEFAlgebra):
        decompose_ef(four_element_algebra().hom)
    _report("5: constructive EF decomposition")


def test_criterion_6_definiteness_chain():
    A = ("a", "b")
    a1 = alpha1(A)
    prod = direct_product(u2(), u2())
    cinf = u2().V.names.index("cinf")
    c0 = u2().V.names.index("c0")
    beta = Homomorphism(A, prod, {"a": cinf * 3 + c0, "b": c0 * 3 + cinf})
    assert factors_through(beta, a1)[0]
    assert factors_through(a1, beta)[0]

    tensor = TensorEvaluator(a1, KdefEvaluator(1))
    assert mutually_determine(KdefEvaluator(2), tensor, A)

    syn_ex = syntactic(logic.to_recognizer(logic.parse_formula("EX a"), A))[0]
    syn_ef = syntactic(logic.to_recognizer(logic.parse_formula("EF a"), A))[0]
    assert definiteness_degree(syn_ex.hom) == 1
    assert definiteness_degree(syn_ef.hom) is None
    assert definiteness_oracle(syn_ex.hom, 1, depth_bound=3)
    assert not any(definiteness_oracle(syn_ef.hom, k, depth_bound=3)
                   for k in (1, 2, 3))
    _report("6: definiteness chain")


def test_criterion_7_closure_properties():
    rng = random.Random(4096)
    found = 0
    violations = 0
    while found < 20:
        alpha = random_hom(rng, max_h=4, max_letters=2)
        if not nonconfusion(alpha).nonconfusing:
            continue
        found += 1
        rs = reachability(alpha.target)
        for ci in range(len(rs.classes)):
            for mode in ("strict", "weak"):
                qhom, _ = quotient_hom(alpha, ci, mode, rs)
                if not nonconfusion(image_restrict(qhom)).nonconfusing:
                    violations += 1
        alg = alpha.target
        B = tuple((a, alg.hname(h)) for a in alpha.alphabet
                  for h in range(alg.H.size))
        beta_u1 = Homomorphism(B, u1(), {b: rng.choice((0, 1)) for b in B})
        gamma = wreath_compose(alpha, beta_u1)
        if not nonconfusion(image_restrict(gamma)).nonconfusing:
            violations += 1
        beta_def = Homomorphism(B, u2(), {b: rng.choice((1, 2)) for b in B})
        gamma = wreath_compose(alpha, beta_def)
        if not nonconfusion(image_restrict(gamma)).nonconfusing:
            violations += 1
    assert violations == 0
    _report("7: quotient and wreath closure", "20 base instances")


def test_criterion_8_complexity_sanity():
    rng = random.Random(512)
    times = []
    for _ in range(4):
        rec = random_big_recognizer(rng, atoms=6, nletters=4)
        assert rec.hom.target.H.size == 64
        assert len(rec.hom.alphabet) == 4
        t0 = time.monotonic()
        d = decide(rec, "efex")
        elapsed = time.monotonic() - t0
        times.append(elapsed)
        assert elapsed < 5.0
        n = d.syntactic.hom.target.H.size
        for trace in nonconfusion(d.syntactic.hom).traces.values():
            assert trace.k <= n * n
    _report("8: complexity sanity",
            "decide times: %s" % ", ".join("%.2fs" % t for t in times))
