import pytest

from forestalg.algebra import (AlgebraMorphism, FiniteMonoid, ForestAlgebra,
                               direct_product, quotient_by_ideal, u1, u2,
                               wreath)
from forestalg.errors import IdealViolation, SizeLimitError, StructuralError

from helpers import four_element_algebra


def test_u1_valid():
    alg = u1()
    assert alg.check_axioms() == []
    assert alg.H.names == ("0", "inf")
    assert alg.V.names == ("1", "cinf")


def test_u2_constants():
    alg = u2()
    assert alg.check_axioms() == []
    c0 = alg.V.names.index("c0")
    cinf = alg.V.names.index("cinf")
    inf = alg.H.names.index("inf")
    assert alg.act(c0, inf) == 0
    assert alg.act(cinf, 0) == inf


def test_four_element_fixture_valid():
    rec = four_element_algebra()
    assert rec.hom.target.check_axioms() == []


def test_broken_action_reported():
    alg = u1()
    # redirect cinf.0 to 0: no vertical element inserts inf any more
    action = ((0, 1), (0, 1))
    broken = ForestAlgebra(alg.H, alg.V, action)
    laws = {v.law for v in broken.check_axioms()}
    assert laws & {"insertion-closure", "action-composition"}


def test_violations_carry_witnesses():
    plus = ((0, 1), (1, 0))  # not idempotent: 1+1=0
    H = FiniteMonoid(plus, 0, ("0", "x"))
    V = FiniteMonoid(((0,),), 0, ("1",))
    alg = ForestAlgebra(H, V, ((0, 1),))
    report = alg.check_axioms()
    assert any(v.law == "H-idempotence" and v.witness == ("x",) for v in report)


def test_structural_error_distinct():
    with pytest.raises(StructuralError):
        FiniteMonoid(((0, 1), (1,)), 0)  # ragged
    with pytest.raises(StructuralError):
        FiniteMonoid(((0, 5), (1, 1)), 0)  # out of range
    with pytest.raises(StructuralError):
        ForestAlgebra(u1().H, u1().V, ((0, 1),))  # wrong action shape


def test_absorbing_is_sum_of_all():
    for alg in (u1(), u2(), four_element_algebra().hom.target):
        inf = alg.absorbing()
        for h in range(alg.H.size):
            assert alg.plus(inf, h) == inf


def test_wreath_sizes_and_axioms():
    w, proj = wreath(u1(), u1())
    assert w.H.size == 4 and w.V.size == 2 * 2 ** 2
    assert w.check_axioms() == []
    assert proj.validate() == []
    w2, _ = wreath(u1(), u2())
    assert w2.check_axioms() == []


def test_wreath_preserves_ef_identities():
    w, _ = wreath(u1(), u1())
    for v in range(w.V.size):
        for h in range(w.H.size):
            vh = w.act(v, h)
            assert w.plus(vh, h) == vh
    for h in range(w.H.size):
        for g in range(w.H.size):
            assert w.plus(h, g) == w.plus(g, h)


def test_wreath_size_cap():
    with pytest.raises(SizeLimitError):
        wreath(u2(), u2(), max_vertical=10)


def test_direct_product():
    p, pa, pb = direct_product(u1(), u1())
    assert p.V.size == 4
    assert p.check_axioms() == []
    assert pa.validate() == [] and pb.validate() == []
    assert pa.is_surjective() and pb.is_surjective()


def test_product_embeds_in_wreath():
    p, _, _ = direct_product(u1(), u1())
    w, _ = wreath(u1(), u1())
    # (v1, v2) -> (v1, constant-v2 function); on H both act componentwise
    left = u1()
    for v1 in range(2):
        for v2 in range(2):
            vp = v1 * 2 + v2
            wf = v1 * 4 + (v2 * 2 + v2)  # function tuple (v2, v2)
            for h in range(4):
                assert p.act(vp, h) == w.act(wf, h)


def test_quotient_singleton_absorbing_is_iso():
    alg = four_element_algebra().hom.target
    q, proj = quotient_by_ideal(alg, {3})
    assert q.H.size == alg.H.size
    assert proj.validate() == []
    assert q.check_axioms() == []


def test_quotient_collapses_ideal():
    alg = four_element_algebra().hom.target
    # h2 and inf form the ideal below the subminimal class {h2}
    q, proj = quotient_by_ideal(alg, {2, 3})
    assert q.H.size == 3
    assert sorted(q.H.names) == ["0", "h1", "inf"]
    assert proj.validate() == []
    assert proj.is_surjective()
    assert q.check_axioms() == []


def test_quotient_rejects_non_ideal():
    alg = four_element_algebra().hom.target
    with pytest.raises(IdealViolation):
        quotient_by_ideal(alg, {1})  # b.h1 = h2 escapes the set


def test_quotient_projection_identity_on_kept():
    alg = four_element_algebra().hom.target
    q, proj = quotient_by_ideal(alg, {2, 3})
    kept = [h for h in range(alg.H.size) if h not in (2, 3)]
    assert len({proj.hmap[h] for h in kept}) == len(kept)
    for h in kept:
        assert q.hname(proj.hmap[h]) == alg.hname(h)


def test_morphism_validation_catches_errors():
    alg = u1()
    bad = AlgebraMorphism(alg, alg, (1, 0), (0, 1))
    report = bad.validate()
    assert any(v.law == "morphism-zero" for v in report)
    bad2 = AlgebraMorphism(alg, alg, (0, 1), (1, 1))
    assert any(v.law == "morphism-one" for v in bad2.validate())


def test_merge_warning_for_duplicate_actions():
    import warnings

    from forestalg.algebra import close_vertical, horizontal_monoid

    H = horizontal_monoid(((0, 1), (1, 1)), 0)
    gens = {"a": (1, 1), "b": (1, 1)}  # same action
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        alg, genmap = close_vertical(H, gens)
    assert genmap["a"] == genmap["b"]
    assert any("merged" in str(w.message) for w in caught)


def test_direct_product_preserves_ef_identities():
    p, _, _ = direct_product(u1(), u1())
    for v in range(p.V.size):
        for h in range(p.H.size):
            vh = p.act(v, h)
            assert p.plus(vh, h) == vh


def test_random_instances_are_valid_algebras():
    import random

    from helpers import random_hom

    hom = random_hom(random.Random(42))
    assert hom.target.check_axioms() == []


def test_insertion_closure_reported_before_faithfulness():
    H = FiniteMonoid(((0, 1), (1, 1)), 0, ("0", "inf"))
    V = FiniteMonoid(((0, 1), (1, 1)), 0, ("1", "x"))
    alg = ForestAlgebra(H, V, ((0, 1), (0, 1)), faithful=True)
    assert [str(p) for p in alg.check_axioms()] == [
        "insertion-closure violated at inf: no vertical element acts as h -> inf+h",
        "faithfulness violated at 1/x: distinct elements act identically"]
