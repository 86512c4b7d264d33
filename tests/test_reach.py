import random

from forestalg.algebra import (FiniteMonoid, ForestAlgebra, quotient_by_ideal,
                               u1, u2)
from forestalg.errors import ForestAlgError, IdealViolation
from forestalg.hom import (Homomorphism, factors_through, image_restrict,
                           syntactic)
from forestalg.reach import (class_tag_names, dot_export, ideal_below,
                             ideal_not_above, quotient_hom, reachability,
                             subminimal_factorization)

from helpers import (direct_product, four_element_algebra,
                     random_big_recognizer, random_hom, random_recognizer,
                     reference_quotient_by_ideal,
                     reference_reachability, u2_example_recognizer)


def test_chain_classes():
    alg = four_element_algebra().hom.target
    rs = reachability(alg)
    assert all(len(c) == 1 for c in rs.classes)
    # order: inf < h2 < h1 < 0
    order = {alg.hname(c[0]): i for i, c in enumerate(rs.classes)}
    names = lambda ci: rs.class_names(ci)[0]
    assert names(rs.min_class) == "inf"
    assert [names(c) for c in rs.subminimal] == ["h2"]
    leq = lambda x, y: rs.leq(order[x], order[y])
    for low, high in (("inf", "h2"), ("h2", "h1"), ("h1", "0"), ("inf", "0")):
        assert leq(low, high) and not leq(high, low)


def test_u2_single_class():
    hom = image_restrict(u2_example_recognizer().hom)
    rs = reachability(hom.target)
    assert len(rs.classes) == 1
    assert sorted(rs.class_names(0)) == ["0", "inf"]


def test_u1_two_classes():
    alg = u1()
    rs = reachability(alg)
    assert len(rs.classes) == 2
    assert rs.class_names(rs.min_class) == ["inf"]
    assert len(rs.subminimal) == 1


def test_ideals():
    alg = four_element_algebra().hom.target
    rs = reachability(alg)
    sub = rs.subminimal[0]  # class {h2}
    assert sorted(alg.hname(h) for h in ideal_below(rs, sub)) == ["h2", "inf"]
    assert sorted(alg.hname(h) for h in ideal_not_above(rs, sub)) == ["inf"]
    assert ideal_below(rs, rs.min_class) == frozenset({alg.absorbing()})
    top = rs.class_of[0]
    assert ideal_not_above(rs, top) == frozenset(
        h for h in range(4) if h != 0)


def test_quotient_hom_min_class_is_iso_for_chain():
    hom = four_element_algebra().hom
    rs = reachability(hom.target)
    qhom, _ = quotient_hom(hom, rs.min_class, "strict", rs)
    assert qhom.target.H.size == hom.target.H.size
    ok, _ = factors_through(qhom, hom)
    assert ok


def test_quotient_hom_whole_class_collapses_everything():
    hom = image_restrict(u2_example_recognizer().hom)
    qhom, _ = quotient_hom(hom, 0, "strict")
    assert qhom.target.H.size == 1


def test_quotient_hom_subminimal():
    hom = four_element_algebra().hom
    rs = reachability(hom.target)
    qhom, _ = quotient_hom(hom, rs.subminimal[0], "strict", rs)
    assert qhom.target.H.size == 3
    ok, _ = factors_through(qhom, hom)
    assert ok
    ok, _ = factors_through(hom, qhom)
    assert not ok


def test_subminimal_factorization_chain():
    hom = four_element_algebra().hom
    factors = subminimal_factorization(hom)
    assert len(factors) == 1


def test_subminimal_factorization_product():
    prod = direct_product(u1(), u1())
    # letters generating all four elements: constants to (inf,0) and (0,inf)
    names = prod.V.names
    a = names.index("(cinf,1)")
    b = names.index("(1,cinf)")
    hom = image_restrict(Homomorphism(("a", "b"), prod, {"a": a, "b": b}))
    rs = reachability(hom.target)
    assert len(rs.subminimal) == 2
    factors = subminimal_factorization(hom, rs)
    assert len(factors) == 2
    # the min-collapsing quotient factors through the product of the factors
    qmin, _ = quotient_hom(hom, rs.min_class, "strict", rs)
    prod_alg = direct_product(factors[0].target, factors[1].target)
    paired = Homomorphism(
        hom.alphabet, prod_alg,
        {x: factors[0].letter(x) * factors[1].target.V.size + factors[1].letter(x)
         for x in hom.alphabet})
    ok, _ = factors_through(qmin, paired)
    assert ok


def test_subminimal_factorization_trivial():
    hom = image_restrict(u2_example_recognizer().hom)
    qhom, _ = quotient_hom(hom, 0, "strict")
    assert subminimal_factorization(qhom) == []


def test_quotient_images_of_classes():
    # classes map into single classes; the minimal preimage class maps onto
    rng = random.Random(21)
    for _ in range(15):
        hom = random_hom(rng, max_h=5, max_letters=2)
        rs = reachability(hom.target)
        for ci in range(len(rs.classes)):
            qhom, (_, hmap) = quotient_hom(hom, ci, "strict", rs)
            qrs = reachability(qhom.target)
            for cls in rs.classes:
                images = {hmap[h] for h in cls}
                target_classes = {qrs.class_of[h] for h in images}
                assert len(target_classes) == 1
            for cj, qcls in enumerate(qrs.classes):
                preimage_classes = [
                    ci2 for ci2, cls in enumerate(rs.classes)
                    if {qrs.class_of[hmap[h]] for h in cls} == {cj}]
                minimal = [c for c in preimage_classes
                           if not any(rs.lt(c2, c) for c2 in preimage_classes)]
                assert len(minimal) == 1
                onto = {hmap[h] for h in rs.classes[minimal[0]]}
                assert onto == set(qcls)


def test_class_tag_names():
    hom = image_restrict(u2_example_recognizer().hom)
    tags = class_tag_names(hom, 0)
    assert set(tags) == {"inf"}
    chain = four_element_algebra().hom
    rs = reachability(chain.target)
    sub = rs.subminimal[0]
    tags = class_tag_names(chain, sub, rs)
    assert tags == ("0", "h1", "inf", "inf")


def test_dot_export_shapes():
    alg = four_element_algebra().hom.target
    dot = dot_export(reachability(alg))
    assert dot.count("->") == 3  # covering chain of 4 classes
    dot1 = dot_export(reachability(u1()))
    assert dot1.count("->") == 1
    hom = image_restrict(u2_example_recognizer().hom)
    qhom, _ = quotient_hom(hom, 0, "strict")
    dot0 = dot_export(reachability(qhom.target))
    assert dot0.count("->") == 0


def _algebras_for_reachability(rng):
    """Explicit algebras, random recognizers' targets, their image
    restrictions and their syntactic quotients."""
    yield u1()
    yield u2()
    yield direct_product(u1(), u2())
    yield four_element_algebra().hom.target
    recs = [random_recognizer(rng) for _ in range(60)]
    recs += [random_big_recognizer(rng, atoms=4) for _ in range(4)]
    for rec in recs:
        yield rec.hom.target
        yield image_restrict(rec.hom).target
        yield syntactic(rec)[0].hom.target


def _without_insertion(alg, g):
    """The table algebra on alg's H whose V is the closure of alg's
    generators other than the insertion of g, or None when the others
    compose to that insertion."""
    n = alg.H.size
    insertion = alg.H.op[g]
    starts = [tuple(range(n))]
    starts += [row for row in alg.generators
               if row not in starts and row != insertion]
    rows, index = list(starts), {row: i for i, row in enumerate(starts)}
    for row in rows:
        for step in starts:
            after = tuple(step[h] for h in row)
            if after not in index:
                index[after] = len(rows)
                rows.append(after)
    if insertion in index:
        return None
    op = tuple(tuple(index[tuple(a[h] for h in b)] for b in rows) for a in rows)
    V = FiniteMonoid(op, 0, tuple("v%d" % i for i in range(len(rows))))
    return ForestAlgebra(alg.H, V, rows)


def test_reachability_matches_full_vertical_reference():
    """Classes, order, minimum, subminimal classes and both ideals at every
    class equal the sets read off the reference order; with one insertion
    missing from V, reachability refuses exactly the algebras in which
    some class does not reach the absorbing element."""
    rng = random.Random(4040)
    refused = {True: 0, False: 0}
    for alg in _algebras_for_reachability(rng):
        rs = reachability(alg)
        classes, order, low, subminimal = reference_reachability(alg)
        m = len(classes)
        assert list(rs.classes) == classes
        assert [[rs.leq(ci, cj) for cj in range(m)] for ci in range(m)] == order
        assert rs.min_class == low
        assert rs.subminimal == subminimal
        n = alg.H.size
        class_of = [next(c for c in range(m) if h in classes[c])
                    for h in range(n)]
        hom = Homomorphism((), alg, {})
        for ci in range(m):
            below = frozenset(h for h in range(n) if class_of[h] == ci
                              or not order[ci][class_of[h]])
            assert ideal_below(rs, ci) == below
            assert ideal_not_above(rs, ci) == frozenset(
                h for h in range(n) if not order[ci][class_of[h]])
            assert class_tag_names(hom, ci, rs) == tuple(
                "inf" if h in below else alg.hname(h) for h in range(n))
        for g in range(1, n):
            lacking = _without_insertion(alg, g)
            if lacking is None:
                continue
            classes, order, low, _ = reference_reachability(lacking)
            expected = not all(order[low][c] for c in range(len(classes)))
            try:
                reachability(lacking)
            except ForestAlgError:
                got = True
            else:
                got = False
            assert got == expected
            refused[got] += 1
    assert refused[True] and refused[False]


def _homs_for_quotients(rng):
    """Explicit and random homomorphisms, random recognizers' homs, their
    image restrictions and their syntactic quotients."""
    yield four_element_algebra().hom
    yield u2_example_recognizer().hom
    for _ in range(25):
        yield random_hom(rng, max_letters=2)
    recs = [random_recognizer(rng) for _ in range(25)]
    recs += [random_big_recognizer(rng, atoms=3, nletters=2) for _ in range(3)]
    for rec in recs:
        yield rec.hom
        yield image_restrict(rec.hom)
        yield syntactic(rec)[0].hom


def _raises_ideal_violation(quotient, alg, subset):
    try:
        quotient(alg, subset)
    except IdealViolation:
        return True
    return False


def test_quotient_matches_full_vertical_reference():
    """The quotient tested on the generators and built on H equals the one
    tested on and built over all of V, and both refuse the same sets."""
    rng = random.Random(20261018)
    refused = {True: 0, False: 0}
    letter_closed_refused = 0
    for hom in _homs_for_quotients(rng):
        alg = hom.target
        rs = reachability(alg)
        for ci in range(len(rs.classes)):
            for mode, ideal in (("strict", ideal_below(rs, ci)),
                                ("weak", ideal_not_above(rs, ci))):
                qhom, (reps, hmap) = quotient_hom(hom, ci, mode, rs)
                ref, proj = reference_quotient_by_ideal(alg, ideal)
                q = qhom.target
                assert (q.H.names, q.H.op, q.zero) == (ref.H.names, ref.H.op,
                                                       ref.zero)
                assert hmap == proj.hmap
                assert [hmap[r] for r in reps] == list(range(len(reps)))
                for a in hom.alphabet:
                    assert qhom.row(a) == ref.action[proj.vmap[hom.letter(a)]]
        n = alg.H.size
        for _ in range(8):
            subset = {h for h in range(n) if rng.random() < 0.5}
            # closed under the letters alone, so only an insertion refuses it
            closed, todo = set(subset), list(subset)
            while todo:
                h = todo.pop()
                for g in (hom.row(a)[h] for a in hom.alphabet):
                    if g not in closed:
                        closed.add(g)
                        todo.append(g)
            for candidate in (subset, closed):
                got = _raises_ideal_violation(quotient_by_ideal, alg, candidate)
                assert got == _raises_ideal_violation(
                    reference_quotient_by_ideal, alg, candidate), candidate
                refused[got] += 1
            letter_closed_refused += got
    assert refused[True] and refused[False]
    assert letter_closed_refused

