import random
import sys
from collections import Counter

import pytest

from forestalg import logic, terms
from forestalg.algebra import generated_algebra, u1, u2
from forestalg.decide import (Blocks, _certified, confusion_witness, decide,
                              is_ef_algebra, join_irreducibles, nonconfusion)
from forestalg.defk import simk_equiv
from forestalg.hom import image_restrict, relabeled, syntactic
from forestalg.joint import image
from forestalg.reach import class_tag_names, quotient_hom, reachability

from helpers import (LATTICES, census_table_homs, closed_by_certificate,
                     differential_homs, direct_product, ex_power_recognizer,
                     example_language_recognizer, four_element_algebra,
                     mask_semilattice, random_big_recognizer, random_hom,
                     random_recognizer, random_semilattice,
                     reference_ef_violation, reference_nonconfusion,
                     u2_example_recognizer, xor_u2_hom)

CYCLE3 = "EF(a0 & EX a1) | EF(a1 & EX a2) | EF(a2 & EX a0)"


def F(text):
    return terms.parse_forest(text)


def test_is_ef_algebra_u1():
    assert is_ef_algebra(u1()) == (True, None)


def test_is_ef_algebra_four_element():
    alg = four_element_algebra().hom.target
    ok, witness = is_ef_algebra(alg)
    assert not ok
    assert witness.kind == "absorption"
    vh = alg.act(witness.v, witness.h)
    assert alg.plus(vh, witness.h) != vh


def test_is_ef_algebra_u2():
    ok, witness = is_ef_algebra(u2())
    assert not ok
    # c0.inf + inf = inf while c0.inf = 0
    assert witness.kind == "absorption"


def test_nonconfusion_four_element():
    hom = four_element_algebra().hom
    report = nonconfusion(hom)
    assert report.nonconfusing
    assert all(t.levels[0] == frozenset() for t in report.traces.values())
    assert report.parameter == 0


def test_nonconfusion_u2_example():
    hom = image_restrict(u2_example_recognizer().hom)
    report = nonconfusion(hom)
    assert not report.nonconfusing
    (trace,) = report.traces.values()
    assert trace.verdict == "confused"
    assert trace.k == 1
    pairs = {(hom.target.hname(h), hom.target.hname(g))
             for h, g in trace.levels[-1]}
    assert pairs == {("0", "inf"), ("inf", "0")}
    assert trace.levels[1] == trace.levels[0]


def test_nonconfusion_trivial():
    rec = logic.to_recognizer(logic.TrueF(), ("a",))
    report = nonconfusion(rec.hom)
    assert report.nonconfusing


def _assert_same_fixpoint(got, want):
    """Two nonconfusion reports agree: verdict, parameter and, per class,
    levels, verdict, k and the records, both in order and by get."""
    assert (got.nonconfusing, got.parameter) == (want.nonconfusing,
                                                 want.parameter)
    assert got.traces.keys() == want.traces.keys()
    for ci, trace in got.traces.items():
        ref = want.traces[ci]
        assert (trace.levels, trace.verdict, trace.k) == (
            ref.levels, ref.verdict, ref.k)
        assert ([list(d.items()) for d in trace.derivations]
                == [list(d.items()) for d in ref.derivations])
        for level, records, ref_records in zip(
                trace.levels[1:], trace.derivations[1:], ref.derivations[1:]):
            assert all(records.get(p) == ref_records[p] for p in level)


def test_nonconfusion_matches_plus_fixpoint():
    # stepping pairs on the sum table's rows visits them in the same order
    # as stepping through alg.plus, so every record comes out identical.
    # Beyond differential_homs: syntactic homs of random |H| = 64
    # recognizers on four letters (the bench's decide-deep shape) and on
    # one or two, one unreduced hom with a 64-member class, whose long
    # queues leave many pairs unsummed with the pairs ahead of them, and
    # EX^n a xor u2_abc, whose letter images are often closed already.
    # Both paths run: levels where the skip certificate holds (and the
    # level is its letter images) and levels where it fails.
    rng = random.Random(1414)
    recs = [random_big_recognizer(rng, nletters=k) for k in (4,) * 6 + (2, 1)]
    homs = differential_homs() + [syntactic(rec)[0].hom for rec in recs]
    homs.append(random_big_recognizer(random.Random(6)).hom)
    homs += [xor_u2_hom(n) for n in (3, 4)]
    confused = 0
    certified = Counter()
    for hom in homs:
        got = nonconfusion(hom)
        _assert_same_fixpoint(got, reference_nonconfusion(hom))
        for trace in got.traces.values():
            for level, records in zip(trace.levels[1:], trace.derivations[1:]):
                images = [p for p, d in records.items() if d[0] == "letter"]
                held = closed_by_certificate(hom.target, trace.members, images)
                assert not held or level == frozenset(images)
                certified[held] += 1
        confused += not got.nonconfusing
    assert confused
    assert certified[True] and certified[False]


def _ex_power_hom(n):
    """The syntactic hom of EX^n a0 over {a0, a1}: from n = 2 all of H is
    one class of 2^n members, and every pair level is an equivalence."""
    return syntactic(ex_power_recognizer(n, ("a0", "a1")))[0].hom


def test_nonconfusion_blocks_match_the_reference():
    """Levels held as Blocks, with records built when read, give the
    reference's report on the 87 EF+EX census tables, EX^n a xor u2_abc
    (n = 4, 5) and EX^n a0 (n <= 8); differential_homs() are compared in
    test_nonconfusion_matches_plus_fixpoint.  Past 32 values the reference
    leaves unsaturated the letter images that its own certificate, on sets
    over all of H, finds closed."""
    homs = census_table_homs(5, (logic.EF, logic.EX))
    homs += [xor_u2_hom(4), xor_u2_hom(5)]
    homs += [_ex_power_hom(n) for n in range(1, 9)]
    held = Counter()
    for hom in homs:
        got = nonconfusion(hom)
        want = reference_nonconfusion(hom, skip_closed=hom.target.H.size > 32)
        _assert_same_fixpoint(got, want)
        held.update(type(level).__name__ for trace in got.traces.values()
                    for level in trace.levels[1:])
    assert held["Blocks"] > 100 and held["frozenset"] > 0


def test_blocks_levels_step_no_pair(monkeypatch):
    """On EX^n a0 (n = 3..8) and EX^5 a xor u2_abc every level is Blocks,
    stepped on the blocks' letter images: no pair of a level is stepped,
    saturated or given its record, as none is read."""
    decide_module = sys.modules[nonconfusion.__module__]
    calls = Counter()
    for name in ("_letter_records", "_saturate"):
        real = getattr(decide_module, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(decide_module, name, counted)
    for hom in [_ex_power_hom(n) for n in range(3, 9)] + [xor_u2_hom(5)]:
        for trace in nonconfusion(hom).traces.values():
            assert all(isinstance(level, Blocks) for level in trace.levels)
    assert not calls


def test_summands_on_join_irreducibles_decide_condition_iii():
    """The skip certificate checks its condition (iii) on H's
    join-irreducibles only.  On seeded partitions of each reachability
    class, whose rows pass (ii), that agrees with (iii) on all of H:
    letters acting by seeded maps on every lattice of the algebra census
    and on seeded random semilattices.  join_irreducibles matches its
    definition."""
    rng = random.Random(3131)
    lattices = [mask_semilattice(masks) for masks in LATTICES]
    lattices += [random_semilattice(rng, max_h=8) for _ in range(100)]
    outcomes = Counter()
    for H in lattices:
        n, op = H.size, H.op
        joins = join_irreducibles(op, 0)
        assert joins == [c for c in range(1, n) if all(
            op[a][b] != c or c in (a, b) for a in range(n) for b in range(n))]
        for _ in range(8):
            alg, _ = generated_algebra(H, {a: [rng.randrange(n) for _ in range(n)]
                                           for a in "abc"})
            for members in reachability(alg).classes:
                m = len(members)
                if m < 3:
                    continue
                loc = {h: i for i, h in enumerate(members)}

                def columns(cs):
                    return [[loc.get(op[c][h], m) for h in members] for c in cs]

                for size in range(1, m + 1):
                    ids = [rng.randrange(size) for _ in range(m)]
                    rows = [sum(1 << j for j in range(m) if ids[j] == b)
                            for b in ids]
                    on_joins = _certified(rows, lambda: columns(joins))
                    on_all = _certified(rows, lambda: columns(range(n)))
                    assert (on_joins is None) == (on_all is None)
                    outcomes[on_joins is None] += 1
    assert outcomes[True] > 300 and outcomes[False] > 300


def test_nonconfusion_levels_are_least_closed_sets():
    # every record derives its pair in one step, from the previous level
    # (letter) or from pairs inserted earlier in this level (const, pair);
    # the level holds every letter image in base and is closed under both
    # sums within base.  So each level is the least such set, whatever
    # order the fixpoint visits its pairs in.
    for hom in differential_homs():
        alg = hom.target
        plus = alg.plus
        rows = [hom.row(a) for a in hom.alphabet]
        for trace in nonconfusion(hom).traces.values():
            base, levels = trace.levels[0], trace.levels
            assert trace.k == len(levels) - 1
            assert trace.verdict == ("confused" if levels[-1] else "empty")
            for j in range(1, len(levels)):
                level, records = levels[j], trace.derivations[j]
                assert records.keys() == level <= base
                order = {p: i for i, p in enumerate(records)}
                for p, d in records.items():
                    if d[0] == "letter":
                        row = hom.row(d[1])
                        assert d[2] in levels[j - 1]
                        assert p == (row[d[2][0]], row[d[2][1]])
                        continue
                    if d[0] == "const":
                        c, parents = d[1], [d[2]]
                        want = (plus(d[2][0], c), plus(d[2][1], c))
                    else:
                        assert d[0] == "pair"
                        parents = [d[1], d[2]]
                        want = (plus(d[1][0], d[2][0]), plus(d[1][1], d[2][1]))
                    assert p == want
                    assert all(order.get(q, order[p]) < order[p] for q in parents)
                for row in rows:
                    for h, g in levels[j - 1]:
                        q = (row[h], row[g])
                        assert q in level or q not in base
                for h, g in level:
                    for c in range(alg.H.size):
                        q = (plus(h, c), plus(g, c))
                        assert q in level or q not in base
                    for h2, g2 in level:
                        q = (plus(h, h2), plus(g, g2))
                        assert q in level or q not in base


def test_levels_descend():
    rng = random.Random(31)
    for _ in range(25):
        hom = random_hom(rng)
        report = nonconfusion(hom)
        for trace in report.traces.values():
            for j in range(1, len(trace.levels)):
                assert trace.levels[j] <= trace.levels[j - 1]


def test_confusion_witness_level_one():
    hom = image_restrict(u2_example_recognizer().hom)
    report = nonconfusion(hom)
    trace = report.traces[0]
    zero = hom.target.H.names.index("0")
    inf = hom.target.H.names.index("inf")
    s, t, k = confusion_witness(hom, trace, (zero, inf))
    assert k == 1
    assert terms.ic_normalize(s) == terms.ic_normalize(F("a(b)"))
    assert terms.ic_normalize(t) == terms.ic_normalize(F("a(c)"))


def test_confusion_witness_deeper_levels():
    hom = image_restrict(u2_example_recognizer().hom)
    report = nonconfusion(hom)
    trace = report.traces[0]
    zero = hom.target.H.names.index("0")
    inf = hom.target.H.names.index("inf")
    s, t, k = confusion_witness(hom, trace, (zero, inf), k=2)
    assert (terms.print_forest(s), terms.print_forest(t)) == ("a(a(b))", "a(a(c))")
    s, t, k = confusion_witness(hom, trace, (zero, inf), k=5)
    assert terms.forest_depth(s) == 6


def test_confusion_witness_level_zero_uses_minimal_realizers():
    hom = image_restrict(u2_example_recognizer().hom)
    report = nonconfusion(hom)
    trace = report.traces[0]
    zero = hom.target.H.names.index("0")
    inf = hom.target.H.names.index("inf")
    s, t, k = confusion_witness(hom, trace, (zero, inf), k=0)
    assert (s, t) == ((), F("c"))


def test_confusion_witness_verifies_tagging():
    hom = image_restrict(u2_example_recognizer().hom)
    report = nonconfusion(hom)
    trace = report.traces[0]
    rs = reachability(hom.target)
    tags = class_tag_names(hom, 0, rs)
    for pair in sorted(trace.levels[0]):
        for k in (1, 2, 3):
            s, t, _ = confusion_witness(hom, trace, pair, k=k)
            assert hom.eval(s) == pair[0] and hom.eval(t) == pair[1]
            assert simk_equiv(relabeled(s, hom, tags), relabeled(t, hom, tags), k)


def test_confusion_witness_unwinds_sums():
    """A witness for every pair that a common summand ("const") or a pair
    sum ("pair") put into a level of an onto hom of differential_homs();
    confusion_witness re-verifies values and taggings itself."""
    records = {"const": 0, "pair": 0}
    for hom in differential_homs():
        if len(image(hom, hom.alphabet)) < hom.target.H.size:
            continue
        for trace in nonconfusion(hom).traces.values():
            for j in range(1, len(trace.levels)):
                for pair, record in trace.derivations[j].items():
                    if record[0] in records:
                        records[record[0]] += 1
                        s, t, k = confusion_witness(hom, trace, pair, j)
                        assert k == j and (hom.eval(s), hom.eval(t)) == pair
    assert min(records.values()) > 0  # 29 and 31


def test_confusion_witness_refuses_a_hom_that_is_not_onto():
    """Hom 300 of differential_homs() reaches 8 of its 64 values.  Its
    fixpoint on all of H says confused, where its image restriction is
    nonconfusing, and no witness can be built from unreached values."""
    hom = differential_homs()[300]
    assert len(image(hom, hom.alphabet)) == 8 and hom.target.H.size == 64
    report = nonconfusion(hom)
    assert not report.nonconfusing
    assert nonconfusion(image_restrict(hom)).nonconfusing
    trace = report.traces[report.confused_classes()[0]]
    with pytest.raises(ValueError, match="not onto"):
        confusion_witness(hom, trace, sorted(trace.levels[-1])[0])


def test_decide_examples():
    rec = example_language_recognizer()
    assert decide(rec, "ef").definable is False
    assert decide(rec, "efex").definable is True
    rec_ef = logic.to_recognizer(logic.parse_formula("EF a"), ("a", "b"))
    assert decide(rec_ef, "ef").definable is True
    assert decide(rec_ef, "ex").definable is False
    rec_ex = logic.to_recognizer(logic.parse_formula("EX a"), ("a", "b"))
    assert decide(rec_ex, "ex").definable is True
    d = decide(u2_example_recognizer(), "efex")
    assert d.definable is False
    s, t, k, ci = d.certificate
    assert k == 1
    assert terms.ic_normalize(s) == F("a(b)")
    assert terms.ic_normalize(t) == F("a(c)")


def test_decide_rejects_unknown_fragment(monkeypatch):
    def refuse(rec):
        raise AssertionError("syntactic quotient built for an unknown fragment")

    monkeypatch.setattr(sys.modules["forestalg.decide"], "syntactic", refuse)
    with pytest.raises(ValueError, match="fragment must be ef, ex or efex"):
        decide(four_element_algebra(), "ctl")


def test_quotient_closure_of_nonconfusion():
    # quotients of nonconfusing homomorphisms stay nonconfusing
    rng = random.Random(32)
    found = 0
    while found < 8:
        hom = random_hom(rng)
        if not nonconfusion(hom).nonconfusing:
            continue
        found += 1
        rs = reachability(hom.target)
        for ci in range(len(rs.classes)):
            for mode in ("strict", "weak"):
                qhom, _ = quotient_hom(hom, ci, mode, rs)
                qhom = image_restrict(qhom)
                assert nonconfusion(qhom).nonconfusing


def test_wreath_closure_of_nonconfusion():
    from forestalg.decompose import wreath_compose
    from forestalg.hom import Homomorphism

    rng = random.Random(33)
    found = 0
    while found < 5:
        alpha = random_hom(rng, max_h=4, max_letters=2)
        if not nonconfusion(alpha).nonconfusing:
            continue
        found += 1
        alg = alpha.target
        B = tuple((a, alg.hname(h)) for a in alpha.alphabet
                  for h in range(alg.H.size))
        # a u1 second stage
        target1 = u1()
        beta1 = Homomorphism(B, target1,
                             {b: rng.choice((0, 1)) for b in B})
        gamma = wreath_compose(alpha, beta1)
        assert nonconfusion(image_restrict(gamma)).nonconfusing
        # a 1-definite second stage into u2 (constants only)
        target2 = u2()
        beta2 = Homomorphism(B, target2,
                             {b: rng.choice((1, 2)) for b in B})
        gamma = wreath_compose(alpha, beta2)
        assert nonconfusion(image_restrict(gamma)).nonconfusing


def test_is_ef_algebra_matches_full_vertical_scan():
    rng = random.Random(4041)
    algs = [u1(), u2(), direct_product(u1(), u2()),
            four_element_algebra().hom.target]
    recs = [random_recognizer(rng) for _ in range(80)]
    recs += [random_big_recognizer(rng, atoms=4) for _ in range(4)]
    for text in ("EF a & EF b", "EF(a & EF b) | EF b", "!EF(a & !EF b)",
                 "EX a", CYCLE3):
        alphabet = sorted(logic.formula_letters(logic.parse_formula(text)))
        recs.append(logic.to_recognizer(logic.parse_formula(text), alphabet))
    for rec in recs:
        algs += [rec.hom.target, syntactic(rec)[0].hom.target]
    verdicts = set()
    for alg in algs:
        ok, violation = is_ef_algebra(alg)
        expected = reference_ef_violation(alg)
        verdicts.add(ok)
        assert ok == (expected is None)
        if violation is not None:
            assert (violation.v, violation.h) == expected
    assert verdicts == {True, False}


def test_deciders_close_no_vertical_monoid(vertical_closures):
    """A negative EF certificate names its generator without closing V."""
    calls = vertical_closures
    phi = logic.parse_formula(CYCLE3)
    for fragment in ("ex", "efex", "ef"):
        calls.clear()
        decision = decide(logic.to_recognizer(phi, ("a0", "a1", "a2")), fragment)
        assert calls == [], fragment
        assert decision.definable == (fragment == "efex")
