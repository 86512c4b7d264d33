import dataclasses
import os
import random

import pytest

from forestalg import hom as hom_module
from forestalg import logic, terms
from forestalg.decompose import wreath_compose
from forestalg.defk import free_kdefinite
from forestalg.algebra import close_vertical, horizontal_monoid, u1, u2
from forestalg.cli import _load_recognizer
from forestalg.hom import (Homomorphism, Recognizer,
                           constant_letter_realizers, factors_through,
                           generated, image_restrict, quotient,
                           reachable_pairs, realize, recognizers_isomorphic,
                           relabeled, restrict_recognizer, syntactic)
from forestalg.errors import (AlphabetMismatchError, SizeLimitError,
                             StructuralError)
from forestalg.io import parse_algebra, print_algebra
from forestalg.joint import image
from forestalg.oracle import random_forest
from forestalg.reach import class_tag_names, quotient_hom, reachability

from helpers import (brute_isomorphism, census_formulas, differential_homs,
                     four_element_algebra, permuted_copy, printed_recognizer,
                     random_big_recognizer, random_hom, random_recognizer,
                     random_semilattice, reference_quotient,
                     reference_realize, reference_relabeled, reference_syntactic,
                     reference_vertical_closure, u2_example_recognizer,
                     xor_u2_hom)


def F(text):
    return terms.parse_forest(text)


def test_eval_running_example():
    hom = four_element_algebra().hom
    assert hom.eval_name(F("b(a)")) == "h2"     # value of b applied to a
    assert hom.eval_name(F("a+b")) == "inf"
    assert hom.eval(F("0")) == 0


def test_eval_u2_example():
    hom = u2_example_recognizer().hom
    assert hom.eval_name(F("a(b)")) == "0"
    assert hom.eval_name(F("a(c)")) == "inf"
    assert hom.eval_name(F("c")) == "inf"


def test_eval_context_respects_apply_and_compose():
    hom = four_element_algebra().hom
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(0, 3)
        ctx = (terms.tree(terms.HOLE),)
        for _ in range(d):
            ctx = (terms.tree(rng.choice("ab"), ctx),) + random_forest(
                rng, ("a", "b"), 2, 2)
        s = random_forest(rng, ("a", "b"), 3, 2)
        row = hom.eval_context(ctx)
        assert row[hom.eval(s)] == hom.eval(terms.apply(ctx, s))
        ctx2 = (terms.tree("a", (terms.tree(terms.HOLE),)),)
        composed = hom.eval_context(terms.compose(ctx, ctx2))
        inner = hom.eval_context(ctx2)
        assert composed == tuple(row[x] for x in inner)
    with pytest.raises(ValueError):
        hom.eval_context(terms.parse_forest("a(b) + b"))


def test_context_element_exists_for_insertion_closed():
    hom = four_element_algebra().hom
    for text in ("[]", "a([])", "b([]+a)+a", "a(b([])+b)"):
        assert hom.context_element(terms.parse_context(text)) is not None


def test_eval_is_monoid_hom_on_random_terms():
    hom = four_element_algebra().hom
    rng = random.Random(6)
    for _ in range(200):
        s = random_forest(rng, ("a", "b"), 3, 2)
        t = random_forest(rng, ("a", "b"), 3, 2)
        alg = hom.target
        assert hom.eval(s + t) == alg.plus(hom.eval(s), hom.eval(t))


def test_reachable_pairs_diagonal():
    hom = four_element_algebra().hom
    pairs = reachable_pairs(hom, hom)
    assert pairs == {(h, h) for h in range(4)}


def test_reachable_pairs_with_trivial():
    hom = four_element_algebra().hom
    triv_alg = syntactic(Recognizer(hom, frozenset()))[0].hom.target
    triv = Homomorphism(hom.alphabet, triv_alg,
                        {a: 0 for a in hom.alphabet})
    pairs = reachable_pairs(hom, triv)
    assert {p[0] for p in pairs} == set(range(4))
    assert {p[1] for p in pairs} == {0}


def test_reachable_pairs_are_capped(monkeypatch):
    hom = four_element_algebra().hom
    qhom, _ = quotient_hom(hom, 2, "strict")
    pairs = reachable_pairs(hom, qhom)
    monkeypatch.setattr(hom_module, "DEFAULT_MAX_JOINT", len(pairs))
    assert reachable_pairs(hom, qhom) == pairs
    monkeypatch.setattr(hom_module, "DEFAULT_MAX_JOINT", len(pairs) - 1)
    for call in (reachable_pairs, factors_through):
        with pytest.raises(SizeLimitError) as exc:
            call(hom, qhom)
        assert (exc.value.what, exc.value.limit) == ("joint image", len(pairs) - 1)


def test_factors_through():
    hom = four_element_algebra().hom
    assert factors_through(hom, hom) == (True, None)
    qhom, _ = quotient_hom(hom, 2, "strict")  # collapse {h2, inf}
    ok, _ = factors_through(qhom, hom)
    assert ok
    ok, witness = factors_through(hom, qhom)
    assert not ok and witness is not None
    h, g1, g2 = witness
    assert g1 != g2


def test_reachable_pairs_compare_alphabets_as_sets():
    hom = four_element_algebra().hom
    flipped = Homomorphism(hom.alphabet[::-1], hom.target, hom.assign)
    assert flipped.alphabet != hom.alphabet
    assert reachable_pairs(hom, flipped) == {(h, h) for h in range(4)}
    assert factors_through(hom, flipped) == (True, None)
    assert factors_through(flipped, hom) == (True, None)
    rec = four_element_algebra()
    assert recognizers_isomorphic(Recognizer(flipped, rec.accept),
                                  rec) == (0, 1, 2, 3)
    fewer = Homomorphism(hom.alphabet[:1], hom.target, hom.assign)
    with pytest.raises(AlphabetMismatchError):
        factors_through(hom, fewer)


def test_row_reads_vertical_elements_past_the_generators():
    H = horizontal_monoid([[max(i, j) for j in range(4)] for i in range(4)], 0)
    alg, _ = close_vertical(H, {"a": (3, 3, 0, 3)})
    assert (len(alg.generators), alg.V.size) == (5, 9)
    for v in range(alg.V.size):
        hom = Homomorphism(("a",), alg, {"a": v})
        assert hom.row("a") == alg.action[v]
        assert [hom.eval(F(t)) for t in ("a", "a(a)", "a+a(a)")] == [
            alg.action[v][0], alg.action[v][alg.action[v][0]],
            alg.plus(alg.action[v][0], alg.action[v][alg.action[v][0]])]
    for v in (alg.V.size, -1, "a"):
        with pytest.raises(StructuralError):
            Homomorphism(("a",), alg, {"a": v})
    with pytest.raises(StructuralError):
        Homomorphism(("a",), u1(), {"a": 7})


def test_factors_through_trivial_always():
    hom = four_element_algebra().hom
    triv_alg = syntactic(Recognizer(hom, frozenset()))[0].hom.target
    triv = Homomorphism(hom.alphabet, triv_alg, {a: 0 for a in hom.alphabet})
    assert factors_through(triv, hom)[0]


def test_image_restrict():
    alg = u2()
    hom = Homomorphism(("a",), alg, {"a": 0})  # identity letter only
    sub = image_restrict(hom)
    assert sub.target.H.size == 1

    full = u2_example_recognizer().hom
    sub = image_restrict(full)
    assert sub.target.H.size == 2  # already onto

    chain = four_element_algebra().hom
    sub = image_restrict(chain)
    assert sub.target.H.size == 4


def test_carrier_matches_the_image_search():
    """_carrier steps the letter rows and H's sum rows directly; its values
    are joint.image's on every hom of differential_homs(), each also with
    its onto mark cleared, so that all of them are searched."""
    for hom in differential_homs():
        unmarked = dataclasses.replace(hom)
        assert not unmarked.onto
        want = sorted(image(hom, hom.alphabet))
        assert list(hom_module._carrier(unmarked)) == want
        assert list(hom_module._carrier(hom)) == want


def test_syntactic_trivial_cases():
    rec = four_element_algebra()
    for X in (frozenset(), frozenset(range(4))):
        syn, _ = syntactic(Recognizer(rec.hom, X))
        assert syn.hom.target.H.size == 1


def _check_projection(rec, syn, proj):
    """proj is onto and respects 0, +, every letter and acceptance."""
    src, tgt = rec.hom.target, syn.hom.target
    assert set(proj) == set(image(rec.hom, rec.hom.alphabet))
    assert set(proj.values()) == set(range(tgt.H.size))
    assert proj[src.zero] == tgt.zero
    for h in proj:
        assert (h in rec.accept) == (proj[h] in syn.accept)
        for a in rec.hom.alphabet:
            assert (proj[src.act(rec.hom.letter(a), h)]
                    == tgt.act(syn.hom.letter(a), proj[h]))
        for g in proj:
            assert proj[src.plus(h, g)] == tgt.plus(proj[h], proj[g])


def test_syntactic_is_minimal_and_equivalent():
    rec = four_element_algebra()
    syn, proj = syntactic(rec)
    assert syn.hom.target.H.size == 4
    _check_projection(rec, syn, proj)
    rng = random.Random(9)
    for _ in range(1000):
        s = random_forest(rng, ("a", "b"), 4, 3)
        assert rec.accepts(s) == syn.accepts(s)


def test_syntactic_matches_signature_reference():
    rng = random.Random(41)
    recs = [random_recognizer(rng, max_h=6) for _ in range(200)]
    recs += [random_big_recognizer(random.Random(i), atoms=4, nletters=3)
             for i in range(4)]
    # nested modalities need one refinement round per level
    for n in range(2, 6):
        phi = logic.parse_formula("EX(" * n + "a" + ")" * n)
        recs.append(logic.to_recognizer(phi, ("a", "b")))
    for text in ("EF(a & EF(b & EF c))", "EX(a & EF(b & EX c)) | EF(c & EX b)"):
        recs.append(logic.to_recognizer(logic.parse_formula(text),
                                        ("a", "b", "c")))
    merged = 0
    for rec in recs:
        syn, proj = syntactic(rec)
        ref = reference_syntactic(rec)
        assert printed_recognizer(syn) == printed_recognizer(ref)
        assert syn.accept == ref.accept
        _check_projection(rec, syn, proj)
        merged += syn.hom.target.H.size < len(proj)
    assert merged > 20


def test_syntactic_idempotent():
    rec = four_element_algebra()
    syn1, _ = syntactic(rec)
    syn2, _ = syntactic(syn1)
    assert recognizers_isomorphic(syn1, syn2) is not None


def test_syntactic_names_classes_by_their_representatives():
    """A file may name a non-absorbing element inf.  The quotient is named
    once, from its representatives' own names: h1 keeps its name, and the
    class of the element named inf, which holds the absorbing h2, is inf."""
    text = ("H: 0 inf h1 h2\nplus:\n0 inf h1 h2\ninf inf h2 h2\n"
            "h1 h2 h1 h2\nh2 h2 h2 h2\nletter: a\ninf h1 0 h1\naccept: 0\n")
    alg, letters, accept = parse_algebra(text)
    syn, projection = syntactic(Recognizer(Homomorphism(("a",), alg, letters),
                                           accept))
    assert syn.hom.target.H.names == ("0", "inf", "h1")
    assert projection == {0: 0, 1: 1, 2: 2, 3: 1}


def test_syntactic_factors_through_any_recognizer():
    rec = four_element_algebra()
    syn, _ = syntactic(rec)
    ok, _ = factors_through(syn.hom, restrict_recognizer(rec).hom)
    assert ok


def test_realize():
    hom = four_element_algebra().hom
    wit = realize(hom)
    assert wit[0] == ()
    assert hom.eval(wit[3]) == 3
    assert terms.node_count(wit[3]) <= 2  # a+b or smaller
    hom2 = image_restrict(u2_example_recognizer().hom)
    wit2 = realize(hom2)
    assert terms.print_forest(wit2[hom2.target.H.names.index("inf")]) == "c"
    assert wit2[0] == ()


def test_realize_matches_reference():
    """The tree-id unions and improving-only pushes fix the same forest
    for every value, in the same order, as normalizing, printing and
    pushing every candidate: on seeded random homs, the syntactic homs of
    the EF+EX census up to 5 nodes and of 10 random |H| = 64 recognizers
    (the decide-deep shape), EX^n a for n <= 6, and EX^n a xor u2_abc for
    n = 3, 4, 5."""
    rng = random.Random(2525)
    homs = [random_hom(rng) for _ in range(200)]
    homs += [syntactic(logic.to_recognizer(phi, ("a", "b")))[0].hom
             for phi in census_formulas(5, (logic.EF, logic.EX))]
    homs += [syntactic(random_big_recognizer(rng))[0].hom for _ in range(10)]
    homs += [syntactic(logic.to_recognizer(
        logic.parse_formula("EX " * n + "a"), ("a", "b")))[0].hom
        for n in range(1, 7)]
    homs += [xor_u2_hom(n) for n in (3, 4, 5)]
    for hom in homs:
        got, want = realize(hom), reference_realize(hom)
        assert got == want
        assert list(got) == list(want)
        # realize forms a sum's forest as the sorted union of two fixed
        # forests' trees.  No sum of two forests that share a tree fixes a
        # value on these homs, so the union's dropping of repeats is
        # checked on its own, on every pair of fixed forests.
        forests = list(got.values())
        for f in forests:
            for g in forests:
                assert tuple(sorted(set(f) | set(g), key=terms.tree_key)) \
                    == terms.ic_normalize(f + g)


def test_constant_letter_realizers():
    hom = image_restrict(u2_example_recognizer().hom)
    pref = constant_letter_realizers(hom)
    names = {hom.target.hname(h): terms.print_forest(f) for h, f in pref.items()}
    assert names == {"0": "b", "inf": "c"}


def test_relabeled():
    hom = u2_example_recognizer().hom
    tagged = relabeled(F("a(b)"), hom)
    assert tagged == ((("a", "0"), ((("b", "0"), ()),)),)
    assert relabeled((), hom) == ()


def test_relabeled_matches_the_reference_walk():
    """relabeled, which tags through terms.relabel, equals the one-walk
    helpers.reference_relabeled on seeded random homs and forests, under
    the default tag map and class_tag_names at every class.  Every tenth
    hom also relabels a 300-deep chain."""
    rng = random.Random(2030)
    checked = 0
    for i in range(60):
        hom = random_hom(rng)
        rs = reachability(hom.target)
        forests = [random_forest(rng, hom.alphabet, 4, 3) for _ in range(5)]
        if i % 10 == 0:
            chain = ()
            for _ in range(300):
                chain = (terms.tree(rng.choice(hom.alphabet), chain),)
            forests.append(chain)
        for tags in [None] + [class_tag_names(hom, ci, rs)
                              for ci in range(len(rs.classes))]:
            for s in forests:
                assert relabeled(s, hom, tags) == reference_relabeled(s, hom, tags)
                checked += 1
    assert checked > 600


def test_recognizers_isomorphic_detects_mismatch():
    rec = four_element_algebra()
    syn, _ = syntactic(rec)
    other = Recognizer(syn.hom, frozenset({0}))
    assert recognizers_isomorphic(syn, other) is None


def test_eval_invariant_under_ic_normalize():
    rng = random.Random(14)
    for rec in (four_element_algebra(), u2_example_recognizer()):
        hom = rec.hom
        for _ in range(150):
            s = random_forest(rng, hom.alphabet, 4, 3)
            assert hom.eval(s) == hom.eval(terms.ic_normalize(s))


def test_recognizers_isomorphic_matches_permutation_search():
    # a function from H1 onto part of H2 is not a bijection
    onto = u2_example_recognizer()
    collapsed = Recognizer(Homomorphism(onto.hom.alphabet, onto.hom.target,
                                        dict.fromkeys(onto.hom.alphabet, 0)),
                           frozenset({0}))
    assert recognizers_isomorphic(onto, collapsed) is None
    assert brute_isomorphism(onto, collapsed) is None
    rng = random.Random(41)
    found = 0
    for _ in range(30):
        rec = random_recognizer(rng, max_h=6)
        while rec.hom.target.H.size < 3:
            rec = random_recognizer(rng, max_h=6)
        other = random_recognizer(rng, max_h=6)
        n = rec.hom.target.H.size
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        copy = permuted_copy(rec, perm)
        flipped = Recognizer(rec.hom, frozenset(range(n)) - rec.accept)
        cases = [(syntactic(rec)[0], syntactic(other)[0]),
                 (syntactic(rec)[0], syntactic(copy)[0]),
                 (rec, copy), (copy, rec), (rec, flipped)]
        for r1, r2 in cases:
            got = recognizers_isomorphic(r1, r2)
            assert got == brute_isomorphism(r1, r2)
            found += got is not None
        assert recognizers_isomorphic(rec, copy) == perm
    assert found >= 60


def test_u2_example_is_onto():
    hom = image_restrict(u2_example_recognizer().hom)
    assert hom.target.H.size == 2
    assert hom.target.V.size == 3


def test_generated_matches_reference_closure():
    """Letters are the first generators with their rows, the onto mark is
    true, and once read V's rows, names and table are those of a plain
    breadth-first closure.  Letters may repeat a row, act as the identity
    or act as an insertion, and may be named like elements of V: 1, an
    insertion, an automatic name v<i>, or v<i>_.  Only instances whose
    image is all of H are drawn."""
    rng = random.Random(4042)
    renamed = {"prefix": 0, "closure": 0}
    drawn = 0
    while drawn < 150:
        H = random_semilattice(rng)
        n = H.size
        i = rng.randrange(1, 10)
        letters = tuple(sorted(rng.sample(
            ("a", "b", "1", "ins_" + rng.choice(H.names), "v%d" % i,
             "v%d_" % i), 4)))
        rows = {}
        for a in letters:
            roll = rng.random()
            if roll < 0.2:
                rows[a] = tuple(range(n))
            elif roll < 0.4:
                rows[a] = H.op[rng.randrange(n)]
            elif roll < 0.6 and rows:
                rows[a] = rows[rng.choice(sorted(rows))]
            else:
                rows[a] = tuple(rng.randrange(n) for _ in range(n))
        hom = generated(letters, range(n), lambda a, h: rows[a][h], H.mul,
                        H.identity)
        if not _is_image(hom):
            continue
        drawn += 1
        alg = hom.target
        names = alg.generator_names
        assert hom.onto
        assert "V" not in vars(alg) and "action" not in vars(alg)
        assert all(hom.row(a) == rows[a] for a in letters)
        action, reference, op = reference_vertical_closure(H, rows)
        assert hom.assign == {a: action.index(rows[a]) for a in letters}
        assert alg.generators == action[:len(alg.generators)]
        assert (alg.action, alg.V.names, alg.V.op) == (action, reference, op)
        renamed["prefix"] += any(
            name not in letters + ("1",) and not name.startswith("ins_")
            for name in names)
        renamed["closure"] += any(name.endswith("_")
                                  for name in reference[len(names):])
    assert min(renamed.values()) >= 5, renamed  # 63 and 8 instances rename


def _is_image(hom):
    return sorted(image(hom, hom.alphabet)) == list(range(hom.target.H.size))


def _unmarked(hom):
    """The same letter assignment, built by hand and so not marked onto."""
    return Homomorphism(hom.alphabet, hom.target, dict(hom.assign))


def _quotients(hom):
    rs = reachability(hom.target)
    return [quotient_hom(hom, ci, mode, rs)[0]
            for ci in range(len(rs.classes)) for mode in ("strict", "weak")]


def _tables(hom):
    alg = hom.target
    return (alg.H.op, alg.H.names, alg.generators, alg.generator_names,
            hom.assign, hom.onto)


def test_quotient_matches_per_entry_reference():
    """quotient reads its tables off hom's rows at the representatives;
    the reference tabulates them one entry at a time.  Both give the same
    tables, names, generators, letter assignment and onto mark, on
    syntactic quotients, ideal quotients and image restrictions."""
    fixtures = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
    recs = [logic.to_recognizer(phi, ("a", "b"))
            for phi in census_formulas(4, (logic.EF, logic.EX))]
    recs += [_load_recognizer(os.path.join(fixtures, name))
             for name in ("chain4.fa", "u1_efa.fa", "u2_abc.fa")]
    recs.append(Recognizer(xor_u2_hom(4), frozenset({0})))
    checked = 0
    for rec in recs:
        syn, proj = syntactic(rec)
        reps = {}
        for h in sorted(proj):
            reps.setdefault(proj[h], h)
        reps = [reps[c] for c in range(len(reps))]
        rep = {h: reps[c] for h, c in proj.items()}
        ref = reference_quotient(rec.hom, reps, rep)
        assert _tables(syn.hom) == _tables(ref)
        sub = image_restrict(rec.hom)
        assert _tables(quotient(rec.hom, reps, proj)) == _tables(ref)
        if not rec.hom.onto:
            assert _tables(sub) == _tables(reference_quotient(
                rec.hom, sorted(proj), {h: h for h in proj}))
        for alpha in {id(h): h for h in (rec.hom, sub, syn.hom)}.values():
            rs = reachability(alpha.target)
            for ci in range(len(rs.classes)):
                for mode in ("strict", "weak"):
                    q, (reps, hmap) = quotient_hom(alpha, ci, mode, rs)
                    ref = reference_quotient(alpha, reps,
                                             [reps[c] for c in hmap])
                    ref.onto = alpha.onto
                    assert _tables(q) == _tables(ref)
                    checked += 1
    assert checked > 1000


def test_onto_mark_is_true_wherever_it_is_set():
    """Every hom that the compile, restriction, syntactic, depth-k, wreath
    and ideal-quotient constructions return is marked onto exactly when
    it is built from an image, and a marked hom is onto.  On marked homs
    the shortcuts agree with the image computation: image_restrict is the
    hom itself, printed as the restriction of an unmarked copy, and the
    syntactic quotient prints as an unmarked copy's."""
    marked, unmarked = [], []
    for phi in census_formulas(5, (logic.EF, logic.EX)):
        rec = logic.to_recognizer(phi, ("a", "b"))
        syn = syntactic(rec)[0]
        marked += [rec.hom, syn.hom] + _quotients(syn.hom)
        assert image_restrict(rec.hom) is rec.hom
        assert (printed_recognizer(syn)
                == printed_recognizer(syntactic(Recognizer(
                    _unmarked(rec.hom), rec.accept))[0]))
    for hom in differential_homs():
        sub = image_restrict(hom)
        syn = syntactic(Recognizer(hom, frozenset({hom.target.zero})))[0]
        marked += [sub, syn.hom] + _quotients(sub)
        (marked if hom.onto else unmarked).extend([hom] + _quotients(hom))
        if hom.onto:
            assert sub is hom
            copy = image_restrict(_unmarked(hom))
            assert (print_algebra(copy.target, letters=copy.assign)
                    == print_algebra(hom.target, letters=hom.assign))
    for k in (1, 2):
        marked.append(free_kdefinite(("a", "b"), k)[1])
    rng = random.Random(21)
    for _ in range(20):
        alpha = random_hom(rng, max_h=4, max_letters=2)
        B = [(a, alpha.target.hname(h)) for a in alpha.alphabet
             for h in range(alpha.target.H.size)]
        beta = Homomorphism(B, u2(), {b: rng.choice((0, 1, 2)) for b in B})
        marked.append(wreath_compose(alpha, beta))
    assert all(hom.onto for hom in marked)
    assert not any(hom.onto for hom in unmarked)
    assert all(_is_image(hom) for hom in marked)
    assert len(marked) > 9000
    assert sum(not _is_image(hom) for hom in unmarked) > 100


# 0 < h1 < h2 < inf; a sends 0 to h1, b sends h1 to h2, and inf is no value
_CHAIN_RESTRICTED = (
    "H: 0 h1 inf\nplus:\n0 h1 inf\nh1 h1 inf\ninf inf inf\n"
    "V: 1 a b ins_inf v4\ncompose:\n1 a b ins_inf v4\na a v4 ins_inf v4\n"
    "b ins_inf b ins_inf ins_inf\nins_inf ins_inf ins_inf ins_inf ins_inf\n"
    "v4 ins_inf v4 ins_inf ins_inf\nact:\n0 h1 inf\nh1 h1 inf\n0 inf inf\n"
    "inf inf inf\nh1 inf inf\n")


def test_hand_built_hom_with_unreachable_elements_is_not_marked():
    H = horizontal_monoid([[max(i, j) for j in range(4)] for i in range(4)], 0,
                          ["0", "h1", "h2", "inf"])
    alg, genmap = close_vertical(H, {"a": (1, 1, 2, 3), "b": (0, 2, 2, 3)},
                                 warn_on_merge=False)
    hom = Homomorphism(("a", "b"), alg, dict(genmap))
    assert not hom.onto and not _is_image(hom)
    weak = quotient_hom(hom, 3, "weak")[0]
    assert not weak.onto and weak.target.H.size == 4 and not _is_image(weak)
    sub = image_restrict(hom)
    assert sub.onto and sub is not hom
    assert (print_algebra(sub.target, letters=sub.assign)
            == _CHAIN_RESTRICTED + "letters: a=a b=b\n")
    syn = syntactic(Recognizer(hom, frozenset({2})))[0]
    assert syn.hom.onto
    assert printed_recognizer(syn) == (_CHAIN_RESTRICTED
                                       + "accept: inf\nletters: a=a b=b\n")
    assert quotient_hom(sub, 2, "weak")[0].onto
