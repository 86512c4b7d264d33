import random

import pytest

from forestalg.algebra import (FiniteMonoid, ForestAlgebra, _check_table,
                               generated_algebra, horizontal_monoid,
                               quotient_by_ideal, u1, u2)
from forestalg.errors import IdealViolation, SizeLimitError, StructuralError
from forestalg.hom import generated
from forestalg.reach import quotient_hom, reachability

from helpers import (AlgebraMorphism, direct_product, four_element_algebra,
                     reference_check_table)


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


def _outcome(check, table, rows, cols, size):
    try:
        check(table, rows, cols, size, "table")
    except StructuralError as err:
        return str(err)
    return None


def test_check_table_matches_the_per_entry_walk():
    """Seeded tables with one to three faults (bool, float, negative,
    ``size``, None, a string, a ragged row, a wrong row count) raise, or
    pass, with the message of the entry-by-entry walk."""
    rng = random.Random(21)
    faults = (True, False, 1.0, 0.0, -1, None, "1", 2 ** 70)
    seen = {"raised": 0, "passed": 0}
    for _ in range(3000):
        size = rng.randrange(1, 6)
        rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
        table = [[rng.randrange(size) for _ in range(cols)] for _ in range(rows)]
        for _ in range(rng.randrange(0, 4)):
            roll = rng.random()
            if roll < 0.1:
                table.insert(rng.randrange(len(table) + 1), [0] * cols)
            elif table and roll < 0.2:
                del table[rng.randrange(len(table))]
            elif table and roll < 0.3:
                row = table[rng.randrange(len(table))]
                if row and rng.random() < 0.5:
                    row.pop()
                else:
                    row.append(0)
            elif table and table[0]:
                row = table[rng.randrange(len(table))]
                if row:
                    row[rng.randrange(len(row))] = rng.choice(faults + (size,))
        if rng.random() < 0.5:
            table = tuple(tuple(row) for row in table)
        want = _outcome(reference_check_table, table, rows, cols, size)
        assert _outcome(_check_table, table, rows, cols, size) == want, table
        seen["passed" if want is None else "raised"] += 1
    assert min(seen.values()) > 500


def test_lazy_and_generator_rows_are_checked_like_tables():
    H = horizontal_monoid(((0, 1), (1, 1)), 0)
    for row in ((1.0, 1), (None, 1), (0,), (0, 2), (-1, 0)):
        with pytest.raises(StructuralError):
            generated_algebra(H, {"a": row})
        lazy = FiniteMonoid(None, 0, row_fn=lambda i, row=row: row, size=2)
        with pytest.raises(StructuralError):
            lazy.row(1)
    alg, genmap = generated_algebra(H, {"a": (1, 1)})
    assert alg.vrow(genmap["a"]) == (1, 1)
    assert FiniteMonoid(None, 0, row_fn=lambda i: (i, 1), size=2).row(0) == (0, 1)


def test_absorbing_is_sum_of_all():
    for alg in (u1(), u2(), four_element_algebra().hom.target):
        inf = alg.absorbing()
        for h in range(alg.H.size):
            assert alg.plus(inf, h) == inf


def test_direct_product():
    a, b = u1(), u2()
    p = direct_product(a, b)
    assert (p.H.size, p.V.size) == (4, 6)
    assert p.check_axioms() == []
    pa = AlgebraMorphism(p, a, tuple(i // b.H.size for i in range(p.H.size)),
                         tuple(i // b.V.size for i in range(p.V.size)))
    pb = AlgebraMorphism(p, b, tuple(i % b.H.size for i in range(p.H.size)),
                         tuple(i % b.V.size for i in range(p.V.size)))
    for proj in (pa, pb):
        assert proj.validate() == []
        assert proj.is_surjective()


def _chain_quotient(pick):
    """The chain's strict quotient at the class ``pick`` chooses, with the
    projection morphism whose vertical map is read off the collapsed rows."""
    hom = four_element_algebra().hom
    alg = hom.target
    qhom, (reps, hmap) = quotient_hom(hom, pick(reachability(alg)), "strict")
    q = qhom.target
    vmap = tuple(q.action.index(tuple(hmap[row[r]] for r in reps))
                 for row in alg.action)
    return q, AlgebraMorphism(alg, q, hmap, vmap)


def test_quotient_singleton_absorbing_is_iso():
    alg = four_element_algebra().hom.target
    assert quotient_by_ideal(alg, {3}) == ([0, 1, 2, 3], (0, 1, 2, 3))
    q, proj = _chain_quotient(lambda rs: rs.min_class)
    assert q.H.size == alg.H.size
    assert proj.validate() == []
    assert q.check_axioms() == []


def test_quotient_collapses_ideal():
    alg = four_element_algebra().hom.target
    # h2 and inf form the ideal below the subminimal class {h2}
    assert quotient_by_ideal(alg, {2, 3}) == ([0, 1, 2], (0, 1, 2, 2))
    q, proj = _chain_quotient(lambda rs: rs.subminimal[0])
    assert q.H.size == 3
    assert sorted(q.H.names) == ["0", "h1", "inf"]
    assert proj.validate() == []
    assert proj.is_surjective()
    assert q.check_axioms() == []


def test_quotient_rejects_non_ideal():
    alg = four_element_algebra().hom.target
    rows = {"a": alg.generators[1], "b": alg.generators[2]}
    lazy = generated(("a", "b"), range(alg.H.size), lambda a, h: rows[a][h],
                     alg.plus, alg.zero).target
    for target in (alg, lazy):
        with pytest.raises(IdealViolation) as exc:
            quotient_by_ideal(target, {1})  # b.h1 = h2 escapes the set
        assert exc.value.v == "b"
    assert "V" not in vars(lazy)


def test_quotient_projection_identity_on_kept():
    alg = four_element_algebra().hom.target
    q, proj = _chain_quotient(lambda rs: rs.subminimal[0])
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
    p = direct_product(u1(), u1())
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


def _law_check_bases():
    """Small valid algebras: u1, u2 and compiled recognizers' algebras."""
    from forestalg import logic

    bases = [u1(), u2(), four_element_algebra().hom.target]
    for text, alphabet in (("EX(EX a)", "ab"), ("EF a & EF b", "ab"),
                           ("EF(a & EX b) | EX(b & !EF a)", "ab")):
        rec = logic.to_recognizer(logic.parse_formula(text), tuple(alphabet))
        bases.append(rec.hom.target)
    return bases


def _mutated_tables(rng, alg):
    """An explicit algebra from alg's tables after up to three random edits:
    an entry of plus, compose or act, a copied action row, or a twin of a
    vertical element that acts like it and takes over some of its products
    (the action laws then still hold)."""
    plus = [list(r) for r in alg.H.op]
    compose = [list(r) for r in alg.V.op]
    act = [list(r) for r in alg.action]
    vnames = list(alg.V.names)
    n = len(plus)
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("plus", "compose", "act", "copy", "twin"))
        m = len(compose)
        if kind == "plus":
            plus[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        elif kind == "compose":
            compose[rng.randrange(m)][rng.randrange(m)] = rng.randrange(m)
        elif kind == "act":
            act[rng.randrange(m)][rng.randrange(n)] = rng.randrange(n)
        elif kind == "copy":
            act[rng.randrange(m)] = list(act[rng.randrange(m)])
        else:
            x = rng.randrange(m)
            for row in compose:
                row.append(row[x])
            compose.append(list(compose[x]))
            act.append(list(act[x]))
            vnames.append("t%d" % m)
            for row in compose:
                for j, y in enumerate(row):
                    if y == x and rng.random() < 0.5:
                        row[j] = m
    H = FiniteMonoid(plus, alg.H.identity, alg.H.names)
    V = FiniteMonoid(compose, alg.V.identity, vnames)
    return ForestAlgebra(H, V, act, faithful=rng.random() < 0.5)


def test_check_axioms_matches_full_scan():
    """The law check that skips V's laws when the action implies them
    reports exactly what the full scan reports, in order."""
    from helpers import reference_check_axioms

    rng = random.Random(20261018)
    bases = _law_check_bases()
    gated = skipped = 0
    for trial in range(2000):
        alg = _mutated_tables(rng, bases[trial % len(bases)])
        got = alg.check_axioms()
        assert got == reference_check_axioms(alg), trial
        laws = {v.law for v in got}
        if any(law.startswith("V-") for law in laws):
            gated += not laws & {"action-identity", "action-composition"}
        skipped += not got
    # V's own violations behind each gate, and valid tables that skip V.check
    assert gated and skipped


def test_generated_law_check_reads_only_H():
    """A generated algebra's law check equals the full scan of its closed
    tables, also when H itself breaks its laws, and never builds V."""
    from forestalg.algebra import generated_algebra
    from helpers import reference_check_axioms

    rng = random.Random(7)
    for trial in range(150):
        n = rng.randint(1, 3)  # V is at most the 27 maps on 3 points
        plus = [[rng.randrange(n) if rng.random() < 0.3 else max(i, j)
                 for j in range(n)] for i in range(n)]
        H = FiniteMonoid(plus, 0, ["0"] + ["h%d" % i for i in range(1, n)])
        gens = {a: tuple(rng.randrange(n) for _ in range(n)) for a in "ab"}
        alg = generated_algebra(H, gens)[0]
        got = alg.check_axioms()
        assert "V" not in vars(alg)
        assert got == reference_check_axioms(alg), trial


def test_valid_explicit_file_skips_vertical_laws(monkeypatch):
    from forestalg import io, logic

    rec = logic.to_recognizer(logic.parse_formula("EF(a & EX b) | EX(b & !EF a)"),
                              ("a", "b"))
    text = io.print_algebra(rec.hom.target, letters=dict(rec.hom.assign),
                            accept=rec.accept)
    alg = io.parse_algebra(text)[0]
    checked = []
    original = FiniteMonoid.check

    def counting(monoid):
        checked.append(monoid)
        return original(monoid)

    monkeypatch.setattr(FiniteMonoid, "check", counting)
    assert alg.check_axioms() == []
    assert checked == [alg.H]


def test_generated_V_matches_reference_closure():
    """close_vertical returns generated_algebra's algebra unread; reading V
    or the action closes V as a plain breadth-first search does, with the
    same rows, names and table.  A merged or renamed extra generator is
    added to half the random instances."""
    from forestalg import logic
    from forestalg.algebra import close_vertical, generated_algebra
    from forestalg.terms import print_label
    from helpers import (random_formula, random_hom, reference_vertical_closure,
                         xor_u2_hom)

    rng = random.Random(1515)
    homs = [random_hom(rng) for _ in range(60)]
    homs += [logic.to_recognizer(random_formula(rng, ("a", "b"), 2),
                                 ("a", "b")).hom for _ in range(20)]
    for trial, hom in enumerate(homs):
        H = hom.target.H
        gens = {print_label(a): hom.row(a) for a in hom.alphabet}
        if rng.random() < 0.5:
            gens["ins_0"] = rng.choice(list(gens.values()) + [
                tuple(range(H.size)), H.op[rng.randrange(H.size)]])
        alg, genmap = close_vertical(H, gens, warn_on_merge=False)
        other, other_genmap = generated_algebra(H, gens)
        assert genmap == other_genmap, trial
        assert alg.generators == other.generators, trial
        assert alg.generator_names == other.generator_names, trial
        assert "V" not in vars(alg) and "action" not in vars(alg)
        rows, names, op = reference_vertical_closure(H, gens)
        assert alg.generators == rows[:len(alg.generators)], trial
        assert (alg.V.names, alg.action, alg.V.op) == (names, rows, op), trial
        assert (other.action, other.V.names, other.V.op) == (rows, names, op), trial
    # Past the random homs' 150-element cap: the compiled cycle n=3
    # recognizer (|H| 57, |V| 183) and EX^4 a xor u2_abc (|H| 32, |V| 142),
    # whose every lazy row is read.
    cycle = logic.parse_formula("EF(a0 & EX a1) | EF(a1 & EX a2) | EF(a2 & EX a0)")
    for hom, sizes in ((logic.to_recognizer(cycle, ("a0", "a1", "a2")).hom, (57, 183)),
                       (xor_u2_hom(4), (32, 142))):
        alg = hom.target
        gens = {print_label(a): hom.row(a) for a in hom.alphabet}
        rows, names, op = reference_vertical_closure(alg.H, gens)
        assert alg.generators == rows[:len(alg.generators)]
        assert (alg.V.names, alg.action, alg.V.op) == (names, rows, op)
        assert (alg.H.size, alg.V.size) == sizes


def test_vertical_closure_is_capped(monkeypatch):
    """V is closed on first read under DEFAULT_MAX_VERTICAL, read at that
    point; past it, reading V or the action raises SizeLimitError."""
    from forestalg import algebra
    from forestalg.algebra import close_vertical, horizontal_monoid

    H = horizontal_monoid([[max(i, j) for j in range(4)] for i in range(4)], 0)
    gens = {"a": (3, 3, 0, 3)}
    monkeypatch.setattr(algebra, "DEFAULT_MAX_VERTICAL", 9)
    alg = close_vertical(H, gens)[0]
    assert (alg.V.size, len(alg.action)) == (9, 9)
    monkeypatch.setattr(algebra, "DEFAULT_MAX_VERTICAL", 8)
    for read in ("V", "action"):
        alg = close_vertical(H, gens)[0]
        with pytest.raises(SizeLimitError) as exc:
            getattr(alg, read)
        assert (exc.value.what, exc.value.limit) == ("vertical closure", 8)
