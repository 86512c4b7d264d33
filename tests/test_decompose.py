import random

import pytest

from forestalg import logic, terms
from forestalg.algebra import u1, u2
from forestalg.decide import is_ef_algebra, nonconfusion
from forestalg.decompose import (ONE_DEFINITE_STAGE, OTHER_STAGE, U1_STAGE,
                                 Cascade, Stage, decompose_ef, decompose_efex,
                                 decompose_kdefinite, tensor_cascade,
                                 wreath_compose)
from forestalg.defk import alpha1, definiteness_degree, free_kdefinite
from forestalg.errors import (AlphabetMismatchError, InternalError,
                              NotEFAlgebra, NotKDefinite, NotNonconfusing,
                              SizeLimitError, StructuralError)
from forestalg.hom import (Homomorphism, factors_through, generated,
                           image_restrict, relabeled, syntactic)
from forestalg.joint import TensorEvaluator, evaluate, mutually_determine
from forestalg.oracle import random_forest

from helpers import (TupleCascade, census_formulas, census_table_homs,
                     differential_homs, example_language_recognizer,
                     four_element_algebra,
                     random_cascade, random_formula, random_hom,
                     random_recognizer, random_tagged_hom,
                     reference_alarm_fires, reference_class_tag_map,
                     reference_decompose_ef, reference_quotient_view,
                     u2_example_recognizer)


def _syn(formula, alphabet=("a", "b")):
    rec = logic.to_recognizer(logic.parse_formula(formula), alphabet)
    return syntactic(rec)[0].hom


def _tagged_alphabet(alpha):
    return tuple((a, alpha.target.hname(h))
                 for a in alpha.alphabet for h in range(alpha.target.H.size))


# ---------------------------------------------------------------------------
# Tensoring

def test_tensor_cascade_projection():
    alpha = _syn("EF a")
    beta = alpha1(_tagged_alphabet(alpha))
    casc = tensor_cascade(alpha, beta)
    rng = random.Random(40)
    for _ in range(60):
        s = random_forest(rng, ("a", "b"), 3, 2)
        state = casc.eval(s)
        assert state[0] == alpha.eval(s)
        assert state[1] == beta.eval(relabeled(s, alpha))


def test_tensor_alphabet_mismatch():
    alpha = _syn("EF a")
    with pytest.raises(AlphabetMismatchError):
        tensor_cascade(alpha, alpha1(("a", "b")))


def test_wreath_compose_constant_second():
    alpha = _syn("EF a")
    B = _tagged_alphabet(alpha)
    beta = Homomorphism(B, u1(), {b: 0 for b in B})  # constant identity
    gamma = wreath_compose(alpha, beta)
    ok, _ = factors_through(alpha, gamma)
    assert ok
    ok, _ = factors_through(gamma, alpha)
    assert ok  # second coordinate carries nothing


def test_wreath_compose_first_coordinate_is_alpha():
    alpha = _syn("EF a")
    B = _tagged_alphabet(alpha)
    rng = random.Random(41)
    beta = Homomorphism(B, u2(), {b: rng.randrange(3) for b in B})
    gamma = wreath_compose(alpha, beta)
    for _ in range(60):
        s = random_forest(rng, ("a", "b"), 3, 2)
        name = gamma.target.hname(gamma.eval(s))
        if name not in ("0", "inf"):
            assert name.startswith("(%s," % alpha.target.hname(alpha.eval(s)))
        assert gamma.eval(s + s) == gamma.eval(s)


def test_wreath_compose_of_generated_algebras_closes_no_vertical_monoid(
        vertical_closures):
    """Stage letters that are generator indices act by generator rows."""
    alpha = alpha1(("a", "b"))
    beta = free_kdefinite(_tagged_alphabet(alpha), 1)[1]
    gamma = wreath_compose(alpha, beta)
    assert mutually_determine(gamma, TensorEvaluator(alpha, beta),
                              alpha.alphabet)
    assert vertical_closures == []


def _counter(alphabet, counted, n):
    """The most nodes labeled in ``counted`` on one root path, saturating
    at n; H is the chain 0 < 1 < ... < n under max."""
    return generated(alphabet, list(range(n + 1)),
                     lambda a, x: min(x + 1, n) if a in counted else x,
                     max, 0)


def _counter_pair(n):
    """alpha counts a's, beta counts b's on root paths: (n + 1)^2 cascade
    states."""
    alpha = _counter(("a", "b"), ("a",), n)
    tagged = _tagged_alphabet(alpha)
    return alpha, _counter(tagged, {b for b in tagged if b[0] == "b"}, n)


def test_wreath_compose_holds_at_most_its_cap(monkeypatch):
    from forestalg import decompose

    seen = set()
    tensor = decompose.tensor_cascade

    def record(step):
        def recorded(*args):
            y = step(*args)
            seen.add(y)
            return y
        return recorded

    def recording(alpha, beta, max_size):
        casc = tensor(alpha, beta, max_size)
        seen.add(casc.zero_state())
        casc.letter_action = record(casc.letter_action)
        casc.plus_state = record(casc.plus_state)
        return casc

    monkeypatch.setattr(decompose, "tensor_cascade", recording)
    alpha, beta = _counter_pair(16)
    with pytest.raises(SizeLimitError) as err:
        wreath_compose(alpha, beta, 5)
    assert (err.value.what, err.value.limit) == ("wreath composition carrier", 5)
    # the held states plus the one new state that overflows
    assert 5 < len(seen) <= 6
    assert wreath_compose(alpha, beta, 289).target.H.size == 289


def test_wreath_compose_caps_above_the_cascade_default():
    alpha, beta = _counter_pair(80)
    with pytest.raises(SizeLimitError) as err:
        wreath_compose(alpha, beta, 4200)
    assert (err.value.what, err.value.limit) == ("wreath composition carrier",
                                                 4200)


def test_tensor_cascade_holds_its_cap():
    alpha, beta = _counter_pair(16)
    with pytest.raises(SizeLimitError) as err:
        tensor_cascade(alpha, beta, 288).reachable_states()
    assert (err.value.what, err.value.limit) == ("cascade states", 288)
    assert len(tensor_cascade(alpha, beta, 289).reachable_states()) == 289
    # 6,561 states: the default cap refuses, a larger one reaches the cascade
    # (closing all of them takes tens of seconds, so the test stops at 4,200)
    alpha, beta = _counter_pair(80)
    for casc, cap in ((tensor_cascade(alpha, beta), 4096),
                      (tensor_cascade(alpha, beta, 4200), 4200)):
        with pytest.raises(SizeLimitError) as err:
            casc.reachable_states()
        assert str(err.value) == ("size limit exceeded: cascade states "
                                  "(cap %d)" % cap)


def test_product_factors_through_wreath():
    # a pair of homomorphisms factors through their tensor trivially
    alpha = _syn("EF a")
    alpha2 = _syn("EX a")
    B = _tagged_alphabet(alpha)
    beta = Homomorphism(B, alpha2.target, {b: alpha2.letter(b[0]) for b in B})
    gamma = wreath_compose(alpha, beta)
    for other in (alpha, alpha2):
        ok, _ = factors_through(other, gamma)
        assert ok


# ---------------------------------------------------------------------------
# EF decompositions

def test_decompose_ef_u1_single_stage():
    alpha = _syn("EF a")  # syntactic algebra is the two-element one
    assert alpha.target.H.size == 2
    casc = decompose_ef(alpha)
    assert len(casc) == 1
    assert casc.stages[0].kind == U1_STAGE
    ok, _ = casc.factors(alpha)
    assert ok


def test_decompose_ef_union_language():
    alpha = _syn("EF a | EF b")
    casc = decompose_ef(alpha)
    assert casc.factors(alpha)[0]
    assert all(st.kind == U1_STAGE for st in casc.stages)


def test_decompose_ef_chain():
    # nested EF gives a longer chain
    alpha = _syn("EF(a & EF b)")
    casc = decompose_ef(alpha)
    assert all(st.kind == U1_STAGE for st in casc.stages)
    assert casc.factors(alpha)[0]


def test_decompose_ef_rejects_non_ef():
    with pytest.raises(NotEFAlgebra):
        decompose_ef(four_element_algebra().hom)


def test_decompose_ef_rejects_a_nontrivial_subminimal_class():
    # a swaps h1 and h2, so {h1, h2} is one subminimal class; the EF
    # identities exclude this, and they are checked before any peel.
    plus = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    row = (1, 2, 1, 3)
    hom = generated(("a",), range(4), lambda a, h: row[h],
                    lambda h, g: plus[h][g], 0)
    with pytest.raises(NotEFAlgebra, match=r"a\.h1 \+ h1 = inf != h2 = a\.h1"):
        decompose_ef(hom)


def _ef_homs():
    """The EF homs of differential_homs() and the syntactic homs, distinct
    by sum table and letter rows, of the EF formulas of at most 6 nodes."""
    homs = [alpha for alpha in differential_homs()
            if is_ef_algebra(image_restrict(alpha).target)[0]]
    tables = {}
    for phi in census_formulas(6, (logic.EF,)):
        alpha = syntactic(logic.to_recognizer(phi, ("a", "b")))[0].hom
        tables.setdefault((alpha.target.H.op,
                           tuple(alpha.row(a) for a in ("a", "b"))), alpha)
    return homs + list(tables.values())


def test_decompose_ef_matches_the_ef_recursion(monkeypatch):
    """decompose_ef, built by the combined recursion, gives the EF
    recursion's stages: the same kinds, prefixes, keys and reachable
    states, and the same letter on every key whose state some
    non-absorbing forest of the peeled homomorphism reaches.  The alarm
    stage fires on the other keys, where the EF recursion read the peeled
    element's action."""
    from forestalg import decompose

    append = decompose._append_alarm_stage
    reached = {}

    def recorded(casc, alpha):
        inf = alpha.target.absorbing()
        reached[len(casc.stages)] = {s for s, h in casc.joint_image(alpha)
                                     if h != inf}
        append(casc, alpha)

    monkeypatch.setattr(decompose, "_append_alarm_stage", recorded)
    homs = _ef_homs()
    counts = {"reached": 0, "absorbing_only": 0, "differ": 0,
              "cascades_differ": 0}
    for alpha in homs:
        reached.clear()
        casc, ref = decompose_ef(alpha), reference_decompose_ef(alpha)
        assert [(st.kind, st.prefix_len, sorted(st.letters, key=repr))
                for st in casc.stages] == [
                    (st.kind, st.prefix_len, sorted(st.letters, key=repr))
                    for st in ref.stages]
        assert casc.reachable_states() == ref.reachable_states()
        differ = 0
        for i, (st, rst) in enumerate(zip(casc.stages, ref.stages)):
            for key, v in st.letters.items():
                if i not in reached:
                    assert v == rst.letters[key], (i, key)
                elif key[1:] in reached[i]:
                    counts["reached"] += 1
                    assert v == rst.letters[key], (i, key)
                else:
                    counts["absorbing_only"] += 1
                    assert v != st.target.one, (i, key)
                    differ += v != rst.letters[key]
        counts["differ"] += differ
        counts["cascades_differ"] += differ > 0
    assert len(homs) == 228
    assert counts == {"reached": 508, "absorbing_only": 38, "differ": 8,
                      "cascades_differ": 6}


def test_decompose_ef_trivial():
    alpha = _syn("T")
    assert len(decompose_ef(alpha)) == 0


def test_decompose_ef_subminimal_branching():
    # EF a and EF b together: two incomparable subminimal classes
    alpha = _syn("EF a & EF b")
    casc = decompose_ef(alpha)
    assert casc.factors(alpha)[0]
    assert all(st.kind == U1_STAGE for st in casc.stages)


# ---------------------------------------------------------------------------
# Definite decompositions

def test_decompose_kdefinite_alpha1():
    a1 = alpha1(("a", "b"))
    casc = decompose_kdefinite(a1, 1)
    assert len(casc) == 2  # one two-constant stage per letter
    assert all(st.kind == ONE_DEFINITE_STAGE for st in casc.stages)
    assert all(st.target.H.size == 2 and st.target.V.size == 3
               for st in casc.stages)
    assert casc.factors(a1)[0]


def test_decompose_kdefinite_level_two():
    alpha = _syn("EX EX a")
    assert definiteness_degree(alpha) == 2
    casc = decompose_kdefinite(alpha, 2)
    assert casc.factors(alpha)[0]
    level1 = [st for st in casc.stages if st.prefix_len == 0]
    level2 = [st for st in casc.stages if st.prefix_len > 0]
    assert 0 < len(level1) <= 2           # labels drawn from the alphabet
    assert 0 < len(level2) <= 2 * 4       # letter with a level-1 class tag
    assert all(st.kind == ONE_DEFINITE_STAGE for st in casc.stages)


def test_decompose_kdefinite_zero():
    alpha = _syn("T")
    casc = decompose_kdefinite(alpha, 0)
    assert len(casc) == 0


def test_decompose_kdefinite_rejects():
    with pytest.raises(NotKDefinite):
        decompose_kdefinite(_syn("EF a"), 3)
    with pytest.raises(NotKDefinite):
        decompose_kdefinite(_syn("EX EX a"), 1)


def test_one_definite_stages_use_constants_only():
    a1 = alpha1(("a", "b"))
    casc = decompose_kdefinite(a1, 1)
    for st in casc.stages:
        constants = {st.target.V.names.index("cinf"),
                     st.target.V.names.index("c0")}
        assert set(st.letters.values()) <= constants


# ---------------------------------------------------------------------------
# Combined decompositions

def test_decompose_efex_trivial():
    alpha = _syn("T")
    assert len(decompose_efex(alpha)) == 0


def test_decompose_efex_four_element():
    alpha = four_element_algebra().hom
    casc = decompose_efex(alpha)
    assert casc.factors(alpha)[0]
    kinds = {st.kind for st in casc.stages}
    assert kinds <= {U1_STAGE, ONE_DEFINITE_STAGE}
    assert U1_STAGE in kinds and ONE_DEFINITE_STAGE in kinds


def test_decompose_efex_rejects_confusing():
    with pytest.raises(NotNonconfusing):
        decompose_efex(u2_example_recognizer().hom)


def test_decompose_efex_fat_minimal_class():
    # both constants present but no identity letter: single fat class,
    # nonconfusing at level 1
    alg = u2()
    alpha = Homomorphism(("a", "b"), alg,
                         {"a": alg.V.names.index("c0"),
                          "b": alg.V.names.index("cinf")})
    alpha = image_restrict(alpha)
    assert nonconfusion(alpha).nonconfusing
    casc = decompose_efex(alpha)
    assert casc.factors(alpha)[0]
    assert all(st.kind == ONE_DEFINITE_STAGE for st in casc.stages)


def test_decompose_efex_branching_subminimal():
    from helpers import direct_product

    prod = direct_product(u1(), u1())
    names = prod.V.names
    hom = image_restrict(Homomorphism(
        ("a", "b"), prod,
        {"a": names.index("(cinf,1)"), "b": names.index("(1,cinf)")}))
    casc = decompose_efex(hom)
    assert casc.factors(hom)[0]
    casc_ef = decompose_ef(hom)
    assert casc_ef.factors(hom)[0]
    assert len(casc_ef) == 4  # one two-element stage per peeled element


def test_decompose_efex_example_language():
    rec = example_language_recognizer()
    mu = syntactic(rec)[0].hom
    casc = decompose_efex(mu)
    assert casc.factors(mu)[0]


def test_decompose_matches_decide_on_randoms():

    rng = random.Random(42)
    decided = {True: 0, False: 0}
    capped = 0
    for _ in range(25):
        rec_hom = random_hom(rng, max_h=4, max_letters=2)
        verdict = nonconfusion(rec_hom).nonconfusing
        decided[verdict] += 1
        if verdict:
            try:
                casc = decompose_efex(rec_hom)
            except SizeLimitError:
                capped += 1
                continue
            assert casc.factors(rec_hom)[0]
        else:
            with pytest.raises(NotNonconfusing):
                decompose_efex(rec_hom)
    assert decided[True] > capped


def _fired(stage):
    """(kind, keys that fire, keys) of a two-element stage."""
    fires = [v != stage.target.one for v in stage.letters.values()]
    return stage.kind, sum(fires), len(fires)


def test_alarm_stage_matches_key_resolution(monkeypatch):
    """On each state that some non-absorbing forest reaches, the alarm
    stage fires exactly where the depth-k key resolution does; it fires on
    every state that absorbing forests alone reach."""
    from forestalg import decompose

    append = decompose._append_alarm_stage
    counts = {"stages": 0, "keys": 0, "absorbing_only": 0}

    def checked(casc, alpha):
        expected = reference_alarm_fires(casc, alpha)
        inf = alpha.target.absorbing()
        reached = {s for s, h in casc.joint_image(alpha) if h != inf}
        append(casc, alpha)
        stage = casc.stages[-1]
        counts["stages"] += 1
        for key, v in stage.letters.items():
            fires = v != stage.target.one
            counts["keys"] += 1
            if key[1:] in reached:
                assert fires == expected[key], key
            else:
                counts["absorbing_only"] += 1
                assert fires, key

    monkeypatch.setattr(decompose, "_append_alarm_stage", checked)
    rng = random.Random(2026)
    homs = differential_homs()
    homs += [random_recognizer(rng, max_h=4 + i % 9).hom for i in range(1206)]
    homs += [syntactic(logic.to_recognizer(random_formula(rng, ("a", "b"), 3),
                                           ("a", "b")))[0].hom
             for _ in range(200)]
    outcomes = {"factored": 0, "confusing": 0, "capped": 0}
    for alpha in homs:
        try:
            casc = decompose_efex(alpha)
        except NotNonconfusing:
            outcomes["confusing"] += 1
            continue
        except SizeLimitError:
            outcomes["capped"] += 1
            continue
        assert casc.factors(alpha)[0]
        outcomes["factored"] += 1
    assert outcomes["factored"] > 1000 and outcomes["capped"] < 10
    assert counts["stages"] > 350 and 0 < counts["absorbing_only"] < counts["keys"]


def _check_kdef_levels(casc, view, start):
    """Check the depth-k group from stage ``start`` against the key closure.

    At level l, each key (letter, state) must fire the stage of its
    reference label: the viewed letter with the depth-(l-1) key of the
    children.  The stages must follow the labels' canonical tree order.
    Returns the (level, state) pairs checked.
    """
    group = casc.stages[start:]
    checked = []
    for level, prefix in enumerate(sorted({st.prefix_len for st in group}), 1):
        below = Cascade(casc.alphabet, casc.max_size)
        for st in casc.stages[:prefix]:
            below.append(st)
        tags = reference_class_tag_map(below, view, level - 1)
        states = below.reachable_states()
        labels = {(a,) + s: (view(a, s), tags[s])
                  for a in casc.alphabet for s in states}
        occurring = sorted(set(labels.values()), key=terms.tree_key)
        stages = [st for st in group if st.prefix_len == prefix]
        cinf = stages[0].target.V.names.index("cinf")
        fired = {key: [j for j, st in enumerate(stages)
                       if st.letters[key] == cinf] for key in labels}
        assert fired == {key: [occurring.index(c)]
                         for key, c in labels.items()}, level
        checked += [(level, s) for s in states]
    return checked


def test_kdef_group_tags_match_the_key_closure(monkeypatch):
    """Every level of every depth-k group that decompose_efex and
    decompose_kdefinite build reads the children's depth-(l-1) class that
    the KdefEvaluator closure computes.  decompose_kdefinite runs at depth
    at least 2 with a small cap, which keeps the closures quick."""
    from forestalg import decompose

    append = decompose._append_kdef_group
    checked = []

    def wrapped(casc, view, k):
        start = len(casc.stages)
        append(casc, view, k)
        checked.extend(_check_kdef_levels(casc, view, start))

    monkeypatch.setattr(decompose, "_append_kdef_group", wrapped)
    rng = random.Random(2026)
    homs = differential_homs()
    homs += [random_recognizer(rng, max_h=4 + i % 7).hom for i in range(400)]
    formulas = [syntactic(logic.to_recognizer(
        random_formula(rng, ("a", "b"), 3), ("a", "b")))[0].hom
        for _ in range(150)]
    outcomes = {"factored": 0, "confusing": 0, "capped": 0, "kdefinite": 0}
    for alpha in homs + formulas:
        try:
            decompose_efex(alpha)
            outcomes["factored"] += 1
        except NotNonconfusing:
            outcomes["confusing"] += 1
        except SizeLimitError:
            outcomes["capped"] += 1
    for i, alpha in enumerate(homs):
        degree = definiteness_degree(alpha)
        if degree is not None:
            try:
                decompose_kdefinite(alpha, max(degree, 2 + i % 2), 512)
                outcomes["kdefinite"] += 1
            except SizeLimitError:
                pass
    levels = [level for level, _ in checked]
    assert outcomes["factored"] > 500 and outcomes["kdefinite"] > 150
    assert min(levels.count(level) for level in (1, 2, 3)) > 300


def test_kdef_group_view_matches_the_quotient_view(monkeypatch):
    """decompose_efex tags its depth-k groups by class_tag_names at the
    quotient's representatives.  On every reachable state, the view that
    each group receives equals helpers.reference_quotient_view, which
    names the strict quotient's values by the quotient's own names.  Each
    strict quotient is paired with the group after its recursion, so the
    quotients are kept on a stack.  Corpus: the 87 EF+EX census tables,
    differential_homs() and cycle n=2 at cap 65536."""
    from forestalg import decompose

    append, quotient = decompose._append_kdef_group, decompose.quotient_hom
    pending, checked = [], []

    def recorded(*args):
        got = quotient(*args)
        pending.append(got[0])
        return got

    def wrapped(casc, view, k):
        qhom = pending.pop()
        reference = reference_quotient_view(casc, qhom)
        states = casc.reachable_states()
        assert all(view(a, s) == reference(a, s)
                   for a in casc.alphabet for s in states)
        checked.append(qhom.target.H.size)
        append(casc, view, k)

    monkeypatch.setattr(decompose, "quotient_hom", recorded)
    monkeypatch.setattr(decompose, "_append_kdef_group", wrapped)
    census = census_table_homs(5, (logic.EF, logic.EX))
    assert len(census) == 87
    runs = [(alpha, decompose.DEFAULT_MAX_SIZE)
            for alpha in census + differential_homs()]
    runs.append((_syn("EF(a & EX b) | EF(b & EX a)"), 65536))
    outcomes = []
    for alpha, cap in runs:
        del pending[:]
        try:
            outcomes.append(len(decompose_efex(alpha, cap)))
        except (NotNonconfusing, SizeLimitError) as exc:
            outcomes.append(type(exc).__name__)
    assert outcomes[-1] == 25   # cycle n=2 factors at its cap
    assert sum(isinstance(x, int) for x in outcomes) > 250
    # groups after a one-element quotient, and after a larger one
    assert checked.count(1) > 100 and len(checked) - checked.count(1) > 50


def test_alarm_stage_fires_on_absorbing_only_state(monkeypatch):
    """In the last alarm stage for EF(b & !EX a) & (EF a | EX a), one key
    sits on a state that only absorbing forests reach.  The stage fires
    there and the key resolution does not; both cascades factor with the
    same shape."""
    from forestalg import decompose

    alpha = _syn("EF(b & !EX a) & (EF a | EX a)")
    casc = decompose_efex(alpha)
    assert (len(casc), len(casc.reachable_states())) == (16, 24)
    assert _fired(casc.stages[-1]) == (U1_STAGE, 40, 44)

    def reference(casc, alpha):
        fires = reference_alarm_fires(casc, alpha)
        decompose._append_u1_stage(casc, lambda a, s: fires[(a,) + s])

    monkeypatch.setattr(decompose, "_append_alarm_stage", reference)
    casc = decompose_efex(alpha)
    assert (len(casc), len(casc.reachable_states())) == (16, 24)
    assert _fired(casc.stages[-1]) == (U1_STAGE, 39, 44)


def test_fat_class_level_two_instance():
    # minimal class {x, y, inf} with letter a cycling x -> y -> inf and a
    # constant letter: the pair fixpoint empties at level 2, the oracle
    # agrees, and the decomposition tower overflows the default cap fast
    from forestalg.algebra import close_vertical, horizontal_monoid
    from forestalg.oracle import brute_confused_pairs
    from forestalg.reach import reachability

    plus = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    H = horizontal_monoid(plus, 0, ["0", "x", "y", "inf"])
    gens = {"a": (1, 2, 3, 3), "c": (1, 1, 1, 1)}
    alg, genmap = close_vertical(H, gens, warn_on_merge=False)
    hom = image_restrict(Homomorphism(("a", "c"), alg,
                                      {"a": genmap["a"], "c": genmap["c"]}))
    rs = reachability(hom.target)
    report = nonconfusion(hom, rs)
    assert report.nonconfusing
    fat = [t for t in report.traces.values() if len(t.members) > 1]
    assert fat and fat[0].k == 2
    for ci, trace in report.traces.items():
        for k in range(4):
            level = set(trace.levels[min(k, len(trace.levels) - 1)])
            assert level == brute_confused_pairs(hom, ci, k, rs)
    import time
    t0 = time.monotonic()
    with pytest.raises(SizeLimitError):
        decompose_efex(hom)
    assert time.monotonic() - t0 < 5.0


def test_efex_stage_kinds_sound():
    alpha = four_element_algebra().hom
    casc = decompose_efex(alpha)
    for st in casc.stages:
        if st.kind == U1_STAGE:
            assert st.target.H.names == ("0", "inf")
            assert st.target.V.size == 2
        else:
            constants = {st.target.V.names.index("cinf"),
                         st.target.V.names.index("c0")}
            assert set(st.letters.values()) <= constants


def test_cascade_evaluator_protocol():
    """eval() decodes the int state that the protocol computes, and that
    is the state of the tuple reference."""
    alpha = four_element_algebra().hom
    casc = decompose_efex(alpha)
    ref = TupleCascade(casc)
    rng = random.Random(43)
    for _ in range(30):
        s = random_forest(rng, ("a", "b"), 3, 2)
        assert casc.eval(s) == casc.decode(evaluate(casc, s)) == evaluate(ref, s)


def _copy(casc, stages=None, cap=None):
    """A cascade built with the given stages (default: all) at once."""
    out = Cascade(casc.alphabet, cap or casc.max_size)
    for st in casc.stages if stages is None else stages:
        out.append(st)
    return out


def _closes(closure):
    """The closure's result, or the phase and cap it is refused at."""
    try:
        return closure()
    except SizeLimitError as err:
        return err.what, err.limit


def _check_tuple_reference(casc, hom, rng):
    """Bit-field cascade against the tuple reference: reachable states in
    order, joint images in order, the factoring verdict and witness, the
    factor map, and refusal or not at caps around both closures."""
    ref = TupleCascade(casc)
    states = casc.reachable_states()
    assert states == ref.reachable_states()
    pairs = casc.joint_image(hom)
    assert pairs == ref.joint_image(hom)
    verdict = casc.factors(hom)
    assert verdict == ref.factors(hom)
    if verdict[0]:
        assert casc.factor_map(hom) == ref.factor_map(hom)
    n = hom.target.H.size
    least = -(-len(pairs) // n)  # the least cap whose joint cap holds them
    for cap in {len(states) - 1, len(states), rng.randint(1, len(states)),
                least - 1, least} - {0}:
        bits = _copy(casc, cap=cap)
        tuples = TupleCascade(bits)
        assert (_closes(bits.reachable_states)
                == _closes(tuples.reachable_states))
        assert (_closes(lambda: bits.joint_image(hom))
                == _closes(lambda: tuples.joint_image(hom)))


def test_bit_cascades_match_the_tuple_reference():
    """On decompositions of seeded homs and of the census, and on random
    two-stage cascades over random semilattices, the bit-field protocol
    gives what the tuple protocol gives."""
    rng = random.Random(2028)
    counts = {"ef": 0, "efex": 0, "random": 0, "tensor": 0, "witnesses": 0}
    for alpha in _ef_homs()[::3]:
        _check_tuple_reference(decompose_ef(alpha), alpha, rng)
        counts["ef"] += 1
    tables = {}
    for phi in census_formulas(5, (logic.EF, logic.EX)):
        alpha = syntactic(logic.to_recognizer(phi, ("a", "b")))[0].hom
        tables.setdefault((alpha.target.H.op,
                           tuple(alpha.row(a) for a in ("a", "b"))), alpha)
    for alpha in list(tables.values()) + differential_homs()[::4]:
        try:
            casc = decompose_efex(alpha)
        except (NotNonconfusing, SizeLimitError):
            continue
        _check_tuple_reference(casc, alpha, rng)
        counts["efex"] += 1
    for _ in range(40):
        casc = random_cascade(rng, max_h=4)
        first = casc.stages[0]
        hom = Homomorphism(casc.alphabet, first.target,
                           {a: first.letters[(a,)] for a in casc.alphabet})
        _check_tuple_reference(casc, hom, rng)
        counts["random"] += 1
        alpha = random_hom(rng, max_h=4)
        casc = tensor_cascade(alpha, random_tagged_hom(rng, alpha))
        other = random_hom(rng, max_h=4)
        while other.alphabet != casc.alphabet:
            other = random_hom(rng, max_h=4)
        for hom in (alpha, other):
            counts["witnesses"] += not casc.factors(hom)[0]
            _check_tuple_reference(casc, hom, rng)
        counts["tensor"] += 1
    assert counts["ef"] > 60 and counts["efex"] > 90, counts
    assert counts["witnesses"] > 10, counts


def test_letter_steps_survive_appends_closures_and_evals():
    """A cascade grown by append(), with closures, joint images, evals and
    full step checks interleaved at random (eval right after an append
    among them), steps every state as a cascade built with all its stages
    at once does: the memo that append() keeps covers only its stages."""
    rng = random.Random(2029)
    homs = [(decompose_ef, _syn("EF a & EF b & EF c", ("a", "b", "c"))),
            (decompose_efex, _syn("EF(a & EX b) | EF(b & EX a)")),
            (decompose_efex, _syn("EX(EX a)")),
            (decompose_efex, four_element_algebra().hom),
            (decompose_efex, _syn("EF(b & !EX a) & (EF a | EX a)"))]
    actions = {"eval": 0, "close": 0, "joint": 0, "steps": 0, "none": 0,
               "eval after close": 0}
    for decompose, alpha in homs:
        for _ in range(3):
            full = decompose(alpha, 65536)
            grown = Cascade(full.alphabet, full.max_size)
            last = None
            for i, st in enumerate(full.stages):
                grown.append(st)
                action = rng.choice(tuple(actions)[:5])
                if action == "eval" and last == "close":
                    actions["eval after close"] += 1
                actions[action] += 1
                last = action
                if action == "none":
                    continue
                at_once = _copy(full, full.stages[:i + 1])
                if action == "eval":
                    for _ in range(5):
                        s = random_forest(rng, full.alphabet, 4, 3)
                        assert grown.eval(s) == at_once.eval(s), i
                elif action == "close":
                    assert grown.reachable_states() == at_once.reachable_states()
                elif action == "joint":
                    assert grown.joint_image(alpha) == at_once.joint_image(alpha)
                else:
                    for x in map(at_once.encode, at_once.reachable_states()):
                        for a in full.alphabet:
                            assert (grown.letter_action(a, x)
                                    == at_once.letter_action(a, x)), i
            assert grown.reachable_states() == full.reachable_states()
            assert grown.factors(alpha) == (True, None)
    assert min(actions.values()) > 5, actions


def test_append_refuses_a_stage_whose_h_is_not_a_semilattice():
    """The bit code needs an idempotent, commutative H: a saturating sum
    counter, or a left-zero sum, is refused."""
    counter = generated(("a", "b"), range(4),
                        lambda a, x: min(x + 1, 3) if a == "a" else x,
                        lambda x, y: min(x + y, 3), 0)
    left = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]    # x + y = x off the identity
    left_zero = generated(("a", "b"), range(3),
                          lambda a, x: {"a": 1, "b": 2}[a] if x == 0 else x,
                          lambda x, y: left[x][y], 0)
    for alpha in (counter, left_zero):
        casc = Cascade(alpha.alphabet)
        with pytest.raises(StructuralError,
                           match="cascade stage 0: H is not idempotent and commutative"):
            casc.append(Stage(OTHER_STAGE, alpha.target, 0,
                              {(a,): alpha.letter(a) for a in casc.alphabet}))
        assert len(casc) == 0
    tagged = _tagged_alphabet(counter)
    with pytest.raises(StructuralError):
        tensor_cascade(counter, _counter(tagged, set(tagged), 3))


def test_decompositions_close_no_vertical_monoid(vertical_closures):
    """Quotients are generated algebras, and a negative EF certificate
    names its generator, so no decomposition closes V."""
    import os

    from forestalg.cli import _load_recognizer

    calls = vertical_closures
    chain4 = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                          "chain4.fa")
    instances = (("EF a & EF b", _syn("EF a & EF b"), 0),
                 ("EX(EX a)", _syn("EX(EX a)"), 1),
                 ("chain4", syntactic(_load_recognizer(chain4))[0].hom, 1))
    for name, alpha, refused in instances:
        calls.clear()
        if refused:
            with pytest.raises(NotEFAlgebra):
                decompose_ef(alpha)
        else:
            assert decompose_ef(alpha).factors(alpha)[0]
        assert calls == [], name
        assert decompose_efex(alpha).factors(alpha)[0]
        assert calls == [], name
