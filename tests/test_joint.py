import inspect
import random
from operator import or_

import pytest

from forestalg import defk, logic, oracle, terms
from forestalg.decompose import tensor_cascade
from forestalg.defk import KdefEvaluator, alpha1, free_kdefinite
from forestalg.errors import SizeLimitError
from forestalg.hom import reachable_pairs
from forestalg.joint import TensorEvaluator, closure, determines, image
from forestalg.reach import class_tag_names, reachability

from helpers import (all_partners_closure, census_formulas,
                     differential_homs, random_cascade, random_hom,
                     random_tagged_hom, reference_closure,
                     tagged_class_closure)


def test_closure_discovery_order():
    # first in, first out; letters in alphabet order before sums
    got = closure((1,), (2, 3), lambda a, x: a * x if a * x < 20 else x, None)
    assert list(got) == [1, 2, 3, 4, 6, 9, 8, 12, 18, 16]
    assert got == {x: i for i, x in enumerate(got)}
    # sums pair the element with those held when its sums start: pairing
    # with elements found during the sums, or summing before the letter
    # steps, would put 3 before 5, or 2 before 4
    got = closure((0,), ("a",),
                  lambda a, x: 1 if x == 0 else x + 3 if x < 4 else x,
                  lambda x, z: min(x + z, 4))
    assert list(got) == [0, 1, 4, 2, 5, 3, 6]


def test_closure_sums_each_unordered_pair_once():
    """The 256 unions of 8 bits: the same dict, order and indices included,
    as summing every pair both ways, with each unordered pair summed once."""
    bits = [1 << i for i in range(8)]
    summed = []

    def plus(x, z):
        summed.append((x, z))
        return x | z

    got = closure((0,), bits, lambda a, x: x | a, plus)
    want = all_partners_closure((0,), bits, lambda a, x: x | a, or_)
    assert list(got.items()) == list(want.items())
    assert len(got) == 256
    assert len(summed) <= 256 * 257 // 2
    assert len({frozenset(pair) for pair in summed}) == len(summed)
    for cap in (1, 9, 255):
        for fn in (closure, all_partners_closure):
            with pytest.raises(SizeLimitError):
                fn((0,), bits, lambda a, x: x | a, or_, cap)
    assert len(closure((0,), bits, lambda a, x: x | a, or_, 256)) == 256


def _compared_with_all_partners(monkeypatch, module, sizes):
    """Make ``module`` call a closure that checks each result against the
    all-partners closure, order and indices included."""
    def checked(*args, **kwargs):
        got = closure(*args, **kwargs)
        want = all_partners_closure(*args, **kwargs)
        assert list(got.items()) == list(want.items())
        sizes.append(len(got))
        return got

    monkeypatch.setattr(module, "closure", checked)


def test_summing_closure_callers_match_the_all_partners_closure(monkeypatch):
    sizes = {}
    for module in (logic, defk, oracle):
        _compared_with_all_partners(monkeypatch, module,
                                    sizes.setdefault(module.__name__, []))
    for phi in census_formulas(5, (logic.EF, logic.EX)):
        logic.to_recognizer(phi, ("a", "b"))
    for k in (1, 2):
        free_kdefinite(("a", "b"), k)
    rng = random.Random(18)
    for _ in range(12):
        hom = random_hom(rng, max_h=4, max_letters=2)
        rs = reachability(hom.target)
        for ci in range(len(rs.classes)):
            oracle.brute_confused_pairs(hom, ci, 2, rs)
    assert len(sizes["forestalg.logic"]) == 1017
    assert max(sizes["forestalg.logic"]) > 8
    assert sizes["forestalg.defk"] == [4, 256]
    assert len(sizes["forestalg.oracle"]) > 100


def _logged(log, step, kind):
    """``step`` that appends (kind, arguments, result) to ``log``."""
    def logged(*args):
        y = step(*args)
        log.append((kind, args, y))
        return y
    return logged


def _raise_point(full, starts, order, cap):
    """The calls made before raising at cap: the full run's calls up to
    the one that found ``order[cap]``, and none if it was a start."""
    if order[cap] in starts:
        return []
    return full[:next(i for i, call in enumerate(full)
                      if call[2] == order[cap]) + 1]


def _capped_closure_calls(args, cap):
    starts, alphabet, act, plus = args[:4]
    log = []
    got = None
    try:
        got = closure(starts, alphabet, _logged(log, act, "act"),
                      plus and _logged(log, plus, "plus"), cap)
    except SizeLimitError:
        pass
    return log, got


def test_closure_raises_at_the_all_partners_element_for_every_cap(monkeypatch):
    """On its summing callers, closure capped below |S| raises on element
    ``cap`` (from 0) of the all-partners order, having made exactly the
    calls that an uncapped run makes until it finds that element."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)

    for module in (logic, defk, oracle):
        monkeypatch.setattr(module, "closure", recorded)
    for phi in census_formulas(5, (logic.EF, logic.EX)):
        logic.to_recognizer(phi, ("a", "b"))
    for k in (1, 2):
        free_kdefinite(("a", "b"), k)
    rng = random.Random(21)
    for _ in range(4):
        hom = random_hom(rng, max_h=4, max_letters=2)
        rs = reachability(hom.target)
        for ci in range(len(rs.classes)):
            oracle.brute_confused_pairs(hom, ci, 1, rs)
    summing = [args for args in calls if args[3] is not None]
    assert len(summing) > 1000
    checked = 0
    for args in summing:
        order = list(all_partners_closure(*args[:4]))
        full, got = _capped_closure_calls(args, None)
        assert list(got) == order
        for cap in range(1, len(order) + 1):
            log, got = _capped_closure_calls(args, cap)
            if cap == len(order):
                assert list(got) == order
            else:
                assert got is None
                assert log == _raise_point(full, set(args[0]), order, cap)
                checked += 1
    assert checked > 2000


class _LoggedEvaluator:
    def __init__(self, ev, log):
        self.zero_state = ev.zero_state
        self.letter_action = _logged(log, ev.letter_action, "act")
        self.plus_state = _logged(log, ev.plus_state, "plus")


def test_image_raises_at_the_same_point_for_every_cap():
    """image capped below |S| raises on its value ``cap`` (from 0), having
    made exactly the calls that an uncapped run makes until it finds it."""
    rng = random.Random(22)
    evs = [(hom, hom.alphabet) for hom in differential_homs()]
    evs += [(casc, casc.alphabet)
            for casc in (random_cascade(rng, max_h=4) for _ in range(10))]
    evs.append((KdefEvaluator(2), ("a", "b")))
    checked = 0
    for ev, alphabet in evs:
        full = []
        order = image(_LoggedEvaluator(ev, full), alphabet)
        for cap in range(1, len(order)):
            log = []
            with pytest.raises(SizeLimitError):
                image(_LoggedEvaluator(ev, log), alphabet, cap)
            assert log == _raise_point(full, {ev.zero_state()}, order, cap)
            checked += 1
        assert image(ev, alphabet, len(order)) == order
    assert checked > 600


def test_to_recognizer_records_each_letter_step_in_discovery_order(monkeypatch):
    """The steps that to_recognizer records are the letter steps of the
    all-partners loop, in its order: each mask's letters in turn."""
    acts = []

    def recorded(*args, **kwargs):
        acts.append(args[2])
        return closure(*args, **kwargs)

    monkeypatch.setattr(logic, "closure", recorded)
    for phi in census_formulas(5, (logic.EF, logic.EX)):
        logic.to_recognizer(phi, ("a", "b"))
        step = acts.pop()
        steps = inspect.getclosurevars(step).nonlocals["steps"]
        want = {}

        def replayed(a, x):
            want[a, x] = step(a, x)
            return want[a, x]

        all_partners_closure((0,), ("a", "b"), replayed, or_)
        assert list(steps.items()) == list(want.items())


def test_closure_cap_raises_with_the_callers_phase():
    with pytest.raises(SizeLimitError) as info:
        closure((0,), (1,), lambda a, x: x + a, None, 10, "counting phase")
    assert info.value.what == "counting phase"
    assert info.value.limit == 10


def test_closure_never_holds_more_than_cap():
    # the chain 0, 1, 2, ... is processed in order, so an element is only
    # ever acted on while it is held
    acted = []

    def step(a, x):
        acted.append(x)
        return x + a

    with pytest.raises(SizeLimitError):
        closure((0,), (1,), step, None, 10, "chain")
    assert acted == list(range(10))
    sums = closure((1, 2, 4, 8), (), None, lambda x, z: x | z)
    assert len(sums) == 15
    for cap in range(4, 15):
        with pytest.raises(SizeLimitError):
            closure((1, 2, 4, 8), (), None, lambda x, z: x | z, cap, "sums")


def test_closure_of_exactly_cap_elements_succeeds():
    assert len(closure((0,), (1,), lambda a, x: min(x + a, 9), None, 10)) == 10
    assert len(closure((1, 2, 4, 8), (), None, lambda x, z: x | z, 15)) == 15
    with pytest.raises(SizeLimitError):
        closure((0, 1, 2), (), None, None, 2, "starts")


def test_determines_function_and_least_conflict():
    pairs = [(3, "c"), (1, "a"), (2, "b"), (1, "a")]
    assert determines(pairs) == ({3: "c", 1: "a", 2: "b"}, None)
    pairs = [(5, 9), (4, 7), (5, 1), (4, 3), (4, 5), (2, 0)]
    assert determines(pairs) == (None, (4, 3, 5))


def test_reachable_pairs_match_reference():
    rng = random.Random(31)
    for _ in range(40):
        alpha = random_hom(rng)
        beta = random_hom(rng)
        if alpha.alphabet != beta.alphabet:
            continue
        A, B = alpha.target, beta.target
        want = reference_closure(
            (A.zero, B.zero), alpha.alphabet,
            lambda a, p: (A.act(alpha.letter(a), p[0]), B.act(beta.letter(a), p[1])),
            lambda p, q: (A.plus(p[0], q[0]), B.plus(p[1], q[1])))
        assert reachable_pairs(alpha, beta) == want


def _reference_cascade(casc):
    """(zero, letter step, sum) of a cascade, from each stage's target."""
    stages = casc.stages

    def act(a, state):
        return tuple(st.target.act(st.letters[(a,) + state[:st.prefix_len]],
                                   state[i])
                     for i, st in enumerate(stages))

    def plus(x, y):
        return tuple(st.target.plus(x[i], y[i]) for i, st in enumerate(stages))

    return tuple(st.target.zero for st in stages), act, plus


def _check_against_reference(casc):
    """The cascade's int steps, decoded, are the stage targets' steps on
    tuple states."""
    zero, act, plus = _reference_cascade(casc)
    want = reference_closure(zero, casc.alphabet, act, plus)
    assert casc.reachable_states() == sorted(want)
    code = {x: casc.encode(x) for x in want}
    assert casc.encode(zero) == casc.zero_state() == 0
    for x in want:
        assert casc.decode(code[x]) == x
        for a in casc.alphabet:
            assert casc.decode(casc.letter_action(a, code[x])) == act(a, x)
        for y in want:
            assert casc.decode(casc.plus_state(code[x], code[y])) == plus(x, y)


def test_cascade_states_match_reference():
    rng = random.Random(32)
    for _ in range(25):
        # second-stage letters are arbitrary vertical indices
        _check_against_reference(random_cascade(rng, max_h=4))
    for _ in range(25):
        # generated algebras on both stages; letters are generator indices
        alpha = random_hom(rng, max_h=4)
        _check_against_reference(
            tensor_cascade(alpha, random_tagged_hom(rng, alpha)))


def test_tagged_class_closure_matches_reference():
    # depth 2 is left out: over tagged letters its key universe takes
    # minutes to close already at |H| = 3
    rng = random.Random(33)
    for _ in range(20):
        alpha = random_hom(rng, max_h=4)
        alg = alpha.target
        rs = reachability(alg)
        for ci in range(len(rs.classes)):
            tags = class_tag_names(alpha, ci, rs)
            for k in range(2):
                want = reference_closure(
                    (alg.zero, ()), alpha.alphabet,
                    lambda a, p: (
                        alg.act(alpha.letter(a), p[0]),
                        terms.ic_normalize((terms.tree(
                            (a, tags[p[0]]), terms.truncate(p[1], k - 1)),))
                        if k > 0 else ()),
                    lambda p, q: (alg.plus(p[0], q[0]),
                                  terms.ic_normalize(p[1] + q[1])))
                got = tagged_class_closure(alpha, ci, k, rs)
                assert got.pairs == want


def _check_image(ev, alphabet):
    """image() lists the all-partners closure's set once each, and its cap
    refuses exactly the sets larger than the cap."""
    want = set(closure((ev.zero_state(),), alphabet, ev.letter_action,
                       ev.plus_state))
    got = image(ev, alphabet)
    assert len(got) == len(want) and set(got) == want
    with pytest.raises(SizeLimitError) as info:
        image(ev, alphabet, len(want) - 1, "values")
    assert (info.value.what, info.value.limit) == ("values", len(want) - 1)
    assert len(image(ev, alphabet, len(want))) == len(want)


def test_image_matches_the_all_partners_closure_on_homs():
    for hom in differential_homs():
        _check_image(hom, hom.alphabet)


def test_image_matches_the_all_partners_closure_on_cascades():
    rng = random.Random(34)
    for _ in range(25):
        casc = random_cascade(rng, max_h=4)
        _check_image(casc, casc.alphabet)
        alpha = random_hom(rng, max_h=4)
        casc = tensor_cascade(alpha, random_tagged_hom(rng, alpha))
        _check_image(casc, casc.alphabet)


def test_image_matches_the_all_partners_closure_on_depth_k_keys():
    # the 256 depth-2 classes over {a, b}, paired with alpha1 and depth 1
    ab = ("a", "b")
    tensor = TensorEvaluator(
        KdefEvaluator(2), TensorEvaluator(alpha1(ab), KdefEvaluator(1)),
        lambda a, x: a)
    _check_image(tensor, ab)


class _CountingUnions:
    """Letter i is the tree {i}; values are the unions, as 8-bit masks."""

    def __init__(self):
        self.sums = 0

    def zero_state(self):
        return 0

    def letter_action(self, a, x):
        return 1 << a

    def plus_state(self, x, y):
        self.sums += 1
        return x | y


def test_image_sums_each_value_only_with_tree_values():
    ev = _CountingUnions()
    got = image(ev, range(8))
    assert sorted(got) == list(range(256))
    assert ev.sums <= len(got) * 8


def test_free_kdefinite_numbers_keys_in_closure_order():
    ev = KdefEvaluator(2)
    keys = free_kdefinite(("a", "b"), 2)[1].keys
    assert len(keys) == 256
    assert keys == tuple(closure(((),), ("a", "b"), ev.letter_action,
                                 ev.plus_state))
