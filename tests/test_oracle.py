import random

import pytest

from forestalg import terms
from forestalg.decide import nonconfusion
from forestalg.defk import simk_key
from forestalg.errors import SizeLimitError
from forestalg.hom import image_restrict, relabeled
from forestalg.oracle import (brute_confused_pairs, enumerate_forests,
                              key_value_sets, random_forest)
from forestalg.reach import class_tag_names, reachability

from helpers import (four_element_algebra, random_hom, tagged_class_closure,
                     u2_example_recognizer)


def test_tagged_closure_level_zero():
    hom = image_restrict(u2_example_recognizer().hom)
    closure = tagged_class_closure(hom, 0, 0)
    assert closure.pairs == frozenset({(0, ()), (1, ())})


def test_tagged_closure_u2_confused_pair():
    hom = image_restrict(u2_example_recognizer().hom)
    closure = tagged_class_closure(hom, 0, 1)
    by_key = closure.values_by_key()
    key = terms.parse_forest("(a,inf)")
    assert by_key[key] == {0, 1}


def test_tagged_closure_four_element_no_collisions():
    # the key universe is exponential in k, so the literal closure is only
    # run at level 1; deeper levels go through the value-set recursion
    hom = four_element_algebra().hom
    rs = reachability(hom.target)
    for ci in range(len(rs.classes)):
        members = set(rs.classes[ci])
        for k in (0, 1):
            closure = tagged_class_closure(hom, ci, k, rs)
            for values in closure.values_by_key().values():
                assert len(values & members) <= 1


def test_tagged_closure_matches_direct_relabeling():
    hom = image_restrict(u2_example_recognizer().hom)
    rs = reachability(hom.target)
    tags = class_tag_names(hom, 0, rs)
    closure = tagged_class_closure(hom, 0, 1, rs)
    rng = random.Random(17)
    for _ in range(200):
        s = random_forest(rng, hom.alphabet, 3, 2)
        pair = (hom.eval(s), simk_key(relabeled(s, hom, tags), 1).key)
        assert pair in closure.pairs


def test_tagged_closure_single_letter_level_two():
    from forestalg.algebra import u1
    from forestalg.hom import Homomorphism

    alg = u1()
    hom = Homomorphism(("a",), alg, {"a": 1})  # a acts as constant inf
    hom = image_restrict(hom)
    closure = tagged_class_closure(hom, 0, 2)
    keys = {terms.print_forest(key) for _, key in closure.pairs}
    assert "(a,inf)((a,inf))" in keys


def test_tagged_closure_values_cover_image():
    hom = four_element_algebra().hom
    closure = tagged_class_closure(hom, 0, 1)
    assert {h for h, _ in closure.pairs} == set(range(4))


def test_tagged_closure_cap():
    hom = image_restrict(u2_example_recognizer().hom)
    with pytest.raises(SizeLimitError):
        tagged_class_closure(hom, 0, 1, max_pairs=6)


def test_brute_confused_pairs_cap_names_phase():
    hom = image_restrict(u2_example_recognizer().hom)
    assert brute_confused_pairs(hom, 0, 2, max_pairs=4) == {(0, 1), (1, 0)}
    with pytest.raises(SizeLimitError) as exc:
        brute_confused_pairs(hom, 0, 1, max_pairs=3)
    assert exc.value.what == "confused-pair closure"
    with pytest.raises(SizeLimitError) as exc:
        brute_confused_pairs(hom, 0, 2, max_pairs=2)
    assert exc.value.what == "confused-pair value sets"


def test_brute_confused_pairs_fixtures():
    hom = image_restrict(u2_example_recognizer().hom)
    assert brute_confused_pairs(hom, 0, 1) == {(0, 1), (1, 0)}
    chain = four_element_algebra().hom
    rs = reachability(chain.target)
    for ci in range(len(rs.classes)):
        for k in (0, 1, 2, 3):
            assert brute_confused_pairs(chain, ci, k, rs) == set()


def test_brute_matches_tagged_closure_small():
    rng = random.Random(18)
    checked = 0
    for _ in range(12):
        hom = random_hom(rng, max_h=4, max_letters=2)
        rs = reachability(hom.target)
        for ci in range(len(rs.classes)):
            members = set(rs.classes[ci])
            for k in (0, 1):
                try:
                    closure = tagged_class_closure(hom, ci, k, rs,
                                                   max_pairs=5000)
                except SizeLimitError:
                    continue
                direct = set()
                for values in closure.values_by_key().values():
                    inside = sorted(values & members)
                    direct |= {(h, g) for h in inside for g in inside if h != g}
                assert direct == brute_confused_pairs(hom, ci, k, rs)
                checked += 1
    assert checked > 20


def test_brute_agrees_with_fixpoint_on_randoms():
    rng = random.Random(19)
    for _ in range(15):
        hom = random_hom(rng)
        rs = reachability(hom.target)
        report = nonconfusion(hom, rs)
        for ci, trace in report.traces.items():
            for k in range(0, 4):
                level = set(trace.levels[min(k, len(trace.levels) - 1)])
                assert level == brute_confused_pairs(hom, ci, k, rs)


def test_key_value_sets_match_tagged_closure():
    hom = image_restrict(u2_example_recognizer().hom)
    rs = reachability(hom.target)
    closure = tagged_class_closure(hom, 0, 1, rs)
    by_key = closure.values_by_key()
    # key_value_sets takes canonical keys, which the closure yields
    assert all(key == terms.ic_normalize(key) for key in by_key)
    values = key_value_sets(hom, 0, 1, list(by_key), rs)
    for key, want in by_key.items():
        assert values[key] == frozenset(want)


def test_key_value_sets_against_enumeration():
    hom = four_element_algebra().hom
    rs = reachability(hom.target)
    sub = rs.subminimal[0]
    tags = class_tag_names(hom, sub, rs)
    observed = {}
    for s in enumerate_forests(("a", "b"), 3, 2):
        key = simk_key(relabeled(s, hom, tags), 2).key
        observed.setdefault(key, set()).add(hom.eval(s))
    assert all(key == terms.ic_normalize(key) for key in observed)
    exact = key_value_sets(hom, sub, 2, list(observed), rs)
    for key, seen in observed.items():
        assert seen <= exact[key]


def test_enumerate_forests_examples():
    assert list(enumerate_forests(("a",), 1, 1)) == [(), (("a", ()),)]
    two = list(enumerate_forests(("a",), 2, 1))
    assert terms.parse_forest("a(a)") in two
    counts = [len(list(enumerate_forests(("a", "b"), d, 2)))
              for d in (0, 1, 2, 3)]
    assert counts == sorted(counts)
    widths = [len(list(enumerate_forests(("a", "b"), 2, w))) for w in (1, 2, 3)]
    assert widths == sorted(widths)


def test_enumerate_forests_canonical_and_distinct():
    seen = list(enumerate_forests(("a", "b"), 3, 2))
    assert len(seen) == len(set(seen))
    for f in seen:
        assert terms.ic_normalize(f) == f
