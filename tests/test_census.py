"""The formula census: every forest formula of at most five nodes over
{a, b} is decided definable in its own fragment, and on each distinct
syntactic table the EX degree matches the full-chain reference and the
pair fixpoint matches the all-partners reference.  The syntactic quotient
of each table's first formula matches the V-signature reference, and
each table factors into a cascade or is refused in a depth-k carrier.

The algebra census: every letter row on every small lattice H, with every
accepting set; on each distinct syntactic table reachability matches the
full-V reference, the three verdicts are consistent, and each positive
answer decomposes or is refused at a size cap."""

import itertools
import re
from collections import Counter

from forestalg import logic
from forestalg.algebra import generated_algebra, horizontal_monoid
from forestalg.decide import is_ef_algebra, nonconfusion
from forestalg.decompose import decompose_ef, decompose_efex
from forestalg.defk import definiteness_degree, ex_definable_by_idempotents
from forestalg.errors import SizeLimitError
from forestalg.hom import Homomorphism, Recognizer, syntactic
from forestalg.reach import reachability

from helpers import (census_formulas, census_table_homs, printed_recognizer,
                     reference_definiteness_degree, reference_nonconfusion,
                     reference_reachability, reference_syntactic)

LETTERS = ("a", "b")


def _table(syn, letters=LETTERS):
    """A syntactic recognizer as its sum table, letter rows and accepting set."""
    return (syn.hom.target.H.op, tuple(syn.hom.row(a) for a in letters),
            syn.accept)


def _fixpoint(report):
    """A nonconfusion report as its verdict, parameter and every class's
    levels, verdict, k and records in order."""
    return (report.nonconfusing, report.parameter,
            [(ci, t.levels, t.verdict, t.k, [list(d.items()) for d in t.derivations])
             for ci, t in report.traces.items()])


def test_census_formulas_are_definable_in_their_fragment():
    ef, ex, efex = (census_formulas(5, modalities) for modalities in
                    ((logic.EF,), (logic.EX,), (logic.EF, logic.EX)))
    # pinned, so that a broken enumerator fails
    assert (len(ef), len(ex), len(efex)) == (345, 345, 1017)
    raw = {logic.print_formula(phi): logic.to_recognizer(phi, LETTERS)
           for phi in efex}
    syn = {text: syntactic(rec)[0] for text, rec in raw.items()}
    tables = {_table(s): s.hom for s in syn.values()}
    assert len(tables) == 87
    first = {}  # each table's first formula, in census order
    for text, s in syn.items():
        first.setdefault(_table(s), text)
    for text in first.values():
        ref = reference_syntactic(raw[text])
        assert printed_recognizer(syn[text]) == printed_recognizer(ref), text
        assert syn[text].accept == ref.accept, text
    degrees = {t: definiteness_degree(hom) for t, hom in tables.items()}
    assert degrees == {t: reference_definiteness_degree(hom)
                       for t, hom in tables.items()}
    assert Counter(degrees.values()) == {0: 2, 1: 7, 2: 24, 3: 12, 4: 3,
                                         None: 39}
    assert all(is_ef_algebra(syn[logic.print_formula(phi)].hom.target)[0]
               for phi in ef)
    assert all(degrees[_table(syn[logic.print_formula(phi)])] is not None
               for phi in ex)
    assert all(nonconfusion(hom).nonconfusing for hom in tables.values())
    assert all(_fixpoint(nonconfusion(hom)) == _fixpoint(reference_nonconfusion(hom))
               for hom in tables.values())


def test_census_tables_factor_or_refuse_in_a_depth_k_carrier():
    """decompose_efex returns a cascade that it has checked to factor the
    hom, or refuses in a depth-k definite level carrier.  The refusal
    count is an upper bound: cascades that fit can only lower it."""
    homs = census_table_homs(5, (logic.EF, logic.EX))
    assert len(homs) == 87
    refused = Counter()
    for hom in homs:
        try:
            casc = decompose_efex(hom)
        except SizeLimitError as exc:
            refused[exc.what] += 1
        else:
            assert casc.factors(hom) == (True, None)
    assert sum(refused.values()) <= 20, refused
    assert all(re.fullmatch(r"depth-[1-9]\d* definite level carrier", what)
               for what in refused), refused


# every lattice of at most four elements, as union-closed bit masks from 0:
# the one-element, two-element and three-element chains, the four-element
# chain and the diamond
LATTICES = ((0,), (0, 1), (0, 1, 3), (0, 1, 3, 7), (0, 1, 2, 3))


def _algebra_census(letters, max_h):
    """Each distinct syntactic table, with its hom, of the recognizers on a
    lattice H of at most ``max_h`` elements whose letters act by any maps
    H -> H, V their closure, under any accepting set."""
    tables = {}
    for masks in (masks for masks in LATTICES if len(masks) <= max_h):
        n = len(masks)
        H = horizontal_monoid([[masks.index(x | y) for y in masks]
                               for x in masks], 0)
        maps = list(itertools.product(range(n), repeat=n))
        for rows in itertools.product(maps, repeat=len(letters)):
            alg, genmap = generated_algebra(H, dict(zip(letters, rows)))
            hom = Homomorphism(letters, alg, genmap)
            for accept in itertools.product((False, True), repeat=n):
                syn = syntactic(Recognizer(hom, itertools.compress(
                    range(n), accept)))[0]
                tables.setdefault(_table(syn, letters), syn.hom)
    return tables


def test_algebra_census_verdicts_agree_and_positive_answers_decompose():
    """decompose_ef and decompose_efex check that the cascade factors the
    hom before returning it."""
    verdicts = Counter()
    for letters, max_h, size in ((LETTERS, 3, 2204), (("a",), 4, 782)):
        tables = _algebra_census(letters, max_h)
        assert len(tables) == size  # pinned, so that a broken enumerator fails
        for hom in tables.values():
            alg = hom.target
            rs = reachability(alg)
            classes, order, low, subminimal = reference_reachability(alg)
            m = len(classes)
            assert (list(rs.classes), rs.min_class, rs.subminimal) == (
                classes, low, subminimal)
            assert [[rs.leq(ci, cj) for cj in range(m)]
                    for ci in range(m)] == order
            ef = is_ef_algebra(alg)[0]
            ex = definiteness_degree(hom) is not None
            efex = nonconfusion(hom, rs).nonconfusing
            assert efex or not (ef or ex)
            assert ex_definable_by_idempotents(hom) == ex
            verdicts[ef, ex, efex] += 1
            for positive, decompose in ((ef, decompose_ef), (efex, decompose_efex)):
                if positive:
                    try:
                        decompose(hom)
                    except SizeLimitError:
                        pass
    assert verdicts == {(False, False, False): 2646, (False, True, True): 148,
                        (False, False, True): 100, (True, False, True): 56,
                        (True, True, True): 36}
