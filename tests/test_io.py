import pytest

from forestalg import io
from forestalg.algebra import u1, u2
from forestalg.errors import ParseError, StructuralError
from forestalg.hom import Homomorphism, Recognizer

from helpers import BAD_LETTER_FILES, BAD_SECTION_FILES, four_element_algebra


def test_round_trip_bit_exact():
    rec = four_element_algebra()
    text = io.print_algebra(rec.hom.target, letters=dict(rec.hom.assign),
                            accept=rec.accept)
    alg, letters, accept = io.parse_algebra(text)
    assert io.print_algebra(alg, letters=letters, accept=accept) == text
    assert alg.check_axioms() == []
    assert accept == rec.accept
    assert letters == rec.hom.assign


def test_round_trip_without_optional_sections():
    text = io.print_algebra(u1())
    alg, letters, accept = io.parse_algebra(text)
    assert letters is None and accept is None
    assert io.print_algebra(alg) == text


def test_comments_and_whitespace_ignored():
    text = io.print_algebra(u2())
    noisy = "# header\n" + text.replace("act:", "act:   # the action table")
    alg, _, _ = io.parse_algebra(noisy)
    assert io.print_algebra(alg) == text


def test_parse_errors():
    with pytest.raises(ParseError):
        io.parse_algebra("plus:\n")
    with pytest.raises(ParseError):
        io.parse_algebra("H: 0 inf\nplus:\n0 inf inf\n")  # truncated table
    with pytest.raises(ParseError):
        io.parse_algebra(io.print_algebra(u1()).replace("inf inf\n", "inf zz\n", 1))


def test_identity_names_required():
    text = io.print_algebra(u1()).replace("H: 0 inf", "H: z inf")
    text = text.replace("0 inf\ninf inf", "z inf\ninf inf")
    with pytest.raises((StructuralError, ParseError)):
        io.parse_algebra(text)


def _recognizer_text():
    rec = four_element_algebra()
    return rec, io.print_recognizer(rec)


def test_recognizer_round_trip_bit_exact():
    rec, text = _recognizer_text()
    assert "V:" not in text and "letter: a\n" in text
    alg, letters, accept = io.parse_algebra(text)
    assert "V" not in vars(alg)  # loading builds no vertical monoid
    hom = Homomorphism(tuple(sorted(letters)), alg, letters)
    assert io.print_recognizer(Recognizer(hom, accept)) == text
    assert accept == rec.accept
    assert {a: hom.row(a) for a in "ab"} == {a: rec.hom.row(a) for a in "ab"}
    assert alg.check_axioms() == []
    assert "V" not in vars(alg)
    # the algebra form of what was loaded is what the tables print
    assert (io.print_algebra(alg, letters=letters, accept=accept)
            == io.print_algebra(rec.hom.target, letters=dict(rec.hom.assign),
                                accept=rec.accept))


def test_recognizer_comments_and_whitespace_ignored():
    _, text = _recognizer_text()
    noisy = "# header\n" + text.replace("letter: b\n", "letter:   b   # second\n\n")
    alg, letters, accept = io.parse_algebra(noisy)
    hom = Homomorphism(tuple(sorted(letters)), alg, letters)
    assert io.print_recognizer(Recognizer(hom, accept)) == text


def test_recognizer_without_letters_round_trips():
    text = "H: 0\nplus:\n0\naccept:\n"  # the syntactic recognizer of a letterless file
    alg, letters, accept = io.parse_algebra(text)
    assert letters == {} and accept == frozenset()
    assert io.print_recognizer(Recognizer(Homomorphism((), alg, {}), accept)) == text


@pytest.mark.parametrize("case", sorted(BAD_LETTER_FILES))
def test_bad_letters_and_rows_rejected(case):
    with pytest.raises((ParseError, StructuralError)):
        io.parse_algebra(BAD_LETTER_FILES[case])


@pytest.mark.parametrize("case", sorted(BAD_SECTION_FILES))
def test_bad_sections_rejected(case):
    error, text = BAD_SECTION_FILES[case]
    with pytest.raises(error):
        io.parse_algebra(text)


def test_unwritable_letter_refused():
    rec = four_element_algebra()
    hom = Homomorphism(("a b",), rec.hom.target, {"a b": rec.hom.letter("a")})
    with pytest.raises(StructuralError):
        io.print_recognizer(Recognizer(hom, rec.accept))
