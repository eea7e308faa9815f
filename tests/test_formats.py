import random
from fractions import Fraction

import pytest

from hermfj.errors import ParseError
from hermfj.ffj import FJFamily, disassemble
from hermfj.field import FieldElement, make_field
from hermfj.formats import (
    HEADER_FIELDS,
    detect,
    read_any,
    read_components,
    read_family,
    read_header,
    read_jacobi,
    read_series,
    write_components,
    write_family,
    write_jacobi,
    write_series,
)
from hermfj.hermitian import delta_classes, enumerate_semi_integral
from hermfj.jacobi import JacobiTable, theta_coeffs, theta_decompose
from hermfj.series import FourierSeries
from util import all_tags, random_component_vector, read_by_lines


def fe(a, b, tag):
    return FieldElement(Fraction(a), Fraction(b), tag)


def sample_series(rng, tag, g=2, trunc=3, dim=1):
    coeffs = {}
    for t in rng.sample(enumerate_semi_integral(g, trunc, tag), 4):
        coeffs[t] = tuple(
            fe(Fraction(rng.randint(-5, 5), rng.randint(1, 2)), 0, tag) for _ in range(dim)
        )
    return FourierSeries(g, 4, tag, trunc, coeffs, dim)


def test_series_round_trip_bit_identical():
    rng = random.Random(111)
    for tag in all_tags():
        f = sample_series(rng, tag)
        text = write_series(f)
        again = read_series(text)
        assert again == f
        assert write_series(again) == text


def test_series_vector_valued_round_trip():
    rng = random.Random(112)
    tag = make_field(-3)
    f = sample_series(rng, tag, dim=3)
    assert read_series(write_series(f)) == f


def test_jacobi_round_trip_bit_identical():
    rng = random.Random(113)
    for tag in all_tags():
        s = rng.choice(delta_classes(1, 2, tag))
        t = theta_coeffs(2, s, 3)
        text = write_jacobi(t)
        again = read_jacobi(text)
        assert again == t
        assert write_jacobi(again) == text


def test_family_round_trip_bit_identical():
    rng = random.Random(114)
    # trace 2 keeps the degree-3 enumeration cheap in every field
    cases = [(make_field(-1), 3)] + [(tag, 2) for tag in all_tags()]
    for tag, trunc in cases:
        f = sample_series(rng, tag, g=3, trunc=trunc)
        for l in (1, 2):
            fam = disassemble(f, l)
            text = write_family(fam)
            again = read_family(text)
            assert again == fam
            assert write_family(again) == text


def test_components_round_trip_bit_identical():
    tag = make_field(-2)
    s = delta_classes(1, 1, tag)[2]
    cases = [theta_decompose(theta_coeffs(1, s, 3))]
    rng = random.Random(115)
    for tag in all_tags():
        for m in (1, 2):
            cases.append(random_component_vector(rng, tag, m, 4))
    for v in cases:
        text = write_components(v)
        again = read_components(text)
        assert again == v
        assert write_components(again) == text


def test_detect_and_read_any():
    rng = random.Random(117)
    tag = make_field(-1)
    f = sample_series(rng, tag)
    assert detect(write_series(f)) == "FJS v1"
    assert read_any(write_series(f)) == f
    with pytest.raises(ParseError):
        detect("BOGUS v9; d=-1")
    with pytest.raises(ParseError):
        detect("")


def test_parse_errors_carry_line_numbers():
    tag = make_field(-1)
    good = write_series(FourierSeries.constant(fe(1, 0, tag), 1, 0, 2))
    bad = good + "t = garbage ; c = 1/1+0/1*w\n"
    with pytest.raises(ParseError) as err:
        read_series(bad)
    assert err.value.line == 3
    with pytest.raises(ParseError):
        read_series("FJS v1; d=-1; g=1; k=0")  # missing header fields
    with pytest.raises(ParseError):
        read_series("FJS v1; d=-5; g=1; k=0; trunc=2; dim=1")  # bad field


def header_outcome(read):
    try:
        return read()
    except ParseError as exc:
        return str(exc)


def test_read_header_agrees_with_the_readers():
    """`read_header` splits off only the first line; its values and errors
    must be those of the reader's header parse over all the lines."""
    from hermfj.formats import _parse_header

    rng = random.Random(77)
    pieces = ["HJF v1", "FJS v1", "; d=-1", "; g=2", "; k=4", "; m=3", "; trunc=5/2",
              "; dim=1", "; l=1", "=", ";", " ", "x", "\n", "\r", "\r\n", "\x0b", "\x0c",
              "\x1c", "\x1e", "(0/1+0/1*w ; 0/1+0/1*w) = 1/1+0/1*w"]
    texts = ["", "\n", "\r\n", "\x0c\n", "HJF v1; d=-1; g=2; k=4; m=3; trunc=5/2; dim=1"]
    texts += ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 12)))
              for _ in range(400)]
    texts += ["HJF v1; d=-1; g=2; k=4; m=3; trunc=5/2; dim=1" + sep + "rest"
              for sep in ("\n", "\r", "\r\n", "\x0b", "\x1d", "")]
    for text in texts:
        for magic in HEADER_FIELDS:
            want = header_outcome(lambda: dict(zip(HEADER_FIELDS[magic],
                                                   _parse_header(text.splitlines(), magic))))
            assert header_outcome(lambda: read_header(text, magic)) == want, (text, magic)


def test_reader_rejects_keys_outside_contract():
    # non-PSD key fails at the value level with a ParseError
    text = "\n".join([
        "FJS v1; d=-1; g=1; k=0; trunc=2; dim=1",
        "t = -1/1+0/1*w ; c = 1/1+0/1*w",
    ]) + "\n"
    with pytest.raises(ParseError):
        read_series(text)


def test_family_and_bundle_malformed_cases():
    with pytest.raises(ParseError):
        read_family("FJFAM v1; d=-1; g=3; l=1; k=8; trunc=4; dim=1\n(x ; y) = z\n")
    with pytest.raises(ParseError):
        read_family("FJFAM v1; d=-1; g=3; l=4; k=8; trunc=4; dim=1\n")  # bad cogenus
    with pytest.raises(ParseError):
        read_components("HJC v1; d=-1; g=1; k=0; m=1; trunc=2; dim=1\n")  # no classes
    with pytest.raises(ParseError):
        read_components(
            "HJC v1; d=-1; g=1; k=0; m=1; trunc=2; dim=1\n"
            "[class 0; rep = 1/3+0/1*w; htrunc = 2]\n"  # rep not dual integral
        )


def test_jacobi_fractional_truncation_round_trip():
    from hermfj.jacobi import series_times_theta, theta_coeffs
    from hermfj.series import FourierSeries
    from hermfj.hermitian import small_rep
    from hermfj.jacobi import shift_matrix
    from fractions import Fraction

    tag = make_field(-3)
    s = delta_classes(1, 2, tag)[4]
    shift = shift_matrix(small_rep(s), 2).trace()
    h = FourierSeries(1, 5, tag, 2, {
        t: (fe(1, 0, tag),) for t in enumerate_semi_integral(1, 2, tag)
    })
    theta = theta_coeffs(2, s, Fraction(2) + shift)
    table = series_times_theta(h, theta)
    assert table.trunc.denominator > 1
    text = write_jacobi(table)
    assert read_jacobi(text) == table
    assert write_jacobi(read_jacobi(text)) == text


T1 = make_field(-1)
ONE_REC = "1/1+0/1*w ; 0/1+0/1*w) = 1/1+0/1*w\n"
HJC_THETA = write_components(theta_decompose(theta_coeffs(1, delta_classes(1, 1, T1)[0], 3)))

#: a header value that a public constructor rejects: the reader, a file
#: with that value, and the constructor on the same header values
HEADER_VALUE_CASES = {
    "FJS g=0": (read_series, "FJS v1; d=-1; g=0; k=0; trunc=2; dim=1\n"
                "t = 1/1+0/1*w ; c = 1/1+0/1*w\n", lambda: FourierSeries(0, 0, T1, 2, {})),
    "FJS dim=0": (read_series, "FJS v1; d=-1; g=1; k=0; trunc=2; dim=0\n"
                  "t = 1/1+0/1*w ; c = 1/1+0/1*w\n", lambda: FourierSeries(1, 0, T1, 2, {}, 0)),
    "HJF g=0": (read_jacobi, "HJF v1; d=-1; g=0; k=1; m=2; trunc=3; dim=1\n(" + ONE_REC,
                lambda: JacobiTable(0, 1, 2, T1, 3, {})),
    "HJF m=-1": (read_jacobi, "HJF v1; d=-1; g=1; k=1; m=-1; trunc=3; dim=1\n(" + ONE_REC,
                 lambda: JacobiTable(1, 1, -1, T1, 3, {})),
    "FJFAM l=0": (read_family, "FJFAM v1; d=-1; g=2; l=0; k=4; trunc=3; dim=1\n"
                  "[index m = 1/1+0/1*w]\n(" + ONE_REC, lambda: FJFamily(2, 0, 4, T1, 3, {})),
    "FJFAM l=g": (read_family, "FJFAM v1; d=-1; g=3; l=3; k=4; trunc=3; dim=1\n"
                  "[index m = 1/1+0/1*w]\n(" + ONE_REC, lambda: FJFamily(3, 3, 4, T1, 3, {})),
    "HJC dim=0": (read_components, HJC_THETA.replace("dim=1", "dim=0", 1),
                  lambda: FourierSeries(1, 0, T1, 3, {}, 0, semi_integral=False)),
    "HJC g=0": (read_components, HJC_THETA.replace("g=1", "g=0", 1),
                lambda: FourierSeries(0, 0, T1, 3, {}, semi_integral=False)),
}


@pytest.mark.parametrize("case", sorted(HEADER_VALUE_CASES))
def test_header_value_fails_at_line_1_with_the_constructor_message(case):
    read, text, construct = HEADER_VALUE_CASES[case]
    with pytest.raises(ValueError) as want:
        construct()
    with pytest.raises(ParseError) as err:
        read(text)
    assert err.value.line == 1
    assert str(err.value) == "line 1: %s" % want.value


def test_indented_records_read_alike_in_every_format():
    rng = random.Random(118)
    texts = [
        write_series(sample_series(rng, T1)),
        write_jacobi(theta_coeffs(2, delta_classes(1, 2, T1)[1], 3)),
        write_family(disassemble(sample_series(rng, T1, g=3, trunc=2), 2)),
        write_components(random_component_vector(rng, T1, 1, 3)),
    ]
    for text in texts:
        head, *body = text.splitlines()
        assert body
        indented = "\n".join([head] + [" \t %s\t " % line for line in body]) + "\n"
        assert read_any(indented) == read_any(text) == read_by_lines(indented), head


def test_bundle_class_out_of_place_is_reported_at_its_section():
    """A section repeating the rep of class 0 is named by its own position
    and line, as the `ThetaComponentVector` constructor reports it."""
    lines = HJC_THETA.splitlines(keepends=True)
    sections = [i for i, line in enumerate(lines) if line.startswith("[class ")]
    first_rep = lines[sections[0]].split("; ")[1]
    lines[sections[1]] = "; ".join(
        part if j != 1 else first_rep for j, part in enumerate(lines[sections[1]].split("; ")))
    want = delta_classes(1, 1, T1)[1].to_text()
    with pytest.raises(ParseError) as err:
        read_components("".join(lines))
    assert err.value.line == sections[1] + 1
    assert str(err.value) == "line %d: class 1: rep must be the canonical %s" % (
        sections[1] + 1, want)
