"""Validation happens once, at the public boundary.

Public constructors and the `formats` readers check every key; the internal
builders (`_trusted`) skip those checks where validity follows from
construction.  These tests pin both sides: every boundary still rejects each
invalid kind of input, the boundary modules never reach a trusted builder,
and each trusted output equals its rebuild through the public constructors.
"""

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from hermfj.errors import ParseError
from hermfj.ffj import FJFamily, assemble, disassemble, join_block, rearrange_cogenus
from hermfj.field import FieldElement, make_field
from hermfj.formats import (
    read_components,
    read_family,
    read_jacobi,
    read_series,
    write_components,
)
from hermfj.hermitian import (
    CosetClass,
    HermMatrix,
    UnitMatrix,
    delta_classes,
    enumerate_semi_integral,
    reduce_class,
    small_rep,
)
from hermfj.jacobi import (
    JacobiTable,
    ThetaComponentVector,
    shift_matrix,
    theta_coeffs,
    theta_decompose,
    theta_recompose,
)
from hermfj.series import FourierSeries, gl_generators, symmetrize
from util import all_tags, block_key, build_degree3_family, random_component_vector

SRC = Path(__file__).resolve().parents[1] / "src" / "hermfj"
TAG = make_field(-1)
F3 = make_field(-3)


def fe(a, b=0):
    return FieldElement(Fraction(a), Fraction(b), TAG)


def q(x):
    return HermMatrix.from_rational(x, TAG)


ONE = (fe(1),)


def _bundle(classes):
    """Zero components on `classes`, which must be all of Delta_1(1)."""
    return ThetaComponentVector(1, classes, {
        s: FourierSeries(1, 0, TAG, 2, {}, semi_integral=False) for s in classes})


# ----------------------------------------------------------------------
# the boundary rejects each invalid kind


CONSTRUCTOR_CASES = {
    "HermMatrix non-Hermitian": lambda: HermMatrix([[fe(1), fe(1)], [fe(0), fe(1)]], TAG),
    "HermMatrix non-Hermitian diagonal": lambda: HermMatrix([[fe(1, 1)]], TAG),
    # Hermitian over Q(sqrt(-3)), whose w read under Q(i) would be i
    "HermMatrix entries of another field": lambda: HermMatrix(
        [[FieldElement(1, 0, F3), FieldElement(0, 1, F3)],
         [FieldElement(0, 1, F3).conj(), FieldElement(1, 0, F3)]], TAG),
    "FourierSeries coefficient of another field": lambda: FourierSeries(
        1, 0, TAG, 2, {q(1): (FieldElement(1, 0, F3),)}),
    "FourierSeries non-PSD": lambda: FourierSeries(1, 0, TAG, 2, {q(-1): ONE}),
    "FourierSeries not semi-integral": lambda: FourierSeries(1, 0, TAG, 2, {q(Fraction(1, 2)): ONE}),
    "FourierSeries over truncation": lambda: FourierSeries(1, 0, TAG, 2, {q(3): ONE}),
    "JacobiTable non-PSD": lambda: JacobiTable(1, 1, 2, TAG, 3, {(q(0), (fe(1),)): ONE}),
    "JacobiTable r outside O^#": lambda: JacobiTable(
        1, 1, 2, TAG, 3, {(q(1), (fe(Fraction(1, 3)),)): ONE}),
    "JacobiTable over truncation": lambda: JacobiTable(1, 1, 2, TAG, 3, {(q(4), (fe(0),)): ONE}),
    "JacobiTable r of another field": lambda: JacobiTable(
        1, 1, 2, TAG, 3, {(q(1), (FieldElement(1, 0, make_field(-3)),)): ONE}),
    "JacobiTable genus-2 r of another field": lambda: JacobiTable(
        2, 1, 1, TAG, 3, {(HermMatrix.identity(2, TAG),
                           (fe(0), FieldElement(0, 0, make_field(-2)))): ONE}),
    "JacobiTable coefficient of another field": lambda: JacobiTable(
        1, 1, 2, TAG, 3, {(q(1), (fe(0),)): (FieldElement(1, 0, F3),)}),
    "JacobiTable dim = 0": lambda: JacobiTable(1, 1, 2, TAG, 3, {}, 0),
    "JacobiTable dim = -1": lambda: JacobiTable(1, 1, 2, TAG, 3, {}, -1),
    "FJFamily non-PSD": lambda: FJFamily(2, 1, 4, TAG, 3, {q(0): {(q(1), ((fe(1),),)): ONE}}),
    "FJFamily not semi-integral": lambda: FJFamily(
        2, 1, 4, TAG, 3, {q(1): {(q(1), ((fe(Fraction(1, 3)),),)): ONE}}),
    "FJFamily over truncation": lambda: FJFamily(2, 1, 4, TAG, 3, {q(2): {(q(2), ((fe(0),),)): ONE}}),
    "FJFamily r of the wrong shape": lambda: FJFamily(
        2, 1, 4, TAG, 3, {q(1): {(q(1), ((fe(0), fe(0)),)): ONE}}),
    "FJFamily r of another field": lambda: FJFamily(
        2, 1, 4, TAG, 3, {q(1): {(q(1), ((FieldElement(0, 1, F3),),)): ONE}}),
    "FJFamily coefficient of another field": lambda: FJFamily(
        2, 1, 4, TAG, 3, {q(1): {(q(1), ((fe(0),),)): (FieldElement(1, 0, F3),)}}),
    "FJFamily dim = 0": lambda: FJFamily(2, 1, 4, TAG, 3, {}, 0),
    "FJFamily dim = -1": lambda: FJFamily(3, 2, 4, TAG, 3, {}, -1),
    "ThetaComponentVector with no classes": lambda: ThetaComponentVector(1, (), {}),
    "ThetaComponentVector rep outside O^#": lambda: ThetaComponentVector(
        1, [CosetClass(1, (fe(Fraction(1, 3)),), TAG)],
        {CosetClass(1, (fe(Fraction(1, 3)),), TAG): FourierSeries(1, 0, TAG, 2, {})}),
    "ThetaComponentVector subset of the classes": lambda: _bundle(delta_classes(1, 1, TAG)[:2]),
    "ThetaComponentVector reordered classes": lambda: _bundle(delta_classes(1, 1, TAG)[::-1]),
    "theta_coeffs rep outside O^#": lambda: theta_coeffs(1, CosetClass(1, (fe(Fraction(1, 3)),), TAG), 2),
    "CosetClass m = 0": lambda: CosetClass(0, (fe(0),), TAG),
    "CosetClass empty rep": lambda: CosetClass(1, (), TAG),
    "CosetClass component of another field": lambda: CosetClass(
        1, (FieldElement(0, 0, make_field(-3)),), TAG),
    "reduce_class of an empty r": lambda: reduce_class((), 1),
    "shift_matrix m = 0": lambda: shift_matrix((fe(1),), 0),
    "shift_matrix m = -1": lambda: shift_matrix((fe(1),), -1),
    "enumerate_semi_integral g = 0": lambda: enumerate_semi_integral(0, 2, TAG),
    "gl_generators g = 0": lambda: gl_generators(0, TAG),
    "small_rep of a rep outside O^#": lambda: small_rep(
        CosetClass(1, (fe(Fraction(1, 3)),), TAG)),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_CASES))
def test_public_constructors_reject_each_invalid_kind(case):
    with pytest.raises(ValueError):
        CONSTRUCTOR_CASES[case]()


#: public functions handed an element of another field (d = -3) than the
#: rest of their input (d = -1), whose ints they would misread as over d = -1
FOREIGN_FIELD_CASES = {
    "join_block r": lambda: join_block(q(2), ((FieldElement.omega(F3),),), q(3)),
    "join_block m": lambda: join_block(q(2), ((fe(0),),), HermMatrix.from_rational(3, F3)),
    "reduce_class": lambda: reduce_class((fe(Fraction(1, 2)), FieldElement.one(F3)), 1),
    "shift_matrix": lambda: shift_matrix((fe(Fraction(1, 2)), FieldElement.one(F3)), 1),
    "FJFamily.coefficient": lambda: FJFamily(2, 1, 4, TAG, 3, {}).coefficient(
        q(1), q(1), ((FieldElement.omega(F3),),)),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_FIELD_CASES))
def test_a_component_of_another_field_is_rejected(case):
    with pytest.raises(ValueError, match=r"is not in the field d=-1$"):
        FOREIGN_FIELD_CASES[case]()


def test_bundle_cases_are_valid_apart_from_the_defect():
    _bundle(delta_classes(1, 1, TAG))


def _fjs(t):
    return "FJS v1; d=-1; g=1; k=0; trunc=2; dim=1\nt = %s ; c = 1/1+0/1*w\n" % t


def _hjf(n, r):
    return "HJF v1; d=-1; g=1; k=1; m=2; trunc=3; dim=1\n(%s ; %s) = 1/1+0/1*w\n" % (n, r)


def _fjfam(m, n, r):
    return ("FJFAM v1; d=-1; g=2; l=1; k=4; trunc=3; dim=1\n[index m = %s]\n"
            "(%s ; %s) = 1/1+0/1*w\n" % (m, n, r))


def _hjc(n=None, rep=None):
    """The d=-1, m=1 bundle of a theta table, with one record added to
    class 0 or its rep replaced."""
    text = write_components(theta_decompose(theta_coeffs(1, delta_classes(1, 1, TAG)[0], 3)))
    lines = text.splitlines(keepends=True)
    if n is not None:
        lines.insert(2, "n = %s ; c = 1/1+0/1*w\n" % n)
    if rep is not None:
        lines[1] = lines[1].replace("rep = 0/1+0/1*w", "rep = %s" % rep)
    return "".join(lines)


ZERO, ONE_T, THIRD = "0/1+0/1*w", "1/1+0/1*w", "1/3+0/1*w"
NON_HERM = "1/1+1/1*w"  # a 1x1 matrix with a w-part on its diagonal

READER_CASES = {
    "FJS non-Hermitian": (read_series, _fjs(NON_HERM)),
    "FJS non-PSD": (read_series, _fjs("-1/1+0/1*w")),
    "FJS not semi-integral": (read_series, _fjs("1/2+0/1*w")),
    "FJS over truncation": (read_series, _fjs("3/1+0/1*w")),
    "HJF non-Hermitian": (read_jacobi, _hjf(NON_HERM, ZERO)),
    "HJF non-PSD": (read_jacobi, _hjf(ZERO, ONE_T)),
    "HJF r outside O^#": (read_jacobi, _hjf(ONE_T, THIRD)),
    "HJF over truncation": (read_jacobi, _hjf("4/1+0/1*w", ZERO)),
    "FJFAM non-Hermitian index": (read_family, _fjfam(NON_HERM, ONE_T, ZERO)),
    "FJFAM non-Hermitian key": (read_family, _fjfam(ONE_T, NON_HERM, ZERO)),
    "FJFAM non-PSD": (read_family, _fjfam(ZERO, ONE_T, ONE_T)),
    "FJFAM not semi-integral": (read_family, _fjfam(ONE_T, ONE_T, THIRD)),
    "FJFAM over truncation": (read_family, _fjfam("2/1+0/1*w", "2/1+0/1*w", ZERO)),
    "HJC non-Hermitian": (read_components, _hjc(n=NON_HERM)),
    "HJC non-PSD": (read_components, _hjc(n="-1/1+0/1*w")),
    "HJC rep outside O^#": (read_components, _hjc(rep=THIRD)),
    "HJC over truncation": (read_components, _hjc(n="9/1+0/1*w")),
    "HJF dim = 0": (read_jacobi, "HJF v1; d=-1; g=1; k=1; m=2; trunc=3; dim=0\n"),
    "FJFAM dim = -1": (read_family, "FJFAM v1; d=-1; g=3; l=2; k=4; trunc=3; dim=-1\n"),
    "FJS dim = 0": (read_series, "FJS v1; d=-1; g=1; k=0; trunc=2; dim=0\n"),
}


def test_reader_cases_are_valid_apart_from_the_defect():
    read_series(_fjs(ONE_T))
    read_jacobi(_hjf(ONE_T, ONE_T))
    read_family(_fjfam(ONE_T, ONE_T, ZERO))
    read_components(_hjc(n=ONE_T))


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_readers_reject_each_invalid_kind(case):
    reader, text = READER_CASES[case]
    with pytest.raises(ParseError):
        reader(text)


# ----------------------------------------------------------------------
# the boundary never reaches a trusted builder

TRUSTED_NAMES = {"_trusted", "_fill", "__new__"}


@pytest.mark.parametrize("module", ["formats.py", "cli.py"])
def test_boundary_modules_never_reach_trusted_builders(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in TRUSTED_NAMES:
            found.append((name, getattr(node, "lineno", None)))
    assert not found


# ----------------------------------------------------------------------
# trusted outputs equal their rebuild through the public constructors


def public_matrix(t):
    return HermMatrix([list(row) for row in t.entries], t.tag)


def public_series(f):
    return FourierSeries(f.g, f.k, f.tag, f.trunc,
                         {public_matrix(t): vec for t, vec in f.coeffs.items()},
                         f.dim, f.semi_integral)


def public_table(t):
    return JacobiTable(t.g, t.k, t.m, t.tag, t.trunc,
                       {(public_matrix(n), r): vec for (n, r), vec in t.coeffs.items()},
                       t.dim)


def public_class(c):
    return CosetClass(c.m, c.rep, c.tag)


def public_unit(u):
    return UnitMatrix(u.entries, u.tag)


def public_family(fam):
    return FJFamily(fam.g, fam.l, fam.k, fam.tag, fam.trunc,
                    {public_matrix(m): {(public_matrix(n), r): vec for (n, r), vec in body.items()}
                     for m, body in fam.tables.items()},
                    fam.dim)


def key_matrices(obj):
    """The HermMatrix keys of a matrix, series, table or family."""
    if isinstance(obj, HermMatrix):
        return [obj]
    if isinstance(obj, FourierSeries):
        return list(obj.coeffs)
    if isinstance(obj, JacobiTable):
        return [n for n, _r in obj.coeffs]
    if isinstance(obj, FJFamily):
        tables = obj.tables
        return list(obj.coeffs) + list(tables) + [n for body in tables.values() for n, _r in body]
    return []


def assert_same_as_public(obj, rebuild):
    again = rebuild(obj)
    assert again == obj
    for name in obj.__slots__:
        assert getattr(again, name) == getattr(obj, name), name
    # equal keys compare their int tuples only, so compare the tuples and
    # the traces of the rebuilt keys too: a trace pair or a key out of
    # lowest terms, passed on by a trusted builder, shows here
    rebuilt = {t: t for t in key_matrices(again)}
    for t in key_matrices(obj):
        public = rebuilt[t]
        assert t._key == public._key and t.g == public.g, t
        assert t._key[0] > 0 and gcd(*t._key) == 1, t
        assert t.trace() == public.trace() and t._trace == t.trace().as_integer_ratio(), t


def test_trusted_outputs_equal_their_public_rebuild():
    rng = random.Random(307)
    for tag in all_tags():
        for m in (1, 2):
            v = random_component_vector(rng, tag, m, 4)
            table = theta_recompose(v, 4)
            assert table.coeffs
            assert_same_as_public(table, public_table)
            for strict in (False, True):
                for h in theta_decompose(table, strict).components.values():
                    assert_same_as_public(h, public_series)
            other = theta_recompose(random_component_vector(rng, tag, m, 3), 3)
            assert_same_as_public(table.add(other), public_table)
            for n, r in rng.sample(sorted(table.coeffs, key=repr), 5):
                assert_same_as_public(block_key(n, r, m), public_matrix)
        s = rng.choice(delta_classes(1, 2, tag))
        assert_same_as_public(theta_coeffs(2, s, 3), public_table)
        for n, r in theta_coeffs(1, rng.choice(delta_classes(2, 1, tag)), 2).coeffs:
            assert_same_as_public(block_key(n, r, 1), public_matrix)
        classes = delta_classes(2, 2, tag)
        for c in rng.sample(classes, 5) + [reduce_class(tuple(3 * x for x in classes[-1].rep), 1)]:
            assert_same_as_public(c, public_class)

        keys = enumerate_semi_integral(2, 2, tag)
        for t in keys + enumerate_semi_integral(3, 1, tag):
            assert_same_as_public(t, public_matrix)
        f1, f2 = (FourierSeries(2, 4, tag, 3, {t: (FieldElement(rng.randint(-3, 3), 0, tag),)
                                               for t in rng.sample(keys, 6)})
                  for _ in range(2))
        assert_same_as_public(f1 * f2, public_series)
        assert_same_as_public(f1 + f2, public_series)
        assert_same_as_public(f1.scale(FieldElement(1, 1, tag)), public_series)
        assert_same_as_public(f1 - f1, public_series)
        h = next(c for c in theta_decompose(theta_coeffs(2, s, 3)).components.values()
                 if not c.is_zero())
        assert_same_as_public(h + h.scale(2), public_series)
        assert_same_as_public(symmetrize(f1, gl_generators(2, tag)), public_series)
        for g in (1, 2, 4):
            gens = gl_generators(g, tag)
            for u in gens:
                assert_same_as_public(u.inverse(), public_unit)
                for v in rng.sample(gens, min(3, len(gens))):
                    assert_same_as_public(u.mul(v), public_unit)
                    assert_same_as_public(u.mul(v).inverse().mul(u), public_unit)

    for d in (-1, -3):
        fam1 = build_degree3_family(random.Random(d), make_field(d), trunc=3)
        assert_same_as_public(assemble(fam1), public_series)
        fam2 = disassemble(assemble(fam1), 2)
        assert_same_as_public(fam2, public_family)
        back = rearrange_cogenus(fam2, 1)
        assert_same_as_public(back, public_family)
        assert back == fam1


def test_products_drop_cancelled_coefficients():
    # (1 + q) * (1 - q) = 1 - q^2: the q coefficient cancels and is dropped
    f = FourierSeries(1, 2, TAG, 3, {q(0): ONE, q(1): ONE})
    g = FourierSeries(1, 2, TAG, 3, {q(0): ONE, q(1): (fe(-1),)})
    prod = f * g
    assert set(prod.coeffs) == {q(0), q(2)}
    assert prod == public_series(prod)


def test_jacobi_table_checks_each_distinct_r_once(monkeypatch):
    from hermfj.errors import RecordError

    half, third = fe(0, Fraction(1, 2)), fe(Fraction(1, 3))
    calls = []
    check = FieldElement.is_dual_integral
    monkeypatch.setattr(FieldElement, "is_dual_integral",
                        lambda x: calls.append(x) or check(x))
    coeffs = {(q(n), (r,)): (fe(1),) for n in (1, 2, 3) for r in (fe(0), half)}
    JacobiTable(1, 1, 1, TAG, 3, coeffs)
    assert sorted(calls, key=FieldElement.sort_key) == [fe(0), half]
    # a bad r is still rejected at the first nonzero key that carries it
    bad = {(q(1), (third,)): (fe(0),), (q(2), (third,)): (fe(1),), (q(3), (third,)): (fe(1),)}
    with pytest.raises(RecordError) as caught:
        JacobiTable(1, 1, 1, TAG, 3, {**coeffs, **bad})
    assert caught.value.record == (q(2), (third,))
    assert "not in the inverse different" in str(caught.value)


def test_family_checks_each_r_component_once(monkeypatch):
    # the constructor checks the field of each r component and joins the key
    # on ints; join_block, which would check them again, is not reached
    from hermfj import hermitian, series
    from hermfj.errors import RecordError
    from util import degree3_tables

    tables = degree3_tables(random.Random(2700), F3)
    keys = sum(len(body) for body in tables.values())
    checks = []
    for module in (hermitian, series):
        check = module._in_field
        monkeypatch.setattr(module, "_in_field", lambda xs, tag, what, check=check:
                            checks.append(what) or check(xs, tag, what))
    fam = FJFamily(3, 1, 8, F3, 4, tables)
    # one pass per key, over its coefficient vector
    assert checks == ["coefficient"] * keys
    monkeypatch.undo()
    assert fam.coeffs == {join_block(n, r, m): vec for m, body in tables.items()
                          for (n, r), vec in body.items()}
    m, body = next(iter(tables.items()))
    (n, r), vec = next(iter(body.items()))
    with pytest.raises(ValueError, match=r"^r must be 2 x 1$"):
        FJFamily(3, 1, 8, F3, 4, {m: {(n, r[:1]): vec}})
    other = FieldElement(1, 0, make_field(-7))
    with pytest.raises(RecordError, match="r component .* is not in the field d=-3"):
        FJFamily(3, 1, 8, F3, 4, {m: {(n, ((other,),) + r[1:]): vec}})
