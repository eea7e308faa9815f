"""A Jacobi table holds each r as the integer vector y = sqrt(D) r.

Every r of a table lies in the inverse different O^#, so `JacobiTable`
keys its store on (n, y) with y in O^g as ints: the theta path builds and
reads those keys straight from the points of `hermitian._class_points`,
the shift matrices are cached on (y, m, d), the HJF reader parses r texts
straight to ints and the writer prints them from y.  `coeffs` stays a view
keyed by r as `FieldElement`s.

These tests compare the int path with the former `FieldElement` bodies
kept in `util`, in all five fields: theta tables, decomposition (plain and
strict, and the witness of a failing table), recomposition, the cogenus-1
slice of a family, and the HJF reader and writer, also on rejected
records.  They compare the FJS and HJC writers, which now print the text
they sorted by, with their former bodies, and they count what the int path
no longer does.
"""

from __future__ import annotations

import importlib
import random
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hermfj import ffj, formats, hermitian, jacobi
from hermfj.errors import ParseError
from hermfj.ffj import _cogenus_one_slice, assemble, disassemble
from hermfj.field import FieldElement, make_field
from hermfj.formats import (read_components, read_jacobi, write_components, write_jacobi,
                            write_series)
from hermfj.hermitian import HermMatrix, _y_coords, delta_classes, enumerate_semi_integral
from hermfj.jacobi import JacobiTable, shift_matrix, theta_coeffs, theta_decompose, \
    theta_recompose
from hermfj.series import FourierSeries
from test_theta_buckets import _components, _outcome, _variants
from util import (
    ALL_D,
    build_degree3_family,
    canonical_pair_order,
    cogenus_one_slice_by_split_block,
    random_component_vector,
    read_jacobi_by_elements,
    table_support,
    theta_coeffs_by_elements,
    theta_decompose_by_elements,
    theta_recompose_by_elements,
    write_components_by_support,
    write_jacobi_by_elements,
    write_series_by_support,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
#: (g, m, trunc) of the theta tables compared per field
CASES = ((1, 1, 4), (1, 2, 3), (1, 3, 3), (2, 1, 2), (2, 2, 1))


def assert_same_table(got: JacobiTable, want: JacobiTable):
    """Equal tables, with the keys of `coeffs` in the same order."""
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)
    assert write_jacobi(got) == write_jacobi_by_elements(want)


def tables(tag, rng):
    """Theta tables and their sums, and a recomposed genus-1 table."""
    for g, m, trunc in CASES:
        classes = delta_classes(g, m, tag)
        picked = [classes[0], classes[-1]] + rng.sample(classes, 2)
        for s in picked:
            yield theta_coeffs(m, s, trunc)
        total = theta_coeffs(m, picked[2], trunc).add(theta_coeffs(m, picked[3], trunc))
        if total._coeffs:
            yield total
    yield theta_recompose(random_component_vector(rng, tag, 2, 4), 4)


@pytest.mark.parametrize("d", ALL_D)
def test_theta_path_matches_the_field_element_bodies(d):
    tag = make_field(d)
    rng = random.Random(2200 - d)
    for g, m, trunc in CASES:
        for s in rng.sample(delta_classes(g, m, tag), 3):
            assert_same_table(theta_coeffs(m, s, trunc), theta_coeffs_by_elements(m, s, trunc))
            assert theta_coeffs(m, s, trunc, 2) == theta_coeffs_by_elements(m, s, trunc, 2)
    for table in tables(tag, rng):
        text = write_jacobi(table)
        assert text == write_jacobi_by_elements(table)
        assert read_jacobi(text) == read_jacobi_by_elements(text) == table
        assert table_support(table) == canonical_pair_order(table.coeffs)
        for strict in (False, True):
            v = theta_decompose(table, strict)
            assert v == theta_decompose_by_elements(table, strict)
        assert_same_table(theta_recompose(v, table.trunc),
                          theta_recompose_by_elements(v, table.trunc))
        assert write_components(v) == write_components_by_support(v)


@pytest.mark.parametrize("d", ALL_D)
def test_failing_tables_name_the_same_witness(d):
    tag = make_field(d)
    rng = random.Random(2300 - d)
    failed = 0
    for g, m, trunc in ((1, 2, 3), (2, 1, 2)):
        table = theta_recompose(_components(rng, tag, g, m, trunc), trunc)
        for variant in _variants(rng, table):
            for strict in (False, True):
                got = _outcome(theta_decompose, variant, strict)
                want = _outcome(theta_decompose_by_elements, variant, strict)
                assert got == want, (g, m, strict, want[:2])
                failed += got[0] == "error"
    assert failed


def test_cogenus_one_slice_matches_the_split_block_body():
    for d in ALL_D:
        fam1 = build_degree3_family(random.Random(d), make_field(d), trunc=3)
        fam2 = disassemble(assemble(fam1), 2)
        for m in (1, 2):
            got, want = _cogenus_one_slice(fam2, m), cogenus_one_slice_by_split_block(fam2, m)
            assert got == want and list(got.coeffs) == list(want.coeffs)
        assert _cogenus_one_slice(fam2, 1)._coeffs


# ----------------------------------------------------------------------
# the HJF reader: the errors of the former one


def hjf_text(rng, tag) -> str:
    table = theta_recompose(random_component_vector(rng, tag, 2, 4), 4)
    return write_jacobi(table)


def mutations(lines: list[str], tag) -> dict[str, list[str]]:
    """Per kind, the lines of an HJF file with one defect (two for the
    precedence cases), from the valid `lines`."""
    j = len(lines) // 2
    n_text, rest = lines[j][1:].split(" ; ", 1)
    r_text, value = rest.split(") = ")

    def at(i, n=None, r=None, v=None):
        out = list(lines)
        out[i] = "(%s ; %s) = %s" % (n or n_text, r or r_text, v or value)
        return out

    third = FieldElement(Fraction(1, 3), 0, tag).to_text()
    x = FieldElement.from_text(r_text, tag)
    widened = "%d/%d+%d/%d*w" % (2 * x.p, 2 * x.den, 3 * x.q, 3 * x.den)
    cases = {
        "r outside O^#": at(j, r=third),
        "r bad token": at(j, r="1/1+0/1*x"),
        "r zero denominator": at(j, r="1/0+0/1*w"),
        "r count": at(j, r=r_text + "," + r_text),
        "r widened repeat": lines[:j + 1] + at(j, r=widened)[j:j + 1] + lines[j + 1:],
        "non-PSD block": at(j, n="0/1+0/1*w", r=FieldElement(1, 1, tag).to_text()),
        "over truncation": at(j, n="99/1+0/1*w"),
        "value dimension": at(j, v=value + "," + value),
    }
    # a parse error anywhere beats a rejected r, whatever the line order
    before = at(j, r=third)
    before[-1] = before[-1].replace(" ; ", " ; 1/1+0/1*x,", 1)
    cases["r outside O^# before a parse error"] = before
    after = at(1, r="1/1+0/1*x")
    after[j] = at(j, r=third)[j]
    cases["r outside O^# after a parse error"] = after
    return cases


@pytest.mark.parametrize("d", ALL_D)
def test_rejected_hjf_records_match_the_field_element_reader(d):
    tag = make_field(d)
    rng = random.Random(2400 - d)
    lines = hjf_text(rng, tag).splitlines()
    assert len(lines) > 6
    for kind, mutated in mutations(lines, tag).items():
        text = "\n".join(mutated) + "\n"
        with pytest.raises(ParseError) as got:
            read_jacobi(text)
        with pytest.raises(ParseError) as want:
            read_jacobi_by_elements(text)
        assert (str(got.value), got.value.line) == (str(want.value), want.value.line), kind
    # the same r spelled out of lowest terms reads as the same key
    repeat = mutations(lines, tag)["r widened repeat"]
    j = len(lines) // 2
    text = "\n".join(lines[:j] + repeat[j + 1:j + 2] + lines[j + 1:]) + "\n"
    assert read_jacobi(text) == read_jacobi_by_elements(text) == read_jacobi("\n".join(lines))


def test_r_outside_the_inverse_different_is_named_as_a_field_element():
    text = "HJF v1; d=-3; g=1; k=1; m=2; trunc=3; dim=1\n(1/1+0/1*w ; 2/6+0/1*w) = 1/1+0/1*w\n"
    with pytest.raises(ParseError) as err:
        read_jacobi(text)
    assert str(err.value) == ("line 2: r component FieldElement(1/3+0/1*w, d=-3) is not in the "
                              "inverse different")


# ----------------------------------------------------------------------
# the view, the lookups and the shift cache


def test_coeffs_view_shares_one_r_per_y_and_lookups_take_field_elements():
    tag = make_field(-7)
    table = theta_recompose(random_component_vector(random.Random(2800), tag, 2, 4), 4)
    view = table.coeffs
    by_value: dict = {}
    for _n, r in view:
        by_value.setdefault(r, set()).add(id(r))
    assert all(len(ids) == 1 for ids in by_value.values())
    assert len(view) == len(table._coeffs) > len(by_value) > 1
    for (n, r), vec in view.items():
        y = tuple(c for x in r for c in _y_coords(x))
        assert table._coeffs[(n, y)] is vec
        assert table.coefficient(n, r) is vec and table.coefficient(n, list(r)) is vec
        assert table.vanishing_order_at(r) <= n.entries[-1][-1].as_rational()
    n, r = next(iter(view))
    zero = (FieldElement.zero(tag),)
    outside = (r[0] + Fraction(1, 3),)
    elsewhere = tuple(FieldElement(x.a, x.b, make_field(-11)) for x in r)
    for other in (outside, elsewhere, r + r):
        assert table.coefficient(n, other) == zero
        assert table.vanishing_order_at(other) == float("inf")


def test_shift_matrices_are_cached_on_y():
    for d in ALL_D:
        tag = make_field(d)
        for s in delta_classes(2, 2, tag)[::7]:
            for r in (s.rep, tuple(x + 2 for x in s.rep)):
                y = tuple(c for x in r for c in _y_coords(x))
                assert shift_matrix(r, 2) is jacobi._shift_matrix(y, 2, d)
        # an r outside (O^#)^g folds its denominator into the index
        x = FieldElement(Fraction(1, 5), Fraction(2, 3), tag)
        want = HermMatrix.from_rational(x.norm() / 3, tag)
        assert shift_matrix((x,), 3) == want
        assert shift_matrix([x], 3) is shift_matrix((x,), 3)


# ----------------------------------------------------------------------
# counts


def test_an_hjf_round_trip_hashes_no_field_element(monkeypatch):
    tag = make_field(-2)
    text = hjf_text(random.Random(2500), tag)

    def round_trip():
        table = read_jacobi(text)
        for strict in (False, True):
            v = theta_decompose(table, strict)
        return write_jacobi(theta_recompose(v, table.trunc))

    assert round_trip() == text  # and the caches are warm
    hashed = []
    plain = FieldElement.__hash__
    monkeypatch.setattr(FieldElement, "__hash__", lambda x: hashed.append(x) or plain(x))
    assert round_trip() == text
    assert hashed == []


def test_writers_render_each_key_once(monkeypatch):
    rng = random.Random(2600)
    tag = make_field(-1)
    keys = enumerate_semi_integral(2, 3, tag)
    series = FourierSeries(2, 4, tag, 3, {t: (FieldElement(rng.randint(1, 5), 0, tag),)
                                          for t in rng.sample(keys, 20)})
    bundle = random_component_vector(rng, tag, 2, 5)
    table = theta_recompose(bundle, 5)
    for obj, old in ((series, write_series_by_support), (bundle, write_components_by_support),
                     (table, write_jacobi_by_elements)):
        want = old(obj)
        rendered = []
        to_text = HermMatrix.to_text
        with monkeypatch.context() as patch:
            patch.setattr(HermMatrix, "to_text", lambda t: rendered.append(t) or to_text(t))
            assert formats.write_any(obj) == want
        assert len(rendered) == len(set(rendered)), type(obj).__name__
    for d in ALL_D:
        v = random_component_vector(random.Random(d), make_field(d), 3, 4)
        assert write_components(v) == write_components_by_support(v)
        f = FourierSeries(2, 4, make_field(d), 2, {
            t: (FieldElement(1, 0, make_field(d)),)
            for t in enumerate_semi_integral(2, 2, make_field(d))})
        assert write_series(f) == write_series_by_support(f)


def test_bundle_htrunc_texts_parse_once(monkeypatch):
    v = random_component_vector(random.Random(2700), make_field(-3), 3, 4)
    text = write_components(v)
    htruncs = [line.split("htrunc = ")[1][:-1] for line in text.splitlines()
               if line.startswith("[class ")]
    assert len(htruncs) == 27 > len(set(htruncs))
    parsed = []
    parse = formats._parse_q
    monkeypatch.setattr(formats, "_parse_q", lambda t, line: parsed.append(t) or parse(t, line))
    assert read_components(text) == v
    # the header trunc, then each distinct htrunc
    assert Counter(parsed[1:]) == Counter(set(htruncs)) and len(parsed) == 1 + len(set(htruncs))


def test_family_jobs_split_blocks_only_for_psi0(monkeypatch, tmp_path):
    """The jobs of a seed-0 family-reindex batch split keys through
    `split_block` only to re-identify the psi_0 keys (`extract_psi0`); the
    cogenus-1 slice reads its keys as ints."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("family_reindex")
    batch = workload.setup(random.Random(0))
    callers = Counter()
    split = hermitian.split_block

    def counted(t, l):
        names = {frame.name for frame in traceback.extract_stack(sys._getframe(1))}
        callers["extract_psi0" if "extract_psi0" in names else "other"] += 1
        return split(t, l)

    monkeypatch.setattr(hermitian, "split_block", counted)
    monkeypatch.setattr(ffj, "split_block", counted)
    for job in batch.jobs:
        job.check(job.work())
    assert callers == Counter({"extract_psi0": 412})


def test_partial_decomposition_reads_a_missing_key_at_r_prime():
    """A key missing on the r'-side is seen only from its canonical partner,
    by the second probe: no stored key ends in it to be compared."""
    from hermfj.ffj import FJFamily, partial_decomposition_check
    from hermfj.hermitian import reduce_class, small_rep

    tag = make_field(-1)
    fam1 = build_degree3_family(random.Random(103), tag)
    idx1 = HermMatrix.from_rational(1, tag)
    body = fam1.tables[idx1]
    for n, r in list(body):
        rv = tuple(row[0] for row in r)
        r_prime = rv[-1] + 1
        side = rv[:-1] + (r_prime,)
        key = (n.sub(shift_matrix(rv, 1)).add(shift_matrix(side, 1)), tuple((x,) for x in side))
        if rv == small_rep(reduce_class(rv, 1)) and key in body:
            break
    else:
        pytest.fail("no canonical key with a stored partner at r'")
    s2 = reduce_class(rv[-1:], 1)
    assert partial_decomposition_check(disassemble(assemble(fam1), 2), 1, s2, r_prime)
    broken = FJFamily(3, 1, fam1.k, tag, fam1.trunc,
                      {**fam1.tables, idx1: {k: v for k, v in body.items() if k != key}})
    assert not partial_decomposition_check(disassemble(assemble(broken), 2), 1, s2, r_prime)
