"""The theta path builds each key sum, class and coefficient text once per call.

`jacobi.theta_recompose` builds each output key n = n' + r m^-1 r* once
per distinct (n', shift) pair and `jacobi.theta_decompose` each n' = n -
r m^-1 r* once per distinct (n, shift) pair; `formats.write_jacobi` renders
each coefficient vector object once; `formats.read_components` takes an
HJC class whose rep text is the canonical text of its class from
`delta_classes`, and parses and checks any other spelling.  These tests
compare each with its former body, kept in `util`, and count the work.
"""

from __future__ import annotations

import operator
import random

import pytest

from hermfj import cli, formats, jacobi
from hermfj.errors import ConsistencyError, ParseError
from hermfj.field import FieldElement, make_field
from hermfj.formats import read_components, read_jacobi, write_components, write_jacobi
from hermfj.hermitian import HermMatrix, delta_classes
from hermfj.jacobi import theta_coeffs, theta_decompose, theta_recompose
from util import (ALL_D, distant_break, random_component_vector, read_components_by_parsed_reps,
                  theta_decompose_by_key_diffs, theta_recompose_by_point_sums,
                  write_jacobi_by_record_vecs)


def bundles():
    """(bundle, trunc): genus-1 bundles of m = 1 and 2 in all five fields,
    and one genus-2 bundle."""
    for d in ALL_D:
        tag = make_field(d)
        for m, trunc in ((1, 6), (2, 4)):
            yield random_component_vector(random.Random(2600 + d + m), tag, m, trunc), trunc
    tag = make_field(-3)
    yield theta_decompose(theta_coeffs(1, delta_classes(2, 1, tag)[5], 3)), 3


def combined(monkeypatch):
    """Records (n, other, op) for each `HermMatrix._combine` call."""
    calls = []
    combine = HermMatrix._combine
    monkeypatch.setattr(HermMatrix, "_combine",
                        lambda n, other, op: calls.append((n, other, op)) or combine(n, other, op))
    return calls


def test_recompose_builds_each_key_sum_once(monkeypatch):
    saved = 0
    for v, trunc in bundles():
        with monkeypatch.context() as patch:
            calls = combined(patch)
            want = theta_recompose_by_point_sums(v, trunc)
            pairs, before = set(calls), len(calls)
            calls.clear()
            assert theta_recompose(v, trunc) == want
        assert len(set(calls)) == len(calls) == len(pairs)
        saved += before - len(calls)
    assert saved > 0


def test_decompose_builds_each_key_difference_once(monkeypatch):
    saved = 0
    for v, trunc in bundles():
        phi = theta_recompose(v, trunc)
        for strict in (False, True):
            with monkeypatch.context() as patch:
                calls = combined(patch)
                want = theta_decompose_by_key_diffs(phi, strict)
                old = list(calls)
                calls.clear()
                assert theta_decompose(phi, strict) == want == v
            subs = [c for c in calls if c[2] is operator.sub]
            old_subs = [c for c in old if c[2] is operator.sub]
            assert len(set(subs)) == len(subs) == len(set(old_subs))
            # the probes at r0 + m e_1 and the strict walks are unchanged
            assert len(calls) - len(subs) == len(old) - len(old_subs)
            saved += len(old_subs) - len(subs)
    assert saved > 0


@pytest.mark.parametrize("d", ALL_D)
def test_decompose_witness_is_unchanged(d):
    table, witness = distant_break(make_field(d), 2, True)
    with pytest.raises(ConsistencyError) as want:
        theta_decompose_by_key_diffs(table, strict=True)
    with pytest.raises(ConsistencyError) as got:
        theta_decompose(table, strict=True)
    assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)
    assert got.value.witness == witness


def test_hjf_writer_renders_each_vector_object_once(monkeypatch):
    for v, trunc in bundles():
        table = theta_recompose(v, trunc)
        want, rendered = write_jacobi_by_record_vecs(table), []
        vec_text = formats._vec_text
        with monkeypatch.context() as patch:
            patch.setattr(formats, "_vec_text", lambda vec: rendered.append(vec) or vec_text(vec))
            assert write_jacobi(table) == want
        objects = {id(vec) for vec in table._coeffs.values()}
        assert len({id(vec) for vec in rendered}) == len(rendered) == len(objects)
        # a theta table shares the vector of each n' among its keys
        assert len(objects) < len(table._coeffs)


def test_a_warm_hjc_round_trip_hashes_no_field_element(monkeypatch):
    for d in ALL_D:
        tag = make_field(d)
        text = write_components(random_component_vector(random.Random(d), tag, 2, 3))

        def round_trip():
            bundle = read_components(text)
            table = read_jacobi(write_jacobi(theta_recompose(bundle, 3)))
            return write_components(theta_decompose(table, strict=True))

        assert round_trip() == text  # and the caches are warm
        hashed = []
        plain = FieldElement.__hash__
        with monkeypatch.context() as patch:
            patch.setattr(FieldElement, "__hash__", lambda x: hashed.append(x) or plain(x))
            assert round_trip() == text
        assert hashed == [], d


def respell(text: str, spell) -> str:
    """`text` with each component of each class rep rewritten by `spell`."""
    out = []
    for line in text.splitlines():
        if line.startswith("[class "):
            head, rest = line.split("; rep = ")
            rep, tail = rest.split("; htrunc = ")
            line = "%s; rep = %s; htrunc = %s" % (
                head, ",".join(spell(c) for c in rep.split(",")), tail)
        out.append(line)
    return "\n".join(out) + "\n"


def doubled(component: str) -> str:
    """'a/b+c/e*w' as '2a/2b+c/e*w', the same element."""
    left, right = component.split("+", 1)
    a, b = left.split("/")
    return "%d/%d+%s" % (2 * int(a), 2 * int(b), right)


def reading(text: str, read):
    try:
        return read(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line


@pytest.mark.parametrize("d", ALL_D)
def test_bundle_reads_match_the_parsed_rep_reader(d):
    tag = make_field(d)
    v = random_component_vector(random.Random(d), tag, 2, 3)
    text = write_components(v)
    first = delta_classes(1, 2, tag)[1].to_text()
    cases = [
        text,
        respell(text, doubled),  # an accepted non-canonical spelling
        respell(text, lambda c: " " + c),  # a leading space
        text.replace("rep = %s;" % first, "rep = %s;" % doubled(first)),
        # a rep of class 1 in another class's section, a rep outside O^#, a bad
        # token and a short rep
        text.replace("[class 2; rep = %s" % delta_classes(1, 2, tag)[2].to_text(),
                     "[class 2; rep = %s" % first),
        text.replace("rep = %s;" % first, "rep = 1/3+0/1*w;"),
        text.replace("rep = %s;" % first, "rep = x;"),
        text.replace("rep = %s;" % first, "rep = %s,%s;" % (first, first)),
        # a bundle short of sections, with room for them and without
        "\n".join(text.splitlines()[:len(text.splitlines()) // 2]) + "\n",
        "\n".join(text.splitlines()[:3]) + "\n",
    ]
    for case in cases:
        got = reading(case, read_components)
        assert got == reading(case, read_components_by_parsed_reps)
        assert isinstance(got, tuple) or got == v


def test_an_oversized_header_genus_fails_at_once_unlisted(tmp_path, capsys, monkeypatch):
    src = tmp_path / "g40.hjc"
    src.write_text("HJC v1; d=-1; g=40; k=1; m=1; trunc=1; dim=1\n"
                   "[class 0; rep = %s; htrunc = 1]\n" % ",".join(["0/1+0/1*w"] * 40),
                   encoding="ascii")
    listed = []
    for module in (formats, jacobi):
        patched = getattr(module, "delta_classes")
        monkeypatch.setattr(module, "delta_classes",
                            lambda *a, f=patched: listed.append(a) or f(*a))
    assert cli.run(["validate", "--in", str(src)]) == 2
    err = capsys.readouterr().err
    assert "line 1: expected %d class sections, got 1" % 4 ** 40 in err
    assert listed == []


def test_canonical_reps_match_the_library_classes():
    # the reader's text match relies on to_text and from_text agreeing
    for d in ALL_D:
        tag = make_field(d)
        for g, m in ((1, 1), (1, 3), (2, 1)):
            for s in delta_classes(g, m, tag):
                rep = tuple(FieldElement.from_text(c, tag) for c in s.to_text().split(","))
                assert rep == s.rep
