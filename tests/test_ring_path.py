"""The degree-2 ring path does only the work that can count, with the
results of the bodies it replaced, which `util` keeps as oracles:

- `FourierSeries.__mul__` walks the keys of its right factor by trace and
  stops at the first one over the room: one `HermMatrix.add` per pair inside
  the truncation, and at most one trace test more per left key;
- both vanishing orders and `min_represented` are the one strict-cap search
  `hermitian._least_represented`: no search lists a point at or above its cap;
- the readers parse each distinct entry text of their matrices once per
  read, with the matrices, messages and lines of whole-token parses;
- `_text_order` renders each distinct entry (a, b, den) once per call.

Series are drawn over all five fields for g = 1-3: semi-integral keys (some
degenerate), and shifted theta-type keys with rational traces and mixed
denominators under a rational truncation.
"""

import random
from collections import Counter
from fractions import Fraction
from math import ceil

import pytest

from hermfj import formats, hermitian, series
from hermfj.errors import ParseError
from hermfj.field import FieldElement, make_field
from hermfj.formats import read_any, write_family, write_jacobi, write_series
from hermfj.hermitian import (
    HermMatrix,
    _canonical_order,
    _text_order,
    delta_classes,
    enumerate_semi_integral,
    min_represented,
    small_rep,
)
from hermfj.jacobi import series_times_theta, shift_matrix, theta_coeffs
from hermfj.series import FourierSeries, check_symmetry, gl_generators, symmetrize
from util import (
    all_tags,
    build_degree3_family,
    from_text_by_whole_tokens,
    min_represented_by_inclusive_bound,
    mul_by_all_pairs,
    random_field_element,
    text_order_by_full_text,
    vanishing_order_by_keys,
)

TAGS = pytest.mark.parametrize("tag", all_tags(), ids=lambda t: "d%d" % t.d)


def ring_keys(rng, g, tag, semi_integral):
    """(trunc, keys): a sample of the semi-integral PSD keys of trace <= 3
    (2 for g = 3), the zero and other degenerate ones among them; or keys
    n + r m^-1 r* for small reps r of classes of Delta_g(m) and a diagonal
    over the denominators 2 and 3, under a rational truncation."""
    if semi_integral:
        trunc = 3 if g < 3 else 2
        keys = enumerate_semi_integral(g, trunc, tag)
        return Fraction(trunc), rng.sample(keys, min(len(keys), 24))
    trunc = Fraction(rng.randint(5, 8), 2)
    base = enumerate_semi_integral(g, 2, tag)
    out = [HermMatrix.diagonal([Fraction(1, 2)] + [Fraction(1, 3)] * (g - 1), tag)]
    for m in (1, 2) if g < 3 else (1,):
        classes = delta_classes(g, m, tag)
        for s in rng.sample(classes, min(4, len(classes))):
            shift = shift_matrix(small_rep(s), m)
            out += [t for n in rng.sample(base, min(4, len(base)))
                    if (t := n.add(shift)).trace() <= trunc]
    return trunc, list(dict.fromkeys(out))


def random_series(rng, g, tag, semi_integral, k=4):
    trunc, keys = ring_keys(rng, g, tag, semi_integral)
    coeffs = {}
    for t in keys:
        x = random_field_element(rng, tag)
        coeffs[t] = (x if not x.is_zero() else x + 1,)
    return FourierSeries(g, k, tag, trunc, coeffs, semi_integral=semi_integral)


def series_cases(tag, seed):
    """Pairs of series of one degree over `tag`: semi-integral, shifted,
    and one of each, g = 1-3."""
    rng = random.Random(seed - tag.d)
    for g in (1, 2, 3):
        f = random_series(rng, g, tag, True)
        h = random_series(rng, g, tag, False)
        yield from ((f, f), (f, h), (h, f), (h, h))


def counted(patch, owner, name):
    """Replaces owner.name by a wrapper that counts its calls in the
    returned Counter."""
    calls, inner = Counter(), getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    patch.setattr(owner, name, wrapper)
    return calls


@TAGS
def test_product_matches_all_pairs_and_walks_only_the_window(tag, monkeypatch):
    for f, h in series_cases(tag, 2700):
        bound = min(f.trunc, h.trunc)
        inside = sum(1 for t1 in f.coeffs for t2 in h.coeffs if t1.trace() + t2.trace() <= bound)
        with monkeypatch.context() as patch:
            adds = counted(patch, HermMatrix, "add")
            tests = counted(patch, series, "_trace_within")
            got = f * h
        assert got == mul_by_all_pairs(f, h)
        assert got.semi_integral == (f.semi_integral and h.semi_integral)
        assert adds["add"] == inside
        assert tests["_trace_within"] <= inside + len(f.coeffs)


def searches(patch) -> list:
    """The (bound, values) of each `_lattice_points` call of `hermitian`."""
    seen, search = [], hermitian._lattice_points

    def recorded(*args, **kwargs):
        points = search(*args, **kwargs)
        seen.append((args[3], [q for q, _v in points]))
        return points

    patch.setattr(hermitian, "_lattice_points", recorded)
    return seen


def expected_caps(keys) -> list:
    """The cap of each search of the strict-cap vanishing order over `keys`
    in order, from the per-key oracle: none for a degenerate key, else
    min(least diagonal of the trace form, ceil(2 den best))."""
    best, caps = None, []
    for t in keys:
        value = min_represented_by_inclusive_bound(t)
        if value == 0:
            best = Fraction(0)
            continue
        gram, den = t._gram()
        diag = min(gram[i][i] for i in range(0, len(gram), 2))
        caps.append(diag if best is None else min(diag, ceil(2 * den * best)))
        best = value if best is None else min(best, value)
    return caps


@TAGS
def test_vanishing_orders_match_per_key_searches_under_one_strict_cap(tag, monkeypatch):
    for f, h in series_cases(tag, 2800):
        for s in (f, f * h):
            with monkeypatch.context() as patch:
                seen = searches(patch)
                got = s.vanishing_order()
            assert got == vanishing_order_by_keys(s.coeffs)
            caps = expected_caps(s.coeffs)
            assert [bound for bound, _q in seen] == [cap - 1 for cap in caps]
            assert all(q < cap for (_b, values), cap in zip(seen, caps) for q in values)
        for t in f.coeffs:
            assert min_represented(t) == min_represented_by_inclusive_bound(t), t
    assert FourierSeries.zero(2, 4, tag, 3).vanishing_order() == float("inf")


def test_a_key_that_is_not_psd_is_rejected_by_the_shared_search():
    for tag in all_tags():
        for t in (HermMatrix.diagonal([0, -1], tag), HermMatrix.diagonal([1, -1], tag)):
            with pytest.raises(ValueError, match="not positive semidefinite"):
                min_represented(t)
            with pytest.raises(ValueError, match="not positive semidefinite"):
                hermitian._least_represented([HermMatrix.zero(2, tag), t])


@TAGS
def test_jacobi_vanishing_order_matches_per_key_searches(tag):
    rng = random.Random(2900 - tag.d)
    for g, m in ((1, 1), (1, 2), (2, 1)):
        h = random_series(rng, g, tag, True)
        s = rng.choice(delta_classes(g, m, tag))
        theta = theta_coeffs(m, s, h.trunc + m)
        for table in (theta, series_times_theta(h, theta)):
            assert table.vanishing_order() == vanishing_order_by_keys(
                n for n, _y in table._coeffs)


@TAGS
def test_text_order_matches_full_texts_and_renders_each_entry_once(tag, monkeypatch):
    for f, h in series_cases(tag, 3000):
        keys = list(f.coeffs) + list(h.coeffs) + list((f * h).coeffs)
        cells = {(a, b, den) for t in keys if t.g > 1
                 for rows, den in (t._int_coords(),) for row in rows for a, b in row}
        with monkeypatch.context() as patch:
            rendered = counted(patch, hermitian, "_entry_text")
            order = _text_order(keys)
        assert order == text_order_by_full_text(keys)
        assert rendered["_entry_text"] == len(cells)
        assert _canonical_order(keys) == sorted(set(keys), key=order.__getitem__)


def respellings(token: str) -> list[str]:
    """Accepted spellings of the entry `token` (in the `to_text` form) that
    are not canonical, then tokens that are broken."""
    left, right = token[:-2].split("+")
    (a, b), (c, d) = left.split("/"), right.split("/")
    return ["%d/%d+%s*w" % (2 * int(a), 2 * int(b), right), " " + token,
            "%s+%d/%d*w" % (left, 3 * int(c), 3 * int(d)),
            "%s/0+%s*w" % (a, right), token[:-1] + "x", "", token + "*w", "%s-%s*w" % (left, right),
            "1/1+1/1*w"]


def matrix_texts(rng, g, tag):
    """Texts of g x g matrices: canonical, with one entry respelled or
    broken (a w-part on the diagonal, or one off-diagonal entry changed, is
    not Hermitian), and with an entry dropped."""
    out = []
    keys = enumerate_semi_integral(g, 3 if g < 3 else 2, tag)
    for t in rng.sample(keys, min(len(keys), 8)):
        parts = t.to_text().split(",")
        out.append(",".join(parts))
        j = rng.randrange(len(parts))
        out += [",".join(parts[:j] + [s] + parts[j + 1:]) for s in respellings(parts[j])]
        out.append(",".join(parts[1:]))
    return out


def outcome(read, *args):
    """What `read(*args)` gives, or the message (and line) of its error."""
    try:
        return read(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)
    except ValueError as exc:
        return ("ValueError", str(exc))


@TAGS
def test_from_text_matches_whole_token_parses(tag):
    rng = random.Random(3100 - tag.d)
    for g in (1, 2, 3):
        for text in matrix_texts(rng, g, tag):
            got = outcome(HermMatrix.from_text, text, g, tag)
            assert got == outcome(from_text_by_whole_tokens, text, g, tag), text
            if isinstance(got, HermMatrix):
                assert got._key == from_text_by_whole_tokens(text, g, tag)._key


def whole_token_matrix(text, g, tag, line, tokens):
    """The former reader's matrix role: `from_text` on each text, whole."""
    try:
        return from_text_by_whole_tokens(text.strip(), g, tag)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc


def files(rng, tag) -> list[str]:
    """An FJS, an HJF and an FJFAM file over `tag`."""
    f = FourierSeries(2, 4, tag, 3, {t: (random_field_element(rng, tag) + 9,)
                                     for t in enumerate_semi_integral(2, 3, tag)[:30]})
    table = theta_coeffs(1, delta_classes(2, 1, tag)[0], 3)
    return [write_series(f), write_jacobi(table), write_family(build_degree3_family(rng, tag))]


def matrix_spans(line: str) -> list[tuple[int, int]]:
    """(start, end) of each matrix text on a record or index line."""
    if line.startswith("[index m = "):
        return [(len("[index m = "), len(line) - 1)]
    if line.startswith("t = "):
        return [(4, line.index(" ; c = "))]
    if line.startswith("("):
        return [(1, line.index(" ; "))]
    return []


@TAGS
def test_readers_match_whole_token_reads(tag, monkeypatch):
    rng = random.Random(3200 - tag.d)
    for text in files(rng, tag):
        lines = text.splitlines()
        variants = [text]
        for _ in range(12):
            i = rng.randrange(1, len(lines))
            for start, end in matrix_spans(lines[i]):
                parts = lines[i][start:end].split(",")
                j = rng.randrange(len(parts))
                for spelled in [",".join(parts[1:])] + [
                        ",".join(parts[:j] + [s] + parts[j + 1:])
                        for s in rng.sample(respellings(parts[j]), 3)]:
                    line = lines[i][:start] + spelled + lines[i][end:]
                    variants.append("\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n")
        for variant in variants:
            got = outcome(read_any, variant)
            with monkeypatch.context() as patch:
                patch.setattr(formats, "_parse_matrix", whole_token_matrix)
                want = outcome(read_any, variant)
            assert got == want, variant


@TAGS
def test_read_series_parses_each_entry_text_once(tag, monkeypatch):
    rng = random.Random(3300 - tag.d)
    for g in (1, 2, 3):
        f = random_series(rng, g, tag, True)
        text = write_series(f)
        entries = {e for t in f.coeffs for e in t.to_text().split(",")}
        with monkeypatch.context() as patch:
            parses = [counted(patch, module, "_parse_token") for module in (formats, hermitian)]
            assert formats.read_series(text) == f
        assert sum(c["_parse_token"] for c in parses) == len(entries)


@pytest.mark.parametrize("g, d", [(1, -1), (3, -1), (2, -3)], ids=["g1", "g3", "d-3"])
def test_symmetrize_rejects_generators_of_another_size_or_field(g, d):
    tag = make_field(-1)
    f = FourierSeries(2, 4, tag, 3, {HermMatrix.identity(2, tag): (FieldElement.one(tag),)})
    for check in (symmetrize, check_symmetry):
        with pytest.raises(ValueError, match="^generator size or field mismatch$"):
            check(f, gl_generators(g, make_field(d)))
