"""Line-oriented text formats for series, tables, families, and theta
component bundles.

All writers emit records in the canonical enumeration order and all numbers
in lowest terms, so identical values always serialize to identical bytes;
readers parse exactly and reject anything malformed with the line number.

    FJS v1; d=<d>; g=<g>; k=<k>; trunc=<N>; dim=<v>
    t = <matrix> ; c = <elem>,<elem>,...

    HJF v1; d=<d>; g=<g>; k=<k>; m=<m>; trunc=<N>; dim=<v>
    (<n-matrix> ; <r-vector>) = <elem>,...

    FJFAM v1; d=<d>; g=<g>; l=<l>; k=<k>; trunc=<N>; dim=<v>
    [index m = <matrix>]
    (<n-matrix> ; <r-matrix>) = <elem>,...

    HJC v1; d=<d>; g=<g>; k=<k>; m=<m>; trunc=<N>; dim=<v>
    [class <i>; rep = <vector>; htrunc = <Q>]
    n = <matrix> ; c = <elem>,...

Matrices are row-major, comma-separated field elements in the "a/b+c/d*w"
form; <Q> is a rational in lowest terms.  An HJC bundle has one section per
class of `delta_classes(g, m)`, numbered from 0 in that canonical order and
naming each class by its canonical rep; its header trunc is the htrunc of
class 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ParseError
from .ffj import FJFamily
from .field import FieldElement, FieldTag, make_field
from .hermitian import CosetClass, HermMatrix, delta_classes
from .jacobi import JacobiTable, ThetaComponentVector
from .series import FourierSeries


def _parse_q(text: str, line: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad rational %r" % text, line) from exc


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError("bad integer %r" % text, line) from exc


def _parse_header(line: str, magic: str, fields: Sequence[str]) -> dict:
    parts = [p.strip() for p in line.split(";")]
    if not parts or parts[0] != magic:
        raise ParseError("expected %r header" % magic, 1)
    if len(parts) != len(fields) + 1:
        raise ParseError("header needs fields %s" % "; ".join(fields), 1)
    out = {}
    for want, got in zip(fields, parts[1:]):
        key, eq, value = got.partition("=")
        if eq != "=" or key != want:
            raise ParseError("expected header field %r, got %r" % (want, got), 1)
        out[want] = value
    return out


def _parse_matrix(text: str, g: int, tag: FieldTag, line: int) -> HermMatrix:
    try:
        return HermMatrix.from_text(text.strip(), g, tag)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc


def _parse_vector(text: str, count: int, tag: FieldTag, line: int):
    parts = text.strip().split(",")
    if len(parts) != count:
        raise ParseError("expected %d elements, got %d" % (count, len(parts)), line)
    try:
        return tuple(FieldElement.from_text(p, tag) for p in parts)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc


def _vec_text(vec) -> str:
    return ",".join(x.to_text() for x in vec)


# ----------------------------------------------------------------------
# FJS


def write_series(f: FourierSeries) -> str:
    lines = [
        "FJS v1; d=%d; g=%d; k=%d; trunc=%s; dim=%d"
        % (f.tag.d, f.g, f.k, f.trunc, f.dim)
    ]
    for t in f.support():
        lines.append("t = %s ; c = %s" % (t.to_text(), _vec_text(f.coeffs[t])))
    return "\n".join(lines) + "\n"


def read_series(text: str) -> FourierSeries:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    h = _parse_header(lines[0], "FJS v1", ("d", "g", "k", "trunc", "dim"))
    tag = _make_tag(h["d"])
    g = _parse_int(h["g"], 1)
    k = _parse_int(h["k"], 1)
    trunc = _parse_q(h["trunc"], 1)
    dim = _parse_int(h["dim"], 1)
    coeffs = {}
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        left, sep, right = raw.partition(" ; c = ")
        if sep == "" or not left.startswith("t = "):
            raise ParseError("expected 't = <matrix> ; c = <values>'", i)
        t = _parse_matrix(left[4:], g, tag, i)
        coeffs[t] = _parse_vector(right, dim, tag, i)
    try:
        return FourierSeries(g, k, tag, trunc, coeffs, dim)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _make_tag(text: str) -> FieldTag:
    try:
        return make_field(int(text))
    except ValueError as exc:
        raise ParseError(str(exc), 1) from exc


# ----------------------------------------------------------------------
# HJF


def write_jacobi(t: JacobiTable) -> str:
    lines = [
        "HJF v1; d=%d; g=%d; k=%d; m=%d; trunc=%s; dim=%d"
        % (t.tag.d, t.g, t.k, t.m, t.trunc, t.dim)
    ]
    for key in t.support():
        n, r = key
        lines.append("(%s ; %s) = %s" % (n.to_text(), _vec_text(r), _vec_text(t.coeffs[key])))
    return "\n".join(lines) + "\n"


def read_jacobi(text: str) -> JacobiTable:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    h = _parse_header(lines[0], "HJF v1", ("d", "g", "k", "m", "trunc", "dim"))
    tag = _make_tag(h["d"])
    g = _parse_int(h["g"], 1)
    k = _parse_int(h["k"], 1)
    m = _parse_int(h["m"], 1)
    trunc = _parse_q(h["trunc"], 1)
    dim = _parse_int(h["dim"], 1)
    coeffs = {}
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        key_part, value = _split_record(raw, i)
        n_text, sep, r_text = key_part.partition(" ; ")
        if sep == "":
            raise ParseError("expected '(<n> ; <r>) = <values>'", i)
        n = _parse_matrix(n_text, g, tag, i)
        r = _parse_vector(r_text, g, tag, i)
        coeffs[(n, r)] = _parse_vector(value, dim, tag, i)
    try:
        return JacobiTable(g, k, m, tag, trunc, coeffs, dim)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _split_record(raw: str, line: int) -> tuple[str, str]:
    raw = raw.strip()
    if not raw.startswith("("):
        raise ParseError("record must start with '('", line)
    close = raw.find(") = ")
    if close < 0:
        raise ParseError("record needs ') = '", line)
    return raw[1:close], raw[close + 4 :]


# ----------------------------------------------------------------------
# FJFAM


def write_family(fam: FJFamily) -> str:
    lines = [
        "FJFAM v1; d=%d; g=%d; l=%d; k=%d; trunc=%s; dim=%d"
        % (fam.tag.d, fam.g, fam.l, fam.k, fam.trunc, fam.dim)
    ]
    for m in fam.indices():
        lines.append("[index m = %s]" % m.to_text())
        body = fam.tables[m]
        for (n, r) in sorted(body, key=lambda key: (key[0].trace(), key[0].to_text(),
                                                    _rmat_text(key[1]))):
            lines.append("(%s ; %s) = %s" % (n.to_text(), _rmat_text(r), _vec_text(body[(n, r)])))
    return "\n".join(lines) + "\n"


def _rmat_text(r) -> str:
    return ",".join(x.to_text() for row in r for x in row)


def read_family(text: str) -> FJFamily:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    h = _parse_header(lines[0], "FJFAM v1", ("d", "g", "l", "k", "trunc", "dim"))
    tag = _make_tag(h["d"])
    g = _parse_int(h["g"], 1)
    l = _parse_int(h["l"], 1)
    k = _parse_int(h["k"], 1)
    trunc = _parse_q(h["trunc"], 1)
    dim = _parse_int(h["dim"], 1)
    a = g - l
    tables: dict[HermMatrix, dict] = {}
    current = None
    for i, raw in enumerate(lines[1:], start=2):
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith("[index m = ") and raw.endswith("]"):
            m = _parse_matrix(raw[len("[index m = ") : -1], l, tag, i)
            current = tables.setdefault(m, {})
            continue
        if current is None:
            raise ParseError("record before any [index m = ...] section", i)
        key_part, value = _split_record(raw, i)
        n_text, sep, r_text = key_part.partition(" ; ")
        if sep == "":
            raise ParseError("expected '(<n> ; <r>) = <values>'", i)
        n = _parse_matrix(n_text, a, tag, i)
        flat = _parse_vector(r_text, a * l, tag, i)
        r = tuple(tuple(flat[row * l + col] for col in range(l)) for row in range(a))
        current[(n, r)] = _parse_vector(value, dim, tag, i)
    try:
        return FJFamily(g, l, k, tag, trunc, tables, dim)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ----------------------------------------------------------------------
# HJC (theta component bundles)


def write_components(v: ThetaComponentVector) -> str:
    sample = v.components[v.classes[0]]
    lines = [
        "HJC v1; d=%d; g=%d; k=%d; m=%d; trunc=%s; dim=%d"
        % (sample.tag.d, sample.g, sample.k, v.m, sample.trunc, sample.dim)
    ]
    for i, s in enumerate(v.classes):
        h = v.components[s]
        lines.append("[class %d; rep = %s; htrunc = %s]" % (i, s.to_text(), h.trunc))
        for n in h.support():
            lines.append("n = %s ; c = %s" % (n.to_text(), _vec_text(h.coeffs[n])))
    return "\n".join(lines) + "\n"


def read_components(text: str) -> ThetaComponentVector:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    h = _parse_header(lines[0], "HJC v1", ("d", "g", "k", "m", "trunc", "dim"))
    tag = _make_tag(h["d"])
    g = _parse_int(h["g"], 1)
    k = _parse_int(h["k"], 1)
    m = _parse_int(h["m"], 1)
    if m < 1:
        raise ParseError("index m must be >= 1", 1)
    trunc = _parse_q(h["trunc"], 1)
    dim = _parse_int(h["dim"], 1)
    classes: list[CosetClass] = []
    class_lines: list[int] = []
    components: dict[CosetClass, FourierSeries] = {}
    pending: dict[HermMatrix, tuple] = {}
    pending_class = None
    pending_trunc = None

    def flush(line_no):
        nonlocal pending, pending_class, pending_trunc
        if pending_class is None:
            return
        try:
            series = FourierSeries(g, k, tag, pending_trunc, pending, dim,
                                   semi_integral=False)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
        classes.append(pending_class)
        components[pending_class] = series
        pending = {}
        pending_class = None
        pending_trunc = None

    for i, raw in enumerate(lines[1:], start=2):
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith("[class "):
            flush(i)
            inner = raw[1:-1] if raw.endswith("]") else None
            if inner is None:
                raise ParseError("unterminated class header", i)
            parts = [p.strip() for p in inner.split(";")]
            if len(parts) != 3 or not parts[1].startswith("rep = ") \
                    or not parts[2].startswith("htrunc = "):
                raise ParseError("bad class header", i)
            if parts[0] != "class %d" % len(classes):
                raise ParseError("expected section 'class %d'" % len(classes), i)
            rep = _parse_vector(parts[1][len("rep = "):], g, tag, i)
            if any(not x.is_dual_integral() for x in rep):
                raise ParseError("class representative must lie in the inverse different", i)
            pending_class = CosetClass(m, rep, tag)
            class_lines.append(i)
            pending_trunc = _parse_q(parts[2][len("htrunc = "):], i)
            continue
        if pending_class is None:
            raise ParseError("record before any [class ...] section", i)
        left, sep, right = raw.partition(" ; c = ")
        if sep == "" or not left.startswith("n = "):
            raise ParseError("expected 'n = <matrix> ; c = <values>'", i)
        n = _parse_matrix(left[4:], g, tag, i)
        pending[n] = _parse_vector(right, dim, tag, i)
    flush(len(lines) + 1)
    if not classes:
        raise ParseError("bundle holds no classes", 1)
    # compare counts before listing Delta_g(m), which has (m^2 |D|)^g classes
    want = (m * m * abs(tag.disc)) ** g
    if len(classes) != want:
        raise ParseError("expected %d class sections, got %d" % (want, len(classes)), 1)
    for i, (got, canonical) in enumerate(zip(classes, delta_classes(g, m, tag))):
        if got != canonical:
            raise ParseError("class %d: rep must be the canonical %s"
                             % (i, canonical.to_text()), class_lines[i])
    # the writer puts the class-0 htrunc in the header
    if trunc != components[classes[0]].trunc:
        raise ParseError("header trunc=%s must equal the class 0 htrunc %s"
                         % (trunc, components[classes[0]].trunc), 1)
    try:
        return ThetaComponentVector(m, classes, components)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ----------------------------------------------------------------------
# dispatch


MAGICS = ("FJS v1", "HJF v1", "FJFAM v1", "HJC v1")


def detect(text: str) -> str:
    lines = text.splitlines()
    first = lines[0] if lines else ""
    magic = first.split(";")[0].strip()
    if magic not in MAGICS:
        raise ParseError("unknown format %r" % magic, 1)
    return magic


def read_any(text: str):
    magic = detect(text)
    if magic == "FJS v1":
        return read_series(text)
    if magic == "HJF v1":
        return read_jacobi(text)
    if magic == "FJFAM v1":
        return read_family(text)
    return read_components(text)


def write_any(obj) -> str:
    if isinstance(obj, FourierSeries):
        return write_series(obj)
    if isinstance(obj, JacobiTable):
        return write_jacobi(obj)
    if isinstance(obj, FJFamily):
        return write_family(obj)
    if isinstance(obj, ThetaComponentVector):
        return write_components(obj)
    raise TypeError("no writer for %r" % type(obj).__name__)
