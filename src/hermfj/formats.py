"""Line-oriented text formats for series, tables, families, and theta
component bundles.

All writers emit records in the canonical enumeration order and all numbers
in lowest terms, so identical values always serialize to identical bytes;
readers parse exactly and reject anything malformed with the line number,
also a record whose key the public constructor rejects (its
`errors.RecordError` names the record), and a header value it rejects (at
line 1, with the constructor's message).  Surrounding whitespace on a line
is ignored, and blank lines are skipped.
A reader parses, and so validates, each distinct text once per call (any
error is raised at its first occurrence), and rejects a repeated key.  The
FJFAM writer reads the blocks off the family's assembled keys, as ints.  An
HJF table holds each r as y = sqrt(D) r in O^g: the reader parses r texts
straight to ints, and the writer prints |D| r = -sqrt(D) y over |D|.  Each
writer renders each distinct key matrix once, and the HJF writer each r
and each coefficient vector.  An HJC class rep whose text is the canonical
text of its class is matched by that text, with no parse; any other
spelling is parsed and checked by the `CosetClass` constructor.
Each distinct matrix entry text, too, is parsed once per read.

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
naming each class by its canonical rep, as `ThetaComponentVector` requires;
its header trunc is the htrunc of class 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd

from .errors import ParseError, RecordError
from .ffj import FJFamily
from .field import FieldElement, FieldTag, _parse_token, make_field
from .hermitian import CosetClass, HermMatrix, _entries_text, _text_order, delta_classes
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


def _make_tag(text: str) -> FieldTag:
    try:
        return make_field(int(text))
    except ValueError as exc:
        raise ParseError(str(exc), 1) from exc


#: the header fields of each format, in order
HEADER_FIELDS = {
    "FJS v1": ("d", "g", "k", "trunc", "dim"),
    "HJF v1": ("d", "g", "k", "m", "trunc", "dim"),
    "FJFAM v1": ("d", "g", "l", "k", "trunc", "dim"),
    "HJC v1": ("d", "g", "k", "m", "trunc", "dim"),
}


def _header_line(magic: str, *values) -> str:
    """The header line of the format `magic`, its fields taking `values` in
    the order of `HEADER_FIELDS[magic]`."""
    return "; ".join([magic] + ["%s=%s" % fv for fv in zip(HEADER_FIELDS[magic], values)])


def read_header(text: str, magic: str) -> dict:
    """The header fields of `text`, a file in the format `magic`, by name,
    with the header errors of that format's reader: d as a field tag, trunc
    as a rational and the others as ints.  Splits off only the first line:
    `splitlines` of the text before the first newline starts as that of the
    whole text, unless that part is empty."""
    end = text.find("\n")
    first = (text if end < 0 else text[:end]).splitlines()[:1] or ([""] if text else [])
    return dict(zip(HEADER_FIELDS[magic], _parse_header(first, magic)))


def _parse_header(lines: list[str], magic: str) -> list:
    """The values of the header fields on the first of `lines`, the lines of
    a file, in the order of `HEADER_FIELDS[magic]`."""
    fields = HEADER_FIELDS[magic]
    if not lines:
        raise ParseError("empty input", 1)
    parts = [p.strip() for p in lines[0].split(";")]
    if not parts or parts[0] != magic:
        raise ParseError("expected %r header" % magic, 1)
    if len(parts) != len(fields) + 1:
        raise ParseError("header needs fields %s" % "; ".join(fields), 1)
    values = []
    for want, got in zip(fields, parts[1:]):
        key, eq, value = got.partition("=")
        if eq != "=" or key != want:
            raise ParseError("expected header field %r, got %r" % (want, got), 1)
        values.append(value)
    return [_make_tag(v) if f == "d" else _parse_q(v, 1) if f == "trunc" else _parse_int(v, 1)
            for f, v in zip(fields, values)]


def _body(lines: list[str]):
    """(line number, stripped text) of each nonblank line after the header."""
    for i, raw in enumerate(lines[1:], start=2):
        raw = raw.strip()
        if raw:
            yield i, raw


def _split_labelled(raw: str, label: str, line: int) -> tuple[str, str]:
    """The matrix and value texts of a record '<label> = <matrix> ; c = <values>'."""
    left, sep, right = raw.partition(" ; c = ")
    if sep == "" or not left.startswith(label + " = "):
        raise ParseError("expected '%s = <matrix> ; c = <values>'" % label, line)
    return left[len(label) + 3:], right


def _split_pair(raw: str, line: int) -> tuple[str, str, str]:
    """The n, r and value texts of a record '(<n> ; <r>) = <values>'."""
    if not raw.startswith("("):
        raise ParseError("record must start with '('", line)
    close = raw.find(") = ")
    if close < 0:
        raise ParseError("record needs ') = '", line)
    n_text, sep, r_text = raw[1:close].partition(" ; ")
    if sep == "":
        raise ParseError("expected '(<n> ; <r>) = <values>'", line)
    return n_text, r_text, raw[close + 4:]


def _parse_matrix(text: str, g: int, tag: FieldTag, line: int, tokens: dict) -> HermMatrix:
    """`HermMatrix.from_text`, with each distinct entry text parsed once into `tokens`."""
    parts = text.split(",")
    try:
        if len(parts) != g * g:  # from_text raises the count error
            return HermMatrix.from_text(text, g, tag)
        cells = [tokens[p] if p in tokens else tokens.setdefault(p, _parse_token(p)) for p in parts]
        return HermMatrix._from_cells(cells, g, tag)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc


def _parse_vector(text: str, count: int, tag: FieldTag, line: int, elements=None,
                  parse=FieldElement.from_text):
    """The `count` elements of `text`, each read by `parse(text, tag)`.
    With an `elements` map kept for one read, each distinct element text is
    parsed once."""
    parts = text.strip().split(",")
    if len(parts) != count:
        raise ParseError("expected %d elements, got %d" % (count, len(parts)), line)
    try:
        if elements is None:
            return tuple([parse(p, tag) for p in parts])
        elements.update((p, parse(p, tag)) for p in parts if p not in elements)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc
    return tuple(elements[p] for p in parts)


def _token_ints(text: str, _tag: FieldTag) -> tuple[int, int, int]:
    """(p, q, den) for the element (p + q*w)/den that `text` names, in
    lowest terms, straight from `_parse_token`: an HJF r component."""
    p, q, den = _parse_token(text)
    c = gcd(p, q, den)
    return p // c, q // c, den // c


def _interned(parse, tag: FieldTag, **maps):
    """`parse(text, size, tag, line, **maps)` on the stripped text, once per
    distinct (text, size) within one read: a repeat gets the object its
    first occurrence parsed to, and an invalid text raises at its first
    occurrence.  Each reader makes one per role, with any `maps` the role
    shares between texts, so the maps die with the call."""
    seen: dict[tuple[str, int], object] = {}

    def get(text: str, size: int, line: int):
        key = (text.strip(), size)
        value = seen.get(key)
        if value is None:
            value = seen[key] = parse(key[0], size, tag, line, **maps)
        return value

    return get


def _construct(make, data, record_lines: list[int], records=None):
    """`make(data)`, a public constructor on what was read; a rejection is
    raised as a ParseError: a `RecordError` at the line of the record it
    names, `record_lines[i]` being the line of the i-th of `records` in
    constructor order, and any other at line 1, the header.  `records`
    lists the records of `data` when they are not its keys.  A reader calls
    it on empty `data` right after the header, so that a header value the
    constructor rejects fails at line 1."""
    try:
        return make(data)
    except ValueError as exc:
        line = 1
        if isinstance(exc, RecordError):
            line = record_lines[list(data if records is None else records).index(exc.record)]
        raise ParseError(str(exc), line) from exc


def _vec_text(vec) -> str:
    return ",".join(x.to_text() for x in vec)


# ----------------------------------------------------------------------
# FJS


def write_series(f: FourierSeries) -> str:
    """Records sort as `_canonical_order` sorts the keys, each t rendered once."""
    lines = [_header_line("FJS v1", f.tag.d, f.g, f.k, f.trunc, f.dim)]
    order = _text_order(f.coeffs)
    # each t has its own text, so the sort never compares vectors
    lines += ["t = %s ; c = %s" % (t_order[1], _vec_text(vec))
              for t_order, vec in sorted((order[t], vec) for t, vec in f.coeffs.items())]
    return "\n".join(lines) + "\n"


def read_series(text: str) -> FourierSeries:
    lines = text.splitlines()
    tag, g, k, trunc, dim = _parse_header(lines, "FJS v1")
    make = partial(FourierSeries, g, k, tag, trunc, dim=dim)
    _construct(make, {}, [])
    matrix, vector = _interned(_parse_matrix, tag, tokens={}), _interned(_parse_vector, tag)
    coeffs, record_lines = {}, []
    for i, raw in _body(lines):
        t_text, value = _split_labelled(raw, "t", i)
        t = matrix(t_text, g, i)
        if t in coeffs:
            raise ParseError("repeated key t = %s" % t.to_text(), i)
        coeffs[t] = vector(value, dim, i)
        record_lines.append(i)
    return _construct(make, coeffs, record_lines)


# ----------------------------------------------------------------------
# HJF


def write_jacobi(t: JacobiTable) -> str:
    """Prints the records of `JacobiTable._records`, in the canonical order:
    each distinct n is rendered once, each distinct r once, from the ints
    X = |D| r by `_entries_text`, and each coefficient vector object once,
    as a theta table shares the vector of each n' among its keys."""
    lines = [_header_line("HJF v1", t.tag.d, t.g, t.k, t.m, t.trunc, t.dim)]
    disc, r_texts, vec_texts = abs(t.tag.disc), {}, {}
    for (_trace, n_text), x, _n, y, vec in t._records():
        r_text = r_texts.get(y)
        if r_text is None:
            r_text = r_texts[y] = _entries_text(zip(x[::2], x[1::2]), disc)
        # by id: each vec lives in the table for the call, and hashing it
        # would hash its elements
        v_text = vec_texts.get(id(vec))
        if v_text is None:
            v_text = vec_texts[id(vec)] = _vec_text(vec)
        lines.append("(%s ; %s) = %s" % (n_text, r_text, v_text))
    return "\n".join(lines) + "\n"


def read_jacobi(text: str) -> JacobiTable:
    """Parses each distinct r text straight to ints (`_token_ints`); the
    table checks them as its constructor checks `FieldElement`s."""
    lines = text.splitlines()
    tag, g, k, m, trunc, dim = _parse_header(lines, "HJF v1")
    make = partial(JacobiTable._from_parsed, g, k, m, tag, trunc, dim=dim)
    _construct(make, {}, [])
    matrix, vector = _interned(_parse_matrix, tag, tokens={}), _interned(_parse_vector, tag)
    r_vector = _interned(partial(_parse_vector, parse=_token_ints), tag)
    coeffs, record_lines = {}, []
    for i, raw in _body(lines):
        n_text, r_text, value = _split_pair(raw, i)
        key = (matrix(n_text, g, i), r_vector(r_text, g, i))
        if key in coeffs:
            raise ParseError("repeated key (%s ; %s)" % (key[0].to_text(), ",".join(
                _entries_text([(p, q)], den) for p, q, den in key[1])), i)
        coeffs[key] = vector(value, dim, i)
        record_lines.append(i)
    return _construct(make, coeffs, record_lines)


# ----------------------------------------------------------------------
# FJFAM


def write_family(fam: FJFamily) -> str:
    """Prints the blocks of `FJFamily._blocks`, read off the assembled keys:
    each distinct n and m is rendered once, and each r straight from the
    ints of its key.  The indices, and the records of an index by n, sort
    as `_canonical_order` sorts matrices; records with equal n sort by the
    text of r."""
    lines = [_header_line("FJFAM v1", fam.tag.d, fam.g, fam.l, fam.k, fam.trunc, fam.dim)]
    blocks = fam._blocks()
    order = _text_order(chain(blocks, (n for records in blocks.values() for n, *_ in records)))
    for m in sorted(blocks, key=order.__getitem__):
        lines.append("[index m = %s]" % order[m][1])
        # (n, r) is unique within an index, so the sort never compares vectors
        records = sorted((order[n], _entries_text(zip(r[::2], r[1::2]), den), vec)
                         for n, r, den, vec in blocks[m])
        lines += ["(%s ; %s) = %s" % (n_order[1], r_text, _vec_text(vec))
                  for n_order, r_text, vec in records]
    return "\n".join(lines) + "\n"


def _rmat_text(r) -> str:
    return ",".join(x.to_text() for row in r for x in row)


def read_family(text: str) -> FJFamily:
    lines = text.splitlines()
    tag, g, l, k, trunc, dim = _parse_header(lines, "FJFAM v1")
    make = partial(FJFamily, g, l, k, tag, trunc, dim=dim)
    _construct(make, {}, [])
    a = g - l

    def parse_r(r_text, count, r_tag, line):  # the a x l matrix r, row-major
        flat = _parse_vector(r_text, count, r_tag, line)
        return tuple(flat[row * l:(row + 1) * l] for row in range(a))

    index, matrix = (_interned(_parse_matrix, tag, tokens={}) for _role in range(2))
    r_matrix, vector = _interned(parse_r, tag), _interned(_parse_vector, tag)
    tables: dict[HermMatrix, dict] = {}
    record_lines: list[int] = []
    current = None
    for i, raw in _body(lines):
        if raw.startswith("[index m = ") and raw.endswith("]"):
            m = index(raw[len("[index m = ") : -1], l, i)
            if m in tables:
                raise ParseError("repeated section [index m = %s]" % m.to_text(), i)
            current = tables[m] = {}
            continue
        if current is None:
            raise ParseError("record before any [index m = ...] section", i)
        n_text, r_text, value = _split_pair(raw, i)
        key = (matrix(n_text, a, i), r_matrix(r_text, a * l, i))
        if key in current:
            raise ParseError("repeated key (%s ; %s) in [index m = %s]"
                             % (key[0].to_text(), _rmat_text(key[1]), m.to_text()), i)
        current[key] = vector(value, dim, i)
        record_lines.append(i)
    records = ((m, key) for m, body in tables.items() for key in body)
    return _construct(make, tables, record_lines, records)


# ----------------------------------------------------------------------
# HJC (theta component bundles)


def write_components(v: ThetaComponentVector) -> str:
    """Each section's records sort as `_canonical_order` sorts its keys,
    with each distinct n of the bundle rendered once."""
    series = [v.components[s] for s in v.classes]
    sample = series[0]
    lines = [_header_line("HJC v1", sample.tag.d, sample.g, sample.k, v.m, sample.trunc,
                          sample.dim)]
    order = _text_order(n for h in series for n in h.coeffs)
    for i, (s, h) in enumerate(zip(v.classes, series)):
        lines.append("[class %d; rep = %s; htrunc = %s]" % (i, s.to_text(), h.trunc))
        lines += ["n = %s ; c = %s" % (n_order[1], _vec_text(vec))
                  for n_order, vec in sorted((order[n], vec) for n, vec in h.coeffs.items())]
    return "\n".join(lines) + "\n"


def read_components(text: str) -> ThetaComponentVector:
    """Builds each section's series when the next section or the end of the
    file is reached, so errors come in file order.  The class list is
    checked by the `ThetaComponentVector` constructor; a class out of place
    is reported at its section's line.  A rep that is the canonical text of
    its section's class is that class of `delta_classes`, unparsed."""
    lines = text.splitlines()
    tag, g, k, m, trunc, dim = _parse_header(lines, "HJC v1")
    if m < 1:
        raise ParseError("index m must be >= 1", 1)

    def component(h_trunc):
        return partial(FourierSeries, g, k, tag, h_trunc, dim=dim, semi_integral=False)

    _construct(component(trunc), {}, [])
    # Delta_g(m) is listed only if the lines can hold its (m^2 |D|)^g
    # sections, which |D| >= 3 rules out for g >= size.bit_length(); a bundle
    # short of sections fails the constructor's count check unlisted
    size = len(lines)
    listed = g < size.bit_length() and (m * m * abs(tag.disc)) ** g < size
    canonical = delta_classes(g, m, tag) if listed else ()
    matrix, vector = _interned(_parse_matrix, tag, tokens={}), _interned(_parse_vector, tag)
    rep_elements: dict[str, FieldElement] = {}
    htruncs: dict[str, Fraction] = {}  # each distinct htrunc text is parsed once
    classes: list[CosetClass] = []
    class_lines: list[int] = []
    components: dict[CosetClass, FourierSeries] = {}
    for i, raw in _body(lines):
        if raw.startswith("[class "):
            if classes:
                components[classes[-1]] = _construct(component(h_trunc), body, body_lines)
            if not raw.endswith("]"):
                raise ParseError("unterminated class header", i)
            parts = [p.strip() for p in raw[1:-1].split(";")]
            if len(parts) != 3 or not parts[1].startswith("rep = ") \
                    or not parts[2].startswith("htrunc = "):
                raise ParseError("bad class header", i)
            if parts[0] != "class %d" % len(classes):
                raise ParseError("expected section 'class %d'" % len(classes), i)
            rep_text, at = parts[1][len("rep = "):], len(classes)
            if at < len(canonical) and rep_text == canonical[at].to_text():
                classes.append(canonical[at])  # the text is the check
            else:
                rep = _parse_vector(rep_text, g, tag, i, rep_elements)
                try:
                    classes.append(CosetClass(m, rep, tag))
                except ValueError as exc:
                    raise ParseError(str(exc), i) from exc
            class_lines.append(i)
            h_text = parts[2][len("htrunc = "):]
            h_trunc = htruncs.get(h_text)
            if h_trunc is None:
                h_trunc = htruncs[h_text] = _parse_q(h_text, i)
            body, body_lines = {}, []
            continue
        if not classes:
            raise ParseError("record before any [class ...] section", i)
        n_text, value = _split_labelled(raw, "n", i)
        n = matrix(n_text, g, i)
        if n in body:
            raise ParseError("repeated key n = %s in class %d" % (n.to_text(), len(classes) - 1), i)
        body[n] = vector(value, dim, i)
        body_lines.append(i)
    if not classes:
        raise ParseError("bundle holds no classes", 1)
    components[classes[-1]] = _construct(component(h_trunc), body, body_lines)
    bundle = _construct(partial(ThetaComponentVector, m, classes), components, class_lines,
                        range(len(classes)))
    # the writer puts the class-0 htrunc in the header
    if trunc != components[classes[0]].trunc:
        raise ParseError("header trunc=%s must equal the class 0 htrunc %s"
                         % (trunc, components[classes[0]].trunc), 1)
    return bundle


# ----------------------------------------------------------------------
# dispatch


def detect(text: str) -> str:
    lines = text.splitlines()
    first = lines[0] if lines else ""
    magic = first.split(";")[0].strip()
    if magic not in HEADER_FIELDS:
        raise ParseError("unknown format %r" % magic, 1)
    return magic


def read_any(text: str):
    return {"FJS v1": read_series, "HJF v1": read_jacobi, "FJFAM v1": read_family,
            "HJC v1": read_components}[detect(text)](text)


def write_any(obj) -> str:
    for cls, writer in ((FourierSeries, write_series), (JacobiTable, write_jacobi),
                        (FJFamily, write_family), (ThetaComponentVector, write_components)):
        if isinstance(obj, cls):
            return writer(obj)
    raise TypeError("no writer for %r" % type(obj).__name__)
