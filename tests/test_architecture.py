"""Layout rules of the package that no behaviour test would notice.

The coordinate arithmetic of O has one home: `field` defines it on int
pairs, and every other module calls those helpers.  So the basis constants
`_norm_s` and `_norm_t` of a `FieldTag` are read nowhere but in `field.py`.

The FJFAM writer reads the blocks off the assembled keys: `formats.py`
names neither `split_block` nor the `tables` view.  The cogenus-1 slice
reads its n and y = sqrt(D) r off the key ints too: `ffj._cogenus_one_slice`
does not name `split_block`.  `ffj` reads the cogenus-1 corner of its keys
in one place: `ffj.py` names `._key` only inside `_corner`, and it builds
its shears by `UnitMatrix.elementary`, not from `linalg.identity` rows.

Code that no library or CLI path reaches is not kept in the library:
`in_same_class`, `block_key`, `sqrt_disc`, `UnitMatrix.conj_transpose_entries`,
`HermMatrix.sort_key` and the `support` views of `FourierSeries` and
`JacobiTable` are gone, and their oracles live in the tests' `util`.

The orbit walks of `series` act on keys by the int maps of
`hermitian._congruence` alone: `series.py` names neither `gl_action` nor
`_int_coords`.  Both vanishing orders, of `series` and of `jacobi`, reach
the lattice through the one strict-cap search `hermitian._least_represented`
and never call `min_represented`, its one-key case.

Lattice searches have one home too: `field._lattice_points` is called only
in `field` and `hermitian`, and the points of a class of Delta_g(m) come
from `hermitian._class_points` alone.  So `jacobi` imports no search from
`field`, nor the class reductions `reduce_class` and `small_rep`.
Strict decomposition walks the points of that one search against the keys:
`theta_decompose` names neither `theta_coeffs` nor `bisect_right`, and
`jacobi.py` imports no `bisect`.

Block and diagonal matrices over E have one assembler each, `linalg.blocks`
and `linalg.diagonal`: `unitary.py` assigns no matrix entry by index and
defines no `blank` rows; `linalg.identity`, `HermMatrix.diagonal` and
`UnitMatrix.diagonal_units` call `diagonal`.  The group-element
constructors test their entries by the one `linalg._integral_entries`,
with no loop of their own.
"""

import ast
import re
from pathlib import Path

import hermfj

SRC = Path(hermfj.__file__).parent


def test_norm_constants_are_read_only_in_field():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "field.py":
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(r"_norm_[st]\b", line):
                found.append("%s:%d: %s" % (path.name, number, line.strip()))
    assert not found, "\n".join(found)


#: the search kernels of `field` and the searches built on them
FIELD_SEARCHES = {"_coset_vectors", "_lattice_points", "_ldl_pivots", "_norm_levels",
                  "_search_levels", "coset_points"}


def lines_matching(pattern: str, skip: tuple[str, ...]) -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in skip:
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(pattern, line):
                found.append("%s:%d: %s" % (path.name, number, line.strip()))
    return found


def test_lattice_points_is_called_only_in_field_and_hermitian():
    found = lines_matching(r"\b_lattice_points\b", ("field.py", "hermitian.py"))
    assert not found, "\n".join(found)


def test_the_coset_vector_search_is_gone():
    found = lines_matching(r"\b_coset_vectors\b", ())
    assert not found, "\n".join(found)


#: names deleted because no library or CLI path reached them, or because
#: another implementation of the same step replaced them (`_leading_block`,
#: `_index_blocks`; `_rejected` is folded into `formats._construct`); each
#: unreached or replaced one has its former body, or a rewrite, in the
#: tests' `util`.  `sort_key` and
#: `support` are pinned per class, as `FieldElement.sort_key` stays and
#: "support" names the keys of a series in prose.
RETIRED_NAMES = (r"\b(in_same_class|block_key|sqrt_disc|conj_transpose_entries|_leading_block"
                 r"|_index_blocks|_rejected)\b|\.support\b")
RETIRED_METHODS = {("HermMatrix", "sort_key"), ("FourierSeries", "support"),
                   ("JacobiTable", "support")}


def test_the_unreached_surface_is_gone():
    found = lines_matching(RETIRED_NAMES, ())
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                defined = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
                defined |= {target.id for node in cls.body if isinstance(node, ast.Assign)
                            for target in node.targets if isinstance(target, ast.Name)}
                found += ["%s.%s" % (cls.name, name) for name in sorted(defined)
                          if (cls.name, name) in RETIRED_METHODS]
    assert not found, "\n".join(found)


def test_jacobi_imports_no_search_and_no_class_reduction():
    tree = ast.parse((SRC / "jacobi.py").read_text(encoding="utf-8"))
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    banned = {("field", name) for name in FIELD_SEARCHES}
    banned |= {("hermitian", "reduce_class"), ("hermitian", "small_rep"), (None, "field")}
    assert not imported & banned, imported & banned


def test_strict_decomposition_builds_no_theta_table_and_counts_nothing():
    tree = ast.parse((SRC / "jacobi.py").read_text(encoding="utf-8"))
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "theta_decompose")
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    assert not names & {"theta_coeffs", "bisect_right"}, names & {"theta_coeffs", "bisect_right"}
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "bisect" not in modules


def test_formats_reads_no_split_tables():
    text = (SRC / "formats.py").read_text(encoding="utf-8")
    found = [line.strip() for line in text.splitlines()
             if re.search(r"\bsplit_block\b|\.tables\b", line)]
    assert not found, "\n".join(found)


def test_series_acts_only_by_congruence_maps():
    text = (SRC / "series.py").read_text(encoding="utf-8")
    found = [line.strip() for line in text.splitlines()
             if re.search(r"\bgl_action\b|\b_int_coords\b", line)]
    assert not found, "\n".join(found)


def test_cogenus_one_slice_splits_no_block():
    tree = ast.parse((SRC / "ffj.py").read_text(encoding="utf-8"))
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_cogenus_one_slice")
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    assert "split_block" not in names


def test_ffj_reads_keys_only_in_the_corner_selector():
    tree = ast.parse((SRC / "ffj.py").read_text(encoding="utf-8"))
    corner = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_corner")
    inside = {id(node) for node in ast.walk(corner)}
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "_key" and id(node) not in inside]
    assert not found, found
    assert any(isinstance(node, ast.Attribute) and node.attr == "_key" for node in ast.walk(corner))


def test_ffj_builds_no_identity_rows():
    found = [line.strip() for line in (SRC / "ffj.py").read_text(encoding="utf-8").splitlines()
             if re.search(r"\blinalg\.identity\b", line)]
    assert not found, "\n".join(found)


def test_vanishing_orders_share_one_search():
    # both vanishing orders are `hermitian._least_represented`, the search
    # whose one-key case `min_represented` is
    for name in ("series.py", "jacobi.py"):
        text = (SRC / name).read_text(encoding="utf-8")
        assert not re.search(r"\bmin_represented\(", text), name
        methods = [node for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.FunctionDef) and node.name == "vanishing_order"]
        assert methods, name
        for method in methods:
            called = {node.func.id for node in ast.walk(method)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            assert "_least_represented" in called, name


def function(path: str, *names: str) -> ast.FunctionDef:
    """The function `names[-1]`, inside the classes `names[:-1]`, of `path`."""
    node = ast.parse((SRC / path).read_text(encoding="utf-8"))
    for name in names:
        node = next(n for n in node.body
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name)
    return node


def called(node: ast.AST) -> set[str]:
    """The names called in node, `f` or `module.f`."""
    out = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            f = call.func
            if isinstance(f, ast.Name):
                out.add(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                out.add("%s.%s" % (f.value.id, f.attr))
    return out


def test_unitary_assigns_no_entry_by_index():
    tree = ast.parse((SRC / "unitary.py").read_text(encoding="utf-8"))
    targets = [t for node in ast.walk(tree) if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in ast.walk(tree)
                if isinstance(node, (ast.AugAssign, ast.AnnAssign))]
    found = [sub.lineno for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Subscript)]
    assert not found, found
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "blank"]


def test_diagonal_builders_call_the_one_diagonal():
    assert "diagonal" in called(function("linalg.py", "identity"))
    assert "linalg.diagonal" in called(function("hermitian.py", "HermMatrix", "diagonal"))
    assert "linalg.diagonal" in called(function("hermitian.py", "UnitMatrix", "diagonal_units"))


def test_group_elements_check_their_entries_in_one_place():
    for path, cls in (("hermitian.py", "UnitMatrix"), ("unitary.py", "UnitaryElement"),
                      ("unitary.py", "HeisenbergElement")):
        init = function(path, cls, "__init__")
        assert "linalg._integral_entries" in called(init), cls
        assert not [node for node in ast.walk(init) if isinstance(node, ast.For)], cls
