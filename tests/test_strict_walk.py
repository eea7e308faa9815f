"""Strict theta decomposition walks every (n', r) pair against the keys.

With `strict`, `jacobi.theta_decompose` lists the points of the classes
with keys by one `hermitian._class_points` search.  Per class, it looks up
each pair (n', r) with tr(n' + r m^-1 r*) <= trunc among the (n', y) of
the keys, in the key order of `theta_coeffs`, and builds no theta table.

The outcome (the components, or the message and witness of the first
failure) is compared with two predecessors kept in `util`.  The first is
the pair count and theta-table walk it replaced,
`util.theta_decompose_by_key_diffs`.  The second is the probes,
`util.theta_decompose_by_probes`.  The comparison runs in all five fields
at g = 1 and 2.  The work on a class short of keys is counted as well.
"""

from __future__ import annotations

import random

import pytest

from hermfj import cli, jacobi
from hermfj.errors import ConsistencyError
from hermfj.field import FieldElement, make_field
from hermfj.formats import write_jacobi
from hermfj.hermitian import HermMatrix, delta_classes, enumerate_semi_integral, small_rep
from hermfj.jacobi import JacobiTable, ThetaComponentVector, shift_matrix, theta_decompose, \
    theta_recompose
from hermfj.series import FourierSeries
from util import ALL_D, distant_break, theta_decompose_by_key_diffs, theta_decompose_by_probes

#: (g, m, trunc) of the random tables
SHAPES = ((1, 1, 4), (1, 2, 3), (2, 1, 2))


def random_table(rng, tag, g: int, m: int, trunc: int) -> JacobiTable:
    """The recomposition of random bodies on the zero class and two other
    classes of Delta_g(m), every other class zero."""
    classes = delta_classes(g, m, tag)
    keys = enumerate_semi_integral(g, trunc, tag)
    chosen = {0} | set(rng.sample(range(1, len(classes)), min(2, len(classes) - 1)))
    comps = {}
    for i, s in enumerate(classes):
        h_trunc = trunc - shift_matrix(small_rep(s), m).trace()
        body = {}
        if i in chosen:
            for n in keys:
                if n.trace() <= h_trunc and rng.random() < 0.6:
                    body[n] = (FieldElement(rng.randint(1, 4), rng.randint(-1, 1), tag),)
        comps[s] = FourierSeries(g, 9, tag, h_trunc, body, semi_integral=False)
    return theta_recompose(ThetaComponentVector(m, classes, comps), trunc)


def without(table: JacobiTable, dropped) -> JacobiTable:
    coeffs = {key: vec for key, vec in table.coeffs.items() if key != dropped}
    return JacobiTable(table.g, table.k, table.m, table.tag, table.trunc, coeffs)


def strict_outcome(f, phi):
    try:
        return "ok", f(phi, True)
    except ConsistencyError as exc:
        return "error", str(exc), exc.witness


def assert_same_outcome(phi):
    got = strict_outcome(theta_decompose, phi)
    assert got == strict_outcome(theta_decompose_by_key_diffs, phi)
    assert got == strict_outcome(theta_decompose_by_probes, phi)
    return got


def item_one_table(trunc) -> JacobiTable:
    """The sparse table over Q(i) at m = 1 with the two keys (0; 0) and
    (1; 1); strict decomposition names r = -1 at norm 1."""
    tag = make_field(-1)
    one = (FieldElement.one(tag),)
    return JacobiTable(1, 10, 1, tag, trunc, {
        (HermMatrix.from_rational(0, tag), (FieldElement.zero(tag),)): one,
        (HermMatrix.from_rational(1, tag), (FieldElement.one(tag),)): one})


@pytest.mark.parametrize("d", ALL_D)
def test_strict_outcomes_match_the_pair_count_and_the_probes(d):
    tag = make_field(d)
    rng = random.Random(2800 - d)
    failed = 0
    for g, m, trunc in SHAPES:
        table = random_table(rng, tag, g, m, trunc)
        assert assert_same_outcome(table)[0] == "ok"
        keys = list(table.coeffs)
        # the deepest key (largest norm of r) and a sample of others dropped
        deepest = max(keys, key=lambda key: (sum(x.norm() for x in key[1]), rng.random()))
        for dropped in [deepest] + rng.sample(keys, min(6, len(keys))):
            failed += assert_same_outcome(without(table, dropped))[0] == "error"
    assert failed


@pytest.mark.parametrize("d", ALL_D)
def test_distant_breaks_name_the_witness_of_the_pair_count(d):
    tag = make_field(d)
    for m in (1, 2):
        for largest_trace in (False, True):
            table, witness = distant_break(tag, m, largest_trace)
            got = assert_same_outcome(table)
            assert got[0] == "error" and got[2] == witness, (m, largest_trace)


def test_the_sparse_table_fails_at_minus_one_on_the_command_line(tmp_path, capsys):
    table = item_one_table(1000)
    got = assert_same_outcome(table)
    tag = table.tag
    zero, minus_one = (FieldElement.zero(tag),), (FieldElement(-1, 0, tag),)
    assert got[2] == (HermMatrix.from_rational(0, tag), zero, minus_one)
    src = tmp_path / "sparse.hjf"
    src.write_text(write_jacobi(table), encoding="ascii")
    out = tmp_path / "sparse.hjc"
    assert cli.run(["decompose", "--strict", "--in", str(src), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: consistency: " + got[1], "witness: 0/1+0/1*w | 0/1+0/1*w | -1/1+0/1*w"]


def counted(monkeypatch):
    """Counts the calls of `_class_points` and `theta_coeffs` by `jacobi`,
    and of `HermMatrix._combine`, while the context is open."""
    calls = {"_class_points": 0, "theta_coeffs": 0, "_combine": 0}

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for name in ("_class_points", "theta_coeffs"):
        monkeypatch.setattr(jacobi, name, counting(name, getattr(jacobi, name)))
    monkeypatch.setattr(HermMatrix, "_combine", counting("_combine", HermMatrix._combine))
    return calls


@pytest.mark.parametrize("d", ALL_D)
def test_a_short_class_is_walked_on_one_search_with_no_theta_table(d, monkeypatch):
    tag = make_field(d)
    tables = [distant_break(tag, m, largest)[0] for m in (1, 2) for largest in (False, True)]
    if d == -1:
        tables.append(item_one_table(1000))
    for table in tables:
        # plain decomposition makes pass 1 and the spare probes of each class
        with monkeypatch.context() as patch:
            plain = counted(patch)
            theta_decompose(table)
        with monkeypatch.context() as patch:
            strict = counted(patch)
            with pytest.raises(ConsistencyError, match="at representative"):
                theta_decompose(table, strict=True)
        assert plain == {"_class_points": 0, "theta_coeffs": 0, "_combine": plain["_combine"]}
        assert strict == {"_class_points": 1, "theta_coeffs": 0, "_combine": plain["_combine"]}
