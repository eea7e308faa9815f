"""`UnitMatrix` is held on its int columns, and multiplies and inverts there.

`mul` is a `_pair_dot` of the rows of u with each column of v, and `inverse`
takes the columns of `linalg.inverse`; both build through `_trusted`, with
the determinant det u det v or conj(det u), and neither re-validates.
`util.unit_mul_by_mat_mul` and `util.unit_inverse_by_constructor`, the
former bodies through field-element rows and the validating constructor,
are the oracles, on random words in `gl_generators` in all five fields.
Their cost is pinned by call counts.
"""

import random

import pytest

from hermfj import linalg
from hermfj.field import FieldElement
from hermfj.hermitian import UnitMatrix
from hermfj.series import gl_generators
from util import all_tags, unit_inverse_by_constructor, unit_mul_by_mat_mul

TAGS = all_tags()
IDS = ["d%d" % t.d for t in TAGS]


def old_repr(u):
    """The former `UnitMatrix.__repr__`, on the entries."""
    return "UnitMatrix(%s, g=%d, d=%d)" % (
        ",".join(e.to_text() for row in u.entries for e in row), u.g, u.tag.d)


def assert_same_unit(got, oracle):
    assert got == oracle and hash(got) == hash(oracle)
    assert got.entries == oracle.entries
    assert got.det_unit == oracle.det_unit
    assert got._cols == oracle._cols
    assert repr(got) == old_repr(oracle)


def random_word(rng, gens, length):
    u = rng.choice(gens)
    for _ in range(length - 1):
        u = unit_mul_by_mat_mul(u, rng.choice(gens))
    return u


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
def test_unit_arithmetic_matches_the_field_element_oracles(tag):
    rng = random.Random(2300 - tag.d)
    for g in range(1, 7):
        gens = gl_generators(g, tag)
        for _ in range(8):
            u, v = (random_word(rng, gens, rng.randint(1, 6)) for _ in range(2))
            assert_same_unit(u.mul(v), unit_mul_by_mat_mul(u, v))
            assert_same_unit(u * v, unit_mul_by_mat_mul(u, v))
            inv = u.inverse()
            assert_same_unit(inv, unit_inverse_by_constructor(u))
            assert_same_unit(inv.mul(u), UnitMatrix.identity(g, tag))
            assert (u == v) == (u.entries == v.entries)
            assert UnitMatrix(u.entries, tag) == u and u != UnitMatrix.identity(g + 1, tag)


@pytest.mark.parametrize("tag", TAGS, ids=IDS)
def test_products_and_inverses_at_genus_thirty_do_no_field_element_algebra(tag, monkeypatch):
    gens = gl_generators(30, tag)
    calls = {"mat_mul": 0, "det": 0, "inverse": 0, "mul": 0}

    def counted(name, body):
        def run(*args):
            calls[name] += 1
            return body(*args)
        return run

    for name in ("mat_mul", "det", "inverse"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    monkeypatch.setattr(FieldElement, "__mul__", counted("mul", FieldElement.__mul__))
    monkeypatch.setattr(FieldElement, "__rmul__", counted("mul", FieldElement.__rmul__))
    u, v = gens[-1], gens[-2]
    calls.update(dict.fromkeys(calls, 0))
    u.mul(v)
    assert calls["mat_mul"] == calls["det"] == 0 and calls["mul"] <= 1
    calls.update(dict.fromkeys(calls, 0))
    u.inverse()
    assert calls["inverse"] == 1 and calls["det"] == 0
