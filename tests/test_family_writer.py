"""The FJFAM writer prints the blocks read off the assembled keys.

`formats.write_family` takes n, r and m from the ints of each key of
`FJFamily.coeffs`, renders each distinct n and m once and each r straight
from its ints.  It must print what the former writer, which split every key
through the `tables` view, printed: `util.write_family_by_tables` is that
writer, the oracle here.  The family views `indices()` and `repr`, and the
FJFAM summary of `symmetry-check`, read the index blocks off the keys as
well; no view but `tables` splits a key into matrices and field elements.
"""

import random
from collections import Counter

from hermfj import cli, ffj, hermitian
from hermfj.ffj import FJFamily, disassemble, split_block
from hermfj.field import FieldElement, make_field
from hermfj.formats import read_family, write_family
from hermfj.hermitian import enumerate_semi_integral
from hermfj.series import FourierSeries, gl_generators, symmetrize
from util import all_tags, build_degree3_family, write_family_by_tables


def random_series(rng, tag, g, trace_bound, dim):
    """A degree-g series on the enumerated keys of trace <= trace_bound and
    on sums of pairs of them, some coefficient vectors zero."""
    keys = enumerate_semi_integral(g, trace_bound, tag)
    keys += [rng.choice(keys).add(rng.choice(keys)) for _ in range(len(keys) // 2)]
    coeffs = {t: tuple(FieldElement(rng.randint(-3, 3), rng.randint(-2, 2), tag)
                       if rng.random() < 0.8 else FieldElement.zero(tag) for _ in range(dim))
              for t in keys}
    return FourierSeries(g, 6, tag, 2 * trace_bound, coeffs, dim)


def r_below_key_denominator(fam) -> bool:
    """Some entry of some r has a smaller denominator in lowest terms than
    its key."""
    return any(x.den < t._key[0] for t in fam.coeffs
               for row in split_block(t, fam.l)[1] for x in row)


def test_writer_agrees_with_the_table_oracle():
    rng = random.Random(2121)
    for tag in all_tags():
        for g, trace_bound in ((3, 2), (4, 2)):
            for dim in (1, 2):
                f = random_series(rng, tag, g, trace_bound, dim)
                for l in (1, 2):
                    fam = disassemble(f, l)
                    assert fam.coeffs and r_below_key_denominator(fam)
                    text = write_family(fam)
                    assert text == write_family_by_tables(fam)
                    assert read_family(text) == fam
        for g, l in ((3, 1), (4, 2)):
            empty = FJFamily(g, l, 6, tag, 2, {})
            assert write_family(empty) == write_family_by_tables(empty)
            assert write_family(empty).count("\n") == 1


def test_writer_agrees_with_the_oracle_on_theta_built_families():
    for d in (-1, -3, -7):
        fam1 = build_degree3_family(random.Random(d), make_field(d), trunc=3)
        fam2 = disassemble(ffj.assemble(fam1), 2)
        for fam in (fam1, fam2, ffj.extract_psi0(fam2)):
            assert write_family(fam) == write_family_by_tables(fam)


def symmetric_family(tag):
    """A degree-2 cogenus-1 family that passes `check_family`."""
    rng = random.Random(tag.d)
    keys = enumerate_semi_integral(2, 2, tag)
    seed = FourierSeries(2, 12, tag, 3, {t: (FieldElement(rng.randint(1, 3), 0, tag),)
                                         for t in rng.sample(keys, 3)})
    return disassemble(symmetrize(seed, gl_generators(2, tag)), 1)


def count_splits(monkeypatch) -> Counter:
    """Counts calls of `split_block`, as `hermitian` and `ffj` name it, and
    of `FieldElement._from_ints` from here on."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    split = counted("split_block", hermitian.split_block)
    for module in (hermitian, ffj):
        monkeypatch.setattr(module, "split_block", split)
    monkeypatch.setattr(FieldElement, "_from_ints",
                        staticmethod(counted("_from_ints", FieldElement._from_ints)))
    return calls


def counted_families():
    fam = build_degree3_family(random.Random(2122), make_field(-1), trunc=3)
    return fam, disassemble(ffj.assemble(fam), 2)


def test_writer_splits_no_key_and_builds_no_element(monkeypatch):
    families = counted_families()
    calls = count_splits(monkeypatch)
    for fam in families:
        write_family(fam)
        assert calls == Counter()
    # the `tables` view splits each key and builds the entries of its r
    assert len(families[0].tables) == 2
    assert calls["split_block"] == len(families[0].coeffs) and calls["_from_ints"] > 0


def test_index_views_split_no_key(monkeypatch):
    families = counted_families()
    calls = count_splits(monkeypatch)
    counts = [len(fam.indices()) for fam in families]
    assert min(counts) >= 2 and calls["split_block"] == 0
    for fam, count in zip(families, counts):
        assert "%d indices" % count in repr(fam)
    assert calls["split_block"] == 0


def test_family_symmetry_check_splits_no_key(monkeypatch, tmp_path, capsys):
    sym = symmetric_family(make_field(-1))
    path = tmp_path / "sym.fjfam"
    path.write_text(write_family(sym), encoding="ascii")
    calls = count_splits(monkeypatch)
    assert cli.run(["symmetry-check", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "symmetry ok: family with %d indices\n" % len(sym.indices())
    assert calls["split_block"] == 0
