import random
from fractions import Fraction

import pytest

import hermfj.ffj as ffj
from hermfj import linalg
from hermfj.errors import ConsistencyError
from hermfj.ffj import (
    FJFamily,
    _cogenus_one_slice,
    assemble,
    check_family,
    disassemble,
    extract_psi0,
    formal_theta_coeffs,
    join_block,
    partial_decomposition_check,
    rearrange_cogenus,
    shear_generators,
    split_block,
    zero_pad,
)
from hermfj.field import FieldElement, make_field
from hermfj.hermitian import (CosetClass, HermMatrix, _canonical_order, delta_classes,
                              enumerate_semi_integral, reduce_class, small_rep)
from hermfj.jacobi import JacobiTable, shift_matrix, theta_decompose
from hermfj.series import FourierSeries, gl_generators, symmetrize
from util import (
    _coset_vectors,
    SplitTableFamily,
    all_tags,
    assemble_by_tables,
    build_degree3_family,
    cogenus_one_slice_by_split_block,
    cogenus_one_slice_by_tables,
    degree3_tables,
    disassemble_by_tables,
    extract_psi0_by_key_walk,
    extract_psi0_by_tables,
    index_blocks_by_split,
    matrix_order_by_fractions,
    psi0_body,
    rearrange_by_tables,
    shear_generators_by_identity_rows,
    theta_built_psi_body,
    zero_pad_by_tables,
)


def fe(a, b, tag):
    return FieldElement(Fraction(a), Fraction(b), tag)


def as_column(vec):
    return tuple((x,) for x in vec)


def test_join_split_round_trip():
    rng = random.Random(61)
    tag = make_field(-1)
    for t in rng.sample(enumerate_semi_integral(3, 3, tag), 6):
        for l in (1, 2):
            n, r, m = split_block(t, l)
            assert join_block(n, r, m) == t


def test_assemble_empty_and_tiny():
    tag = make_field(-3)
    fam = FJFamily(2, 1, 4, tag, 3, {})
    assert assemble(fam).is_zero()
    idx0 = HermMatrix.from_rational(0, tag)
    zero_col = as_column((FieldElement.zero(tag),))
    fam = FJFamily(2, 1, 4, tag, 3,
                   {idx0: {(HermMatrix.from_rational(0, tag), zero_col): (fe(1, 0, tag),)}})
    f = assemble(fam)
    assert f.coefficient(HermMatrix.zero(2, tag)) == (fe(1, 0, tag),)


def test_disassemble_identity_supported_series():
    # degree-2 series supported on the identity: phi_1 holds (n=1, r=0)
    tag = make_field(-1)
    f = FourierSeries(2, 4, tag, 2, {HermMatrix.identity(2, tag): (fe(1, 0, tag),)})
    fam = disassemble(f, 1)
    idx1 = HermMatrix.from_rational(1, tag)
    assert list(fam.tables) == [idx1]
    key_n = HermMatrix.from_rational(1, tag)
    assert fam.coefficient(idx1, key_n, as_column((FieldElement.zero(tag),))) \
        == (fe(1, 0, tag),)


def test_empty_family_views_are_empty():
    tag = make_field(-2)
    empty = FJFamily(3, 2, 8, tag, 3, {})
    assert rearrange_cogenus(empty, 1).is_zero()
    psi0 = extract_psi0(empty)
    assert psi0.is_zero() and psi0.g == 2 and psi0.l == 1


def test_disassemble_assemble_round_trip():
    rng = random.Random(67)
    for tag in (make_field(-1), make_field(-3)):
        fam = build_degree3_family(rng, tag)
        f = assemble(fam)
        assert disassemble(f, 1) == fam
        fam2 = disassemble(f, 2)
        assert assemble(fam2) == f
        assert disassemble(assemble(fam2), 2) == fam2


def test_equal_families_hash_equal():
    rng = random.Random(69)
    tag = make_field(-1)
    fam = build_degree3_family(rng, tag)
    again = disassemble(assemble(fam), 1)
    assert again == fam and again is not fam
    assert hash(again) == hash(fam)
    assert len({fam, again, rearrange_cogenus(disassemble(assemble(fam), 2), 1)}) == 1
    assert hash(FJFamily(3, 2, 8, tag, 3, {})) == hash(FJFamily(3, 2, 8, tag, 3, {}))


def test_rearrange_cogenus_coherence():
    rng = random.Random(71)
    for tag in (make_field(-1), make_field(-3)):
        fam1 = build_degree3_family(rng, tag)
        fam2 = disassemble(assemble(fam1), 2)
        assert rearrange_cogenus(fam2, 1) == fam1
        assert assemble(rearrange_cogenus(fam2, 1)) == assemble(fam2)
    with pytest.raises(ValueError):
        rearrange_cogenus(fam1, 2)


def test_reindexing_reuses_the_assembled_keys(monkeypatch):
    fam1 = build_degree3_family(random.Random(127), make_field(-2), trunc=3)

    def rebuild(*args):
        raise AssertionError("a key was joined or split again")

    monkeypatch.setattr(ffj, "join_block", rebuild)
    monkeypatch.setattr(ffj, "split_block", rebuild)
    f = assemble(fam1)
    fam2 = disassemble(f, 2)
    assert f.coeffs == fam2.coeffs == fam1.coeffs
    assert rearrange_cogenus(fam2, 1) == fam1


def _oracle_pairs(rng, tag):
    """(family, split-table oracle) pairs over tag: the theta-built
    cogenus-1 fixture, its cogenus-2 arrangement, and a random degree-3
    series split at cogenus 1 and 2, plainly and as a series that is not
    marked semi-integral."""
    tables = degree3_tables(rng, tag, trunc=3)
    fam1, oracle1 = FJFamily(3, 1, 8, tag, 3, tables), SplitTableFamily(3, 1, 8, tag, 3, tables)
    yield fam1, oracle1
    yield disassemble(assemble(fam1), 2), rearrange_by_tables(oracle1, 2)
    keys = enumerate_semi_integral(3, 2, tag)
    values = {t: (fe(rng.randint(1, 5), rng.randint(-1, 1), tag),) for t in rng.sample(keys, 40)}
    for semi_integral in (True, False):
        f = FourierSeries(3, 8, tag, 2, values, semi_integral=semi_integral)
        for l in (1, 2):
            yield disassemble(f, l), disassemble_by_tables(f, l)


def test_family_views_match_split_table_oracle():
    rng = random.Random(113)
    for tag in all_tags():
        for fam, oracle in _oracle_pairs(rng, tag):
            assert oracle.matches(fam)
            assert fam.indices() == sorted(oracle.tables, key=matrix_order_by_fractions)
            for m, body in oracle.tables.items():
                for (n, r), vec in body.items():
                    assert fam.coefficient(m, n, r) == vec
            f = assemble(fam)
            assert f == assemble_by_tables(oracle)
            for l in (1, 2):
                assert disassemble_by_tables(f, l).matches(disassemble(f, l))
            for l_prime in range(1, fam.l):
                assert rearrange_by_tables(oracle, l_prime).matches(rearrange_cogenus(fam, l_prime))
            if fam.l >= 2:
                try:
                    psi0 = extract_psi0_by_tables(oracle)
                except ConsistencyError as exc:  # a PSD key has no such corner
                    pytest.fail("a psi_0 corner check fired: %s" % exc)
                assert psi0.tables and psi0.matches(extract_psi0(fam))
            assert zero_pad_by_tables(oracle).matches(zero_pad(fam))
            for m in (1, 2, 3):
                assert _cogenus_one_slice(fam, m) == cogenus_one_slice_by_tables(oracle, m)
            # against the key-walk oracles
            blocks = index_blocks_by_split(fam)
            assert fam.indices() == _canonical_order(blocks)
            assert repr(fam).endswith(" %d indices)" % len(blocks))
            if fam.l >= 2:
                assert extract_psi0(fam) == extract_psi0_by_key_walk(fam)
            for m in (0, 1, 2, 3):
                assert _cogenus_one_slice(fam, m) == cogenus_one_slice_by_split_block(fam, m)


def test_rearrange_single_coefficient_lands_at_expected_index():
    # one nonzero coefficient at a hand-picked 3x3 block
    tag = make_field(-1)
    t = HermMatrix.diagonal([1, 2, 1], tag)
    f = FourierSeries(3, 8, tag, 4, {t: (fe(7, 0, tag),)})
    fam2 = disassemble(f, 2)
    idx = HermMatrix.diagonal([2, 1], tag)
    n, r, m = split_block(t, 2)
    assert m == idx
    assert fam2.coefficient(idx, n, r) == (fe(7, 0, tag),)
    fam1 = rearrange_cogenus(fam2, 1)
    n1, r1, m1 = split_block(t, 1)
    assert fam1.coefficient(m1, n1, r1) == (fe(7, 0, tag),)


def test_extract_psi0_recovers_zero_padded_family():
    rng = random.Random(73)
    tag = make_field(-1)
    # degree-2 cogenus-1 family, zero-padded to degree 3 cogenus 2
    small = FJFamily(
        2, 1, 8, tag, 3,
        {HermMatrix.from_rational(0, tag): psi0_body(rng, tag, 3, g1=1),
         HermMatrix.from_rational(1, tag): theta_built_psi_body(rng, tag, 1, 3, g1=1)},
    )
    padded = zero_pad(small)
    assert extract_psi0(padded) == small


def test_extract_psi0_of_disassembled_family():
    rng = random.Random(79)
    tag = make_field(-3)
    fam1 = build_degree3_family(rng, tag)
    fam2 = disassemble(assemble(fam1), 2)
    psi0 = extract_psi0(fam2)
    assert psi0.g == 2 and psi0.l == 1
    # the extracted coefficients are exactly those with vanishing corner
    f = assemble(fam1)
    total = 0
    for t, vec in f.coeffs.items():
        if t.entries[2][2].as_rational() == 0:
            n, r, m = split_block(t, 2)
            n1, r1, m1 = split_block(join_block(n, tuple(row[:1] for row in r),
                                                HermMatrix.from_rational(m.entries[0][0].as_rational(), tag)), 1)
            assert psi0.coefficient(m1, n1, r1) == vec
            total += 1
    assert total == sum(len(b) for b in psi0.tables.values())


def test_family_constructor_rejects_invalid_keys():
    tag = make_field(-1)
    idx0 = HermMatrix.from_rational(0, tag)
    one_col = as_column((fe(1, 0, tag),))
    # corner 0 forces r = 0: this key is not PSD
    with pytest.raises(ValueError):
        FJFamily(2, 1, 4, tag, 3,
                 {idx0: {(HermMatrix.from_rational(1, tag), one_col): (fe(1, 0, tag),)}})


def index_one_table(fam1, body):
    """The index-1 body of a degree-3 cogenus-1 family as a genus-2 table."""
    return JacobiTable(
        2, fam1.k, 1, fam1.tag, fam1.trunc - 1,
        {(n, tuple(row[0] for row in r)): vec for (n, r), vec in body.items()},
    )


def test_formal_theta_matches_cogenus_one_decomposition():
    rng = random.Random(83)
    for tag in (make_field(-1), make_field(-3)):
        fam1 = build_degree3_family(rng, tag)
        fam2 = disassemble(assemble(fam1), 2)
        # independent path: the stored cogenus-1 table as a genus-2 Jacobi table
        idx1 = HermMatrix.from_rational(1, tag)
        slice_table = index_one_table(fam1, fam1.tables.get(idx1, {}))
        for strict in (False, True):
            comps = formal_theta_coeffs(fam2, 1, strict=strict)
            v = theta_decompose(slice_table, strict=strict)
            assert set(comps) == set(v.classes)
            for s in v.classes:
                assert comps[s] == v.components[s]


def test_formal_theta_rejects_higher_cogenus():
    rng = random.Random(89)
    tag = make_field(-1)
    f = FourierSeries(4, 8, tag, 2,
                      {HermMatrix.diagonal([1, 0, 0, 1], tag): (fe(1, 0, tag),)})
    fam = disassemble(f, 3)
    with pytest.raises(ValueError):
        formal_theta_coeffs(fam, 1)


def test_formal_theta_detects_broken_fixture():
    rng = random.Random(97)
    tag = make_field(-1)
    fam1 = build_degree3_family(rng, tag)
    idx1 = HermMatrix.from_rational(1, tag)
    body = dict(fam1.tables[idx1])
    # perturb one non-canonical coefficient
    for (n, r), vec in sorted(body.items(), key=lambda kv: (matrix_order_by_fractions(kv[0][0]), str(kv[0][1]))):
        rv = tuple(row[0] for row in r)
        s = reduce_class(rv, 1)
        if rv != small_rep(s):
            body[(n, r)] = (vec[0] + fe(1, 0, tag),)
            break
    else:
        pytest.fail("fixture has no non-canonical key")
    broken = FJFamily(3, 1, fam1.k, tag, fam1.trunc,
                      {**fam1.tables, idx1: body})
    fam2 = disassemble(assemble(broken), 2)
    with pytest.raises(ConsistencyError) as formal:
        formal_theta_coeffs(fam2, 1)
    # the same slice read straight from the broken cogenus-1 table
    with pytest.raises(ConsistencyError) as direct:
        theta_decompose(index_one_table(fam1, body))
    assert formal.value.witness == direct.value.witness


def test_partial_decomposition_identity():
    rng = random.Random(101)
    for tag in (make_field(-1), make_field(-3)):
        fam1 = build_degree3_family(rng, tag)
        fam2 = disassemble(assemble(fam1), 2)
        for s2 in delta_classes(1, 1, tag):
            r_prime = small_rep(s2)[0]
            assert partial_decomposition_check(fam2, 1, s2, r_prime)
            shifted = r_prime + fe(1, 0, tag)
            assert partial_decomposition_check(fam2, 1, s2, shifted)


def test_partial_decomposition_detects_perturbation():
    rng = random.Random(103)
    tag = make_field(-1)
    fam1 = build_degree3_family(rng, tag)
    idx1 = HermMatrix.from_rational(1, tag)
    body = dict(fam1.tables[idx1])
    broken_key = None
    for (n, r), vec in sorted(body.items(), key=lambda kv: (matrix_order_by_fractions(kv[0][0]), str(kv[0][1]))):
        rv = tuple(row[0] for row in r)
        if rv != small_rep(reduce_class(rv, 1)):
            body[(n, r)] = (vec[0] + fe(3, 0, tag),)
            broken_key = rv
            break
    assert broken_key is not None
    broken = FJFamily(3, 1, fam1.k, tag, fam1.trunc, {**fam1.tables, idx1: body})
    fam2 = disassemble(assemble(broken), 2)
    s2 = reduce_class(broken_key[-1:], 1)
    assert not partial_decomposition_check(fam2, 1, s2, broken_key[-1])


def test_partial_decomposition_verdict_does_not_depend_on_the_shift_rep():
    # dropping the index-1 keys whose last r component is r' breaks the
    # identity at some classes; every rep of s2 must see the same
    for tag in all_tags():
        fam1 = build_degree3_family(random.Random(103), tag)
        idx1 = HermMatrix.from_rational(1, tag)
        for s2 in delta_classes(1, 1, tag):
            for step in (FieldElement.one(tag), FieldElement.omega(tag)):
                r_prime = small_rep(s2)[0] + step
                body = {key: vec for key, vec in fam1.tables[idx1].items()
                        if key[1][-1][0] != r_prime}
                fam2 = disassemble(assemble(FJFamily(3, 1, fam1.k, tag, fam1.trunc,
                                                     {**fam1.tables, idx1: body})), 2)
                reps = (s2, CosetClass(1, (s2.rep[0] + 1,), tag),
                        CosetClass(1, (s2.rep[0] + step,), tag))
                verdicts = {partial_decomposition_check(fam2, 1, s, r_prime) for s in reps}
                assert len(verdicts) == 1, (tag.d, s2, r_prime)


def test_partial_decomposition_zero_family_true():
    tag = make_field(-3)
    fam = FJFamily(3, 2, 8, tag, 3, {})
    s2 = delta_classes(1, 1, tag)[0]
    assert partial_decomposition_check(fam, 1, s2, small_rep(s2)[0])


def test_check_family_on_symmetric_fixture():
    rng = random.Random(107)
    for tag in (make_field(-1), make_field(-3)):
        gens = gl_generators(2, tag)
        seed = FourierSeries(
            2, 12, tag, 3,
            {t: (fe(rng.randint(1, 3), 0, tag),)
             for t in rng.sample(enumerate_semi_integral(2, 3, tag), 3)},
        )
        f_sym = symmetrize(seed, gens)
        fam = disassemble(f_sym, 1)
        report = check_family(fam, gens)
        assert report.ok

        # a single unpaired coefficient is flagged with its witness
        bump = FourierSeries(2, 12, tag, 3,
                             {HermMatrix.diagonal([2, 1], tag): (fe(1, 0, tag),)})
        broken = disassemble(f_sym + bump, 1)
        report = check_family(broken, gens)
        assert not report.ok
        assert report.symmetry_violations or report.subaction_violations


def test_check_family_empty_family_passes():
    tag = make_field(-7)
    fam = FJFamily(2, 1, 6, tag, 2, {})
    assert check_family(fam, gl_generators(2, tag)).ok


def test_shear_generators_are_unit_matrices():
    for tag in all_tags():
        for g in range(2, 6):
            for l in range(1, g):
                got, want = shear_generators(g, l, tag), shear_generators_by_identity_rows(g, l, tag)
                assert got == want
                assert [u.det_unit for u in got] == [u.det_unit for u in want]
                assert all(u.det_unit.norm() == 1 for u in got)


def test_psi0_inherits_family_symmetry():
    # symmetric degree-3 input gives a psi_0 passing the degree-2 check
    rng = random.Random(109)
    tag = make_field(-1)
    gens3 = gl_generators(3, tag)
    seed = FourierSeries(
        3, 12, tag, 3,
        {t: (fe(rng.randint(1, 2), 0, tag),)
         for t in rng.sample(enumerate_semi_integral(3, 2, tag), 2)},
    )
    f_sym = symmetrize(seed, gens3)
    fam3 = disassemble(f_sym, 2)
    assert check_family(fam3, gens3).ok
    psi0 = extract_psi0(fam3)
    assert check_family(psi0, gl_generators(2, tag)).ok


def _orbit_constant_theta_family(tag, m_val=1, trunc=4, k=12):
    """Degree-3 cogenus-1 fixture whose theta components are constant on the
    orbits of (class, key) pairs under the genus-2 unit group, hence
    symmetric in the sense of the component symmetry condition (the
    determinant factors are trivial since k is a multiple of 12)."""
    gens = gl_generators(2, tag)
    steps = gens + [u.inverse() for u in gens]
    classes = delta_classes(2, m_val, tag)
    seed_class = classes[min(3, len(classes) - 1)]
    r0 = small_rep(seed_class)
    # seed keys carry the complementary fractional shift of their class, so
    # that every spread key nu + shift(R) is semi-integral
    nu0 = HermMatrix.identity(2, tag).sub(shift_matrix(r0, m_val))
    room = trunc - m_val

    def fits(rv, nu):
        shift = shift_matrix(small_rep(reduce_class(rv, m_val)), m_val)
        return nu.trace() + shift.trace() <= room

    pairs = set()
    frontier = []
    for seed in ((r0, nu0), ((FieldElement.zero(tag),) * 2, HermMatrix.identity(2, tag))):
        rv, nu = seed
        if nu.is_psd() and fits(rv, nu):
            pairs.add((rv, nu))
            frontier.append((rv, nu))
    while frontier:
        nxt = []
        for rv, nu in frontier:
            for u in steps:
                uct = linalg.conj_transpose(u.entries)
                rv2 = tuple(
                    sum((uct[i][j] * rv[j] for j in range(2)), FieldElement.zero(tag))
                    for i in range(2)
                )
                nu2 = HermMatrix(
                    linalg.mat_mul(linalg.mat_mul(uct, nu.entries), u.entries), tag
                )
                if fits(rv2, nu2) and (rv2, nu2) not in pairs:
                    pairs.add((rv2, nu2))
                    nxt.append((rv2, nu2))
        frontier = nxt

    body = {}
    value = (fe(1, 0, tag),)
    for rv, nu in pairs:
        s = reduce_class(rv, m_val)
        budget = (room - nu.trace()) * m_val
        for r in _coset_vectors(s.rep, s.m, budget):
            body[(nu.add(shift_matrix(r, m_val)), as_column(r))] = value
    idx = HermMatrix.from_rational(m_val, tag)
    return FJFamily(3, 1, k, tag, trunc, {idx: body})


def test_nathan_symmetry_of_formal_components():
    # c(h_{u* s}; u* n u) = (det u*)^k c(h_s; n) on the generator set
    for tag in (make_field(-1), make_field(-3)):
        fam1 = _orbit_constant_theta_family(tag)
        fam2 = disassemble(assemble(fam1), 2)
        comps = formal_theta_coeffs(fam2, 1)
        gens = gl_generators(2, tag)
        checked = 0
        for u in gens:
            uct = linalg.conj_transpose(u.entries)
            det_pow = u.det_unit.conj() ** fam1.k
            for s, h in comps.items():
                target_rep = tuple(
                    sum((uct[i][j] * small_rep(s)[j] for j in range(2)),
                        FieldElement.zero(tag))
                    for i in range(2)
                )
                s2 = reduce_class(target_rep, 1)
                h2 = comps[s2]
                from hermfj.hermitian import gl_action

                for nu, vec in h.coeffs.items():
                    nu2 = gl_action(u, nu)
                    if nu2.trace() > h2.trunc:
                        continue
                    expected = tuple(det_pow * v for v in vec)
                    assert h2.coefficient(nu2) == expected
                    checked += 1
        assert checked > 0
