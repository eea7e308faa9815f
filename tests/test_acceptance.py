"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with -s or in the captured
output) and asserts its stated runtime budget.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from hermfj.bounds import slope_lower_bound
from hermfj.ffj import (
    assemble,
    disassemble,
    extract_psi0,
    formal_theta_coeffs,
    partial_decomposition_check,
    rearrange_cogenus,
    zero_pad,
)
from hermfj.field import FieldElement, euclidean_constant, make_field
from hermfj.formats import read_any, write_any, write_family, write_series
from hermfj.hermitian import (
    HermMatrix,
    UnitMatrix,
    delta_classes,
    enumerate_semi_integral,
    reduce_class,
    small_rep,
)
from hermfj.jacobi import JacobiTable, theta_coeffs, theta_decompose, theta_recompose
from hermfj.series import FourierSeries, check_symmetry
from hermfj.unitary import UnitaryElement, is_unitary, jacobi_embed, jacobi_mul, rot
from util import (
    ALL_D,
    all_tags,
    build_degree3_family,
    deep_hole_oracle,
    grid_max_min_dist,
    matrix_order_by_fractions,
    random_component_vector,
    random_heisenberg,
    random_unit_matrix,
    random_unitary,
    sqrt_disc,
)

EXPECTED_MU = {-1: Fraction(1, 2), -2: Fraction(3, 4), -3: Fraction(1, 3),
               -7: Fraction(4, 7), -11: Fraction(9, 11)}


class budget:
    """Asserts the criterion's stated wall-clock budget on exit."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                "runtime %.1fs exceeds the %ds budget" % (self.elapsed, self.seconds)
            )
        return False


def report(n, text, b):
    print("ACCEPTANCE %2d PASS (%.1fs): %s" % (n, b.elapsed, text))


def test_criterion_01_euclidean_constants():
    with budget(10) as b:
        for d, mu in EXPECTED_MU.items():
            tag = make_field(d)
            ec = euclidean_constant(tag)
            assert ec.mu == mu and ec.c == 1 - mu
            # independent oracle 1: circumcenters of all nearby lattice triples
            assert deep_hole_oracle(tag) == mu
            # independent oracle 2: 200 x 200 rational grid never exceeds mu
            assert grid_max_min_dist(tag, steps=200) <= mu
    report(1, "euclidean constants match the deep-hole oracles exactly", b)


def _brute_force_classes_g1(tag, m):
    """Exhaustive coset enumeration of O^# / m O at genus 1, classifying a
    covering box of dual vectors by pairwise equivalence."""
    sd = sqrt_disc(tag)
    w = FieldElement.omega(tag)
    c1 = ((sd * m).a, (sd * m).b)
    c2 = ((sd * w * m).a, (sd * w * m).b)
    det = c1[0] * c2[1] - c2[0] * c1[1]

    def equivalent(y1, y2):
        # (y1 - y2) in the integer span of c1, c2
        da, db = y1[0] - y2[0], y1[1] - y2[1]
        x_num = da * c2[1] - db * c2[0]
        y_num = c1[0] * db - c1[1] * da
        return x_num % det == 0 and y_num % det == 0

    target = m * m * abs(tag.disc)
    # a box with more candidates than classes, exhaustively classified
    side = 2 * m * abs(tag.disc)
    reps = []
    for a in range(side):
        for b in range(2 * m):
            y = (a, b)
            for r in reps:
                if equivalent(y, r):
                    break
            else:
                reps.append(y)
        if len(reps) >= target and a > side // 2:
            break
    return reps, equivalent


def test_criterion_02_coset_cardinalities():
    with budget(30) as b:
        for tag in all_tags():
            size = abs(tag.disc)
            for m in (1, 2, 3):
                # genus 1: exhaustive brute-force bijection
                reps, equivalent = _brute_force_classes_g1(tag, m)
                assert len(reps) == m * m * size
                classes = delta_classes(1, m, tag)
                assert len(classes) == m * m * size
                sd = sqrt_disc(tag)
                matched = set()
                for s in classes:
                    y = s.rep[0] * sd
                    coords = (int(y.a), int(y.b))
                    hits = [i for i, r in enumerate(reps) if equivalent(coords, r)]
                    assert len(hits) == 1
                    matched.add(hits[0])
                assert len(matched) == len(reps)
                # genus 2: the equivalence is componentwise, so the class set
                # is the product of the exhaustively verified component sets
                classes2 = delta_classes(2, m, tag)
                assert len(classes2) == (m * m * size) ** 2
                assert len({(s.rep[0], s.rep[1]) for s in classes2}) == len(classes2)
        rng = random.Random(202)
        for tag in all_tags():
            for _ in range(20):
                m = rng.randint(1, 3)
                s = rng.choice(delta_classes(2, m, tag))
                shifted = tuple(
                    x + FieldElement(m * rng.randint(-2, 2), m * rng.randint(-2, 2), tag)
                    for x in s.rep
                )
                assert reduce_class(shifted, m) == s
    report(2, "coset counts (m^2 |D|)^g verified by exhaustive enumeration", b)


def test_criterion_03_theta_round_trip():
    rng = random.Random(303)
    with budget(60) as b:
        for tag in all_tags():
            for _ in range(100):
                m = rng.randint(1, 3)
                total = rng.randint(3, 6) if m <= 2 else rng.randint(3, 4)
                v = random_component_vector(rng, tag, m, total)
                table = theta_recompose(v, total)
                assert theta_decompose(table) == v
    report(3, "theta decomposition round trip on 500 random component vectors", b)


def test_criterion_04_small_representatives():
    with budget(10) as b:
        for tag in all_tags():
            c = euclidean_constant(tag).c
            for m in range(1, 6):
                for s in delta_classes(1, m, tag):
                    r = small_rep(s)
                    assert r[0].norm() <= (1 - c) * m * m
                    theta = theta_coeffs(m, s, m)
                    assert theta.vanishing_order_at(r) <= (1 - c) * m
    report(4, "small representatives obey |r|^2 <= (1-c) m^2 for all classes, m <= 5", b)


def test_criterion_05_order_superadditivity():
    rng = random.Random(505)
    with budget(60) as b:
        for i in range(100):
            tag = make_field(rng.choice(ALL_D))
            g = 1 if i % 2 else 2
            cands = enumerate_semi_integral(g, 4, tag)
            def rand_series():
                coeffs = {}
                for t in rng.sample(cands, min(rng.randint(0, 4), len(cands))):
                    c = rng.randint(-4, 4)
                    if c:
                        coeffs[t] = (FieldElement(c, 0, tag),)
                return FourierSeries(g, 0, tag, 4, coeffs)
            f1, f2 = rand_series(), rand_series()
            assert (f1 * f2).vanishing_order() >= f1.vanishing_order() + f2.vanishing_order()
    report(5, "ord(f1 f2) >= ord(f1) + ord(f2) on 100 random truncated pairs", b)


def test_criterion_06_slope_recursion():
    with budget(5) as b:
        for tag in all_tags():
            c = euclidean_constant(tag).c
            for g in range(1, 7):
                assert slope_lower_bound(g, tag) == 12 * c ** (g - 1)
        t1 = make_field(-1)
        assert [slope_lower_bound(g, t1) for g in (1, 2, 3)] == [12, 6, 3]
    report(6, "slope bound 12 c^(g-1) for g <= 6 over all five fields", b)


def test_criterion_07_unit_obstruction():
    with budget(1) as b:
        t1 = make_field(-1)
        u = UnitMatrix([[FieldElement(0, 1, t1)]], t1)
        for k in (0, 4, 8, 12):
            f = FourierSeries.constant(FieldElement.one(t1), 1, k, 2)
            assert check_symmetry(f, [u]) == []
        f6 = FourierSeries.constant(FieldElement.one(t1), 1, 6, 2)
        assert check_symmetry(f6, [u]) == [(u, HermMatrix.zero(1, t1))]

        t3 = make_field(-3)
        w = UnitMatrix([[FieldElement.omega(t3)]], t3)
        for k in range(0, 13):
            f = FourierSeries.constant(FieldElement.one(t3), 1, k, 2)
            violations = check_symmetry(f, [w])
            assert (violations == []) == (k % 6 == 0)
    report(7, "unit obstruction: pass iff k = 0 mod 4 (d=-1) resp. mod 6 (d=-3)", b)


def test_criterion_08_group_embeddings():
    rng = random.Random(808)
    with budget(30) as b:
        for tag in all_tags():
            members = []
            for i in range(100):
                g = 1 + (i % 2)
                x = random_unitary(rng, g, tag)
                assert is_unitary(x)
                members.append(x)
                # perturbed non-member: doubling a row breaks |det| = 1
                rows = [list(r) for r in x.entries]
                rows[i % len(rows)] = [v * 2 for v in rows[i % len(rows)]]
                assert not is_unitary(UnitaryElement(rows, tag))
            for _ in range(25):
                g = rng.choice([1, 2])
                u, v = random_unit_matrix(rng, g, tag), random_unit_matrix(rng, g, tag)
                assert rot(u.mul(v)) == rot(u).mul(rot(v))
                x = (random_unitary(rng, g, tag), random_heisenberg(rng, 1, g, tag))
                y = (random_unitary(rng, g, tag), random_heisenberg(rng, 1, g, tag))
                assert jacobi_embed(*x).mul(jacobi_embed(*y)) == jacobi_embed(*jacobi_mul(x, y))
    report(8, "500 embedded elements unitary, homomorphism identities exact, "
              "500 perturbed non-members rejected", b)


def test_criterion_09_reindexing_coherence():
    rng = random.Random(909)
    with budget(120) as b:
        for d in (-1, -3):
            tag = make_field(d)
            fam1 = build_degree3_family(rng, tag, trunc=4)
            full = assemble(fam1)
            fam2 = disassemble(full, 2)

            # re-indexing round trips
            assert disassemble(assemble(fam2), 2) == fam2
            assert rearrange_cogenus(fam2, 1) == fam1
            assert assemble(rearrange_cogenus(fam2, 1)) == full

            # psi_0 extraction inverts zero padding
            psi0 = extract_psi0(fam2)
            assert psi0.g == 2 and psi0.l == 1
            assert extract_psi0(zero_pad(psi0)) == psi0

            # formal theta components match the cogenus-1 module exactly
            comps = formal_theta_coeffs(fam2, 1)
            idx1 = HermMatrix.from_rational(1, tag)
            body = fam1.tables.get(idx1, {})
            slice_table = JacobiTable(
                2, fam1.k, 1, tag, fam1.trunc - 1,
                {(n, tuple(row[0] for row in r)): vec for (n, r), vec in body.items()},
            )
            v = theta_decompose(slice_table)
            assert set(comps) == set(v.classes)
            for s in v.classes:
                assert comps[s] == v.components[s]

            # the partial decomposition identity, and its failure on a break
            for s2 in delta_classes(1, 1, tag):
                r_prime = small_rep(s2)[0]
                assert partial_decomposition_check(fam2, 1, s2, r_prime)
                assert partial_decomposition_check(fam2, 1, s2,
                                                   r_prime + FieldElement.one(tag))
            broken_body = dict(body)
            broken_rv = None
            for (n, r), vec in sorted(broken_body.items(),
                                      key=lambda kv: (matrix_order_by_fractions(kv[0][0]), str(kv[0][1]))):
                rv = tuple(row[0] for row in r)
                if rv != small_rep(reduce_class(rv, 1)):
                    broken_body[(n, r)] = (vec[0] + FieldElement.one(tag),)
                    broken_rv = rv
                    break
            assert broken_rv is not None
            from hermfj.ffj import FJFamily

            broken = FJFamily(3, 1, fam1.k, tag, fam1.trunc,
                              {**fam1.tables, idx1: broken_body})
            broken2 = disassemble(assemble(broken), 2)
            s2 = reduce_class(broken_rv[-1:], 1)
            assert not partial_decomposition_check(broken2, 1, s2, broken_rv[-1])
    report(9, "assemble/disassemble/rearrange/psi0 round trips and the partial "
              "decomposition identity at g=3, l=2", b)


def _run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hermfj", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_10_cli_determinism(tmp_path):
    rng = random.Random(1010)
    with budget(60) as b:
        tag = make_field(-1)

        # fixture corpus
        a_fjs = tmp_path / "a.fjs"
        b_fjs = tmp_path / "b.fjs"
        for path, seed in ((a_fjs, 4), (b_fjs, 9)):
            coeffs = {}
            r = random.Random(seed)
            for t in r.sample(enumerate_semi_integral(1, 4, tag), 3):
                coeffs[t] = (FieldElement(r.randint(1, 5), 0, tag),)
            path.write_text(write_series(FourierSeries(1, 4, tag, 4, coeffs)),
                            encoding="ascii")
        fam_path = tmp_path / "fam.fjfam"
        fam2 = disassemble(assemble(build_degree3_family(rng, tag, trunc=3)), 2)
        fam_path.write_text(write_family(fam2), encoding="ascii")
        broken_path = tmp_path / "broken.fjs"
        broken_path.write_text(
            write_series(FourierSeries.constant(FieldElement.one(tag), 1, 6, 2)),
            encoding="ascii",
        )

        def once(tail: str):
            out = []
            runs = [
                ("c-constant", "--field", "-3"),
                ("theta", "--field", "-1", "--m", "2", "--shift", "5", "--trunc", "3",
                 "--out", str(tmp_path / ("t%s.hjf" % tail))),
                ("decompose", "--in", str(tmp_path / ("t%s.hjf" % tail)),
                 "--out", str(tmp_path / ("t%s.hjc" % tail))),
                ("recompose", "--in", str(tmp_path / ("t%s.hjc" % tail)), "--trunc", "3",
                 "--out", str(tmp_path / ("t2%s.hjf" % tail))),
                ("multiply", "--in", str(a_fjs), "--in2", str(b_fjs),
                 "--out", str(tmp_path / ("c%s.fjs" % tail))),
                ("symmetry-check", "--in", str(a_fjs)),
                ("symmetry-check", "--in", str(broken_path)),
                ("rearrange", "--in", str(fam_path), "--cogenus", "1",
                 "--out", str(tmp_path / ("r%s.fjfam" % tail))),
                ("psi0", "--in", str(fam_path), "--out", str(tmp_path / ("p%s.fjfam" % tail))),
                ("bounds", "--field", "-1", "--degree", "2", "--weight", "12",
                 "--d-start", "0"),
            ]
            for argv in runs:
                code, stdout, stderr = _run_cli(*argv)
                if argv[0] == "symmetry-check" and "broken" in argv[2]:
                    assert code == 3
                else:
                    assert code == 0, (argv, stderr)
                out.append((argv[0], code, stdout, stderr))
            return out

        first = once("x")
        second = once("y")
        assert first == second
        for name in ("tx.hjf", "tx.hjc", "t2x.hjf", "cx.fjs", "rx.fjfam", "px.fjfam"):
            pair = name.replace("x", "y")
            assert (tmp_path / name).read_bytes() == (tmp_path / pair).read_bytes()
            code, stdout, _ = _run_cli("validate", "--in", str(tmp_path / name))
            assert code == 0 and stdout.startswith("valid ")
            # round trip through the readers reproduces the in-memory value
            text = (tmp_path / name).read_text(encoding="ascii")
            assert write_any(read_any(text)) == text
        # theta -> decompose -> recompose reproduces the table exactly
        assert (tmp_path / "tx.hjf").read_bytes() == (tmp_path / "t2x.hjf").read_bytes()
    report(10, "all ten subcommands bit-identical across runs; outputs re-validate", b)
