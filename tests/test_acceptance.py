"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the lines as they pass;
the whole module is exact integer checking except the wall-clock bound
of the performance criterion.
"""

import math
import random

from lenslat import (
    SubsetMask,
    binom,
    canonical_q_tuples,
    decompose,
    gamma,
    make_lens_space,
    multiplicity,
    n_lattice_formula,
    numerator,
)
from lenslat import oracle
from lenslat.cli import main, verify_grid


def _report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def _grid_spaces(p_max, m_values):
    for p in range(1, p_max + 1):
        for m in m_values:
            for q in canonical_q_tuples(p, m):
                yield make_lens_space(p, q)


def test_criterion_1_formula_equals_enumeration():
    cases = [(space, list(range(25))) for space in _grid_spaces(10, (2, 3))]
    checks = verify_grid(cases, oracle.DEFAULT_BUDGET, deep=False)
    ok = all(c.ok for c in checks) and len(cases) > 0
    _report(
        f"criterion 1: formula = enumeration on {len(cases)} spaces, "
        f"h <= 24 ({len(checks)} checks)",
        ok,
    )


def test_criterion_2_partition_law():
    checked = 0
    ok = True
    for space in _grid_spaces(10, (2, 3)):
        for h in range(17):
            # each class N's size from the fiber census against its gamma law;
            # the sizes sum to the sphere
            points = oracle.enumerate_omega(space, h)
            row = next(oracle.fold_law_checks(space, h, points))
            ok = ok and row == ("partition", str(len(points)), str(len(points)))
            checked += 1
            if not ok:
                break
    _report(f"criterion 2: partition law on {checked} (space, h) cases", ok)


def test_criterion_3_fiber_law():
    checked = 0
    ok = True
    for p in (2, 3, 5):
        for m in (2, 3):
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                for h in range(13):
                    k, n = decompose(h, p)
                    points = oracle.enumerate_omega(space, h)
                    census = oracle.fiber_census(space, h, points)
                    for (mask, t, y), size in census.items():
                        expected = binom(n - t + (m - mask.u) - 1, m - 1)
                        ok = ok and size == expected
                    for bits in range(1 << m):
                        mask = SubsetMask(bits, m)
                        for t in range(n - mask.u + 1):
                            for y in oracle.enumerate_c(
                                space, mask.complement(), k + t * p
                            ):
                                ok = ok and (mask, t, y) in census
                    checked += 1
    _report(
        f"criterion 3: fiber sizes and coverage on {checked} (space, h) cases", ok
    )


def test_criterion_4_sphere_consistency():
    ok = True
    for m in (2, 3, 4):
        space = make_lens_space(1, (1,) * m)
        num = numerator(space)
        for i in range(21):
            expected = binom(i + 2 * m - 1, 2 * m - 1) - binom(i + 2 * m - 3, 2 * m - 1)
            ok = ok and multiplicity(space, num, i) == expected
    _report("criterion 4: sphere multiplicities match harmonic dimensions", ok)


def test_criterion_5_projective_space_spot_values():
    space = make_lens_space(2, (1, 1))
    num = numerator(space)
    ok = multiplicity(space, num, 2) == 9
    ok = ok and all(multiplicity(space, num, i) == 0 for i in range(1, 10, 2))
    # cross-check through the enumeration side of the multiplicity sum
    oracle_mult_2 = sum(
        binom(s, 0) * oracle.n_lattice_bruteforce(space, 2 - 2 * s)
        for s in range(2)
    )
    ok = ok and oracle_mult_2 == 9
    _report("criterion 5: L(2;1,1) has dim 9 at degree 2 and 0 at odd degrees", ok)


def test_criterion_6_parity_of_odd_degrees():
    rng = random.Random(20260810)
    ok = True
    for _ in range(50):
        p = rng.choice((2, 4, 6))
        m = rng.choice((2, 3))
        units = [v for v in range(1, p + 1) if math.gcd(v, p) == 1]
        q = tuple(rng.choice(units) for _ in range(m))
        space = make_lens_space(p, q)
        num = numerator(space)
        for i in range(1, 16, 2):
            ok = ok and multiplicity(space, num, i) % 2 == 0
    _report("criterion 6: even multiplicity at odd degrees for even p (50 samples)", ok)


def test_criterion_7_performance_gap(tmp_path):
    # the real bench command with its default oracle budget
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--p", "7", "--q", "1,2,3", "--h-max", "5000", "--output", str(out)]
    )
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    formula_total = sum(float(row[1]) for row in rows)
    skipped = [int(row[0]) for row in rows if row[2] == "skipped"]
    ran = [int(row[0]) for row in rows if row[2] != "skipped"]
    ok = (
        code == 0
        and len(rows) == 5001  # formula value computed for every h
        and formula_total < 10.0
        and len(skipped) > 0  # oracle refused beyond its budget
        and len(ran) > 0
    )
    _report(
        "criterion 7: formula covers h <= 5000 in "
        f"{formula_total:.2f}s; oracle refuses from h = "
        f"{min(skipped) if skipped else 'never'}",
        ok,
    )


def test_criterion_8_trivial_anchors():
    ok = True
    count = 0
    for space in _grid_spaces(10, (2, 3)):
        num = numerator(space)
        full = SubsetMask.full(space.m)
        ok = ok and n_lattice_formula(space, num, 0) == 1
        if space.p >= 2:
            ok = ok and n_lattice_formula(space, num, 1) == 0
        for h in range(min(space.p, 25)):
            ok = ok and n_lattice_formula(space, num, h) == gamma(space, full, h)
        count += 1
    _report(f"criterion 8: N(0), N(1) and below-p anchors on {count} spaces", ok)
