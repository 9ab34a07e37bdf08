import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslat import SubsetMask, binom, canonical_q_tuples, decompose, gamma, make_lens_space
from lenslat import lattice, oracle
from lenslat.oracle import (
    OracleBudgetError,
    enumerate_c,
    enumerate_omega,
    fiber_census,
    fold_law_checks,
    fold_point,
    gamma_bruteforce,
    l1_ball_count,
    l1_sphere_count,
    n_lattice_bruteforce,
    shell_counts,
    subset_table,
)
from strategies import lens_spaces


L211 = make_lens_space(2, (1, 1))


# ------------------------------------------------------------- enumeration


def test_enumerate_l211_h2():
    points = enumerate_omega(L211, 2)
    assert len(points) == 8
    assert set(points) == {
        (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1),
    }


def test_enumerate_order_is_deterministic():
    assert enumerate_omega(L211, 4) == enumerate_omega(L211, 4)


def naive_shell(p, qs, s, cap):
    """The walk's reference: capped compositions of s, then sign patterns, each point tested."""

    def compositions(total, parts):
        if parts == 1:
            if total <= cap:
                yield (total,)
            return
        for first in range(min(total, cap) + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out = []
    for comp in compositions(s, len(qs)):
        nonzero = [j for j, a in enumerate(comp) if a]
        for signs in product((1, -1), repeat=len(nonzero)):
            x = list(comp)
            for j, sign in zip(nonzero, signs):
                x[j] = sign * x[j]
            if sum(q * v for q, v in zip(qs, x)) % p == 0:
                out.append(tuple(x))
    return out


def naive_box(space, U):
    """The shell walk's reference: every congruent point of the box, by 1-norm.

    One scan of product(range(-(p-1), p)) per mask; each list is sorted.
    """
    p, qs = space.p, U.pick(space.q)
    by_norm = {}
    for x in product(range(-(p - 1), p), repeat=len(qs)):
        if sum(q * v for q, v in zip(qs, x)) % p == 0:
            by_norm.setdefault(sum(map(abs, x)), []).append(x)
    return by_norm


def test_enumerate_omega_matches_naive_in_order():
    # fiber_census keys, and so the rows of verify --deep, follow this order
    for p in range(1, 12):
        for m, h_max in ((2, 12), (3, 12), (4, 8)):
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                for h in range(h_max + 1):
                    expected = naive_shell(p, space.q, h, h)
                    assert enumerate_omega(space, h) == expected, (space, h)


def test_shell_counts_match_the_listing():
    # the count walk at every h_max, and the listing walk's single-norm count,
    # against enumerate_omega's lists; p = 1 passes every candidate.  Each
    # h_max in p - 1..p + 1 is where the step-p running sum starts to act
    for p in range(1, 14):
        sizes = ((2, 24), (3, 24), (4, 10)) + (((5, 6),) if p <= 7 else ())
        for m, h_top in sizes:
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                listed = [len(enumerate_omega(space, h)) for h in range(h_top + 1)]
                for h_max in range(h_top + 1):
                    assert shell_counts(space, h_max) == listed[: h_max + 1], (space, h_max)
                for h in range(h_top + 1):
                    assert n_lattice_bruteforce(space, h) == listed[h], (space, h)
    # at p = 2^61 - 1 no progression of step p is longer than one value
    space = make_lens_space(2**61 - 1, (1, 2, 3))
    assert shell_counts(space, 40) == [n_lattice_bruteforce(space, h) for h in range(41)]


def test_shell_counts_stand_apart_from_the_kernel(monkeypatch):
    # the count walk reads no numerator, kernel DP or series formula, and it
    # allocates nothing sized by p
    spaces = [make_lens_space(7, (1, 2, 3)), make_lens_space(2, (1, 1, 1, 1))]
    listed = [[len(enumerate_omega(space, h)) for h in range(11)] for space in spaces]

    def _refuse(*args, **kwargs):
        raise AssertionError("the count walk called the kernel")

    for name in ("lenslat.oracle.numerator", "lenslat.oracle._lattice_series",
                 "lenslat.oracle.n_lattice_formula", "lenslat.lattice._lattice_series"):
        monkeypatch.setattr(name, _refuse)
    assert [shell_counts(space, 10) for space in spaces] == listed
    huge = make_lens_space(2**61 - 1, (1, 2, 3))
    tracemalloc.start()
    try:
        shell_counts(huge, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_shell_counts_refuse_a_negative_norm():
    with pytest.raises(ValueError, match="h must be non-negative, got -1"):
        shell_counts(L211, -1)


def test_enumerate_c_refuses_a_negative_norm():
    with pytest.raises(ValueError) as err:
        enumerate_c(L211, SubsetMask.full(2), -1)
    assert str(err.value) == "s must be non-negative, got -1"


def test_single_norm_count_keeps_no_point():
    # the norm-300 sphere of L(2;1,1,1) holds 360,002 points, 37 MB as
    # enumerate_omega's list; the count keeps only the walk's prefixes
    space = make_lens_space(2, (1, 1, 1))
    tracemalloc.start()
    try:
        count = n_lattice_bruteforce(space, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 360002
    assert peak < 100_000


def test_congruent_shell_matches_naive_in_order_under_every_cap():
    # the box shells of enumerate_c and fold_law_checks: the cap binds, and
    # the last two coordinates run as one loop with its own cap bound; q
    # tuples unsorted or with non-units too, since the walk takes any
    for p in range(1, 10):
        for k in (1, 2, 3, 4):
            tuples = set(canonical_q_tuples(p, k))
            tuples |= {q[::-1] for q in tuples} | {tuple(range(k))}
            for qs in sorted(tuples):
                for cap in sorted({0, 1, p - 1}):
                    for s in range(cap * k + 2):
                        expected = naive_shell(p, qs, s, cap)
                        got = list(oracle._congruent_shell(p, qs, s, cap))
                        assert got == expected, (p, qs, s, cap)
                for s in range(9 if k < 4 else 7):  # cap = s: the whole sphere
                    expected = naive_shell(p, qs, s, s)
                    assert list(oracle._congruent_shell(p, qs, s, s)) == expected, (p, qs, s)


def test_enumerate_c_matches_naive_box():
    for p in range(1, 10):
        for m in (2, 3, 4):
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                for bits in range(1 << m):
                    U = SubsetMask(bits, m)
                    box = naive_box(space, U)
                    for s in range(m * p + 2):
                        got = sorted(enumerate_c(space, U, s))
                        assert got == box.get(s, []), (space, U, s)


def test_enumerate_h0_and_empty():
    assert enumerate_omega(L211, 0) == [(0, 0)]
    assert enumerate_omega(make_lens_space(3, (1, 2)), 1) == []


def test_enumerate_sphere_h1():
    assert n_lattice_bruteforce(make_lens_space(1, (1, 1)), 1) == 4


@given(space=lens_spaces(p_max=6), h=st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_enumerate_no_duplicates_and_predicates(space, h):
    points = enumerate_omega(space, h)
    assert len(points) == len(set(points))
    for x in points:
        assert sum(abs(v) for v in x) == h
        assert space.admits(x)


@given(m=st.integers(2, 4), h=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_l1_sphere_count_matches_vacuous_congruence(m, h):
    # p = 1 admits every vector, so the count is the whole 1-norm sphere
    sphere = make_lens_space(1, (1,) * m)
    assert n_lattice_bruteforce(sphere, h) == l1_sphere_count(m, h)


def test_l1_ball_count_sums_the_sphere_counts():
    # each sphere counted on its own: j signs and binom(h - 1, j - 1)
    # compositions of h into the j positive parts of a support of size j
    def sphere(m, h):
        if h == 0:
            return 1
        return sum(2**j * binom(m, j) * binom(h - 1, j - 1) for j in range(1, m + 1))

    for m in range(7):
        assert l1_ball_count(m, -1) == 0
        total = 0
        for h in range(31):
            total += sphere(m, h)
            assert l1_sphere_count(m, h) == sphere(m, h), (m, h)
            assert l1_ball_count(m, h) == total, (m, h)


def test_budget_refusal():
    # the listing and its single-norm count price the same sphere, the count
    # walk its whole ball
    for walk in (enumerate_omega, n_lattice_bruteforce):
        with pytest.raises(OracleBudgetError) as err:
            walk(L211, 10, budget=5)
        assert err.value.budget == 5
        assert err.value.candidates == l1_sphere_count(2, 10)
    with pytest.raises(OracleBudgetError) as err:
        shell_counts(L211, 10, budget=5)
    assert err.value.candidates == l1_ball_count(2, 10)


def test_box_budget_refusal():
    space = make_lens_space(7, (1, 2, 3))
    with pytest.raises(OracleBudgetError) as err:
        enumerate_c(space, SubsetMask.full(3), 2, budget=100)
    # the whole box (2p - 1)^|U| is priced, not the norm-2 shell walked
    assert err.value.candidates == 13**3
    assert err.value.budget == 100


# ---------------------------------------------------------------- partition


def _negative_multiples(p, x):
    """Bits of the indices whose coordinate is a negative multiple of p: N by its definition."""
    return sum(1 << j for j, v in enumerate(x) if v < 0 and v % p == 0)


def _class_sizes(space, h, points):
    """Size of each class N, read from the fiber census keys."""
    sizes = Counter()
    for (mask, _t, _y), size in fiber_census(space, h, points).items():
        sizes[mask.bits] += size
    return sizes


def test_classify_l211_h2():
    # six points with no coordinate in {-2, -4, ...}, then (-2, 0) and (0, -2)
    assert _class_sizes(L211, 2, enumerate_omega(L211, 2)) == {0b00: 6, 0b01: 1, 0b10: 1}


@given(space=lens_spaces(), h=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_partition_law(space, h):
    points = enumerate_omega(space, h)
    members = Counter(_negative_multiples(space.p, x) for x in points)
    sizes = _class_sizes(space, h, points)
    assert sizes == members  # each point counted once, in the class of its N
    assert sum(sizes.values()) == len(points)  # exhaustive


def test_partition_check_holds_on_grid():
    # every row of fold_law_checks holds: the partition row first, one
    # fiber_size row per census key in census order, the fiber_cover row last;
    # the two m = 4 spaces have whole boxes over the default budget, while
    # their shell walks stay inside the sphere count enumerate_omega checks;
    # a case's norms read through one shared table give the rows of a fresh
    # table per norm, as verify_grid shares one table over a case
    cases = [
        (make_lens_space(p, q), range(3 * p + 4))
        for p in range(1, 8)
        for m in (2, 3)
        for q in canonical_q_tuples(p, m)
    ]
    cases += [(make_lens_space(57, (1, 2, 4, 5)), range(7)),
              (make_lens_space(61, (1, 2, 3, 5)), range(7))]
    for space, hs in cases:
        shared = subset_table(space, max(hs))
        for h in hs:
            points = enumerate_omega(space, h)
            rows = list(fold_law_checks(space, h, points, subset_table(space, h)))
            assert list(fold_law_checks(space, h, points, shared)) == rows, (space, h)
            assert all(got == expected for _, got, expected in rows), (space, h)
            assert rows[0] == ("partition", str(len(points)), str(len(points))), (space, h)
            census = fiber_census(space, h, points)
            assert [row[:2] for row in rows[1:-1]] == [
                ("fiber_size", str(size)) for size in census.values()
            ], (space, h)
            assert rows[-1][0] == "fiber_cover", (space, h)


def test_partition_check_flags_misclassified_points(monkeypatch):
    # every point put in the class N = {} breaks the law of every class it left
    fold = oracle.fold_point

    def misclassify(space, x):
        return 0, fold(space, x)[1]

    monkeypatch.setattr(oracle, "fold_point", misclassify)
    points = enumerate_omega(L211, 2)
    kind, got, expected = next(fold_law_checks(L211, 2, points, subset_table(L211, 2)))
    assert kind == "partition"
    assert expected == "8"
    assert got == "8 (class 0b0: 8, law 6) (class 0b1: 0, law 1) (class 0b10: 0, law 1)"


def test_partition_check_notes_a_class_no_norm_can_hold(monkeypatch):
    # every point filed under N = {0, 1}, which holds no norm-2 point at p = 2:
    # the class is outside the table, and the sweep still notes it last
    def misclassify(space, x):
        return 0b11, ()

    monkeypatch.setattr(oracle, "fold_point", misclassify)
    table = subset_table(L211, 2)
    assert SubsetMask(0b11, 2) not in table
    kind, got, expected = next(fold_law_checks(L211, 2, enumerate_omega(L211, 2), table))
    assert (kind, expected) == ("partition", "8")
    assert got == (
        "8 (class 0b0: 0, law 6) (class 0b1: 0, law 1) (class 0b10: 0, law 1)"
        " (class 0b11: 8, law 0)"
    )


def test_fiber_cover_flags_a_missing_point():
    # (1, 1) alone folds onto the key (N = {}, t = 1, y = (1, 1))
    points = [x for x in enumerate_omega(L211, 2) if x != (1, 1)]
    rows = list(fold_law_checks(L211, 2, points, subset_table(L211, 2)))
    assert rows[0] == ("partition", "7 (class 0b0: 5, law 6)", "8")
    assert rows[-1] == ("fiber_cover", "6", "7")


def test_fold_law_checks_reads_class_sizes_from_the_census(monkeypatch):
    # the fiber census is the only classification: each point is folded once per call
    space = make_lens_space(7, (1, 2, 3))
    fold, folded = oracle.fold_point, []

    def counted(space, x):
        folded.append(tuple(x))
        return fold(space, x)

    monkeypatch.setattr(oracle, "fold_point", counted)
    for h in range(11):
        points = enumerate_omega(space, h)
        folded.clear()
        rows = list(fold_law_checks(space, h, points, subset_table(space, h)))
        assert all(got == expected for _, got, expected in rows), h
        assert sorted(folded) == sorted(points), h


def _box_dps(monkeypatch):
    """(number of box coordinates, cut) of each box DP run, the kernel wrapped where it is read."""
    series, runs = lattice._lattice_series, []

    def counted(p, qs, s_max, with_zp):
        if not with_zp:
            runs.append((len(qs), s_max))
        return series(p, qs, s_max, with_zp)

    for module in (lattice, oracle):
        monkeypatch.setattr(module, "_lattice_series", counted)
    return runs


def test_deep_verify_runs_one_box_dp_per_subset(monkeypatch):
    # one table per case: subset N's series is cut at h_max - |N|*p, the
    # largest s any norm up to h_max reads, and no DP runs where that is
    # negative, not one DP per norm, subset and offset
    runs = _box_dps(monkeypatch)
    space = make_lens_space(7, (1, 2, 3))
    cases = oracle.verify_cases(list(range(11)), oracle.DEFAULT_BUDGET, "run", space)
    checks = oracle.verify_grid(cases, oracle.DEFAULT_BUDGET, deep=True)
    assert checks and all(check.ok for check in checks)
    assert len(runs) <= 1 << space.m
    assert sorted(runs) == [(2, 3), (2, 3), (2, 3), (3, 10)]


def test_deep_verify_grid_runs_at_most_one_box_dp_per_subset_and_case(monkeypatch):
    # the CI's --deep grid, 1228 checks: at most 2^m box DPs per case
    runs = _box_dps(monkeypatch)
    hs = list(range(9))
    cases = oracle.verify_cases(hs, oracle.DEFAULT_BUDGET, "grid", p_max=5, ms=(2, 3))
    checks = oracle.verify_grid(cases, oracle.DEFAULT_BUDGET, deep=True)
    assert len(checks) == 1228 and all(check.ok for check in checks)
    assert len(runs) <= sum(1 << space.m for space, _ in cases)
    assert sorted(runs) == sorted(
        (space.m - u, 8 - u * space.p)
        for space, _ in cases
        for u in (bits.bit_count() for bits in range(1 << space.m))
        if 8 - u * space.p >= 0
    )


def test_fiber_census_builds_each_mask_once_per_call(monkeypatch):
    # a fold gives only its mask bits: the census builds at most the 2^m
    # masks, not one per point
    space = make_lens_space(5, (1, 2, 3))
    new, built = SubsetMask.__new__, []

    def counted(cls, bits, m):
        built.append(bits)
        return new(cls, bits, m)

    monkeypatch.setattr(SubsetMask, "__new__", staticmethod(counted))
    for h in range(13):
        points = enumerate_omega(space, h)
        built.clear()
        census = fiber_census(space, h, points)
        assert sum(census.values()) == len(points), h
        assert len(built) <= 1 << space.m, (h, len(built), len(points))
    assert len(points) > 1 << space.m


def test_subset_table_holds_the_classes_a_norm_up_to_h_max_can_hold():
    # N is a key iff |N|*p <= h_max, and carries gamma's series on N^c up to
    # h_max - |N|*p; no other class of the 2^m is built
    for p, m in product(range(1, 8), range(2, 6)):
        space = make_lens_space(p, canonical_q_tuples(p, m)[-1])
        for h_max in range(3 * p + 1):
            table = subset_table(space, h_max)
            masks = [SubsetMask(bits, m) for bits in range(1 << m)]
            assert set(table) == {mask for mask in masks if mask.u * p <= h_max}, (space, h_max)
            for mask, (qs, series) in table.items():
                rest = mask.complement()
                assert qs == rest.pick(space.q), (space, h_max, mask)
                cut = h_max - mask.u * p
                assert series == [gamma(space, rest, s) for s in range(cut + 1)], (space, mask)


def test_deep_verify_of_sixteen_coordinates_builds_only_the_classes_it_reads(monkeypatch):
    # L(2; 1 x 16) at h = 0: the table holds the empty class alone and the
    # one point folds into it, so a handful of masks, not 2^16 per table and norm
    space = make_lens_space(2, (1,) * 16)
    new, built = SubsetMask.__new__, []

    def counted(cls, bits, m):
        built.append(bits)
        return new(cls, bits, m)

    monkeypatch.setattr(SubsetMask, "__new__", staticmethod(counted))
    cases = oracle.verify_cases([0], oracle.DEFAULT_BUDGET, "run", space, deep=True)
    checks = oracle.verify_grid(cases, oracle.DEFAULT_BUDGET, deep=True)
    assert len(checks) == 4 and all(check.ok for check in checks)
    assert len(built) <= 4, len(built)


# ------------------------------------------------------------------- fold


def test_fold_examples():
    assert fold_point(L211, (-2, 0)) == (0b01, (0,))
    assert fold_point(L211, (3, -1)) == (0, (1, -1))
    assert fold_point(L211, (0, 0)) == (0, (0, 0))


def test_fold_rejects_noncongruent():
    with pytest.raises(ValueError, match="congruence"):
        fold_point(L211, (1, 0))


@given(space=lens_spaces(p_max=6), h=st.integers(0, 8))
@settings(max_examples=50, deadline=None)
def test_fold_norm_drop_and_box(space, h):
    p = space.p
    for x in enumerate_omega(space, h):
        bits, y = fold_point(space, x)
        assert bits == _negative_multiples(p, x)
        mask = SubsetMask(bits, space.m)
        assert len(y) == space.m - mask.u
        drop = h - sum(abs(v) for v in y)
        assert drop >= 0 and drop % p == 0
        assert drop // p >= mask.u  # at least one packet of p per dropped index
        assert all(abs(v) <= p - 1 for v in y)
        # folded vector keeps the congruence over the complement
        qs = mask.complement().pick(space.q)
        assert sum(q * v for q, v in zip(qs, y)) % p == 0


# ---------------------------------------------------------------- fibers


def test_fiber_census_l211_h2():
    census = fiber_census(L211, 2, enumerate_omega(L211, 2))
    empty = SubsetMask(0, 2)
    assert census[(empty, 0, (0, 0))] == 2  # {(2,0), (0,2)}
    assert census[(empty, 1, (1, 1))] == 1
    assert census[(empty, 1, (1, -1))] == 1
    assert census[(empty, 1, (-1, 1))] == 1
    assert census[(empty, 1, (-1, -1))] == 1
    assert census[(SubsetMask(0b01, 2), 0, (0,))] == 1
    assert census[(SubsetMask(0b10, 2), 0, (0,))] == 1
    assert sum(census.values()) == 8


def test_fiber_census_h0():
    space = make_lens_space(3, (1, 1, 1))
    census = fiber_census(space, 0, enumerate_omega(space, 0))
    assert census == {(SubsetMask(0, 3), 0, (0, 0, 0)): 1}


def test_fiber_census_refuses_a_point_off_the_sphere():
    # (2, 2) is congruent in L(3;1,2) but has 1-norm 4: filed under h = 5
    # it would be a fiber with t = 0
    with pytest.raises(ValueError, match=r"\(2, 2\) has 1-norm 4, not 5"):
        fiber_census(make_lens_space(3, (1, 2)), 5, [(2, 2)])


def test_fiber_census_refuses_a_point_off_the_sphere_under_python_O():
    # the check must not be an assert, which python -O strips
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "from lenslat import make_lens_space\n"
        "from lenslat.oracle import fiber_census\n"
        "try:\n"
        "    fiber_census(make_lens_space(3, (1, 2)), 5, [(2, 2)])\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "(2, 2) has 1-norm 4, not 5\n"


@given(space=lens_spaces(p_max=5), h=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_fiber_law(space, h):
    p, m = space.p, space.m
    k, n = decompose(h, p)
    census = fiber_census(space, h, enumerate_omega(space, h))
    # every occupied key has the predicted size
    for (mask, t, y), size in census.items():
        assert sum(abs(v) for v in y) == k + t * p
        assert size == binom(n - t + (m - mask.u) - 1, m - 1)
    # every admissible key is occupied
    for bits in range(1 << m):
        mask = SubsetMask(bits, m)
        for t in range(n - mask.u + 1):
            for y in enumerate_c(space, mask.complement(), k + t * p):
                assert (mask, t, y) in census


# ------------------------------------------------------------- gamma twin


def test_gamma_bruteforce_examples():
    assert gamma_bruteforce(make_lens_space(3, (1, 1)), SubsetMask.full(2), 3) == 4
    assert gamma_bruteforce(L211, SubsetMask(0, 2), 0) == 1
    assert gamma_bruteforce(L211, SubsetMask.full(2), 4) == 0  # beyond the box


# ------------------------------------------------------------- verify plan


def test_verify_cases_of_a_small_grid_are_its_canonical_classes_in_order():
    hs = [0, 1, 2, 3, 4]
    cases = oracle.verify_cases(hs, oracle.DEFAULT_BUDGET, "verify grid", p_max=2, ms=(2, 3))
    # one class per (p, m): p = 1 reduces every q to 0, p = 2 every unit to 1
    assert cases == [
        (make_lens_space(1, (1, 1)), hs),
        (make_lens_space(1, (1, 1, 1)), hs),
        (make_lens_space(2, (1, 1)), hs),
        (make_lens_space(2, (1, 1, 1)), hs),
    ]


def test_verify_cases_of_one_space_are_that_space():
    space = make_lens_space(7, (1, 2, 3))
    assert oracle.verify_cases([5], oracle.DEFAULT_BUDGET, "verify run", space) == [(space, [5])]


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the run was refused")


def test_verify_cases_refuse_a_huge_grid_before_any_class(monkeypatch):
    # the running DP-bits sum passes its ceiling near p = 300, not at p = 10**12
    for name in ("canonical_q_tuples", "make_lens_space", "numerator"):
        monkeypatch.setattr(f"lenslat.oracle.{name}", _refuse)
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        oracle.verify_cases(list(range(21)), oracle.DEFAULT_BUDGET, "verify grid",
                            p_max=10**12, ms=(2,))
    assert time.perf_counter() - start < 1
    assert str(err.value) == "verify grid builds numerators over 100000000000 DP bits"


def test_verify_cases_refuse_a_class_walk_over_the_ceiling_before_any_class(monkeypatch):
    # the price loop meets the class rule through _canonical_candidates: with the
    # DP-bits ceiling out of the way, p = 7, m = 3 walks C(4, 2) = 6 tuples, over 5
    monkeypatch.setattr(lattice, "MAX_CANONICAL_CANDIDATES", 5)
    monkeypatch.setattr(oracle, "VERIFY_MAX_DP_BITS", 10**30)
    for name in ("canonical_q_tuples", "make_lens_space", "numerator"):
        monkeypatch.setattr(f"lenslat.oracle.{name}", _refuse)
    with pytest.raises(ValueError) as err:
        oracle.verify_cases([0], oracle.DEFAULT_BUDGET, "verify grid", p_max=7, ms=(3,))
    assert str(err.value) == "6 candidate tuples at p = 7, m = 3 are over 5"


@pytest.mark.parametrize("p_max", [0, 10**30])
def test_verify_cases_check_every_m_before_pricing(p_max, monkeypatch):
    # an m < 2 is refused for itself, whether or not any p would be priced
    for name in ("_canonical_candidates", "canonical_q_tuples", "make_lens_space"):
        monkeypatch.setattr(f"lenslat.oracle.{name}", _refuse)
    with pytest.raises(ValueError) as err:
        oracle.verify_cases([0], oracle.DEFAULT_BUDGET, "grid", p_max=p_max, ms=(3, 1))
    assert str(err.value) == "need at least two rotation parameters, got 1"


def test_deep_verify_cases_price_each_subset_dp(monkeypatch):
    # L(7;1,2,3) to h = 10: one numerator, and with deep 2^3 subset DPs priced
    # at the full q's box DP to degree 10 each
    space, hs = make_lens_space(7, (1, 2, 3)), list(range(11))
    price = lattice._numerator_bits(7, 3) + 8 * lattice._pass_plan(7, 3, 10, False)[2]
    monkeypatch.setattr(oracle, "VERIFY_MAX_DP_BITS", price)
    assert oracle.verify_cases(hs, oracle.DEFAULT_BUDGET, "run", space, deep=True) == [(space, hs)]
    monkeypatch.setattr(oracle, "VERIFY_MAX_DP_BITS", price - 1)
    assert oracle.verify_cases(hs, oracle.DEFAULT_BUDGET, "run", space) == [(space, hs)]
    with pytest.raises(ValueError, match=f"run builds numerators over {price - 1} DP bits"):
        oracle.verify_cases(hs, oracle.DEFAULT_BUDGET, "run", space, deep=True)


def test_deep_price_bounds_every_subset_dp_it_stands_for():
    # subset N's DP covers the m - |N| coordinates of N^c to h_max - |N|*p,
    # never more bits than the full q's box DP to h_max
    for p, m, h_max in product(range(1, 14), range(2, 7), range(0, 40, 3)):
        bound = lattice._pass_plan(p, m, h_max, False)[2]
        for u in range(m + 1):
            if h_max - u * p >= 0:
                assert lattice._pass_plan(p, m - u, h_max - u * p, False)[2] <= bound


def test_deep_verify_of_forty_coordinates_is_refused_before_its_table(monkeypatch):
    # 2^40 subset DPs at h = 0, where the oracle sees one candidate; without
    # deep the same run is one case
    monkeypatch.setattr(oracle, "_lattice_series", _refuse)
    space = make_lens_space(2, (1,) * 40)
    assert oracle.verify_cases([0], oracle.DEFAULT_BUDGET, "run", space) == [(space, [0])]
    with pytest.raises(ValueError, match="run builds numerators over 100000000000 DP bits"):
        oracle.verify_cases([0], oracle.DEFAULT_BUDGET, "run", space, deep=True)
