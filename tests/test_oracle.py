import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslat import SubsetMask, binom, canonical_q_tuples, decompose, make_lens_space
from lenslat import oracle
from lenslat.oracle import (
    OracleBudgetError,
    enumerate_c,
    enumerate_omega,
    fiber_census,
    fold_law_checks,
    fold_point,
    gamma_bruteforce,
    l1_sphere_count,
    n_lattice_bruteforce,
    negative_multiple_mask,
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
                        assert oracle._congruent_shell(p, qs, s, cap) == expected, (p, qs, s, cap)
                for s in range(9 if k < 4 else 7):  # cap = s: the whole sphere
                    expected = naive_shell(p, qs, s, s)
                    assert oracle._congruent_shell(p, qs, s, s) == expected, (p, qs, s)


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


def test_budget_refusal():
    with pytest.raises(OracleBudgetError) as err:
        enumerate_omega(L211, 10, budget=5)
    assert err.value.budget == 5
    assert err.value.candidates == l1_sphere_count(2, 10)


def test_box_budget_refusal():
    space = make_lens_space(7, (1, 2, 3))
    with pytest.raises(OracleBudgetError):
        enumerate_c(space, SubsetMask.full(3), 2, budget=100)


# ---------------------------------------------------------------- partition


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
    members = Counter(negative_multiple_mask(space, x).bits for x in points)
    sizes = _class_sizes(space, h, points)
    assert sizes == members  # each point counted once, in the class of its N
    assert sum(sizes.values()) == len(points)  # exhaustive


def test_partition_check_holds_on_grid():
    # every row of fold_law_checks holds: the partition row first, one
    # fiber_size row per census key in census order, the fiber_cover row last;
    # the two m = 4 spaces have whole boxes over the default budget, while
    # their shell walks stay inside the sphere count enumerate_omega checks
    cases = [
        (make_lens_space(p, q), range(3 * p + 4))
        for p in range(1, 8)
        for m in (2, 3)
        for q in canonical_q_tuples(p, m)
    ]
    cases += [(make_lens_space(57, (1, 2, 4, 5)), range(7)),
              (make_lens_space(61, (1, 2, 3, 5)), range(7))]
    for space, hs in cases:
        for h in hs:
            points = enumerate_omega(space, h)
            rows = list(fold_law_checks(space, h, points))
            assert all(got == expected for _, got, expected in rows), (space, h)
            assert rows[0] == ("partition", str(len(points)), str(len(points))), (space, h)
            census = fiber_census(space, h, points)
            assert [row[:2] for row in rows[1:-1]] == [
                ("fiber_size", str(size)) for size in census.values()
            ], (space, h)
            assert rows[-1][0] == "fiber_cover", (space, h)


def test_partition_check_flags_misclassified_points(monkeypatch):
    # every point put in the class N = {} breaks the law of every class it left
    def misclassify(space, x):
        return SubsetMask.empty(space.m)

    monkeypatch.setattr(oracle, "negative_multiple_mask", misclassify)
    points = enumerate_omega(L211, 2)
    kind, got, expected = next(fold_law_checks(L211, 2, points))
    assert kind == "partition"
    assert expected == "8"
    assert got == "8 (class 0b0: 8, law 6) (class 0b1: 0, law 1) (class 0b10: 0, law 1)"


def test_fiber_cover_flags_a_missing_point():
    # (1, 1) alone folds onto the key (N = {}, t = 1, y = (1, 1))
    points = [x for x in enumerate_omega(L211, 2) if x != (1, 1)]
    rows = list(fold_law_checks(L211, 2, points))
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
        rows = list(fold_law_checks(space, h, points))
        assert all(got == expected for _, got, expected in rows), h
        assert sorted(folded) == sorted(points), h


# ------------------------------------------------------------------- fold


def test_fold_examples():
    assert fold_point(L211, (-2, 0)) == (SubsetMask(0b01, 2), (0,))
    assert fold_point(L211, (3, -1)) == (SubsetMask.empty(2), (1, -1))
    assert fold_point(L211, (0, 0)) == (SubsetMask.empty(2), (0, 0))


def test_fold_rejects_noncongruent():
    with pytest.raises(ValueError, match="congruence"):
        fold_point(L211, (1, 0))


@given(space=lens_spaces(p_max=6), h=st.integers(0, 8))
@settings(max_examples=50, deadline=None)
def test_fold_norm_drop_and_box(space, h):
    p = space.p
    for x in enumerate_omega(space, h):
        mask, y = fold_point(space, x)
        assert mask == negative_multiple_mask(space, x)
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
    empty = SubsetMask.empty(2)
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
    assert census == {(SubsetMask.empty(3), 0, (0, 0, 0)): 1}


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
    assert gamma_bruteforce(L211, SubsetMask.empty(2), 0) == 1
    assert gamma_bruteforce(L211, SubsetMask.full(2), 4) == 0  # beyond the box
