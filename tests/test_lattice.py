import math
import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslat import (
    LensSpace,
    SubsetMask,
    binom,
    canonical_q_tuples,
    decompose,
    gamma,
    make_lens_space,
    numerator,
)
from lenslat import lattice
from lenslat.lattice import _canonical_candidates, _lattice_series, _series_shape
from lenslat.oracle import gamma_bruteforce
from records import check_record
from strategies import lens_spaces, q_tuples, subset_masks, units_mod


def all_masks(m):
    return [SubsetMask(bits, m) for bits in range(1 << m)]


# ---------------------------------------------------------------- LensSpace


def test_make_lens_space_basic():
    space = make_lens_space(7, (1, 2, 3))
    assert space.p == 7
    assert space.m == 3
    assert space.d == 5
    assert space.q == (1, 2, 3)


def test_q_reduced_mod_p():
    assert make_lens_space(5, (1, 9)).q == (1, 4)
    assert make_lens_space(5, (1, -1)).q == (1, 4)


def test_rejects_shared_factor():
    with pytest.raises(ValueError, match=r"q_2 = 2 .*gcd\(2, 4\)"):
        make_lens_space(4, (1, 2))


def test_rejects_short_q_and_bad_p():
    with pytest.raises(ValueError):
        make_lens_space(5, (1,))
    with pytest.raises(ValueError):
        make_lens_space(0, (1, 1))
    with pytest.raises(ValueError):
        make_lens_space(-3, (1, 1))


def test_p1_accepts_everything():
    space = make_lens_space(1, (3, 8))
    assert space.q == (0, 0)
    assert space.admits((17, -4))


def test_admits():
    space = make_lens_space(4, (1, 3))
    assert space.admits((1, 1))
    assert not space.admits((1, 0))
    with pytest.raises(ValueError):
        space.admits((1, 0, 0))


L211 = make_lens_space(2, (1, 1))


@pytest.mark.parametrize("record, text", [
    (make_lens_space(7, (8, 2, 3)), "LensSpace(p=7, q=(1, 2, 3))"),
    (SubsetMask(0b101, 3), "SubsetMask(bits=5, m=3)"),
    (numerator(L211), "Numerator(space=LensSpace(p=2, q=(1, 1)), coeffs=(1, 0, 6, 0, 1))"),
], ids=["LensSpace", "SubsetMask", "Numerator"])
def test_value_record_contract(record, text):
    check_record(record, text)


def test_lens_space_validates_however_it_is_built():
    with pytest.raises(ValueError, match="^p must be a positive integer, got 0$"):
        LensSpace(0, (1, 2))
    with pytest.raises(
        ValueError,
        match=r"^invalid lens space: q_1 = 2 is not coprime to p = 6 \(gcd\(2, 6\) = 2\)$",
    ):
        LensSpace(6, (2, 1))
    space = LensSpace(7, (1, 2, 3))
    assert make_lens_space(7, (8, 2, 3)) == space
    assert hash(make_lens_space(7, (8, 2, 3))) == hash(space)
    assert space._replace(q=(8, 2, 3)) == space
    with pytest.raises(ValueError, match="q_2 = 2 is not coprime to p = 6"):
        space._replace(p=6)
    with pytest.raises(ValueError, match="bits 0x8 out of range for an 3-bit mask"):
        SubsetMask(5, 3)._replace(bits=8)


def test_lens_space_is_a_tuple():
    p, q = make_lens_space(7, (8, 2, 3))
    assert (p, q) == (7, (1, 2, 3)) == make_lens_space(7, (8, 2, 3))


# ---------------------------------------------------------------- SubsetMask


def test_subset_mask_basics():
    full = SubsetMask.full(3)
    assert full.bits == 0b111 and full.u == 3
    assert SubsetMask.empty(3).u == 0
    mask = SubsetMask.from_indices([0, 2], 3)
    assert mask.bits == 0b101
    assert mask.indices() == (0, 2)
    assert mask.complement().indices() == (1,)
    assert mask.pick(("a", "b", "c")) == ("a", "c")


def test_subset_mask_validation():
    with pytest.raises(ValueError):
        SubsetMask(8, 3)
    with pytest.raises(ValueError):
        SubsetMask(-1, 3)
    with pytest.raises(ValueError):
        SubsetMask.from_indices([3], 3)
    with pytest.raises(ValueError, match="index 0 given more than once"):
        SubsetMask.from_indices([0, 0], 2)
    with pytest.raises(ValueError, match="index 2 given more than once"):
        SubsetMask.from_indices([2, 1, 2], 3)


# ---------------------------------------------------------------- binom


@pytest.mark.parametrize(
    "pool, choose, expected",
    [(4, 2, 6), (1, 2, 0), (-1, 1, 0), (0, 0, 1), (5, 5, 1), (3, -1, 0), (6, 3, 20)],
)
def test_binom_values(pool, choose, expected):
    assert binom(pool, choose) == expected


def test_binom_matches_factorial_ratio():
    for pool in range(31):
        for choose in range(pool + 1):
            ratio = math.factorial(pool) // (
                math.factorial(choose) * math.factorial(pool - choose)
            )
            assert binom(pool, choose) == ratio


# ---------------------------------------------------------------- decompose


@pytest.mark.parametrize("h, p, expected", [(9, 4, (1, 2)), (0, 5, (0, 0)), (6, 1, (0, 6))])
def test_decompose_values(h, p, expected):
    assert decompose(h, p) == expected


@given(h=st.integers(0, 10**6), p=st.integers(1, 1000))
def test_decompose_roundtrip(h, p):
    k, n = decompose(h, p)
    assert h == k + n * p
    assert 0 <= k < p
    assert n >= 0


def test_decompose_rejects_negative():
    with pytest.raises(ValueError):
        decompose(-1, 3)


# ---------------------------------------------------------------- gamma


def test_gamma_spot_values():
    # brute-force verified: (1,2),(2,1),(-1,-2),(-2,-1) for L(3;1,1) at s=3
    s311 = make_lens_space(3, (1, 1))
    assert gamma(s311, SubsetMask.full(2), 3) == 4
    # (+-1, +-1) for L(2;1,1) at s=2
    s211 = make_lens_space(2, (1, 1))
    assert gamma(s211, SubsetMask.full(2), 2) == 4


def test_gamma_empty_subset():
    space = make_lens_space(6, (1, 5))
    empty = SubsetMask.empty(2)
    assert gamma(space, empty, 0) == 1
    assert gamma(space, empty, 1) == 0
    assert gamma(space, empty, 7) == 0


def test_gamma_rejects_negative_norm():
    space = make_lens_space(3, (1, 1))
    with pytest.raises(ValueError):
        gamma(space, SubsetMask.full(2), -1)


def test_gamma_rejects_wrong_mask_width():
    space = make_lens_space(3, (1, 1))
    with pytest.raises(ValueError):
        gamma(space, SubsetMask.full(3), 0)


def numerator_from_gamma(space, s, count=gamma):
    """P[s] = sum_U count(U, s - (m - |U|)*p): the coordinates outside U
    take the factor's z^p term, the ones inside stay in the box."""
    p, m = space.p, space.m
    return sum(
        count(space, mask, s - (m - mask.u) * p)
        for mask in all_masks(m)
        if s >= (m - mask.u) * p
    )


def test_gamma_table_l211():
    space = make_lens_space(2, (1, 1))
    full = SubsetMask.full(2)
    assert gamma(space, SubsetMask.empty(2), 0) == 1
    assert gamma(space, SubsetMask(0b01, 2), 0) == 1
    assert gamma(space, SubsetMask(0b10, 2), 0) == 1
    assert gamma(space, full, 0) == 1
    assert gamma(space, full, 2) == 4
    # every other entry in range s <= 2 is zero
    for mask in all_masks(2):
        for s in range(1, 3):
            if (mask, s) != (full, 2):
                assert gamma(space, mask, s) == 0
    # the numerator collects the table: P(z) = 1 + (4 + 2)z^2 + z^4,
    # gamma(M, 2) plus one z^p term per coordinate
    assert numerator(space).coeffs == (1, 0, 6, 0, 1)


def test_gamma_table_p1():
    space = make_lens_space(1, (1, 1))
    for mask in all_masks(2):
        assert gamma(space, mask, 0) == 1
        for s in range(1, 5):
            assert gamma(space, mask, s) == 0
    # the sphere: P(z) = (1 + z)^m
    assert numerator(space).coeffs == (1, 2, 1)


def test_gamma_table_l311_matches_gamma_example():
    space = make_lens_space(3, (1, 1))
    assert gamma(space, SubsetMask.full(2), 3) == 4
    # plus one term per coordinate taking its z^3 term, the other x = 0
    assert numerator(space).value(3) == 6


def test_gamma_table_matches_gamma_pointwise():
    for p, q in [(2, (1, 1)), (3, (1, 2)), (4, (1, 3)), (5, (2, 3)), (5, (1, 2, 4))]:
        space = make_lens_space(p, q)
        num = numerator(space)
        assert len(num.coeffs) == space.m * p + 1
        for s in range(space.m * p + 2):
            assert num.value(s) == numerator_from_gamma(space, s)
            # the oracle twin scans the box, independent of the shared DP
            assert num.value(s) == numerator_from_gamma(space, s, gamma_bruteforce)


def test_numerator_truncation():
    # spectrum builds P only up to the largest degree it reads; the capped
    # DP must give exactly the prefix of the full one, padded with zeros
    # above the degree m*p
    for p, q in [(1, (1, 1)), (3, (1, 1)), (7, (1, 2, 3))]:
        space = make_lens_space(p, q)
        num = numerator(space)
        full = num.coeffs
        for s_max in (0, 1, 2, p, len(full) - 2, len(full) - 1, len(full) + 5):
            capped = _lattice_series(p, space.q, s_max, with_zp=True)
            assert capped == [num.value(s) for s in range(s_max + 1)]
    num = numerator(make_lens_space(3, (1, 1)))
    assert num.value(2) == gamma(num.space, SubsetMask.full(2), 2)  # below p
    assert num.value(7) == 0  # above the degree m*p = 6
    with pytest.raises(ValueError):
        num.value(-1)


def divide_by_one_plus_z(coeffs):
    """Synthetic division by 1 + z: (quotient, remainder), low degree first."""
    carry, quotient = 0, []
    for c in reversed(coeffs):
        carry = c - carry
        quotient.append(carry)
    remainder = quotient.pop()
    return quotient[::-1], remainder


def test_odd_p_numerator_has_factor_one_plus_z_to_the_m():
    # multiplicity reads dim(lambda_i) at stride p for odd p because
    # (1 + z)^m divides P there: each coordinate's factor vanishes at z = -1
    cases = [(p, q) for p in range(1, 16, 2) for m in (2, 3, 4) for q in canonical_q_tuples(p, m)]
    for p, q in cases + [(1009, (1, 2, 3))]:
        poly = list(numerator(make_lens_space(p, q)).coeffs)
        for _ in q:
            poly, remainder = divide_by_one_plus_z(poly)
            assert remainder == 0, (p, q)
    assert divide_by_one_plus_z([1, 0, 1]) == ([-1, 1], 2)  # 1 + z^2 = (1 + z)(z - 1) + 2


def list_series(p, qs, s_max, with_zp):
    """The packed kernel's reference: the same DP over a list of p residues per degree."""
    columns = min(s_max, len(qs) * (p if with_zp else p - 1)) + 1
    zero = [0] * p
    cols = [zero] * columns
    cols[0] = [1] + zero[1:]
    for q in qs:
        up = down = zero
        new = []
        for v, col in enumerate(cols):
            back = cols[v - p] if v >= p else zero
            base = [c - b for c, b in zip(col, back)]
            from_up = up[-q:] + up[:-q]  # from_up[r] = up[r - q]
            from_down = down[q:] + down[:q]  # from_down[r] = down[r + q]
            up = [b + u for b, u in zip(base, from_up)]
            down = [b + d for b, d in zip(base, from_down)]
            out = [u + d for u, d in zip(up, from_down)]
            new.append(out if with_zp else [o - b for o, b in zip(out, back)])
        cols = new
    return [col[0] for col in cols] + [0] * (s_max + 1 - columns)


def kernel_cases():
    """(p, qs): the criterion-1 grid, random unit tuples for every p < 40
    and m <= 4, and the two cases whose slot width is nearly tight."""
    rng = random.Random(6)
    cases = [(p, q) for p in range(1, 11) for m in (2, 3) for q in canonical_q_tuples(p, m)]
    for p in range(1, 40):
        for m in range(5):
            for _ in range(3):
                cases.append((p, tuple(rng.choice(units_mod(p)) for _ in range(m))))
    cases.append((2, (1,) * 30))  # 4^30 = 2^60: B = 62, and 56 bits give wrong counts
    cases.append((3, tuple(rng.choice((1, 2)) for _ in range(20))))
    return cases


def test_packed_kernel_matches_list_reference():
    # pass k of the kernel builds degrees up to k*p/2 of its palindromic
    # product and mirrors the rest; list_series builds every degree
    for p, q in kernel_cases():
        qs = tuple(v % p for v in q)
        for with_zp in (False, True):
            cap = len(qs) * (p if with_zp else p - 1)
            edges = {s for k in range(1, len(qs) + 1) for s in (k * p // 2, k * p // 2 + 1, k * p)}
            for s_max in sorted({cap // 2, cap, cap + 3} | edges):
                packed = _lattice_series(p, qs, s_max, with_zp)
                assert packed == list_series(p, qs, s_max, with_zp), (p, qs, s_max, with_zp)


def test_numerator_is_palindromic_with_mass_2_to_the_m_p_to_the_m_minus_1():
    # each factor z^p + sum_{|x|<p} w^(qx) z^|x| is palindromic of degree p,
    # and at z = 1 it is 2*sum_r w^r, so P[s] = P[m*p - s] and
    # P(1) = 2^m * p^(m-1); the kernel mirrors half of every pass, so a
    # wrong half or a wrong mirror index breaks one of the two
    cases = [(p, q) for p in range(1, 11) for m in (2, 3) for q in canonical_q_tuples(p, m)]
    for p, q in cases + [(1009, (1, 2, 3))]:
        coeffs = numerator(make_lens_space(p, q)).coeffs
        assert coeffs == coeffs[::-1], (p, q)
        assert sum(coeffs) == 2 ** len(q) * p ** (len(q) - 1), (p, q)


def test_largest_documented_size_is_admitted():
    assert _series_shape(1009, 3, 3 * 1009, with_zp=True) == (3028, 34)


# ------------------------------------------------------------- properties


@given(space=lens_spaces(), data=st.data())
@settings(max_examples=150)
def test_gamma_even_for_positive_norm(space, data):
    mask = data.draw(subset_masks(space.m))
    s = data.draw(st.integers(1, space.m * (space.p - 1) + 2))
    assert gamma(space, mask, s) % 2 == 0


@given(space=lens_spaces(), data=st.data())
@settings(max_examples=100)
def test_gamma_zero_beyond_box(space, data):
    mask = data.draw(subset_masks(space.m))
    s = data.draw(st.integers(mask.u * (space.p - 1) + 1, mask.u * (space.p - 1) + 30))
    assert gamma(space, mask, s) == 0


@given(space=lens_spaces(p_max=7), data=st.data())
@settings(max_examples=100)
def test_gamma_invariances(space, data):
    p, m = space.p, space.m
    mask = data.draw(subset_masks(m))
    s = data.draw(st.integers(0, m * (p - 1)))
    reference = gamma(space, mask, s)

    # permuting the parameters together with the subset
    perm = data.draw(st.permutations(range(m)))
    permuted = make_lens_space(p, tuple(space.q[j] for j in perm))
    # coordinate i of the new space is old coordinate perm[i]
    new_bits = 0
    for i in range(m):
        if mask.bits >> perm[i] & 1:
            new_bits |= 1 << i
    assert gamma(permuted, SubsetMask(new_bits, m), s) == reference

    # shifting one parameter by p
    j = data.draw(st.integers(0, m - 1))
    shifted = make_lens_space(p, tuple(v + p if i == j else v for i, v in enumerate(space.q)))
    assert gamma(shifted, mask, s) == reference

    # negating one parameter
    negated = make_lens_space(p, tuple(-v if i == j else v for i, v in enumerate(space.q)))
    assert gamma(negated, mask, s) == reference

    # scaling all parameters by a unit
    c = data.draw(st.sampled_from(units_mod(p)))
    scaled = make_lens_space(p, tuple(c * v for v in space.q))
    assert gamma(scaled, mask, s) == reference


def test_gamma_matches_enumeration_exhaustive():
    # full small grid, every subset, every in-box norm
    for p in range(1, 6):
        for m in (2, 3):
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                for mask in all_masks(m):
                    for s in range(mask.u * (p - 1) + 1):
                        assert gamma(space, mask, s) == gamma_bruteforce(space, mask, s)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_gamma_matches_enumeration_property(data):
    p = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(2, 4))
    space = make_lens_space(p, data.draw(q_tuples(p, m)))
    mask = data.draw(subset_masks(m))
    s = data.draw(st.integers(0, mask.u * (p - 1)))
    assert gamma(space, mask, s) == gamma_bruteforce(space, mask, s)


# ------------------------------------------------------- symmetry classes


def _classes_bruteforce(p, m):
    """First-seen unit tuple of each class over the full product of units.

    A tuple's class key is its least folded, sorted image over every
    unit scaling; entries are units in 1..p-1 (just 1 when p <= 2).
    """
    units = [c for c in range(1, max(p, 2)) if math.gcd(c, p) == 1]
    folds = [{v: min(c * v % p, -c * v % p) for v in units} for c in units]
    seen, out = set(), []
    for q in product(units, repeat=m):
        key = min(tuple(sorted(fold[v] for v in q)) for fold in folds)
        if key not in seen:
            seen.add(key)
            out.append(q)
    return out


@pytest.mark.parametrize("m, p_max", [(0, 13), (1, 13), (2, 31), (3, 31), (4, 13)])
def test_canonical_q_tuples_match_bruteforce(m, p_max):
    for p in range(1, p_max + 1):
        assert canonical_q_tuples(p, m) == _classes_bruteforce(p, m), p


def test_canonical_q_tuples_at_census_scale():
    tuples = canonical_q_tuples(101, 3)
    assert len(tuples) == 442
    assert tuples == sorted(set(tuples))
    assert all(q[0] == 1 and max(q) <= 50 for q in tuples)


def test_canonical_q_tuples_rejects_bad_input():
    with pytest.raises(ValueError, match="p must be a positive integer, got 0"):
        canonical_q_tuples(0, 2)
    with pytest.raises(ValueError, match="m must be non-negative, got -1"):
        canonical_q_tuples(5, -1)


def test_canonical_candidates_count_the_walk():
    for p in range(3, 60):
        half = [v for v in range(1, p // 2 + 1) if math.gcd(v, p) == 1]
        for m in range(1, 5):
            walked = sum(1 for _ in combinations_with_replacement(half, m - 1))
            assert _canonical_candidates(p, m) == walked, (p, m)
    assert _canonical_candidates(2, 5) == _canonical_candidates(9, 0) == 1


def test_canonical_candidates_refuse_early_only_over_the_ceiling(monkeypatch):
    # phi(p) >= sqrt(p/2) bounds the walk from below: every p refused before
    # trial division walks over the ceiling, and every other p is counted exactly
    exact = {(p, m): _canonical_candidates(p, m) for p in range(3, 3000) for m in (2, 3, 4)}
    monkeypatch.setattr(lattice, "MAX_CANONICAL_CANDIDATES", 50)
    refused = 0
    for (p, m), walked in exact.items():
        try:
            assert _canonical_candidates(p, m) == walked
        except ValueError as err:
            assert str(err) == f"over 50 candidate tuples at p = {p}, m = {m}"
            assert walked > 50, (p, m)
            refused += 1
    assert refused > 1000


def test_canonical_q_tuples_refuses_over_the_ceiling(monkeypatch):
    # p = 101, m = 3 walks binom(51, 2) = 1275 candidates
    monkeypatch.setattr(lattice, "MAX_CANONICAL_CANDIDATES", 1275)
    assert len(canonical_q_tuples(101, 3)) == 442
    monkeypatch.setattr(lattice, "MAX_CANONICAL_CANDIDATES", 1274)
    with pytest.raises(ValueError, match="^1275 candidate tuples at p = 101, m = 3 are over 1274$"):
        canonical_q_tuples(101, 3)
