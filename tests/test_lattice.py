import math
import random
import time
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
from lenslat.lattice import (
    _canonical_candidates,
    _canonical_form,
    _lattice_series,
    _numerator_bits,
    _pass_plan,
)
from lenslat.oracle import fold_point, gamma_bruteforce
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


class _Index:
    """An integer-like type that is not an int: it converts only through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("build", [
    lambda: make_lens_space(7.9, (1, 2)),
    lambda: make_lens_space(7, (1, 2.6)),
    lambda: LensSpace(7, (1, 2.6)),
    lambda: make_lens_space("7", (1, 2)),
    lambda: LensSpace(7, ("1", 2)),
    lambda: decompose(7.5, 3),
    lambda: decompose(7, 3.0),
    lambda: decompose("7", 3),
    lambda: SubsetMask(1.5, 2),
    lambda: SubsetMask(1, 2.0),
    lambda: SubsetMask("1", 2),
])
def test_non_integer_parameters_are_refused_not_truncated(build):
    with pytest.raises(TypeError):
        build()


def test_index_types_are_accepted_as_integers():
    space = make_lens_space(_Index(7), (_Index(8), _Index(2)))
    assert space == LensSpace(7, (1, 2)) and type(space.p) is int
    assert all(type(v) is int for v in space.q)
    assert decompose(_Index(9), _Index(4)) == (1, 2)
    mask = SubsetMask(_Index(5), _Index(3))
    assert mask == (5, 3) and mask.u == 2


def test_lattice_points_are_integer_gated():
    # a float coordinate used to be summed as it was, or truncated by the fold
    space = make_lens_space(2, (1, 1))
    for x in ((1.5, 0.5), (2.7, 0.2), (1, "1")):
        with pytest.raises(TypeError):
            space.admits(x)
        with pytest.raises(TypeError):
            fold_point(space, x)
    assert space.admits((_Index(3), _Index(-1)))
    assert not space.admits((_Index(3), _Index(0)))
    bits, y = fold_point(space, (_Index(-2), _Index(4)))
    assert (bits, y) == (0b01, (0,)) and type(y[0]) is int


def test_lens_space_is_a_tuple():
    p, q = make_lens_space(7, (8, 2, 3))
    assert (p, q) == (7, (1, 2, 3)) == make_lens_space(7, (8, 2, 3))


# ---------------------------------------------------------------- SubsetMask


def test_subset_mask_basics():
    full = SubsetMask.full(3)
    assert full.bits == 0b111 and full.u == 3
    assert SubsetMask(0, 3).u == 0
    mask = SubsetMask(0b101, 3)
    assert mask.u == 2
    assert mask.indices() == (0, 2)
    assert mask.complement().indices() == (1,)
    assert mask.pick(("a", "b", "c")) == ("a", "c")


def test_subset_mask_validation():
    with pytest.raises(ValueError):
        SubsetMask(8, 3)
    with pytest.raises(ValueError):
        SubsetMask(-1, 3)


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


@pytest.mark.parametrize("build, message", [
    (lambda: SubsetMask(0, -1), "m must be non-negative, got -1"),
    (lambda: decompose(3, 0), "p must be a positive integer, got 0"),
], ids=["subset_mask_m", "decompose_p"])
def test_bad_sizes_are_refused_with_their_value(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


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
    empty = SubsetMask(0, 2)
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


def test_box_series_l211():
    space = make_lens_space(2, (1, 1))
    full = SubsetMask.full(2)
    assert gamma(space, SubsetMask(0, 2), 0) == 1
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


def test_box_series_p1():
    space = make_lens_space(1, (1, 1))
    for mask in all_masks(2):
        assert gamma(space, mask, 0) == 1
        for s in range(1, 5):
            assert gamma(space, mask, s) == 0
    # the sphere: P(z) = (1 + z)^m
    assert numerator(space).coeffs == (1, 2, 1)


def test_box_series_l311_matches_gamma_example():
    space = make_lens_space(3, (1, 1))
    assert gamma(space, SubsetMask.full(2), 3) == 4
    # plus one term per coordinate taking its z^3 term, the other x = 0
    assert numerator(space).coeffs[3] == 6


def test_box_series_matches_gamma_pointwise():
    for p, q in [(2, (1, 1)), (3, (1, 2)), (4, (1, 3)), (5, (2, 3)), (5, (1, 2, 4))]:
        space = make_lens_space(p, q)
        num = numerator(space)
        assert len(num.coeffs) == space.m * p + 1
        for s, coeff in enumerate(num.coeffs + (0,)):  # and zero one past the degree m*p
            assert coeff == numerator_from_gamma(space, s)
            # the oracle twin scans the box, independent of the shared DP
            assert coeff == numerator_from_gamma(space, s, gamma_bruteforce)


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
            assert capped == list(full[: s_max + 1]) + [0] * (s_max + 1 - len(full))
    num = numerator(make_lens_space(3, (1, 1)))
    assert num.coeffs[2] == gamma(num.space, SubsetMask.full(2), 2)  # below p


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


def test_shared_passes_equal_fresh_passes_in_any_call_order():
    # with one reuse list, a call starts after the longest q prefix it shares
    # with the call before under the same (p, m, s_max, with_zp); every class
    # list, sorted, reversed or shuffled, gives what fresh calls give
    rng = random.Random(37)
    keys = [(p, m, s_max) for m in (2, 3, 4) for p in range(1, 41)
            for s_max in sorted({0, 1, 16, m * p // 2, m * p})]
    fresh = {key: [_lattice_series(key[0], q, key[2], True) for q in canonical_q_tuples(*key[:2])]
             for key in keys}
    for order in ("sorted", "reversed", "shuffled"):
        reuse = []
        for (p, m, s_max), series in fresh.items():
            calls = list(zip(canonical_q_tuples(p, m), series))
            if order == "reversed":
                calls.reverse()
            elif order == "shuffled":
                rng.shuffle(calls)
            for q, expected in calls:
                assert _lattice_series(p, q, s_max, True, reuse) == expected, (order, p, q, s_max)


def test_shared_passes_read_no_state_of_another_key():
    # the same q prefixes under another p, m, s_max or with_zp, mid-sequence: a held
    # state is exact only under its own key, so a call under another key reads none,
    # and the list then holds the passes 1..m-1 of the last call alone
    rng = random.Random(37)
    calls = [(p, qs, s_max, with_zp) for p in (7, 11, 13)
             for qs in ((1, 2), (1, 2, 3), (1, 2, 4), (1, 2, 3, 5), (2, 3, 1))
             for s_max in (0, 5, p, 2 * p + 1) for with_zp in (True, False)]
    rng.shuffle(calls)
    # shuffled, then sorted by q: neighbours share a prefix under another key
    for sequence in (calls, sorted(calls, key=lambda call: call[1])):
        reuse = []
        for p, qs, s_max, with_zp in sequence:
            expected = _lattice_series(p, qs, s_max, with_zp)
            assert _lattice_series(p, qs, s_max, with_zp, reuse) == expected, (p, qs, s_max)
            tags = [(p, len(qs), s_max, with_zp, *qs[:k]) for k in range(1, len(qs))]
            assert [tag for tag, _ in reuse] == tags


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
    # passes of degree 1009, 2018 and 3027 build 505 + 1010 + 1514 columns
    assert _pass_plan(1009, 3, 3 * 1009, with_zp=True)[1:] == (34, 3029 * 1009 * 34)


def test_a_cut_series_is_priced_per_pass():
    # one pass's price would admit 20,000 ones at p = 2 cut at degree 100
    # (101 columns * 2 slots * 40,002 bits = 8.1e6), though its work grows as m^2
    ones = (1,) * 20000
    with pytest.raises(ValueError, match="degree 100 at p = 2 is over 1000000000 DP bits"):
        _lattice_series(2, ones, 100, with_zp=True)
    width = (4**20000).bit_length() + 1
    columns = sum(min(100, k) + 1 for k in range(1, 20001))
    assert columns * 2 * width > lattice.MAX_DP_BITS >= 101 * 2 * width
    # with z^p, pass k builds min(cut, k * p // 2) + 1 columns (the mirror
    # gives the rest); without it, min(cut, k * (p - 1)) + 1
    for (p, m, s_max, with_zp), priced in (
        ((7, 3, 5, True), (4 + 6 + 6) * 7 * 13),
        ((7, 3, 30, True), (4 + 8 + 11) * 7 * 13),
        ((5, 4, 9, False), (5 + 9 + 10 + 10) * 5 * 15),
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "MAX_DP_BITS", priced)
            _pass_plan(p, m, s_max, with_zp)
            patch.setattr(lattice, "MAX_DP_BITS", priced - 1)
            with pytest.raises(ValueError, match="DP bits"):
                _pass_plan(p, m, s_max, with_zp)


def test_a_huge_m_is_refused_before_its_slot_width():
    # (2p)^m alone took 1.1 s at m = 3e6; the passes are priced first at the
    # width's lower bound m * (bit_length(2p) - 1) + 2, over the ceiling at pass 8
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degree 16 at p = 3 is over 1000000000 DP bits"):
        _pass_plan(3, 3_000_000, 16, True)
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("p, q", [
    (1, (1, 1)), (2, (1, 1, 1)), (7, (1, 2, 3)), (10, (1, 3, 7, 9)), (13, (1,) * 6),
])
def test_numerator_bits_is_where_numerator_starts_to_refuse(p, q, monkeypatch):
    # the price verify sums is the kernel's own refusal boundary: pass k
    # builds k * p // 2 + 1 columns of p slots, mirroring the rest
    m, space, bits = len(q), make_lens_space(p, q), _numerator_bits(p, len(q))
    columns = sum(k * p // 2 + 1 for k in range(1, m + 1))
    assert bits == columns * p * (((2 * p) ** m).bit_length() + 1)
    monkeypatch.setattr(lattice, "MAX_DP_BITS", bits)
    assert sum(numerator(space).coeffs) == 2**m * p ** (m - 1)
    monkeypatch.setattr(lattice, "MAX_DP_BITS", bits - 1)
    with pytest.raises(ValueError, match=f"at p = {p} is over {bits - 1} DP bits"):
        numerator(space)


def _canonical_form_over_all_entries(q, p):
    return min(
        tuple(sorted(min(c * v % p, p - c * v % p) for v in q))
        for c in (pow(u, -1, p) for u in q)
    )


def test_canonical_form_scales_by_each_distinct_entry_once():
    # one candidate of 3,000 equal entries: it was scaled and sorted 3,000 times
    start = time.perf_counter()
    assert canonical_q_tuples(3, 3000) == [(1,) * 3000]
    assert time.perf_counter() - start < 1
    # the scalings skipped are the identity and repeats, so the least member of
    # every tuple's class is kept: all of m <= 2 and the sorted ones of m = 3 at
    # p < 40, and of m = 4 at p < 20
    for p in range(3, 40):
        units = [v for v in range(1, p) if math.gcd(v, p) == 1]
        tuples = [q for m in (1, 2) for q in product(units, repeat=m)]
        tuples += combinations_with_replacement(units, 3)
        tuples += combinations_with_replacement(units, 4) if p < 20 else []
        for q in tuples:
            least = _canonical_form_over_all_entries(q, p)
            assert _canonical_form(least, p) == least, (p, q)


def test_the_form_asks_only_whether_a_candidate_is_least():
    # every candidate the walk builds: q itself comes back exactly when q is its
    # class's least member; any other answer is a member of q's class below q
    for m, p_max in ((2, 60), (3, 60), (4, 30)):
        for p in range(3, p_max + 1):
            half = [v for v in range(1, p // 2 + 1) if math.gcd(v, p) == 1]
            for rest in combinations_with_replacement(half, m - 1):
                q = (1,) + rest
                least, answer = _canonical_form_over_all_entries(q, p), _canonical_form(q, p)
                assert (answer == q) == (least == q), (p, q)
                if answer != q:
                    assert answer < q, (p, q)
                    assert _canonical_form_over_all_entries(answer, p) == least, (p, q)


def test_the_walk_asks_the_form_once_per_candidate(monkeypatch):
    # perfbench counts the walk's calls to the form through this module global
    calls = []

    def counted(q, p):
        calls.append(q)
        return form(q, p)

    form = lattice._canonical_form
    monkeypatch.setattr(lattice, "_canonical_form", counted)
    for p, m in ((7, 3), (31, 3), (13, 4)):
        calls.clear()
        canonical_q_tuples(p, m)
        assert len(calls) == _canonical_candidates(p, m), (p, m)


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


@pytest.mark.parametrize("m, p_max", [(0, 13), (1, 13), (2, 31), (3, 31), (4, 13), (4, 20), (5, 11)])
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
    # a walk is refused iff it walks over the ceiling; phi(p) >= sqrt(p/2) bounds it
    # from below, so the early message comes only where that bound alone is over it,
    # and every other walk is counted exactly; the units in 1..p/2 are counted here
    half = {p: sum(math.gcd(v, p) == 1 for v in range(1, p // 2 + 1)) for p in range(3, 3000)}
    exact = {(p, m): binom(half[p] + m - 2, m - 1) for p in half for m in (2, 3, 4)}
    monkeypatch.setattr(lattice, "MAX_CANONICAL_CANDIDATES", 50)
    early = late = 0
    for (p, m), walked in exact.items():
        if walked <= 50:
            assert _canonical_candidates(p, m) == walked
            continue
        with pytest.raises(ValueError) as err:
            _canonical_candidates(p, m)
        if binom(math.isqrt(p // 2) // 2 + m - 2, m - 1) > 50:
            assert str(err.value) == f"over 50 candidate tuples at p = {p}, m = {m}"
            early += 1
        else:
            assert str(err.value) == f"{walked} candidate tuples at p = {p}, m = {m} are over 50"
            late += 1
    assert early > 1000 and late > 1000


def test_canonical_candidates_refuse_a_walk_over_the_ceiling():
    # p = 199, m = 10 walks C(107, 9) tuples: priced, and refused, before any is built
    with pytest.raises(ValueError) as err:
        _canonical_candidates(199, 10)
    assert str(err.value) == "3585446225075 candidate tuples at p = 199, m = 10 are over 1000000"


def test_canonical_q_tuples_refuses_over_the_ceiling(monkeypatch):
    # p = 101, m = 3 walks binom(51, 2) = 1275 candidates
    monkeypatch.setattr(lattice, "MAX_CANONICAL_CANDIDATES", 1275)
    assert len(canonical_q_tuples(101, 3)) == 442
    monkeypatch.setattr(lattice, "MAX_CANONICAL_CANDIDATES", 1274)
    with pytest.raises(ValueError, match="^1275 candidate tuples at p = 101, m = 3 are over 1274$"):
        canonical_q_tuples(101, 3)
