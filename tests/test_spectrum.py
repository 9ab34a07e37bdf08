import math
import random
import time
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslat import (
    SpectrumEntry,
    SubsetMask,
    binom,
    canonical_q_tuples,
    compare_spectra,
    decompose,
    first_positive_eigenvalue,
    gamma,
    isospectral_census,
    make_lens_space,
    multiplicities,
    multiplicity,
    n_lattice_formula,
    numerator,
    parity_verdicts,
)
from lenslat import lattice, spectra
from lenslat.oracle import n_lattice_bruteforce
from lenslat.spectra import eigenvalues
from records import check_record
from strategies import lens_spaces, units_mod


L211 = make_lens_space(2, (1, 1))
N211 = numerator(L211)
HUGE = 10**30
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("record, text", [
    (first_positive_eigenvalue(L211), "SpectrumEntry(i=2, eigenvalue=8, mult=9)"),
    (
        compare_spectra(L211, L211, 3),
        "IsospectralReport(equal=True, first_divergence=None, dimension_mismatch=False)",
    ),
    (
        compare_spectra(make_lens_space(5, (1, 1)), make_lens_space(5, (1, 2)), 10),
        "IsospectralReport(equal=False, first_divergence=(2, 3, 1), dimension_mismatch=False)",
    ),
], ids=["SpectrumEntry", "IsospectralReport", "IsospectralReport-diverged"])
def test_value_record_contract(record, text):
    check_record(record, text)


# -------------------------------------------------------------- N(h) counts


def test_formula_l211_h2():
    # brute force: (+-2,0),(0,+-2),(+-1,+-1) all have even coordinate sum
    assert n_lattice_formula(L211, N211, 2) == 8


def test_formula_h0_is_one():
    for p, q in [(1, (1, 1)), (2, (1, 1)), (5, (1, 2)), (7, (1, 2, 3))]:
        space = make_lens_space(p, q)
        assert n_lattice_formula(space, numerator(space), 0) == 1


def test_formula_h1_is_zero_for_p_at_least_2():
    for p, q in [(2, (1, 1)), (3, (1, 2)), (6, (1, 5)), (7, (1, 2, 3))]:
        space = make_lens_space(p, q)
        assert n_lattice_formula(space, numerator(space), 1) == 0


def test_formula_rejects_foreign_table():
    with pytest.raises(ValueError, match="different lens space"):
        n_lattice_formula(make_lens_space(3, (1, 1)), N211, 2)
    with pytest.raises(ValueError, match="different lens space"):
        multiplicity(make_lens_space(3, (1, 1)), N211, 2)


def test_multiplicity_refuses_a_negative_degree():
    with pytest.raises(ValueError) as err:
        multiplicity(L211, N211, -1)
    assert str(err.value) == "degree must be non-negative, got -1"


def test_formula_matches_oracle_small_grid():
    for p in range(1, 7):
        for m in (2, 3):
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                num = numerator(space)
                for h in range(13):
                    assert n_lattice_formula(space, num, h) == n_lattice_bruteforce(space, h)


@given(space=lens_spaces(p_max=7), data=st.data())
@settings(max_examples=80, deadline=None)
def test_formula_invariances(space, data):
    p, m = space.p, space.m
    h = data.draw(st.integers(0, 16))
    num = numerator(space)
    reference = n_lattice_formula(space, num, h)

    perm = data.draw(st.permutations(range(m)))
    j = data.draw(st.integers(0, m - 1))
    c = data.draw(st.sampled_from(units_mod(p)))
    variants = [
        make_lens_space(p, tuple(space.q[i] for i in perm)),
        make_lens_space(p, tuple(v + p if i == j else v for i, v in enumerate(space.q))),
        make_lens_space(p, tuple(-v if i == j else v for i, v in enumerate(space.q))),
        make_lens_space(p, tuple(c * v for v in space.q)),
    ]
    for other in variants:
        assert n_lattice_formula(other, numerator(other), h) == reference


@given(space=lens_spaces(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_formula_below_p_equals_gamma(space, data):
    h = data.draw(st.integers(0, space.p - 1))
    num = numerator(space)
    assert n_lattice_formula(space, num, h) == gamma(space, SubsetMask.full(space.m), h)


def subset_closed_form(space, rows, h):
    """N(h) by the 2^m-subset closed form over box-bounded counts,
    sum_t sum_U binom(n - t + |U| - 1, m - 1) * gamma(U, k + t*p)."""
    p, m = space.p, space.m
    k, n = decompose(h, p)
    total = 0
    for t in range(m):
        s = k + t * p
        for bits, row in enumerate(rows):
            if s < len(row):
                total += binom(n - t + bits.bit_count() - 1, m - 1) * row[s]
    return total


def test_formula_equals_subset_closed_form():
    for p in range(1, 12):
        for m in (2, 3, 4):
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                rows = []
                for bits in range(1 << m):
                    mask = SubsetMask(bits, m)
                    rows.append([gamma(space, mask, s) for s in range(mask.u * (p - 1) + 1)])
                num = numerator(space)
                for h in [*range(3 * p + 1), *(10**30 + k for k in range(p))]:
                    assert n_lattice_formula(space, num, h) == subset_closed_form(space, rows, h)


# ------------------------------------------------------------ multiplicity


def test_multiplicity_l211():
    # degree-2 harmonics on real projective 3-space: binom(5,3) - binom(3,3)
    assert multiplicity(L211, N211, 2) == 9
    assert multiplicity(L211, N211, 2) == binom(5, 3) - binom(3, 3)
    assert multiplicity(L211, N211, 0) == 1
    assert multiplicity(L211, N211, 1) == 0


def test_sphere_consistency():
    # p = 1 gives the round sphere S^(2m-1); multiplicities are the
    # classical harmonic-polynomial dimensions in 2m variables, at small
    # and huge degree.  L(2;1,...,1) = RP^(2m-1) keeps the even-degree
    # harmonics and none of the odd ones
    for m in (2, 3, 4):
        space = make_lens_space(1, (1,) * m)
        num = numerator(space)
        projective = make_lens_space(2, (1,) * m)
        projective_num = numerator(projective)
        for i in [*range(21), *(HUGE + j for j in range(4))]:
            expected = binom(i + 2 * m - 1, 2 * m - 1) - binom(i + 2 * m - 3, 2 * m - 1)
            assert multiplicity(space, num, i) == expected
            assert multiplicity(projective, projective_num, i) == (0 if i % 2 else expected)


@given(space=lens_spaces())
@settings(max_examples=60, deadline=None)
def test_multiplicity_anchors(space):
    num = numerator(space)
    assert multiplicity(space, num, 0) == 1
    if space.p >= 2:
        assert multiplicity(space, num, 1) == 0


def convolution_multiplicities(space, num, i_max):
    """dim(lambda_0..lambda_i_max) by re-summing N over the second denominator,
    dim(lambda_i) = sum_s binom(s + m - 2, m - 2) * N(i - 2s)."""
    counts = [n_lattice_formula(space, num, h) for h in range(i_max + 1)]
    weights = [binom(s + space.m - 2, space.m - 2) for s in range(i_max // 2 + 1)]
    return [
        sum(weights[s] * counts[i - 2 * s] for s in range(i // 2 + 1)) for i in range(i_max + 1)
    ]


def test_multiplicity_matches_convolution_over_n():
    # past one period of the stride form: Q has degree below (2m - 1)*p
    for p in range(1, 12):
        for m in (2, 3, 4):
            i_max = (2 * m + 1) * math.lcm(p, 2)
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                num = numerator(space)
                expected = convolution_multiplicities(space, num, i_max)
                assert [multiplicity(space, num, i) for i in range(i_max + 1)] == expected, space


def _divided_by_each_element(series, p, m, twos):
    """The reference division: every running sum taken one element at a time."""
    series = list(series)
    for stride, times in ((p, m), (2, twos)):
        for _ in range(times):
            for h in range(stride, len(series)):
                series[h] += series[h - stride]
    return series


class _NoSlices(list):
    """A list that fails on any slice read or write."""

    def __getitem__(self, key):
        assert not isinstance(key, slice), "sliced"
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        assert not isinstance(key, slice), "sliced"
        super().__setitem__(key, value)


def test_divided_matches_the_per_element_sums():
    # the stride-2 sums run as chained accumulates over each parity class of degrees:
    # the same integers as the per-element loop, past 2^64, at lengths that end each
    # class early or late; with no stride-2 sum (verify's ranges) no slice is taken
    rng = random.Random(0)
    for p in range(1, 60):
        for m in range(2, 7):
            for n in sorted({0, 1, 2, p - 1, p + 1, 2 * p + 3, 61}):
                series = [rng.randrange(2**70) for _ in range(n)]
                for twos in (0, m - 1):
                    expected = _divided_by_each_element(series, p, m, twos)
                    assert spectra._divided(list(series), p, m, twos) == expected, (p, m, n, twos)
                    if twos == 0:
                        assert spectra._divided(_NoSlices(series), p, m, 0) == expected


def test_multiplicity_at_huge_degree_parity_and_n():
    # the parity law, and N(i) = sum_j (-1)^j binom(m - 1, j) dim(lambda_(i - 2j)),
    # which multiplies the dims back by (1 - z^2)^(m - 1)
    for p, m in [(3, 2), (5, 2), (6, 3), (7, 3), (12, 3), (13, 4)]:
        space = make_lens_space(p, canonical_q_tuples(p, m)[-1])
        num = numerator(space)
        for j in range(2 * math.lcm(p, 2)):
            i = HUGE + j
            dims = [multiplicity(space, num, i - 2 * r) for r in range(m)]
            law = binom(i // 2 + m - 2, m - 2) % 2 if i % 2 == 0 else 0
            assert dims[0] % 2 == law, (space, j)
            undone = sum((-1) ** r * binom(m - 1, r) * dim for r, dim in enumerate(dims))
            assert undone == n_lattice_formula(space, num, i), (space, j)


def test_multiplicity_pins_l1009_at_huge_degree():
    space = make_lens_space(1009, (1, 2, 3))
    assert multiplicity(space, numerator(space), HUGE) == int(
        "82590023125206475057813016188305252725470763131813676907831433762801453584407"
        "003633961019821605550049554013875281823"
    )


# ---------------------------------------------------------------- spectrum


def test_spectrum_l211():
    assert eigenvalues(L211, 2) == [0, 3, 8]
    assert multiplicities(L211, 2) == [1, 0, 9]


def test_spectrum_sphere():
    space = make_lens_space(1, (1, 1))
    assert eigenvalues(space, 1) == [0, 3]
    assert multiplicities(space, 1) == [1, 4]


def test_spectrum_i_max_zero():
    space = make_lens_space(9, (1, 2))
    assert (eigenvalues(space, 0), multiplicities(space, 0)) == ([0], [1])


@given(space=lens_spaces(p_max=5), i_max=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_spectrum_table_shape(space, i_max):
    lambdas, mults = eigenvalues(space, i_max), multiplicities(space, i_max)
    assert len(lambdas) == len(mults) == i_max + 1
    assert lambdas == [i * (i + space.d - 1) for i in range(i_max + 1)]
    assert sorted(lambdas) == lambdas
    assert mults[0] == 1


def test_spectrum_matches_pointwise_multiplicity():
    # i_max below and above the numerator's degree m*p, and past one period
    # (2m - 1)*p of the stride form
    for p, q in [(1, (1, 1, 1)), (2, (1, 1)), (5, (1, 2)), (6, (1, 5, 1)), (7, (1, 2, 3, 4))]:
        space = make_lens_space(p, q)
        num = numerator(space)
        m = space.m
        for i_max in (0, 1, p, m * p - 1, 3 * m * p, (2 * m + 1) * math.lcm(p, 2)):
            assert multiplicities(space, i_max) == [multiplicity(space, num, i) for i in range(i_max + 1)]


def test_readme_library_example_runs_and_its_list_is_multiplicity_at_every_degree():
    # the python block under README's `## Library` heading runs as written, so it
    # names no function the library lacks, and its one list of multiplicities is
    # the pointwise multiplicity at every degree it holds
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    space, num, mults = names["space"], names["num"], names["mults"]
    assert len(mults) == 11
    assert mults == [multiplicity(space, num, i) for i in range(len(mults))]


def test_m30_sphere_and_spectrum():
    sphere = make_lens_space(1, (1,) * 30)
    harmonic = [binom(i + 59, 59) - binom(i + 57, 59) for i in range(21)]
    assert multiplicities(sphere, 20) == harmonic

    space = make_lens_space(11, tuple(range(1, 11)) * 3)
    num = numerator(space)
    # every nontrivial character sums to zero over a factor's 2p terms
    assert sum(num.coeffs) * 11 == 22**30
    mults = multiplicities(space, 40)
    assert mults[:2] == [1, 0]
    for i, mult in enumerate(mults):
        assert 0 <= mult <= binom(i + 59, 59) - binom(i + 57, 59)
    assert mults[40] == multiplicity(space, num, 40)


# ------------------------------------------------- smallest positive entry


def test_first_positive_eigenvalue():
    entry = first_positive_eigenvalue(L211)
    assert (entry.i, entry.eigenvalue, entry.mult) == (2, 8, 9)
    sphere = first_positive_eigenvalue(make_lens_space(1, (1, 1)))
    assert (sphere.i, sphere.eigenvalue, sphere.mult) == (1, 3, 4)
    entry = first_positive_eigenvalue(make_lens_space(5, (1, 2)))
    assert (entry.i, entry.eigenvalue, entry.mult) == (2, 8, 1)


def explicit_dim_lambda_2(p, q):
    """dim(lambda_2) for p >= 2 without the DP: m - 1 from N(0), plus the
    norm-2 points +-(e_j - e_k), +-(e_j + e_k) and +-2e_j that the
    congruence admits, each pair counted separately (at p = 2 all fire)."""
    pairs = list(combinations(q, 2))
    return (
        len(q) - 1
        + 2 * sum((a - b) % p == 0 for a, b in pairs)
        + 2 * sum((a + b) % p == 0 for a, b in pairs)
        + 2 * sum(2 * a % p == 0 for a in q)
    )


def test_first_positive_eigenvalue_explicit_count():
    spaces = 0
    for m in range(2, 6):
        sphere = first_positive_eigenvalue(make_lens_space(1, (1,) * m))
        assert (sphere.i, sphere.eigenvalue, sphere.mult) == (1, 2 * m - 1, 2 * m)
        for p in range(2, 31):
            for q in canonical_q_tuples(p, m):
                entry = first_positive_eigenvalue(make_lens_space(p, q))
                assert (entry.i, entry.eigenvalue) == (2, 4 * m), (p, q)
                assert entry.mult == explicit_dim_lambda_2(p, q), (p, q)
                spaces += 1
    assert spaces == 2838  # 2,842 canonical spaces with p <= 30, less the 4 spheres


def test_closed_form_matches_the_ranged_series():
    # nl's closed form stays tied to the series verify certifies over ranges:
    # every norm of the criterion-1 grid, and the CI's p = 1009 and 2003 to h = 300
    grid = [make_lens_space(p, q) for p in range(1, 11) for m in (2, 3)
            for q in canonical_q_tuples(p, m)]
    assert len(grid) == 34
    large = [make_lens_space(p, (1, 2, 3)) for p in (1009, 2003)]
    for space, h_max in [(space, 24) for space in grid] + [(space, 300) for space in large]:
        num = numerator(space)
        closed = [n_lattice_formula(space, num, h) for h in range(h_max + 1)]
        series = spectra._lattice_series(space.p, space.q, h_max, True)
        assert spectra._divided(series, space.p, space.m, 0) == closed, space


def test_first_positive_eigenvalue_matches_oracle():
    # criterion-1 grid: dim(lambda_1) = N(1) on the sphere, else N(2) + m - 1
    for p in range(1, 11):
        for m in (2, 3):
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                entry = first_positive_eigenvalue(space)
                h = 1 if p == 1 else 2
                assert entry.i == h
                assert entry.mult == n_lattice_bruteforce(space, h) + (h - 1) * (m - 1)


def test_first_positive_eigenvalue_closed_form_matches_the_spectrum(monkeypatch):
    # every unit tuple with p < 12 and m <= 3, and every canonical class with
    # p < 40 and m = 4, against the last line of a spectrum; the closed form runs no DP
    spaces = [
        make_lens_space(p, q)
        for p in range(1, 12)
        for m in (2, 3)
        for q in product(units_mod(p), repeat=m)
    ]
    spaces += [make_lens_space(p, q) for p in range(1, 40) for q in canonical_q_tuples(p, 4)]
    expected = [
        SpectrumEntry(h, eigenvalues(space, h)[h], multiplicities(space, h)[h])
        for space in spaces
        for h in [1 if space.p == 1 else 2]
    ]

    def no_dp(*args, **kwargs):
        raise AssertionError("first_positive_eigenvalue ran a DP")

    monkeypatch.setattr(spectra, "_lattice_series", no_dp)
    assert [first_positive_eigenvalue(space) for space in spaces] == expected
    assert len(spaces) == 3584


@pytest.mark.parametrize("p", [10**7 + 19, 2**61 - 1])
def test_first_positive_eigenvalue_at_huge_p(p):
    # far past the DP's reach: a DP to degree 2 at p = 10^7 + 19 is over MAX_DP_BITS
    space = make_lens_space(p, (1, 2, 3, -3))
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        entry = first_positive_eigenvalue(space)
        seconds.append(time.perf_counter() - start)
    assert entry == (2, 16, 5)  # m - 1 = 3, and the pair 3 = -(-3) gives +-(e_3 + e_4)
    assert min(seconds) < 1e-3


# ---------------------------------------------------------------- compare


def test_compare_identical_spaces():
    report = compare_spectra(L211, make_lens_space(2, (1, 1)), 20)
    assert report.equal
    assert report.first_divergence is None
    assert not report.dimension_mismatch


def test_compare_sphere_vs_projective():
    report = compare_spectra(make_lens_space(1, (1, 1)), L211, 2)
    assert not report.equal
    assert report.first_divergence == (1, 4, 0)


def test_compare_l5_pair_diverges():
    # enumeration-verified: L(5;1,1) has two norm-2 lattice points
    # ((1,-1) and (-1,1)) while L(5;1,2) has none, so the degree-2
    # multiplicities differ: 3 vs 1
    report = compare_spectra(make_lens_space(5, (1, 1)), make_lens_space(5, (1, 2)), 10)
    assert not report.equal
    assert report.first_divergence == (2, 3, 1)


def test_compare_equivalent_parameters():
    # (1,3) = (1,-2) ~ (1,2) mod 5, so the spectra agree everywhere
    report = compare_spectra(make_lens_space(5, (1, 2)), make_lens_space(5, (1, 3)), 15)
    assert report.equal


def test_compare_dimension_mismatch():
    report = compare_spectra(L211, make_lens_space(2, (1, 1, 1)), 5)
    assert not report.equal
    assert report.dimension_mismatch
    assert report.first_divergence is None


def _compare_by_full_division(a, b, i_max):
    """The comparison as a loop over both full multiplicity lists: the oracle."""
    if a.m != b.m:
        return (False, None, True)
    pairs = zip(multiplicities(a, i_max), multiplicities(b, i_max))
    for i, (mult_a, mult_b) in enumerate(pairs):
        if mult_a != mult_b:
            return (False, (i, mult_a, mult_b), False)
    return (True, None, False)


def test_compare_matches_full_division_on_canonical_pairs():
    # equal p settles on the capped numerators and divides only up to their first
    # difference; every ordered pair of canonical spaces with p <= 13, equal p or not
    for m in (2, 3):
        spaces = [make_lens_space(p, q) for p in range(1, 14) for q in canonical_q_tuples(p, m)]
        for a, b in product(spaces, repeat=2):
            for i_max in (0, 1, 17, 18, 60):
                assert compare_spectra(a, b, i_max) == _compare_by_full_division(a, b, i_max), (
                    a, b, i_max)
    a, b = make_lens_space(7, (1, 2)), make_lens_space(7, (1, 2, 3))
    assert compare_spectra(a, b, 18) == _compare_by_full_division(a, b, 18) == (False, None, True)


def test_compare_pins_where_equal_numerators_part():
    l54a, l54b = make_lens_space(54, (1, 1, 17)), make_lens_space(54, (1, 1, 19))
    assert compare_spectra(l54a, l54b, 17) == (True, None, False)
    assert compare_spectra(l54a, l54b, 18) == (False, (18, 466, 454), False)
    # different p: the full division, equal at degree 3 and parted at 34
    l101, l103 = make_lens_space(101, (1, 2, 3)), make_lens_space(103, (1, 2, 3))
    assert compare_spectra(l101, l103, 3) == (True, None, False)
    assert compare_spectra(l101, l103, 99999) == (False, (34, 1430, 1428), False)
    assert compare_spectra(l101, make_lens_space(101, (1, 2, 3, 4)), 99999) == (
        False, None, True)


def test_compare_of_equal_numerators_divides_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("_divided called")

    monkeypatch.setattr(spectra, "_divided", refuse)
    ikeda = make_lens_space(11, (1, 2, 3)), make_lens_space(11, (1, 2, 4))
    assert compare_spectra(*ikeda, 240) == (True, None, False)


# ----------------------------------------------------------------- parity


def test_parity_l211():
    mults = multiplicities(L211, 9)
    assert all(parity_verdicts(L211, mults))
    assert mults[1::2] == [0] * 5


def test_parity_l413():
    space = make_lens_space(4, (1, 3))
    mults = multiplicities(space, 9)
    assert mults == [1, 0, 3, 0, 15, 0, 21, 0, 45, 0]
    assert all(parity_verdicts(space, mults))


def test_parity_odd_p_is_informational():
    # odd p is now checked like even p, not informational; the name is kept
    space = make_lens_space(3, (1, 1))
    mults = multiplicities(space, 5)
    assert mults == [1, 0, 3, 8, 5, 12]
    assert all(parity_verdicts(space, mults))


def test_parity_law_on_canonical_spaces():
    # dim(lambda_i) = [i even] * binom(i/2 + m - 2, m - 2) (mod 2), p odd too
    for p in range(1, 21):
        for m in (2, 3, 4):
            law = [math.comb(i // 2 + m - 2, m - 2) % 2 if i % 2 == 0 else 0 for i in range(41)]
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                mults = multiplicities(space, 40)
                assert [mult % 2 for mult in mults] == law, space
                assert all(parity_verdicts(space, mults)), space


def test_parity_flags_a_broken_even_degree():
    space = make_lens_space(5, (1, 2))
    mults = multiplicities(space, 9)
    mults[4] += 1
    assert [i for i, ok in enumerate(parity_verdicts(space, mults)) if not ok] == [4]


def test_parity_law_is_the_binomial_mod_2():
    # the bit rule i even and (i/2) & (m - 2) == 0 is binom(i/2 + m - 2, m - 2)
    # mod 2 (Kummer): multiplicities of the binomial's parity pass, those of the
    # other parity fail, at every even i < 6000 and m <= 23; odd i read 0
    def law(space, i_max):
        m = space.m
        return [binom(i // 2 + m - 2, m - 2) % 2 if i % 2 == 0 else 0 for i in range(i_max + 1)]

    def flipped(space, i_max):
        return [v ^ 1 for v in law(space, i_max)]

    for m in range(2, 24):
        space = make_lens_space(1, (1,) * m)
        for series, ok in ((law, True), (flipped, False)):
            assert all(v == ok for v in parity_verdicts(space, series(space, 5999))), (m, ok)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_parity_even_p(data):
    p = data.draw(st.sampled_from((2, 4, 6)))
    m = data.draw(st.integers(2, 3))
    q = tuple(data.draw(st.sampled_from(units_mod(p))) for _ in range(m))
    space = make_lens_space(p, q)
    num = numerator(space)
    for i in range(1, 16, 2):
        assert multiplicity(space, num, i) % 2 == 0


@pytest.mark.parametrize("p, m, i_max, admitted", [
    (101, 3, 16, True),  # the largest census the tests and the CI run: 1,275 x 17
    (401, 3, 16, True),
    (31, 3, 83332, True),  # 120 candidate tuples x 83,333 degrees, just under 10^7
    (31, 3, 83333, False),  # 120 x 83,334, just over
])
def test_isospectral_census_prices_its_held_multiplicities(monkeypatch, p, m, i_max, admitted):
    # one multiplicity tuple of i_max + 1 values is held per class; the rule reads
    # (p, m, i_max) alone, before the class walk, which is stubbed out here
    monkeypatch.setattr(spectra, "canonical_q_tuples", lambda p, m: [])
    held = spectra._canonical_candidates(p, m) * (i_max + 1)
    assert (held <= spectra.MAX_CENSUS_VALUES) == admitted
    if admitted:
        assert isospectral_census(p, m, i_max) == (0, [])
    else:
        with pytest.raises(ValueError, match="held multiplicities"):
            isospectral_census(p, m, i_max)


def test_isospectral_census_groups_are_the_numerator_classes(monkeypatch):
    # the prefix is only a filter: each group is exactly one class of equal full
    # numerators, the groups come back in class order (by their first class), and
    # the census reads multiplicities, never a spectral line's record
    def refuse(*args):
        raise AssertionError("the census built spectral lines")

    monkeypatch.setattr(SpectrumEntry, "__new__", refuse)
    families = 0
    for p_max, m in ((100, 3), (30, 4)):
        for p in range(1, p_max + 1):
            tuples = canonical_q_tuples(p, m)
            by_numerator = {}  # in class order: by first class, each list ascending
            for q in tuples:
                by_numerator.setdefault(numerator(make_lens_space(p, q)).coeffs, []).append(q)
            classes, groups = isospectral_census(p, m, 16)
            assert classes == len(tuples), (p, m)
            assert [qs for _, qs in groups] == list(by_numerator.values()), (p, m)
            for prefix, qs in groups:
                space = make_lens_space(p, qs[0])
                num = numerator(space)
                assert prefix == tuple(multiplicity(space, num, i) for i in range(17)), (p, qs)
            families += sum(len(qs) > 1 for _, qs in groups)
    assert families == 51
    families = [qs for p in range(1, 61) for _, qs in isospectral_census(p, 3, 16)[1] if len(qs) > 1]
    assert len(families) == 23


def test_census_classes_share_kernel_passes_over_their_common_q_prefix(monkeypatch):
    # a filing round hands the kernel its classes in class order with one reuse
    # list, so a class runs only the passes past the q prefix it shares with the
    # class before (all share q_1 = 1): at (31, 3, 16) the 46 classes run 54
    # passes, not 3 * 46 = 138
    passes = []
    series = spectra._lattice_series

    def counted(p, qs, s_max, with_zp, reuse=None):
        held = list(reuse)
        coeffs = series(p, qs, s_max, with_zp, reuse)
        passes.append(len(qs) - sum(kept is state for kept, state in zip(held, reuse)))
        return coeffs

    monkeypatch.setattr(spectra, "_lattice_series", counted)
    assert isospectral_census(31, 3, 16)[0] == len(passes) == 46
    assert sum(passes) == 54


@pytest.mark.parametrize("p, m, i_max, refiled", [
    (13, 4, 30, {}),  # i_max >= floor(m*p/2) = 26: no class is refiled
    (54, 3, 16, {33: 4}),  # L(54;1,1,17) and L(54;1,1,19) part at 18
    (26, 3, 16, {39: 4}),  # 4*16 + 2 > floor(m*p/2) = 39: one step there
    (56, 3, 16, {33: 6, 84: 4}),  # the two families are still shared at 33
])
def test_isospectral_census_refiles_shared_groups_deeper(monkeypatch, p, m, i_max, refiled):
    # every class is filed by a series capped at i_max; only a shared group is
    # refiled deeper, and no full numerator (degree m*p) is built
    degrees = []
    for module in (spectra, lattice):
        def recorded(p, qs, s_max, with_zp, reuse=None, series=module._lattice_series):
            degrees.append(s_max)
            return series(p, qs, s_max, with_zp, reuse)

        monkeypatch.setattr(module, "_lattice_series", recorded)
    classes, _ = isospectral_census(p, m, i_max)
    assert Counter(degrees) == Counter({i_max: classes, **refiled})
