import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenslat import (
    SubsetMask,
    binom,
    canonical_q_tuples,
    compare_spectra,
    decompose,
    first_positive_eigenvalue,
    gamma,
    make_lens_space,
    multiplicity,
    n_lattice_formula,
    numerator,
    parity_report,
    spectrum,
)
from lenslat import spectra
from lenslat.oracle import n_lattice_bruteforce
from records import check_record
from strategies import lens_spaces, units_mod


L211 = make_lens_space(2, (1, 1))
N211 = numerator(L211)
HUGE = 10**30


@pytest.mark.parametrize("record, text", [
    (spectrum(L211, 2)[2], "SpectrumEntry(i=2, eigenvalue=8, mult=9)"),
    (
        compare_spectra(L211, L211, 3),
        "IsospectralReport(equal=True, first_divergence=None, dimension_mismatch=False)",
    ),
    (
        compare_spectra(make_lens_space(5, (1, 1)), make_lens_space(5, (1, 2)), 10),
        "IsospectralReport(equal=False, first_divergence=(2, 3, 1), dimension_mismatch=False)",
    ),
    (parity_report(L211, 2)[2], "ParityRow(i=2, mult=9, ok=True)"),
], ids=["SpectrumEntry", "IsospectralReport", "IsospectralReport-diverged", "ParityRow"])
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
    entries = [(e.i, e.eigenvalue, e.mult) for e in spectrum(L211, 2)]
    assert entries == [(0, 0, 1), (1, 3, 0), (2, 8, 9)]


def test_spectrum_sphere():
    space = make_lens_space(1, (1, 1))
    entries = [(e.i, e.eigenvalue, e.mult) for e in spectrum(space, 1)]
    assert entries == [(0, 0, 1), (1, 3, 4)]


def test_spectrum_i_max_zero():
    entries = spectrum(make_lens_space(9, (1, 2)), 0)
    assert [(e.i, e.eigenvalue, e.mult) for e in entries] == [(0, 0, 1)]


@given(space=lens_spaces(p_max=5), i_max=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_spectrum_table_shape(space, i_max):
    entries = spectrum(space, i_max)
    assert [e.i for e in entries] == list(range(i_max + 1))
    eigenvalues = [e.eigenvalue for e in entries]
    assert eigenvalues == [i * (i + space.d - 1) for i in range(i_max + 1)]
    assert sorted(eigenvalues) == eigenvalues
    assert entries[0].mult == 1


def test_spectrum_matches_pointwise_multiplicity():
    # i_max below and above the numerator's degree m*p, and past one period
    # (2m - 1)*p of the stride form
    for p, q in [(1, (1, 1, 1)), (2, (1, 1)), (5, (1, 2)), (6, (1, 5, 1)), (7, (1, 2, 3, 4))]:
        space = make_lens_space(p, q)
        num = numerator(space)
        m = space.m
        for i_max in (0, 1, p, m * p - 1, 3 * m * p, (2 * m + 1) * math.lcm(p, 2)):
            mults = [e.mult for e in spectrum(space, i_max)]
            assert mults == [multiplicity(space, num, i) for i in range(i_max + 1)]


def test_m30_sphere_and_spectrum():
    sphere = make_lens_space(1, (1,) * 30)
    harmonic = [binom(i + 59, 59) - binom(i + 57, 59) for i in range(21)]
    assert [e.mult for e in spectrum(sphere, 20)] == harmonic

    space = make_lens_space(11, tuple(range(1, 11)) * 3)
    num = numerator(space)
    # every nontrivial character sums to zero over a factor's 2p terms
    assert sum(num.coeffs) * 11 == 22**30
    entries = spectrum(space, 40)
    assert [e.mult for e in entries[:2]] == [1, 0]
    for e in entries:
        assert 0 <= e.mult <= binom(e.i + 59, 59) - binom(e.i + 57, 59)
    assert entries[40].mult == multiplicity(space, num, 40)


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


# ----------------------------------------------------------------- parity


def test_parity_l211():
    rows = parity_report(L211, 9)
    assert all(row.ok for row in rows)
    assert all(row.mult == 0 for row in rows if row.i % 2 == 1)


def test_parity_l413():
    rows = parity_report(make_lens_space(4, (1, 3)), 9)
    assert [row.mult for row in rows] == [1, 0, 3, 0, 15, 0, 21, 0, 45, 0]
    assert all(row.ok for row in rows)


def test_parity_odd_p_is_informational():
    # odd p is now checked like even p, not informational; the name is kept
    rows = parity_report(make_lens_space(3, (1, 1)), 5)
    assert [row.mult for row in rows] == [1, 0, 3, 8, 5, 12]
    assert all(row.ok for row in rows)


def test_parity_law_on_canonical_spaces():
    # dim(lambda_i) = [i even] * binom(i/2 + m - 2, m - 2) (mod 2), p odd too
    for p in range(1, 21):
        for m in (2, 3, 4):
            law = [math.comb(i // 2 + m - 2, m - 2) % 2 if i % 2 == 0 else 0 for i in range(41)]
            for q in canonical_q_tuples(p, m):
                space = make_lens_space(p, q)
                assert [e.mult % 2 for e in spectrum(space, 40)] == law, space
                assert all(row.ok for row in parity_report(space, 40)), space


def test_parity_flags_a_broken_even_degree(monkeypatch):
    real = spectra._multiplicities

    def flipped(space, i_max):
        mults = real(space, i_max)
        mults[4] += 1
        return mults

    monkeypatch.setattr(spectra, "_multiplicities", flipped)
    rows = parity_report(make_lens_space(5, (1, 2)), 9)
    assert [row.i for row in rows if not row.ok] == [4]


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
