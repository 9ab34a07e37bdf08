"""Eigenvalue multiplicities of the Laplace-Beltrami operator on lens spaces.

Write N(h) for the number of congruence-lattice points of 1-norm h.  Its
generating function is P(z) / (1 - z^p)^m, with the numerator P of
lattice.numerator, and the multiplicity of lambda_i = i*(i + d - 1),
d = 2m - 1, is the coefficient of z^i in N(z) / (1 - z^2)^(m - 1).

One count, h = k + n*p with 0 <= k < p, expands the denominator:

    N(k + n*p) = sum_{t=0}^{m} binom(n - t + m - 1, m - 1) * P[k + t*p],

O(m) work for any h (binomials are zero out of range).  dim(lambda_i) has
the same form at stride p and power 2m - 1 over the polynomial
Q = P * ((1 - z^p) / (1 - z^2))^(m - 1).  A range of degrees divides in
place: m running sums with stride p turn P into N(0..H), and m - 1 more
with stride 2 give dim(lambda_0..lambda_H), all in exact integers.

So each input shape reads one series.  A range reads _ranged_series, P
built only up to degree H and divided in place: `spectrum`, `compare`,
`parity` and the census through _multiplicities, and `verify` over norms
0..H with the stride-p sums alone, against the count walk.  A single
degree (`nl`, `multiplicity`, `bench`, `verify --h`) reads the stride sum.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple

from .lattice import LensSpace, Numerator, _canonical_candidates, _lattice_series, _pass_plan
from .lattice import binom, canonical_q_tuples, decompose, make_lens_space, numerator

MAX_SPECTRUM_LINES = 10**5  # 10**5 lines of L(2;1,1) peak at 42 MiB in CSV, 53 MiB in JSON


class SpectrumEntry(namedtuple("SpectrumEntry", "i eigenvalue mult")):
    """One spectral line: degree i, eigenvalue i*(i + d - 1), multiplicity."""

    __slots__ = ()


class IsospectralReport(
    namedtuple("IsospectralReport", "equal first_divergence dimension_mismatch", defaults=(False,))
):
    """Outcome of comparing two multiplicity sequences up to a degree bound.

    first_divergence is (i, mult_a, mult_b) at the smallest differing
    degree, or None.  When the two spaces have different m the manifolds
    have different dimension: the report is unequal with
    dimension_mismatch set and no divergence degree is computed.
    """

    __slots__ = ()


class ParityRow(namedtuple("ParityRow", "i mult ok")):
    """Multiplicity of one degree; ok is False where its parity breaks parity_report's law."""

    __slots__ = ()


def _stride_sum(coeffs: list[int] | tuple[int, ...], stride: int, power: int, h: int) -> int:
    """[z^h] coeffs(z) / (1 - z^stride)^power; terms past the list's end are zero."""
    k, n = decompose(h, stride)
    return sum(
        binom(n - t + power - 1, power - 1) * coeffs[k + t * stride]
        for t in range(power + 1)
        if k + t * stride < len(coeffs)
    )


def n_lattice_formula(space: LensSpace, num: Numerator, h: int) -> int:
    """Number of congruence-lattice points of 1-norm h, by the closed form."""
    if num.space != space:
        raise ValueError("numerator was built for a different lens space")
    return _stride_sum(num.coeffs, space.p, space.m, h)


def multiplicity(space: LensSpace, num: Numerator, i: int) -> int:
    """Dimension of the eigenspace for lambda_i = i*(i + d - 1), at any i.

    dim(z) = Q(z) / (1 - z^p)^(2m - 1), where Q = P*((1 - z^p)/(1 - z^2))^(m - 1)
    has degree mp + (m - 1)(p - 2) < (2m - 1)*p: for even p, 1 - z^2 divides
    1 - z^p; for odd p, 1 - z does and (1 + z)^m divides P, since at each
    p-th root of unity w, z^p + sum_{|x|<p} w^(qx) z^|x| =
    (1 - z^p)(1 - z^2)/((1 - w^q z)(1 - w^-q z)) is zero at z = -1
    (w^(+-q) != -1) and P averages their products over w.  The passes are
    causal, so P cut or zero-padded to min(i + 1, (2m - 1)*p) terms gives Q
    where the stride sum reads it: O(m^2 * p) additions, then 2m terms.
    """
    if num.space != space:
        raise ValueError("numerator was built for a different lens space")
    if i < 0:
        raise ValueError(f"degree must be non-negative, got {i}")
    p, power = space.p, 2 * space.m - 1
    size = min(i + 1, power * p)
    poly = list(num.coeffs[:size]) + [0] * (size - len(num.coeffs))
    for _ in range(space.m - 1):
        for h in range(2, size):
            poly[h] += poly[h - 2]
        for h in range(size - 1, p - 1, -1):
            poly[h] -= poly[h - p]
    return _stride_sum(poly, p, power, i)


def _check_i_max(i_max: int) -> None:
    """Refuse degrees 0..i_max that are empty or over MAX_SPECTRUM_LINES."""
    if i_max < 0:
        raise ValueError(f"i_max must be non-negative, got {i_max}")
    if i_max >= MAX_SPECTRUM_LINES:
        raise ValueError(f"degrees 0..{i_max} are over {MAX_SPECTRUM_LINES} spectral lines")


def _ranged_series(space: LensSpace, s_max: int, twos: int) -> list[int]:
    """[z^0..z^s_max] of P(z) / ((1 - z^p)^m * (1 - z^2)^twos): P capped at s_max, divided in place.

    twos = 0 gives N(0..s_max), what `verify` checks over a range of norms;
    twos = m - 1 gives dim(lambda_0..lambda_s_max), what every range command reads.
    """
    series = _lattice_series(space.p, space.q, s_max, with_zp=True)
    for stride, times in ((space.p, space.m), (2, twos)):
        for _ in range(times):
            for h in range(stride, len(series)):
                series[h] += series[h - stride]
    return series


def _multiplicities(space: LensSpace, i_max: int) -> list[int]:
    """dim(lambda_0..lambda_i_max): P(z) divided by both denominators in place."""
    _check_i_max(i_max)
    return _ranged_series(space, i_max, space.m - 1)


def spectrum(space: LensSpace, i_max: int) -> tuple[SpectrumEntry, ...]:
    """Spectral lines for degrees 0..i_max, gap-free, from one capped numerator."""
    d = space.d
    return tuple(
        SpectrumEntry(i, i * (i + d - 1), mult)
        for i, mult in enumerate(_multiplicities(space, i_max))
    )


def first_positive_eigenvalue(space: LensSpace) -> SpectrumEntry:
    """The smallest positive eigenvalue with its multiplicity, in closed form: no DP.

    On the sphere (p = 1) it is lambda_1 = d = 2m - 1, of dimension 2m.  For p >= 2
    no unit q_j is 0 mod p, so no lattice point has 1-norm 1: N(1) = 0 and
    lambda_1 is empty.  The smallest positive eigenvalue is then
    lambda_2 = 2(2m), with dim(lambda_2) = N(2) + (m - 1)*N(0) = N(2) + m - 1.
    The norm-2 points are +-2e_j, congruent iff p | 2q_j, and +-(e_j - e_k)
    and +-(e_j + e_k) for j < k, congruent iff q_j = q_k and q_j = -q_k
    (mod p), each sign pair counted on its own (at p = 2 all fire).  So

        dim(lambda_2) = m - 1 + 2*#{j : p | 2q_j} + 2*#{j < k : q_j = q_k}
                        + 2*#{j < k : q_j = -q_k}  (mod p),

    2m^2 + m - 1 at p = 2, the degree-2 harmonics of RP^(2m-1).  Summed
    over j with the residue counts c, each j adds c[q_j] - 1 (the k != j
    with q_k = q_j), c[-q_j] (the k with q_k = -q_j, j itself when
    p | 2q_j) and [p | 2q_j]: each pair is met from both ends, each j with
    p | 2q_j twice.
    """
    p, m = space.p, space.m
    if p == 1:
        return SpectrumEntry(1, space.d, 2 * m)
    c = Counter(space.q)
    dim = m - 1 + sum(c[v] - 1 + c[-v % p] + (2 * v % p == 0) for v in space.q)
    return SpectrumEntry(2, 4 * m, dim)


def compare_spectra(a: LensSpace, b: LensSpace, i_max: int) -> IsospectralReport:
    """Compare multiplicity sequences of two lens spaces up to degree i_max."""
    _check_i_max(i_max)  # whatever the dimensions
    if a.m != b.m:
        return IsospectralReport(False, None, dimension_mismatch=True)
    pairs = zip(_multiplicities(a, i_max), _multiplicities(b, i_max))
    for i, (mult_a, mult_b) in enumerate(pairs):
        if mult_a != mult_b:
            return IsospectralReport(False, (i, mult_a, mult_b))
    return IsospectralReport(True, None)


def parity_report(space: LensSpace, i_max: int) -> tuple[ParityRow, ...]:
    """Per-degree multiplicities with the parity verdict, for every p.

    x -> -x pairs off the nonzero lattice points, so N(h) is even for
    every h >= 1: mod 2, N(z) = 1 and the multiplicities are those of
    1/(1 - z^2)^(m - 1), dim(lambda_i) = [i even]*binom(i/2 + m - 2, m - 2).
    By Kummer's theorem, binom(j + m - 2, m - 2) is odd iff adding j and
    m - 2 in binary carries nothing, that is iff j & (m - 2) == 0.  So
    dim(lambda_i) is odd iff i is even and i/2 shares no binary digit with
    m - 2; no binomial is built.  Rows that break this law carry ok=False.
    """
    rows = []
    for i, mult in enumerate(_multiplicities(space, i_max)):
        law = i % 2 == 0 and (i // 2) & (space.m - 2) == 0
        rows.append(ParityRow(i, mult, mult % 2 == law))
    return tuple(rows)


def isospectral_census(p: int, m: int, i_max: int) -> tuple[int, list[tuple[tuple, list]]]:
    """Symmetry classes at (p, m) by spectrum: (class count, [(prefix, [q, ...])]), filing order.

    Each class (permutation, negation mod p, scaling by a unit) is built once
    and filed under its multiplicities up to i_max, from a numerator capped at
    that degree: a cheap filter, as L(54;1,1,17) and L(54;1,1,19) agree to 17
    and part at 18.  Classes sharing a prefix are split by full numerator; equal
    (p, m) share the denominator, so each group is one spectrum in every degree.
    The class, degree and DP rules are checked from (p, m, i_max) before any class is built.
    """
    _canonical_candidates(p, m)
    _check_i_max(i_max)
    _pass_plan(p, m, i_max, True)
    tuples = canonical_q_tuples(p, m)
    prefixes = defaultdict(list)  # prefix -> [(q, space)], q ascending like the classes
    for q in tuples:
        space = make_lens_space(p, q)
        prefixes[tuple(_multiplicities(space, i_max))].append((q, space))
    families = defaultdict(list)  # (prefix, numerator if shared) -> [q]: equal spectra
    for seq, members in prefixes.items():
        for q, space in members:
            families[(seq, numerator(space).coeffs) if len(members) > 1 else (seq,)].append(q)
    return len(tuples), [(key[0], qs) for key, qs in families.items()]
