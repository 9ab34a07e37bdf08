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
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import LensSpace, Numerator, _lattice_series, binom, decompose

MAX_SPECTRUM_LINES = 10**5  # 10**5 lines of L(2;1,1) peak at 74 MiB, 10**6 at 613 MiB


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


def _multiplicities(space: LensSpace, i_max: int) -> list[int]:
    """dim(lambda_0..lambda_i_max): P(z) divided by both denominators in place."""
    if i_max < 0:
        raise ValueError(f"i_max must be non-negative, got {i_max}")
    if i_max >= MAX_SPECTRUM_LINES:
        raise ValueError(f"degrees 0..{i_max} are over {MAX_SPECTRUM_LINES} spectral lines")
    series = _lattice_series(space.p, space.q, i_max, with_zp=True)
    for stride, times in ((space.p, space.m), (2, space.m - 1)):
        for _ in range(times):
            for h in range(stride, len(series)):
                series[h] += series[h - stride]
    return series


def spectrum(space: LensSpace, i_max: int) -> tuple[SpectrumEntry, ...]:
    """Spectral lines for degrees 0..i_max, gap-free, from one capped numerator."""
    d = space.d
    return tuple(
        SpectrumEntry(i, i * (i + d - 1), mult)
        for i, mult in enumerate(_multiplicities(space, i_max))
    )


def first_positive_eigenvalue(space: LensSpace) -> SpectrumEntry:
    """The smallest positive eigenvalue with its multiplicity.

    On the sphere (p = 1) it is lambda_1, of dimension 2m.  For p >= 2,
    N(1) = 0 empties lambda_1, and dim(lambda_2) = N(2) + m - 1 > 0.
    """
    return spectrum(space, 1 if space.p == 1 else 2)[-1]


def compare_spectra(a: LensSpace, b: LensSpace, i_max: int) -> IsospectralReport:
    """Compare multiplicity sequences of two lens spaces up to degree i_max."""
    if i_max < 0:
        raise ValueError(f"i_max must be non-negative, got {i_max}")
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
    Rows that break this law carry ok=False.
    """
    rows = []
    for i, mult in enumerate(_multiplicities(space, i_max)):
        law = binom(i // 2 + space.m - 2, space.m - 2) % 2 if i % 2 == 0 else 0
        rows.append(ParityRow(i, mult, mult % 2 == law))
    return tuple(rows)
