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
with stride 2, chained over each parity class of degrees, give
dim(lambda_0..lambda_H), all in exact integers.

The paper's three answers are multiplicities (every eigenspace up to a
degree), first_positive_eigenvalue (the smallest positive eigenvalue, in
closed form) and parity_verdicts (the parity of each dimension).

So each input shape reads one series.  A range reads P built only up to
degree H and divided in place by _divided: `spectrum` and `parity`
through multiplicities, whose one list the CLI renders with eigenvalues
and parity_verdicts, and `verify` over norms 0..H with the stride-p sums
alone, against the count walk.  `compare` at equal p compares the two
capped P themselves and divides them only up to their first difference
(compare_spectra).  The census files its classes by that capped P
itself, at growing depth until they part, and divides each group's P
once.  A single degree (`nl`, `multiplicity`, `bench`, `verify --h`)
reads the stride sum; multiplicity builds its Q with _divided's
stride-2 sums, the ones every range runs.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import accumulate

from .lattice import LensSpace, Numerator, _canonical_candidates, _check_m, _lattice_series
from .lattice import _numerator_bits, _pass_plan, binom, canonical_q_tuples, decompose

MAX_SPECTRUM_LINES = 10**5  # 10**5 lines of L(2;1,1) peak at 32 MiB in CSV, 43 MiB in JSON
# multiplicities a census holds, one per degree per class: about 21.5 bytes each at m = 3..5
# (a tuple slot and its int; 7.2e6 of them at (31, 3, 60000) took 148 MiB over the import)
MAX_CENSUS_VALUES = 10**7


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
    causal, so they commute, and P cut or zero-padded to min(i + 1, (2m - 1)*p)
    terms gives Q where the stride sum reads it: the m - 1 stride-2 sums of
    _divided, then m - 1 stride-p differences, O(m^2 * p) additions, then 2m terms.
    """
    if num.space != space:
        raise ValueError("numerator was built for a different lens space")
    if i < 0:
        raise ValueError(f"degree must be non-negative, got {i}")
    p, power = space.p, 2 * space.m - 1
    size = min(i + 1, power * p)
    poly = _divided(list(num.coeffs[:size]) + [0] * (size - len(num.coeffs)), p, 0, space.m - 1)
    for _ in range(space.m - 1):
        for h in range(size - 1, p - 1, -1):
            poly[h] -= poly[h - p]
    return _stride_sum(poly, p, power, i)


def _check_i_max(i_max: int) -> None:
    """Refuse degrees 0..i_max that are empty or over MAX_SPECTRUM_LINES."""
    if i_max < 0:
        raise ValueError(f"i_max must be non-negative, got {i_max}")
    if i_max >= MAX_SPECTRUM_LINES:
        raise ValueError(f"degrees 0..{i_max} are over {MAX_SPECTRUM_LINES} spectral lines")


def _divided(series: list[int], p: int, m: int, twos: int) -> list[int]:
    """series(z) / ((1 - z^p)^m * (1 - z^2)^twos) up to the list's last degree, in place.

    On P capped at H, twos = 0 gives N(0..H), what `verify` checks over a range of
    norms, and twos = m - 1 gives dim(lambda_0..lambda_H), what every range command
    and the census read.  A stride-2 sum is a running sum over each parity class of
    degrees, so the twos of them run as one chain of accumulate per class, and
    twos = 0 takes no slice.  The stride-p sums stay element by element: sliced per
    residue class mod p they ran slower at census sizes, p classes of few degrees.
    """
    for _ in range(m):
        for h in range(p, len(series)):
            series[h] += series[h - p]
    if twos:
        for r in (0, 1):
            part = series[r::2]
            for _ in range(twos):
                part = accumulate(part)
            series[r::2] = part
    return series


def multiplicities(space: LensSpace, i_max: int) -> list[int]:
    """dim(lambda_0..lambda_i_max): P capped at i_max, divided by both denominators in place."""
    _check_i_max(i_max)
    return _divided(_lattice_series(*space, i_max, True), space.p, space.m, space.m - 1)


def eigenvalues(space: LensSpace, i_max: int) -> list[int]:
    """lambda_0..lambda_i_max, lambda_i = i*(i + d - 1)."""
    _check_i_max(i_max)
    d = space.d
    return [i * (i + d - 1) for i in range(i_max + 1)]


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
    """Compare multiplicity sequences of two lens spaces up to degree i_max.

    With equal p (and m) both spectra are P / ((1 - z^p)^m (1 - z^2)^(m - 1)) over one
    denominator D, causal with D(0) = 1.  So P_a - P_b = (mults_a - mults_b) * D, whose
    lowest term is that of mults_a - mults_b: the two agree up to i_max exactly when
    their P capped at i_max do, and first differ at the same degree i, where only
    P[0..i] of each is then divided.
    Different p divide both series in full; different m are a dimension mismatch.
    """
    _check_i_max(i_max)  # whatever the dimensions
    if a.m != b.m:
        return IsospectralReport(False, None, dimension_mismatch=True)
    same_p = a.p == b.p
    series = [_lattice_series(*space, i_max, True) if same_p else multiplicities(space, i_max)
              for space in (a, b)]
    if series[0] == series[1]:
        return IsospectralReport(True, None)
    i = next(i for i, (x, y) in enumerate(zip(*series)) if x != y)
    if same_p:
        series = [_divided(s[: i + 1], a.p, a.m, a.m - 1) for s in series]
    return IsospectralReport(False, (i, series[0][i], series[1][i]))


def parity_verdicts(space: LensSpace, mults: list[int]) -> list[bool]:
    """Whether each dim(lambda_i) in mults has the parity its degree i calls for.

    x -> -x pairs off the nonzero lattice points, so N(h) is even for
    every h >= 1: mod 2, N(z) = 1 and the multiplicities are those of
    1/(1 - z^2)^(m - 1), dim(lambda_i) = [i even]*binom(i/2 + m - 2, m - 2).
    By Kummer's theorem, binom(j + m - 2, m - 2) is odd iff adding j and
    m - 2 in binary carries nothing, that is iff j & (m - 2) == 0.  So
    dim(lambda_i) is odd iff i is even and i/2 shares no binary digit with
    m - 2; no binomial is built.
    """
    m2 = space.m - 2
    return [mult % 2 == (i % 2 == 0 and (i // 2) & m2 == 0) for i, mult in enumerate(mults)]


def _file_classes(p: int, m: int, tuples: list, h: int, i_max: int) -> list[tuple[tuple, list]]:
    """Classes filed by the kernel's P[0..h], shared groups refiled deeper: [(prefix, [q, ...])].

    A group that gets its second class prices the deepest refiling first, at a full
    numerator's DP bits, so the census is refused before its next class is built.  A
    shared group is refiled at 2h + 1, or at floor(m*p/2) once 4h + 2 passes it.  Every
    other group is filed with its P[0..i_max] divided into dim(lambda_0..lambda_i_max),
    and its P key is dropped as it is filed, so the P keys and the finished prefixes
    are not all held at once.  The groups come back sorted by their first class.
    """
    groups = defaultdict(list)  # P[0..h] -> [q], in class order
    reuse = []  # this round's kernel passes, shared over the common q prefix of the next class
    for q in tuples:
        members = groups[tuple(_lattice_series(p, q, h, True, reuse))]
        members.append(q)
        if len(members) == 2:
            _numerator_bits(p, m)
    deeper = m * p // 2 if 4 * h + 2 > m * p // 2 else 2 * h + 1  # <= h once h >= floor(m*p/2)
    filed = []
    while groups:
        key, qs = groups.popitem()
        if len(qs) > 1 and deeper > h:
            filed += _file_classes(p, m, qs, deeper, i_max)
        else:
            filed.append((tuple(_divided(list(key[: i_max + 1]), p, m, m - 1)), qs))
    return sorted(filed, key=lambda group: group[1][0])


def isospectral_census(p: int, m: int, i_max: int) -> tuple[int, list[tuple[tuple, list]]]:
    """Symmetry classes at (p, m) by spectrum: (class count, [(prefix, [q, ...])]), class order.

    Each class (permutation, negation mod p, scaling by a unit) is filed under the
    kernel's P capped at i_max, and every group of two or more classes is refiled by a
    deeper capped P (_file_classes) until it parts or reaches floor(m*p/2):
    L(54;1,1,17) and L(54;1,1,19) agree to 17 and part at 18.  The division by
    (1 - z^p)^m (1 - z^2)^(m - 1) is causal with constant term 1, so equal
    multiplicities up to h mean equal P[0..h] and the other way round; P is palindromic
    of degree m*p (lattice docstring), so the groups still shared at floor(m*p/2) are
    exactly the classes of equal P.  Equal (p, m) share the denominator, so each group
    is one spectrum in every degree, divided once into its multiplicities up to i_max.
    Groups come back in class order, by their first class.  The class, degree, DP,
    held-value and m >= 2 rules are checked in that order from (p, m, i_max) before any
    class is built; the held-value rule prices each candidate tuple at i_max + 1 held
    multiplicities.
    """
    tried = _canonical_candidates(p, m)
    _check_i_max(i_max)
    _pass_plan(p, m, i_max, True)
    if tried * (i_max + 1) > MAX_CENSUS_VALUES:
        raise ValueError(f"{tried} candidate tuples x {i_max + 1} degrees are over "
                         f"{MAX_CENSUS_VALUES} held multiplicities")
    _check_m(m)
    tuples = canonical_q_tuples(p, m)
    return len(tuples), _file_classes(p, m, tuples, i_max, i_max)
