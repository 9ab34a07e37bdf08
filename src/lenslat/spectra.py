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
alone, against the count walk.  `compare` caps both P at the degree
where two spaces must part, divides each only by the part of its
denominator the other does not share (nothing at equal p, (1 - z^p)^m
at different p), and divides the shared rest only up to their first
difference (compare_spectra).  The census files its classes by that capped P
itself, in one round per depth over every class still shared, until they
part (isospectral_census), and divides each group's P
once.  A single degree reads the stride sum: `nl` and `verify --h` through
lattice_count, over P at its degrees k + t*p <= min(h, m*p) alone, since no
term past h has a nonzero binomial; the kernel reads each of those degrees
off its last factor and builds no last pass.  `bench` reads the series
built once up to min(h_max, m*p); no command builds P past the degree it
answers.
multiplicity builds its Q with _divided's stride-2 sums, the ones every
range runs.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from itertools import accumulate
from math import gcd

from .lattice import LensSpace, Numerator, _canonical_candidates, _check_m, _lattice_coeffs
from .lattice import _lattice_series, _numerator_bits, _pass_plan, _products, binom
from .lattice import canonical_q_tuples, decompose

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


def _stride_sum(terms: list[int] | tuple[int, ...], power: int, n: int) -> int:
    """[z^(k + n*p)] poly(z) / (1 - z^p)^power from terms = poly[k::p], 0 <= k < p.

    Term t, of degree k + t*p, takes binom(n - t + power - 1, power - 1), zero once
    t > n.  No caller passes more than power + 1 terms: P has degree m*p, over
    (1 - z^p)^m, and multiplicity's Q is below degree (2m - 1)*p, over
    (1 - z^p)^(2m - 1).
    """
    return sum(binom(n - t + power - 1, power - 1) * term for t, term in enumerate(terms))


def n_lattice_formula(space: LensSpace, num: Numerator, h: int) -> int:
    """Number of congruence-lattice points of 1-norm h, by the closed form."""
    if num.space != space:
        raise ValueError("numerator was built for a different lens space")
    k, n = decompose(h, space.p)
    return _stride_sum(num.coeffs[k::space.p], space.m, n)


def lattice_count(space: LensSpace, h: int) -> int:
    """N(h) by the stride sum over P read at its degrees k + t*p <= min(h, m*p) alone.

    With h = k + n*p, a term of degree k + t*p > h has t > n and so the zero
    binomial binom(n - t + m - 1, m - 1): the cap is exact.  The kernel reads those
    at most m + 1 degrees off its last factor (lattice._lattice_coeffs), priced as
    P capped at min(h, m*p), and they are the stride sum's terms as read.  A
    negative h is refused before the kernel runs.
    """
    (k, n), top = decompose(h, space.p), min(h, space.m * space.p)
    coeffs = _lattice_coeffs(*space, top, True, range(k, top + 1, space.p))
    return _stride_sum(coeffs, space.m, n)


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
    k, n = decompose(i, p)
    return _stride_sum(poly[k::p], power, n)


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


def _parting_degree(m: int, p_a: int, p_b: int) -> int:
    """floor(m(p_a + p_b - g)/2), g = gcd(p_a, p_b): two spaces of equal m part by it or never.

    1 - z^g divides both 1 - z^p, and each F_x = (1 - z^x)/(1 - z^g) =
    1 + z^g + ... + z^(x - g) is palindromic of degree x - g.  So
    N_a - N_b = R' / ((1 - z^g) F_a F_b)^m with R' = P_a F_b^m - P_b F_a^m, and as that
    denominator is causal with constant term 1, the spectra first differ at the lowest
    term of R'.  P is palindromic of degree m*p (lattice docstring), so R' is palindromic
    of degree m(p_a + p_b - g): zero through its half degree, it is zero.  R' = 0 means
    equal spectra in every degree.  Different p give different growth constants
    2^m/(p (m - 1)!) of N, so then R' != 0.  At equal p, g = p and the bound is
    floor(m*p/2), the depth of the census's last refiling round (isospectral_census).
    """
    return m * (p_a + p_b - gcd(p_a, p_b)) // 2


def compare_spectra(a: LensSpace, b: LensSpace, i_max: int) -> IsospectralReport:
    """Compare multiplicity sequences of two lens spaces up to degree i_max.

    With equal m each spectrum is P / ((1 - z^p)^m (1 - z^2)^(m - 1)).  Each P is
    divided by its own (1 - z^p)^own, own = m when the p differ and 0 when they are
    equal; the rest, (1 - z^p)^(m - own) (1 - z^2)^(m - 1), is the same for both,
    causal with constant term 1.  So the two lists and the two spectra first differ
    at the same degree i, and only their prefixes [0..i] are divided by the rest.

    Two spaces part by their _parting_degree or never, so no list runs past
    top = min(i_max, _parting_degree(m, p_a, p_b)).  Different m are a dimension mismatch.
    """
    _check_i_max(i_max)  # whatever the dimensions
    if a.m != b.m:
        return IsospectralReport(False, None, dimension_mismatch=True)
    m, own = a.m, a.m if a.p != b.p else 0
    top = min(i_max, _parting_degree(m, a.p, b.p))
    series = [_divided(_lattice_series(*space, top, True), space.p, own, 0) for space in (a, b)]
    if series[0] == series[1]:
        return IsospectralReport(True, None)
    i = next(i for i, (x, y) in enumerate(zip(*series)) if x != y)
    series = [_divided(s[: i + 1], a.p, m - own, m - 1) for s in series]
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


def isospectral_census(p: int, m: int, i_max: int) -> tuple[int, list[tuple[tuple, list]]]:
    """Symmetry classes at (p, m) by spectrum: (class count, [(prefix, [q, ...])]), class order.

    Each class (permutation, negation mod p, scaling by a unit) is filed under the
    kernel's P capped at i_max, and the classes still shared are refiled by a deeper
    capped P until they part or reach floor(m*p/2): L(54;1,1,17) and L(54;1,1,19) agree
    to 17 and part at 18.  The filing runs in rounds by depth h: i_max, then 2h + 1, or
    floor(m*p/2) once 4h + 2 passes it, which at equal p is the _parting_degree, where
    two spaces part or never do.  A round takes every class still shared, across all
    groups, in class order, plans the kernel once and builds them through one
    lattice._products generator, each after the q prefix it shares with the class
    before.  Its key is P[0..h] alone: two classes of different groups already differ in
    P[0..h'] for the shallower h' of the round before, a prefix of P[0..h], so no group
    id is needed.  The first key to get a second class prices the deepest refiling, at a
    full numerator's DP bits, once per census, so the census is refused before its next
    class is built.  The division by (1 - z^p)^m (1 - z^2)^(m - 1) is causal with
    constant term 1, so equal multiplicities up to h mean equal P[0..h] and the other
    way round; P is palindromic of degree m*p (lattice docstring), so the groups still
    shared at floor(m*p/2) are exactly the classes of equal P.  Equal (p, m) share the
    denominator, so each group is one spectrum in every degree: it is filed with its
    P[0..i_max] divided once into dim(lambda_0..lambda_i_max), and its P key is dropped
    as it is filed, so a round's keys and the finished prefixes are not all held at
    once.  Groups come back in class order, by their first class.  The class, degree,
    DP, held-value and m >= 2 rules are checked in that order from (p, m, i_max) before
    any class is built; the held-value rule prices each candidate tuple at i_max + 1
    held multiplicities.
    """
    tried = _canonical_candidates(p, m)
    _check_i_max(i_max)
    _pass_plan(p, m, i_max, True)
    if tried * (i_max + 1) > MAX_CENSUS_VALUES:
        raise ValueError(f"{tried} candidate tuples x {i_max + 1} degrees are over "
                         f"{MAX_CENSUS_VALUES} held multiplicities")
    _check_m(m)
    tuples = canonical_q_tuples(p, m)
    top, h, bits, shared, filed = _parting_degree(m, p, p), i_max, 0, tuples, []
    while shared:  # one round per depth h, over the classes still shared
        groups = defaultdict(list)  # P[0..h] -> [q], in class order
        for q, (cols, _, low) in zip(shared, _products(p, m, h, True, shared, m)):
            members = groups[tuple(col & low for col in cols)]
            members.append(q)
            if len(members) == 2 and not bits:  # DP bits are positive once priced
                bits = _numerator_bits(p, m)
        deeper, shared = top if 4 * h + 2 > top else 2 * h + 1, []  # <= h once h >= top
        while groups:
            key, qs = groups.popitem()
            if len(qs) > 1 and deeper > h:
                shared += qs
            else:
                filed.append((tuple(_divided(list(key[: i_max + 1]), p, m, m - 1)), qs))
        shared.sort()  # class order across groups
        h = deeper
    return len(tuples), sorted(filed, key=lambda group: group[1][0])
