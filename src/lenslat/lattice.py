"""Congruence lattices of lens spaces and their 1-norm generating function.

A lens space L(p; q_1,...,q_m) is the quotient of the unit sphere
S^(2m-1) by the cyclic group of order p acting through rotations with
parameters q_i coprime to p.  Attached to it is the congruence lattice:
integer vectors x with q_1*x_1 + ... + q_m*x_m = 0 (mod p).

Its 1-norm generating function is N(z) = P(z) / (1 - z^p)^m with

    P(z) = [w^0 mod w^p] prod_i (z^p + sum_{|x|<p} w^(q_i x) z^|x|):

per coordinate, moving x away from 0 by p multiplies its term by z^p
and keeps its residue q_i*x, marked by w.  numerator() builds P by one
dynamic program over (residue mod p, degree).  gamma(U, s) counts the
points over a coordinate subset U with |x_i| <= p-1 and 1-norm s, the
same product over U without the z^p terms, by the same DP.  Each DP
column packs its p residue counts into one integer, in bit slots too
wide to carry, so one big-int operation does a loop's work exactly.
Each factor with its z^p term is palindromic of degree p: its z^a and
z^(p-a) coefficients are both w^(qa) + w^(-qa), as w^p = 1.  So the
product of the first k factors is palindromic of degree k*p, and the DP
builds only its degrees up to k*p/2 and copies the rest from there;
P[s] = P[m*p - s] follows.  The box factors of gamma are not
palindromic; their k-th product is built to its degree k*(p-1).
canonical_q_tuples() builds the least member of each symmetry class, the
classes among which isospectral lens spaces are sought, in ascending order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations_with_replacement

# per generating-function DP, priced at all m*p + 1 degree columns although
# the palindromic numerator's DP builds only about half of each pass;
# p = 1009, m = 3 needs 1.04e8
MAX_DP_BITS = 10**9
# per canonical_q_tuples call; p = 1009, m = 3 walks 1.3e5 at
# 6 us each, m = 10 takes 33 us each (AMD EPYC, Python 3.11)
MAX_CANONICAL_CANDIDATES = 10**6


class LensSpace(namedtuple("LensSpace", "p q")):
    """Validated parameters (p; q_1,...,q_m) of a lens space.

    Entries of q are reduced mod p at construction (all become 0 when
    p = 1, where the congruence is vacuous).  The underlying manifold
    has dimension d = 2m - 1.  A LensSpace is a tuple (p, q): it
    unpacks, and it equals the plain tuple with the same fields.
    Every way of building one, _replace and unpickling too, validates.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: tuple[int, ...]) -> LensSpace:
        if p <= 0:
            raise ValueError(f"p must be a positive integer, got {p}")
        q = tuple(int(v) for v in q)
        if len(q) < 2:
            raise ValueError(
                f"need at least two rotation parameters, got {len(q)}"
            )
        for j, v in enumerate(q):
            g = math.gcd(v, p)
            if g != 1:
                raise ValueError(
                    f"invalid lens space: q_{j + 1} = {v} is not coprime to "
                    f"p = {p} (gcd({v}, {p}) = {g})"
                )
        return super().__new__(cls, p, tuple(v % p for v in q))

    @classmethod
    def _make(cls, fields) -> LensSpace:
        return cls(*fields)

    @property
    def m(self) -> int:
        """Number of rotation parameters."""
        return len(self.q)

    @property
    def d(self) -> int:
        """Dimension of the underlying manifold, 2m - 1."""
        return 2 * self.m - 1

    def admits(self, x: Sequence[int]) -> bool:
        """Whether x satisfies sum q_i*x_i = 0 (mod p)."""
        if len(x) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(x)}")
        return sum(qi * xi for qi, xi in zip(self.q, x)) % self.p == 0

    def label(self) -> str:
        return f"L({self.p};{','.join(str(v) for v in self.q)})"

    def __str__(self) -> str:
        return self.label()


def make_lens_space(p: int, q: Sequence[int]) -> LensSpace:
    """Validated constructor for L(p; q_1,...,q_m)."""
    return LensSpace(int(p), tuple(int(v) for v in q))


class SubsetMask(namedtuple("SubsetMask", "bits m")):
    """Subset of the coordinate index set {0,...,m-1}, kept as a bit mask."""

    __slots__ = ()

    def __new__(cls, bits: int, m: int) -> SubsetMask:
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        if not 0 <= bits < (1 << m):
            raise ValueError(
                f"bits {bits:#x} out of range for an {m}-bit mask"
            )
        return super().__new__(cls, bits, m)

    @classmethod
    def _make(cls, fields) -> SubsetMask:
        return cls(*fields)

    @property
    def u(self) -> int:
        """Cardinality of the subset."""
        return self.bits.bit_count()

    def complement(self) -> SubsetMask:
        return SubsetMask(self.bits ^ ((1 << self.m) - 1), self.m)

    def indices(self) -> tuple[int, ...]:
        """0-based member indices, ascending."""
        return tuple(j for j in range(self.m) if self.bits >> j & 1)

    def pick(self, values: Sequence) -> tuple:
        """Entries of `values` at the member indices, ascending."""
        return tuple(values[j] for j in self.indices())

    @classmethod
    def full(cls, m: int) -> SubsetMask:
        return cls((1 << m) - 1, m)

    @classmethod
    def empty(cls, m: int) -> SubsetMask:
        return cls(0, m)

    @classmethod
    def from_indices(cls, indices: Sequence[int], m: int) -> SubsetMask:
        bits = 0
        for j in indices:
            if not 0 <= j < m:
                raise ValueError(f"index {j} out of range for m = {m}")
            if bits >> j & 1:
                raise ValueError(f"index {j} given more than once")
            bits |= 1 << j
        return cls(bits, m)


def binom(pool: int, choose: int) -> int:
    """Binomial coefficient with the zero convention.

    Returns pool! / (choose! * (pool - choose)!) when 0 <= choose <= pool
    and 0 otherwise (negative pool, negative choose, or pool < choose).
    Total on all integer inputs.
    """
    if choose < 0 or pool < 0 or pool < choose:
        return 0
    return math.comb(pool, choose)


def decompose(h: int, p: int) -> tuple[int, int]:
    """Split h >= 0 uniquely as h = k + n*p with 0 <= k < p; returns (k, n)."""
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h}")
    if p <= 0:
        raise ValueError(f"p must be a positive integer, got {p}")
    n, k = divmod(h, p)
    return k, n


def _check_subset(space: LensSpace, U: SubsetMask) -> None:
    if U.m != space.m:
        raise ValueError(f"subset mask is over m = {U.m}, space has m = {space.m}")


def gamma(space: LensSpace, U: SubsetMask, s: int) -> int:
    """Box-bounded lattice count over the subset U at 1-norm s.

    Counts x in Z^|U| with |x_i| <= p-1 for every i in U, sum of |x_i|
    equal to s, and sum q_i*x_i = 0 (mod p).  Zero whenever s exceeds
    the box bound |U|*(p-1).
    """
    _check_subset(space, U)
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s}")
    if s > U.u * (space.p - 1):
        return 0
    return _lattice_series(space.p, U.pick(space.q), s, with_zp=False)[s]


def _series_shape(p: int, m: int, s_max: int, with_zp: bool) -> tuple[int, int]:
    """(degree columns, bits per slot) of the kernel; refused past MAX_DP_BITS."""
    columns = min(s_max, m * (p if with_zp else p - 1)) + 1
    width = ((2 * p) ** m).bit_length() + 1
    if columns * p * width > MAX_DP_BITS:
        raise ValueError(f"degree {s_max} at p = {p} is over {MAX_DP_BITS} DP bits")
    return columns, width


def _lattice_series(p: int, qs: Sequence[int], s_max: int, with_zp: bool) -> list[int]:
    """[w^0 z^s] of prod_i F_i mod w^p for every s in 0..s_max.

    F_i = sum_{|x|<p} w^(q_i x) z^|x| counts one coordinate of the box,
    plus z^p when with_zp (the numerator P) and without it for gamma.
    Pass k multiplies G_(k-1) = F_1...F_(k-1) by F_k.  G_k has degree
    deg = k*p, or k*(p - 1) without z^p, and degrees above s_max are never
    read, so pass k fills degrees up to top = min(s_max, deg).  With z^p
    every F_i is palindromic of degree p (module docstring), so G_k is
    too, as a polynomial in z over Z[w]/(w^p - 1): its columns v and
    deg - v are the same packed int.  The DP then runs only to
    min(top, deg/2) and copies column deg - v into each v above that.
    Without z^p it runs to top.  Degrees above the last deg come back as
    zeros.
    cols[v] packs the coefficients of z^v so far into one int: slot r,
    bits [B*r, B*r + B), holds that of w^r.  The terms with x >= 0 and
    with x <= 0 each lie on a line (r + q*x, v + |x|), so the running
    sums up[r] = sum_{0 <= a < p} cols[v - a][r - q*a] and down (r + q*a)
    give each new column in O(1) big-int operations; a shift of residues
    by q is a cyclic shift of slots.  Each window drops cols[v - p] as it
    moves on; the shifted down window still holds it, which is exactly
    the z^p term, so without that term it is taken off once more.  New
    column v reads only columns up to v, so the previous product is
    padded with zeros only up to where the DP reads.
    No slot carries: each window sum and column counts part of the
    product, at most its total mass (2p)^m < 2^(B-1).  base = col - back
    may have negative slots, but it is only ever added to a window sum,
    whose exact value has non-negative slots.
    """
    columns, B = _series_shape(p, len(qs), s_max, with_zp)
    full = (1 << B * p) - 1
    cols = [1]
    deg = 0
    for q in qs:
        deg += p if with_zp else p - 1
        top = deg if deg < s_max else s_max
        built = min(top, deg // 2) if with_zp else top
        if len(cols) <= built:
            cols += [0] * (built + 1 - len(cols))
        ahead, behind = B * q, B * (p - q)
        up = down = 0
        new = []
        for v, col in enumerate(cols[: built + 1]):
            back = cols[v - p] if v >= p else 0
            base = col - back
            from_down = ((down << behind) & full) | (down >> ahead)  # down[r + q]
            up = base + (((up << ahead) & full) | (up >> behind))  # up[r - q]
            down = base + from_down
            out = up + from_down
            new.append(out if with_zp else out - back)
        if built < top:
            new += new[deg - top : deg - built][::-1]  # column v = column deg - v
        cols = new
    low = (1 << B) - 1
    return [col & low for col in cols] + [0] * (s_max + 1 - columns)


def _numerator_bits(p: int, m: int) -> int:
    """DP bits numerator() is priced at for p and m; refused past MAX_DP_BITS as it would be."""
    columns, width = _series_shape(p, m, m * p, with_zp=True)
    return columns * p * width


class Numerator(namedtuple("Numerator", "space coeffs")):
    """Coefficients P[0..m*p] of the numerator P(z) of one lens space."""

    __slots__ = ()

    def value(self, s: int) -> int:
        """P[s]; zero above the degree m*p."""
        if s < 0:
            raise ValueError(f"s must be non-negative, got {s}")
        return self.coeffs[s] if s < len(self.coeffs) else 0


def numerator(space: LensSpace) -> Numerator:
    """P(z) of one lens space, to its full degree m*p."""
    coeffs = _lattice_series(space.p, space.q, space.m * space.p, with_zp=True)
    return Numerator(space, tuple(coeffs))


def canonical_q_tuples(p: int, m: int) -> list[tuple[int, ...]]:
    """Valid parameter tuples for (p, m), one per symmetry class.

    Two tuples give the same counts when related by coordinate
    permutation, negation of single entries mod p, or scaling every
    entry by a unit mod p.  Each class is listed by its least member
    (entries in 1..p-1; all 1 for p <= 2), in ascending order.  That
    member is sorted, folded (v <= p - v) and starts with 1, so only
    such tuples are built; more than MAX_CANONICAL_CANDIDATES of them
    are refused before the first.
    """
    walked = _canonical_candidates(p, m)
    if walked > MAX_CANONICAL_CANDIDATES:
        raise ValueError(
            f"{walked} candidate tuples at p = {p}, m = {m} are over {MAX_CANONICAL_CANDIDATES}"
        )
    if p <= 2 or m == 0:
        return [(1,) * m]
    half = [v for v in range(1, p // 2 + 1) if math.gcd(v, p) == 1]
    candidates = ((1,) + rest for rest in combinations_with_replacement(half, m - 1))
    return [q for q in candidates if _canonical_form(q, p) == q]


def _canonical_candidates(p: int, m: int) -> int:
    """Tuples canonical_q_tuples(p, m) walks: (1,) then m - 1 of the phi(p)/2 units in 1..p/2.

    phi(p) comes from trial division, so a huge p is priced without listing its units.
    Refuses p < 1 and m < 0, as canonical_q_tuples does, and before trial division a walk
    that phi(p) >= sqrt(p/2) alone puts over MAX_CANONICAL_CANDIDATES.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if p <= 2 or m <= 1:
        return 1
    if binom(math.isqrt(p // 2) // 2 + m - 2, m - 1) > MAX_CANONICAL_CANDIDATES:
        raise ValueError(f"over {MAX_CANONICAL_CANDIDATES} candidate tuples at p = {p}, m = {m}")
    phi, rest, f = p, p, 2
    while f * f <= rest:
        if rest % f == 0:
            phi -= phi // f
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        phi -= phi // rest
    return binom(phi // 2 + m - 2, m - 1)


def _canonical_form(q: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Least member of the unit tuple q's class (p >= 3): led by 1, so scaled by a q_j^-1."""
    return min(
        tuple(sorted(min(c * v % p, p - c * v % p) for v in q))
        for c in (pow(u, -1, p) for u in q)
    )
