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
import operator
from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations_with_replacement

# per generating-function DP, priced by _pass_plan at the columns its passes
# build; p = 1009, m = 3 needs 1.04e8
MAX_DP_BITS = 10**9
# per class walk, refused by _canonical_candidates; each candidate is only asked
# whether it is least: p = 1009, m = 3 walks 1.3e5 at 2 us each, p = 31, m = 10
# 8.2e5 at 4 us each (2-vCPU Intel Xeon, Python 3.11.7)
MAX_CANONICAL_CANDIDATES = 10**6


class LensSpace(namedtuple("LensSpace", "p q")):
    """Validated parameters (p; q_1,...,q_m) of a lens space.

    p and q must hold integers (types with __index__; a float or str
    raises TypeError); q is reduced mod p (all 0 when p = 1, where the
    congruence is vacuous).  The underlying manifold has dimension
    d = 2m - 1.  A LensSpace is a tuple (p, q): it unpacks, and it
    equals the plain tuple with the same fields.  Every way of
    building one, _replace and unpickling too, validates.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: Sequence[int]) -> LensSpace:
        p, q = operator.index(p), tuple(map(operator.index, q))
        if p <= 0:
            raise ValueError(f"p must be a positive integer, got {p}")
        _check_m(len(q))
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
        """Whether x satisfies sum q_i*x_i = 0 (mod p); a non-integer x_i raises TypeError."""
        if len(x) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(x)}")
        return sum(map(operator.mul, self.q, map(operator.index, x))) % self.p == 0

    def __str__(self) -> str:
        return f"L({self.p};{','.join(str(v) for v in self.q)})"


def _check_m(m: int) -> None:
    """Refuse m < 2: the one rule on m of LensSpace, verify's grid and the census."""
    if m < 2:
        raise ValueError(f"need at least two rotation parameters, got {m}")


def make_lens_space(p: int, q: Sequence[int]) -> LensSpace:
    """Validated constructor for L(p; q_1,...,q_m)."""
    return LensSpace(p, q)


class SubsetMask(namedtuple("SubsetMask", "bits m")):
    """Subset of the coordinate index set {0,...,m-1}, kept as a bit mask."""

    __slots__ = ()

    def __new__(cls, bits: int, m: int) -> SubsetMask:
        bits, m = operator.index(bits), operator.index(m)
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
    h, p = operator.index(h), operator.index(p)
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


def _pass_plan(p: int, m: int, s_max: int, with_zp: bool) -> tuple[list, int, int]:
    """(passes, bits per slot, DP bits) of the kernel; refused past MAX_DP_BITS.

    Pass k reaches degree deg = k*p, or k*(p - 1) without z^p, and keeps
    degrees up to top = min(s_max, deg), since higher ones are never read.
    It builds columns 0..built, built = min(top, deg // 2) with z^p and top
    without; each pass is (built, the slice of its built columns that,
    reversed, are its mirrored columns built + 1..top).  The price is the
    built columns * p slots * bits per slot.  The loop stops once it passes
    MAX_DP_BITS at low <= bits per slot, as (2p)^m >= 2^(m*(bitlen(2p) - 1)),
    so a huge m is refused after a few passes, before (2p)^m is computed.
    """
    low = m * ((2 * p).bit_length() - 1) + 2
    passes, cols, deg = [], 0, 0
    while len(passes) < m and cols * p * low <= MAX_DP_BITS:
        deg += p if with_zp else p - 1
        top = min(s_max, deg)
        built = min(top, deg // 2) if with_zp else top
        cols += built + 1
        passes.append((built, slice(deg - top, deg - built)))
    width = ((2 * p) ** m).bit_length() + 1 if cols * p * low <= MAX_DP_BITS else low
    if cols * p * width > MAX_DP_BITS:
        raise ValueError(f"degree {s_max} at p = {p} is over {MAX_DP_BITS} DP bits")
    return passes, width, cols * p * width


def _lattice_series(
    p: int, qs: Sequence[int], s_max: int, with_zp: bool, reuse: list | None = None
) -> list[int]:
    """[w^0 z^s] of prod_i F_i mod w^p for every s in 0..s_max.

    F_i = sum_{|x|<p} w^(q_i x) z^|x| counts one coordinate of the box,
    plus z^p when with_zp (the numerator P) and without it for gamma.
    Pass k multiplies G_(k-1) = F_1...F_(k-1) by F_k over the extents
    _pass_plan gives it.  With z^p every F_i is palindromic of degree p
    (module docstring), so G_k is too over Z[w]/(w^p - 1): its columns v
    and deg - v are the same packed int, which gives the mirrored columns.
    Degrees above the last pass's degree come back as zeros.
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
    reuse, a list the caller owns, lets calls share passes; its one caller is a
    filing round of the census (spectra._file_classes).  Pass k reads only
    G_(k-1) and q_k, over extents and slots fixed by (p, m, s_max, with_zp),
    so the columns after pass k are exact for every tuple under that key that
    starts with q_1..q_k.  reuse holds them after passes 1..m-1, tagged with
    the key and that prefix; a call starts after the longest tagged prefix it
    shares and drops the rest, all of it under another key.  A held state is
    only read: the next pass pads a copy.
    """
    passes, B, _ = _pass_plan(p, len(qs), s_max, with_zp)
    full = (1 << B * p) - 1
    tag, done, cols = (p, len(qs), s_max, with_zp, *qs), 0, [1]
    if reuse is not None:
        while done < len(reuse) and reuse[done][0] == tag[: 5 + done]:
            done += 1
        del reuse[done:]
        cols = reuse[done - 1][1] if done else cols
    for q, (built, mirror) in zip(qs[done:], passes[done:]):
        cols = cols + [0] * (built + 1 - len(cols))  # a copy: held states stay as built
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
        cols = new + new[mirror][::-1]  # column v = column deg - v
        if reuse is not None and len(reuse) < len(qs) - 1:
            reuse.append((tag[: 5 + len(reuse)], cols))
    low = (1 << B) - 1
    return [col & low for col in cols] + [0] * (s_max + 1 - len(cols))


def _numerator_bits(p: int, m: int) -> int:
    """DP bits numerator() is priced at for p and m; refused past MAX_DP_BITS as it would be."""
    return _pass_plan(p, m, m * p, with_zp=True)[2]


class Numerator(namedtuple("Numerator", "space coeffs")):
    """Coefficients P[0..m*p] of the numerator P(z) of one lens space."""

    __slots__ = ()


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
    such tuples are built, and each is only asked whether it is least;
    _canonical_candidates refuses more than MAX_CANONICAL_CANDIDATES of
    them before the first.
    """
    _canonical_candidates(p, m)
    if p <= 2 or m == 0:
        return [(1,) * m]
    half = [v for v in range(1, p // 2 + 1) if math.gcd(v, p) == 1]
    candidates = ((1,) + rest for rest in combinations_with_replacement(half, m - 1))
    return [q for q in candidates if _canonical_form(q, p) == q]


def _canonical_candidates(p: int, m: int) -> int:
    """Tuples canonical_q_tuples(p, m) walks: (1,) then m - 1 of the phi(p)/2 units in 1..p/2.

    phi(p) comes from trial division, so a huge p is priced without listing its units.
    Refuses p < 1 and m < 0, and every walk over MAX_CANONICAL_CANDIDATES: before trial
    division one that phi(p) >= sqrt(p/2) alone puts over it, after it the rest.
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
    walked = binom(phi // 2 + m - 2, m - 1)
    if walked > MAX_CANONICAL_CANDIDATES:
        raise ValueError(f"{walked} candidate tuples at p = {p}, m = {m} are over "
                         f"{MAX_CANONICAL_CANDIDATES}")
    return walked


def _canonical_form(q: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The first rescaling of q below q, else q itself (p >= 3).

    q is its own normal form (sorted, folded, led by 1), so the identity is
    skipped.  The least member is led by 1, so it is q scaled by some q_j^-1:
    q is scaled by the inverse of each other distinct entry, each residue
    folded once, until one scaling falls below q.  q comes back exactly when
    it is its class's least member.
    """
    for u in set(q) - {1}:
        c = pow(u, -1, p)
        form = tuple(sorted([r if r + r < p else p - r for r in [c * v % p for v in q]]))
        if form < q:
            return form
    return q
