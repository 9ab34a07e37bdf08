"""Brute-force enumeration ground truth for the counting machinery.

Everything here enumerates lattice points directly to certify the
closed-form counting path on desk-scale instances; none of it is a
production path.  One walk, _congruent_shell, serves both enumerations;
they refuse to start when the raw candidate count (before the congruence
filter) would exceed a budget: the whole 1-norm sphere for
enumerate_omega, the whole box for a direct call of enumerate_c.  The
sphere count also bounds the box-shell walks of fold_law_checks(), the
partition and fiber laws that `lenslat verify --deep` checks.

The walk recurses over every coordinate but the last two, which it runs
as one flat loop over the next-to-last absolute value a, the last being
what is left of the norm; it tests every sign pair of each (a, rest)
against the congruence, so every candidate is still generated and tested.

Enumeration order is fixed: compositions of the norm into non-negative
parts in lexicographic order, then sign patterns over the nonzero parts
with + before -.  The rows of `verify --deep` follow enumerate_omega's order.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .lattice import LensSpace, SubsetMask, _check_subset, binom, decompose, gamma

DEFAULT_BUDGET = 10**8


class OracleBudgetError(RuntimeError):
    """Enumeration would visit more candidates than the budget allows."""

    def __init__(self, candidates: int, budget: int, what: str):
        super().__init__(
            f"{what} needs {candidates} candidates, "
            f"exceeding the oracle budget of {budget}"
        )
        self.candidates = candidates
        self.budget = budget


def l1_sphere_count(m: int, h: int) -> int:
    """Number of x in Z^m with 1-norm exactly h (no congruence filter).

    This is the candidate count of enumerate_omega: support of size j,
    a positive composition of h into j parts, and j signs.
    """
    if h == 0:
        return 1
    return sum(2**j * binom(m, j) * binom(h - 1, j - 1) for j in range(1, m + 1))


def _congruent_shell(p: int, qs: Sequence[int], s: int, cap: int) -> list[tuple[int, ...]]:
    """Every x with 1-norm s, all |x_j| <= cap and sum q_j*x_j = 0 (mod p).

    Walks the absolute values coordinate by coordinate in composition
    order; each signed prefix carries its residue.  The last two
    coordinates are one flat loop over the next-to-last absolute value,
    the last taking the rest of the norm; every sign pair of the two is
    tested, and a whole tuple is built only for a passing point.
    """
    if not qs or s > cap * len(qs):
        return [()] if s == 0 else []
    out: list[tuple[int, ...]] = []
    _walk(p, qs, cap, 0, s, [(0, ())], out)
    return out


def _walk(p: int, qs: Sequence[int], cap: int, j: int, rem: int, prefixes: list, out: list) -> None:
    """Extend each (residue, signed prefix) over coordinates j.. to 1-norm rem, into out.

    Coordinates before the last two extend the prefixes and recurse; the
    last two (or a lone coordinate) are tested in place, + before - on
    each, so points come out in composition order, then sign order.
    """
    last = len(qs) - 1
    if j == last:
        qa = qs[j] * rem
        for r, x in prefixes:
            if (r + qa) % p == 0:
                out.append((*x, rem))
            if rem and (r - qa) % p == 0:
                out.append((*x, -rem))
        return
    if j == last - 1:
        qj, ql = qs[j], qs[last]
        for a in range(max(0, rem - cap), min(rem, cap) + 1):
            c = rem - a
            qa, qc = qj * a, ql * c
            for r, x in prefixes:
                ra = r + qa
                if (ra + qc) % p == 0:
                    out.append((*x, a, c))
                if c and (ra - qc) % p == 0:
                    out.append((*x, a, -c))
                if a:
                    ra = r - qa
                    if (ra + qc) % p == 0:
                        out.append((*x, -a, c))
                    if c and (ra - qc) % p == 0:
                        out.append((*x, -a, -c))
        return
    for a in range(max(0, rem - cap * (last - j)), min(rem, cap) + 1):
        nxt, qa = [], qs[j] * a
        for r, x in prefixes:
            nxt.append((r + qa, (*x, a)))
            if a:
                nxt.append((r - qa, (*x, -a)))
        _walk(p, qs, cap, j + 1, rem - a, nxt, out)


def enumerate_omega(
    space: LensSpace, h: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """Every x in Z^m with 1-norm h satisfying the congruence, exactly once."""
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h}")
    candidates = l1_sphere_count(space.m, h)
    if candidates > budget:
        raise OracleBudgetError(
            candidates, budget, f"enumerating 1-norm {h} vectors in Z^{space.m}"
        )
    return _congruent_shell(space.p, space.q, h, h)


def n_lattice_bruteforce(space: LensSpace, h: int, budget: int = DEFAULT_BUDGET) -> int:
    """|Omega(M, h)| by direct enumeration."""
    return len(enumerate_omega(space, h, budget))


def negative_multiple_mask(space: LensSpace, x: Sequence[int]) -> SubsetMask:
    """Indices whose coordinate is a negative multiple of p, as a mask."""
    p, bits = space.p, 0
    for j, v in enumerate(x):
        if v < 0 and v % p == 0:
            bits |= 1 << j
    return SubsetMask(bits, space.m)


def fold_point(
    space: LensSpace, x: Sequence[int]
) -> tuple[SubsetMask, tuple[int, ...]]:
    """Partition mask of x and its folded, box-bounded representative.

    Coordinates that are negative multiples of p are dropped; each
    remaining coordinate x_j is replaced by its congruence
    representative: x_j mod p in {0,...,p-1} when x_j >= 0, and
    (x_j mod p) - p when x_j < 0.  The folded vector keeps the
    congruence over the complement and satisfies |y_j| <= p-1.
    """
    x = tuple(map(int, x))
    if not space.admits(x):
        raise ValueError(f"{x} violates the congruence of {space}")
    p = space.p
    mask = negative_multiple_mask(space, x)
    bits = mask.bits
    y = [v % p if v >= 0 else v % p - p for j, v in enumerate(x) if not bits >> j & 1]
    return mask, tuple(y)


def fiber_census(
    space: LensSpace, h: int, points: Sequence[tuple[int, ...]]
) -> dict[tuple[SubsetMask, int, tuple[int, ...]], int]:
    """Fiber sizes of the folding map over the points enumerate_omega(space, h).

    Keys are (N, t, y): the partition mask, the folded norm offset t
    (||y||_1 = k + t*p where h = k + n*p), and the folded vector.  For
    every occupied key the size equals binom(n - t + (m - |N|) - 1, m - 1).
    A point whose 1-norm is not h raises ValueError.
    """
    k, _ = decompose(h, space.p)
    census: dict[tuple[SubsetMask, int, tuple[int, ...]], int] = {}
    for x in points:
        mask, y = fold_point(space, x)
        norm = sum(map(abs, x))
        if norm != h:  # an explicit check, which python -O keeps
            raise ValueError(f"{x} has 1-norm {norm}, not {h}")
        # the fold drops whole multiples of p from the norm h = k + n*p
        key = (mask, (sum(map(abs, y)) - k) // space.p, y)
        census[key] = census.get(key, 0) + 1
    return census


def enumerate_c(
    space: LensSpace, U: SubsetMask, s: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """Box-bounded congruence points over U with 1-norm exactly s.

    Walks only the norm-s shell of the box; the budget counts all (2p-1)^|U| points.
    """
    _check_subset(space, U)
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s}")
    p = space.p
    qs = U.pick(space.q)
    candidates = (2 * p - 1) ** len(qs)
    if candidates > budget:
        raise OracleBudgetError(
            candidates, budget, f"scanning the box over {len(qs)} coordinates"
        )
    return _congruent_shell(p, qs, s, p - 1)


def gamma_bruteforce(
    space: LensSpace, U: SubsetMask, s: int, budget: int = DEFAULT_BUDGET
) -> int:
    """|C(U, s)| from the box's norm-s shell; the enumeration twin of lattice.gamma."""
    return len(enumerate_c(space, U, s, budget))


def fold_law_checks(
    space: LensSpace, h: int, points: Sequence[tuple[int, ...]]
) -> Iterator[tuple[str, str, str]]:
    """The partition and fiber laws at 1-norm h, as (kind, got, expected).

    points is enumerate_omega(space, h), which the caller has already
    enumerated.  Yields one 'partition' check, one 'fiber_size' check
    per occupied fold key (its size is the predicted binomial), then one
    'fiber_cover' check (every admissible (N, t, y) key is occupied).
    Values are decimal strings; a check passes iff got == expected.

    Each point is folded once, by fiber_census; class N's size is the
    sum of its fiber sizes, added up in one pass, and its law is
    sum_{t <= n - |N|} binom(n - t + m - |N| - 1, m - 1) * gamma(N^c, k + t*p)
    with lattice.gamma.  The partition check expects the sum of the laws
    over every N; got is len(points) with a note for each class whose
    size breaks its law.  One sweep over (N, t) adds up the laws and walks
    the admissible keys, the norm k + t*p shell of the box over N^c.  The
    walks need no budget: each shell candidate y of (N, t) lifts to a
    distinct norm-h candidate of Z^m (y on N^c, the missing (n - t)*p on
    N as negative multiples of p, or on the first coordinate away from 0
    when N is empty) that folds back to (N, t, y), so they visit at most
    l1_sphere_count(m, h) candidates, which enumerate_omega has checked.
    """
    p, m = space.p, space.m
    k, n = decompose(h, p)
    census = fiber_census(space, h, points)
    sizes = [0] * (1 << m)
    for (mask, _t, _y), c in census.items():
        sizes[mask.bits] += c
    got, expected, cover = str(len(points)), 0, []
    for bits, size in enumerate(sizes):
        mask = SubsetMask(bits, m)
        rest = mask.complement()
        law = 0
        for t in range(n - mask.u + 1):
            law += binom(n - t + m - mask.u - 1, m - 1) * gamma(space, rest, k + t * p)
            shell = _congruent_shell(p, rest.pick(space.q), k + t * p, p - 1)
            cover += [(mask, t, y) in census for y in shell]
        expected += law
        if size != law:
            got += f" (class {bits:#b}: {size}, law {law})"
    yield "partition", got, str(expected)
    for (mask, t, _y), size in census.items():
        yield "fiber_size", str(size), str(binom(n - t + m - mask.u - 1, m - 1))
    yield "fiber_cover", str(sum(cover)), str(len(cover))
