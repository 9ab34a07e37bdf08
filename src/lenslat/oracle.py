"""Brute-force enumeration ground truth for the counting machinery.

Everything here enumerates lattice points directly to certify the
closed-form counting path on desk-scale instances; none of it is a
production path.  Two walks serve it.  The listing walk, _congruent_shell,
yields the points of one norm: enumerate_omega and enumerate_c list them,
n_lattice_bruteforce (so a one-norm `lenslat verify`) counts them, keeping none,
and the fold laws of `lenslat verify --deep` fold them.  The count walk,
shell_counts, counts norms 0..h_max in one pass that lists no point, and
`lenslat verify` takes a range's count rows from one call.  It walks
base values only (each coordinate in {0} and +-[1..p]) and fills in
their lifts by running sums of step p, pairs each point with its negative
and counts a last coordinate's congruence class in closed form, but keeps
no tally over coordinates and uses no numerator, DP or binomial, so it
stays independent of the kernel.
verify_grid sets it against the ranged series N(0..h_max), P capped at
h_max and divided by spectra's _divided, which `spectrum`, `parity` and
the census divide further, and `compare` at different p up to its first
difference, and the listing walk's count of a lone norm h against
spectra.lattice_count, the stride sum over P capped at min(h, m*p) that
`nl` reads.

Each walk is priced at its raw candidates (before the congruence filter)
and refused past a budget by the one check_budget.  shell_price, the
candidates of the 1-norm shells h_lo..h_hi of Z^m, prices the sphere
(h..h) of enumerate_omega and n_lattice_bruteforce and the ball (0..h_max)
of shell_counts; a direct enumerate_c is priced at its whole box.  The
ball bounds shell_counts' pairs: each (base prefix, y >= 0) pair it visits
extends to distinct candidates (y, and -y when y > 0), and each base prefix
has its y = 0 pair.  Beside them it runs up to m running sums of at most
h_max steps, one per level of its Horner scheme.  The price bounds the
box-shell walks of fold_law_checks() too, whose laws read gamma from
subset_table(), one box DP per class per case.  A point of norm h has
|N|*p <= h for its class N, so the table, the fiber census and the law
sweep hold only the classes with |N|*p <= h_max, never all 2^m.
verify_cases, the one admission rule of `lenslat verify`, refuses an
m < 2, then prices the whole run before its first case: per tuple, its
walk candidates, its full numerator's DP bits (an upper bound on the
capped series any case reads) and, with --deep, 2^m subset DPs (an upper
bound on its table).  verify_grid and the loop of `lenslat bench`
(bench_timings) live here as well.

_congruent_shell recurses over every coordinate but the last two, which
it runs as one flat loop over the next-to-last absolute value a, the last
being what is left of the norm; a lone coordinate takes the whole norm,
+ then -.  Every sign pattern is generated and tested against the
congruence.  Its order is fixed: compositions of the norm into
non-negative parts in lexicographic order, then sign patterns over the
nonzero parts with + before -.  The rows of `verify --deep` follow
enumerate_omega's order.
"""

from __future__ import annotations

import operator
import time
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import combinations

from .lattice import LensSpace, SubsetMask, _canonical_candidates, _check_m, _check_subset
from .lattice import _lattice_series, _numerator_bits, _pass_plan, binom, canonical_q_tuples
from .lattice import DEFAULT_BUDGET, decompose, make_lens_space
from .spectra import _divided, _stride_sum, lattice_count

# per verify run: each class it walks is priced at a full numerator's _numerator_bits, which
# bounds the capped series its cases read from above; the grid p <= 454, m = 2, h = 0 fits
# and runs 25 s (shared 2-vCPU Intel Xeon, Python 3.11.7)
VERIFY_MAX_DP_BITS = 10**11


class OracleBudgetError(RuntimeError):
    """Enumeration would visit more candidates than the budget allows."""

    def __init__(self, candidates: int, budget: int, what: str):
        super().__init__(
            f"{what} needs {candidates} candidates, "
            f"exceeding the oracle budget of {budget}"
        )
        self.candidates = candidates
        self.budget = budget


class Disagreement(Exception):
    """The formula and the oracle disagree outside verify: exit 1."""


class CheckRecord(namedtuple("CheckRecord", "space h kind got expected")):
    """One verified case: got, the formula side, against expected, the oracle's value.

    kind is count, partition, fiber_size or fiber_cover; values are decimal strings.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.got == self.expected


def l1_ball_count(m: int, h: int) -> int:
    """Number of x in Z^m with 1-norm at most h (no congruence filter); 0 for h < 0.

    Support of size j, j signs, and binom(h, j) choices of j positive
    parts with sum at most h; binom(h, j) = 0 for j > h, so those terms are skipped.
    """
    return sum(2**j * binom(m, j) * binom(h, j) for j in range(min(m, h) + 1))


def l1_sphere_count(m: int, h: int) -> int:
    """Number of x in Z^m with 1-norm exactly h: the candidate count of enumerate_omega."""
    return l1_ball_count(m, h) - l1_ball_count(m, h - 1)


def shell_price(m: int, h_lo: int, h_hi: int) -> int:
    """Raw candidates of the 1-norm shells h_lo..h_hi of Z^m, a walk's price; refuses h < 0."""
    if h_lo < 0 or h_hi < 0:
        raise ValueError(f"h must be non-negative, got {min(h_lo, h_hi)}")
    return l1_ball_count(m, h_hi) - l1_ball_count(m, h_lo - 1)


def check_budget(candidates: int, budget: int, what: str) -> None:
    """Refuse, with OracleBudgetError, a walk priced over the budget."""
    if candidates > budget:
        raise OracleBudgetError(candidates, budget, what)


def _congruent_shell(p: int, qs: Sequence[int], s: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Yield every x with 1-norm s, all |x_j| <= cap and sum q_j*x_j = 0 (mod p).

    Walks the absolute values in composition order, each signed prefix
    carrying its residue; the last two coordinates are one flat loop over
    the next-to-last absolute value that tests every sign pair, and a lone
    coordinate is s, then -s.  Only a passing point becomes a whole tuple.
    """
    if not qs or s > cap * len(qs):
        return iter([()] if s == 0 else [])
    if len(qs) == 1:
        return ((x,) for x in ((s, -s) if s else (0,)) if qs[0] * x % p == 0)
    return _walk(p, qs, cap, 0, s, [(0, ())])


def _walk(p: int, qs: Sequence[int], cap: int, j: int, rem: int, prefixes: list) -> Iterator:
    """Yield each congruent extension of the signed prefixes over coordinates j.. to 1-norm rem.

    At least two coordinates remain.  Those before the last two extend the
    prefixes and recurse; the last two are tested in place, + before - on
    each, so points come out in composition order, then sign order.
    """
    last = len(qs) - 1
    if j == last - 1:
        qj, ql = qs[j], qs[last]
        for a in range(max(0, rem - cap), min(rem, cap) + 1):
            c = rem - a
            qa, qc = qj * a, ql * c
            for r, x in prefixes:
                ra = r + qa
                if (ra + qc) % p == 0:
                    yield (*x, a, c)
                if c and (ra - qc) % p == 0:
                    yield (*x, a, -c)
                if a:
                    ra = r - qa
                    if (ra + qc) % p == 0:
                        yield (*x, -a, c)
                    if c and (ra - qc) % p == 0:
                        yield (*x, -a, -c)
        return
    for a in range(max(0, rem - cap * (last - j)), min(rem, cap) + 1):
        nxt, qa = [], qs[j] * a
        for r, x in prefixes:
            nxt.append((r + qa, (*x, a)))
            if a:
                nxt.append((r - qa, (*x, -a)))
        yield from _walk(p, qs, cap, j + 1, rem - a, nxt)


def enumerate_omega(
    space: LensSpace, h: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """Every x in Z^m with 1-norm h satisfying the congruence, exactly once."""
    what = f"enumerating 1-norm {h} vectors in Z^{space.m}"
    check_budget(shell_price(space.m, h, h), budget, what)
    return list(_congruent_shell(space.p, space.q, h, h))


def n_lattice_bruteforce(space: LensSpace, h: int, budget: int = DEFAULT_BUDGET) -> int:
    """|Omega(M, h)| by direct enumeration: the listing walk's points, counted and not kept."""
    what = f"counting 1-norm {h} vectors in Z^{space.m}"
    check_budget(shell_price(space.m, h, h), budget, what)
    return sum(1 for _ in _congruent_shell(space.p, space.q, h, h))


def shell_counts(space: LensSpace, h_max: int, budget: int = DEFAULT_BUDGET) -> list[int]:
    """[|Omega(M, h)| for h in 0..h_max], counted by one walk that lists no point.

    A point is a signed prefix of the first m - 2 coordinates, with 1-norm n,
    residue r and k nonzero values, then its next-to-last value y, then a
    last value x with q_m*x = -(r + q_{m-1}*y) (mod p).  The walk visits
    base values only and fills in every lift by running sums of step p, by
    four facts.  It keeps no (norm, residue) tally over coordinates.

    Lifts.  Every nonzero integer is +-(a + j*p) for exactly one a in 1..p
    and one j >= 0.  Adding p to |v_i| on a nonzero coordinate i < m keeps
    the congruence, since p = 0 (mod p), and adds exactly p to the norm.  So
    each point is exactly one base point, whose first m - 1 coordinates lie
    in {0} and +-[1..p], lifted j_i >= 0 times on each of its nonzero
    coordinates among those m - 1.  A mark at norm t standing for the lifts
    of c nonzero coordinates is filled in by c running sums R of step p:
    R^c puts binom(j + c - 1, c - 1), the number of ways to share j lifts,
    at t + j*p.  The prefixes are walked over base values only.

    The fold.  The map v -> -v on points takes the lattice onto itself and
    keeps the norm: sum q_j*v_j = 0 (mod p) implies sum q_j*(-v_j) = 0, and
    |-v_j| = |v_j|.  It maps the points with y < 0 one to one onto those
    with y > 0, so N(h) is twice the count of norm-h points with y > 0 plus
    the count with y = 0.  A y > 0 is a base a in 1..p with its lifts; y = 0
    has none.  A lone mark is R of itself less itself shifted by p, and the
    shift of a y = 0 mark is the mark of y = p, whose residue is y = 0's
    (p*q_{m-1} = 0 mod p).  So under one running sum for y, the walk takes
    y in 0..p, at weight 1 for y = 0 and y = p and 2 for y in 1..p-1.

    The last value.  q_m is a unit mod p (every q_j of a lens space is
    coprime to p), so q_m*x = -(r + q_{m-1}*y) (mod p) holds exactly when
    x = u (mod p), with u = -(r + q_{m-1}*y)/q_m mod p in 0..p-1.  The x >= 0
    of that class have |x| = u, u + p, u + 2p, ...; the x < 0 have |x| =
    p - u, 2p - u, ... (p, 2p, ... when u = 0).  So a pair adds to
    N(n + y + |x|) along two progressions of step p, which start at
    n + y + u and n + y + p - u.  The walk marks each start <= h_max, and
    one running sum fills each progression in up to h_max.

    Horner.  A pair whose prefix has k nonzero values needs k + 2 running
    sums: k for the prefix's lifts, one for y's and one for x's.  With L_k
    the marks of those pairs, counts = R(R(L_0 + R(L_1 + ... R(L_{m-2})))),
    applied in one (h_max + 1)-long list from the largest k down.

    Work.  The walk visits each (base prefix, y in 0..p) pair with n + y <=
    h_max once, at O(1) cost: O(min(p, h_max + 1)^(m - 1)) pairs, then m
    running sums of at most h_max steps.  At p > h_max no value has a lift,
    and the pairs are every (prefix, y >= 0) with n + y <= h_max.  Nothing
    it allocates is sized by p.
    """
    what = f"counting 1-norm 0..{h_max} vectors in Z^{space.m}"
    check_budget(shell_price(space.m, 0, h_max), budget, what)
    # every q_j scaled by -1/q_m, so a residue is the u of its last values
    p, scale = space.p, -pow(space.q[-1], -1, space.p)
    *head, q_y = (q * scale % p for q in space.q[:-1])
    bins = [[(0, 0)]]  # bins[k]: (norm, residue) of each base prefix with k nonzero values
    for q in head:
        bins = [
            same + [(n + a, r + s) for n, r in low for a in range(1, min(p, h_max - n) + 1)
                    for s in (q * a, -q * a)]
            for same, low in zip(bins + [[]], [[]] + bins)
        ]
    counts = [0] * (h_max + 1)
    for level in (*reversed(bins), ()):  # Horner: R(R(L_0 + R(L_1 + ... R(L_{m-2}))))
        for n, r in level:
            u, w = r % p, 1
            for ny in range(n, min(n + p - 1, h_max) + 1):  # ny = n + y, y in 0..p-1
                if ny + u <= h_max:
                    counts[ny + u] += w
                if ny + p - u <= h_max:
                    counts[ny + p - u] += w
                u, w = (u + q_y) % p, 2
            if n + p <= h_max:  # y = p: the u of y = 0, at weight 1
                for t in (n + p + u, n + 2 * p - u):
                    if t <= h_max:
                        counts[t] += 1
        for h in range(p, h_max + 1):
            counts[h] += counts[h - p]
    return counts


def fold_point(space: LensSpace, x: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Partition mask bits of x and its folded, box-bounded representative.

    After the congruence check, one loop decides each coordinate once: a
    negative multiple of p sets its bit of N and is dropped, and any other
    x_j is replaced by its congruence representative: x_j mod p in
    {0,...,p-1} when x_j >= 0, and (x_j mod p) - p when x_j < 0.  The
    folded vector keeps the congruence over the complement and satisfies
    |y_j| <= p-1.  A non-integer x_j (one without __index__) raises
    TypeError, and a point off the lattice ValueError.
    """
    x = tuple(map(operator.index, x))
    if not space.admits(x):
        raise ValueError(f"{x} violates the congruence of {space}")
    p, bits, y = space.p, 0, []
    for j, v in enumerate(x):
        if v < 0 and v % p == 0:
            bits |= 1 << j
        else:
            y.append(v % p if v >= 0 else v % p - p)
    return bits, tuple(y)


def fiber_census(
    space: LensSpace, h: int, points: Sequence[tuple[int, ...]]
) -> dict[tuple[SubsetMask, int, tuple[int, ...]], int]:
    """Fiber sizes of the folding map over the points enumerate_omega(space, h).

    Keys are (N, t, y): the partition mask, the folded norm offset t
    (||y||_1 = k + t*p where h = k + n*p), and the folded vector.  For
    every occupied key the size equals binom(n - t + (m - |N|) - 1, m - 1).
    A point whose 1-norm is not h raises ValueError.  Each point's fold
    gives only the bits of its N; a class's mask is built once per call,
    when its first point folds into it, so no more masks than classes occur.
    """
    k, _ = decompose(h, space.p)
    masks: dict[int, SubsetMask] = {}
    census: dict[tuple[SubsetMask, int, tuple[int, ...]], int] = {}
    for x in points:
        bits, y = fold_point(space, x)
        norm = sum(map(abs, x))
        if norm != h:  # an explicit check, which python -O keeps
            raise ValueError(f"{x} has 1-norm {norm}, not {h}")
        mask = masks.get(bits) or masks.setdefault(bits, SubsetMask(bits, space.m))
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
    p, qs = space.p, U.pick(space.q)
    check_budget((2 * p - 1) ** len(qs), budget, f"scanning the box over {len(qs)} coordinates")
    return list(_congruent_shell(p, qs, s, p - 1))


def gamma_bruteforce(
    space: LensSpace, U: SubsetMask, s: int, budget: int = DEFAULT_BUDGET
) -> int:
    """|C(U, s)| from the box's norm-s shell; the enumeration twin of lattice.gamma."""
    return len(enumerate_c(space, U, s, budget))


def subset_table(space: LensSpace, h_max: int) -> dict[SubsetMask, tuple[tuple, list[int]]]:
    """{N: (q over N^c, [gamma(N^c, s) for s in 0..h_max - |N|*p])} for each N with |N|*p <= h_max.

    A point of norm h has |N|*p <= h, so these are the only classes a norm up
    to h_max can hold: sum_{u <= h_max // p} binom(m, u) of them, built by size u.
    Each series is one run of lattice.gamma's box DP, cut at the largest s a
    norm h <= h_max reads for N; the DP is causal, so the cut changes no value.
    """
    p, m, table = space.p, space.m, {}
    for u in range(min(m, h_max // p) + 1):
        for members in combinations(range(m), u):
            mask = SubsetMask(sum(1 << j for j in members), m)
            qs = mask.complement().pick(space.q)
            table[mask] = qs, _lattice_series(p, qs, h_max - u * p, with_zp=False)
    return table


def fold_law_checks(
    space: LensSpace, h: int, points: Sequence[tuple[int, ...]], table: dict[SubsetMask, tuple]
) -> Iterator[tuple[str, str, str]]:
    """The partition and fiber laws at 1-norm h, as (kind, got, expected).

    points is enumerate_omega(space, h), which the caller has already
    enumerated, and table is subset_table(space, h_max), h_max >= h.
    Yields one 'partition' check, one 'fiber_size' check per occupied
    fold key (its size is the predicted binomial), then one
    'fiber_cover' check (every admissible (N, t, y) key is occupied).
    Values are decimal strings; a check passes iff got == expected.

    Each point is folded once, by fiber_census; class N's size is the
    sum of its fiber sizes, added up in one pass, and its law is
    sum_{t <= n - |N|} binom(n - t + m - |N| - 1, m - 1) * gamma(N^c, k + t*p)
    with gamma from the table.  One sweep over (N, t) adds up the laws and
    walks the admissible keys, the norm k + t*p shell of the box over N^c.
    It visits, in mask order, the table's classes and the occupied ones: any
    other class is empty with law 0, and an occupied class outside the table,
    which only a faulty fold can fill, has law 0 and no keys.  The partition
    check expects the sum of the laws; got is len(points) with a note for
    each class whose size breaks its law.  The walks need no budget: each
    shell candidate y of (N, t) lifts to a distinct norm-h candidate of Z^m
    (y on N^c, the missing (n - t)*p on N as negative multiples of p, or on
    the first coordinate away from 0 when N is empty) that folds back to
    (N, t, y), so they visit at most l1_sphere_count(m, h) candidates, which
    enumerate_omega has checked.
    """
    p, m = space.p, space.m
    k, n = decompose(h, p)
    census = fiber_census(space, h, points)
    sizes: dict[SubsetMask, int] = {}
    for (mask, _t, _y), c in census.items():
        sizes[mask] = sizes.get(mask, 0) + c
    got, expected, covered, keys = str(len(points)), 0, 0, 0
    for mask in sorted(table.keys() | sizes.keys()):
        qs, series = table.get(mask, ((), []))
        size, law = sizes.get(mask, 0), 0
        for t in range(n - mask.u + 1):
            law += binom(n - t + m - mask.u - 1, m - 1) * series[k + t * p]
            for y in _congruent_shell(p, qs, k + t * p, p - 1):
                keys += 1
                covered += (mask, t, y) in census
        expected += law
        if size != law:
            got += f" (class {mask.bits:#b}: {size}, law {law})"
    yield "partition", got, str(expected)
    for (mask, t, _y), size in census.items():
        yield "fiber_size", str(size), str(binom(n - t + m - mask.u - 1, m - 1))
    yield "fiber_cover", str(covered), str(keys)


def verify_cases(
    hs: list[int], budget: int, what: str,
    space: LensSpace | None = None, p_max: int = 0, ms: Sequence[int] = (), deep: bool = False,
) -> list[tuple[LensSpace, list[int]]]:
    """(space, hs) cases of verify run what: one space, or each canonical q of p <= p_max, m in ms.

    Refused before any case is built: an m < 2, before pricing; then, summed per tuple tried,
    hs's shell_price candidates over the budget or, over VERIFY_MAX_DP_BITS, a numerator's DP
    bits plus with deep 2^m subset DPs (an upper bound on subset_table's) of at most
    _pass_plan(p, m, hs[-1], False) bits; no case.
    """
    if space is not None:
        priced, spaces = [(space.p, space.m, 1)], [space]
    else:
        for m in ms:
            _check_m(m)
        ps = range(1, p_max + 1) if ms else ()
        priced = ((p, m, _canonical_candidates(p, m)) for m in ms for p in ps)
        spaces = (make_lens_space(p, q) for p in ps for m in ms for q in canonical_q_tuples(p, m))
    # refused as a sum passes: a huge p_max stops at once, and shell_price refuses h < 0 first
    bits = cost = 0
    for p, m, tried in priced:
        cost += tried * shell_price(m, hs[0], hs[-1])
        bits += tried * (_numerator_bits(p, m) + (deep and _pass_plan(p, m, hs[-1], False)[2] << m))
        if bits > VERIFY_MAX_DP_BITS:
            raise ValueError(f"{what} builds numerators over {VERIFY_MAX_DP_BITS} DP bits")
    check_budget(cost, budget, what)
    cases = [(case, hs) for case in spaces]
    if not cases:
        raise ValueError(f"empty {what}: nothing to check")
    return cases


def verify_grid(
    cases: list[tuple[LensSpace, list[int]]], budget: int, deep: bool
) -> list[CheckRecord]:
    """Every check of the formula against the enumeration oracle, in order.

    For each (space, norms) case and each norm h, one 'count' check of
    N(h).  Norms 0..h_max read the ranged series, P capped at h_max over
    (1 - z^p)^m, against one shell_counts walk.  A lone norm h reads
    spectra.lattice_count, the stride sum over P at its degrees up to min(h, m*p),
    against n_lattice_bruteforce.  Neither builds P past the degree it
    checks.  With deep, also the fold-law checks, which fold the points
    that enumerate_omega lists, with one subset_table per case.
    """
    checks = []
    for space, hs in cases:
        label = str(space)
        table = subset_table(space, hs[-1]) if deep else None
        if len(hs) > 1:
            formulas = _divided(_lattice_series(*space, hs[-1], True), space.p, space.m, 0)
            counts = shell_counts(space, hs[-1], budget)
        else:
            formulas = [lattice_count(space, hs[0])]
            counts = [n_lattice_bruteforce(space, hs[0], budget)]
        for h, formula, count in zip(hs, formulas, counts):
            checks.append(CheckRecord(label, h, "count", str(formula), str(count)))
            if deep:
                for check in fold_law_checks(space, h, enumerate_omega(space, h, budget), table):
                    checks.append(CheckRecord(label, h, *check))
    return checks


def bench_timings(space: LensSpace, h_max: int, budget: int) -> list[tuple]:
    """(h, formula seconds, oracle seconds) for h in 0..h_max, the formula against the listing walk.

    P is built once, capped at min(h_max, m*p), and each formula is its stride sum at h, as
    spectra.lattice_count reads it.  Oracle seconds are None where n_lattice_bruteforce
    refuses h as over the budget; a count that differs from the formula's raises Disagreement.
    """
    series = _lattice_series(*space, min(h_max, space.m * space.p), True)
    timings = []
    for h in range(h_max + 1):
        start = time.perf_counter()
        k, n = decompose(h, space.p)
        value = _stride_sum(series[k::space.p], space.m, n)
        middle = time.perf_counter()
        try:
            count = n_lattice_bruteforce(space, h, budget)
        except OracleBudgetError:
            oracle_seconds = None
        else:
            oracle_seconds = time.perf_counter() - middle
            if count != value:
                raise Disagreement(f"formula and oracle disagree at h = {h}: {value} vs {count}")
        timings.append((h, middle - start, oracle_seconds))
    return timings
