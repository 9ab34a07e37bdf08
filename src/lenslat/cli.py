"""Command-line front end: tables, single counts, verification, comparison.

Subcommands
-----------
spectrum   eigenvalue/multiplicity table for one lens space
nl         single 1-norm lattice count N(h)
gamma      single box-bounded count gamma(U, s)
verify     counting formula vs. brute-force enumeration over a grid
compare    multiplicity sequences of two lens spaces
parity     even-multiplicity report for odd degrees
bench      wall-clock of the formula path vs. the enumeration oracle

Output is CSV (default) or JSON on stdout (or --output PATH).
Multiplicities and counts are serialized as decimal strings in JSON so
arbitrary-precision values survive every parser.  Exit codes: 0 success,
1 verification mismatch, 2 invalid input, an unwritable --output or a
refused enumeration budget.  Input that would check nothing (an empty
verify grid, a negative --h-max) is invalid.
The environment variable LENSLAT_ORACLE_BUDGET overrides the default
oracle candidate budget; a --oracle-budget flag wins over both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import product

from . import oracle
from .lattice import (
    LensSpace,
    SubsetMask,
    binom,
    decompose,
    gamma,
    make_lens_space,
    numerator,
)
from .spectra import (
    compare_spectra,
    multiplicity,
    n_lattice_formula,
    parity_report,
    spectrum,
)

BUDGET_ENV_VAR = "LENSLAT_ORACLE_BUDGET"
# bench keeps the oracle at desk scale (a few thousand candidates per
# norm) so the gap report itself stays fast
BENCH_DEFAULT_BUDGET = 6400


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation of one subcommand."""

    command: str
    p: int | None = None
    q: tuple[int, ...] | None = None
    p2: int | None = None
    q2: tuple[int, ...] | None = None
    i_max: int = 0
    h: int | None = None
    s: int | None = None
    subset: tuple[int, ...] | None = None  # 1-based indices; None = all
    p_max: int = 8
    m_values: tuple[int, ...] = (2, 3)
    h_max: int = 20
    deep: bool = False
    fmt: str = "csv"
    output: str | None = None
    oracle_budget: int = oracle.DEFAULT_BUDGET


@dataclass(frozen=True)
class CheckRecord:
    """One verified case: a formula-side value against its oracle value."""

    space: str
    h: int
    kind: str  # count | partition | fiber_size | fiber_cover
    got: str
    expected: str

    @property
    def ok(self) -> bool:
        return self.got == self.expected


@dataclass(frozen=True)
class VerifyReport:
    """Grid description plus every check that ran; success iff no mismatches."""

    grid: str
    cases: int
    checks: tuple[CheckRecord, ...] = ()

    @property
    def mismatches(self) -> tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if not c.ok)


def canonical_q_tuples(p: int, m: int) -> list[tuple[int, ...]]:
    """Valid parameter tuples for (p, m), one per symmetry class.

    Two tuples give the same counts when related by coordinate
    permutation, negation of single entries mod p, or scaling every
    entry by a unit mod p; this enumerates one representative per orbit.
    """
    units = [c for c in range(1, p + 1) if math.gcd(c, p) == 1]
    seen = set()
    out = []
    for q in product(units, repeat=m):
        key = _canonical_form(q, p, units)
        if key not in seen:
            seen.add(key)
            out.append(q)
    return out


def _canonical_form(
    q: tuple[int, ...], p: int, units: list[int]
) -> tuple[int, ...]:
    best = None
    for c in units:
        folded = tuple(
            sorted(min((c * v) % p, (p - (c * v) % p) % p) for v in q)
        )
        if best is None or folded < best:
            best = folded
    return best


def _resolve_budget(flag_value: int | None, default: int) -> int:
    budget = flag_value
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget = default if env is None else int(env)
        except ValueError:
            raise ValueError(
                f"{BUDGET_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if budget < 0:
        raise ValueError(f"oracle budget must be non-negative, got {budget}")
    return budget


def _ints(text: str) -> tuple[int, ...]:
    if text == "":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _space_spec(text: str) -> tuple[int, tuple[int, ...]]:
    """Parse 'p:q1,q2,...' into (p, q)."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"expected p:q1,q2,... , got {text!r}")
    try:
        p = int(head)
    except ValueError:
        raise ValueError(f"expected p:q1,q2,... , got {text!r}") from None
    return p, _ints(tail)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _space_json(space: LensSpace) -> dict:
    return {"p": space.p, "q": list(space.q)}


def run_spectrum(config: RunConfig) -> tuple[str, int]:
    space = make_lens_space(config.p, config.q)
    table = spectrum(space, config.i_max)
    if config.fmt == "json":
        obj = {
            "p": space.p,
            "q": list(space.q),
            "d": space.d,
            "entries": [
                {"i": e.i, "lambda": e.eigenvalue, "mult": str(e.mult)}
                for e in table.entries
            ],
        }
        return _json_text(obj), 0
    rows = [[e.i, e.eigenvalue, e.mult] for e in table.entries]
    return _csv_text(["i", "eigenvalue", "multiplicity"], rows), 0


def run_nl(config: RunConfig) -> tuple[str, int]:
    space = make_lens_space(config.p, config.q)
    value = n_lattice_formula(space, numerator(space), config.h)
    if config.fmt == "json":
        obj = _space_json(space) | {"h": config.h, "count": str(value)}
        return _json_text(obj), 0
    return f"{value}\n", 0


def run_gamma(config: RunConfig) -> tuple[str, int]:
    space = make_lens_space(config.p, config.q)
    if config.subset is None:
        mask = SubsetMask.full(space.m)
    else:
        for n, j in enumerate(config.subset):
            if not 1 <= j <= space.m:
                raise ValueError(
                    f"subset index {j} out of range 1..{space.m}"
                )
            if j in config.subset[:n]:
                raise ValueError(f"subset index {j} given more than once")
        mask = SubsetMask.from_indices([j - 1 for j in config.subset], space.m)
    value = gamma(space, mask, config.s)
    if config.fmt == "json":
        obj = _space_json(space) | {
            "subset": [j + 1 for j in mask.indices()],
            "s": config.s,
            "count": str(value),
        }
        return _json_text(obj), 0
    return f"{value}\n", 0


def run_compare(config: RunConfig) -> tuple[str, int]:
    a = make_lens_space(config.p, config.q)
    b = make_lens_space(config.p2, config.q2)
    report = compare_spectra(a, b, config.i_max)
    if config.fmt == "json":
        divergence = None
        if report.first_divergence is not None:
            i, mult_a, mult_b = report.first_divergence
            divergence = {"i": i, "mult_a": str(mult_a), "mult_b": str(mult_b)}
        obj = {
            "space_a": _space_json(a),
            "space_b": _space_json(b),
            "i_max": config.i_max,
            "equal": report.equal,
            "dimension_mismatch": report.dimension_mismatch,
            "first_divergence": divergence,
        }
        return _json_text(obj), 0
    if report.first_divergence is not None:
        i, mult_a, mult_b = report.first_divergence
        row = [_bool(report.equal), _bool(report.dimension_mismatch), i, mult_a, mult_b]
    else:
        row = [_bool(report.equal), _bool(report.dimension_mismatch), "", "", ""]
    header = ["equal", "dimension_mismatch", "first_divergence_i", "mult_a", "mult_b"]
    return _csv_text(header, [row]), 0


def run_parity(config: RunConfig) -> tuple[str, int]:
    space = make_lens_space(config.p, config.q)
    rows = parity_report(space, config.i_max)
    if config.fmt == "json":
        obj = _space_json(space) | {
            "i_max": config.i_max,
            "guarantee_applies": space.p % 2 == 0,
            "rows": [{"i": r.i, "mult": str(r.mult), "ok": r.ok} for r in rows],
        }
        return _json_text(obj), 0
    table = [[r.i, r.mult, _bool(r.ok)] for r in rows]
    return _csv_text(["i", "multiplicity", "parity_ok"], table), 0


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _verify_cases(config: RunConfig) -> tuple[str, list[tuple[LensSpace, list[int]]]]:
    if config.p is not None:
        space = make_lens_space(config.p, config.q)
        hs = [config.h] if config.h is not None else list(range(config.h_max + 1))
        return f"single case {space}, h in {hs[0]}..{hs[-1]}", [(space, hs)]
    cases = []
    for p in range(1, config.p_max + 1):
        for m in config.m_values:
            for q in canonical_q_tuples(p, m):
                cases.append((make_lens_space(p, q), list(range(config.h_max + 1))))
    grid = (
        f"p in 1..{config.p_max}, m in {sorted(config.m_values)}, "
        f"canonical q tuples, h in 0..{config.h_max}"
        + (", deep" if config.deep else "")
    )
    if not cases:
        raise ValueError(f"empty verify grid ({grid}): nothing to check")
    return grid, cases


def _deep_checks(
    space: LensSpace, h: int, budget: int, checks: list[CheckRecord]
) -> None:
    label = space.label()
    count = oracle.n_lattice_bruteforce(space, h, budget)

    # partition: classes disjoint by construction, each member must match
    # its class predicate exactly, and the sizes must sum to the count
    classes = oracle.classify_partition(space, h, budget)
    exact = all(
        oracle.negative_multiple_mask(space, x) == cls.N
        for cls in classes
        for x in cls.members
    )
    total = sum(len(cls.members) for cls in classes)
    got = f"{total}" if exact else f"{total} (class predicate violated)"
    checks.append(CheckRecord(label, h, "partition", got, str(count)))

    # fibers: every occupied fold key carries the predicted binomial size,
    # and every admissible (N, t, y) key is occupied
    k, n = decompose(h, space.p)
    census = oracle.fiber_census(space, h, budget)
    for (mask, t, _y), size in census.items():
        expected = binom(n - t + (space.m - mask.u) - 1, space.m - 1)
        checks.append(CheckRecord(label, h, "fiber_size", str(size), str(expected)))
    covered = 0
    admissible = 0
    for bits in range(1 << space.m):
        mask = SubsetMask(bits, space.m)
        for t in range(n - mask.u + 1):
            for y in oracle.enumerate_c(space, mask.complement(), k + t * space.p, budget):
                admissible += 1
                if (mask, t, y) in census:
                    covered += 1
    checks.append(CheckRecord(label, h, "fiber_cover", str(covered), str(admissible)))


def verify_grid(config: RunConfig) -> VerifyReport:
    """Run the formula against the enumeration oracle over the configured grid."""
    grid, cases = _verify_cases(config)
    checks: list[CheckRecord] = []
    for space, hs in cases:
        num = numerator(space)
        label = space.label()
        for h in hs:
            formula = n_lattice_formula(space, num, h)
            count = oracle.n_lattice_bruteforce(space, h, config.oracle_budget)
            checks.append(CheckRecord(label, h, "count", str(formula), str(count)))
            if config.deep:
                _deep_checks(space, h, config.oracle_budget, checks)
    return VerifyReport(grid, len(cases), tuple(checks))


def run_verify(config: RunConfig) -> tuple[str, int]:
    report = verify_grid(config)
    code = 0 if not report.mismatches else 1
    if config.fmt == "json":
        obj = {
            "grid": report.grid,
            "cases": report.cases,
            "checks": len(report.checks),
            "mismatch_count": len(report.mismatches),
            "mismatches": [
                {
                    "space": c.space,
                    "h": c.h,
                    "kind": c.kind,
                    "got": c.got,
                    "expected": c.expected,
                }
                for c in report.mismatches
            ],
        }
        return _json_text(obj), code
    rows = [
        [c.space, c.h, c.kind, c.got, c.expected, _bool(c.ok)]
        for c in report.checks
    ]
    header = ["space", "h", "kind", "got", "expected", "ok"]
    return _csv_text(header, rows), code


def run_bench(config: RunConfig) -> tuple[str, int]:
    """Time the formula against the oracle for every h up to h_max.

    The oracle runs only while its candidate count fits the budget;
    beyond that the row says 'skipped'.  Timings are the one
    non-deterministic output of the CLI.
    """
    space = make_lens_space(config.p, config.q)
    num = numerator(space)
    rows = []
    for h in range(config.h_max + 1):
        start = time.perf_counter()
        value = n_lattice_formula(space, num, h)
        formula_seconds = time.perf_counter() - start
        candidates = oracle.l1_sphere_count(space.m, h)
        if candidates <= config.oracle_budget:
            start = time.perf_counter()
            count = oracle.n_lattice_bruteforce(space, h, config.oracle_budget)
            oracle_seconds = time.perf_counter() - start
            if count != value:
                raise RuntimeError(
                    f"formula and oracle disagree at h = {h}: {value} vs {count}"
                )
            rows.append((h, formula_seconds, oracle_seconds))
        else:
            rows.append((h, formula_seconds, None))
    if config.fmt == "json":
        obj = _space_json(space) | {
            "h_max": config.h_max,
            "oracle_budget": config.oracle_budget,
            "rows": [
                {
                    "h": h,
                    "formula_seconds": f_sec,
                    "oracle_seconds": o_sec,
                    "skipped": o_sec is None,
                }
                for h, f_sec, o_sec in rows
            ],
        }
        return _json_text(obj), 0
    table_rows = [
        [h, f"{f_sec:.6f}", "skipped" if o_sec is None else f"{o_sec:.6f}"]
        for h, f_sec, o_sec in rows
    ]
    return _csv_text(["h", "formula_seconds", "oracle_seconds"], table_rows), 0


_DISPATCH = {
    "spectrum": run_spectrum,
    "nl": run_nl,
    "gamma": run_gamma,
    "verify": run_verify,
    "compare": run_compare,
    "parity": run_parity,
    "bench": run_bench,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenslat",
        description="Exact Laplace-Beltrami eigenvalue multiplicities on lens spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_space=True):
        if with_space:
            sp.add_argument("--p", type=int, required=True, help="order of the cyclic group")
            sp.add_argument(
                "--q", type=_ints, required=True,
                help="rotation parameters, comma-separated (e.g. 1,2,3)",
            )
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="write to a file instead of stdout")

    sp = sub.add_parser("spectrum", help="eigenvalue/multiplicity table")
    add_common(sp)
    sp.add_argument("--i-max", type=int, required=True, help="largest degree")

    sp = sub.add_parser("nl", help="single 1-norm lattice count N(h)")
    add_common(sp)
    sp.add_argument("--h", type=int, required=True, help="1-norm")

    sp = sub.add_parser("gamma", help="single box-bounded count gamma(U, s)")
    add_common(sp)
    sp.add_argument("--s", type=int, required=True, help="1-norm")
    sp.add_argument(
        "--subset", type=_ints, default=None,
        help="1-based coordinate indices of U (default: all; '' for the empty set)",
    )

    sp = sub.add_parser("verify", help="formula vs. enumeration over a grid")
    sp.add_argument("--p", type=int, default=None, help="verify a single space instead of the grid")
    sp.add_argument("--q", type=_ints, default=None)
    sp.add_argument("--h", type=int, default=None, help="single 1-norm (with --p/--q)")
    sp.add_argument("--p-max", type=int, default=8)
    sp.add_argument("--m", type=_ints, default=(2, 3), help="values of m for the grid")
    sp.add_argument("--h-max", type=int, default=20)
    sp.add_argument("--deep", action="store_true", help="also check partitions and fold fibers")
    sp.add_argument("--oracle-budget", type=int, default=None)
    add_common(sp, with_space=False)

    sp = sub.add_parser("compare", help="multiplicity sequences of two spaces")
    sp.add_argument("--a", type=_space_spec, required=True, help="first space as p:q1,q2,...")
    sp.add_argument("--b", type=_space_spec, required=True, help="second space as p:q1,q2,...")
    sp.add_argument("--i-max", type=int, required=True)
    add_common(sp, with_space=False)

    sp = sub.add_parser("parity", help="even-multiplicity report for odd degrees")
    add_common(sp)
    sp.add_argument("--i-max", type=int, required=True)

    sp = sub.add_parser("bench", help="formula vs. oracle wall-clock")
    add_common(sp)
    sp.add_argument("--h-max", type=int, default=100)
    sp.add_argument("--oracle-budget", type=int, default=None)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    kwargs = {"command": command, "fmt": args.fmt, "output": args.output}
    if command in ("spectrum", "nl", "gamma", "parity", "bench"):
        kwargs["p"] = args.p
        kwargs["q"] = args.q
    if command in ("spectrum", "parity"):
        kwargs["i_max"] = args.i_max
    if command == "nl":
        kwargs["h"] = args.h
    if command == "gamma":
        kwargs["s"] = args.s
        kwargs["subset"] = args.subset
    if command == "compare":
        kwargs["p"], kwargs["q"] = args.a
        kwargs["p2"], kwargs["q2"] = args.b
        kwargs["i_max"] = args.i_max
    if command in ("verify", "bench") and args.h_max < 0:
        raise ValueError(f"--h-max must be non-negative, got {args.h_max}")
    if command == "verify":
        if args.p is not None and args.q is None:
            raise ValueError("--p needs --q for a single-space verify")
        if args.p is None and (args.q is not None or args.h is not None):
            raise ValueError("--q/--h only apply together with --p")
        kwargs["p"] = args.p
        kwargs["q"] = args.q
        kwargs["h"] = args.h
        kwargs["p_max"] = args.p_max
        kwargs["m_values"] = tuple(args.m)
        kwargs["h_max"] = args.h_max
        kwargs["deep"] = args.deep
        kwargs["oracle_budget"] = _resolve_budget(args.oracle_budget, oracle.DEFAULT_BUDGET)
    if command == "bench":
        kwargs["h_max"] = args.h_max
        kwargs["oracle_budget"] = _resolve_budget(args.oracle_budget, BENCH_DEFAULT_BUDGET)
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        text, code = _DISPATCH[config.command](config)
    except oracle.OracleBudgetError as err:
        print(
            f"error: {err}; shrink the grid or raise the budget "
            f"(--oracle-budget or {BUDGET_ENV_VAR})",
            file=sys.stderr,
        )
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if config.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        print(f"error: cannot write {config.output}: {err.strerror}", file=sys.stderr)
        return 2
    return code


def console_main() -> None:
    raise SystemExit(main())
