"""Command-line front end: tables, single counts, verification, comparison.

Subcommands
-----------
spectrum   eigenvalue/multiplicity table for one lens space
nl         single 1-norm lattice count N(h)
gamma      single box-bounded count gamma(U, s)
verify     counting formula vs. brute-force enumeration over a grid
compare    multiplicity sequences of two lens spaces
parity     parity law of the multiplicities, checked at every degree for every p
bench      wall-clock of the formula path vs. the enumeration oracle

Output is CSV (default) or JSON on stdout (or --output PATH).
Multiplicities and counts are serialized as decimal strings in JSON so
arbitrary-precision values survive every parser.  Exit codes: 0 success,
1 verification mismatch (in verify or bench), 2 invalid input, an
unwritable --output or a size over its resource's one rule (a DP, a result
list, a class walk, a verify grid, an enumeration's --oracle-budget),
refused before that work.  Input that would check nothing (an empty
verify grid, a negative --h-max, a bench oracle budget of 0) is invalid.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from collections import namedtuple

from . import oracle
from .lattice import (
    LensSpace,
    SubsetMask,
    _canonical_candidates,
    _canonical_form,  # noqa: F401  perfbench counts symmetry-class trials here
    _numerator_bits,
    canonical_q_tuples,
    gamma,
    make_lens_space,
    numerator,
)
from .spectra import MAX_SPECTRUM_LINES, compare_spectra, n_lattice_formula, parity_report, spectrum

# bench keeps the oracle at desk scale (a few thousand candidates per
# norm) so the gap report itself stays fast
BENCH_DEFAULT_BUDGET = 6400
VERIFY_DEFAULT_H_MAX = 20
VERIFY_DEFAULT_P_MAX = 8
VERIFY_DEFAULT_M = (2, 3)
# per verify grid: each symmetry class it walks builds a full numerator, priced
# by lattice._numerator_bits; about 10 s of kernel work (AMD EPYC, Python 3.11.7);
# it bounds the grid's class walks too
VERIFY_MAX_DP_BITS = 10**11


class Disagreement(Exception):
    """The formula and the oracle disagree outside verify: exit 1."""


class CheckRecord(namedtuple("CheckRecord", "space h kind got expected")):
    """One verified case: a formula-side value against its oracle value.

    kind is count, partition, fiber_size or fiber_cover; got and
    expected are decimal strings.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.got == self.expected


def _resolve_budget(flag_value: int | None, default: int) -> int:
    budget = default if flag_value is None else flag_value
    if budget < 0:
        raise ValueError(f"oracle budget must be non-negative, got {budget}")
    return budget


def _check_h_max(h_max: int) -> None:
    """verify and bench build a row per norm 0..h_max: refuse what no row list could hold."""
    if h_max < 0:
        raise ValueError(f"--h-max must be non-negative, got {h_max}")
    if h_max >= MAX_SPECTRUM_LINES:
        raise ValueError(f"--h-max must be below {MAX_SPECTRUM_LINES}, got {h_max}")


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _space_spec(text: str) -> tuple[int, tuple[int, ...]]:
    """Parse 'p:q1,q2,...' into (p, q)."""
    head, sep, tail = text.partition(":")
    try:
        if sep:
            return int(head), _ints(tail)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected p:q1,q2,... , got {text!r}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header: list[str] | None, rows: list[list]) -> str:
    """CSV lines; with no header, the rows alone (a bare value for nl/gamma)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _space_json(space: LensSpace) -> dict:
    return {"p": space.p, "q": list(space.q)}


def _bool(value: bool) -> str:
    return "true" if value else "false"


# Each run_* takes the parsed arguments and returns its CSV header (None
# for a bare value), CSV rows, JSON payload and exit code; main renders
# one of the two forms.


def run_spectrum(args: argparse.Namespace):
    space = make_lens_space(args.p, args.q)
    entries = spectrum(space, args.i_max)
    rows = [[e.i, e.eigenvalue, e.mult] for e in entries]
    payload = _space_json(space) | {
        "d": space.d,
        "entries": [
            {"i": e.i, "lambda": e.eigenvalue, "mult": str(e.mult)}
            for e in entries
        ],
    }
    return ["i", "eigenvalue", "multiplicity"], rows, payload, 0


def run_nl(args: argparse.Namespace):
    space = make_lens_space(args.p, args.q)
    value = n_lattice_formula(space, numerator(space), args.h)
    payload = _space_json(space) | {"h": args.h, "count": str(value)}
    return None, [[value]], payload, 0


def run_gamma(args: argparse.Namespace):
    space = make_lens_space(args.p, args.q)
    if args.subset is None:
        mask = SubsetMask.full(space.m)
    else:
        for n, j in enumerate(args.subset):
            if not 1 <= j <= space.m:
                raise ValueError(
                    f"subset index {j} out of range 1..{space.m}"
                )
            if j in args.subset[:n]:
                raise ValueError(f"subset index {j} given more than once")
        mask = SubsetMask.from_indices([j - 1 for j in args.subset], space.m)
    value = gamma(space, mask, args.s)
    payload = _space_json(space) | {
        "subset": [j + 1 for j in mask.indices()],
        "s": args.s,
        "count": str(value),
    }
    return None, [[value]], payload, 0


def run_compare(args: argparse.Namespace):
    a = make_lens_space(*args.a)
    b = make_lens_space(*args.b)
    report = compare_spectra(a, b, args.i_max)
    row = [_bool(report.equal), _bool(report.dimension_mismatch)]
    divergence = None
    if report.first_divergence is None:
        row += ["", "", ""]
    else:
        i, mult_a, mult_b = report.first_divergence
        row += [i, mult_a, mult_b]
        divergence = {"i": i, "mult_a": str(mult_a), "mult_b": str(mult_b)}
    payload = {
        "space_a": _space_json(a),
        "space_b": _space_json(b),
        "i_max": args.i_max,
        "equal": report.equal,
        "dimension_mismatch": report.dimension_mismatch,
        "first_divergence": divergence,
    }
    header = ["equal", "dimension_mismatch", "first_divergence_i", "mult_a", "mult_b"]
    return header, [row], payload, 0


def run_parity(args: argparse.Namespace):
    space = make_lens_space(args.p, args.q)
    report = parity_report(space, args.i_max)
    rows = [[r.i, r.mult, _bool(r.ok)] for r in report]
    payload = _space_json(space) | {
        "i_max": args.i_max,
        "rows": [{"i": r.i, "mult": str(r.mult), "ok": r.ok} for r in report],
    }
    return ["i", "multiplicity", "parity_ok"], rows, payload, 0


def _verify_cases(
    args: argparse.Namespace, h_max: int
) -> tuple[str, list[tuple[LensSpace, list[int]]]]:
    if args.p is not None:
        space = make_lens_space(args.p, args.q)
        hs = [args.h] if args.h is not None else list(range(h_max + 1))
        return f"single case {space}, h in {hs[0]}..{hs[-1]}", [(space, hs)]
    p_max = VERIFY_DEFAULT_P_MAX if args.p_max is None else args.p_max
    m_values = VERIFY_DEFAULT_M if args.m is None else args.m
    for n, m in enumerate(m_values):
        if m in m_values[:n]:
            raise ValueError(f"--m value {m} given more than once")
        if m < 2:
            raise ValueError(f"need at least two rotation parameters, got {m}")
    grid = (
        f"p in 1..{p_max}, m in {sorted(m_values)}, "
        f"canonical q tuples, h in 0..{h_max}"
        + (", deep" if args.deep else "")
    )
    # refused as soon as the running sum passes, so a huge --p-max stops at once
    bits = 0
    for p in range(1, p_max + 1):
        for m in m_values:
            bits += _canonical_candidates(p, m) * _numerator_bits(p, m)
            if bits > VERIFY_MAX_DP_BITS:
                raise ValueError(
                    f"verify grid ({grid}) builds numerators over {VERIFY_MAX_DP_BITS} DP bits"
                )
    cases = []
    for p in range(1, p_max + 1):
        for m in m_values:
            for q in canonical_q_tuples(p, m):
                cases.append((make_lens_space(p, q), list(range(h_max + 1))))
    if not cases:
        raise ValueError(f"empty verify grid ({grid}): nothing to check")
    return grid, cases


def verify_grid(
    cases: list[tuple[LensSpace, list[int]]], budget: int, deep: bool
) -> list[CheckRecord]:
    """Every check of the formula against the enumeration oracle, in order.

    For each (space, norms) case and each norm h, one 'count' check of
    N(h); with deep, also the oracle's partition and fiber-law checks.
    """
    checks = []
    for space, hs in cases:
        num = numerator(space)
        label = space.label()
        for h in hs:
            formula = n_lattice_formula(space, num, h)
            points = oracle.enumerate_omega(space, h, budget)
            checks.append(CheckRecord(label, h, "count", str(formula), str(len(points))))
            if deep:
                checks.extend(
                    CheckRecord(label, h, *check)
                    for check in oracle.fold_law_checks(space, h, points)
                )
    return checks


def run_verify(args: argparse.Namespace):
    # --h-max, --p-max and --m default to None: argparse lets an excluded option
    # through when its value is the default object, so `--h 3 --h-max 20` would pass
    h_max = VERIFY_DEFAULT_H_MAX if args.h_max is None else args.h_max
    _check_h_max(h_max)
    if args.p is not None and args.q is None:
        raise ValueError("--p needs --q for a single-space verify")
    if args.p is None and (args.q is not None or args.h is not None):
        raise ValueError("--q/--h only apply together with --p")
    if args.p is not None and (args.p_max is not None or args.m is not None):
        raise ValueError("--p-max/--m only apply to the grid, not with --p")
    budget = _resolve_budget(args.oracle_budget, oracle.DEFAULT_BUDGET)
    grid, cases = _verify_cases(args, h_max)
    checks = verify_grid(cases, budget, args.deep)
    mismatches = [c for c in checks if not c.ok]
    rows = [[c.space, c.h, c.kind, c.got, c.expected, _bool(c.ok)] for c in checks]
    payload = {
        "grid": grid,
        "cases": len(cases),
        "checks": len(checks),
        "mismatch_count": len(mismatches),
        "mismatches": [c._asdict() for c in mismatches],
    }
    header = ["space", "h", "kind", "got", "expected", "ok"]
    return header, rows, payload, 1 if mismatches else 0


def run_bench(args: argparse.Namespace):
    """Time the formula against the oracle for every h up to h_max.

    Where the oracle refuses h as over its budget, the row says 'skipped'.
    Timings are the one non-deterministic output of the CLI.
    """
    _check_h_max(args.h_max)
    budget = _resolve_budget(args.oracle_budget, BENCH_DEFAULT_BUDGET)
    if budget == 0:
        # h = 0 alone has one candidate, so every row would be skipped
        raise ValueError("an oracle budget of 0 lets bench check nothing")
    space = make_lens_space(args.p, args.q)
    num = numerator(space)
    timings = []
    for h in range(args.h_max + 1):
        start = time.perf_counter()
        value = n_lattice_formula(space, num, h)
        formula_seconds = time.perf_counter() - start
        start = time.perf_counter()
        try:
            count = oracle.n_lattice_bruteforce(space, h, budget)
        except oracle.OracleBudgetError:
            oracle_seconds = None
        else:
            oracle_seconds = time.perf_counter() - start
            if count != value:
                raise Disagreement(f"formula and oracle disagree at h = {h}: {value} vs {count}")
        timings.append((h, formula_seconds, oracle_seconds))
    rows = [
        [h, f"{f_sec:.6f}", "skipped" if o_sec is None else f"{o_sec:.6f}"]
        for h, f_sec, o_sec in timings
    ]
    payload = _space_json(space) | {
        "h_max": args.h_max,
        "oracle_budget": budget,
        "rows": [
            {"h": h, "formula_seconds": f_sec, "oracle_seconds": o_sec, "skipped": o_sec is None}
            for h, f_sec, o_sec in timings
        ],
    }
    return ["h", "formula_seconds", "oracle_seconds"], rows, payload, 0


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
    sp.set_defaults(run=run_spectrum)
    add_common(sp)
    sp.add_argument("--i-max", type=int, required=True, help="largest degree")

    sp = sub.add_parser("nl", help="single 1-norm lattice count N(h)")
    sp.set_defaults(run=run_nl)
    add_common(sp)
    sp.add_argument("--h", type=int, required=True, help="1-norm")

    sp = sub.add_parser("gamma", help="single box-bounded count gamma(U, s)")
    sp.set_defaults(run=run_gamma)
    add_common(sp)
    sp.add_argument("--s", type=int, required=True, help="1-norm")
    sp.add_argument(
        "--subset", type=_ints, default=None,
        help="1-based coordinate indices of U (default: all; '' for the empty set)",
    )

    sp = sub.add_parser("verify", help="formula vs. enumeration over a grid")
    sp.set_defaults(run=run_verify)
    sp.add_argument("--p", type=int, default=None, help="verify a single space instead of the grid")
    sp.add_argument("--q", type=_ints, default=None)
    norms = sp.add_mutually_exclusive_group()
    norms.add_argument("--h", type=int, default=None, help="single 1-norm (with --p/--q)")
    norms.add_argument(
        "--h-max", type=int, default=None,
        help=f"largest 1-norm (default {VERIFY_DEFAULT_H_MAX})",
    )
    sp.add_argument(
        "--p-max", type=int, default=None,
        help=f"largest p of the grid (default {VERIFY_DEFAULT_P_MAX})",
    )
    sp.add_argument(
        "--m", type=_ints, default=None,
        help="values of m for the grid, comma-separated "
        f"(default {','.join(map(str, VERIFY_DEFAULT_M))})",
    )
    sp.add_argument("--deep", action="store_true", help="also check partitions and fold fibers")
    sp.add_argument("--oracle-budget", type=int, default=None)
    add_common(sp, with_space=False)

    sp = sub.add_parser("compare", help="multiplicity sequences of two spaces")
    sp.set_defaults(run=run_compare)
    sp.add_argument("--a", type=_space_spec, required=True, help="first space as p:q1,q2,...")
    sp.add_argument("--b", type=_space_spec, required=True, help="second space as p:q1,q2,...")
    sp.add_argument("--i-max", type=int, required=True)
    add_common(sp, with_space=False)

    sp = sub.add_parser("parity", help="parity law checked at every degree, for every p")
    sp.set_defaults(run=run_parity)
    add_common(sp)
    sp.add_argument("--i-max", type=int, required=True)

    sp = sub.add_parser("bench", help="formula vs. oracle wall-clock")
    sp.set_defaults(run=run_bench)
    add_common(sp)
    sp.add_argument("--h-max", type=int, default=100)
    sp.add_argument("--oracle-budget", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        header, rows, payload, code = args.run(args)
    except oracle.OracleBudgetError as err:
        print(
            f"error: {err}; shrink the grid or raise the budget (--oracle-budget)",
            file=sys.stderr,
        )
        return 2
    except (ValueError, Disagreement) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1 if isinstance(err, Disagreement) else 2
    text = _json_text(payload) if args.fmt == "json" else _csv_text(header, rows)
    if args.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        print(f"error: cannot write {args.output}: {err.strerror}", file=sys.stderr)
        return 2
    return code


def console_main() -> None:
    raise SystemExit(main())
