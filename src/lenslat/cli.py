"""Command-line front end: tables, single counts, verification, comparison.

Subcommands
-----------
spectrum   eigenvalue/multiplicity table for one lens space
nl         single 1-norm lattice count N(h)
gamma      single box-bounded count gamma(U, s)
verify     counting formula vs. brute-force enumeration, over a grid or one space
compare    multiplicity sequences of two lens spaces
parity     parity law of the multiplicities, checked at every degree for every p
bench      wall-clock of the formula path vs. the enumeration oracle

Output is CSV (default) or JSON on stdout (or --output PATH), exact at any
size; in JSON, multiplicities and counts are decimal strings so they survive
every parser.  Exit codes: 0 success, 1 verification mismatch (in verify or
bench), 2 invalid input, an unwritable stdout or --output or a size over
its resource's rule (a DP, a result list, a class walk, a verify run's DP
bits or its --oracle-budget), refused before that work.  Input that would
check nothing (an empty verify grid, a negative --h-max, a bench oracle
budget of 0) is invalid, and so is an empty --output, which names no file
and is refused before the command runs.  verify and bench check their
options here and call lenslat.oracle, which plans, checks and times them.
The oracle and json load on first use, as each process compiles only what
its command runs: lenslat.oracle when verify or bench runs, json when a
JSON payload is written.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .lattice import DEFAULT_BUDGET, LensSpace, SubsetMask, gamma, make_lens_space
from .lattice import _canonical_form, canonical_q_tuples  # noqa: F401  probed by perfbench
from .spectra import MAX_SPECTRUM_LINES, compare_spectra, eigenvalues, multiplicities
from .spectra import lattice_count, parity_verdicts

# bench keeps the oracle at desk scale (a few thousand candidates per
# norm) so the gap report itself stays fast
BENCH_DEFAULT_BUDGET = 6400
VERIFY_DEFAULT_H_MAX = 20
VERIFY_DEFAULT_P_MAX = 8
VERIFY_DEFAULT_M = (2, 3)


def _oracle():
    """lenslat.oracle, imported on first use: of the commands, only verify and bench need it."""
    from . import oracle

    return oracle


def _check_budget(budget: int) -> int:
    """The --oracle-budget value, refused when negative."""
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
    import json  # on first use: no CSV run calls it

    return json.dumps(obj, indent=2) + "\n"


def _quoted(field: str) -> str:
    """field as csv.writer's minimal quoting writes it: in double quotes if it holds a comma.

    No field the CLI writes holds a double quote or a line break, so nothing is escaped.
    """
    return f'"{field}"' if "," in field else field


def _space_json(space: LensSpace) -> dict:
    return {"p": space.p, "q": list(space.q)}


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _rows_text(rows: list[str], head: str, sep: str = "", tail: str = "") -> str:
    """head + sep.join(rows) + tail, built in one copy: the end rows take head and tail."""
    rows[0] = head + rows[0]  # never empty: every table has a row (an empty verify grid is refused)
    rows[-1] += tail
    return sep.join(rows)


def _json_head(space: LensSpace, key: str, value: int, name: str) -> str:
    """json.dumps(indent=2) of {"p", "q", key: value, name: [...]} up to the list's items."""
    q = ",\n".join(f"    {x}" for x in space.q)  # never empty: m >= 2
    return f'{{\n  "p": {space.p},\n  "q": [\n{q}\n  ],\n  "{key}": {value},\n  "{name}": [\n'


# Each run_* takes the parsed arguments and returns its output text, in the form
# args.fmt asks for and only that one, and its exit code; main writes it.  Every CSV
# table, and spectrum's and parity's JSON, is one f-string per row, the bytes csv.writer
# and json.dumps(indent=2) would give: only verify's space and got fields can hold a
# comma, so only they pass through _quoted.  spectrum and parity render from the
# columns spectra gives, with no record per row.


def run_spectrum(args: argparse.Namespace):
    space = make_lens_space(args.p, args.q)
    mults = multiplicities(space, args.i_max)
    columns = zip(range(args.i_max + 1), eigenvalues(space, args.i_max), mults)
    if args.fmt == "json":
        return _rows_text([
            f'    {{\n      "i": {i},\n      "lambda": {ev},\n      "mult": "{mult}"\n    }}'
            for i, ev, mult in columns
        ], _json_head(space, "d", space.d, "entries"), ",\n", "\n  ]\n}\n"), 0
    rows = [f"{i},{ev},{mult}\n" for i, ev, mult in columns]
    return _rows_text(rows, "i,eigenvalue,multiplicity\n"), 0


def run_nl(args: argparse.Namespace):
    space = make_lens_space(args.p, args.q)
    value = lattice_count(space, args.h)
    if args.fmt == "json":
        return _json_text(_space_json(space) | {"h": args.h, "count": str(value)}), 0
    return f"{value}\n", 0


def run_gamma(args: argparse.Namespace):
    space = make_lens_space(args.p, args.q)
    if args.subset is None:
        mask = SubsetMask.full(space.m)
    else:
        for n, j in enumerate(args.subset):
            if not 1 <= j <= space.m:
                raise ValueError(f"subset index {j} out of range 1..{space.m}")
            if j in args.subset[:n]:
                raise ValueError(f"subset index {j} given more than once")
        mask = SubsetMask(sum(1 << (j - 1) for j in args.subset), space.m)
    value = gamma(space, mask, args.s)
    if args.fmt == "json":
        return _json_text(_space_json(space) | {
            "subset": [j + 1 for j in mask.indices()],
            "s": args.s,
            "count": str(value),
        }), 0
    return f"{value}\n", 0


def run_compare(args: argparse.Namespace):
    a = make_lens_space(*args.a)
    b = make_lens_space(*args.b)
    report = compare_spectra(a, b, args.i_max)
    divergence = report.first_divergence  # None, or (i, mult_a, mult_b)
    i, mult_a, mult_b = divergence or ("", "", "")
    if args.fmt == "json":
        return _json_text({
            "space_a": _space_json(a),
            "space_b": _space_json(b),
            "i_max": args.i_max,
            "equal": report.equal,
            "dimension_mismatch": report.dimension_mismatch,
            "first_divergence": divergence and dict(i=i, mult_a=str(mult_a), mult_b=str(mult_b)),
        }), 0
    row = f"{_bool(report.equal)},{_bool(report.dimension_mismatch)},{i},{mult_a},{mult_b}\n"
    return _rows_text([row], "equal,dimension_mismatch,first_divergence_i,mult_a,mult_b\n"), 0


def run_parity(args: argparse.Namespace):
    space = make_lens_space(args.p, args.q)
    mults = multiplicities(space, args.i_max)
    columns = zip(range(args.i_max + 1), mults, parity_verdicts(space, mults))
    if args.fmt == "json":
        return _rows_text([
            f'    {{\n      "i": {i},\n      "mult": "{mult}",\n      "ok": {_bool(ok)}\n    }}'
            for i, mult, ok in columns
        ], _json_head(space, "i_max", args.i_max, "rows"), ",\n", "\n  ]\n}\n"), 0
    rows = [f"{i},{mult},{_bool(ok)}\n" for i, mult, ok in columns]
    return _rows_text(rows, "i,multiplicity,parity_ok\n"), 0


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
    budget = _check_budget(args.oracle_budget)
    oracle = _oracle()
    hs = [args.h] if args.h is not None else list(range(h_max + 1))
    if args.p is not None:
        space = make_lens_space(args.p, args.q)
        grid = f"single case {space}, h in {hs[0]}..{hs[-1]}"
        cases = oracle.verify_cases(hs, budget, f"verify run ({grid})", space, deep=args.deep)
    else:
        p_max = VERIFY_DEFAULT_P_MAX if args.p_max is None else args.p_max
        ms = VERIFY_DEFAULT_M if args.m is None else args.m
        for n, m in enumerate(ms):
            if m in ms[:n]:
                raise ValueError(f"--m value {m} given more than once")
        grid = f"p in 1..{p_max}, m in {sorted(ms)}, canonical q tuples, h in 0..{h_max}"
        grid += ", deep" if args.deep else ""
        cases = oracle.verify_cases(
            hs, budget, f"verify grid ({grid})", p_max=p_max, ms=ms, deep=args.deep
        )
    checks = oracle.verify_grid(cases, budget, args.deep)
    mismatches = [c for c in checks if not c.ok]
    code = 1 if mismatches else 0
    if args.fmt == "json":
        return _json_text({
            "grid": grid,
            "cases": len(cases),
            "checks": len(checks),
            "mismatch_count": len(mismatches),
            "mismatches": [c._asdict() for c in mismatches],
        }), code
    rows = [f"{_quoted(c.space)},{c.h},{c.kind},{_quoted(c.got)},{c.expected},{_bool(c.ok)}\n"
            for c in checks]
    return _rows_text(rows, "space,h,kind,got,expected,ok\n"), code


def run_bench(args: argparse.Namespace):
    """Time the formula against the oracle for every h up to h_max.

    Where the oracle refuses h as over its budget, the row says 'skipped'.
    Timings are the one non-deterministic output of the CLI.
    """
    _check_h_max(args.h_max)
    budget = _check_budget(args.oracle_budget)
    if budget == 0:
        # h = 0 alone has one candidate, so every row would be skipped
        raise ValueError("an oracle budget of 0 lets bench check nothing")
    space = make_lens_space(args.p, args.q)
    timings = _oracle().bench_timings(space, args.h_max, budget)
    if args.fmt == "json":
        return _json_text(_space_json(space) | {
            "h_max": args.h_max,
            "oracle_budget": budget,
            "rows": [{"h": h, "formula_seconds": f, "oracle_seconds": o, "skipped": o is None}
                     for h, f, o in timings],
        }), 0
    rows = [f"{h},{f:.6f},{'skipped' if o is None else f'{o:.6f}'}\n" for h, f, o in timings]
    return _rows_text(rows, "h,formula_seconds,oracle_seconds\n"), 0


# built once per process, on first use (so not at import), with its subcommand parsers by
# name; reuse keeps no state only while no default is mutable and no action appends:
# parse_args returns a fresh Namespace
@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
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
    sp.add_argument("--oracle-budget", type=int, default=DEFAULT_BUDGET)
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
    sp.add_argument("--oracle-budget", type=int, default=BENCH_DEFAULT_BUDGET)

    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    parser, commands = _parser()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def write_output(text: str, path: str | None = None) -> int:
    """Write text to path, or to stdout; 0, or 2 after one error line if it cannot be written."""
    stdout = path is None
    try:
        handle = sys.stdout if stdout else open(path, "w", encoding="utf-8")
        try:
            print(text, end="", file=handle, flush=True)
        finally:  # stdout stays open; a file whose flush failed fails again here, caught below
            if not stdout:
                handle.close()
    except OSError as err:
        sys.stderr.write(f"error: cannot write {'stdout' if stdout else path}: {err.strerror}\n")
        if stdout and sys.stdout is sys.__stdout__:
            # bytes stay in stdout's buffer: the exit flush goes to devnull, not fail (exit 120)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


def main(argv=None) -> int:
    # inputs and output exact at any size: lift the int-to-str digit limit (0: none, or
    # Python < 3.10.7) before parsing, and restore it however the call ends
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        # one parse per call: a command first hands the rest of argv to its own parser,
        # as the full parser would; anything else, and anything that command leaves
        # over, is parsed again in full, so usage errors and help keep their bytes
        args = _parse(sys.argv[1:] if argv is None else argv)
        try:
            if args.output == "":
                raise ValueError("--output must name a file, got an empty path")
            text, code = args.run(args)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        # an except clause's class is looked up only when an exception reaches it, so
        # no run that succeeds or ends in a ValueError imports the oracle here
        except _oracle().OracleBudgetError as err:
            print(f"error: {err}; shrink the grid or raise the budget (--oracle-budget)",
                  file=sys.stderr)
            return 2
        except _oracle().Disagreement as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        return write_output(text, args.output) or code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def console_main() -> None:
    raise SystemExit(main())
