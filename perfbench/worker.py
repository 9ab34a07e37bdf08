"""Benchmark worker: runs one workload's job in a closed loop and checks it.

Started by run.py as a fresh interpreter with ``src`` on the import path.
It reads the job from stdin as JSON, imports ``lenslat.cli`` (timed) and
loads ``scripts/isospectral_search.py``, then repeats the job until the
requested seconds have passed: each request is sent only after the
previous one returned, and the job runs at least ``min_jobs`` times.  A
request is one call of ``lenslat.cli.main`` or of the census script's
``main``; only that call is timed.  Its stdout is
parsed into values and compared with the stored reference, so a change
of formatting alone is not a failure.  A fixed calibration loop is timed
before the first request of a job and after every request, so that
run.py can state each request's time at a reference host speed.

With tracing on, untraced and traced jobs alternate so that the tracing
overhead is measured on the same process and inputs.  The result goes to
stdout as one JSON object.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import importlib.util
import io
import json
import re
import sys
import time
from itertools import product

CENSUS_SCRIPT = "scripts/isospectral_search.py"
# canonical encodings longer than this are stored as a sha256 digest
INLINE_LIMIT = 160
# seconds calibrate() takes at the reference speed, about its fastest on a
# quiet Intel Xeon vCPU under CPython 3.11
CAL_REF_S = 0.0035
CAL_CHECKSUM = (922401, 168)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes, with the collector paused.

    The loop has the shapes of the library's two hot paths, frozen here
    so that no change to the library moves it: a DP counting vectors
    with entries below 17 in absolute value by the residue of a weighted
    sum mod 17 and by 1-norm, and a fold of pairs mod 23 to their least
    form under negation and scaling.  On a shared host the same code
    runs up to twice as fast at one moment as at another; dividing a
    request's time by this loop's time taken around it removes most of
    that.
    """
    p, s_max = 17, 40
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        dp = [[0] * (s_max + 1) for _ in range(p)]
        dp[0][0] = 1
        for c in (1, 3, 5, 7):
            moves = [((c * x) % p, abs(x)) for x in range(-(p - 1), p)]
            ndp = [[0] * (s_max + 1) for _ in range(p)]
            for r, row in enumerate(dp):
                for v, n in enumerate(row):
                    if n:
                        for dr, ax in moves:
                            w = v + ax
                            if w <= s_max:
                                ndp[(r + dr) % p][w] += n
            dp = ndp
        n, units, folds = 23, range(1, 13), set()
        for pair in product(units, repeat=2):
            folds.add(min(tuple(sorted(min(c * v % n, -c * v % n) for v in pair)) for c in units))
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if (sum(map(sum, dp)), sum(map(sum, folds)) * len(folds)) != CAL_CHECKSUM:
        raise RuntimeError("calibration loop miscounted")
    return elapsed


def encode(value) -> str:
    """Canonical text of a parsed value, or its digest when long."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    if len(text) <= INLINE_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _option(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def parse_cli(argv: list[str], text: str):
    """Values of one CLI output, independent of its formatting."""
    command = argv[0]
    as_json = _option(argv, "--format", "csv") == "json"
    obj = json.loads(text) if as_json else None
    if command == "spectrum":
        if as_json:
            return [[e["i"], e["lambda"], int(e["mult"])] for e in obj["entries"]]
        return [[int(v) for v in row] for row in _csv_rows(text)]
    if command in ("nl", "gamma"):
        return int(obj["count"]) if as_json else int(text.strip())
    if command == "parity":
        if as_json:
            return [[r["i"], int(r["mult"]), r["ok"]] for r in obj["rows"]]
        return [[int(i), int(m), _flag(ok)] for i, m, ok in _csv_rows(text)]
    if command == "compare":
        if as_json:
            div = obj["first_divergence"]
            div = None if div is None else [div["i"], int(div["mult_a"]), int(div["mult_b"])]
            return [obj["equal"], obj["dimension_mismatch"], div]
        (equal, mismatch, i, a, b), = _csv_rows(text)
        div = None if i == "" else [int(i), int(a), int(b)]
        return [_flag(equal), _flag(mismatch), div]
    if command == "verify":
        # per-check rows are not compared: the exit code and the
        # mismatch count already say whether every check agreed
        return [obj["cases"], obj["checks"], obj["mismatch_count"]]
    raise ValueError(f"no parser for command {command!r}")


def parse_census(text: str):
    """Class count, distinct sequences and families from the script's report."""
    classes = int(re.search(r"(\d+) symmetry classes", text).group(1))
    distinct = int(re.search(r"(\d+) distinct multiplicity sequences", text).group(1))
    families = []
    for members, seq in re.findall(r"family of \d+:(.*)\n.*?(\[[\d, ]*\])", text):
        families.append([sorted(re.findall(r"L\(\d+;[\d,]+\)", members)), json.loads(seq)])
    return [classes, distinct, sorted(families)]


def load_census(path: str = CENSUS_SCRIPT):
    """Import the census script as a module named isospectral_search."""
    spec = importlib.util.spec_from_file_location("isospectral_search", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class Client:
    """Sends requests to the two entry points and checks each answer."""

    def __init__(self, cli, census):
        self.cli = cli
        self.census = census

    def call(self, request: dict) -> tuple[float, int | None, str, str | None]:
        """(seconds, exit code, stdout, error) of one request."""
        entry = self.cli if request["entry"] == "cli" else self.census
        out = io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = entry.main(list(request["argv"]))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a raising request is a failed request
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), error

    def check(self, request: dict, code, text: str, error: str | None) -> str | None:
        """None when the answer matches the reference, else the reason."""
        if error is not None:
            return error
        if code != request["code"]:
            return f"exit code {code}, expected {request['code']}"
        try:
            if request["entry"] == "cli":
                value = parse_cli(request["argv"], text)
            else:
                value = parse_census(text)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"
        got = encode(value)
        if got != request["expect"]:
            return f"value {got[:80]} differs from reference {request['expect'][:80]}"
        return None


def run_job(client: Client, requests: list[dict], failures: list) -> tuple[list[float], int, list[float]]:
    """One pass over the job.

    Returns request latencies, failure count and calibration times: one
    before the first request and one after each, so request k lies
    between calibrations k and k + 1.
    """
    latencies = []
    failed = 0
    calibrations = [calibrate()]
    for index, request in enumerate(requests):
        elapsed, code, text, error = client.call(request)
        calibrations.append(calibrate())
        latencies.append(elapsed)
        reason = client.check(request, code, text, error)
        if reason is not None:
            failed += 1
            if len(failures) < 20:
                failures.append({"request": index, "argv": request["argv"], "reason": reason})
    return latencies, failed, calibrations


def main() -> int:
    job = json.load(sys.stdin)
    loads = None
    if job["trace"]:
        from layers import CENSUS_MODULE, LoadTimer, Tracer, layer_metrics

        loads = LoadTimer()
        sys.meta_path.insert(0, loads)
    start = time.perf_counter()
    import lenslat.cli as cli

    import_s = time.perf_counter() - start
    if loads is None:
        census = load_census()
    else:
        sys.meta_path.remove(loads)
        census = loads.timed(CENSUS_MODULE, load_census)
    client = Client(cli, census)

    tracer = None if loads is None else Tracer()
    for _ in range(3):  # warm the calibration loop up before its first timed pass
        calibrate()
    jobs, failures = [], []
    traces = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            tracer.install()
        try:
            latencies, failed, calibrations = run_job(client, job["requests"], failures)
        finally:
            if traced:
                tracer.uninstall()
        jobs.append({"traced": traced, "latencies": latencies, "failed": failed,
                     "calibrations": calibrations})
        if traced:
            traces.append(tracer.take_job())
        if time.perf_counter() - begin >= job["seconds"] and len(jobs) >= job["min_jobs"]:
            break

    result = {"import_s": import_s, "jobs": jobs, "failures": failures}
    if tracer is not None:
        walls = [sum(j["latencies"]) for j in jobs if j["traced"]]
        counts = [t.counts.as_dict() for t in traces]
        result["trace"] = {
            "absent": tracer.absent,
            "counts_repeat": all(c == counts[0] for c in counts),
            "counts": counts[0],
            "load_s": loads.layer_s,
            "self_s": [t.self_s for t in traces],
            "metrics": layer_metrics(traces, walls, loads.layer_s),
        }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
