#!/usr/bin/env python3
"""Layered benchmark of lenslat: one workload per run, end to end or traced.

Usage, from the repository root:
    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 10 --trace 0

Workloads are ``spectrum``, ``pointwise``, ``census`` and ``verify`` (see
perfbench/README.md).  The seed picks one candidate request per slot from
perfbench/reference.json; the job made of those requests runs in a
fresh child interpreter (worker.py) in a closed loop for ``--seconds``,
and for at least 18 jobs untraced.
Every answer is checked against the reference.

Times are stated at a reference host speed: each measured time is
scaled by the reference time of a fixed calibration loop
(worker.calibrate) over the mean of the loop's times just before and
just after it.  The measured seconds and the host's speed are in the
details line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
wall_s, req_p50_ms, req_tail_ms, setup_s and peak_rss_mib.  With
``--trace 1`` it carries the per-layer metrics of a traced run.  The line
before it is a JSON object with the run's metadata and details: seed,
source digest, CPU, error rate, tail percentile and sample counts.

Only the standard library is used.  Exit code 0 means a result was
printed; anything else means none could be measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from worker import CAL_REF_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/lenslat/cli.py", "scripts/isospectral_search.py")
WORKLOADS = ("spectrum", "pointwise", "census", "verify")
SETUP_SPAWNS = 21
# each request class of a job then has at least 18 samples, so the tail
# percentile (ten samples beyond it) falls inside the slowest class,
# at its eighth sample or higher rather than on its fastest ones
MIN_JOBS = 18
# a run must finish within 180 s; the worker stops after --seconds plus
# one job, so this only fires on a hung child
DEADLINE_S = 170


class BenchError(Exception):
    """The run could not be measured; no result is printed."""


def source_digest(root: Path = ROOT) -> str:
    """sha256 over the library and census script sources, in path order."""
    digest = hashlib.sha256()
    files = sorted((root / "src" / "lenslat").glob("*.py")) + [root / "scripts" / "isospectral_search.py"]
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def pick_job(reference: dict, workload: str, seed: int) -> list[dict]:
    """One candidate per slot, drawn from the seed; same seed, same job."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.choice(slot) for slot in reference["workloads"][workload]]


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Nearest-rank percentiles; returns (value, percentile, samples beyond).
    With ten samples or fewer there is no such percentile and the
    maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100) - 1
        beyond = n - 1 - rank
        if beyond >= 10:
            return ordered[rank], pct, beyond
    return ordered[-1], 100, 0


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def at_reference_speed(times: list[float], calibrations: list[float]) -> list[float]:
    """Each time scaled by CAL_REF_S over the mean of the calibrations
    taken just before and just after it (calibrations[k] and [k + 1]).

    The host's speed drifts over seconds to minutes; the loops around a
    request follow it more closely than one figure for the whole run.
    """
    return [t * 2 * CAL_REF_S / (calibrations[k] + calibrations[k + 1]) for k, t in enumerate(times)]


def measure_setup(env: dict, spawns: int) -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import lenslat.cli, one after another,
    and calibration times: one before the first spawn and one after each."""
    times = []
    calibrations = [calibrate()]
    for _ in range(spawns):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import lenslat.cli"], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        calibrations.append(calibrate())
        if proc.returncode != 0:
            raise BenchError(f"import lenslat.cli failed: {proc.stderr.decode().strip()[-400:]}")
        times.append(elapsed)
    return times, calibrations


def run_worker(job: dict, env: dict) -> tuple[dict, float]:
    """Run the job in a fresh interpreter; returns its result and peak RSS in MiB."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], env=env, cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
        out = proc.stdout.read()
        # wait4 instead of Popen.wait, to read this child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out), usage.ru_maxrss / 1024


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            pass
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    for rel in REQUIRED:
        if not (ROOT / rel).is_file():
            raise BenchError(f"{rel} not found under {ROOT}: run from a lenslat checkout")
    reference = json.loads((HERE / "reference.json").read_text())
    requests = pick_job(reference, workload, seed)
    env = _env()
    setup, setup_raw, calibrations = [], [], []

    def spawn(count):
        times, cals = measure_setup(env, count)
        setup.extend(at_reference_speed(times, cals))
        setup_raw.extend(times)
        calibrations.extend(cals)

    if not trace:
        # the first spawn writes bytecode and is not counted; half the rest
        # run before the worker and half after, so they span the run
        measure_setup(env, 1)
        spawn(SETUP_SPAWNS // 2)
    # a traced run alternates untraced and traced jobs and needs one of each
    job = {"requests": requests, "seconds": seconds, "trace": trace, "min_jobs": 2 if trace else MIN_JOBS}
    result, rss_mib = run_worker(job, env)
    if not trace:
        spawn(SETUP_SPAWNS - SETUP_SPAWNS // 2)

    jobs = result["jobs"]
    for j in jobs:
        j["scaled"] = at_reference_speed(j["latencies"], j["calibrations"])
    latencies = [t for j in jobs if not j["traced"] for t in j["scaled"]]
    walls = [sum(j["scaled"]) for j in jobs if not j["traced"]]
    raw = [t for j in jobs if not j["traced"] for t in j["latencies"]]
    calibrations += [c for j in jobs for c in j["calibrations"]]
    attempted = sum(len(j["latencies"]) for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    tail_s, tail_pct, beyond = tail(latencies)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "requests": [r["argv"] for r in requests],
        "jobs": len(walls),
        "samples": len(latencies),
        "error_rate": failed / attempted,
        "failures": result["failures"],
        "req_tail_percentile": tail_pct,
        "req_tail_beyond": beyond,
        "import_s": result["import_s"],
        "cal_ref_s": CAL_REF_S,
        "calibrations": len(calibrations),
        "host_speed": CAL_REF_S / median(calibrations),
        "measured_wall_s": median(sum(j["latencies"]) for j in jobs if not j["traced"]),
        "measured_req_p50_ms": median(raw) * 1000,
        "measured_req_tail_ms": tail(raw)[0] * 1000,
    }
    correct = failed == 0
    if trace:
        traced = result["trace"]
        traced_walls = [sum(j["scaled"]) for j in jobs if j["traced"]]
        metrics = {name: _metric(v, unit) for name, (v, unit) in traced["metrics"].items()}
        metrics["trace.overhead_frac"] = _metric(median(traced_walls) / median(walls) - 1, "ratio")
        # canonical_q_tuples runs on two workloads only, so its seconds are
        # a detail rather than a metric that would read 0 on every run
        detail.update(traced_jobs=len(traced_walls), absent=traced["absent"],
                      counts=traced["counts"], counts_repeat=traced["counts_repeat"],
                      canonical_s=median(t["cli.canonical"] for t in traced["self_s"]),
                      load_s=traced["load_s"], layer_self_s=traced["self_s"])
        correct = correct and traced["counts_repeat"]
    else:
        metrics = {
            "wall_s": _metric(median(walls), "s"),
            "req_p50_ms": _metric(median(latencies) * 1000, "ms"),
            "req_tail_ms": _metric(tail_s * 1000, "ms"),
            "setup_s": _metric(median(setup), "s"),
            "peak_rss_mib": _metric(rss_mib, "MiB"),
        }
        detail.update(setup_samples_s=setup, measured_setup_s=median(setup_raw))
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, line


def _on_deadline(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        detail, line = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
