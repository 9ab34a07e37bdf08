"""Tests of the benchmark itself: exact counts, re-bound names, failures.

Run from the repository root:
    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lenslat  # noqa: E402
import lenslat.cli  # noqa: E402
import lenslat.spectra  # noqa: E402
from layers import Probe, Tracer  # noqa: E402
from run import at_reference_speed, pick_job, tail  # noqa: E402
from worker import CAL_REF_S, Client, calibrate, encode, load_census, parse_census, parse_cli, run_job  # noqa: E402

# small requests that between them reach every counted boundary
SMALL_JOB = [
    {"entry": "cli", "argv": ["spectrum", "--p", "5", "--q", "1,2,3", "--i-max", "20"]},
    {"entry": "cli", "argv": ["nl", "--p", "7", "--q", "1,2,3", "--h", "1000000"]},
    {"entry": "cli", "argv": ["gamma", "--p", "7", "--q", "1,2,3", "--s", "5", "--subset", "1,2"]},
    {"entry": "cli", "argv": ["verify", "--p-max", "3", "--m", "2", "--h-max", "4", "--deep",
                              "--format", "json"]},
    {"entry": "census", "argv": ["--p", "7", "--m", "3", "--i-max", "8"]},
]


@pytest.fixture(scope="module")
def client():
    return Client(lenslat.cli, load_census(str(ROOT / "scripts" / "isospectral_search.py")))


@pytest.fixture(scope="module")
def small_job(client):
    """SMALL_JOB with exit codes and expected values filled in from a clean run."""
    job = []
    for request in SMALL_JOB:
        _, code, text, error = client.call(request)
        assert error is None and code == 0
        value = parse_cli(request["argv"], text) if request["entry"] == "cli" else parse_census(text)
        job.append(dict(request, code=0, expect=encode(value)))
    return job


def _worker_counts(small_job) -> dict:
    job = {"requests": small_job, "seconds": 0, "trace": 1, "min_jobs": 4}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, cwd=ROOT, timeout=120,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert all(j["failed"] == 0 for j in result["jobs"])
    assert result["trace"]["counts_repeat"]
    # every layer's module load is timed, including the ones this job
    # does not call
    assert all(result["trace"]["load_s"][layer] > 0 for layer in ("lattice", "spectra", "oracle", "cli", "census"))
    return result["trace"]["counts"]


def test_exact_counts_repeat_across_runs(small_job):
    first = _worker_counts(small_job)
    second = _worker_counts(small_job)
    assert first == second
    for key in ("lattice_calls", "spectra_values", "max_mult_bits", "oracle_candidates",
                "canonical_tried"):
        assert first[key] > 0, key


def test_census_counts_repeat_in_process(client):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run_job(client, [dict(SMALL_JOB[-1], code=0, expect="unused")], [])
        finally:
            tracer.uninstall()
        counts.append(tracer.take_job().counts.as_dict())
    assert counts[0] == counts[1]
    # every unit tuple of length 3 mod 7 is tried once
    assert counts[0]["canonical_tried"] == 6**3
    assert 0 < counts[0]["canonical_kept"] < counts[0]["canonical_tried"]


def test_wrapping_catches_rebound_names(client):
    space = lenslat.make_lens_space(5, (1, 2))
    census = client.census
    originals = (lenslat.gamma_table, lenslat.cli.gamma_table, lenslat.spectra.gamma_table,
                 census.gamma_table, lenslat.cli.n_lattice_formula)
    tracer = Tracer()
    tracer.install()
    try:
        table = lenslat.gamma_table(space)  # package re-export
        lenslat.cli.gamma_table(space)  # from .lattice import in cli
        census.gamma_table(space)  # from lenslat import in the script
        lenslat.cli.n_lattice_formula(space, table, 9)  # from .spectra import in cli
        lenslat.multiplicity(space, table, 4)  # calls n_lattice_formula inside spectra
        assert tracer.bindings() >= len(originals)
    finally:
        tracer.uninstall()
    counts = tracer.take_job().counts
    assert counts.lattice_calls == 3
    assert counts.spectra_values == 1 + 1 + 3  # nl, multiplicity, its three N(h)
    restored = (lenslat.gamma_table, lenslat.cli.gamma_table, lenslat.spectra.gamma_table,
                census.gamma_table, lenslat.cli.n_lattice_formula)
    assert all(a is b for a, b in zip(originals, restored))


def test_self_time_excludes_child_spans():
    space = lenslat.make_lens_space(11, (1, 2, 3))
    tracer = Tracer()
    tracer.install()
    try:
        lenslat.spectrum(space, 40)
    finally:
        tracer.uninstall()
    job = tracer.take_job()
    assert job.self_s["spectra"] > 0 and job.self_s["lattice"] > 0
    assert job.counts.lattice_calls == 1


def test_removed_function_is_reported_absent():
    probes = (Probe("cli", "lenslat.cli", "no_such_function"),
              Probe("census", "not_a_loaded_module", "main"),
              Probe("lattice", "lenslat.lattice", "gamma_table"))
    tracer = Tracer(probes)
    assert tracer.absent == ["lenslat.cli.no_such_function", "not_a_loaded_module.main"]
    tracer.install()
    tracer.uninstall()


def test_substituted_wrong_value_fails(client, small_job, monkeypatch):
    request = small_job[1]  # nl
    failures = []
    assert run_job(client, [request], failures)[1] == 0
    wrong = dict(request, expect=encode(int(json.loads(request["expect"])) + 1))
    assert run_job(client, [wrong], failures)[1] == 1
    assert "differs from reference" in failures[-1]["reason"]

    real = lenslat.cli.n_lattice_formula
    monkeypatch.setattr(lenslat.cli, "n_lattice_formula", lambda *a: real(*a) + 1)
    assert run_job(client, [request], failures)[1] == 1


def test_wrong_exit_code_and_raise_fail(client, small_job, monkeypatch):
    failures = []
    bad = dict(small_job[0], argv=["spectrum", "--p", "4", "--q", "2,3", "--i-max", "5"])
    assert run_job(client, [bad], failures)[1] == 1
    assert "exit code 2" in failures[-1]["reason"]

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(lenslat.cli, "spectrum", boom)
    assert run_job(client, [small_job[0]], failures)[1] == 1
    assert "RuntimeError" in failures[-1]["reason"]


def test_formatting_change_is_not_a_failure():
    argv = ["spectrum", "--p", "5", "--q", "1,2", "--i-max", "6", "--format", "json"]
    obj = {"p": 5, "q": [1, 2], "d": 3,
           "entries": [{"i": i, "lambda": i * (i + 2), "mult": str(i)} for i in range(7)]}
    compact = parse_cli(argv, json.dumps(obj, separators=(",", ":")))
    spaced = parse_cli(argv, json.dumps(obj, indent=4, sort_keys=True))
    assert encode(compact) == encode(spaced)
    csv_argv = argv[:-2]
    csv_text = "i,eigenvalue,multiplicity\r\n" + "".join(
        f'"{i}",{i * (i + 2)},{i}\r\n' for i in range(7))
    assert encode(parse_cli(csv_argv, csv_text)) == encode(compact)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    assert tail(samples) == (89.0, 90, 10)
    assert tail(samples[:21]) == (10.0, 52, 10)
    assert tail(samples[:10]) == (9.0, 100, 0)


def test_times_are_scaled_by_the_calibrations_around_them(client, small_job):
    latencies, failed, calibrations = run_job(client, small_job[:2], [])
    assert failed == 0 and len(calibrations) == len(latencies) + 1
    assert all(c > 0 for c in calibrations) and calibrate() > 0
    # a request between loops that took twice the reference time ran on a
    # host at half the reference speed, so it takes half as long there
    ref = CAL_REF_S
    assert at_reference_speed([1.0, 3.0], [2 * ref, 2 * ref, 4 * ref]) == pytest.approx([0.5, 1.0])


def test_seed_picks_the_same_job():
    reference = json.loads((BENCH / "reference.json").read_text())
    for workload in reference["workloads"]:
        assert pick_job(reference, workload, 7) == pick_job(reference, workload, 7)
    picks = {json.dumps(pick_job(reference, "pointwise", s)) for s in range(8)}
    assert len(picks) > 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
