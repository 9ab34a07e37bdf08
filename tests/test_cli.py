import ast
import contextlib
import csv
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lenslat.cli
import lenslat.oracle
import lenslat.spectra
from lenslat import (
    LensSpace,
    SpectrumEntry,
    canonical_q_tuples,
    first_positive_eigenvalue,
    make_lens_space,
    multiplicities,
    multiplicity,
    n_lattice_formula,
    numerator,
    parity_verdicts,
)
from lenslat.cli import BENCH_DEFAULT_BUDGET, main
from lenslat.lattice import MAX_CANONICAL_CANDIDATES, _canonical_candidates, _numerator_bits
from lenslat.oracle import DEFAULT_BUDGET, VERIFY_MAX_DP_BITS, CheckRecord, enumerate_omega
from lenslat.oracle import verify_grid
from records import check_record
from strategies import lens_spaces

CENSUS_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "isospectral_search.py"


def _run(capsys, argv):
    """Exit code and stdout of one in-process CLI call."""
    code = main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------- spectrum


def test_spectrum_csv_exact(capsys):
    code, text = _run(capsys, ["spectrum", "--p", "2", "--q", "1,1", "--i-max", "2"])
    assert code == 0
    assert text == "i,eigenvalue,multiplicity\n0,0,1\n1,3,0\n2,8,9\n"


def test_spectrum_sphere_csv(capsys):
    _, text = _run(capsys, ["spectrum", "--p", "1", "--q", "1,1", "--i-max", "1"])
    assert text == "i,eigenvalue,multiplicity\n0,0,1\n1,3,4\n"


def test_spectrum_json_roundtrip(capsys):
    code, text = _run(
        capsys, ["spectrum", "--p", "6", "--q", "1,5", "--i-max", "8", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(text)
    space = make_lens_space(obj["p"], obj["q"])
    assert obj["d"] == space.d
    num = numerator(space)
    for entry in obj["entries"]:
        i = entry["i"]
        assert entry["lambda"] == i * (i + space.d - 1)
        assert int(entry["mult"]) == multiplicity(space, num, i)


def test_spectrum_invalid_input_exits_2(capsys):
    code = main(["spectrum", "--p", "4", "--q", "1,2", "--i-max", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "q_2 = 2" in err and "gcd(2, 4)" in err


def test_output_is_deterministic(capsys):
    argv = ["spectrum", "--p", "5", "--q", "1,2", "--i-max", "10"]
    assert _run(capsys, argv) == _run(capsys, argv)


# --------------------------------------------------------------- nl, gamma


def test_nl_plain_value(capsys):
    assert main(["nl", "--p", "2", "--q", "1,1", "--h", "0"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_nl_json(capsys):
    _, text = _run(capsys, ["nl", "--p", "2", "--q", "1,1", "--h", "2", "--format", "json"])
    assert json.loads(text) == {"p": 2, "q": [1, 1], "h": 2, "count": "8"}


def test_gamma_default_full_subset(capsys):
    _, text = _run(capsys, ["gamma", "--p", "3", "--q", "1,1", "--s", "3"])
    assert text == "4\n"


def test_gamma_explicit_subsets(capsys):
    argv = ["gamma", "--p", "3", "--q", "1,1", "--s", "0", "--subset"]
    _, single = _run(capsys, argv + ["1"])
    assert single == "1\n"
    _, empty = _run(capsys, argv + [""])
    assert empty == "1\n"


def test_gamma_subset_out_of_range(capsys):
    assert main(["gamma", "--p", "3", "--q", "1,1", "--s", "0", "--subset", "3"]) == 2
    assert "error: subset index 3 out of range" in capsys.readouterr().err


def test_gamma_duplicate_subset_index_exits_2(capsys):
    code = main(["gamma", "--p", "3", "--q", "1,1", "--s", "0", "--subset", "2,1,2"])
    assert code == 2
    assert "error: subset index 2 given more than once" in capsys.readouterr().err


def test_gamma_cli_empty_subset(capsys):
    assert main(["gamma", "--p", "3", "--q", "1,1", "--s", "1", "--subset", ""]) == 0
    assert capsys.readouterr().out == "0\n"


# ----------------------------------------------------------------- compare


def test_compare_cli(capsys):
    assert main(["compare", "--a", "1:1,1", "--b", "2:1,1", "--i-max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "false,false,1,4,0"


def test_compare_json_equal(capsys):
    _, text = _run(
        capsys, ["compare", "--a", "2:1,1", "--b", "2:1,1", "--i-max", "5", "--format", "json"]
    )
    obj = json.loads(text)
    assert obj["equal"] is True
    assert obj["first_divergence"] is None


def test_compare_bad_spec(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compare", "--a", "nonsense", "--b", "2:1,1", "--i-max", "2"])
    assert err.value.code == 2
    assert "expected p:q1,q2" in capsys.readouterr().err


def test_compare_non_integer_p_reports_its_message(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compare", "--a", "x:1,2", "--b", "2:1,1", "--i-max", "2"])
    assert err.value.code == 2
    assert "error: argument --a: expected p:q1,q2,... , got 'x:1,2'" in capsys.readouterr().err


def test_bad_int_list_reports_its_message(capsys):
    with pytest.raises(SystemExit) as err:
        main(["nl", "--p", "7", "--q", "1,x", "--h", "3"])
    assert err.value.code == 2
    assert "expected comma-separated integers, got '1,x'" in capsys.readouterr().err


# ------------------------------------------------------------------ parity


def test_parity_cli(capsys):
    assert main(["parity", "--p", "2", "--q", "1,1", "--i-max", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,multiplicity,parity_ok"
    for line in lines[1:]:
        assert line.endswith(",true")


# ------------------------------------------------------------------ verify


def test_verify_single_case_ok(capsys):
    code, text = _run(capsys, ["verify", "--p", "2", "--q", "1,1", "--h", "2"])
    assert code == 0
    assert '"L(2;1,1)",2,count,8,8,true' in text.splitlines()


def test_verify_small_grid_deep():
    cases = [
        (make_lens_space(p, q), list(range(7)))
        for p in range(1, 4)
        for q in canonical_q_tuples(p, 2)
    ]
    checks = verify_grid(cases, DEFAULT_BUDGET, deep=True)
    assert all(c.ok for c in checks)
    kinds = {c.kind for c in checks}
    assert kinds == {"count", "partition", "fiber_size", "fiber_cover"}


def test_verify_deep_walks_shells_within_the_sphere_budget(capsys):
    # the whole box over four coordinates at p = 57 is 163,047,361 points,
    # over the default budget; the norm-3 shell holds 88 candidates
    code, text = _run(capsys, ["verify", "--p", "57", "--q", "1,2,4,5", "--h", "3", "--deep"])
    assert code == 0
    assert text.endswith('"L(57;1,2,4,5)",3,fiber_cover,6,6,true\n')


def test_verify_json_report(capsys):
    code, text = _run(capsys, ["verify", "--p-max", "2", "--h-max", "4", "--format", "json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["mismatch_count"] == 0
    assert obj["cases"] == 4  # one canonical tuple per (p, m) in {1,2} x {2,3}


def _corrupted_binom(pool, choose):
    """binom with the out-of-range convention broken: 1 instead of 0."""
    if choose < 0 or pool < 0 or pool < choose:
        return 1
    return math.comb(pool, choose)


def _inner_binom(pool, choose):
    """binom one too large strictly inside its range, 0 < choose < pool."""
    return (math.comb(pool, choose) if 0 <= choose <= pool else 0) + (0 < choose < pool)


def test_verify_corrupted_binomial_reports_smallest_h(monkeypatch, capsys):
    # negative control of the stride sum, which verify reads for a lone norm: the
    # capped read evaluates no out-of-range binomial, so break the in-range ones, and
    # the formula must diverge from the enumeration at the smallest affected norm,
    # h = 2 for L(2;1,1), the first with n = 1
    monkeypatch.setattr("lenslat.spectra.binom", _inner_binom)
    cases = [(make_lens_space(2, (1, 1)), [h]) for h in range(5)]
    checks = verify_grid(cases, DEFAULT_BUDGET, deep=False)
    mismatches = [c for c in checks if not c.ok]
    assert mismatches
    assert mismatches[0].h == 2
    code, _ = _run(capsys, ["verify", "--p", "2", "--q", "1,1", "--h", "1"])
    assert code == 0
    code, _ = _run(capsys, ["verify", "--p", "2", "--q", "1,1", "--h", "2"])
    assert code == 1


def test_verify_json_mismatches_keep_their_keys(monkeypatch, capsys):
    monkeypatch.setattr("lenslat.spectra.binom", _inner_binom)
    argv = ["verify", "--p", "2", "--q", "1,1", "--h", "2", "--format", "json"]
    code, text = _run(capsys, argv)
    assert code == 1
    first = json.loads(text)["mismatches"][0]
    assert list(first) == ["space", "h", "kind", "got", "expected"]
    record = CheckRecord(**first)
    check_record(record, "CheckRecord(space='L(2;1,1)', h=2, kind='count', got='9', expected='8')")
    assert not record.ok


def test_verify_corrupted_ranged_series_reports_smallest_h(monkeypatch, capsys):
    # negative control of the ranged series, which verify reads over norms
    # 0..h_max: one point too many at degree 2 of P shows first at h = 2
    series = lenslat.oracle._lattice_series

    def corrupted(p, qs, s_max, with_zp):
        coeffs = series(p, qs, s_max, with_zp)
        coeffs[2] += 1
        return coeffs

    monkeypatch.setattr("lenslat.oracle._lattice_series", corrupted)
    cases = [(make_lens_space(2, (1, 1)), list(range(5)))]
    mismatches = [c for c in verify_grid(cases, DEFAULT_BUDGET, deep=False) if not c.ok]
    assert mismatches
    assert mismatches[0].h == 2
    code, _ = _run(capsys, ["verify", "--p", "2", "--q", "1,1", "--h-max", "4"])
    assert code == 1


def test_verify_hands_the_kernel_no_pass_list(monkeypatch, capsys):
    # inverse control of the census's pass sharing: verify's cases share no kernel
    # passes, so each kernel call of the criterion-1 grid builds one class
    built = []

    def counted(p, m, s_max, with_zp, tuples, stop, products=lenslat.lattice._products):
        built.append(0)
        for product in products(p, m, s_max, with_zp, tuples, stop):
            built[-1] += 1
            yield product

    for module in ("lenslat.lattice", "lenslat.spectra"):
        monkeypatch.setattr(f"{module}._products", counted)
    argv = ["verify", "--p-max", "10", "--m", "2,3", "--h-max", "24", "--format", "json"]
    code, text = _run(capsys, argv)
    assert code == 0
    assert json.loads(text)["checks"] == 850
    assert built and set(built) == {1}


def _other_path(*args, **kwargs):
    raise AssertionError("verify read the formula path of the other input shape")


def test_verify_reads_one_formula_path_per_input_shape(monkeypatch, capsys):
    # norms 0..h_max read the ranged series and not the single-degree read; a
    # lone norm reads lattice_count and no ranged series
    with monkeypatch.context() as patch:
        patch.setattr("lenslat.oracle.lattice_count", _other_path)
        argv = ["verify", "--p-max", "10", "--m", "2,3", "--h-max", "24", "--format", "json"]
        code, text = _run(capsys, argv)
    assert code == 0
    report = json.loads(text)
    assert (report["checks"], report["mismatch_count"]) == (850, 0)
    monkeypatch.setattr("lenslat.oracle._lattice_series", _other_path)
    monkeypatch.setattr("lenslat.oracle._divided", _other_path)
    code, text = _run(capsys, ["verify", "--p", "7", "--q", "1,2,3", "--h", "30"])
    assert code == 0
    assert text.splitlines()[1:] == ['"L(7;1,2,3)",30,count,512,512,true']


def test_verify_budget_exceeded_exits_2(capsys):
    code = main(["verify", "--p", "2", "--q", "1,1", "--h", "6", "--oracle-budget", "1"])
    assert code == 2
    assert "shrink the grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, fits", [
    # L(2;1,1) at h = 0..3: the 1-norm ball of radius 3 in Z^2 holds 25 points
    (["verify", "--p", "2", "--q", "1,1", "--h-max", "3"], 25),
    # one norm: the 1-norm sphere of radius 3 in Z^2, 25 - 13 points
    (["verify", "--p", "2", "--q", "1,1", "--h", "3"], 12),
    # p in {1, 2}, m in {2, 3}: one class each, balls of 41 and 129 points at radius 4
    (["verify", "--p-max", "2", "--h-max", "4"], 340),
    # p <= 7 walks 14 tuples for its 11 classes of m = 3, each priced at the
    # 25-point ball of radius 2, as the DP-bits rule prices walked tuples
    (["verify", "--p-max", "7", "--m", "3", "--h-max", "2"], 350),
], ids=["single", "single-h", "grid", "grid-walked"])
def test_verify_run_is_priced_against_the_oracle_budget(argv, fits, capsys):
    # the whole run, not each enumeration: every sphere alone fits in fits - 1
    assert main(argv + ["--oracle-budget", str(fits)]) == 0
    capsys.readouterr()
    assert main(argv + ["--oracle-budget", str(fits - 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: verify ")
    assert f"needs {fits} candidates, exceeding the oracle budget of {fits - 1}; shrink" in err


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the input was refused")


@pytest.mark.parametrize("argv", [
    # about 1.3e15 candidates in the radius-99999 ball of Z^3
    ["verify", "--p", "7", "--q", "1,2,3", "--h-max", "99999"],
    # about 1.3e11 candidates, nearly all from the m = 6 classes
    ["verify", "--p-max", "30", "--m", "2,6"],
], ids=["single", "grid"])
def test_verify_run_over_the_oracle_budget_is_refused_at_once(argv, monkeypatch, capsys):
    monkeypatch.setattr("lenslat.cli.lattice_count", _refuse)
    monkeypatch.setattr("lenslat.oracle.lattice_count", _refuse)
    monkeypatch.setattr("lenslat.oracle.enumerate_omega", _refuse)
    monkeypatch.setattr("lenslat.oracle.shell_counts", _refuse)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert f"exceeding the oracle budget of {DEFAULT_BUDGET}" in capsys.readouterr().err


def test_only_deep_verify_lists_the_points(monkeypatch, capsys):
    # the count rows come from the count walk; only the fold laws of --deep
    # need enumerate_omega's lists, one per (case, norm)
    monkeypatch.setattr("lenslat.oracle.enumerate_omega", _refuse)
    assert main(["verify", "--p-max", "4", "--h-max", "10"]) == 0
    listed = []

    def counted(space, h, budget):
        listed.append((space, h))
        return enumerate_omega(space, h, budget)

    monkeypatch.setattr("lenslat.oracle.enumerate_omega", counted)
    assert main(["verify", "--p-max", "4", "--h-max", "10", "--deep"]) == 0
    cases = [make_lens_space(p, q) for p in range(1, 5) for m in (2, 3) for q in canonical_q_tuples(p, m)]
    assert listed == [(space, h) for space in cases for h in range(11)]


def test_a_lone_norm_is_counted_by_the_listing_walk(monkeypatch, capsys):
    # --h 4 needs only the norm-4 sphere, not the count walk's whole ball
    monkeypatch.setattr("lenslat.oracle.shell_counts", _refuse)
    code, text = _run(capsys, ["verify", "--p", "2", "--q", "1,1", "--h", "4"])
    assert code == 0
    assert text.splitlines()[1:] == ['"L(2;1,1)",4,count,16,16,true']


def test_a_range_from_0_is_counted_by_the_count_walk(monkeypatch, capsys):
    monkeypatch.setattr("lenslat.oracle.n_lattice_bruteforce", _refuse)
    code, text = _run(capsys, ["verify", "--p", "2", "--q", "1,1", "--h-max", "4"])
    assert code == 0
    counts = [1, 0, 8, 0, 16]
    assert text.splitlines()[1:] == [f'"L(2;1,1)",{h},count,{n},{n},true' for h, n in enumerate(counts)]


@pytest.mark.parametrize("m", ["20000", "10000000"])
def test_verify_absurd_m_is_priced_at_once(m, capsys):
    # the shell price sums only the supports j <= h: binom(h, j) = 0 above,
    # where 2^j * binom(m, j) cost 95 s at m = 20000
    start = time.perf_counter()
    assert main(["verify", "--p-max", "2", "--m", m]) == 2
    assert time.perf_counter() - start < 1
    assert f"degree {m} at p = 1 is over 1000000000 DP bits" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["nl", "verify"])
def test_negative_norm_is_refused_before_the_numerator(command, monkeypatch, capsys):
    # a series at p = 100003 could be refused for its size first: nl refuses in its
    # single-degree read before the kernel runs, verify by its shell price before the read
    monkeypatch.setattr("lenslat.spectra._lattice_series", _refuse)
    monkeypatch.setattr("lenslat.oracle.lattice_count", _refuse)
    assert main([command, "--p", "100003", "--q", "1,2", "--h", "-1"]) == 2
    assert capsys.readouterr().err == "error: h must be non-negative, got -1\n"


def test_single_space_over_its_numerator_bits_is_refused_before_the_numerator(monkeypatch, capsys):
    # one walked tuple, priced by the same loop as a grid's, before its read runs
    monkeypatch.setattr("lenslat.cli.lattice_count", _refuse)
    monkeypatch.setattr("lenslat.oracle.lattice_count", _refuse)
    assert main(["verify", "--p", "100003", "--q", "1,2", "--h", "3"]) == 2
    assert "DP bits" in capsys.readouterr().err


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command starts computing before refusing its input."""
    for name in ("lattice_count", "canonical_q_tuples", "make_lens_space"):
        monkeypatch.setattr(f"lenslat.cli.{name}", _refuse)
        monkeypatch.setattr(f"lenslat.oracle.{name}", _refuse)


@pytest.mark.parametrize("argv", [
    ["verify", "--p-max", "0"],
    ["verify", "--m", ""],
    ["verify", "--p-max", str(10**30), "--m", ""],  # no p is walked for no m
])
def test_verify_empty_grid_exits_2(argv, no_work, capsys):
    assert main(argv) == 2
    assert "empty verify grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--h-max", "-1"],
    ["verify", "--p", "2", "--q", "1,1", "--h-max", "-1"],
    ["bench", "--p", "2", "--q", "1,1", "--h-max", "-1"],
])
def test_negative_h_max_exits_2(argv, no_work, capsys):
    assert main(argv) == 2
    assert "error: --h-max must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--p-max", "2", "--oracle-budget", "-1"],
    ["bench", "--p", "2", "--q", "1,1", "--oracle-budget", "-1"],
])
def test_negative_oracle_budget_exits_2(argv, no_work, capsys):
    assert main(argv) == 2
    assert "error: oracle budget must be non-negative" in capsys.readouterr().err


def test_bench_zero_oracle_budget_exits_2(no_work, capsys):
    # h = 0 alone needs one candidate: a budget of 0 would skip every row
    argv = ["bench", "--p", "2", "--q", "1,1", "--h-max", "2", "--oracle-budget", "0"]
    assert main(argv) == 2
    assert "error: an oracle budget of 0" in capsys.readouterr().err


@pytest.mark.parametrize("h_max", ["50", "20"])  # 20 is also the default
def test_verify_h_with_h_max_exits_2(h_max, no_work, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--p", "2", "--q", "1,1", "--h", "3", "--h-max", h_max])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("grid_flags", [
    ["--p-max", "10"],
    ["--m", "4"],
    ["--p-max", "8", "--m", "2,3"],  # the grid defaults still count as given
], ids=["p_max", "m", "both"])
def test_verify_grid_flags_with_p_exit_2(grid_flags, no_work, capsys):
    assert main(["verify", "--p", "3", "--q", "1,2", "--h-max", "2"] + grid_flags) == 2
    assert "error: --p-max/--m only apply to the grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--p", "7"], "--p needs --q for a single-space verify"),
    (["--q", "1,2"], "--q/--h only apply together with --p"),
], ids=["p_without_q", "q_without_p"])
def test_verify_single_space_flags_exit_2(argv, message, no_work, capsys):
    assert main(["verify"] + argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--p", "2", "--q", "1,1", "--i-max", "100000000"], "spectral lines"),
    (["nl", "--p", "100000007", "--q", "1,2", "--h", "5"], "DP bits"),
    (["gamma", "--p", "100000007", "--q", "1,2", "--s", "5"], "DP bits"),
    # under the DP ceiling, but 10**7 lines would not fit
    (["spectrum", "--p", "2", "--q", "1,1", "--i-max", "9999999"], "spectral lines"),
    # one row per norm 0..h_max
    (["verify", "--p", "2", "--q", "1,1", "--h-max", "100000000"], "--h-max must be below"),
    (["bench", "--p", "2", "--q", "1,1", "--h-max", "100000000"], "--h-max must be below"),
    # the grid's classes times their numerators' DP bits, summed over p <= 200
    (["verify", "--p-max", "200", "--m", "10"], "DP bits"),
    # refused for its degrees although the dimensions differ
    (["compare", "--a", "2:1,1", "--b", "2:1,1,1", "--i-max", "100000000"], "spectral lines"),
], ids=["argv0", "argv1", "argv2", "argv3", "argv4", "argv5", "argv6", "argv7"])
def test_absurd_size_refused_before_allocation(argv, message, capsys):
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert message in capsys.readouterr().err
    assert peak < 10 * 2**20


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str digit limit"
)
def test_results_over_the_int_digit_limit_are_printed(capsys):
    h = 10**1500  # N(h) of L(2;1,1,1,1) has 4,501 digits
    limit = sys.get_int_max_str_digits()
    code, text = _run(capsys, ["nl", "--p", "2", "--q", "1,1,1,1", "--h", str(h)])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    space = make_lens_space(2, (1, 1, 1, 1))
    sys.set_int_max_str_digits(0)
    try:
        expected = str(n_lattice_formula(space, numerator(space), h))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 4501
    assert text == expected + "\n"
    # a usage error, now raised with the limit lifted, still restores it
    with pytest.raises(SystemExit) as err:
        main(["nl", "--p", "2", "--q", "1,1,1,1", "--h", "1" + "0" * 4999 + "x"])
    assert err.value.code == 2
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str digit limit"
)
def test_inputs_over_the_int_digit_limit_are_parsed(capsys):
    # --h = 10^5000 has 5,001 digits, over the 4,300 that int() reads by default;
    # it was refused as "invalid int value" (exit 2) before the limit was lifted
    limit = sys.get_int_max_str_digits()
    code, text = _run(capsys, ["nl", "--p", "2", "--q", "1,1,1,1", "--h", "1" + "0" * 5000])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    space = make_lens_space(2, (1, 1, 1, 1))
    sys.set_int_max_str_digits(0)
    try:
        expected = str(n_lattice_formula(space, numerator(space), 10**5000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 15001
    assert text == expected + "\n"


def test_verify_grid_over_its_numerator_bits_is_refused_at_once(no_work, capsys):
    # about 1.5e5 symmetry classes, each a full degree-2p numerator:
    # 3.5e12 DP bits, refused before the first class is built
    start = time.perf_counter()
    assert main(["verify", "--p-max", "1000", "--m", "2", "--h-max", "2"]) == 2
    assert time.perf_counter() - start < 1
    assert "builds numerators over 100000000000 DP bits" in capsys.readouterr().err


def test_verify_grid_price_is_classes_times_numerator_bits(monkeypatch, capsys):
    # p in {1, 2}, m in {2, 3}: one class each, at 12 + 25 + 60 + 144 bits
    argv = ["verify", "--p-max", "2", "--h-max", "4"]
    monkeypatch.setattr("lenslat.oracle.VERIFY_MAX_DP_BITS", 241)
    assert main(argv) == 0
    monkeypatch.setattr("lenslat.oracle.VERIFY_MAX_DP_BITS", 240)
    assert main(argv) == 2
    assert "builds numerators over 240 DP bits" in capsys.readouterr().err


def test_verify_grid_huge_p_max_is_refused_at_once(capsys):
    # the running sum passes the DP-bits ceiling near p = 300, not at p = 10**12
    start = time.perf_counter()
    assert main(["verify", "--p-max", "1000000000000", "--m", "2"]) == 2
    assert time.perf_counter() - start < 1
    assert "builds numerators over 100000000000 DP bits" in capsys.readouterr().err


def test_verify_repeated_m_exits_2(no_work, capsys):
    # a repeated m would check and price every class of that m twice
    assert main(["verify", "--p-max", "3", "--m", "2,2", "--h-max", "2"]) == 2
    assert "error: --m value 2 given more than once" in capsys.readouterr().err


def test_verify_negative_m_exits_2(capsys):
    assert main(["verify", "--p-max", "4", "--m", "-1"]) == 2
    assert "error: need at least two rotation parameters, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--p-max", "4", "--m", "1"],
    ["--p-max", "100000000000", "--m", "1"],  # pricing would pass one numerator's ceiling
    ["--p-max", "0", "--m", "3,1"],  # empty, yet refused for its m
], ids=["small", "huge", "empty"])
def test_verify_m_1_exits_2(argv, no_work, capsys):
    # the same reason whatever --p-max is, before any pricing
    assert main(["verify"] + argv) == 2
    assert "error: need at least two rotation parameters, got 1" in capsys.readouterr().err


def test_verify_grid_bits_ceiling_implies_the_class_ceiling():
    # _numerator_bits grows in p and in m: these are all the (p, m >= 2) at
    # most `cheap` bits each, and together they walk this many tuples
    cheap, pairs, walked = 200_000, 0, 0
    m = 2
    while _numerator_bits(1, m) <= cheap:
        p = 1
        while _numerator_bits(p, m) <= cheap:
            pairs, walked = pairs + 1, walked + _canonical_candidates(p, m)
            p += 1
        m += 1
    assert (pairs, walked) == (472, 32540)
    # a grid of distinct (p, m) walking over the class ceiling has the rest of
    # its tuples at over `cheap` bits each: the DP-bits ceiling refuses it first
    assert (MAX_CANONICAL_CANDIDATES - walked) * cheap > VERIFY_MAX_DP_BITS


def test_canonical_q_tuples_dedupe():
    # (1,2), (1,3) and (2,1) collapse into one class mod 5
    tuples_m2 = canonical_q_tuples(5, 2)
    assert tuples_m2 == [(1, 1), (1, 2)]
    assert canonical_q_tuples(2, 3) == [(1, 1, 1)]
    assert canonical_q_tuples(1, 2) == [(1, 1)]


# ------------------------------------------------------------------- bench


def test_bench_rows_and_skips(capsys):
    code, text = _run(
        capsys,
        ["bench", "--p", "7", "--q", "1,2,3", "--h-max", "5", "--oracle-budget", "50"],
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "h,formula_seconds,oracle_seconds"
    assert len(lines) == 7
    # 1-norm-h sphere in Z^3 has 4h^2 + 2 points: over budget from h = 4
    assert not any(line.endswith("skipped") for line in lines[1:4])
    assert all(line.endswith("skipped") for line in lines[5:])


def test_bench_json(capsys):
    _, text = _run(capsys, [
        "bench", "--p", "2", "--q", "1,1", "--h-max", "3", "--format", "json",
        "--oracle-budget", str(BENCH_DEFAULT_BUDGET),
    ])
    obj = json.loads(text)
    assert [row["h"] for row in obj["rows"]] == [0, 1, 2, 3]
    assert not any(row["skipped"] for row in obj["rows"])


def test_bench_disagreement_exits_1(monkeypatch, capsys):
    # negative control: the corrupted binomial breaks N(0) for L(2;1,1)
    monkeypatch.setattr("lenslat.spectra.binom", _corrupted_binom)
    assert main(["bench", "--p", "2", "--q", "1,1", "--h-max", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: formula and oracle disagree at h = 0: ")
    assert captured.out == ""


# ------------------------------------------------------------ output, exec


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = main(["spectrum", "--p", "2", "--q", "1,1", "--i-max", "2",
                 "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "i,eigenvalue,multiplicity\n0,0,1\n1,3,0\n2,8,9\n"


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "table.csv"
    code = main(["spectrum", "--p", "2", "--q", "1,1", "--i-max", "2",
                 "--output", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in captured.err


def test_empty_output_is_refused_before_the_command_runs(monkeypatch, capsys):
    # an empty --output names no file: it is invalid input, refused before the count
    def _refuse(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(lenslat.cli, "lattice_count", _refuse)
    assert main(["nl", "--p", "2", "--q", "1,1", "--h", "2", "--output", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --output must name a file, got an empty path\n"


class _FullStdout:
    """A stdout on a full device: every write fails, as on /dev/full."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_unwritable_stdout_exits_2(capsys):
    # exit 1 is kept for a verification mismatch: a failed write is exit 2,
    # as for an unwritable --output
    with contextlib.redirect_stdout(_FullStdout()):
        code = main(["nl", "--p", "2", "--q", "1,1", "--h", "2"])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    "nl --p 2 --q 1,1 --h 2",
    "verify --p 2 --q 1,1 --h 2",
    "spectrum --p 2 --q 1,1 --i-max 99999",  # 100,000 lines, past any stdout buffer
    "census --p 11 --m 3",  # the census script writes through the CLI's write path
], ids=["nl", "verify", "spectrum", "census"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_on_a_full_device_exits_2(argv, unbuffered):
    # buffered, a small output fails only at the flush and stays in stdout's buffer,
    # so the flush at interpreter exit must not fail again (it would exit 120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command, *rest = argv.split()
    entry = [str(CENSUS_SCRIPT)] if command == "census" else ["-m", "lenslat", command]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, *entry, *rest], stdout=full, stderr=subprocess.PIPE,
            text=True, env=env,
        )
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "lenslat", "nl", "--p", "2", "--q", "1,1", "--h", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "8\n"


def test_import_loads_no_dataclasses_inspect_or_typing():
    # nor csv: every table is written by f-string rows; nor json and lenslat.oracle,
    # which load in the commands that use them; nor contextlib: the write path
    # holds its one handle in a try/finally
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import lenslat.cli; "
        "print(sorted({'csv', 'dataclasses', 'inspect', 'typing', 'json', 'lenslat.oracle',"
        " 'contextlib'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


LAZY_LOADS = [
    *[(f"{argv} --format {fmt}", 0, "", ["json"] if fmt == "json" and dumps else [])
      for argv, dumps in (
          ("nl --p 7 --q 1,2,3 --h 30", True),
          ("gamma --p 5 --q 1,2,3 --s 4 --subset 1,3", True),
          ("compare --a 54:1,1,17 --b 54:1,1,19 --i-max 20", True),
          # their JSON is written by row templates, not json.dumps
          ("spectrum --p 5 --q 1,2 --i-max 6", False),
          ("parity --p 6 --q 1,1 --i-max 6", False),
      ) for fmt in ("csv", "json")],
    ("nl --p 5 --q 1,2 --h -1", 2, "error: h must be non-negative, got -1\n", []),
    ("verify --p 2 --q 1,1 --h-max 3", 0, "", ["lenslat.oracle"]),
    ("verify --p 2 --q 1,1 --h-max 3 --format json", 0, "", ["json", "lenslat.oracle"]),
    ("bench --p 3 --q 1,1 --h-max 3", 0, "", ["lenslat.oracle"]),
    ("verify --p 2 --q 1,1 --h 6 --oracle-budget 1", 2,
     "error: verify run (single case L(2;1,1), h in 6..6) needs 24 candidates, exceeding the"
     " oracle budget of 1; shrink the grid or raise the budget (--oracle-budget)\n",
     ["lenslat.oracle"]),
]


@pytest.mark.parametrize("argv, code, err, loaded", LAZY_LOADS, ids=[a for a, *_ in LAZY_LOADS])
def test_a_process_loads_json_and_the_oracle_only_for_the_commands_that_use_them(
    argv, code, err, loaded
):
    # each call in a fresh interpreter, so no earlier test has loaded either module;
    # the last stdout line is the exit code and which of the two the call loaded
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); from lenslat.cli import main; "
        f"code = main({argv.split()!r}); "
        "print(code, sorted({'json', 'lenslat.oracle'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    *out, last = result.stdout.splitlines()
    assert (last, result.stderr) == (f"{code} {loaded}", err)
    assert bool(out) == (code == 0)


def test_parsers_are_built_once_per_process_and_never_at_import():
    # building the parser took 1.1-1.6 ms of each in-process call, more than
    # the maths of a small request; it must not move to import time either
    root = Path(__file__).resolve().parent.parent
    code = f"""
import argparse, contextlib, importlib.util, io, sys
sys.path.insert(0, {str(root / "src")!r})
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import lenslat.cli
spec = importlib.util.spec_from_file_location("census", {str(root / "scripts" / "isospectral_search.py")!r})
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)
counts = [len(built)]
with contextlib.redirect_stdout(io.StringIO()):
    for entry, argv in [(lenslat.cli, ["nl", "--p", "5", "--q", "1,2", "--h", "3"]),
                        (census, ["--p", "5", "--m", "2", "--i-max", "4"])]:
        before = len(built)
        entry.main(argv)
        counts.append(len(built) - before)
        entry.main(argv)
        counts.append(len(built) - before)
print(counts)
"""
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # the CLI's parser and its seven subcommand parsers, then the census script's one
    assert result.stdout == "[0, 8, 8, 1, 1]\n"


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one in-process CLI call; usage errors exit."""
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_reused_parser_leaks_no_state(tmp_path, capsys):
    # one parser serves every call of a process: each command must give the
    # same answer whichever command ran before it, forwards and backwards
    target = tmp_path / "nl.csv"
    commands = [
        "spectrum --p 5 --q 1,2 --i-max 6 --format json",
        "spectrum --p 5 --q 1,2 --i-max 6",
        f"nl --p 7 --q 1,2,3 --h 30 --output {target}",
        "nl --p 7 --q 1,2,3 --h 30",
        "gamma --p 5 --q 1,2,3 --s 4 --subset 1,3",
        "gamma --p 5 --q 1,2,3 --s 4",
        "verify --p 2 --q 1,1 --h 3",
        "verify --p-max 3 --m 2 --h-max 4",
        "verify --h 3 --h-max 4",
        "gamma --p 5 --q 1,2",
        "compare --a 5:1,1 --b 5:1,2 --i-max 8 --format json",
        "compare --a 5:1,1 --b 5:1,2 --i-max 8",
        "parity --p 6 --q 1,1 --i-max 6",
        "bench --p 3 --q 1,1 --h-max 3",
    ]
    outcomes = {}
    for argv in commands + commands[::-1]:
        code, out, err = _outcome(argv.split(), capsys)
        if argv.startswith("bench"):  # its timings are the CLI's one varying output
            out = re.sub(r"\d+\.\d{6}", "t", out)
        outcomes.setdefault(argv, []).append((code, out, err))
    for argv, (first, second) in outcomes.items():
        assert first == second, argv
    assert outcomes["verify --h 3 --h-max 4"][0][0] == 2
    assert outcomes["gamma --p 5 --q 1,2"][0][0] == 2
    # the full subset; the subset 1,3 of the call before alone gives 4
    assert outcomes["gamma --p 5 --q 1,2,3 --s 4"][0][1] == "14\n"
    assert target.read_text() == outcomes["nl --p 7 --q 1,2,3 --h 30"][0][1]
    for argv in ("gamma --p 5 --q 1,2,3 --s 4", "verify --p-max 3 --m 2 --h-max 4",
                 "verify --h 3 --h-max 4"):
        result = subprocess.run(
            [sys.executable, "-m", "lenslat", *argv.split()], capture_output=True, text=True
        )
        assert (result.returncode, result.stdout, result.stderr) == outcomes[argv][0], argv


VALID_ARGV = [
    f"{command} --format {fmt}" for command, fmt in product((
        "spectrum --p 5 --q 1,2 --i-max 6",
        "nl --p 7 --q 1,2,3 --h 30",
        "gamma --p 5 --q 1,2,3 --s 4 --subset 1,3",
        "verify --p 2 --q 1,1 --h-max 3",
        "compare --a 54:1,1,17 --b 54:1,1,19 --i-max 20",
        "parity --p 6 --q 1,1 --i-max 6",
        "bench --p 3 --q 1,1 --h-max 3",
    ), ("csv", "json"))
] + ["spectrum --p=5 --q=1,2 --i-max=6", "spectrum --p 5 --q 1,2 --i-m 6",
      "verify --p-max 3 --m 2 --h-max 4"]

DISPATCH_ARGV = [argv.split() for argv in VALID_ARGV + [
    "-h", "--help", "spectrum -h", "compare --help", "", "spectra --p 5",
    "spectrum --p 5 --i-max 6", "spectrum --p 5 --q 1,2 --i-max 6 --bogus",
    "nl --p 7 --q 1,2,3 --h 30 --bogus 3", "--bogus", "--bogus 3", "spectrum",
    "--p 5 spectrum --q 1,2 --i-max 6", "--p=5 spectrum --q 1,2 --i-max 6",
    "-- --x", "spectrum --p 5 --q 1,2 --i-max 6 -- --x", "-- spectrum --p 5 --q 1,2 --i-max 6",
    "verify --h 3 --h-max 4", "spectrum --p 5 --q 1,2 --i-max 6 --format xml",
    "nl --p 7 --q 1,x --h 3", "compare --a x:1,2 --b 2:1,1 --i-max 2",
    "spectrum --p 5 --q 1,2 --i-max -1", "nl --p 7 --q 1,2,3 --h 30 extra",
]]


def _masked_outcome(argv, capsys):
    code, out, err = _outcome(argv, capsys)
    return code, re.sub(r"\d+\.\d+(e-\d+)?", "t", out), err  # bench's timings vary


def test_dispatch_to_the_command_parser_changes_no_output(capsys, monkeypatch):
    # main hands argv[1:] to the named command's parser; the full parser, reached
    # here by hiding the commands, must give the same stdout, stderr and exit code
    dispatched = [_masked_outcome(argv, capsys) for argv in DISPATCH_ARGV]
    parser, _ = lenslat.cli._parser()
    monkeypatch.setattr(lenslat.cli, "_parser", lambda: (parser, {}))
    for argv, outcome in zip(DISPATCH_ARGV, dispatched):
        assert _masked_outcome(argv, capsys) == outcome, argv
    assert [outcome[0] for outcome in dispatched[:len(VALID_ARGV)]] == [0] * len(VALID_ARGV)
    assert dispatched[VALID_ARGV.index("compare --a 54:1,1,17 --b 54:1,1,19 --i-max 20 "
                                       "--format csv")][1].endswith("false,false,18,466,454\n")


def test_a_valid_call_parses_once(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full parser ran")

    parser, _ = lenslat.cli._parser()
    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    for argv in VALID_ARGV:
        assert main(argv.split()) == 0, argv
    capsys.readouterr()
    with pytest.raises(AssertionError, match="the full parser ran"):
        main(["spectrum", "--p", "5", "--q", "1,2", "--i-max", "6", "--bogus"])


def test_parity_cli_rejects_negative_i_max(capsys):
    code = main(["parity", "--p", "2", "--q", "1,1", "--i-max", "-1"])
    assert code == 2


# ------------------------------------------------------------ one rendering


def _table_references(space, i_max):
    """spectrum's and parity's stdout in both forms, rendered by csv.writer and json.dumps."""
    mults = multiplicities(space, i_max)
    entries = list(zip(range(i_max + 1), lenslat.spectra.eigenvalues(space, i_max), mults))
    report = list(zip(range(i_max + 1), mults, parity_verdicts(space, mults)))
    head = {"p": space.p, "q": list(space.q)}
    payloads = {
        "spectrum": head | {"d": space.d, "entries": [
            {"i": i, "lambda": eigenvalue, "mult": str(mult)} for i, eigenvalue, mult in entries
        ]},
        "parity": head | {"i_max": i_max, "rows": [
            {"i": i, "mult": str(mult), "ok": ok} for i, mult, ok in report
        ]},
    }
    tables = {
        "spectrum": [["i", "eigenvalue", "multiplicity"], *entries],
        "parity": [["i", "multiplicity", "parity_ok"],
                   *[[i, mult, "true" if ok else "false"] for i, mult, ok in report]],
    }
    for command, rows in tables.items():
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        yield command, "csv", buf.getvalue()
        yield command, "json", json.dumps(payloads[command], indent=2) + "\n"


def _check_row_templates(space, i_max):
    q = ",".join(map(str, space.q))
    for command, fmt, expected in _table_references(space, i_max):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--p", str(space.p), "--q", q, "--i-max", str(i_max),
                         "--format", fmt])
        assert (code, out.getvalue()) == (0, expected), (command, fmt)


@given(space=lens_spaces(p_max=13, m_max=5), i_max=st.integers(0, 40))
@example(space=make_lens_space(1, (3, 5, 7)), i_max=6)  # q normalised to zeros
@example(space=make_lens_space(7, (1, 2)), i_max=0)  # one row
@settings(max_examples=60, deadline=None)
def test_row_templates_render_the_bytes_of_csv_and_json(space, i_max):
    # spectrum and parity write their rows by f-string templates: the bytes
    # must be those csv.writer and json.dumps(indent=2) would give
    _check_row_templates(space, i_max)


def test_row_templates_render_multiplicities_past_64_bits():
    space = make_lens_space(1, (1,) * 5)
    assert multiplicities(space, 1000)[-1] > 2**64
    _check_row_templates(space, 1000)


def test_spectrum_and_parity_render_without_a_record_per_line(monkeypatch):
    # the CLI renders its rows from the one multiplicity list: with the record type
    # made to raise, spectrum and parity still print the reference bytes in both
    # forms, while first_positive_eigenvalue(), which returns one, does raise
    space = make_lens_space(13, (1, 2, 3, 4))
    references = list(_table_references(space, 60))

    def refuse(*args):
        raise AssertionError("a record was built")

    monkeypatch.setattr(SpectrumEntry, "__new__", refuse)
    with pytest.raises(AssertionError):
        first_positive_eigenvalue(space)
    for command, fmt, expected in references:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--p", "13", "--q", "1,2,3,4", "--i-max", "60", "--format", fmt])
        assert (code, out.getvalue()) == (0, expected), (command, fmt)


def test_cli_imports_no_private_name_from_spectra():
    # cli parses, calls spectra's public names and renders: no `_`-prefixed
    # name of lenslat.spectra is imported or read as an attribute there
    tree = ast.parse(Path(lenslat.cli.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
            (1, "spectra"), (0, "lenslat.spectra")
        ):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "spectra":
            names.append(node.attr)
    assert "multiplicities" in names
    assert [name for name in names if name.startswith("_")] == []


def _raise(*args, **kwargs):
    raise AssertionError("the form that was not asked for was rendered")


RENDER_ONCE = [
    "spectrum --p 5 --q 1,2 --i-max 6",
    "nl --p 5 --q 1,2 --h 7",
    "gamma --p 5 --q 1,2,3 --s 4 --subset 1,3",
    "verify --p 7 --q 1,2,3 --h-max 3",
    "compare --a 11:1,2,3 --b 11:1,2,4 --i-max 20",
    "parity --p 6 --q 1,1 --i-max 6",
    "bench --p 3 --q 1,1 --h-max 3",
]


@pytest.mark.parametrize("argv", RENDER_ONCE, ids=[c.split()[0] for c in RENDER_ONCE])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_command_renders_only_the_form_asked_for(argv, fmt, monkeypatch, capsys):
    # a CSV run builds no JSON payload and no JSON text, a JSON run no CSV field or
    # row; spectrum and parity write JSON by their row templates, not json.dumps
    argv = [*argv.split(), "--format", fmt]
    expected = _run(capsys, argv)
    unused = ["json.dumps", "_space_json"] if fmt == "csv" else ["_quoted"]
    if fmt == "json":
        unused.append("json.dumps" if argv[0] in ("spectrum", "parity") else "_rows_text")
    for name in unused:
        # the CLI imports json in the call that writes JSON, so json.dumps is patched itself
        monkeypatch.setattr(name if name == "json.dumps" else f"lenslat.cli.{name}", _raise)
    outcomes = [expected, _run(capsys, argv)]
    if argv[0] == "bench":  # its timings are the CLI's one varying output
        outcomes = [(code, re.sub(r"\d+\.\d+(e-?\d+)?", "t", out)) for code, out in outcomes]
    assert outcomes[0] == outcomes[1]
    assert expected[0] == 0 and expected[1]


def _law_breaking_binom(pool, choose):
    """binom one too large at choose = 2, pool >= 3: the partition law counts wrong."""
    if not 0 <= choose <= pool:
        return 0
    return math.comb(pool, choose) + (choose == 2 and pool >= 3)


CSV_TABLES = [
    ("spectrum", "spectrum --p 13 --q 1,2,3,4 --i-max 60", False),
    ("parity", "parity --p 6 --q 1,1 --i-max 30", False),
    ("verify-grid-deep", "verify --p-max 5 --m 2,3 --h-max 8 --deep", False),
    # partition rows whose got field carries a law note, "22 (class 0b0: 19, law 20)"
    ("verify-law-notes", "verify --p 5 --q 1,2,3 --h-max 9 --deep", True),
    ("bench", "bench --p 7 --q 1,2,3 --h-max 6 --oracle-budget 50", False),
    ("compare", "compare --a 5:1,1 --b 5:1,2 --i-max 8", False),
    ("compare-equal", "compare --a 11:1,2,3 --b 11:1,2,4 --i-max 20", False),
]


@pytest.mark.parametrize("argv, law_notes", [c[1:] for c in CSV_TABLES],
                         ids=[c[0] for c in CSV_TABLES])
def test_csv_tables_round_trip_through_the_csv_module(argv, law_notes, monkeypatch, capsys):
    # every CSV table is written by f-string rows that quote only a field holding a
    # comma: the csv module reads each row back whole and writes the same text again
    if law_notes:
        monkeypatch.setattr("lenslat.oracle.binom", _law_breaking_binom)
    code, text = _run(capsys, argv.split())
    assert code == (1 if law_notes else 0)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) >= 2 and {len(row) for row in rows} == {len(rows[0])}
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == text
    if argv.startswith("verify"):
        assert all("," in row[0] for row in rows[1:])
        assert any(", law " in row[3] for row in rows[1:]) == law_notes


def test_bench_json_keys_and_types(capsys):
    # bench has no golden case, as its timings vary: pin its keys, their order,
    # their types and the layout of its text instead
    code, text = _run(capsys, [
        "bench", "--p", "7", "--q", "1,2,3", "--h-max", "5", "--oracle-budget", "50",
        "--format", "json",
    ])
    assert code == 0
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2) + "\n"
    assert list(obj) == ["p", "q", "h_max", "oracle_budget", "rows"]
    assert (obj["p"], obj["q"], obj["h_max"], obj["oracle_budget"]) == (7, [1, 2, 3], 5, 50)
    # 1-norm-h sphere in Z^3 has 4h^2 + 2 points: over a budget of 50 from h = 4
    assert [row["skipped"] for row in obj["rows"]] == [False] * 4 + [True] * 2
    for h, row in enumerate(obj["rows"]):
        assert list(row) == ["h", "formula_seconds", "oracle_seconds", "skipped"]
        assert row["h"] == h and type(row["formula_seconds"]) is float
        assert type(row["oracle_seconds"]) is (type(None) if row["skipped"] else float)


# ------------------------------------------------------------ golden output

# Exact stdout and exit code of every deterministic command in both
# formats, captured once and compared byte for byte, so any change to
# rendering or to the order of checks shows here.  bench is left out:
# its timings differ from run to run.
GOLDEN = [
    ('spectrum --p 5 --q 1,2 --i-max 3 --format csv', 0,
     'i,eigenvalue,multiplicity\n'
     '0,0,1\n'
     '1,3,0\n'
     '2,8,1\n'
     '3,15,4\n'),
    ('spectrum --p 5 --q 1,2 --i-max 3 --format json', 0,
     '{\n'
     '  "p": 5,\n'
     '  "q": [\n'
     '    1,\n'
     '    2\n'
     '  ],\n'
     '  "d": 3,\n'
     '  "entries": [\n'
     '    {\n'
     '      "i": 0,\n'
     '      "lambda": 0,\n'
     '      "mult": "1"\n'
     '    },\n'
     '    {\n'
     '      "i": 1,\n'
     '      "lambda": 3,\n'
     '      "mult": "0"\n'
     '    },\n'
     '    {\n'
     '      "i": 2,\n'
     '      "lambda": 8,\n'
     '      "mult": "1"\n'
     '    },\n'
     '    {\n'
     '      "i": 3,\n'
     '      "lambda": 15,\n'
     '      "mult": "4"\n'
     '    }\n'
     '  ]\n'
     '}\n'),
    ('nl --p 7 --q 1,2,3 --h 1000000000000000000000000000000 --format csv', 0,
     '571428571428571428571428571428571428571428571428571428571428\n'),
    ('nl --p 7 --q 1,2,3 --h 1000000000000000000000000000000 --format json', 0,
     '{\n'
     '  "p": 7,\n'
     '  "q": [\n'
     '    1,\n'
     '    2,\n'
     '    3\n'
     '  ],\n'
     '  "h": 1000000000000000000000000000000,\n'
     '  "count": "571428571428571428571428571428571428571428571428571428571428"\n'
     '}\n'),
    ('gamma --p 5 --q 1,2,3 --s 4 --subset 1,3 --format csv', 0,
     '4\n'),
    ('gamma --p 5 --q 1,2,3 --s 4 --subset 1,3 --format json', 0,
     '{\n'
     '  "p": 5,\n'
     '  "q": [\n'
     '    1,\n'
     '    2,\n'
     '    3\n'
     '  ],\n'
     '  "subset": [\n'
     '    1,\n'
     '    3\n'
     '  ],\n'
     '  "s": 4,\n'
     '  "count": "4"\n'
     '}\n'),
    ('compare --a 5:1,1 --b 5:1,2 --i-max 8 --format csv', 0,
     'equal,dimension_mismatch,first_divergence_i,mult_a,mult_b\n'
     'false,false,2,3,1\n'),
    ('compare --a 5:1,1 --b 5:1,2 --i-max 8 --format json', 0,
     '{\n'
     '  "space_a": {\n'
     '    "p": 5,\n'
     '    "q": [\n'
     '      1,\n'
     '      1\n'
     '    ]\n'
     '  },\n'
     '  "space_b": {\n'
     '    "p": 5,\n'
     '    "q": [\n'
     '      1,\n'
     '      2\n'
     '    ]\n'
     '  },\n'
     '  "i_max": 8,\n'
     '  "equal": false,\n'
     '  "dimension_mismatch": false,\n'
     '  "first_divergence": {\n'
     '    "i": 2,\n'
     '    "mult_a": "3",\n'
     '    "mult_b": "1"\n'
     '  }\n'
     '}\n'),
    ('compare --a 2:1,1 --b 2:1,1,1 --i-max 3 --format csv', 0,
     'equal,dimension_mismatch,first_divergence_i,mult_a,mult_b\n'
     'false,true,,,\n'),
    ('compare --a 2:1,1 --b 2:1,1,1 --i-max 3 --format json', 0,
     '{\n'
     '  "space_a": {\n'
     '    "p": 2,\n'
     '    "q": [\n'
     '      1,\n'
     '      1\n'
     '    ]\n'
     '  },\n'
     '  "space_b": {\n'
     '    "p": 2,\n'
     '    "q": [\n'
     '      1,\n'
     '      1,\n'
     '      1\n'
     '    ]\n'
     '  },\n'
     '  "i_max": 3,\n'
     '  "equal": false,\n'
     '  "dimension_mismatch": true,\n'
     '  "first_divergence": null\n'
     '}\n'),
    ('parity --p 4 --q 1,3 --i-max 7 --format csv', 0,
     'i,multiplicity,parity_ok\n'
     '0,1,true\n'
     '1,0,true\n'
     '2,3,true\n'
     '3,0,true\n'
     '4,15,true\n'
     '5,0,true\n'
     '6,21,true\n'
     '7,0,true\n'),
    ('parity --p 4 --q 1,3 --i-max 7 --format json', 0,
     '{\n'
     '  "p": 4,\n'
     '  "q": [\n'
     '    1,\n'
     '    3\n'
     '  ],\n'
     '  "i_max": 7,\n'
     '  "rows": [\n'
     '    {\n'
     '      "i": 0,\n'
     '      "mult": "1",\n'
     '      "ok": true\n'
     '    },\n'
     '    {\n'
     '      "i": 1,\n'
     '      "mult": "0",\n'
     '      "ok": true\n'
     '    },\n'
     '    {\n'
     '      "i": 2,\n'
     '      "mult": "3",\n'
     '      "ok": true\n'
     '    },\n'
     '    {\n'
     '      "i": 3,\n'
     '      "mult": "0",\n'
     '      "ok": true\n'
     '    },\n'
     '    {\n'
     '      "i": 4,\n'
     '      "mult": "15",\n'
     '      "ok": true\n'
     '    },\n'
     '    {\n'
     '      "i": 5,\n'
     '      "mult": "0",\n'
     '      "ok": true\n'
     '    },\n'
     '    {\n'
     '      "i": 6,\n'
     '      "mult": "21",\n'
     '      "ok": true\n'
     '    },\n'
     '    {\n'
     '      "i": 7,\n'
     '      "mult": "0",\n'
     '      "ok": true\n'
     '    }\n'
     '  ]\n'
     '}\n'),
    ('verify --p 2 --q 1,1 --h 2 --format csv', 0,
     'space,h,kind,got,expected,ok\n'
     '"L(2;1,1)",2,count,8,8,true\n'),
    ('verify --p 2 --q 1,1 --h 2 --format json', 0,
     '{\n'
     '  "grid": "single case L(2;1,1), h in 2..2",\n'
     '  "cases": 1,\n'
     '  "checks": 1,\n'
     '  "mismatch_count": 0,\n'
     '  "mismatches": []\n'
     '}\n'),
    ('verify --p-max 2 --h-max 2 --format csv', 0,
     'space,h,kind,got,expected,ok\n'
     '"L(1;0,0)",0,count,1,1,true\n'
     '"L(1;0,0)",1,count,4,4,true\n'
     '"L(1;0,0)",2,count,8,8,true\n'
     '"L(1;0,0,0)",0,count,1,1,true\n'
     '"L(1;0,0,0)",1,count,6,6,true\n'
     '"L(1;0,0,0)",2,count,18,18,true\n'
     '"L(2;1,1)",0,count,1,1,true\n'
     '"L(2;1,1)",1,count,0,0,true\n'
     '"L(2;1,1)",2,count,8,8,true\n'
     '"L(2;1,1,1)",0,count,1,1,true\n'
     '"L(2;1,1,1)",1,count,0,0,true\n'
     '"L(2;1,1,1)",2,count,18,18,true\n'),
    ('verify --p-max 2 --h-max 2 --format json', 0,
     '{\n'
     '  "grid": "p in 1..2, m in [2, 3], canonical q tuples, h in 0..2",\n'
     '  "cases": 4,\n'
     '  "checks": 12,\n'
     '  "mismatch_count": 0,\n'
     '  "mismatches": []\n'
     '}\n'),
    ('verify --p 2 --q 1,1 --h-max 2 --deep --format csv', 0,
     'space,h,kind,got,expected,ok\n'
     '"L(2;1,1)",0,count,1,1,true\n'
     '"L(2;1,1)",0,partition,1,1,true\n'
     '"L(2;1,1)",0,fiber_size,1,1,true\n'
     '"L(2;1,1)",0,fiber_cover,1,1,true\n'
     '"L(2;1,1)",1,count,0,0,true\n'
     '"L(2;1,1)",1,partition,0,0,true\n'
     '"L(2;1,1)",1,fiber_cover,0,0,true\n'
     '"L(2;1,1)",2,count,8,8,true\n'
     '"L(2;1,1)",2,partition,8,8,true\n'
     '"L(2;1,1)",2,fiber_size,2,2,true\n'
     '"L(2;1,1)",2,fiber_size,1,1,true\n'
     '"L(2;1,1)",2,fiber_size,1,1,true\n'
     '"L(2;1,1)",2,fiber_size,1,1,true\n'
     '"L(2;1,1)",2,fiber_size,1,1,true\n'
     '"L(2;1,1)",2,fiber_size,1,1,true\n'
     '"L(2;1,1)",2,fiber_size,1,1,true\n'
     '"L(2;1,1)",2,fiber_cover,7,7,true\n'),
    ('verify --p 2 --q 1,1 --h-max 2 --deep --format json', 0,
     '{\n'
     '  "grid": "single case L(2;1,1), h in 0..2",\n'
     '  "cases": 1,\n'
     '  "checks": 17,\n'
     '  "mismatch_count": 0,\n'
     '  "mismatches": []\n'
     '}\n'),
]


@pytest.mark.parametrize(
    "argv, code, expected", GOLDEN, ids=[case[0] for case in GOLDEN]
)
def test_golden_output(argv, code, expected, capsys):
    assert main(argv.split()) == code
    assert capsys.readouterr().out == expected


# ------------------------------------------------------------ census script


def _census_module():
    spec = importlib.util.spec_from_file_location("isospectral_search", CENSUS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _census_main():
    return _census_module().main


def test_census_script_finds_ikeda_pair(capsys):
    assert _census_main()(["--p", "11", "--m", "3", "--i-max", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p = 11, m = 3: 7 symmetry classes, comparing degrees 0..16\n")
    assert "family of 2: L(11;1,2,3)  L(11;1,2,4)\n" in out


def test_census_script_reuses_its_parser_without_state(capsys):
    # one loaded script serves every call of a process (as in the benchmark
    # worker); each --m must give what a freshly loaded script gives
    census = _census_main()
    for m in ("3", "2", "3"):
        argv = ["--p", "7", "--m", m, "--i-max", "10"]
        assert census(argv) == 0
        reused = capsys.readouterr().out
        assert _census_main()(argv) == 0
        assert reused == capsys.readouterr().out
        assert reused.startswith(f"p = 7, m = {m}: ")


@pytest.mark.parametrize("argv, message", [
    (["--p", "0"], "p must be a positive integer, got 0"),
    (["--p", "7", "--m", "-1"], "m must be non-negative, got -1"),
    (["--p", "7", "--m", "1"], "need at least two rotation parameters"),
    (["--p", "7", "--i-max", "100000"], "degrees 0..100000 are over 100000 spectral lines"),
])
def test_census_script_invalid_input_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        _census_main()(argv)
    assert err.value.code == 2
    captured = capsys.readouterr().err
    assert f"error: {message}" in captured and "Traceback" not in captured


@pytest.mark.parametrize("argv", [
    ["--p", "7", "--m", "1"],
    ["--p", "7", "--i-max", "-1"],
], ids=["m", "i_max"])
def test_census_script_invalid_input_prints_nothing(argv, capsys):
    # the header line comes only after the classes and groups are built
    with pytest.raises(SystemExit) as err:
        _census_main()(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def _census_families(capsys, p, m):
    assert _census_main()(["--p", str(p), "--m", str(m)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return [line.removeprefix("family of 2: ") for line in lines if line.startswith("family")]


def test_census_prints_only_isospectral_families(capsys):
    # L(54;1,1,17) and L(54;1,1,19) agree up to degree 17 but not at 18
    assert _census_families(capsys, 54, 3) == []
    assert _census_families(capsys, 56, 3) == [
        "L(56;1,3,23)  L(56;1,5,11)",
        "L(56;1,3,13)  L(56;1,3,15)",
    ]
    assert sum(len(_census_families(capsys, p, 3)) for p in range(1, 61)) == 23
    # 3-dimensional lens spaces are isospectral only if isometric (Ikeda-Yamamoto)
    assert not any(_census_families(capsys, p, 2) for p in range(1, 101))


def test_census_families_are_the_numerator_classes(capsys):
    # the prefix is only a filter: the families printed are exactly the classes
    # that share a full numerator, grouped by nothing else
    for p_max, m in ((40, 3), (20, 4)):
        for p in range(1, p_max + 1):
            by_numerator = {}
            for q in canonical_q_tuples(p, m):
                label = f"L({p};{','.join(map(str, q))})"
                by_numerator.setdefault(numerator(make_lens_space(p, q)).coeffs, []).append(label)
            expected = sorted(labels for labels in by_numerator.values() if len(labels) > 1)
            assert _census_main()(["--p", str(p), "--m", str(m)]) == 0
            lines = capsys.readouterr().out.splitlines()
            found = [line.split(": ", 1)[1].split("  ") for line in lines if line.startswith("family")]
            assert sorted(found) == expected, (p, m)


def test_census_builds_no_lens_space(monkeypatch, capsys):
    # classes are filed by the kernel's capped P, read from (p, q) alone: no space is
    # built at 13/4/30, where no class is refiled (i_max >= floor(m*p/2) = 26), nor at
    # 54/3/16, where shared classes are refiled deeper
    built = []
    new = LensSpace.__new__
    monkeypatch.setattr(LensSpace, "__new__", lambda cls, p, q: built.append(q) or new(cls, p, q))
    assert _census_main()(["--p", "13", "--m", "4", "--i-max", "30"]) == 0
    assert capsys.readouterr().out.startswith("p = 13, m = 4: 22 symmetry classes")
    assert _census_main()(["--p", "54", "--m", "3", "--i-max", "16"]) == 0
    assert "no spectral coincidences" in capsys.readouterr().out
    assert built == []


@pytest.mark.parametrize("m", [0, 1])
def test_census_refuses_m_below_two_before_the_class_walk(monkeypatch, m, capsys):
    # the m >= 2 rule is the census's own, checked after the size rules and before the
    # class walk, which is stubbed out here
    def walk(p, m):
        raise AssertionError("the class walk ran")

    monkeypatch.setattr(lenslat.spectra, "canonical_q_tuples", walk)
    with pytest.raises(SystemExit) as err:
        _census_main()(["--p", "7", "--m", str(m)])
    assert err.value.code == 2
    assert f"need at least two rotation parameters, got {m}" in capsys.readouterr().err


@pytest.mark.parametrize("p", [2, 3, 6])
def test_census_refuses_a_huge_m_before_building_its_class(p, capsys):
    # one class for every m at p in {2, 3, 6}: its 3e7-entry tuple (240 MB) was
    # built and validated before the DP rule refused it, a MemoryError under a
    # 400 MB address-space cap; the rules are now checked from (p, m, i_max)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            _census_main()(["--p", str(p), "--m", "30000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert err.value.code == 2
    assert f"degree 16 at p = {p} is over 1000000000 DP bits" in capsys.readouterr().err
    assert peak < 10 * 2**20


@pytest.mark.parametrize("m", [2, 3])
def test_census_at_a_huge_prime_is_refused_at_once(m, capsys):
    # p = 2**61 - 1 is prime: trial division to sqrt(p) would not end, but
    # phi(p) >= sqrt(p/2) alone puts the walk over the ceiling
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        _census_main()(["--p", str(2**61 - 1), "--m", str(m)])
    assert time.perf_counter() - start < 1
    assert err.value.code == 2
    assert f"over 1000000 candidate tuples at p = {2**61 - 1}, m = {m}" in capsys.readouterr().err


def test_census_over_its_held_multiplicities_is_refused_before_any_class(monkeypatch, capsys):
    # 1,275 candidate tuples x 10^5 degrees passed the class, degree and DP rules, then
    # ran out of memory filing its classes: a MemoryError traceback and exit 1
    def walk(p, m):
        raise AssertionError("the class walk ran")

    monkeypatch.setattr(lenslat.spectra, "canonical_q_tuples", walk)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        _census_main()(["--p", "101", "--m", "3", "--i-max", "99999"])
    assert time.perf_counter() - start < 1
    assert err.value.code == 2
    assert ("1275 candidate tuples x 100000 degrees are over 10000000 held multiplicities"
            in capsys.readouterr().err)


def test_census_prices_the_full_numerator_when_a_prefix_is_first_shared(monkeypatch, capsys):
    # a shared prefix would be refiled up to floor(m*p/2), at a full numerator's DP bits,
    # which no class at p = 5040 fits; a prefix is first shared at the fifth of 296
    # classes: the census stops there, not after filing them all
    filed = []

    def counted(p, m, s_max, with_zp, tuples, stop, products=lenslat.spectra._products):
        for product in products(p, m, s_max, with_zp, tuples, stop):
            filed.append(product)
            yield product

    monkeypatch.setattr(lenslat.spectra, "_products", counted)
    with pytest.raises(SystemExit) as err:
        _census_main()(["--p", "5040", "--m", "2", "--i-max", "16"])
    assert err.value.code == 2
    assert "degree 10080 at p = 5040 is over 1000000000 DP bits" in capsys.readouterr().err
    assert 0 < len(filed) <= 5


@pytest.mark.parametrize("p, digest", [
    (11, "98d2bc1b642aa777c7e46b76c4292691ef42c91670606feb94336c127433c8f4"),
    (101, "6d14ffe91fa7ce9317e5920a64cce5185aa05bd36dd7dc25335051101f72ef04"),
])
def test_census_stdout_is_pinned(p, digest, capsys):
    assert _census_main()(["--p", str(p), "--m", "3", "--i-max", "16"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("verify --p-max 10 --m 2,3 --h-max 24",
     "d5a346cb816e469841c9a8bf3ee2818cffa96379e1de5c558c044197fad222d9"),
    ("verify --p-max 5 --m 2,3 --h-max 8 --deep",
     "efdd9f22ee1351230dc6b15eba10ad96dac5c4a19bc98251fa8422c97e092fd2"),
    # the --deep listing order over two and three prefix coordinates (m = 4, 5)
    ("verify --p-max 5 --m 4,5 --h-max 6 --deep",
     "14bac320d10f4d34aad130d72a37a1a670ce080b9186de9f4cae58fd77d771a2"),
    # the fold at residues near p, at p = 1 (every negative coordinate is in N)
    # and on the benchmark's single-space --deep shape
    ("verify --p 61 --q 1,2,3,5 --h-max 6 --deep",
     "5a7bdce05b02a5714c3d898119cc09b19aa1b61e0f5f557e199879c1f22fba3d"),
    ("verify --p 1 --q 1,1,1 --h-max 6 --deep",
     "7650282d9934e965320dfa7017abca8595ca8a5cf75d548c7f6b9311803d0927"),
    ("verify --p 7 --q 1,2,3 --h-max 10 --deep",
     "841fee7609617e5436360cff1b0da2dc473210fae431579d2f6f0947e60bc35e"),
])
def test_verify_stdout_is_pinned(argv, digest, capsys):
    # every row, in the oracle's enumeration order: the walk and the fold may
    # get faster, but not reorder, drop or add a check
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# the largest tables the CLI writes, pinned byte for byte: the golden cases stop at
# i_max = 8, and these digests were taken before the row templates replaced csv and json
LARGE_TABLE_DIGESTS = [
    ("spectrum --p 13 --q 1,2,3,4 --i-max 99999",
     "615817cbc0336847a9dbb3e3d0861be0fe04a5682d6a84dad8806989a88a7b1d"),
    ("spectrum --p 13 --q 1,2,3,4 --i-max 99999 --format json",
     "ffab6c9d00773a65cf00b1b67c27ece08a17e652371e99af5f886299ac0aee5a"),
    ("parity --p 12 --q 1,1,1 --i-max 5000 --format json",
     "c1fca889b4956040c178af7c0b91666071f6734bfd5c8c4c80a8ef05d50673bc"),
]


@pytest.mark.parametrize("argv, digest", LARGE_TABLE_DIGESTS, ids=[c[0] for c in LARGE_TABLE_DIGESTS])
def test_large_tables_are_pinned(argv, digest, capsys):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cut_series_of_many_passes_are_refused_at_once(capsys):
    # one pass of the spectrum's DP fits the ceiling, but m passes do not; the
    # work grew as m^2 (0.63 s at m = 8000), so the census at m = 10^6 ran on
    start = time.perf_counter()
    assert main(["spectrum", "--p", "2", "--q", ",".join(["1"] * 20000), "--i-max", "100"]) == 2
    assert "degree 100 at p = 2 is over 1000000000 DP bits" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        _census_main()(["--p", "2", "--m", "1000000"])
    assert time.perf_counter() - start < 2
    assert err.value.code == 2
    assert "degree 16 at p = 2 is over 1000000000 DP bits" in capsys.readouterr().err


def test_dps_are_priced_at_the_columns_their_passes_build(capsys):
    # pass k builds about k * p / 2 columns, so m passes build about
    # m^2 * p / 4; priced at no more than m * p + 1 columns, these ran for
    # 17 s, 1.9 s, 1.7 s and 3.7 s and exited 0; nl reads P up to min(h, m * p),
    # so it is asked for the whole numerator, at h = m * p
    start = time.perf_counter()
    for p, m in ((2, 3000), (101, 60)):
        assert main(["nl", "--p", str(p), "--q", ",".join(["1"] * m), "--h", str(m * p)]) == 2
        assert f"degree {m * p} at p = {p} is over 1000000000 DP bits" in capsys.readouterr().err
    assert main(["spectrum", "--p", "2", "--q", ",".join(["1"] * 5000), "--i-max", "100"]) == 2
    assert "degree 100 at p = 2 is over 1000000000 DP bits" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        _census_main()(["--p", "3", "--m", "3000"])
    assert time.perf_counter() - start < 1
    assert err.value.code == 2
    assert "degree 16 at p = 3 is over 1000000000 DP bits" in capsys.readouterr().err


SINGLE_DEGREE_REFUSALS = [
    ("nl --p 2 --q " + ",".join(["1"] * 3000) + " --h 6000", 6000, 2),
    ("nl --p 2 --q " + ",".join(["1"] * 3000) + " --h 100", 100, 2),
    ("nl --p 10007 --q 1,2,3 --h 100000000000000000000", 30021, 10007),
    ("gamma --p 10007 --q 1,2,3 --s 20000", 20000, 10007),
    ("gamma --p 10007 --q 1,2,3 --s 15000 --subset 1,2", 15000, 10007),
    ("gamma --p 30011 --q 1,2 --s 30000 --format json", 30000, 30011),
]


@pytest.mark.parametrize("argv, degree, p", SINGLE_DEGREE_REFUSALS,
                         ids=["nl-3000-ones", "nl-3000-ones-h100", "nl-huge-h", "gamma",
                              "gamma-subset", "gamma-json"])
def test_single_degree_refusals_keep_their_bytes(argv, degree, p, capsys):
    # nl and gamma read their last factor at the degrees they answer, but price the
    # kernel as the full series capped at min(h, m*p) or s: the same calls are refused,
    # naming the same degree, with stderr's one line, nothing on stdout and exit 2
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: degree {degree} at p = {p} is over 1000000000 DP bits\n"


def test_class_walks_over_the_ceiling_are_refused_at_once(capsys):
    # the census would walk about C(107, 9) = 3.6e12 candidate tuples first;
    # verify prices its classes' numerators over the DP-bits ceiling
    start = time.perf_counter()
    assert main(["verify", "--p-max", "200", "--m", "10"]) == 2
    with pytest.raises(SystemExit) as err:
        _census_main()(["--p", "199", "--m", "10"])
    assert time.perf_counter() - start < 1
    assert err.value.code == 2
    assert "3585446225075 candidate tuples at p = 199, m = 10 are over 1000000" in capsys.readouterr().err


# ------------------------------------------------------------ exit-code fuzz

# edge values, as the digit strings a shell passes: zero, the units, a small and a
# larger prime, then the huge ones, a prime past every DP (10^7 + 19), the prime
# 2^61 - 1 and +-10^30
FUZZ_SMALL = ("0", "1", "-1", "97", "1009")
FUZZ_HUGE = (str(10**7 + 19), str(2**61 - 1), str(10**30), str(-10**30))
# always given and never over bench's default: a raised --oracle-budget admits long
# runs by design, and so does verify's default of 10^8 candidates (with --deep at
# p = 1 every candidate is a point, listed and folded)
FUZZ_BUDGETS = ("-1", "0", "1", "97", "1009", str(BENCH_DEFAULT_BUDGET))
FUZZ_SECONDS = 5
# two inputs that ran for a time sized by the input, however the draw falls: an
# empty --m walked every p up to --p-max before it found the grid empty, and
# --deep ran 2^m subset DPs that no price covered (one candidate at h = 0)
FUZZ_PINNED = [
    ["verify", "--p-max", str(10**30), "--m", ""],
    ["verify", "--p", "2", "--q", ",".join(["1"] * 40), "--h", "0", "--deep"],
]


def _fuzz_argv(rng):
    """One argv of a random subcommand: its options from the edge values (a huge one once
    in four), each dropped once in ten; lists of 0 to 8 values, or once in eight one value
    30 to 40 times."""
    def num():
        return rng.choice(FUZZ_HUGE if rng.random() < 0.25 else FUZZ_SMALL)

    def ints(values=num):
        if rng.random() < 0.125:
            return ",".join([values()] * rng.randint(30, 40))
        return ",".join(values() for _ in range(rng.randint(0, 8)))

    command = rng.choice(("spectrum", "nl", "gamma", "verify", "compare", "parity", "bench"))
    space = [("--p", num()), ("--q", ints())]
    options = {
        "spectrum": space + [("--i-max", num())],
        "nl": space + [("--h", num())],
        "gamma": space + [("--s", num()), ("--subset", ints(lambda: rng.choice("01238")))],
        "compare": [("--a", f"{num()}:{ints()}"), ("--b", f"{num()}:{ints()}"),
                    ("--i-max", num())],
        "parity": space + [("--i-max", num())],
        "bench": space + [("--h-max", num())],
    }.get(command)
    if command == "verify":
        grid = [("--p-max", num()), ("--m", ints(lambda: str(rng.randint(0, 8))))]
        norms = [rng.choice((("--h", num()), ("--h-max", num())))]
        options = rng.choice((grid, space, space + norms, grid + norms, space + grid))
        options += [("--deep", None)]
    argv = [command]
    for flag, value in options + [("--format", rng.choice(("csv", "json")))]:
        if rng.random() < 0.9:
            argv += [flag] if value is None else [flag, value]
    if command in ("verify", "bench"):
        argv += ["--oracle-budget", rng.choice(FUZZ_BUDGETS)]
    return argv


class _Overtime(BaseException):
    """Raised by the alarm: a BaseException, so no handler in main can catch it."""


def _alarm(signum, frame):
    raise _Overtime


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_exit_code_contract_holds_on_fuzzed_argv(capsys):
    # every call returns 0, 1 or 2 (argparse's SystemExit too), raises nothing
    # else and ends within FUZZ_SECONDS; the draw is seeded, so a failure replays
    rng = random.Random(23)
    draws = FUZZ_PINNED + [_fuzz_argv(rng) for _ in range(300)]
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for argv in draws:
            signal.alarm(FUZZ_SECONDS)
            try:
                code = main(argv)
            except SystemExit as err:
                code = err.code
            except _Overtime:
                code = f"still running after {FUZZ_SECONDS} s"
            finally:
                signal.alarm(0)
            capsys.readouterr()
            assert code in (0, 1, 2), (code, argv)
    finally:
        signal.signal(signal.SIGALRM, previous)
