import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from lenslat import canonical_q_tuples, make_lens_space, multiplicity, numerator
from lenslat.cli import BENCH_DEFAULT_BUDGET, VERIFY_MAX_DP_BITS, CheckRecord, main, verify_grid
from lenslat.lattice import MAX_CANONICAL_CANDIDATES, _canonical_candidates, _numerator_bits
from lenslat.oracle import DEFAULT_BUDGET
from records import check_record


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


def test_verify_corrupted_binomial_reports_smallest_h(monkeypatch, capsys):
    # negative control: break the out-of-range convention and the formula
    # must diverge from the enumeration at the smallest affected norm
    monkeypatch.setattr("lenslat.spectra.binom", _corrupted_binom)
    cases = [(make_lens_space(2, (1, 1)), list(range(5)))]
    checks = verify_grid(cases, DEFAULT_BUDGET, deep=False)
    mismatches = [c for c in checks if not c.ok]
    assert mismatches
    assert mismatches[0].h == 0
    code, _ = _run(capsys, ["verify", "--p", "2", "--q", "1,1", "--h-max", "4"])
    assert code == 1


def test_verify_json_mismatches_keep_their_keys(monkeypatch, capsys):
    monkeypatch.setattr("lenslat.spectra.binom", _corrupted_binom)
    argv = ["verify", "--p", "2", "--q", "1,1", "--h-max", "4", "--format", "json"]
    code, text = _run(capsys, argv)
    assert code == 1
    first = json.loads(text)["mismatches"][0]
    assert list(first) == ["space", "h", "kind", "got", "expected"]
    record = CheckRecord(**first)
    check_record(record, "CheckRecord(space='L(2;1,1)', h=0, kind='count', got='8', expected='1')")
    assert not record.ok


def test_verify_budget_exceeded_exits_2(capsys):
    code = main(["verify", "--p", "2", "--q", "1,1", "--h", "6", "--oracle-budget", "1"])
    assert code == 2
    assert "shrink the grid" in capsys.readouterr().err


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command starts computing before refusing its input."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the input was refused")

    for name in ("numerator", "canonical_q_tuples", "make_lens_space"):
        monkeypatch.setattr(f"lenslat.cli.{name}", refuse)


@pytest.mark.parametrize("argv", [
    ["verify", "--p-max", "0"],
    ["verify", "--m", ""],
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
], ids=["argv0", "argv1", "argv2", "argv3", "argv4", "argv5", "argv6"])
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


def test_verify_grid_over_its_numerator_bits_is_refused_at_once(no_work, capsys):
    # about 1.5e5 symmetry classes, each a full degree-2p numerator:
    # 3.5e12 DP bits, refused before the first class is built
    start = time.perf_counter()
    assert main(["verify", "--p-max", "1000", "--m", "2", "--h-max", "2"]) == 2
    assert time.perf_counter() - start < 1
    assert "builds numerators over 100000000000 DP bits" in capsys.readouterr().err


def test_verify_grid_price_is_classes_times_numerator_bits(monkeypatch, capsys):
    # p in {1, 2}, m in {2, 3}: one class each, at 12 + 20 + 60 + 112 bits
    argv = ["verify", "--p-max", "2", "--h-max", "4"]
    monkeypatch.setattr("lenslat.cli.VERIFY_MAX_DP_BITS", 204)
    assert main(argv) == 0
    monkeypatch.setattr("lenslat.cli.VERIFY_MAX_DP_BITS", 203)
    assert main(argv) == 2
    assert "builds numerators over 203 DP bits" in capsys.readouterr().err


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
    assert (pairs, walked) == (1207, 253538)
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


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "lenslat", "nl", "--p", "2", "--q", "1,1", "--h", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "8\n"


def test_import_loads_no_dataclasses_inspect_or_typing():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import lenslat.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_parity_cli_rejects_negative_i_max(capsys):
    code = main(["parity", "--p", "2", "--q", "1,1", "--i-max", "-1"])
    assert code == 2


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


def _census_main():
    path = Path(__file__).resolve().parent.parent / "scripts" / "isospectral_search.py"
    spec = importlib.util.spec_from_file_location("isospectral_search", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_census_script_finds_ikeda_pair(capsys):
    assert _census_main()(["--p", "11", "--m", "3", "--i-max", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p = 11, m = 3: 7 symmetry classes, comparing degrees 0..16\n")
    assert "family of 2: L(11;1,2,3)  L(11;1,2,4)\n" in out


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
])
def test_verify_stdout_is_pinned(argv, digest, capsys):
    # every row, in the oracle's enumeration order: the walk and the fold may
    # get faster, but not reorder, drop or add a check
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
