import json
import subprocess
import sys

import pytest

from lenslat import make_lens_space, multiplicity, numerator
from lenslat.cli import (
    BENCH_DEFAULT_BUDGET,
    BUDGET_ENV_VAR,
    RunConfig,
    canonical_q_tuples,
    main,
    run_bench,
    run_compare,
    run_gamma,
    run_nl,
    run_parity,
    run_spectrum,
    run_verify,
    verify_grid,
)


# ---------------------------------------------------------------- spectrum


def test_spectrum_csv_exact():
    text, code = run_spectrum(RunConfig(command="spectrum", p=2, q=(1, 1), i_max=2))
    assert code == 0
    assert text == "i,eigenvalue,multiplicity\n0,0,1\n1,3,0\n2,8,9\n"


def test_spectrum_sphere_csv():
    text, _ = run_spectrum(RunConfig(command="spectrum", p=1, q=(1, 1), i_max=1))
    assert text == "i,eigenvalue,multiplicity\n0,0,1\n1,3,4\n"


def test_spectrum_json_roundtrip():
    config = RunConfig(command="spectrum", p=6, q=(1, 5), i_max=8, fmt="json")
    text, code = run_spectrum(config)
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


def test_output_is_deterministic():
    config = RunConfig(command="spectrum", p=5, q=(1, 2), i_max=10)
    assert run_spectrum(config) == run_spectrum(config)


# --------------------------------------------------------------- nl, gamma


def test_nl_plain_value(capsys):
    assert main(["nl", "--p", "2", "--q", "1,1", "--h", "0"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_nl_json():
    text, _ = run_nl(RunConfig(command="nl", p=2, q=(1, 1), h=2, fmt="json"))
    assert json.loads(text) == {"p": 2, "q": [1, 1], "h": 2, "count": "8"}


def test_gamma_default_full_subset():
    text, _ = run_gamma(RunConfig(command="gamma", p=3, q=(1, 1), s=3))
    assert text == "4\n"


def test_gamma_explicit_subsets():
    single, _ = run_gamma(RunConfig(command="gamma", p=3, q=(1, 1), s=0, subset=(1,)))
    assert single == "1\n"
    empty, _ = run_gamma(RunConfig(command="gamma", p=3, q=(1, 1), s=0, subset=()))
    assert empty == "1\n"


def test_gamma_subset_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        run_gamma(RunConfig(command="gamma", p=3, q=(1, 1), s=0, subset=(3,)))


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


def test_compare_json_equal():
    config = RunConfig(
        command="compare", p=2, q=(1, 1), p2=2, q2=(1, 1), i_max=5, fmt="json"
    )
    obj = json.loads(run_compare(config)[0])
    assert obj["equal"] is True
    assert obj["first_divergence"] is None


def test_compare_bad_spec():
    with pytest.raises(SystemExit) as err:
        main(["compare", "--a", "nonsense", "--b", "2:1,1", "--i-max", "2"])
    assert err.value.code == 2


# ------------------------------------------------------------------ parity


def test_parity_cli(capsys):
    assert main(["parity", "--p", "2", "--q", "1,1", "--i-max", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,multiplicity,parity_ok"
    for line in lines[1:]:
        assert line.endswith(",true")


# ------------------------------------------------------------------ verify


def test_verify_single_case_ok():
    config = RunConfig(command="verify", p=2, q=(1, 1), h=2)
    text, code = run_verify(config)
    assert code == 0
    assert '"L(2;1,1)",2,count,8,8,true' in text.splitlines()


def test_verify_small_grid_deep():
    config = RunConfig(command="verify", p_max=3, m_values=(2,), h_max=6, deep=True)
    report = verify_grid(config)
    assert report.mismatches == ()
    kinds = {c.kind for c in report.checks}
    assert kinds == {"count", "partition", "fiber_size", "fiber_cover"}


def test_verify_json_report():
    config = RunConfig(command="verify", p_max=2, h_max=4, fmt="json")
    text, code = run_verify(config)
    assert code == 0
    obj = json.loads(text)
    assert obj["mismatch_count"] == 0
    assert obj["cases"] == 4  # one canonical tuple per (p, m) in {1,2} x {2,3}


def test_verify_corrupted_binomial_reports_smallest_h(monkeypatch):
    # negative control: break the out-of-range convention and the formula
    # must diverge from the enumeration at the smallest affected norm
    import math

    def corrupted(pool, choose):
        if choose < 0 or pool < 0 or pool < choose:
            return 1
        return math.comb(pool, choose)

    monkeypatch.setattr("lenslat.spectra.binom", corrupted)
    config = RunConfig(command="verify", p=2, q=(1, 1), h_max=4)
    report = verify_grid(config)
    assert report.mismatches
    assert report.mismatches[0].h == 0
    _, code = run_verify(config)
    assert code == 1


def test_verify_budget_exceeded_exits_2(capsys):
    code = main(["verify", "--p", "2", "--q", "1,1", "--h", "6", "--oracle-budget", "1"])
    assert code == 2
    assert "shrink the grid" in capsys.readouterr().err


def test_env_var_overrides_budget(monkeypatch, capsys):
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    code = main(["verify", "--p", "2", "--q", "1,1", "--h", "6"])
    assert code == 2
    monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
    code = main(["verify", "--p", "2", "--q", "1,1", "--h", "6"])
    assert code == 2
    assert BUDGET_ENV_VAR in capsys.readouterr().err


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
def test_negative_oracle_budget_exits_2(argv, no_work, monkeypatch, capsys):
    assert main(argv) == 2
    assert "error: oracle budget must be non-negative" in capsys.readouterr().err
    monkeypatch.setenv(BUDGET_ENV_VAR, "-5")
    assert main(argv[:-2]) == 2


def test_canonical_q_tuples_dedupe():
    # (1,2), (1,3) and (2,1) collapse into one class mod 5
    tuples_m2 = canonical_q_tuples(5, 2)
    assert tuples_m2 == [(1, 1), (1, 2)]
    assert canonical_q_tuples(2, 3) == [(1, 1, 1)]
    assert canonical_q_tuples(1, 2) == [(1, 1)]


# ------------------------------------------------------------------- bench


def test_bench_rows_and_skips():
    config = RunConfig(
        command="bench", p=7, q=(1, 2, 3), h_max=5, oracle_budget=50
    )
    text, code = run_bench(config)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "h,formula_seconds,oracle_seconds"
    assert len(lines) == 7
    # 1-norm-h sphere in Z^3 has 4h^2 + 2 points: over budget from h = 4
    assert not any(line.endswith("skipped") for line in lines[1:4])
    assert all(line.endswith("skipped") for line in lines[5:])


def test_bench_json():
    config = RunConfig(
        command="bench", p=2, q=(1, 1), h_max=3, fmt="json",
        oracle_budget=BENCH_DEFAULT_BUDGET,
    )
    obj = json.loads(run_bench(config)[0])
    assert [row["h"] for row in obj["rows"]] == [0, 1, 2, 3]
    assert not any(row["skipped"] for row in obj["rows"])


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


def test_parity_cli_rejects_negative_i_max(capsys):
    code = main(["parity", "--p", "2", "--q", "1,1", "--i-max", "-1"])
    assert code == 2
