import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epp_lab
from epp_lab import sampling, verify
from epp_lab.cli import DEFAULT_SEED, SEED_ENV_VAR, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out: str) -> dict:
    """'key = value' lines into a dict; later duplicates would overwrite."""
    report = {}
    for line in out.strip().splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            report[key] = value
    return report


# -------------------------------------------------------------------- bounds

def test_bounds_symmetric_state(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--state", "0.5 0.5 0.5 0.5")
    report = parse_report(out)
    assert code == 0
    # middle amplitudes are nonzero, so no Schmidt-pair line
    assert "schmidt_pair_bound" not in report
    assert float(report["schmidt_conversion_bound"]) == pytest.approx(0.5, abs=1e-12)
    assert float(report["four_copy_bell_bound"]) == pytest.approx(0.0, abs=1e-12)
    assert float(report["kalman_stage1_prob"]) == pytest.approx(0.25, abs=1e-12)
    assert float(report["kalman_stage2_prob"]) == pytest.approx(0.0, abs=1e-12)


def test_bounds_bell_input(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--lambda", "0.5")
    report = parse_report(out)
    assert code == 0
    assert float(report["schmidt_pair_bound"]) == pytest.approx(0.5, abs=1e-12)
    assert float(report["four_copy_bell_bound"]) == pytest.approx(0.125, abs=1e-12)


def test_bounds_product_state_undefined_stage2(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--state", "1 0 0 0")
    report = parse_report(out)
    assert code == 0
    assert float(report["kalman_stage1_prob"]) == 0.0
    assert report["kalman_stage2_prob"] == "undefined"


# ------------------------------------------------------------------ simulate

def test_simulate_schmidt_input(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--lambda", "0.75")
    report = parse_report(out)
    assert code == 0
    assert float(report["stage1_prob"]) == pytest.approx(0.375, abs=1e-12)
    probs = [float(t) for t in report["stage_probs"].split()]
    assert probs == pytest.approx([0.375, 0.375, 0.5], abs=1e-12)
    assert float(report["pipeline_prob"]) == pytest.approx(0.375**2 * 0.5, abs=1e-12)
    assert float(report["bell_fidelity"]) == pytest.approx(1.0, abs=1e-12)


def test_simulate_custom_params(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--lambda", "0.75", "--a", "0.6", "--b", "0.4"
    )
    report = parse_report(out)
    assert code == 0
    assert report["a"] == repr(complex(0.6))
    # alpha' = 2 a^2 c1 c4, beta' = 2 b^2 c1 c4 with c1 c4 = sqrt(3)/4
    c1c4 = math.sqrt(0.75 * 0.25)
    p1 = (2 * 0.6**2 * c1c4) ** 2 + (2 * 0.4**2 * c1c4) ** 2
    assert float(report["stage1_prob"]) == pytest.approx(p1, abs=1e-12)


def test_simulate_product_input_undefined(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--state", "0 1 0 0")
    report = parse_report(out)
    assert code == 0
    assert float(report["pipeline_prob"]) == 0.0
    assert report["pipeline_output"] == "undefined"
    assert "bell_fidelity" not in report


def test_simulate_product_stage1_output_reports_zero_success(capsys):
    """A near-degenerate pair flags the stage-1 output as product; the pipeline
    output is undefined and its success probability is zero, not float dust."""
    code, out, _ = run_cli(capsys, "simulate", "--lambda", "0.7", "--a", "1e-4", "--b", "0.7")
    report = parse_report(out)
    assert code == 0
    assert report["pipeline_output"] == "undefined"
    assert report["pipeline_prob"] == "0.0"
    assert report["stage_probs"].split()[2] == "0.0"
    assert float(report["stage1_prob"]) > 0.0


def test_simulate_notes_nonphysical_params(capsys):
    """A valid pair beyond max(|a|, |b|) = sqrt(2)/2 gets a stderr note; stdout
    and the exit code stay as they are."""
    state = "0 0.7071067811865476 0.7071067811865476 0"
    code, out, err = run_cli(capsys, "simulate", "--state", state, "--a", "0.84", "--b", "0.1")
    assert code == 0
    assert "not a contraction" in err
    assert float(parse_report(out)["stage1_prob"]) > 0.0
    code, _, err = run_cli(capsys, "simulate", "--state", state)
    assert code == 0
    assert err == ""


def test_simulate_rejects_invalid_params(capsys):
    # |a|^4 beyond the float range is a usage error too, not an OverflowError
    for a, b in [("1", "1"), ("1e200", "0.5"), ("0.5", "0,1e100")]:
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--lambda", "0.75", "--a", a, "--b", b])
        assert exc.value.code == 2


# --------------------------------------------------------------------- csvs

def test_vidal_curve_csv(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "vidal-curve", "--grid", "40", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lambda,p_vidal,p_universal"
    rows = [tuple(float(t) for t in line.split(",")) for line in lines[1:]]
    assert len(rows) == 40
    breakpoint_lam = 1.0 / math.sqrt(2.0)
    for k, (lam, p_v, p_u) in enumerate(rows, start=1):
        assert lam == pytest.approx(0.5 + 0.5 * k / 41.0, abs=1e-15)
        assert p_u == pytest.approx(2.0 * lam * (1.0 - lam), abs=1e-12)
        expected_v = 1.0 if lam < breakpoint_lam else 2.0 * (1.0 - lam**2)
        assert p_v == pytest.approx(expected_v, abs=1e-12)
        assert p_v > p_u


def test_vidal_curve_stdout(capsys):
    code, out, _ = run_cli(capsys, "vidal-curve", "--grid", "3")
    assert code == 0
    assert out.splitlines()[0] == "lambda,p_vidal,p_universal"
    assert len(out.strip().splitlines()) == 4


def test_f_grid_csv(tmp_path, capsys):
    path = tmp_path / "fgrid.csv"
    code, _, _ = run_cli(capsys, "f-grid", "--grid", "8", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "abs_a,abs_b,valid,f,physical"
    assert len(lines) == 1 + 64
    n_physical = 0
    for line in lines[1:]:
        a_s, b_s, valid_s, f_s, physical_s = line.split(",")
        a, b, f = float(a_s), float(b_s), float(f_s)
        expect_valid = (
            2.0 * (a**4 + b**4) <= 1.0 + 1e-12 and not (a == 0.0 and b == 0.0)
        )
        assert int(valid_s) == int(expect_valid)
        assert f == pytest.approx(2.0 * abs(a**4 - b**4), abs=1e-12)
        expect_physical = expect_valid and max(a, b) <= math.sqrt(2.0) / 2.0
        assert int(physical_s) == int(expect_physical)
        n_physical += expect_physical
    # grid 8 has valid points beyond sqrt(2)/2 (|a| = 5/7, b = 0) that are not physical
    assert 0 < n_physical < sum(line.split(",")[2] == "1" for line in lines[1:])


def test_f_grid_stdout_equals_out_file(tmp_path, capsys):
    path = tmp_path / "fgrid.csv"
    run_cli(capsys, "f-grid", "--grid", "9", "--out", str(path))
    _, out, _ = run_cli(capsys, "f-grid", "--grid", "9")
    assert out == path.read_text()


def grid_peak_rss_mb(command: str, grid: int) -> float:
    """Peak RSS of one `vidal-curve` or `f-grid` child writing its CSV to stdout, from wait4."""
    src = Path(epp_lab.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "epp_lab", command, "--grid", str(grid)],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024  # KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's unit")
def test_f_grid_memory_is_flat_in_grid():
    """16 times the rows must not cost more than a few MB: the CSV is written
    one |a| row at a time, never held whole (about 0.23 KB a line)."""
    small, large = grid_peak_rss_mb("f-grid", 100), grid_peak_rss_mb("f-grid", 400)
    assert large - small <= 5.0, (small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's unit")
def test_vidal_curve_memory_is_flat_in_grid():
    """100 times the rows must not cost more than a few MB: the CSV is written
    1024 lines at a time, never held whole (about 0.2 KB a line)."""
    small, large = grid_peak_rss_mb("vidal-curve", 400), grid_peak_rss_mb("vidal-curve", 40_000)
    assert large - small <= 5.0, (small, large)


def test_csv_floats_round_trip(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    run_cli(capsys, "vidal-curve", "--grid", "5", "--out", str(path))
    for line in path.read_text().strip().splitlines()[1:]:
        lam_s = line.split(",")[0]
        k = round((float(lam_s) - 0.5) * 6.0 / 0.5)
        assert repr(0.5 + 0.5 * k / 6.0) == lam_s


# ------------------------------------------------------------- haar-average

def test_haar_average_default_seed(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code, out, _ = run_cli(capsys, "haar-average", "--samples", "2000")
    report = parse_report(out)
    assert code == 0
    assert report["seed"] == str(DEFAULT_SEED)
    assert report["mode"] == "known-basis"
    assert report["agreement_4_sigma"] == "PASS"
    assert float(report["analytic"]) == pytest.approx(0.2, abs=1e-8)


def test_haar_average_env_seed(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "777")
    code, out, _ = run_cli(capsys, "haar-average", "--samples", "2000")
    assert code == 0
    assert parse_report(out)["seed"] == "777"


def test_haar_average_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "777")
    code, out, _ = run_cli(capsys, "haar-average", "--samples", "2000", "--seed", "5")
    assert code == 0
    assert parse_report(out)["seed"] == "5"


def test_haar_average_unknown_basis(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code, out, _ = run_cli(
        capsys, "haar-average", "--mode", "unknown-basis", "--samples", "3000"
    )
    report = parse_report(out)
    assert code == 0
    assert float(report["analytic"]) == pytest.approx(2.0 / 105.0, abs=1e-15)
    assert report["agreement_4_sigma"] == "PASS"


def test_haar_average_single_sample_std_error(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code, out, _ = run_cli(capsys, "haar-average", "--samples", "1")
    report = parse_report(out)
    assert report["mc_std_error"] == "undefined"
    # a single draw will not hit the analytic mean exactly
    assert code == 1
    assert report["agreement_4_sigma"] == "FAIL"


def test_bad_env_seed_is_usage_error(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "junk")
    with pytest.raises(SystemExit) as exc:
        main(["haar-average", "--samples", "10"])
    assert exc.value.code == 2


# --------------------------------------------------------------- bad inputs

@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--state", "0.6 0 0 0.9"],       # badly unnormalized
        ["bounds", "--state", "1 0 0"],              # wrong arity
        ["bounds", "--lambda", "1.5"],               # out of range
        ["bounds", "--lambda", "0.5", "--state", "1 0 0 0"],  # mutually exclusive
        ["bounds"],                                  # neither input given
        ["simulate", "--lambda", "0.7", "--a", "x"],
        ["vidal-curve", "--grid", "1"],
        ["f-grid", "--grid", "1"],
        ["haar-average", "--samples", "0"],
        ["haar-average", "--seed", "-3"],
        ["haar-average", "--seed", str(2**64)],
        ["no-such-command"],
        ["bounds", "--state", "nan 0 0 1"],          # NaN norm passes |norm-1| > tol
        ["simulate", "--lambda", "0.7", "--a", "nan", "--b", "0.5"],
        # rejected before any sample is drawn
        ["haar-average", "--samples", str(sampling.MAX_SAMPLES + 1)],
        ["haar-average", "--samples", "100000000000000000000"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("where", ["missing-directory", "a-directory", "empty"])
@pytest.mark.parametrize("command", ["verify", "vidal-curve", "f-grid"])
def test_out_into_missing_directory_is_usage_error(command, where, tmp_path, capsys):
    """An --out that names no file in an existing directory is rejected before
    any work: exit 2 with a usage message, nothing on stdout."""
    target = {"missing-directory": str(tmp_path / "missing" / "out"),
              "a-directory": str(tmp_path), "empty": ""}[where]
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", target])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "existing directory" in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_out_file_name_alone_writes_to_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["vidal-curve", "--grid", "2", "--out", "curve.csv"]) == 0
    assert (tmp_path / "curve.csv").read_text().startswith("lambda,p_vidal,p_universal\n")


NON_FINITE = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400"]

# (command line with {v} where the value goes, EPP_LAB_SEED value or None,
#  out-of-range values for that slot); non-finite values are tried in every slot
FUZZ_SLOTS = [
    (["bounds", "--state={v} 0 0 0.6"], None, ["0.9", "2"]),
    (["simulate", "--state=0.6 0 {v} 0.8"], None, ["0.5"]),
    (["bounds", "--lambda={v}"], None, ["0", "1", "-0.5", "1.5"]),
    (["simulate", "--lambda={v}"], None, ["0", "1"]),
    (["simulate", "--lambda=0.7", "--a={v}"], None, ["0.9", "0,0.95"]),
    (["simulate", "--lambda=0.7", "--b={v},0.1"], None, ["2"]),
    (["vidal-curve", "--grid={v}"], None, ["1", "0", "-4"]),
    (["f-grid", "--grid={v}"], None, ["1", "-1"]),
    (["haar-average", "--samples={v}"], None, ["0", "-5"]),
    (["haar-average", "--samples=10", "--seed={v}"], None, ["-1", "1.5", str(2**64)]),
    (["verify", "--seed={v}"], None, ["-1", str(2**64)]),
    (["haar-average", "--samples=10"], "{v}", ["-1", "1.5", str(2**64)]),
    (["verify"], "{v}", ["-1"]),
]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_fuzz_bad_numbers_exit_2(data):
    """Non-finite or out-of-range numbers in any numeric slot are usage errors, never a nan."""
    template, env, out_of_range = data.draw(st.sampled_from(FUZZ_SLOTS))
    value = data.draw(st.sampled_from(NON_FINITE + out_of_range))
    argv = [arg.format(v=value) for arg in template]
    environ = {} if env is None else {SEED_ENV_VAR: env.format(v=value)}
    stdout = io.StringIO()
    with mock.patch.dict(os.environ, environ), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "nan" not in stdout.getvalue().lower()


def test_slightly_denormalized_state_warns_and_renormalizes(capsys):
    code, out, err = run_cli(capsys, "bounds", "--state", "0.600000001 0 0 0.8")
    assert code == 0
    assert "renormalizing" in err
    report = parse_report(out)
    # after renormalization the Schmidt-pair bound is 2 lam (1-lam) at lam = 0.36
    assert float(report["schmidt_pair_bound"]) == pytest.approx(
        2.0 * 0.36 * 0.64, abs=1e-8
    )


# ------------------------------------------------------------------- verify

def test_verify_parser_accepts_hidden_flag():
    args = build_parser().parse_args(["verify", "--corrupt-kraus", "--seed", "1"])
    assert args.corrupt_kraus is True
    assert args.seed == 1


def test_corrupt_kraus_hook_fails_kill_vectors():
    rows = verify.criterion_03(42, corrupt_kraus=True)
    kill_row = next(r for r in rows if r.criterion == "c03-kill-vectors")
    assert not kill_row.passed
    clean = verify.criterion_03(42, corrupt_kraus=False)
    assert all(r.passed for r in clean)


# ---------------------------------------------------------------- cold start

def test_cold_import_skips_scipy_integrate():
    """The CLI's cold start loads no scipy module at all: scipy.special alone
    costs ~0.4 s and ~24 MB, and only Gaussian draws need it.  Nor does it
    load concurrent.futures (6-8 ms); the Monte Carlo helper thread uses
    threading, which numpy already loads.  Neither the import nor a bounds
    run, each in a fresh child, may load scipy* or concurrent*."""
    src = str(Path(epp_lab.__file__).resolve().parent.parent)
    report = "print([m for m in sys.modules if m.partition('.')[0] in ('scipy', 'concurrent')])"
    for run in ("", "epp_lab.cli.main(['bounds', '--lambda', '0.3'])"):
        code = f"import sys, epp_lab.cli\n{run}\n{report}"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip().splitlines()[-1] == "[]"
        assert ("four_copy_bell_bound = " in out) == bool(run)


def test_package_import_loads_no_numpy():
    """`python -m epp_lab` runs epp_lab/__init__ before the CLI, so it must
    not load numpy before cli.py has set OPENBLAS_NUM_THREADS."""
    src = str(Path(epp_lab.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, epp_lab; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_defaults_to_one_blas_thread(preset, expected):
    """The CLI asks OpenBLAS for one thread unless the user chose a number."""
    src = str(Path(epp_lab.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run(
        [sys.executable, "-c", "import os, epp_lab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env={**env, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == expected
