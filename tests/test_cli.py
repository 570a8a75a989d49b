import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import SRC, run_child
from test_acceptance import PINNED_SHA256

from epp_lab import cli, kraus, protocols, sampling, verify, vidal
from epp_lab.cli import DEFAULT_SEED, MAX_F_GRID, SEED_ENV_VAR, build_parser, main


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


@pytest.mark.parametrize("argv", [["--lambda", "1e-300"], ["--state", "1 0 0 1e-100"],
                                  ["--state", "1 0 0 1e-20"]])
def test_bounds_undefined_below_the_stage_floor(capsys, argv):
    """bounds and simulate share one stage-failure floor, protocols.ZERO_PROB:
    where kalman_stage1_prob is positive but below it, bounds prints stage 2
    undefined and exits 0, as simulate reports stage 1's output undefined."""
    code, out, _ = run_cli(capsys, "bounds", *argv)
    report = parse_report(out)
    assert code == 0
    assert 0.0 < float(report["kalman_stage1_prob"]) < protocols.ZERO_PROB
    assert report["kalman_stage2_prob"] == "undefined"
    code, out, _ = run_cli(capsys, "simulate", *argv)
    assert code == 0 and parse_report(out)["stage1_output"] == "undefined"


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_bounds_exits_0_on_every_lambda(lam):
    """Every --lambda in (0, 1), the subnormal ones included, gets a report and exit 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["bounds", "--lambda", repr(lam)]) == 0
    p2 = parse_report(stdout.getvalue())["kalman_stage2_prob"]
    assert p2 == "undefined" or 0.0 <= float(p2) <= 1.0


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
    """Exit 2 with the library's own message: a non-finite entry is not blamed
    on the constraint and names the one of a and b that holds it, and |a|^4
    beyond the float range is no OverflowError."""
    for a, b, message in [("nan", "0.5", "expected a as"), ("0.5", "inf,0", "expected b as"),
                          ("1", "1", "is not valid"), ("1e200", "0.5", "must be finite"),
                          ("0.5", "0,1e100", "must be finite")]:
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--lambda", "0.75", "--a", a, "--b", b])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid Kraus parameters: " in err and message in err
        assert ("non-finite entry" in err) == message.startswith("expected")


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


def test_f_grid_makes_one_region_call_per_row(count_calls):
    """Each |a| row of f-grid is one region call, which converts a and b once each."""
    regions, conversions = count_calls(cli, "region"), count_calls(kraus, "_as_array")
    lines = "".join(cli._f_grid_blocks(30)).splitlines()
    assert len(lines) == 1 + 30 * 30
    assert len(regions) == 30 and len(conversions) == 2 * 30


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's unit")
def test_f_grid_memory_is_flat_in_grid():
    """16 times the rows must not cost more than a few MB: the CSV is written
    one |a| row at a time, never held whole (about 0.23 KB a line)."""
    runs = [run_child("-m", "epp_lab", "f-grid", "--grid", str(n), stdout=subprocess.DEVNULL)
            for n in (100, 400)]
    assert [proc.returncode for proc, _ in runs] == [0, 0]
    (_, small), (_, large) = runs
    assert large - small <= 5.0, (small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's unit")
def test_vidal_curve_memory_is_flat_in_grid():
    """100 times the rows must not cost more than a few MB: the CSV is written
    1024 lines at a time, never held whole (about 0.2 KB a line)."""
    runs = [run_child("-m", "epp_lab", "vidal-curve", "--grid", str(n),
                      stdout=subprocess.DEVNULL) for n in (400, 40_000)]
    assert [proc.returncode for proc, _ in runs] == [0, 0]
    (_, small), (_, large) = runs
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


# -------------------------------------------------------------------- seeds

SEEDED = [["haar-average", "--samples", "10"], ["verify"]]


def set_seed_env(monkeypatch, env):
    """EPP_LAB_SEED set to env, or unset for None."""
    if env is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env)


@pytest.fixture
def seed_in_effect(capsys, monkeypatch):
    """Run a seeded command under EPP_LAB_SEED = env and return its echoed seed;
    verify's suite is stubbed, since only its seed is read."""
    monkeypatch.setattr(verify, "run_all", lambda seed, corrupt_kraus: [])

    def run(argv, env):
        set_seed_env(monkeypatch, env)
        main(argv)
        return parse_report(capsys.readouterr().out)["seed"]
    return run


@pytest.mark.parametrize("argv", SEEDED)
@pytest.mark.parametrize("env, flag, expected", [
    (None, [], str(DEFAULT_SEED)),
    ("777", [], "777"),
    (None, ["--seed", "5"], "5"),
    ("777", ["--seed", "5"], "5"),
    ("junk", ["--seed", "5"], "5"),  # a flag leaves EPP_LAB_SEED unparsed
    ("0", [], "0"),
    (str(2**64 - 1), [], str(2**64 - 1)),
])
def test_flag_beats_env_beats_default(seed_in_effect, argv, env, flag, expected):
    assert seed_in_effect(argv + flag, env) == expected


@pytest.mark.parametrize("argv", SEEDED)
@pytest.mark.parametrize("value", ["-1", str(2**64), "1.5", "junk", ""])
def test_bad_seed_is_the_same_usage_error_from_flag_or_env(argv, value, capsys, monkeypatch):
    errors = []
    for env, flag in ((None, ["--seed=" + value]), (value, [])):
        set_seed_env(monkeypatch, env)
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err.splitlines()[-1])
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"epp-lab {argv[0]}: error: argument --seed: ")
    if value in ("-1", str(2**64)):
        assert errors[0].endswith(f"seed must be an integer at least 0 and at most "
                                  f"{2**64 - 1}, got {value}")


@pytest.mark.parametrize("argv", [
    ["bounds", "--lambda", "0.7"],
    ["simulate", "--lambda", "0.7"],
    ["vidal-curve", "--grid", "2"],
    ["f-grid", "--grid", "2"],
])
def test_unseeded_commands_ignore_env_seed(argv, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code, expected, _ = run_cli(capsys, *argv)
    monkeypatch.setenv(SEED_ENV_VAR, "junk")
    assert run_cli(capsys, *argv) == (code, expected, "")
    assert code == 0


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
        ["vidal-curve", "--grid", str(vidal.MAX_GRID + 1)],
        ["f-grid", "--grid", str(MAX_F_GRID + 1)],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("where", ["missing-directory", "a-directory", "empty"])
@pytest.mark.parametrize("command", ["verify", "vidal-curve", "f-grid"])
def test_out_into_missing_directory_is_usage_error(command, where, tmp_path, capsys):
    """An --out that names no file in an existing directory is refused by open
    before any work: exit 2 with a usage message, nothing on stdout."""
    target = {"missing-directory": str(tmp_path / "missing" / "out"),
              "a-directory": str(tmp_path), "empty": ""}[where]
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", target])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "cannot open --out" in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["verify", "vidal-curve", "f-grid"])
def test_out_that_cannot_be_opened_is_usage_error(command, tmp_path, monkeypatch, capsys):
    """--out is opened before any work: a file the system will not open is exit 2
    with one error line, no traceback, and no criterion line from verify."""
    target = str(tmp_path / "out")
    real_open = open

    def refusing_open(path, *args, **kwargs):
        if path == target:
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refusing_open, raising=False)
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", target])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"epp-lab: error: cannot open --out {target!r}: Permission denied"]
    assert "Traceback" not in captured.err
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
    (["vidal-curve", "--grid={v}"], None, ["1", "0", "-4", str(vidal.MAX_GRID + 1)]),
    (["f-grid", "--grid={v}"], None, ["1", "-1", str(MAX_F_GRID + 1)]),
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

def test_package_import_loads_no_numpy():
    """`python -m epp_lab` runs epp_lab/__init__ before the CLI, so it must
    not load numpy before cli.py has set OPENBLAS_NUM_THREADS."""
    proc, _ = run_child("-c", "import sys, epp_lab; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "False"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_defaults_to_one_blas_thread(preset, expected):
    """The CLI asks OpenBLAS for one thread unless the user chose a number."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc, _ = run_child(
        "-c", "import os, epp_lab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == expected


def test_cli_freezes_the_collector_at_exit():
    """Importing the CLI registers gc.freeze as an exit handler, so the final
    collections of interpreter shutdown skip the objects numpy and scipy
    leave.  atexit runs handlers last in, first out: a probe registered
    before the import runs after the freeze."""
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "import epp_lab.cli")
    proc, _ = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "True"


def test_frozen_exit_keeps_files_and_stdout(tmp_path, capsys):
    """A cold child exits frozen and still writes the pinned --out file and
    stdout bytes; haar-average in unknown-basis mode also loads scipy."""
    curve, path = ("vidal-curve", "--grid", "3000"), tmp_path / "curve.csv"
    assert run_child("-m", "epp_lab", *curve, "--out", str(path))[0].returncode == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[curve]
    grid = ("f-grid", "--grid", "400")
    proc, _ = run_child("-m", "epp_lab", *grid)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_SHA256[grid]
    haar = ("haar-average", "--mode", "unknown-basis", "--samples", "1000", "--seed", "3")
    proc, _ = run_child("-m", "epp_lab", *haar)
    assert main(list(haar)) == 0
    assert proc.returncode == 0 and proc.stdout.decode() == capsys.readouterr().out


def test_frozen_exit_keeps_exit_codes(tmp_path):
    """Verification failure is still exit 1 and a usage error exit 2."""
    corrupt, path = ("verify", "--seed", "42", "--corrupt-kraus"), tmp_path / "verify.json"
    assert run_child("-m", "epp_lab", *corrupt, "--out", str(path))[0].returncode == 1
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[corrupt]
    proc, _ = run_child("-m", "epp_lab", "bounds", "--lambda", "1.5")
    assert proc.returncode == 2 and b"lambda must lie strictly between" in proc.stderr


@pytest.mark.parametrize("argv, buffered", [
    (("vidal-curve", "--grid", "5000"), False),
    (("simulate", "--lambda", "0.7"), False),
    (("simulate", "--lambda", "0.7"), True),
], ids=["vidal-curve", "simulate", "simulate-buffered"])
def test_closed_stdout_exits_141_without_a_traceback(argv, buffered):
    """A reader that closes stdout before the command writes, as `| head`
    can, ends the command with exit 141, the shell's status for SIGPIPE,
    and nothing on stderr.  A buffered stdout meets the closed pipe only
    when it is flushed, an unbuffered one at the first write."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc, _ = run_child("-m", "epp_lab", *argv, env=env, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
FULL_DISK = b"epp-lab: error: cannot write the output: No space left on device\n"


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("verify", "--seed", "1", "--out", "/dev/full"),
    ("vidal-curve", "--grid", "5", "--out", "/dev/full"),
    ("f-grid", "--grid", "5", "--out", "/dev/full"),
    ("bounds", "--lambda", "0.7"),
    ("simulate", "--lambda", "0.7"),
], ids=lambda argv: argv[0] + ("-out" if "--out" in argv else "-stdout"))
def test_failed_write_exits_74_with_one_error_line(argv, unbuffered, tmp_path):
    """A write that fails for any reason but a closed pipe, here a full disk
    behind --out or behind stdout, ends the command with exit 74 (EX_IOERR)
    and one error line, whether stdout is buffered or not.  stdout is flushed
    before --out is closed, so verify's report still reaches its reader whole."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    stdout = "/dev/full" if "--out" not in argv else tmp_path / "stdout.txt"
    with open(stdout, "wb") as fh:
        proc, _ = run_child("-m", "epp_lab", *argv, env=env, stdout=fh)
    assert (proc.returncode, proc.stderr) == (74, FULL_DISK)
    if argv[0] == "verify":
        report = stdout.read_text().splitlines()
        assert report[0] == "seed = 1" and report[-1] == f"all {len(report) - 2} checks passed"


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ("vidal-curve", "--grid", "5", "--out", "/dev/full"),
    ("verify", "--seed", "1", "--out", "/dev/full"),
], ids=["vidal-curve", "verify"])
def test_failed_write_without_stdout_fd_exits_74(argv, capsys, count_calls):
    """In-process, under a stdout with no file descriptor (pytest's capture,
    as under contextlib.redirect_stdout), a failed write still ends the
    command with 74 and one error line: there is no fd 1 to send to devnull,
    so no devnull descriptor is opened."""
    opened = count_calls(os, "open")
    assert main(list(argv)) == 74
    assert opened == []
    assert capsys.readouterr().err == FULL_DISK.decode()


@pytest.mark.parametrize("argv", [
    ("vidal-curve", "--grid", "5", "--out", "{out}"),
    ("bounds", "--lambda", "0.7"),
], ids=["vidal-curve-out", "bounds"])
def test_closed_fd_1_discards_stdout_and_exits_0(argv, tmp_path, capsys):
    """With fd 1 closed before the interpreter starts there is no sys.stdout:
    the command discards what it prints, as print does, still writes --out,
    and exits 0 with nothing on stderr."""
    path = tmp_path / "curve.csv"
    argv = [arg.format(out=path) for arg in argv]
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m epp_lab "$@" >&-', sys.executable, *argv],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if "--out" in argv:
        assert main(["vidal-curve", "--grid", "5"]) == 0
        assert path.read_text() == capsys.readouterr().out
        assert len(path.read_text().splitlines()) == 6


# epp_lab modules each cold command loads beyond those of `import epp_lab.cli`
COLD_IMPORTS = {
    (): set(),
    ("bounds", "--lambda", "0.3"): {"protocols"},
    ("simulate", "--lambda", "0.7"): {"protocols"},
    ("vidal-curve", "--grid", "3"): {"vidal"},
    ("f-grid", "--grid", "2"): set(),
    ("haar-average", "--mode", "known-basis", "--samples", "10"): {"protocols", "sampling"},
}


@pytest.mark.parametrize("argv", COLD_IMPORTS, ids=lambda argv: argv[0] if argv else "import")
def test_each_command_imports_only_what_it_runs(argv):
    """A cold command loads the library modules it runs and no other: the CLI
    itself needs kraus and linalg to parse.  No command here loads scipy* or
    concurrent*: scipy.special alone costs ~0.4 s and ~24 MB, and only
    Gaussian draws need it; concurrent.futures costs 6-8 ms, and the Monte
    Carlo helper thread uses threading, which numpy already loads.  Nor does
    any load fractions, which only exact Dirichlet moments need (~0.4 MB with
    decimal), or numpy.polynomial: the known-basis quadrature takes its
    Gauss-Legendre rule in closed form."""
    report = ("print(sorted(m for m in sys.modules if m.partition('.')[0] == 'epp_lab'), "
              "sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'concurrent'}), "
              "sorted(set(sys.modules) & {'fractions', 'numpy.polynomial'}))")
    run = f"epp_lab.cli.main({list(argv)!r})" if argv else ""
    proc, _ = run_child("-c", f"import sys, epp_lab.cli\n{run}\n{report}")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().strip().splitlines()
    modules = {"epp_lab", "epp_lab.cli", "epp_lab.kraus", "epp_lab.linalg"}
    modules |= {f"epp_lab.{name}" for name in COLD_IMPORTS[argv]}
    assert lines[-1] == f"{sorted(modules)} [] []"
    # the command ran: it printed before the report
    assert (len(lines) > 1) == bool(argv)


def test_unknown_basis_child_loads_no_exact_rationals():
    """A cold unknown-basis haar-average loads scipy.special for its Gaussian
    draws, but neither fractions nor the decimal it pulls in (~0.45 MB):
    2/105 is taken from integer factorials by one int / int division."""
    argv = ["haar-average", "--mode", "unknown-basis", "--samples", "10"]
    report = "print(sorted(set(sys.modules) & {'scipy.special', 'fractions', 'decimal'}))"
    proc, _ = run_child("-c", f"import sys, epp_lab.cli\nepp_lab.cli.main({argv!r})\n{report}")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().strip().splitlines()
    assert "analytic = 0.01904761904761905" in lines
    assert lines[-1] == "['scipy.special']"


# sha256 of each --help text at 80 columns; loading modules later must not change it
HELP_SHA256 = {
    (): "ab406c7dfb2d07fce7d10edd7431f8b9a8e0b7402b57230b5732f8269363fe90",
    ("bounds",): "842934261359b0f21a14345be5c36e3ca5e89ccb450b23b70c0879aeeec45d06",
    ("simulate",): "cd54aad04350afeaf6a5ca8575cd80b1c9a3ea8ca336599766dcf5a5ea22bd00",
    ("vidal-curve",): "48cfd89bccaaa7286ec44962b3b2ddf9a9dfb38c93b40aac3bc3bbd75d3531a6",
    ("f-grid",): "a4762782724c904d360ef9fce1a2f298d9f0d9a89083307cd32b53de881d5df4",
    ("haar-average",): "195d9c8b5f16ec385197deefb3fd86800ee00619d7bc37b8a52d58ea99614c18",
    ("verify",): "4ac7a441c20c295fb88a534e91891c6a54856eb55b83fe98fe112bc89cf652eb",
}


@pytest.mark.parametrize("command", HELP_SHA256, ids=lambda c: c[0] if c else "epp-lab")
def test_help_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]
