"""Workload definitions for the epp-lab benchmark: inputs and output checks.

A workload is a list of CLI invocations.  Every input is drawn from the
benchmark seed, so the same seed gives the same argument lists.  Each
invocation carries its own correctness check, which recomputes the expected
values from closed forms written here, independently of the package.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify", "haar-mc", "cli-sweep")

# the full sizes named by the workloads; "tiny" keeps the benchmark's own test fast
SIZES = {
    "full": {"mc_samples": 1_000_000, "vidal_grid": 400, "f_grid": 201, "sweep_samples": 10_000},
    "tiny": {"mc_samples": 2_000, "vidal_grid": 20, "f_grid": 11, "sweep_samples": 1_000},
}

CLOSED_FORM_TOL = 1e-12
SQRT_HALF = math.sqrt(2.0) / 2.0

# Check = (exit code, stdout bytes, {output name: bytes}) -> error message or None
Check = Callable[[int, bytes, dict], "str | None"]


@dataclass
class Invocation:
    """One `epp-lab` command line, the files it writes and how to check it."""

    label: str
    argv: list
    check: Check
    outputs: dict = field(default_factory=dict)  # output name -> path


def _report(stdout: bytes) -> dict:
    """'key = value' lines into a dict."""
    out = {}
    for line in stdout.decode().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _close(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= CLOSED_FORM_TOL:
        raise ValueError(f"{what}: got {got!r}, closed form {want!r}")


def _require_exit(code: int, want: int = 0) -> None:
    if code != want:
        raise ValueError(f"exit code {code}, expected {want}")


def _checked(fn) -> Check:
    """Turn a function that raises on a bad output into a Check."""

    def check(code, stdout, files):
        try:
            fn(code, stdout, files)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


# ------------------------------------------------------------------ inputs

def _rng(seed: int, workload: str) -> random.Random:
    # str seeds hash with sha512, so the stream is stable across platforms
    return random.Random(f"epp-lab-bench/{workload}/{seed}")


def _cli_seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _random_state(rng: random.Random) -> list:
    """Four complex amplitudes with every modulus bounded away from zero."""
    while True:
        amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
        norm = math.sqrt(math.fsum(abs(z) ** 2 for z in amps))
        amps = [z / norm for z in amps]
        if min(abs(z) for z in amps) > 0.05:
            return amps


def _random_params(rng: random.Random) -> tuple:
    """(a, b) with both moduli in [0.2, sqrt(2)/2], so 2(|a|^4+|b|^4) <= 1."""
    out = []
    for _ in range(2):
        r = rng.uniform(0.2, SQRT_HALF)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out.append(complex(r * math.cos(phi), r * math.sin(phi)))
    return tuple(out)


def _fmt_state(amps) -> str:
    return " ".join(repr(z) for z in amps)


def _fmt_complex(z: complex) -> str:
    # passed as --a=re,im: a leading minus would otherwise read as an option
    return f"{z.real!r},{z.imag!r}"


def _parse_state(text: str) -> list:
    return [complex(t) for t in text.split()]


# ------------------------------------------------------- closed-form checks

def _four_copy(c) -> float:
    return 2.0 * abs((c[0] * c[3]) ** 2 - (c[1] * c[2]) ** 2) ** 2


def check_bounds(lam: float | None) -> Check:
    def fn(code, stdout, files):
        _require_exit(code)
        r = _report(stdout)
        c = _parse_state(r["state"])
        if lam is not None:
            _close(abs(c[0]) ** 2, lam, "lambda")
            _close(float(r["schmidt_pair_bound"]), 2.0 * lam * (1.0 - lam), "schmidt_pair_bound")
        u, w = abs(c[0] * c[3]), abs(c[1] * c[2])
        _close(float(r["schmidt_conversion_bound"]), 2.0 * (u + w) ** 2, "schmidt_conversion_bound")
        _close(float(r["four_copy_bell_bound"]), _four_copy(c), "four_copy_bell_bound")
        p1 = 2.0 * (u * u + w * w)
        _close(float(r["kalman_stage1_prob"]), p1, "kalman_stage1_prob")
        _close(float(r["kalman_stage2_prob"]), _four_copy(c) / p1**2, "kalman_stage2_prob")

    return _checked(fn)


def check_simulate(a: complex, b: complex) -> Check:
    def fn(code, stdout, files):
        _require_exit(code)
        r = _report(stdout)
        c = _parse_state(r["state"])
        if complex(r["a"]) != a or complex(r["b"]) != b:
            raise ValueError(f"parameters echoed as ({r['a']}, {r['b']})")
        u = c[0] * c[3] + c[1] * c[2]
        w = c[0] * c[3] - c[1] * c[2]
        alpha, beta = 2.0 * a * a * u, 2.0 * b * b * w
        p1 = abs(alpha) ** 2 + abs(beta) ** 2
        p2 = 2.0 * abs(alpha * beta) ** 2 / p1**2
        _close(float(r["stage1_prob"]), p1, "stage1_prob")
        out = _parse_state(r["stage1_output"])
        _close(abs(out[0] - alpha / math.sqrt(p1)), 0.0, "stage1_output[0]")
        _close(abs(out[3] - beta / math.sqrt(p1)), 0.0, "stage1_output[3]")
        probs = [float(t) for t in r["stage_probs"].split()]
        for got, want in zip(probs, (p1, p1, p2), strict=True):
            _close(got, want, "stage_probs")
        _close(float(r["pipeline_prob"]), p1 * p1 * p2, "pipeline_prob")
        _close(float(r["bell_fidelity"]), 1.0, "bell_fidelity")

    return _checked(fn)


def check_vidal_curve(path_key: str, n: int) -> Check:
    def fn(code, stdout, files):
        _require_exit(code)
        lines = files[path_key].decode().splitlines()
        if lines[0] != "lambda,p_vidal,p_universal" or len(lines) != n + 1:
            raise ValueError(f"bad header or {len(lines) - 1} rows for grid {n}")
        for k, line in enumerate(lines[1:], start=1):
            lam, p_v, p_u = (float(t) for t in line.split(","))
            _close(lam, 0.5 + 0.5 * k / (n + 1), f"row {k} lambda")
            optimal = 1.0 if lam < 1.0 / math.sqrt(2.0) else 2.0 * (1.0 - lam * lam)
            _close(p_v, optimal, f"row {k} p_vidal")
            _close(p_u, 2.0 * lam * (1.0 - lam), f"row {k} p_universal")

    return _checked(fn)


def check_f_grid(path_key: str, n: int) -> Check:
    def fn(code, stdout, files):
        _require_exit(code)
        lines = files[path_key].decode().splitlines()
        if lines[0].split(",")[:4] != ["abs_a", "abs_b", "valid", "f"] or len(lines) != n * n + 1:
            raise ValueError(f"bad header or {len(lines) - 1} rows for grid {n}")
        for k, line in enumerate(lines[1:]):
            fields = line.split(",")
            a, b, f = float(fields[0]), float(fields[1]), float(fields[3])
            _close(a, (k // n) / (n - 1), f"row {k} abs_a")
            _close(b, (k % n) / (n - 1), f"row {k} abs_b")
            constraint = 2.0 * (a**4 + b**4)
            # points within rounding of the constraint edge may fall either way
            if abs(constraint - 1.0) > 1e-9:
                valid = int(constraint <= 1.0 and not (a == 0.0 and b == 0.0))
                if int(fields[2]) != valid:
                    raise ValueError(f"row {k} valid = {fields[2]}, expected {valid}")
            _close(f, 2.0 * abs(a**4 - b**4), f"row {k} f")

    return _checked(fn)


def check_haar(mode: str, samples: int, seed: int) -> Check:
    target = 0.2 if mode == "known-basis" else 2.0 / 105.0

    def fn(code, stdout, files):
        _require_exit(code)
        r = _report(stdout)
        if (r["mode"], int(r["samples"]), int(r["seed"])) != (mode, samples, seed):
            raise ValueError("mode, samples or seed echoed wrongly")
        if r["agreement_4_sigma"] != "PASS":
            raise ValueError("agreement_4_sigma is not PASS")
        mean, se = float(r["mc_mean"]), float(r["mc_std_error"])
        if not (math.isfinite(mean) and abs(mean - target) <= 4.0 * se):
            raise ValueError(f"mc_mean {mean!r} not within 4 sigma of {target!r}")
        if not abs(float(r["analytic"]) - target) <= 1e-8:
            raise ValueError(f"analytic {r['analytic']} differs from {target!r}")

    return _checked(fn)


def check_verify(path_key: str, seed: int) -> Check:
    def fn(code, stdout, files):
        _require_exit(code)
        payload = json.loads(files[path_key])
        if payload["seed"] != seed or not payload["criteria"]:
            raise ValueError("verify.json echoes the wrong seed or lists no criteria")
        if payload["all_pass"] is not True:
            raise ValueError(f"all_pass is {payload['all_pass']}")

    return _checked(fn)


# ------------------------------------------------------------- workloads

def build(workload: str, seed: int, workdir: Path, scale: str = "full",
          corrupt_kraus: bool = False) -> list:
    """The invocations of one workload pass, drawn from the benchmark seed.

    corrupt_kraus passes the CLI's hidden test hook to verify while the
    check still expects a clean run, so the run must count as failed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[scale]
    rng = _rng(seed, workload)
    if workload == "verify":
        s = _cli_seed(rng)
        out = str(workdir / "verify.json")
        argv = ["verify", "--seed", str(s), "--out", out]
        if corrupt_kraus:
            argv.append("--corrupt-kraus")
        return [Invocation("verify", argv, check_verify("verify.json", s),
                           {"verify.json": out})]
    if workload == "haar-mc":
        s = _cli_seed(rng)
        n = size["mc_samples"]
        return [
            Invocation(f"haar-average-{mode}",
                       ["haar-average", "--mode", mode, "--samples", str(n), "--seed", str(s)],
                       check_haar(mode, n, s))
            for mode in ("unknown-basis", "known-basis")
        ]
    state1, state2 = _random_state(rng), _random_state(rng)
    lam1, lam2 = rng.uniform(0.55, 0.95), rng.uniform(0.55, 0.95)
    a, b = _random_params(rng)
    s = _cli_seed(rng)
    vidal_out, f_out = str(workdir / "vidal_curve.csv"), str(workdir / "f_grid.csv")
    nv, nf, ns = size["vidal_grid"], size["f_grid"], size["sweep_samples"]
    return [
        Invocation("bounds-state", ["bounds", "--state", _fmt_state(state1)], check_bounds(None)),
        Invocation("bounds-lambda", ["bounds", "--lambda", repr(lam1)], check_bounds(lam1)),
        Invocation("simulate-lambda", ["simulate", "--lambda", repr(lam2)],
                   check_simulate(complex(SQRT_HALF), complex(SQRT_HALF))),
        Invocation("simulate-state",
                   ["simulate", "--state", _fmt_state(state2),
                    f"--a={_fmt_complex(a)}", f"--b={_fmt_complex(b)}"],
                   check_simulate(a, b)),
        Invocation("vidal-curve", ["vidal-curve", "--grid", str(nv), "--out", vidal_out],
                   check_vidal_curve("vidal_curve.csv", nv), {"vidal_curve.csv": vidal_out}),
        Invocation("f-grid", ["f-grid", "--grid", str(nf), "--out", f_out],
                   check_f_grid("f_grid.csv", nf), {"f_grid.csv": f_out}),
        Invocation("haar-average-known-basis",
                   ["haar-average", "--mode", "known-basis", "--samples", str(ns), "--seed", str(s)],
                   check_haar("known-basis", ns, s)),
    ]
