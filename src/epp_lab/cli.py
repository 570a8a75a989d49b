"""Command-line front end.

Commands: bounds, simulate, vidal-curve, f-grid, haar-average, verify.
Exit codes: 0 success, 1 verification failure, 2 usage error.  Seeded
commands take --seed, fall back to the EPP_LAB_SEED environment variable,
then to DEFAULT_SEED; the seed in effect is echoed in the output.
haar-average takes at most sampling.MAX_SAMPLES samples.  CSV floats
are written with repr, which round-trips exactly.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys

# OpenBLAS starts a spinning thread pool at import that never gets work here:
# the largest product is a stacked 16 x 16 matrix-vector product
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import protocols, sampling, vidal
from . import verify as verify_mod
from .kraus import CANONICAL_PARAMS, KrausParams, f_parameter, params_physical, params_valid
from .linalg import ATOL, bell_phi_plus, fidelity_up_to_phase, schmidt_state

DEFAULT_SEED = 42
SEED_ENV_VAR = "EPP_LAB_SEED"

# CLI inputs tolerate slightly stale normalization; anything past this is an error
_NORM_ERROR = 1e-8
_NORM_WARN = 1e-10


def _fmt(x) -> str:
    return repr(float(x))


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]))
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _parse_state(text: str) -> np.ndarray:
    tokens = text.split()
    if len(tokens) != 4:
        raise argparse.ArgumentTypeError("state needs exactly four amplitudes")
    try:
        amps = np.array([complex(t) for t in tokens])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad amplitude: {exc}")
    norm = np.linalg.norm(amps)
    if not (abs(norm - 1.0) <= _NORM_ERROR):
        raise argparse.ArgumentTypeError(
            f"amplitudes must be normalized within {_NORM_ERROR:g}; |norm-1| = {abs(norm - 1.0):.3e}"
        )
    if abs(norm - 1.0) > _NORM_WARN:
        print(f"warning: renormalizing input state (|norm-1| = {abs(norm - 1.0):.3e})", file=sys.stderr)
    return amps / norm


def _parse_lambda(text: str) -> np.ndarray:
    try:
        lam = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lambda: {text!r}")
    if not 0.0 < lam < 1.0:
        raise argparse.ArgumentTypeError("lambda must lie strictly between 0 and 1")
    return schmidt_state(np.sqrt(lam), np.sqrt(1.0 - lam))


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed: {text!r}")
    try:
        return sampling.check_seed(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _resolve_seed(parser: argparse.ArgumentParser, cli_seed) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return _parse_seed(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{SEED_ENV_VAR}: {exc}")
    return DEFAULT_SEED


def _write_lines(path: str | None, blocks) -> None:
    """Write each text block as it is made, to path or stdout; one write per line costs more."""
    if path is None:
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(blocks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epp-lab",
        description="Numerical laboratory for conclusive purification of two-qubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p):
        state = p.add_mutually_exclusive_group(required=True)
        state.add_argument("--state", type=_parse_state, metavar='"c1 c2 c3 c4"',
                           help="four complex amplitudes, e.g. \"0.6 0 0 0.8\"")
        state.add_argument("--lambda", dest="state", type=_parse_lambda, metavar="LAM",
                           help="larger squared Schmidt coefficient of sqrt(l)|00>+sqrt(1-l)|11>")

    p_bounds = sub.add_parser("bounds", help="closed-form success bounds for one state")
    p_bounds.set_defaults(func=cmd_bounds)
    add_state_args(p_bounds)

    p_sim = sub.add_parser("simulate", help="run both purification stages at matrix level")
    p_sim.set_defaults(func=cmd_simulate)
    add_state_args(p_sim)
    # the defaults are the symmetric point a = b = sqrt(2)/2
    for name, default in (("--a", CANONICAL_PARAMS.a[0]), ("--b", CANONICAL_PARAMS.b[0])):
        p_sim.add_argument(name, type=_parse_complex, default=complex(default), metavar="re,im")

    p_vidal = sub.add_parser("vidal-curve", help="CSV of conversion probabilities over lambda")
    p_vidal.set_defaults(func=cmd_vidal_curve)
    p_vidal.add_argument("--grid", type=int, default=100, help="number of interior grid points")
    p_vidal.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    p_fgrid = sub.add_parser(
        "f-grid", help="CSV of validity, asymmetry f and physicality over (|a|, |b|)")
    p_fgrid.set_defaults(func=cmd_f_grid)
    p_fgrid.add_argument("--grid", type=int, default=100, help="grid points per axis")
    p_fgrid.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    p_haar = sub.add_parser("haar-average", help="analytic and Monte Carlo Haar averages")
    p_haar.set_defaults(func=cmd_haar_average)
    p_haar.add_argument("--mode", choices=("known-basis", "unknown-basis"),
                        default="known-basis")
    p_haar.add_argument("--samples", type=int, default=10_000)
    p_haar.add_argument("--seed", type=_parse_seed, default=None)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.set_defaults(func=cmd_verify)
    p_verify.add_argument("--seed", type=_parse_seed, default=None)
    p_verify.add_argument("--out", default=None, help="JSON summary path")
    p_verify.add_argument("--corrupt-kraus", action="store_true", help=argparse.SUPPRESS)

    return parser


def cmd_bounds(args) -> int:
    c = args.state
    lines = ["state = " + " ".join(repr(complex(z)) for z in c)]
    if abs(c[1]) <= ATOL and abs(c[2]) <= ATOL:
        lines.append("schmidt_pair_bound = " + _fmt(protocols.schmidt_pair_bound(c[0], c[3])[0]))
    lines.append("schmidt_conversion_bound = " + _fmt(protocols.schmidt_conversion_bound(c)[0]))
    lines.append("four_copy_bell_bound = " + _fmt(protocols.four_copy_bell_bound(c)[0]))
    p1 = protocols.kalman_stage1_prob(c)[0]
    lines.append("kalman_stage1_prob = " + _fmt(p1))
    if p1 == 0.0:
        lines.append("kalman_stage2_prob = undefined")
    else:
        lines.append("kalman_stage2_prob = " + _fmt(protocols.kalman_stage2_prob(c)[0]))
    print("\n".join(lines))
    return 0


def cmd_simulate(args) -> int:
    c = args.state
    params = args.params
    if not params_physical(args.a, args.b):
        print("note: max(|a|, |b|) exceeds sqrt(2)/2, so the success branch is not a "
              "contraction and does not describe a physical operation", file=sys.stderr)
    lines = [
        "state = " + " ".join(repr(complex(z)) for z in c),
        f"a = {args.a!r}",
        f"b = {args.b!r}",
    ]
    # every field is (1, 1); an undefined output is all zero, a normalized one never is
    first = protocols.stage1(c, params)
    lines.append("stage1_prob = " + _fmt(first.success_prob[0, 0]))
    if not first.output[0, 0].any():
        lines.append("stage1_output = undefined")
    else:
        lines.append("stage1_output = " + " ".join(repr(complex(z)) for z in first.output[0, 0]))
    result = protocols.full_pipeline(c, params)
    lines.append("stage_probs = " + " ".join(_fmt(p[0, 0]) for p in result.stage_probs))
    lines.append("pipeline_prob = " + _fmt(result.success_prob[0, 0]))
    if not result.output[0, 0].any():
        lines.append("pipeline_output = undefined")
    else:
        fidelity = fidelity_up_to_phase(result.output[0, 0], bell_phi_plus())
        lines.append("bell_fidelity = " + _fmt(fidelity))
    print("\n".join(lines))
    return 0


def _vidal_curve_blocks(n: int):
    """The vidal-curve CSV in blocks of 1024 lines, so memory does not grow with n."""
    yield "lambda,p_vidal,p_universal\n"
    points = vidal.conversion_curve(n)
    while block := list(itertools.islice(points, 1024)):
        yield "".join(f"{_fmt(lam)},{_fmt(p_v)},{_fmt(p_u)}\n" for lam, p_v, p_u in block)


def cmd_vidal_curve(args) -> int:
    _write_lines(args.out, _vidal_curve_blocks(args.grid))
    return 0


def _f_grid_blocks(n: int):
    """The f-grid CSV, one block of n lines per |a|, so memory does not grow with n^2."""
    yield "abs_a,abs_b,valid,f,physical\n"
    grid = np.linspace(0.0, 1.0, n)
    labels = [_fmt(x) for x in grid]
    for a, a_label in zip(grid, labels):
        columns = zip(labels, params_valid(a, grid).tolist(), f_parameter(a, grid).tolist(),
                      params_physical(a, grid).tolist())
        yield "".join(f"{a_label},{b_label},{int(valid)},{_fmt(f)},{int(physical)}\n"
                      for b_label, valid, f, physical in columns)


def cmd_f_grid(args) -> int:
    _write_lines(args.out, _f_grid_blocks(args.grid))
    return 0


def cmd_haar_average(args) -> int:
    lines = [f"mode = {args.mode}", f"seed = {args.seed}", f"samples = {args.samples}"]
    if args.mode == "known-basis":
        analytic = sampling.known_basis_average_quadrature()
        est = sampling.known_basis_average_mc(args.samples, args.seed)
        target = 0.2
    else:
        analytic = sampling.unknown_basis_average_exact()
        est = sampling.unknown_basis_average_mc(args.samples, args.seed)
        target = 2.0 / 105.0
    ok = est.within_sigmas(target, 4.0)
    lines.append("analytic = " + _fmt(analytic))
    lines.append("mc_mean = " + _fmt(est.mean))
    lines.append("mc_std_error = " + ("undefined" if est.n_samples == 1 else _fmt(est.std_error)))
    lines.append(f"rng = {est.algorithm}")
    lines.append("agreement_4_sigma = " + ("PASS" if ok else "FAIL"))
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_verify(args) -> int:
    rows = verify_mod.run_all(args.seed, corrupt_kraus=args.corrupt_kraus)
    print(f"seed = {args.seed}")
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.criterion}: expected {row.expected}, "
              f"observed {row.observed}, tolerance {row.tolerance}")
    n_bad = sum(1 for r in rows if not r.passed)
    if args.out is not None:
        _write_lines(args.out, [verify_mod.rows_to_json(rows, args.seed)])
    if n_bad:
        print(f"FAILED: {n_bad} of {len(rows)} checks")
        return 1
    print(f"all {len(rows)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        try:
            args.params = KrausParams(args.a, args.b)
        except ValueError:
            parser.error("invalid Kraus parameters: need 2(|a|^4+|b|^4) <= 1, not both zero")
    out = getattr(args, "out", None)
    if out is not None and (os.path.isdir(out or ".")
                            or not os.path.isdir(os.path.dirname(out) or ".")):
        parser.error(f"--out must name a file in an existing directory, got {out!r}")
    if args.command in ("vidal-curve", "f-grid") and args.grid < 2:
        parser.error("--grid must be at least 2")
    if args.command == "haar-average" and args.samples < 1:
        parser.error("--samples must be at least 1")
    if args.command == "haar-average" and args.samples > sampling.MAX_SAMPLES:
        parser.error(f"--samples must be at most {sampling.MAX_SAMPLES}")
    if args.command in ("haar-average", "verify"):
        args.seed = _resolve_seed(parser, args.seed)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
