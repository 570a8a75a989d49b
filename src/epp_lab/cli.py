"""Command-line front end.

Commands: bounds, simulate, vidal-curve, f-grid, haar-average, verify.
Exit codes: 0 success, 1 verification failure, 2 usage error (an --out
that cannot be opened among them), 74 (sysexits EX_IOERR) when stdout or
--out cannot be written, 141 (as for SIGPIPE) when the reader of stdout
closes it early.  A closed fd 1 discards stdout, as print does.
haar-average and verify take --seed, whose default is the EPP_LAB_SEED
environment variable, else DEFAULT_SEED: an environment value is parsed
and checked as the flag's is, and reported as argument --seed when bad.
Other commands ignore EPP_LAB_SEED.  The seed in effect is echoed.
haar-average takes at most sampling.MAX_SAMPLES samples.  CSV floats
are written with repr, which round-trips exactly.
"""
from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import importlib
import os
import sys

# OpenBLAS starts a spinning thread pool at import that never gets work here:
# the largest product is a stacked 16 x 16 matrix-vector product
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# for the same reason: the final collections of interpreter shutdown traverse
# the 20k-40k objects numpy and scipy leave, 25-70 ms a process on a 2-core
# x86-64 host; atexit handlers run first, and those collections skip frozen
# objects, whose memory the OS reclaims
atexit.register(gc.freeze)

import numpy as np

# every command is a cold start, so protocols, sampling, vidal and verify are
# imported inside the commands that run them; parsing needs only kraus and
# linalg, and an integer option the module that holds its bound
from .kraus import CANONICAL_PARAMS, KrausParams, region
from .linalg import ATOL, _check_int, bell_phi_plus, fidelity_up_to_phase, schmidt_state

DEFAULT_SEED = 42
SEED_ENV_VAR = "EPP_LAB_SEED"
# largest f-grid axis: at about 3 us per row and n**2 rows, 5000 takes about 70 s
MAX_F_GRID = 5000

# CLI inputs tolerate slightly stale normalization; anything past this is an error
_NORM_ERROR = 1e-8


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
    if abs(norm - 1.0) > ATOL:  # the library would refuse the state as given
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


def _lib(name: str):
    """The library module called name, imported only when an option's check first runs."""
    return importlib.import_module(f".{name}", __package__)


def _int_option(check):
    """An argparse type for an integer option: int(text), so "1e3" and "1.5" are refused,
    then check(n), the library's own domain check, whose ValueError is a usage error."""
    def parse(text: str) -> int:
        try:
            return check(int(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_parse_seed = _int_option(lambda n: _lib("sampling").check_seed(n))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epp-lab",
        description="Numerical laboratory for conclusive purification of two-qubit pure states.",
    )
    parser.set_defaults(out=None)  # the commands without --out write to stdout only
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p):
        state = p.add_mutually_exclusive_group(required=True)
        state.add_argument("--state", type=_parse_state, metavar='"c1 c2 c3 c4"',
                           help="four complex amplitudes, e.g. \"0.6 0 0 0.8\"")
        state.add_argument("--lambda", dest="state", type=_parse_lambda, metavar="LAM",
                           help="larger squared Schmidt coefficient of sqrt(l)|00>+sqrt(1-l)|11>")

    def add_seed_arg(p):  # argparse runs a string default, EPP_LAB_SEED's, through type too
        p.add_argument("--seed", type=_parse_seed,
                       default=os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))

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
    p_vidal.add_argument(
        "--grid", type=_int_option(lambda n: _check_int(n, "grid", 2, _lib("vidal").MAX_GRID)),
        default=100, help="number of interior grid points")
    p_vidal.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    p_fgrid = sub.add_parser(
        "f-grid", help="CSV of validity, asymmetry f and physicality over (|a|, |b|)")
    p_fgrid.set_defaults(func=cmd_f_grid)
    p_fgrid.add_argument("--grid", type=_int_option(lambda n: _check_int(n, "grid", 2, MAX_F_GRID)),
                         default=100, help="grid points per axis")
    p_fgrid.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    p_haar = sub.add_parser("haar-average", help="analytic and Monte Carlo Haar averages")
    p_haar.set_defaults(func=cmd_haar_average)
    p_haar.add_argument("--mode", choices=("known-basis", "unknown-basis"),
                        default="known-basis")
    p_haar.add_argument("--samples", default=10_000, type=_int_option(
        lambda n: _check_int(n, "samples", 1, _lib("sampling").MAX_SAMPLES)))
    add_seed_arg(p_haar)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.set_defaults(func=cmd_verify)
    add_seed_arg(p_verify)
    p_verify.add_argument("--out", default=None, help="JSON summary path")
    p_verify.add_argument("--corrupt-kraus", action="store_true", help=argparse.SUPPRESS)

    return parser


def cmd_bounds(args) -> int:
    from . import protocols
    c = args.state
    lines = ["state = " + " ".join(repr(complex(z)) for z in c)]
    if abs(c[1]) <= ATOL and abs(c[2]) <= ATOL:
        lines.append("schmidt_pair_bound = " + _fmt(protocols.schmidt_pair_bound(c[0], c[3])[0]))
    lines.append("schmidt_conversion_bound = " + _fmt(protocols.schmidt_conversion_bound(c)[0]))
    lines.append("four_copy_bell_bound = " + _fmt(protocols.four_copy_bell_bound(c)[0]))
    p1 = protocols.kalman_stage1_prob(c)[0]
    lines.append("kalman_stage1_prob = " + _fmt(p1))
    if p1 < protocols.ZERO_PROB:  # stage 1 fails, as simulate reports it
        lines.append("kalman_stage2_prob = undefined")
    else:
        lines.append("kalman_stage2_prob = " + _fmt(protocols.kalman_stage2_prob(c)[0]))
    print("\n".join(lines))
    return 0


def cmd_simulate(args) -> int:
    from . import protocols
    c = args.state
    params = args.params
    if not region(args.a, args.b).physical:
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
    """The vidal-curve CSV, one text block per conversion_curve block of points."""
    from . import vidal
    yield "lambda,p_vidal,p_universal\n"
    for block in vidal.conversion_curve(n):
        yield "".join(f"{_fmt(lam)},{_fmt(p_v)},{_fmt(p_u)}\n"
                      for lam, p_v, p_u in zip(*(column.tolist() for column in block)))


def cmd_vidal_curve(args) -> int:
    (args.out or sys.stdout).writelines(_vidal_curve_blocks(args.grid))
    return 0


def _f_grid_blocks(n: int):
    """The f-grid CSV, one block of n lines per |a|, so memory does not grow with n^2."""
    yield "abs_a,abs_b,valid,f,physical\n"
    grid = np.linspace(0.0, 1.0, n)
    labels = [_fmt(x) for x in grid]
    for a, a_label in zip(grid, labels):
        row = region(a, grid)
        columns = zip(labels, row.valid.tolist(), row.f.tolist(), row.physical.tolist())
        yield "".join(f"{a_label},{b_label},{int(valid)},{_fmt(f)},{int(physical)}\n"
                      for b_label, valid, f, physical in columns)


def cmd_f_grid(args) -> int:
    (args.out or sys.stdout).writelines(_f_grid_blocks(args.grid))
    return 0


def cmd_haar_average(args) -> int:
    from . import sampling
    lines = [f"mode = {args.mode}", f"seed = {args.seed}", f"samples = {args.samples}"]
    if args.mode == "known-basis":
        analytic = sampling.known_basis_average_quadrature()
        est = sampling.known_basis_average_mc(args.samples, args.seed)
        target = sampling.KNOWN_BASIS_AVERAGE
    else:
        analytic = sampling.unknown_basis_average_exact()
        est = sampling.unknown_basis_average_mc(args.samples, args.seed)
        target = sampling.UNKNOWN_BASIS_AVERAGE
    ok = est.within_sigmas(target)
    lines.append("analytic = " + _fmt(analytic))
    lines.append("mc_mean = " + _fmt(est.mean))
    lines.append("mc_std_error = " + ("undefined" if est.n_samples == 1 else _fmt(est.std_error)))
    lines.append(f"rng = {est.algorithm}")
    lines.append("agreement_4_sigma = " + ("PASS" if ok else "FAIL"))
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from . import verify
    rows = verify.run_all(args.seed, corrupt_kraus=args.corrupt_kraus)
    print(f"seed = {args.seed}")
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.criterion}: expected {row.expected}, "
              f"observed {row.observed}, tolerance {row.tolerance}")
    n_bad = sum(1 for r in rows if not r.passed)
    if args.out is not None:
        args.out.write(verify.rows_to_json(rows, args.seed))
    if n_bad:
        print(f"FAILED: {n_bad} of {len(rows)} checks")
        return 1
    print(f"all {len(rows)} checks passed")
    return 0


def main(argv=None) -> int:
    if sys.stdout is None:  # fd 1 was closed: discard, as print already does
        sys.stdout = open(os.devnull, "w")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        try:
            args.params = KrausParams(args.a, args.b)
        except ValueError as exc:
            parser.error(f"invalid Kraus parameters: {exc}")
    if args.out is not None:
        # opened before any work, so a file that cannot be written costs nothing; open
        # refuses a missing directory, a directory and an empty path
        try:
            args.out = open(args.out, "w", newline="\n")
        except OSError as exc:
            parser.error(f"cannot open --out {args.out!r}: {exc.strerror or exc}")
    try:
        with args.out or contextlib.nullcontext():
            code = args.func(args)
            # a buffered stdout fails here, not at exit, and its report is out before --out closes
            sys.stdout.flush()
    except OSError as exc:
        # no command reads a file, so this is a failed write, to stdout or to --out; fd 1
        # goes to devnull so the interpreter's final flush cannot raise again; a stdout
        # without one (a StringIO) raises io.UnsupportedOperation, before devnull is opened
        with contextlib.suppress(OSError, ValueError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):  # the reader left early, as `| head` does
            return 141  # 128 + SIGPIPE, the shell's status for a process SIGPIPE ended
        print(f"{parser.prog}: error: cannot write the output: {exc.strerror or exc}",
              file=sys.stderr)
        return 74  # EX_IOERR
    return code


if __name__ == "__main__":
    sys.exit(main())
