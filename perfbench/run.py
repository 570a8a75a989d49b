#!/usr/bin/env python3
"""epp-lab benchmark: run one workload as a user would and report its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing needs installing.  With `--trace 0` every invocation is a
fresh `python -m epp_lab` child, one at a time, repeated for `--seconds`;
the end-to-end metrics are medians over those passes, with every time
scaled to a reference host speed that `calibrate()` samples around and
during each child.  With `--trace 1`
the same invocations run in-process, once plain and once with every public
function of the package wrapped by `bench_trace`, and the per-layer metrics
come from the wrapped pass.  Every output is checked against closed forms
and must repeat byte for byte across passes.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from importlib import metadata
from pathlib import Path

import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"

SETUP_REPEATS = 5  # at least this many cold starts per run
# calibrate() runs CALIBRATION_ROUNDS rounds in about CALIBRATION_REF_S seconds
# (median) on the reference machine described in NOTES.md
CALIBRATION_ROUNDS = 5_000
CALIBRATION_REF_S = 0.10
PROBE_EVERY_S = 1.0  # a running child is paused this often for one calibration
SETUP_CODE = "import epp_lab.cli as cli; cli.build_parser(); print(cli.__file__)"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------ environment

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _code_sha256() -> str:
    """Hash of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "epp_lab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int, run_id: str) -> dict:
    return {
        "run_id": run_id,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "code_sha256": _code_sha256(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ------------------------------------------------------------ host speed

def calibrate() -> float:
    """Seconds the parent takes for a fixed pure-Python workload.

    The host's speed drifts with its other tenants, and the interpreter-bound
    children slow down with it; this loop, run before, during and after each
    child while the child is stopped, slows the same way.  It depends on
    nothing in the package, so no change to the program can move it.
    """
    t0 = time.perf_counter()
    table, acc = {}, 0.0
    for i in range(CALIBRATION_ROUNDS):
        row = []
        for k in range(16):
            x = (i * 16 + k) * 2654435761 % 1000003
            z = complex(math.sqrt(x), math.log1p(x))
            acc += abs(z * z.conjugate())
            row.append(f"{x:x}")
        table[",".join(row)[:12]] = acc
        if len(table) > 512:
            table.clear()
    return time.perf_counter() - t0


# --------------------------------------------------------------- children

def _wait_probing(proc, samples: list) -> tuple:
    """Reap proc, pausing it every PROBE_EVERY_S to append a calibration to samples.

    Returns (wait status, rusage, seconds it was held paused).  A stopped
    child uses no CPU, so its rusage is unchanged by the pauses.
    """
    paused = 0.0
    pidfd = os.pidfd_open(proc.pid)
    try:
        while not select.select([pidfd], [], [], PROBE_EVERY_S)[0]:
            t0 = time.perf_counter()
            os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it ended before the signal came
                return status, usage, paused
            samples.append(calibrate())
            os.kill(proc.pid, signal.SIGCONT)
            paused += time.perf_counter() - t0
        _, status, usage = os.wait4(proc.pid, 0)
        return status, usage, paused
    finally:
        os.close(pidfd)


def run_child(cmd: list, env: dict, stdout_path: Path, samples: list | None = None) -> dict:
    """Run one child to completion; wall time plus its own rusage from wait4.

    With samples, the host speed is sampled while the child runs and once
    after it, and the wall time leaves out the pauses for the samples.
    speed_factor is CALIBRATION_REF_S over the mean of the samples from the
    last one before the child to the one after it; it scales the child's
    times to the reference host speed.
    """
    first = len(samples) - 1 if samples is not None else 0
    with open(stdout_path, "wb") as out, open(WORKDIR / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            if samples is None:
                _, status, usage = os.wait4(proc.pid, 0)
                paused = 0.0
            else:
                status, usage, paused = _wait_probing(proc, samples)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0 - paused
    # wait4 reaped the child; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    factor = 1.0
    if samples is not None:
        samples.append(calibrate())
        factor = CALIBRATION_REF_S / statistics.fmean(samples[first:])
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "speed_factor": factor,
        "stdout": stdout_path.read_bytes(),
    }


def cold_start(env: dict, samples: list) -> float:
    """Seconds from a fresh interpreter to `epp_lab.cli` imported and its parser built.

    The time is scaled to the reference host speed.
    """
    r = run_child([sys.executable, "-c", SETUP_CODE], env, WORKDIR / "setup.out", samples)
    if r["code"] != 0:
        raise BenchError("cannot import epp_lab.cli from src/: "
                         + (WORKDIR / "stderr.txt").read_text()[-2000:])
    if not Path(r["stdout"].decode().strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"epp_lab was imported from outside {SRC}")
    return r["wall_s"] * r["speed_factor"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _finish(inv, code: int, stdout: bytes) -> dict:
    """Read the outputs of one invocation, check them and hash them."""
    files = {name: Path(p).read_bytes() for name, p in inv.outputs.items() if Path(p).is_file()}
    return {
        "label": inv.label,
        "code": code,
        "error": inv.check(code, stdout, files),
        "sha256": {"stdout": _sha(stdout), **{n: _sha(b) for n, b in files.items()}},
        "output_bytes": len(stdout) + sum(len(b) for b in files.values()),
    }


def _clear_outputs(inv) -> None:
    for p in inv.outputs.values():
        Path(p).unlink(missing_ok=True)


def run_pass_children(invocations: list, env: dict, samples: list) -> list:
    results = []
    for inv in invocations:
        _clear_outputs(inv)
        r = run_child([sys.executable, "-m", "epp_lab", *inv.argv], env, WORKDIR / "stdout.txt",
                      samples)
        results.append({**_finish(inv, r["code"], r["stdout"]), "speed_factor": r["speed_factor"],
                        "wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "rss_mb": r["rss_mb"]})
    return results


def run_pass_inprocess(invocations: list, cli_main) -> list:
    results = []
    for inv in invocations:
        _clear_outputs(inv)
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli_main(list(inv.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # the child would die with a traceback and exit 1
                code = 1
        wall = time.perf_counter() - t0
        results.append({**_finish(inv, code, out.getvalue().encode()), "wall_s": wall})
    return results


def mark_drift(passes: list) -> None:
    """An output whose bytes differ from the first pass of this run is a failure."""
    reference = {r["label"]: r["sha256"] for r in passes[0]}
    for results in passes[1:]:
        for r in results:
            if r["error"] is None and r["sha256"] != reference[r["label"]]:
                r["error"] = "output bytes differ from the first pass with the same inputs"


# ---------------------------------------------------------------- metrics

def quartiles(values: list) -> dict:
    """Median and quartiles as statistics.quantiles gives them, with the count."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2], "n": len(values)}


def import_times(env: dict) -> dict:
    """Self time per module from `python -X importtime`, plus scipy's whole subtree."""
    r = run_child([sys.executable, "-X", "importtime", "-c", "import epp_lab.cli"],
                  env, WORKDIR / "importtime.out")
    if r["code"] != 0:
        raise BenchError("python -X importtime -c 'import epp_lab.cli' failed")
    total = scipy = own = 0.0
    # entries are printed children first; indentation gives the nesting depth
    pending = []  # (depth, name, cumulative us) still waiting for their parent
    for line in (WORKDIR / "stderr.txt").read_text().splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        total += int(self_us)
        if name == "epp_lab" or name.startswith("epp_lab."):
            own += int(self_us)
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        in_scipy = name == "scipy" or name.startswith("scipy.")
        if not in_scipy:
            # scipy subtrees whose parent is outside scipy count once, whole
            scipy += sum(c[2] for c in children if c[1] == "scipy" or c[1].startswith("scipy."))
        pending.append((depth, name, int(cum_us)))
    scipy += sum(c[2] for c in pending if c[1] == "scipy" or c[1].startswith("scipy."))
    return {"import.total_s": total / 1e6, "import.scipy_s": scipy / 1e6,
            "import.epp_lab_self_s": own / 1e6}


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def untraced_run(args, invocations: list, env: dict) -> tuple:
    # One cold start precedes each pass, so setup_s samples the same stretch
    # of host load as wall_s; in a fresh checkout the first one also writes
    # the bytecode cache, which the median leaves out.  Every child's times
    # are scaled to the reference host speed by the calibrations around it.
    samples = [calibrate()]
    setup, passes, rounds = [], [], []
    start = time.perf_counter()
    # start another round only if a typical round still ends inside the window
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
        t0 = time.perf_counter()
        setup.append(cold_start(env, samples))
        passes.append(run_pass_children(invocations, env, samples))
        rounds.append(time.perf_counter() - t0)
    while len(setup) < SETUP_REPEATS:
        setup.append(cold_start(env, samples))
    mark_drift(passes)
    scaled = lambda key: [sum(r[key] * r["speed_factor"] for r in p) for p in passes]
    series = {
        "wall_s": scaled("wall_s"),
        "cpu_s": scaled("cpu_s"),
        "peak_rss_mb": [max(r["rss_mb"] for r in p) for p in passes],
        "setup_s": setup,
    }
    stats = {k: quartiles(v) for k, v in series.items()}
    metrics = {k: (stats[k]["median"], UNITS[k]) for k in UNITS}
    unscaled = {"wall_s": [sum(r["wall_s"] for r in p) for p in passes],
                "cpu_s": [sum(r["cpu_s"] for r in p) for p in passes]}
    detail = {"passes": len(passes), "series": series, "quartiles": stats,
              "unscaled_series": unscaled, "calibration_s": samples,
              "calibration_ref_s": CALIBRATION_REF_S}
    return passes, metrics, detail


def traced_run(args, invocations: list, env: dict, run_id: str) -> tuple:
    # imported here: the untraced parent needs neither numpy nor the package
    sys.path.insert(0, str(SRC))
    import epp_lab.cli as cli
    import bench_trace

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"epp_lab was imported from outside {SRC}")
    imports = import_times(env)
    plain = run_pass_inprocess(invocations, cli.main)
    tracer = bench_trace.Tracer(run_id)
    with bench_trace.patched(tracer):
        traced = run_pass_inprocess(invocations, cli.main)
    passes = [plain, traced]
    mark_drift(passes)
    if args.spans:
        tracer.save(args.spans)

    metrics = {k: (v, "s") for k, v in imports.items()}
    metrics.update(bench_trace.layer_metrics(tracer))
    metrics["cli.output_bytes"] = (sum(r["output_bytes"] for r in traced), "bytes")
    plain_wall = sum(r["wall_s"] for r in plain)
    traced_wall = sum(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    missing = [m for m in bench_trace.EXPECTED_NONZERO[args.workload]
               if not metrics[m][0] > 0]
    detail = {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans": len(tracer.span_name), "zero_layers": missing}
    return passes, metrics, detail


# ------------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None,
                   help="with --trace 1, also write every span to this .npz file")
    p.add_argument("--scale", choices=tuple(bench_workloads.SIZES), default="full",
                   help="input sizes; 'tiny' is for testing the benchmark itself")
    p.add_argument("--corrupt-kraus", action="store_true",
                   help="pass verify its hidden --corrupt-kraus hook; the run must fail")
    return p.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "epp_lab" / "cli.py").is_file():
        print(f"error: no epp-lab sources at {SRC}", file=sys.stderr)
        return 2
    # a runner that gives up sends SIGTERM: unwind, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_id = uuid.uuid4().hex
    env_record = environment(args.seed, run_id)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        invocations = bench_workloads.build(args.workload, args.seed, WORKDIR, args.scale,
                                            args.corrupt_kraus)
        env = child_env()
        run = traced_run(args, invocations, env, run_id) if args.trace else \
            untraced_run(args, invocations, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    passes, metrics, detail = run
    env_record["loadavg_after"] = os.getloadavg()

    results = [r for p in passes for r in p]
    failures = [r for r in results if r["error"] is not None]
    zero_layers = detail.get("zero_layers", [])
    correct = not failures and not zero_layers and all(math.isfinite(v) for v, _ in metrics.values())

    print(f"epp-lab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} scale={args.scale}")
    for name, (value, unit) in metrics.items():
        s = detail.get("quartiles", {}).get(name)
        extra = f"  (p25 {_fmt(s['p25'])}, p75 {_fmt(s['p75'])}, n={s['n']})" if s else ""
        print(f"{name:44s} {_fmt(value):>14} {unit}{extra}")
    print(f"{'fail_ratio':44s} {len(failures)}/{len(results)} invocations failed")
    if "calibration_s" in detail:
        print(f"{'host speed':44s} calibration median {_fmt(statistics.median(detail['calibration_s']))}"
              f" s against {_fmt(CALIBRATION_REF_S)} s on the reference machine")
    for r in failures:
        print(f"FAILED {r['label']}: {r['error']}", file=sys.stderr)
    if zero_layers:
        print("FAILED trace: zero work where expected: " + ", ".join(zero_layers), file=sys.stderr)
    outputs = {r["label"]: r["sha256"] for r in passes[0]}
    print("detail: " + json.dumps({"environment": env_record, "outputs_sha256": outputs,
                                   "fail_ratio": len(failures) / len(results), **detail},
                                  sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
