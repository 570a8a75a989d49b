"""Span tracing for the epp-lab benchmark, applied from outside the package.

`patched(tracer)` wraps every public function of the seven epp-lab modules
and rebinds the wrapper in every epp_lab namespace that holds the original:
`protocols` imports `lift_local_kraus` and `as_state` by name, `sampling`
imports `four_copy_bell_bound`, and `verify` keeps its criteria in a tuple,
so patching only the defining module would leave those calls untraced.

Each call records one span (name, parent, start, end) in flat arrays kept
in memory; `summarize` turns them into calls, inclusive and self time per
name at the end.  Work counters (states, rows, samples) are recorded at
the same boundaries, so a batched kernel that does the same work in fewer
calls keeps the same counts.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYER_MODULES = ("linalg", "kraus", "protocols", "vidal", "sampling", "verify", "cli")

CLOSED_FORMS = (
    "protocols.four_copy_bell_bound",
    "protocols.schmidt_conversion_bound",
    "protocols.schmidt_pair_bound",
    "protocols.kalman_stage1_prob",
    "protocols.kalman_stage2_prob",
)
MC_ESTIMATORS = (
    "sampling.known_basis_average_mc",
    "sampling.unknown_basis_average_mc",
    "sampling.phase_term_mc",
)
CLI_HANDLERS = (
    "cmd_bounds", "cmd_simulate", "cmd_vidal_curve", "cmd_f_grid", "cmd_haar_average", "cmd_verify",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _states(width, index=0, name="state"):
    """Counter: number of width-long states in one argument (a batch counts each row)."""
    return lambda args, kwargs, result: np.size(_arg(args, kwargs, index, name)) // width


def _result_rows(args, kwargs, result):
    return np.shape(result)[0]


# function -> (counter name, how much work one call did)
COUNTERS = {
    "sampling.uniform_block": ("sampling.uniform_block.rows", _result_rows),
    "sampling.haar_state_block": ("sampling.haar_state_block.rows", _result_rows),
    "kraus.apply_kraus": ("kraus.apply_kraus.states", _states(16, 1, "s")),
    "protocols.stage1": ("protocols.stage.states", _states(4)),
    "protocols.stage2": ("protocols.stage.states", _states(4)),
    "protocols.full_pipeline": ("protocols.full_pipeline.states", _states(4)),
    "protocols.schmidt_pair_bound": ("protocols.closed_form.states", _states(1, 0, "alpha")),
    **{name: ("protocols.closed_form.states", _states(4)) for name in CLOSED_FORMS
       if name != "protocols.schmidt_pair_bound"},
    **{name: ("sampling.mc_estimator.samples", lambda args, kwargs, result: result.n_samples)
       for name in MC_ESTIMATORS},
}


class Tracer:
    """Flat in-memory span store plus work counters; one run id per tracer."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict = defaultdict(int)
        self.lift_keys: set = set()
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        counter = COUNTERS.get(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        counters, lift_keys = self.counters, self.lift_keys
        is_lift = name == "kraus.lift_local_kraus"

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += int(counter[1](args, kwargs, result))
            if is_lift:
                lift_keys.add(np.asarray(_arg(args, kwargs, 0, "K")).tobytes())
            return result

        return functools.update_wrapper(traced, fn)

    def summarize(self) -> dict:
        """name -> {"calls", "incl_s", "self_s"}; self time is a span minus its children."""
        n = len(self.span_name)
        k = len(self.names)
        if n == 0:
            return {nm: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for nm in self.names}
        name = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.span_end, count=n) - np.frombuffer(self.span_start, count=n))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        self_ = np.bincount(name, weights=dur - child, minlength=k)
        return {
            nm: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_[i])}
            for i, nm in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span with its run id to an .npz file."""
        n = len(self.span_name)
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32, count=n),
            parent=np.frombuffer(self.span_parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.span_start, count=n),
            end=np.frombuffer(self.span_end, count=n),
        )


def _public_functions(module) -> dict:
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap the public functions of every layer module; undo on exit."""
    wrappers = {}
    for layer in LAYER_MODULES:
        module = importlib.import_module(f"epp_lab.{layer}")
        for name, fn in _public_functions(module).items():
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))

    def swap(value):
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            return hit[1]
        if isinstance(value, tuple) and any(id(v) in wrappers for v in value):
            return tuple(swap(v) or v for v in value)
        return None

    undo = []
    namespaces = [m for n, m in sys.modules.items()
                  if m is not None and (n == "epp_lab" or n.startswith("epp_lab."))]
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            new = swap(value)
            if new is not None:
                undo.append((module, attr, value))
                setattr(module, attr, new)
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics measured in-process: name -> (value, unit)."""
    agg = tracer.summarize()

    def total(field, *names):
        return sum(agg[n][field] for n in names if n in agg)

    lift_calls = total("calls", "kraus.lift_local_kraus")
    c = tracer.counters
    m = {
        "sampling.uniform_block.rows": (c["sampling.uniform_block.rows"], "count"),
        "sampling.uniform_block.s": (total("incl_s", "sampling.uniform_block"), "s"),
        "sampling.haar_state_block.rows": (c["sampling.haar_state_block.rows"], "count"),
        "sampling.haar_state_block.s": (total("incl_s", "sampling.haar_state_block"), "s"),
        "sampling.mc_estimator.samples": (c["sampling.mc_estimator.samples"], "count"),
        "sampling.mc_estimator.self_s": (total("self_s", *MC_ESTIMATORS), "s"),
        "sampling.known_basis_average_quadrature.s":
            (total("incl_s", "sampling.known_basis_average_quadrature"), "s"),
        "kraus.build_kraus.calls": (total("calls", "kraus.build_kraus"), "count"),
        "kraus.build_kraus.s": (total("incl_s", "kraus.build_kraus"), "s"),
        "kraus.lift_local_kraus.calls": (lift_calls, "count"),
        "kraus.lift_local_kraus.s": (total("incl_s", "kraus.lift_local_kraus"), "s"),
        "kraus.lift_local_kraus.distinct_ratio":
            (len(tracer.lift_keys) / lift_calls if lift_calls else 0.0, "ratio"),
        "kraus.apply_kraus.states": (c["kraus.apply_kraus.states"], "count"),
        "kraus.apply_kraus.s": (total("incl_s", "kraus.apply_kraus"), "s"),
        "kraus.check_universality_constraints.s":
            (total("incl_s", "kraus.check_universality_constraints"), "s"),
        "kraus.pauli_expand.s": (total("incl_s", "kraus.pauli_expand"), "s"),
        "protocols.stage.states": (c["protocols.stage.states"], "count"),
        "protocols.stage.self_s": (total("self_s", "protocols.stage1", "protocols.stage2"), "s"),
        "protocols.full_pipeline.states": (c["protocols.full_pipeline.states"], "count"),
        "protocols.full_pipeline.self_s": (total("self_s", "protocols.full_pipeline"), "s"),
        "protocols.closed_form.states": (c["protocols.closed_form.states"], "count"),
        "protocols.closed_form.s": (total("incl_s", *CLOSED_FORMS), "s"),
        "linalg.as_state.calls": (total("calls", "linalg.as_state"), "count"),
        "linalg.as_state.s": (total("incl_s", "linalg.as_state"), "s"),
        "vidal.vidal_probability.calls": (total("calls", "vidal.vidal_probability"), "count"),
        "vidal.vidal_probability.s": (total("incl_s", "vidal.vidal_probability"), "s"),
    }
    for k in range(1, 11):
        m[f"verify.c{k:02d}_s"] = (total("incl_s", f"verify.criterion_{k:02d}"), "s")
    # every pass of the suite runs criterion 1 exactly once
    m["verify.passes"] = (total("calls", "verify.criterion_01"), "count")
    m["verify.rows_to_json.s"] = (total("incl_s", "verify.rows_to_json"), "s")
    for handler in CLI_HANDLERS:
        m[f"cli.{handler}.self_s"] = (total("self_s", f"cli.{handler}"), "s")
    # argument parsing and input validation happen in main before dispatch
    m["cli.parse_s"] = (total("self_s", "cli.main") + total("incl_s", "cli.build_parser"), "s")
    return m


# metric -> workload whose traced run must give it a nonzero value; a
# by-name binding the patch missed shows up here as a zero
EXPECTED_NONZERO = {
    "verify": (
        "kraus.build_kraus.calls", "kraus.lift_local_kraus.calls", "kraus.apply_kraus.states",
        "kraus.check_universality_constraints.s", "kraus.pauli_expand.s",
        "protocols.stage.states", "protocols.full_pipeline.states",
        *(f"verify.c{k:02d}_s" for k in range(1, 11)),
        "verify.passes", "verify.rows_to_json.s", "cli.cmd_verify.self_s",
        "sampling.mc_estimator.samples", "sampling.uniform_block.rows",
        "sampling.haar_state_block.rows", "sampling.known_basis_average_quadrature.s",
        "vidal.vidal_probability.calls",
    ),
    "haar-mc": (
        "sampling.mc_estimator.samples", "sampling.uniform_block.rows",
        "sampling.haar_state_block.rows", "protocols.closed_form.states",
        "sampling.known_basis_average_quadrature.s", "cli.cmd_haar_average.self_s",
    ),
    "cli-sweep": (
        *(f"cli.{h}.self_s" for h in CLI_HANDLERS if h != "cmd_verify"),
        "vidal.vidal_probability.calls", "linalg.as_state.calls", "protocols.stage.states",
        "protocols.closed_form.states", "cli.output_bytes",
    ),
}
