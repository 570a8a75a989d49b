"""Self-contained verification suite behind the verify command.

Each criterion function returns rows of (criterion, expected, observed,
tolerance, pass).  Rows never embed measured wall times or other
run-varying data: repeated runs with the same seed must serialize to
byte-identical JSON.  Runtime budgets are therefore reported as
within/exceeded flags.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from . import kraus, protocols, sampling, vidal
from .linalg import _cabs, _cmul, bell_phi_plus

SQRT_HALF = float(kraus.CANONICAL_PARAMS.a[0].real)


def _plain(value):
    """Coerce numpy scalars to built-ins so rows serialize cleanly."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


@dataclass
class CriterionRow:
    criterion: str
    expected: object
    observed: object
    tolerance: float
    passed: bool

    def __post_init__(self):
        self.expected = _plain(self.expected)
        self.observed = _plain(self.observed)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.passed)

    def as_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def rows_to_json(rows, seed: int) -> str:
    payload = {
        "seed": seed,
        "all_pass": all(r.passed for r in rows),
        "criteria": [r.as_dict() for r in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _sub_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _runtime_row(name: str, elapsed: float, budget: float) -> CriterionRow:
    # budgets are loose; the JSON stays byte-stable as long as pass holds
    return CriterionRow(
        criterion=name,
        expected=f"< {budget:g} s",
        observed="within budget" if elapsed < budget else "exceeded budget",
        tolerance=budget,
        passed=elapsed < budget,
    )


def _mc_row(name: str, target: float, est) -> CriterionRow:
    """est.mean against target within 4 sigma, the rule haar-average applies too."""
    return CriterionRow(name, target, est.mean, 4.0 * est.std_error, est.within_sigmas(target))


def _kept_rows(draw, keep, n: int) -> np.ndarray:
    """The first n rows, in order, of draw(0), draw(1), ... for which keep holds."""
    blocks, kept, index = [], 0, 0
    while kept < n:
        rows = draw(index)
        blocks.append(rows[keep(rows)])
        kept += len(blocks[-1])
        index += 1
    return np.concatenate(blocks)[:n]


def _random_valid_params(seed: int, n: int) -> kraus.KrausParams:
    """n parameter pairs with random phases, both moduli at least 0.05, constraint met.

    Rows of uniform blocks seeded seed, seed + 1, ... are kept in order
    while they meet the constraint, until n are kept.
    """
    min_mag, max_mag = 0.05, 2.0**-0.25
    def draw(index):
        u = sampling.uniform_block(seed + index, 4 * n, 4)
        return (min_mag + u[:, :2] * (max_mag - min_mag)) * np.exp(2j * np.pi * u[:, 2:])
    pairs = _kept_rows(draw, lambda p: kraus.constraint_value(p[:, 0], p[:, 1]) <= 1.0, n)
    return kraus.KrausParams(pairs[:, 0], pairs[:, 1])


def _haar_states(seed: int, n: int, min_amp: float) -> np.ndarray:
    """n Haar states, every amplitude above min_amp, from blocks of 2n seeded seed, seed + 1, ..."""
    return _kept_rows(lambda index: sampling.haar_state_block(seed + index, 2 * n),
                      lambda states: np.min(np.abs(states), axis=1) > min_amp, n)


def criterion_01(seed: int) -> list:
    """Stage-2 saturation: matrix success equals 2|alpha beta|^2, Bell output exact."""
    t0 = time.perf_counter()
    lams = np.linspace(0.0, 1.0, 102)[1:-1]
    states = np.zeros((len(lams), 4), dtype=complex)
    states[:, 0], states[:, 3] = np.sqrt(lams), np.sqrt(1.0 - lams)
    result = protocols.stage2(states)
    dev = np.abs(result.success_prob - 2.0 * lams * (1.0 - lams))
    # |<Bell|output>|^2 per row, rounded as fidelity_up_to_phase rounds one state
    fidelity = np.float_power(_cabs(result.output.conj() @ bell_phi_plus()), 2)
    worst = float(np.max([dev, np.abs(fidelity - 1.0)]))
    elapsed = time.perf_counter() - t0
    return [
        CriterionRow("c01-stage2-saturation", 0.0, worst, 1e-10, worst <= 1e-10),
        _runtime_row("c01-stage2-runtime", elapsed, 1.0),
    ]


def criterion_02(seed: int) -> list:
    """Pipeline success agrees with the closed form and the two-round product."""
    t0 = time.perf_counter()
    states = sampling.haar_state_block(_sub_seed(seed, 2), 1000)
    p1 = protocols.kalman_stage1_prob(states)
    # the conditional second round is undefined where p1 = 0; measure-zero event
    ok = p1 != 0.0
    achieved = protocols.full_pipeline(states, kraus.CANONICAL_PARAMS).success_prob[0, ok]
    closed = protocols.four_copy_bell_bound(states[ok])
    # float_power squares through pow, as p1**2 on one float does
    two_round = np.float_power(p1[ok], 2) * protocols.kalman_stage2_prob(states[ok])
    deviations = np.concatenate([abs(achieved - closed), abs(achieved - two_round)])
    worst = float(np.max(deviations, initial=0.0))
    elapsed = time.perf_counter() - t0
    return [
        CriterionRow("c02-four-copy-agreement", 0.0, worst, 1e-10, worst <= 1e-10),
        _runtime_row("c02-four-copy-runtime", elapsed, 10.0),
    ]


def criterion_03(seed: int, corrupt_kraus: bool = False) -> list:
    """Kill vectors annihilated for random valid parameters; identity must fail."""
    K = kraus.build_kraus(_random_valid_params(_sub_seed(seed, 3), 100))
    if corrupt_kraus:
        K[:, 0, 0] += 0.05  # test hook: breaks the |0000> kill constraint
    worst = kraus.check_universality_constraints(kraus.lift_local_kraus(K)).max()
    control = kraus.check_universality_constraints(np.eye(16)[None]).max()
    return [
        CriterionRow("c03-kill-vectors", 0.0, worst, 1e-10, worst <= 1e-10),
        CriterionRow(
            "c03-negative-control",
            "identity violates the constraints",
            f"max residual {control:.3f}",
            1e-6,
            control > 1e-6,
        ),
    ]


def criterion_04(seed: int) -> list:
    """Pauli-expansion relations with r[0,3] = a/4 and r[2,3] = b/4."""
    params = _random_valid_params(_sub_seed(seed, 4), 100)
    r = kraus.pauli_expand(kraus.build_kraus(params))
    free = r[:, [0, 2], 3] - np.stack([params.a, params.b], axis=1) / 4.0
    deviations = [*kraus.pauli_relation_residuals(r).values(), _cabs(free)]
    worst = max(d.max() for d in deviations)
    return [CriterionRow("c04-pauli-relations", 0.0, worst, 1e-12, worst <= 1e-12)]


def criterion_05(seed: int) -> list:
    """Single-round bound is strict, with the promised parameter-dependent gap."""
    states = _haar_states(_sub_seed(seed, 5), 1000, min_amp=1e-3)
    params = _random_valid_params(_sub_seed(seed, 55), 20)
    bound = protocols.schmidt_conversion_bound(states)
    # |c1 c2 c3 c4|, multiplied left to right and rounded as on a single state
    corner = _cabs(functools.reduce(_cmul, states.T))
    margin = bound - protocols.stage1(states, params).success_prob
    gap_floor = (4.0 * (1.0 - kraus.f_parameter(params.a, params.b)))[:, None] * corner
    min_margin = margin.min()
    min_gap_slack = (margin - gap_floor).min()
    return [
        CriterionRow("c05-stage1-strict", "> 0", min_margin, 0.0, min_margin > 0.0),
        CriterionRow(
            "c05-stage1-gap", ">= -1e-9", min_gap_slack, 1e-9, min_gap_slack >= -1e-9
        ),
    ]


def criterion_06(seed: int) -> list:
    """Monotone-ratio probability matches the piecewise curve and beats the blind one."""
    curve = list(vidal.conversion_curve(1000))
    worst = max(abs(p_vidal - vidal.optimal_two_copy_prob(lam)) for lam, p_vidal, _ in curve)
    min_dominance = min(p_vidal - p_universal for _, p_vidal, p_universal in curve)
    return [
        CriterionRow("c06-vidal-agreement", 0.0, worst, 1e-12, worst <= 1e-12),
        CriterionRow(
            "c06-vidal-dominance", "> 0", min_dominance, 0.0, min_dominance > 0.0
        ),
    ]


def criterion_07(seed: int) -> list:
    """Known-basis Haar average: quadrature hits 1/5; Monte Carlo agrees at 4 sigma."""
    t0 = time.perf_counter()
    quad_val = sampling.known_basis_average_quadrature()
    quad_dev = abs(quad_val - 0.2)
    est = sampling.known_basis_average_mc(100_000, _sub_seed(seed, 7))
    elapsed = time.perf_counter() - t0
    return [
        CriterionRow("c07-known-quadrature", 0.2, quad_val, 1e-8, quad_dev <= 1e-8),
        _mc_row("c07-known-mc", 0.2, est),
        _runtime_row("c07-known-runtime", elapsed, 5.0),
    ]


def criterion_08(seed: int) -> list:
    """Unknown-basis Haar average: exact rational values plus Monte Carlo at 4 sigma."""
    t0 = time.perf_counter()
    moment = float(sampling.dirichlet_moment_exact((1, 1, 1, 1), (2, 0, 0, 2)))
    exact = sampling.unknown_basis_average_exact()
    est = sampling.unknown_basis_average_mc(10_000, _sub_seed(seed, 8))
    target = 2.0 / 105.0
    elapsed = time.perf_counter() - t0
    return [
        CriterionRow("c08-moment-exact", 1.0 / 210.0, moment, 0.0, moment == 1.0 / 210.0),
        CriterionRow("c08-unknown-exact", target, exact, 0.0, exact == target),
        _mc_row("c08-unknown-mc", target, est),
        _runtime_row("c08-unknown-runtime", elapsed, 5.0),
    ]


def criterion_09(seed: int) -> list:
    """The cross-phase term averages to zero over Haar states."""
    est = sampling.phase_term_mc(100_000, _sub_seed(seed, 9))
    return [_mc_row("c09-phase-cancellation", 0.0, est)]


def criterion_10(seed: int) -> list:
    """Grid search puts the pipeline maximizer at |a| = |b| = sqrt(2)/2."""
    grid = np.linspace(0.0, 1.0, 50)
    cell = grid[1] - grid[0]
    states = sampling.haar_state_block(_sub_seed(seed, 10), 8)
    A, B = np.meshgrid(grid, grid, indexing="ij")
    keep = (A != 0.0) & (B != 0.0) & kraus.params_valid(A, B)
    a, b = A[keep], B[keep]
    result = protocols.full_pipeline(states, kraus.KrausParams(a, b))
    # argmax takes the first maximum in a-major order, as a strict > scan would
    best = int(np.argmax(np.mean(result.success_prob, axis=1)))
    best_point = (float(a[best]), float(b[best]))
    off = max(abs(best_point[0] - SQRT_HALF), abs(best_point[1] - SQRT_HALF))
    return [
        CriterionRow(
            "c10-kraus-maximizer",
            f"within {cell:.6f} of ({SQRT_HALF:.6f}, {SQRT_HALF:.6f})",
            f"argmax ({best_point[0]:.6f}, {best_point[1]:.6f})",
            float(cell),
            off <= cell + 1e-12,
        )
    ]


_CRITERIA = (
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
)


def _run_once(seed: int, corrupt_kraus: bool = False) -> list:
    rows = []
    for fn in _CRITERIA:
        if fn is criterion_03:
            rows.extend(fn(seed, corrupt_kraus=corrupt_kraus))
        else:
            rows.extend(fn(seed))
    return rows


def run_all(seed: int, corrupt_kraus: bool = False) -> list:
    """All criteria plus the repeat-determinism check (criteria rerun and compared)."""
    rows = _run_once(seed, corrupt_kraus=corrupt_kraus)
    repeat = _run_once(seed, corrupt_kraus=corrupt_kraus)
    identical = rows_to_json(rows, seed) == rows_to_json(repeat, seed)
    rows.append(
        CriterionRow(
            "c11-repeat-determinism",
            "identical rerun",
            "identical" if identical else "mismatch",
            0.0,
            identical,
        )
    )
    return rows
