"""Acceptance gate: one test per numbered verification criterion, all at seed 42.

Criteria (same numbering as the verify engine and the CLI verify command):

  01  stage-2 matrix run saturates 2|alpha beta|^2 with an exact Bell output
  02  four-copy pipeline equals its closed form and the two-round product
  03  lifted Kraus map annihilates the eight kill vectors; identity control fails
  04  Pauli expansion satisfies the coefficient relations, r14 = a/4, r34 = b/4
  05  single-round success stays strictly below the conversion bound, with the
      4(1-f)|c1 c2 c3 c4| gap floor
  06  monotone-ratio conversion probability matches the piecewise curve and
      strictly dominates the basis-blind one
  07  known-basis Haar average hits 1/5 by quadrature and Monte Carlo
  08  unknown-basis Haar average hits 2/105 exactly and by Monte Carlo
  09  the cross-phase term Monte Carlo averages to zero
  10  grid search over (|a|, |b|) puts the pipeline maximizer at the
      symmetric point (sqrt(2)/2, sqrt(2)/2)
  11  repeated seeded verify runs produce byte-identical JSON

Each test prints one pass/fail line so the suite doubles as a report when run
with `pytest -s tests/test_acceptance.py`.
"""
import hashlib
import itertools
import json
import types

import numpy as np
import pytest
from conftest import run_child

from epp_lab import cli, kraus, protocols, sampling, verify, vidal
from epp_lab.linalg import bell_phi_plus, fidelity_up_to_phase, schmidt_state

SEED = 42
# sha256 of the seed-42 verify.json; a change to any observed value moves it
VERIFY_SHA256 = "e0c28977e3ad43727bf5a7c55f8037e7d2a4a3fb9e6b28659d7c54d0be07abf0"
# sha256 of --out files no criterion checks: the seed-42 --corrupt-kraus
# verify.json, the one run where c03's observed residual is nonzero, so its
# bits are pinned, and four CSVs; the --grid 3000 curve crosses the
# 1024-line block boundary of its writer
PINNED_SHA256 = {
    ("verify", "--seed", "42", "--corrupt-kraus"):
        "d338646da800aeb0ffa278a170009c94f09bb6bab018eb008b09444d4b5b3c32",
    ("vidal-curve", "--grid", "400"):
        "92060711ece29b51eb7f1c6a47050028ac260523da995d936e7b5626d960934a",
    ("vidal-curve", "--grid", "3000"):
        "dbcf359de33c87870e6ce559557b1f68daf4f91feec0bbb0eac3970d9fb47316",
    ("f-grid", "--grid", "201"):
        "d41c47f23ec78cda6456a8fce660eba2873043dce973d33d84dd840bf7d57f1a",
    ("f-grid", "--grid", "400"):
        "5942eeaa631fd095211109deaaa73876a189b59764d217a709383e9ffcfab0e7",
}

# sha256 of the stdout of one-state commands, which read row [0] or [0, 0] of
# the protocols results; the first two simulate runs print "undefined" for an
# all-zero output row, stage 1's and the pipeline's, and the known-basis
# haar-average prints the quadrature's analytic value
S = "0.3+0.2j 0.5-0.1j 0.4j 0.6708203932499369"
PINNED_STDOUT_SHA256 = {
    ("bounds", "--state", "1 0 0 0"):
        "d794015bdd7b6cc14a78d7026a8d564f9b7417164fe4d180ecc8a6d740192e4d",
    ("bounds", "--state", S):
        "dd5527f56f29f0bba9fc767c29ebd83d989636994f441896d58f14c7f2d47adc",
    ("simulate", "--state", "1 0 0 0"):
        "fab1c58b901841383113828c06f5bb8e2b2494221e4633fb8b8c4fb984282bfa",
    ("simulate", "--lambda", "0.5", "--a", "0.8", "--b", "0"):
        "b3cd20fcd07566181be97b77a5f29cafa741fd693b3d1e153d8a339f4ba9e1b7",
    ("simulate", "--state", S, "--a", "0.5", "--b", "0.7"):
        "9071ad40f6e03189956ebc31ac8dc151237f4d41c9c2c6270fb672f71a6ac0e0",
    ("haar-average", "--mode", "known-basis", "--samples", "1000", "--seed", "3"):
        "5a265287076ba08224039b01f167b28fd75947bee24be565b8dfe5c2792113c7",
}


def _check(number: int, rows) -> None:
    ok = all(r.passed for r in rows)
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(
        f"{r.criterion}: expected {r.expected}, observed {r.observed}, "
        f"tolerance {r.tolerance}"
        for r in rows
    )
    print(f"criterion {number:02d} [{status}] {detail}")
    assert ok, detail


def test_c01_stage2_saturation():
    _check(1, verify.criterion_01(SEED))


def test_c01_batched_deviations_match_per_state_loop():
    """Building the Schmidt states as one array and taking the deviations as
    arrays gives, bit for bit, the worst deviation of a loop over states."""
    lams = np.linspace(0.0, 1.0, 102)[1:-1]
    states = np.array([schmidt_state(np.sqrt(lam), np.sqrt(1.0 - lam)) for lam in lams])
    result = protocols.stage2(states)
    worst = 0.0
    for lam, prob, output in zip(lams, result.success_prob, result.output):
        dev = abs(prob - 2.0 * lam * (1.0 - lam))
        fid_dev = abs(fidelity_up_to_phase(output, bell_phi_plus()) - 1.0)
        worst = max(worst, dev, fid_dev)
    assert verify.criterion_01(SEED)[0].observed == worst


def test_c02_four_copy_agreement():
    _check(2, verify.criterion_02(SEED))


def test_c03_kill_vectors():
    _check(3, verify.criterion_03(SEED))


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupt"])
def test_c03_stacked_check_matches_per_pair_loop(corrupt):
    """One stacked lift and check give, bit for bit, the residuals that one
    lift per pair and one norm per kill vector give, and c03 reports their
    maximum."""
    params = verify._random_valid_params(verify._sub_seed(SEED, 3), 100)
    K = np.concatenate([kraus.build_kraus(kraus.KrausParams(a, b))
                        for a, b in zip(params.a, params.b)])
    K[:, 0, 0] += 0.05 if corrupt else 0.0
    expected = [[np.linalg.norm(M @ v) for v in kraus.KILL_VECTORS.T]
                for M in (kraus.lift_local_kraus(one[None])[0] for one in K)]
    residuals = kraus.check_universality_constraints(kraus.lift_local_kraus(K))
    assert np.array_equal(residuals, expected)
    assert verify.criterion_03(SEED, corrupt_kraus=corrupt)[0].observed == np.max(expected)
    assert (np.max(expected) > 0.0) == corrupt


def test_c04_pauli_relations():
    _check(4, verify.criterion_04(SEED))


@pytest.mark.parametrize("relation", [0, 1, 13])
def test_c04_fails_on_a_nan_residual(monkeypatch, relation):
    """A nan in any Pauli relation, not only the first, fails c04: the worst
    deviation is one np.max, which propagates a nan that Python's
    max(0.0, nan) would drop."""
    residuals = kraus.pauli_relation_residuals

    def with_nan(r):
        out = residuals(r)
        out[list(out)[relation]][0] = np.nan
        return out

    monkeypatch.setattr(kraus, "pauli_relation_residuals", with_nan)
    (row,) = verify.criterion_04(SEED)
    assert np.isnan(row.observed) and not row.passed


def test_c04_stacked_expansion_matches_per_pair_loop():
    """One stacked expansion gives the worst deviation that a trace per Pauli
    product and pair gives."""
    worst = 0.0
    params = verify._random_valid_params(verify._sub_seed(SEED, 4), 100)
    for a, b in zip(params.a, params.b):
        K = kraus.build_kraus(kraus.KrausParams(a, b))[0]
        r = np.array([[np.trace(np.kron(sk, sl).conj().T @ K) / 4.0
                       for sl in kraus.PAULI_BASIS] for sk in kraus.PAULI_BASIS])
        residuals = [value[0] for value in kraus.pauli_relation_residuals(r[None]).values()]
        worst = max([worst, *residuals, abs(r[0, 3] - a / 4), abs(r[2, 3] - b / 4)])
    assert verify.criterion_04(SEED)[0].observed == worst


def test_c05_stage1_strict_bound():
    _check(5, verify.criterion_05(SEED))


def test_c06_vidal_curve():
    _check(6, verify.criterion_06(SEED))


def test_conversion_curve_is_the_c06_grid():
    """conversion_curve(1000) walks, bit for bit, the grid curve_lambdas(1000)
    that c06 reads, which is 0.5 + 0.5 k / 1001.0 as c06 once built it itself."""
    lams = np.concatenate([lam for lam, _, _ in vidal.conversion_curve(1000)]).tolist()
    assert [x.hex() for x in lams] == [x.hex() for x in vidal.curve_lambdas(1000).tolist()]
    assert [x.hex() for x in lams] == [(0.5 + 0.5 * k / 1001.0).hex() for k in range(1, 1001)]


@pytest.mark.parametrize("n", [20, 400, 1000, 3000])
def test_conversion_curve_is_the_stacked_curve(n):
    """What vidal-curve prints block by block is, in all three columns and bit
    for bit, what c06 checks with one stacked call per column."""
    lam = vidal.curve_lambdas(n)
    p_vidal = vidal.vidal_probability(vidal.doubled_schmidt_coeffs(lam),
                                      vidal.embedded_bell_coeffs())
    stacked = [lam, p_vidal, vidal.universal_two_copy_prob(lam)]
    blocks = list(vidal.conversion_curve(n))
    for column, joined in zip(stacked, map(np.concatenate, zip(*blocks))):
        assert joined.dtype == float and joined.tobytes() == column.tobytes()


def test_c06_makes_one_vidal_probability_call(count_calls):
    """c06 is one stacked call, not one call per point; the traced verify
    still counts it under vidal.vidal_probability."""
    calls = count_calls(vidal, "vidal_probability")
    verify.criterion_06(SEED)
    assert len(calls) == 1 and np.shape(calls[0][0]) == (1000, 4)


def test_c07_known_basis_average():
    _check(7, verify.criterion_07(SEED))


def test_c08_unknown_basis_average():
    _check(8, verify.criterion_08(SEED))


def test_c09_phase_cancellation():
    _check(9, verify.criterion_09(SEED))


# criterion, the estimator it calls, its target, index of its Monte Carlo row
MC_CRITERIA = [
    (verify.criterion_07, "known_basis_average_mc", 0.2, 1),
    (verify.criterion_08, "unknown_basis_average_mc", 2.0 / 105.0, 2),
    (verify.criterion_09, "phase_term_mc", 0.0, 0),
]


@pytest.mark.parametrize("criterion, estimator, target, row", MC_CRITERIA,
                         ids=["c07", "c08", "c09"])
def test_mc_rows_pass_as_within_sigmas_decides(criterion, estimator, target, row, monkeypatch):
    """A Monte Carlo row passes exactly when est.within_sigmas(target) holds: on
    the seeded estimate, and on planted ones just inside and outside 4 sigma."""
    real, seen = getattr(sampling, estimator), []
    monkeypatch.setattr(sampling, estimator, lambda n, seed: seen.append(real(n, seed)) or seen[-1])
    assert criterion(SEED)[row].passed == seen[0].within_sigmas(target)
    for offset in (-4.01, -3.99, 3.99, 4.01):
        planted = sampling.MonteCarloEstimate(target + offset * 1e-3, 1e-3, 10)
        monkeypatch.setattr(sampling, estimator, lambda n, seed: planted)
        assert criterion(SEED)[row].passed == planted.within_sigmas(target) == (abs(offset) < 4)


@pytest.mark.parametrize("seed", [1.5, "3", float("nan"), -1, 2**64])
def test_run_all_checks_its_seed_before_any_criterion(seed, monkeypatch):
    """A seed Philox cannot take raises ValueError naming seed before any
    criterion runs, as the CLI refuses it."""
    monkeypatch.setattr(verify, "_run_once", lambda *args, **kwargs: pytest.fail("ran"))
    with pytest.raises(ValueError, match="seed must be an integer"):
        verify.run_all(seed)


def test_at_most_fails_on_a_nan_in_any_array():
    """_at_most takes one np.max over every array, so a nan in the last of
    several fails the row; no deviations at all read 0.0 and pass."""
    row = verify._at_most("r", 1e-10, np.zeros(3), np.zeros((2, 4)), np.array([0.0, np.nan]))
    assert np.isnan(row.observed) and not row.passed
    row = verify._at_most("r", 1e-10, np.array([]), np.zeros((0, 4)))
    assert (row.expected, row.observed, row.passed) == (0.0, 0.0, True)


def test_positive_passes_only_above_zero():
    assert verify._positive("r", np.array([[2.0, 5e-324]])).passed
    for values in ([1.0, 0.0], [1.0, -0.0], [1.0, np.nan]):
        assert not verify._positive("r", np.array(values)).passed


def test_runtime_rows_fail_when_the_runners_clock_overruns(monkeypatch):
    """With the clock inside verify advancing 100 s a reading, each budgeted
    criterion's runtime row, right after its rows, reads exceeded budget and
    fails; every other row is unchanged."""
    rows = verify._run_once(SEED)
    ticks = itertools.count(step=100.0)
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    slow = verify._run_once(SEED)
    runtime = {name for name, _ in verify._RUNTIME_BUDGETS.values()}
    names = [r.criterion for r in rows]
    assert [r.criterion for r in slow] == names and runtime <= set(names)
    for i, (fast, late) in enumerate(zip(rows, slow)):
        if fast.criterion in runtime:
            assert names[i - 1][:3] == fast.criterion[:3] != names[i + 1][:3]
            assert (fast.observed, fast.passed) == ("within budget", True)
            assert (late.observed, late.passed) == ("exceeded budget", False)
        else:
            assert late == fast


def test_criteria_are_a_flat_tuple_of_the_ten_functions():
    """verify._CRITERIA is one flat tuple of criterion_01 ... criterion_10, in
    order.  The benchmark's tracer swaps its wrappers into flat tuples and
    module attributes only: a nested (criterion, budget) table would leave the
    criteria untraced, and a traced run would read every verify.cNN_s as 0."""
    assert type(verify._CRITERIA) is tuple
    assert verify._CRITERIA == tuple(getattr(verify, f"criterion_{k:02d}") for k in range(1, 11))


def test_c10_kraus_maximizer():
    _check(10, verify.criterion_10(SEED))


def test_c10_stacked_grid_matches_per_pair_scan():
    """One stacked pipeline call and argmax pick the point that one call per
    pair and a strict > scan in a-major order pick."""
    grid = np.linspace(0.0, 1.0, 50)
    states = sampling.haar_state_block(verify._sub_seed(SEED, 10), 8)
    best_val, best_point = -1.0, None
    for a in grid:
        for b in grid:
            if a == 0.0 or b == 0.0 or not kraus.region(a, b).valid:
                continue
            avg = np.mean(protocols.full_pipeline(states, kraus.KrausParams(a, b)).success_prob)
            if avg > best_val:
                best_val, best_point = avg, (a, b)
    observed = verify.criterion_10(SEED)[0].observed
    assert observed == f"argmax ({best_point[0]:.6f}, {best_point[1]:.6f})"


@pytest.mark.parametrize(
    "argv", PINNED_SHA256,
    ids=["corrupt-verify", "vidal-curve", "vidal-curve-3000", "f-grid", "f-grid-400"],
)
def test_pinned_outputs(argv, tmp_path, capsys):
    out = tmp_path / "out"
    cli.main([*argv, "--out", str(out)])
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SHA256[argv]


@pytest.mark.parametrize(
    "argv", PINNED_STDOUT_SHA256,
    ids=["bounds-product", "bounds-complex", "simulate-undefined-stage1",
         "simulate-undefined-pipeline", "simulate-complex", "haar-known-basis"],
)
def test_pinned_stdout(argv, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[argv]


def test_c11_deterministic_verify(tmp_path):
    payloads = []
    codes = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.json"
        proc, _ = run_child("-m", "epp_lab", "verify", "--seed", str(SEED), "--out", str(out))
        codes.append(proc.returncode)
        payloads.append(out.read_bytes())
    identical = payloads[0] == payloads[1]
    ok = identical and codes == [0, 0]
    status = "PASS" if ok else "FAIL"
    print(
        f"criterion 11 [{status}] c11-repeat-determinism: "
        f"byte-identical JSON {identical}, exit codes {codes}"
    )
    assert ok
    summary = json.loads(payloads[0])
    assert summary["all_pass"] is True
    assert summary["seed"] == SEED
    assert hashlib.sha256(payloads[0]).hexdigest() == VERIFY_SHA256
