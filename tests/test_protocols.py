import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epp_lab import protocols
from epp_lab.kraus import CANONICAL_PARAMS, KrausParams, build_kraus
from epp_lab.linalg import (
    as_state,
    bell_phi_plus,
    fidelity_up_to_phase,
    schmidt_state,
)
from epp_lab.protocols import (
    four_copy_bell_bound,
    full_pipeline,
    kalman_stage1_prob,
    kalman_stage2_prob,
    phase_term,
    schmidt_conversion_bound,
    schmidt_pair_bound,
    stage1,
    stage2,
)
from epp_lab.sampling import haar_state_block
from epp_lab.vidal import monotones, vidal_probability


def random_state(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return z / np.linalg.norm(z)


def random_params(seed):
    rng = np.random.default_rng(seed)
    while True:
        ra, rb = rng.uniform(0.05, 0.84, size=2)
        if 2 * (ra**4 + rb**4) <= 1.0:
            return KrausParams(
                ra * np.exp(2j * np.pi * rng.random()),
                rb * np.exp(2j * np.pi * rng.random()),
            )


def stack_params(*params):
    """One KrausParams holding the pairs of each given one, in order."""
    return KrausParams(np.concatenate([p.a for p in params]), np.concatenate([p.b for p in params]))


seeds = st.integers(min_value=0, max_value=2**32 - 1)

# the closed forms that take one state (4,) or a batch (n, 4); kalman_stage2_prob
# also needs a nonzero stage-1 probability on every row
STATE_CLOSED_FORMS = (
    four_copy_bell_bound,
    schmidt_conversion_bound,
    kalman_stage1_prob,
    kalman_stage2_prob,
    phase_term,
)


def test_stage1_product_input_fails():
    result = stage1(as_state([1, 0, 0, 0]), CANONICAL_PARAMS)
    assert result.success_prob[0, 0] == 0.0
    assert not result.output[0, 0].any()


def test_stage1_bell_input():
    result = stage1(bell_phi_plus(), CANONICAL_PARAMS)
    assert result.success_prob[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert fidelity_up_to_phase(result.output[0, 0], bell_phi_plus()) == pytest.approx(
        1.0, abs=1e-12
    )
    assert not result.product_output[0, 0]


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_stage1_closed_form(state_seed, param_seed):
    """Matrix-level branch amplitudes follow 2a^2(c1c4+c2c3), 2b^2(c1c4-c2c3)."""
    c = random_state(state_seed)
    p = random_params(param_seed)
    result = stage1(c, p)
    u = c[0] * c[3] + c[1] * c[2]
    w = c[0] * c[3] - c[1] * c[2]
    expected = 4 * abs(p.a) ** 4 * abs(u) ** 2 + 4 * abs(p.b) ** 4 * abs(w) ** 2
    assert result.success_prob[0, 0] == pytest.approx(expected, abs=1e-12)
    assert len(result.stage_probs) == 1
    assert np.array_equal(result.stage_probs[0], result.success_prob)
    # output lives in the {|00>, |11>} plane; an undefined one is all zero
    assert abs(result.output[0, 0, 1]) <= 1e-12
    assert abs(result.output[0, 0, 2]) <= 1e-12


def test_stage1_degenerate_params_product_output():
    result = stage1(bell_phi_plus(), KrausParams(0.6, 0))
    assert result.success_prob[0, 0] > 0
    assert result.product_output[0, 0]


def test_stage2_balanced_pair():
    result = stage2(schmidt_state(np.sqrt(0.5), np.sqrt(0.5)))
    assert result.success_prob[0] == pytest.approx(0.5, abs=1e-12)
    assert fidelity_up_to_phase(result.output[0], bell_phi_plus()) == pytest.approx(
        1.0, abs=1e-12
    )


def test_stage2_unbalanced_pair():
    result = stage2(schmidt_state(np.sqrt(0.8), np.sqrt(0.2)))
    assert result.success_prob[0] == pytest.approx(0.32, abs=1e-12)
    assert fidelity_up_to_phase(result.output[0], bell_phi_plus()) == pytest.approx(
        1.0, abs=1e-12
    )


def test_stage2_product_input_fails_cleanly():
    result = stage2(as_state([1, 0, 0, 0]))
    assert result.success_prob[0] == 0.0
    assert not result.output[0].any()


def test_stage2_rejects_wrong_basis():
    with pytest.raises(ValueError):
        stage2(as_state([0.5, 0.5, 0.5, 0.5]))


def test_stage2_is_stage1_at_symmetric_point():
    """On inputs in the {|00>, |11>} basis stage2 is bitwise stage1 at a = b =
    sqrt(2)/2, and never reports a product output."""
    lams = np.linspace(0.0, 1.0, 41)
    batch = np.array([schmidt_state(np.sqrt(lam), np.sqrt(1 - lam)) for lam in lams])
    batch[7, 1] = 1e-11  # within the basis tolerance
    second, first = stage2(batch), stage1(batch, CANONICAL_PARAMS)
    assert np.array_equal(second.success_prob, first.success_prob[0])
    assert np.array_equal(second.output, first.output[0])
    assert not second.product_output.any() and not first.product_output.any()


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_stage2_saturates_pair_bound(seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.01, 0.99)
    alpha, beta = np.sqrt(lam), np.sqrt(1 - lam)
    result = stage2(schmidt_state(alpha, beta))
    assert result.success_prob[0] == pytest.approx(schmidt_pair_bound(alpha, beta)[0], abs=1e-10)
    assert fidelity_up_to_phase(result.output[0], bell_phi_plus()) == pytest.approx(
        1.0, abs=1e-10
    )


def test_full_pipeline_bell_input():
    result = full_pipeline(bell_phi_plus(), CANONICAL_PARAMS)
    assert result.success_prob[0, 0] == pytest.approx(0.125, abs=1e-12)
    assert [p[0, 0] for p in result.stage_probs] == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)
    assert fidelity_up_to_phase(result.output[0, 0], bell_phi_plus()) == pytest.approx(
        1.0, abs=1e-12
    )


def test_full_pipeline_product_input():
    result = full_pipeline(as_state([0, 1, 0, 0]), CANONICAL_PARAMS)
    assert result.success_prob[0, 0] == 0.0
    assert not result.output[0, 0].any()
    assert result.product_output[0, 0]


def test_full_pipeline_degenerate_params():
    result = full_pipeline(bell_phi_plus(), KrausParams(0.6, 0))
    assert result.success_prob[0, 0] == 0.0
    assert not result.output[0, 0].any()


def test_full_pipeline_succeeds_exactly_where_its_output_is_defined():
    """Near-degenerate pairs flag the stage-1 output as product while stage 2
    still has a tiny weight; the pipeline then reports P2 = 0, so its success
    probability is exactly zero on the all-zero output rows and nowhere else."""
    small, large = [0.0, 1e-8, 1e-6, 1e-4j, 1e-3, 1e-2], [0.5, 0.7, 0.8]
    pairs = [(s, l) for s in small for l in large]
    params = KrausParams(*np.array(pairs + [p[::-1] for p in pairs]).T)
    states = np.vstack([haar_state_block(5, 8), schmidt_state(0.9**0.5, 0.1**0.5),
                        schmidt_state(0.7**0.5, 0.3**0.5), bell_phi_plus(), [0, 1, 0, 0]])
    result = full_pipeline(states, params)
    undefined = ~result.output.any(axis=-1)
    assert np.array_equal(result.success_prob == 0.0, undefined)
    assert np.all(result.stage_probs[2][undefined] == 0.0)
    # rows where stage 1 succeeded with a product output are among them
    assert np.any(undefined & (result.stage_probs[0] > 0.0) & result.product_output)
    assert not undefined.all()


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_full_pipeline_matches_closed_form(seed):
    c = random_state(seed)
    result = full_pipeline(c, CANONICAL_PARAMS)
    success = result.success_prob[0, 0]
    assert success == pytest.approx(four_copy_bell_bound(c)[0], abs=1e-10)
    p1, p1b, p2 = (p[0, 0] for p in result.stage_probs)
    assert p1 == p1b
    assert success == pytest.approx(p1 * p1b * p2, abs=1e-12)
    if result.output[0, 0].any():
        assert fidelity_up_to_phase(result.output[0, 0], bell_phi_plus()) == pytest.approx(
            1.0, abs=1e-10
        )


@given(seeds, seeds)
@settings(max_examples=30, deadline=None)
def test_full_pipeline_never_beats_four_copy_bound(state_seed, param_seed):
    c = random_state(state_seed)
    p = random_params(param_seed)
    result = full_pipeline(c, p)
    assert result.success_prob[0, 0] <= four_copy_bell_bound(c)[0] + 1e-9


def test_schmidt_pair_bound_values():
    assert schmidt_pair_bound(np.sqrt(0.75), np.sqrt(0.25)) == pytest.approx(0.375)
    assert schmidt_pair_bound(1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        schmidt_pair_bound(1.0, 1.0)
    # every pair of a batch is checked, and alpha and beta must match in shape
    with pytest.raises(ValueError, match="row 1"):
        schmidt_pair_bound(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    for alpha, beta in [(np.ones(2), np.zeros(3)), (np.ones((2, 2)), np.zeros((2, 2)))]:
        with pytest.raises(ValueError, match="two scalars or two"):
            schmidt_pair_bound(alpha, beta)


def test_conversion_bound_values():
    assert schmidt_conversion_bound(as_state([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.5)
    assert schmidt_conversion_bound(bell_phi_plus()) == pytest.approx(0.5)


def test_four_copy_bound_values():
    assert four_copy_bell_bound(bell_phi_plus()) == pytest.approx(0.125)
    # perfectly balanced superposition: the two branches cancel
    assert four_copy_bell_bound(as_state([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.0)


@given(seeds)
@settings(max_examples=50)
def test_four_copy_bound_identity(seed):
    """The printed three-term form equals 2|(c1c4)^2 - (c2c3)^2|^2 and stays >= 0."""
    c = random_state(seed)
    u, w = c[0] * c[3], c[1] * c[2]
    value = four_copy_bell_bound(c)
    assert value == pytest.approx(2 * abs(u**2 - w**2) ** 2, abs=1e-14)
    assert value >= 0.0


def test_kalman_probs_on_bell():
    phi = bell_phi_plus()
    assert kalman_stage1_prob(phi) == pytest.approx(0.5, abs=1e-12)
    assert kalman_stage2_prob(phi) == pytest.approx(0.5, abs=1e-12)


def test_kalman_stage2_undefined_for_product():
    with pytest.raises(ValueError):
        kalman_stage2_prob(as_state([1, 0, 0, 0]))
    # one vanishing row makes the whole batch undefined
    with pytest.raises(ValueError, match="row 1"):
        kalman_stage2_prob(np.array([bell_phi_plus(), [1, 0, 0, 0]]))


@given(seeds)
@settings(max_examples=50)
def test_kalman_route_reproduces_four_copy_bound(seed):
    c = random_state(seed)
    p1 = kalman_stage1_prob(c)
    assume(p1 > 1e-6)
    total = p1**2 * kalman_stage2_prob(c)
    assert total == pytest.approx(four_copy_bell_bound(c), abs=1e-12)


def test_phase_dependence_is_cosine():
    """With fixed magnitudes the four-copy bound varies as -cos of the joint phase."""
    x = np.array([0.4, 0.2, 0.25, 0.15])
    mags = np.sqrt(x)
    for eta in np.linspace(0, 2 * np.pi, 17):
        # put the whole relative phase on c1: eta = 2(t1 + t4 - t2 - t3)
        c = mags * np.array([np.exp(1j * eta / 2), 1, 1, 1])
        expected = (
            2 * (x[0] * x[3]) ** 2
            + 2 * (x[1] * x[2]) ** 2
            - 4 * x[0] * x[1] * x[2] * x[3] * np.cos(eta)
        )
        assert four_copy_bell_bound(c) == pytest.approx(expected, abs=1e-12)


def test_phase_invariance_of_conversion_bound():
    c = random_state(21)
    phased = c * np.exp(1j * np.array([0.3, 1.1, -0.4, 2.0]))
    assert schmidt_conversion_bound(phased) == pytest.approx(
        schmidt_conversion_bound(c), abs=1e-12
    )
    assert kalman_stage1_prob(phased) == pytest.approx(kalman_stage1_prob(c), abs=1e-12)



@pytest.mark.parametrize(
    "call",
    [
        lambda: as_state([np.nan, 0, 0, 1]),
        lambda: KrausParams(np.nan, 0.5),
        lambda: KrausParams(0.5, complex(0.1, np.nan)),
        lambda: schmidt_pair_bound(np.nan, 1.0),
        lambda: vidal_probability([np.nan, 1.0], [0.5, 0.5]),
        lambda: monotones([np.nan, 1.0]),
    ],
    ids=["as_state", "params_a", "params_b", "pair_bound", "vidal", "monotones"],
)
def test_non_finite_input_rejected(call):
    """NaN makes every |x - 1| > tol test False, so each guard must be finite-safe."""
    with pytest.raises(ValueError):
        call()


# ------------------------------------------------------------------ batches

def mixed_batch(seed):
    """Haar, product, Schmidt-basis, |00> and Bell rows in a seeded order."""
    rng = np.random.default_rng(seed)
    haar = haar_state_block(seed, 4)
    q = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    q /= np.linalg.norm(q, axis=2, keepdims=True)
    product = np.array([np.kron(x, y) for x, y in q])
    lam = rng.uniform(0.01, 0.99, 3)
    phase = np.exp(2j * np.pi * rng.random(3))
    schmidt = np.array(
        [schmidt_state(np.sqrt(l), np.sqrt(1 - l) * ph) for l, ph in zip(lam, phase)]
    )
    batch = np.vstack([haar, product, schmidt, [[1, 0, 0, 0]], [bell_phi_plus()]])
    return batch[rng.permutation(len(batch))]


def assert_one_shape(result, shape):
    """Every field is an array with the given leading shape, never a float or None;
    an output row is all zero where the success probability vanishes, else normalized."""
    for f in (result.success_prob, result.product_output, *result.stage_probs):
        assert isinstance(f, np.ndarray) and f.shape == shape
    assert isinstance(result.output, np.ndarray) and result.output.shape == shape + (4,)
    assert result.product_output.dtype == bool
    norms = np.linalg.norm(result.output, axis=-1)
    assert np.all((norms == 0.0) | (np.abs(norms - 1.0) <= 1e-12))
    assert not result.output[result.success_prob == 0.0].any()


def assert_batch_equals_rows(run, batch):
    """Row k of a batch is bitwise the batch of one that holds row k alone.

    The leading shape is (1,) for stage1 and full_pipeline under one
    KrausParams and () for stage2, so a (4,) state gives (1, 1) or (1,) fields.
    """
    result = run(batch)
    rows = [run(c) for c in batch]
    lead = result.success_prob.shape[:-1]
    assert_one_shape(result, lead + (len(batch),))
    for r in rows:
        assert_one_shape(r, lead + (1,))
    # join the batches of one along the state axis
    axis = len(lead)
    for name in ("success_prob", "product_output", "output"):
        joined = np.concatenate([getattr(r, name) for r in rows], axis)
        assert np.array_equal(getattr(result, name), joined)
    joined = np.concatenate([r.stage_probs for r in rows], axis + 1)
    assert np.array_equal(result.stage_probs, joined)


@given(seeds, st.sampled_from(["random", "canonical", "a_only", "b_only"]))
@settings(max_examples=30, deadline=None)
def test_batch_equals_row_by_row(seed, kind):
    """An (n, 4) batch gives bitwise the batches of one, row by row, and every
    result has one shape whatever the input's."""
    params = {
        "random": random_params(seed),
        "canonical": CANONICAL_PARAMS,
        "a_only": KrausParams(0.6, 0),
        "b_only": KrausParams(0, 0.5),
    }[kind]
    batch = mixed_batch(seed)
    assert_batch_equals_rows(lambda c: stage1(c, params), batch)
    assert_batch_equals_rows(lambda c: full_pipeline(c, params), batch)
    # stage-2 inputs: the defined stage-1 outputs plus failing |00>-only rows
    first = stage1(batch, params).output[0]
    defined = first[np.any(first != 0, axis=1)]
    basis = np.vstack([defined, [[1, 0, 0, 0]], [[0, 0, 0, 1]]])
    assert_batch_equals_rows(stage2, basis)
    # closed forms: an (n,) array whose row k is bitwise the (1,) array for row k
    defined_p1 = batch[kalman_stage1_prob(batch) != 0.0]
    for closed_form in STATE_CLOSED_FORMS:
        rows = defined_p1 if closed_form is kalman_stage2_prob else batch
        singles = [closed_form(c) for c in rows]
        assert all(isinstance(v, np.ndarray) and v.shape == (1,) for v in singles)
        assert np.array_equal(closed_form(rows), np.concatenate(singles))
    # two scalars are a Schmidt pair of one
    alpha, beta = basis[:, 0], basis[:, 3]
    singles = [schmidt_pair_bound(a, b) for a, b in zip(alpha, beta)]
    assert all(isinstance(v, np.ndarray) and v.shape == (1,) for v in singles)
    assert np.array_equal(schmidt_pair_bound(alpha, beta), np.concatenate(singles))


def assert_stack_equals_single_calls(run, batch, pairs):
    """Entry [p, k] of a stacked run is bitwise the single-pair, single-state run."""
    result = run(batch, pairs)
    single_state = run(batch[0], pairs)
    assert single_state.success_prob.shape == (len(pairs), 1)
    for p in range(len(pairs)):
        params = pairs[p]
        for k, c in enumerate(batch):
            one = run(c, params)
            assert result.success_prob[p, k] == one.success_prob[0, 0]
            assert [q[p, k] for q in result.stage_probs] == [q[0, 0] for q in one.stage_probs]
            assert result.product_output[p, k] == one.product_output[0, 0]
            assert np.array_equal(result.output[p, k], one.output[0, 0])
            if k == 0:
                assert single_state.success_prob[p, 0] == one.success_prob[0, 0]
                assert np.array_equal(single_state.output[p, 0], one.output[0, 0])


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_parameter_axis_equals_single_calls(seed):
    """A stack of P pairs gives bitwise the single-pair calls, pair by pair and row by row.

    The batch mixes Haar, product, Schmidt, |00> and Bell rows; the pairs mix
    random, canonical and degenerate ones.
    """
    pairs = stack_params(random_params(seed), CANONICAL_PARAMS, KrausParams(0.6, 0),
                         random_params(seed + 1), KrausParams(0, 0.5))
    batch = mixed_batch(seed)
    assert_stack_equals_single_calls(stage1, batch, pairs)
    assert_stack_equals_single_calls(full_pipeline, batch, pairs)


@pytest.mark.parametrize("step_rows", [1, 3, 8, 10**6])
def test_step_rows_do_not_change_results(monkeypatch, step_rows):
    """However the parameter axis is cut into steps, every field is bitwise the same."""
    pairs = stack_params(*[random_params(s) for s in range(6)], CANONICAL_PARAMS,
                         KrausParams(0, 0.5))
    batch = mixed_batch(11)
    expected = [stage1(batch, pairs), full_pipeline(batch, pairs)]
    monkeypatch.setattr(protocols, "_STEP_ROWS", step_rows)
    for want, got in zip(expected, [stage1(batch, pairs), full_pipeline(batch, pairs)]):
        assert np.array_equal(got.success_prob, want.success_prob)
        assert np.array_equal(got.stage_probs, want.stage_probs)
        assert np.array_equal(got.product_output, want.product_output)
        assert np.array_equal(got.output, want.output)


@pytest.mark.parametrize(
    "params",
    [[], (), [CANONICAL_PARAMS, (0.5, 0.3)], (0.5, 0.3), None, 0.5,
     [CANONICAL_PARAMS, KrausParams(0.5, 0.3)]],
    ids=["empty-list", "empty-tuple", "raw-pair-item", "raw-pair", "none", "number",
         "list-of-params"],
)
def test_stage_functions_reject_bad_params(params):
    for run in (stage1, full_pipeline):
        with pytest.raises(ValueError, match="KrausParams"):
            run(bell_phi_plus(), params)


def scalar_closed_forms(c):
    """Reference: the closed forms on one state, computed with numpy's scalar operators."""
    u, w = c[0] * c[3], c[1] * c[2]
    cross = (c[0] ** 2 * c[3] ** 2 * np.conj(c[1]) ** 2 * np.conj(c[2]) ** 2).real
    return {
        four_copy_bell_bound: max(2.0 * abs(w) ** 4 + 2.0 * abs(u) ** 4 - 4.0 * cross, 0.0),
        schmidt_conversion_bound: 2.0 * (abs(u) + abs(w)) ** 2,
        kalman_stage1_prob: 2.0 * (abs(w) ** 2 + abs(u) ** 2),
        kalman_stage2_prob: abs(u**2 - w**2) ** 2 / (2.0 * (abs(w) ** 2 + abs(u) ** 2) ** 2),
        phase_term: cross,
    }


def test_batch_matches_scalar_operators():
    """Row k of a closed form is bitwise what numpy's scalar operators give on row k.

    Plain array arithmetic (fused complex products, np.abs, x**k) moves the
    last bit on 5-45% of Haar rows, so a few thousand rows expose it.
    """
    states = haar_state_block(2025, 5000)
    expected = [scalar_closed_forms(c) for c in states]
    for closed_form in expected[0]:
        assert np.array_equal(closed_form(states), [e[closed_form] for e in expected])
    lam = np.linspace(0.0, 1.0, 5001)
    alpha, beta = np.sqrt(lam), np.sqrt(1.0 - lam)
    assert np.array_equal(
        schmidt_pair_bound(alpha, beta),
        [2.0 * abs(float(a) * float(b)) ** 2 for a, b in zip(alpha, beta)],
    )


def _leaking_kraus(params):
    K = build_kraus(params)
    K[:, 3, 3] = 0.05  # maps |11> to itself: leaks out of the |00> ancilla slot
    return K


def _flipped_kraus(params):
    K = build_kraus(params)
    K[:, 2, 2] = -K[:, 2, 2]  # b(|10><01| + |10><10|): support on |01> and |10>
    return K


def _alpha_flipped_kraus(params):
    return build_kraus(KrausParams(1j * params.a, params.b))  # alpha' changes sign


def _beta_flipped_kraus(params):
    return build_kraus(KrausParams(params.a, 1j * params.b))  # beta' changes sign


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_leaking_kraus, "leaked"),
        (_flipped_kraus, "support"),
        (_alpha_flipped_kraus, "closed form"),
        (_beta_flipped_kraus, "closed form"),
    ],
    ids=["leak", "support", "closed-form-alpha", "closed-form-beta"],
)
def test_batch_guards_fire_on_any_row(monkeypatch, corrupt, message):
    """A corrupted operator raises even when only a later row of the batch, or a
    later pair of the stack, shows it."""
    params = KrausParams(0.6, 0.3)
    clean = np.array([1, 0, 0, 0], dtype=complex)  # every branch maps |00>|00> to zero
    batch = np.vstack([clean, haar_state_block(3, 5)])
    monkeypatch.setattr(protocols, "build_kraus", corrupt)
    stage1(clean, params)
    for run in (lambda c: stage1(c, params), lambda c: full_pipeline(c, params)):
        with pytest.raises(RuntimeError, match=message):
            run(batch)
    # only the last pair is corrupted, so the stack's first pairs run clean
    stack = stack_params(KrausParams(0.5, 0.4), CANONICAL_PARAMS, params)

    def corrupt_last(p):
        K = build_kraus(p)
        last = (p.a == params.a) & (p.b == params.b)
        K[last] = corrupt(params)
        return K

    monkeypatch.setattr(protocols, "build_kraus", corrupt_last)
    stage1(batch, stack[:2])
    for step_rows in (protocols._STEP_ROWS, 1):
        monkeypatch.setattr(protocols, "_STEP_ROWS", step_rows)
        for run in (stage1, full_pipeline):
            with pytest.raises(RuntimeError, match=message):
                run(batch, stack)


@pytest.mark.parametrize(
    "bad_row",
    [[np.nan, 0, 0, 1], [1, 0, 0, 1], [0.6, 0, 0, 0.8 + 1e-9]],
    ids=["nan", "unnormalized", "slightly-unnormalized"],
)
def test_batch_rejects_bad_row(bad_row):
    batch = np.array([bell_phi_plus(), bad_row, bell_phi_plus()], dtype=complex)
    for run in (lambda c: stage1(c, CANONICAL_PARAMS), stage2,
                lambda c: full_pipeline(c, CANONICAL_PARAMS), *STATE_CLOSED_FORMS):
        with pytest.raises(ValueError, match="row 1"):
            run(batch)
    with pytest.raises(ValueError, match="row 1"):
        schmidt_pair_bound(batch[:, 0], batch[:, 3])


def test_stage2_batch_rejects_off_basis_row():
    batch = np.array([bell_phi_plus(), [0.5, 0.5, 0.5, 0.5], schmidt_state(0.6, 0.8)])
    with pytest.raises(ValueError, match="Schmidt basis"):
        stage2(batch)


@pytest.mark.parametrize(
    "shape", [(), (3,), (5, 3), (2, 2), (2, 3, 4)], ids=["scalar", "short", "narrow", "2x2", "3d"]
)
def test_stage_functions_reject_bad_shape(shape):
    state = np.full(shape, 0.5, dtype=complex)
    for run in (lambda c: stage1(c, CANONICAL_PARAMS), stage2,
                lambda c: full_pipeline(c, CANONICAL_PARAMS), *STATE_CLOSED_FORMS):
        with pytest.raises(ValueError):
            run(state)
