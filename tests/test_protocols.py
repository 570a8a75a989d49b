import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epp_lab.kraus import CANONICAL_PARAMS, KrausParams
from epp_lab.linalg import (
    as_state,
    bell_phi_plus,
    fidelity_up_to_phase,
    schmidt_state,
    two_qubit_state,
)
from epp_lab.protocols import (
    four_copy_bell_bound,
    full_pipeline,
    kalman_stage1_prob,
    kalman_stage2_prob,
    schmidt_conversion_bound,
    schmidt_pair_bound,
    stage1,
    stage2,
)
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


seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_stage1_product_input_fails():
    result = stage1(two_qubit_state(1, 0, 0, 0), CANONICAL_PARAMS)
    assert result.success_prob == 0.0
    assert result.output is None


def test_stage1_bell_input():
    result = stage1(bell_phi_plus(), CANONICAL_PARAMS)
    assert result.success_prob == pytest.approx(0.5, abs=1e-12)
    assert fidelity_up_to_phase(result.output, bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)
    assert not result.product_output


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
    assert result.success_prob == pytest.approx(expected, abs=1e-12)
    assert result.stage_probs == [result.success_prob]
    if result.output is not None:
        # output lives in the {|00>, |11>} plane
        assert abs(result.output[1]) <= 1e-12
        assert abs(result.output[2]) <= 1e-12


def test_stage1_degenerate_params_product_output():
    result = stage1(bell_phi_plus(), KrausParams(0.6, 0))
    assert result.success_prob > 0
    assert result.product_output


def test_stage2_balanced_pair():
    result = stage2(schmidt_state(np.sqrt(0.5), np.sqrt(0.5)))
    assert result.success_prob == pytest.approx(0.5, abs=1e-12)
    assert fidelity_up_to_phase(result.output, bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)


def test_stage2_unbalanced_pair():
    result = stage2(schmidt_state(np.sqrt(0.8), np.sqrt(0.2)))
    assert result.success_prob == pytest.approx(0.32, abs=1e-12)
    assert fidelity_up_to_phase(result.output, bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)


def test_stage2_product_input_fails_cleanly():
    result = stage2(two_qubit_state(1, 0, 0, 0))
    assert result.success_prob == 0.0
    assert result.output is None


def test_stage2_rejects_wrong_basis():
    with pytest.raises(ValueError):
        stage2(two_qubit_state(0.5, 0.5, 0.5, 0.5))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_stage2_saturates_pair_bound(seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.01, 0.99)
    alpha, beta = np.sqrt(lam), np.sqrt(1 - lam)
    result = stage2(schmidt_state(alpha, beta))
    assert result.success_prob == pytest.approx(schmidt_pair_bound(alpha, beta), abs=1e-10)
    assert fidelity_up_to_phase(result.output, bell_phi_plus()) == pytest.approx(1.0, abs=1e-10)


def test_full_pipeline_bell_input():
    result = full_pipeline(bell_phi_plus(), CANONICAL_PARAMS)
    assert result.success_prob == pytest.approx(0.125, abs=1e-12)
    assert result.stage_probs == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)
    assert fidelity_up_to_phase(result.output, bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)


def test_full_pipeline_product_input():
    result = full_pipeline(two_qubit_state(0, 1, 0, 0), CANONICAL_PARAMS)
    assert result.success_prob == 0.0
    assert result.output is None
    assert result.product_output


def test_full_pipeline_degenerate_params():
    result = full_pipeline(bell_phi_plus(), KrausParams(0.6, 0))
    assert result.success_prob == 0.0
    assert result.output is None


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_full_pipeline_matches_closed_form(seed):
    c = random_state(seed)
    result = full_pipeline(c, CANONICAL_PARAMS)
    assert result.success_prob == pytest.approx(four_copy_bell_bound(c), abs=1e-10)
    p1, p1b, p2 = result.stage_probs
    assert p1 == p1b
    assert result.success_prob == pytest.approx(p1 * p1b * p2, abs=1e-12)
    if result.output is not None:
        assert fidelity_up_to_phase(result.output, bell_phi_plus()) == pytest.approx(
            1.0, abs=1e-10
        )


@given(seeds, seeds)
@settings(max_examples=30, deadline=None)
def test_full_pipeline_never_beats_four_copy_bound(state_seed, param_seed):
    c = random_state(state_seed)
    p = random_params(param_seed)
    result = full_pipeline(c, p)
    assert result.success_prob <= four_copy_bell_bound(c) + 1e-9


def test_schmidt_pair_bound_values():
    assert schmidt_pair_bound(np.sqrt(0.75), np.sqrt(0.25)) == pytest.approx(0.375)
    assert schmidt_pair_bound(1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        schmidt_pair_bound(1.0, 1.0)


def test_conversion_bound_values():
    assert schmidt_conversion_bound(two_qubit_state(0.5, 0.5, 0.5, 0.5)) == pytest.approx(0.5)
    assert schmidt_conversion_bound(bell_phi_plus()) == pytest.approx(0.5)


def test_four_copy_bound_values():
    assert four_copy_bell_bound(bell_phi_plus()) == pytest.approx(0.125)
    # perfectly balanced superposition: the two branches cancel
    assert four_copy_bell_bound(two_qubit_state(0.5, 0.5, 0.5, 0.5)) == pytest.approx(0.0)


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
        kalman_stage2_prob(two_qubit_state(1, 0, 0, 0))


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
        lambda: two_qubit_state(np.inf, 0, 0, 1),
        lambda: KrausParams(np.nan, 0.5),
        lambda: KrausParams(0.5, complex(0.1, np.nan)),
        lambda: schmidt_pair_bound(np.nan, 1.0),
        lambda: vidal_probability([np.nan, 1.0], [0.5, 0.5]),
        lambda: monotones([np.nan, 1.0]),
    ],
    ids=["as_state", "two_qubit_state", "params_a", "params_b", "pair_bound", "vidal", "monotones"],
)
def test_non_finite_input_rejected(call):
    """NaN makes every |x - 1| > tol test False, so each guard must be finite-safe."""
    with pytest.raises(ValueError):
        call()
