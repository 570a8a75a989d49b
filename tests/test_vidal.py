import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epp_lab.linalg import basis_state, bell_phi_plus, schmidt_state
from epp_lab.vidal import (
    doubled_schmidt_coeffs,
    embedded_bell_coeffs,
    monotones,
    optimal_two_copy_prob,
    universal_two_copy_prob,
    vidal_probability,
)
from oracles import permute_qubits, schmidt_coefficients


def test_monotones_trivial():
    assert np.allclose(monotones([1.0]), [1.0])


def test_monotones_bell():
    assert np.allclose(monotones([0.5, 0.5]), [1.0, 0.5], atol=1e-15)


def test_monotones_doubled_state():
    lam = 0.8
    E = monotones(doubled_schmidt_coeffs(lam))
    expected = [1.0, 1 - lam**2, 1 - lam, (1 - lam) ** 2]
    assert np.allclose(E, expected, atol=1e-12)


def test_monotones_sorting_is_internal():
    a = monotones([0.1, 0.6, 0.3])
    b = monotones([0.6, 0.3, 0.1])
    assert np.allclose(a, b, atol=1e-15)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_monotones_properties(seed):
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.ones(int(rng.integers(1, 6))))
    E = monotones(x)
    assert E[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(E) <= 1e-15)  # non-increasing
    assert E[-1] >= -1e-15


def test_monotones_rejects_bad_input():
    with pytest.raises(ValueError):
        monotones([0.7, -0.1, 0.4])
    with pytest.raises(ValueError):
        monotones([0.7, 0.1])
    with pytest.raises(ValueError):
        monotones([])


def test_embedded_bell_matches_schmidt_oracle():
    """Padding the Bell target with an ancilla pair gives spectrum (1/2, 1/2, 0, 0)."""
    doubled = np.kron(bell_phi_plus(), basis_state(2, "00"))
    interleaved = permute_qubits(doubled, (0, 2, 1, 3))
    sv = schmidt_coefficients(interleaved, 2)
    assert np.allclose(np.sort(sv**2)[::-1], embedded_bell_coeffs(), atol=1e-12)


@given(st.floats(min_value=0.501, max_value=0.999))
@settings(max_examples=40)
def test_doubled_coeffs_match_schmidt_oracle(lam):
    psi = schmidt_state(np.sqrt(lam), np.sqrt(1 - lam))
    doubled = permute_qubits(np.kron(psi, psi), (0, 2, 1, 3))
    sv = schmidt_coefficients(doubled, 2)
    expected = np.sort(doubled_schmidt_coeffs(lam))[::-1]
    assert np.allclose(np.sort(sv**2)[::-1], expected, atol=1e-10)


def test_vidal_probability_values():
    target = embedded_bell_coeffs()
    assert vidal_probability(doubled_schmidt_coeffs(0.9), target) == pytest.approx(0.38, abs=1e-12)
    assert vidal_probability(doubled_schmidt_coeffs(0.6), target) == 1.0
    assert vidal_probability([0.5, 0.5], [0.5, 0.5]) == 1.0


def test_vidal_probability_identical_input():
    x = [0.4, 0.3, 0.2, 0.1]
    assert vidal_probability(x, x) == 1.0


def test_vidal_probability_pads_and_skips_zero_constraints():
    # product source cannot reach an entangled target at all
    assert vidal_probability([1.0], [0.5, 0.5]) == 0.0
    # entangled source reaches a product target with certainty; the l = 1
    # constraint has E_l(target) = 0 and must be skipped, not divided by
    assert vidal_probability([0.5, 0.5], [1.0]) == 1.0


def test_curve_values_and_breakpoint():
    assert optimal_two_copy_prob(0.8) == pytest.approx(0.72, abs=1e-15)
    assert optimal_two_copy_prob(0.6) == 1.0
    bp = 1 / np.sqrt(2)
    # the two branches agree at the breakpoint; the curve is continuous
    assert optimal_two_copy_prob(bp) == pytest.approx(1.0, abs=1e-12)
    assert optimal_two_copy_prob(bp - 1e-9) == 1.0


def test_curve_domain():
    for bad in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(ValueError):
            optimal_two_copy_prob(bad)


def test_universal_curve():
    assert universal_two_copy_prob(0.8) == pytest.approx(0.32, abs=1e-15)
    with pytest.raises(ValueError):
        universal_two_copy_prob(1.2)


@given(st.floats(min_value=0.5001, max_value=0.9999))
@settings(max_examples=60)
def test_curve_dominates_universal_strictly(lam):
    assert optimal_two_copy_prob(lam) > universal_two_copy_prob(lam)


def test_curve_monotone_after_breakpoint():
    lams = np.linspace(1 / np.sqrt(2) + 1e-6, 0.9999, 300)
    vals = [optimal_two_copy_prob(l) for l in lams]
    assert np.all(np.diff(vals) < 0)


def test_doubled_coeffs_domain():
    with pytest.raises(ValueError):
        doubled_schmidt_coeffs(1.2)
