import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from epp_lab.linalg import (
    as_state,
    basis_state,
    bell_phi_plus,
    fidelity_up_to_phase,
    schmidt_state,
)
from oracles import n_qubits, permute_qubits, schmidt_coefficients


def random_state(seed, n=4):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


# two copies are stored as np.kron(psi, psi) in big-endian order, the layout
# that the lift and the stage kernel assume
def test_tensor_zero_zero():
    out = np.kron(basis_state(1, "0"), basis_state(1, "0"))
    assert np.array_equal(out, np.array([1, 0, 0, 0], dtype=complex))


def test_tensor_bell_with_ancilla_pair():
    # big-endian: |phi+>|00> puts weight on binary 0000 and 1100
    out = np.kron(bell_phi_plus(), basis_state(2, "00"))
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = 1 / np.sqrt(2)
    expected[0b1100] = 1 / np.sqrt(2)
    assert np.allclose(out, expected, atol=1e-15)


def test_tensor_self_product_amplitudes():
    c = as_state([0.6, 0, 0, 0.8])
    out = np.kron(c, c)
    assert out[0b0011] == pytest.approx(0.48)
    assert out[0b1100] == pytest.approx(0.48)
    assert out[0b0000] == pytest.approx(0.36)
    assert out[0b1111] == pytest.approx(0.64)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_tensor_associative(seed):
    a = random_state(seed, 2)
    b = random_state(seed + 1, 2)
    c = random_state(seed + 2, 4)
    left = np.kron(np.kron(a, b), c)
    right = np.kron(a, np.kron(b, c))
    assert np.allclose(left, right, atol=1e-12)


def test_tensor_norm_multiplicative():
    a = random_state(0, 2)
    b = random_state(1, 8)
    assert np.linalg.norm(np.kron(a, b)) == pytest.approx(1.0, abs=1e-12)


def test_permute_identity():
    s = random_state(5, 16)
    assert np.array_equal(permute_qubits(s, (0, 1, 2, 3)), s)


def test_permute_interleave_example():
    # (A,B,A',B') -> (A,A',B,B') maps |0011> to |0101>
    out = permute_qubits(basis_state(4, "0011"), (0, 2, 1, 3))
    assert np.array_equal(out, basis_state(4, "0101"))
    # and |0101> back to |0011>: the permutation is an involution
    back = permute_qubits(basis_state(4, "0101"), (0, 2, 1, 3))
    assert np.array_equal(back, basis_state(4, "0011"))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_permute_roundtrip_and_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    s = random_state(seed, 2**n)
    perm = tuple(int(p) for p in rng.permutation(n))
    moved = permute_qubits(s, perm)
    assert np.linalg.norm(moved) == pytest.approx(1.0, abs=1e-12)
    inverse = tuple(int(p) for p in np.argsort(perm))
    assert np.allclose(permute_qubits(moved, inverse), s, atol=1e-12)


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_qubits(basis_state(2, "00"), (0, 0))


def test_schmidt_bell():
    coeffs = schmidt_coefficients(bell_phi_plus(), 1)
    assert np.allclose(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_schmidt_product_states():
    assert np.allclose(schmidt_coefficients(basis_state(2, "00"), 1), [1, 0], atol=1e-12)
    plus_plus = as_state([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(schmidt_coefficients(plus_plus, 1), [1, 0], atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_schmidt_coeffs_local_unitary_invariant(seed):
    """Schmidt spectrum is sorted, normalized, and unchanged by local basis changes."""
    s = random_state(seed)
    rng = np.random.default_rng(seed)
    u = unitary_group.rvs(2, random_state=rng)
    v = unitary_group.rvs(2, random_state=rng)
    rotated = np.kron(u, v) @ s
    a = schmidt_coefficients(s, 1)
    b = schmidt_coefficients(rotated, 1)
    assert a[0] >= a[1] >= 0
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(a, b, atol=1e-9)


def test_schmidt_coefficients_doubled_cut():
    # cut a 4-qubit register in half; squares sum to one
    s = random_state(3, 16)
    sv = schmidt_coefficients(s, 2)
    assert sv.shape == (4,)
    assert np.sum(sv**2) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        schmidt_coefficients(s, 0)


def test_fidelity_phase_invariance():
    s = random_state(11)
    assert fidelity_up_to_phase(s, s) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_up_to_phase(s, np.exp(0.7j) * s) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_up_to_phase(basis_state(2, "00"), basis_state(2, "11")) == 0.0


def test_fidelity_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        fidelity_up_to_phase(basis_state(1, "0"), basis_state(2, "00"))
    # two empty vectors are no states, and a 2-D array is no vector even
    # when its size matches
    with pytest.raises(ValueError, match="non-empty 1-D"):
        fidelity_up_to_phase([], [])
    with pytest.raises(ValueError, match="non-empty 1-D"):
        fidelity_up_to_phase([[1, 0], [0, 0]], [1, 0, 0, 0])


def test_state_validation():
    with pytest.raises(ValueError):
        as_state([1.0, 1.0, 0, 0])
    with pytest.raises(ValueError):
        as_state([1.0, 0.0, 0.0])
    # four normalized amplitudes in a 2x2 nesting are not a flat state
    with pytest.raises(ValueError, match="flat"):
        as_state([[0.6, 0], [0, 0.8]])
    with pytest.raises(ValueError):
        n_qubits(3)
    s = schmidt_state(np.sqrt(0.25), np.sqrt(0.75))
    assert s[0] == pytest.approx(0.5)
    assert s[3] == pytest.approx(np.sqrt(0.75))


def test_basis_state_bad_width():
    with pytest.raises(ValueError):
        basis_state(3, "01")
