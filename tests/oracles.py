"""Reference implementations that the tests compare the package against.

The package never calls these, so they live with the tests:

* kalman_kraus: the Kalman purification circuit, built from its gates;
* permute_qubits and schmidt_coefficients: qubit reordering and Schmidt
  spectra of dense state vectors of any power-of-two dimension;
* pauli_reconstruct: the operator back from its Pauli-expansion coefficients;
* scalar_region_tests: the constraint value, validity, asymmetry f and
  physicality of one parameter pair, in Python's scalar arithmetic and in
  the field order of kraus.Region.
"""
import math

import numpy as np

from epp_lab.kraus import IDENTITY_2, PAULI_BASIS, SIGMA_X

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def kalman_kraus() -> np.ndarray:
    """Success branch of the Kalman purification circuit.

    Composition (H tensor |0><0|) . CNOT . (1 tensor sigma_x) with qubit 0
    as the CNOT control; equals build_kraus at a = b = sqrt(2)/2.
    """
    proj0 = np.array([[1, 0], [0, 0]], dtype=complex)
    return np.kron(HADAMARD, proj0) @ CNOT @ np.kron(IDENTITY_2, SIGMA_X)


def n_qubits(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def permute_qubits(s, perm) -> np.ndarray:
    """Reorder qubit registers of a state vector.

    perm[i] is the source position of the qubit that ends up at position i,
    so new_bits[i] = old_bits[perm[i]].  Applying perm and then its inverse
    is the identity.  Example: perm (0, 2, 1, 3) reorders registers
    (A, B, A', B') into (A, A', B, B').  A perm that is not a permutation
    of the qubits raises ValueError.
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    return s.reshape((2,) * n_qubits(s.size)).transpose(perm).reshape(-1)


def schmidt_coefficients(s, left_qubits: int) -> np.ndarray:
    """Singular values of the coefficient matrix across a contiguous cut.

    The cut puts the first left_qubits qubits on one side and the rest on
    the other.  Squared values sum to 1 for a normalized input.
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    n = n_qubits(s.size)
    if not 0 < left_qubits < n:
        raise ValueError("cut must leave a non-empty register on each side")
    C = s.reshape(2**left_qubits, 2 ** (n - left_qubits))
    return np.linalg.svd(C, compute_uv=False)


def pauli_reconstruct(r) -> np.ndarray:
    """sum_kl r[k, l] sigma_k tensor sigma_l for the (4, 4) array r of kraus.pauli_expand."""
    out = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        for l in range(4):
            out += r[k, l] * np.kron(PAULI_BASIS[k], PAULI_BASIS[l])
    return out


def scalar_region_tests(a, b) -> tuple:
    """(constraint value, valid, f, physical) of one pair (a, b), as Python scalars.

    The pair is valid when not both zero and 2(|a|^4 + |b|^4) <= 1 + 1e-12,
    and physical when also max(|a|, |b|) <= sqrt(2)/2 + 1e-12.  Both
    fourth powers must be finite; ValueError otherwise.
    """
    try:
        a4, b4 = abs(complex(a)) ** 4, abs(complex(b)) ** 4
    except OverflowError:
        raise ValueError("|a|^4 and |b|^4 must lie within the float range") from None
    if not (math.isfinite(a4) and math.isfinite(b4)):
        raise ValueError(f"a and b must be finite, got {a!r} and {b!r}")
    value = 2.0 * (a4 + b4)
    valid = not (a == 0 and b == 0) and value <= 1.0 + 1e-12
    physical = valid and max(abs(a), abs(b)) <= np.sqrt(2) / 2 + 1e-12
    return value, valid, 2.0 * abs(a4 - b4), physical
