"""Dense state-vector helpers for small qubit registers.

Convention used throughout the package: big-endian indexing, so qubit 0 is
the most significant bit of the basis index.  A two-qubit state is a length-4
complex vector (c1, c2, c3, c4) over |00>, |01>, |10>, |11>.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

# Default absolute tolerance for analytic identities checked at matrix level.
ATOL = 1e-10


def n_qubits(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def as_state(amps, dim: int | None = None) -> np.ndarray:
    """Coerce to a complex 1-D array and check normalization.

    Raises ValueError if the norm deviates from 1 by more than ATOL or is
    not finite.
    """
    s = np.asarray(amps, dtype=complex).reshape(-1)
    if dim is not None and s.size != dim:
        raise ValueError(f"expected dimension {dim}, got {s.size}")
    n_qubits(s.size)
    norm = np.linalg.norm(s)
    if not (abs(norm - 1.0) <= ATOL):
        raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return s


def basis_state(n: int, bits: str) -> np.ndarray:
    """Computational basis state |bits> on n qubits, e.g. basis_state(4, "0101")."""
    if len(bits) != n:
        raise ValueError("bit string length must equal qubit count")
    v = np.zeros(2**n, dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def two_qubit_state(c1, c2, c3, c4) -> np.ndarray:
    """Normalized two-qubit pure state from its four amplitudes."""
    return as_state([c1, c2, c3, c4], dim=4)


def schmidt_state(alpha, beta) -> np.ndarray:
    """State alpha|00> + beta|11>, already in its Schmidt basis."""
    return as_state([alpha, 0.0, 0.0, beta], dim=4)


def bell_phi_plus() -> np.ndarray:
    """(|00> + |11>)/sqrt(2)."""
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two state vectors in big-endian order.

    The amplitude of |j>|k> lands at index j*dim(b) + k.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def check_permutation(perm: Sequence[int], n: int) -> tuple:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    return perm


def permute_qubits(s, perm: Sequence[int]) -> np.ndarray:
    """Reorder qubit registers of a state vector.

    perm[i] is the source position of the qubit that ends up at position i,
    so new_bits[i] = old_bits[perm[i]].  Applying perm and then its inverse
    is the identity.  Example: perm (0, 2, 1, 3) reorders registers
    (A, B, A', B') into (A, A', B, B').
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    n = n_qubits(s.size)
    perm = check_permutation(perm, n)
    return s.reshape((2,) * n).transpose(perm).reshape(-1)


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


def fidelity_up_to_phase(a, b) -> float:
    """|<a|b>|^2, insensitive to global phase on either argument."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.size != b.size:
        raise ValueError("states must have equal dimension")
    return float(abs(np.vdot(a, b)) ** 2)
