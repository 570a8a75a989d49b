"""Dense state-vector helpers for small qubit registers.

Convention used throughout the package: big-endian indexing, so qubit 0 is
the most significant bit of the basis index.  A two-qubit state is a length-4
complex vector (c1, c2, c3, c4) over |00>, |01>, |10>, |11>, and two copies
of it are np.kron(psi, psi), stored in (A, B, A', B') register order.
"""
from __future__ import annotations

import numpy as np

# Default absolute tolerance for analytic identities checked at matrix level.
ATOL = 1e-10


def _as_array(values, dtype=complex) -> np.ndarray:
    """np.asarray(values, dtype), raising ValueError for integers beyond the float range.

    numpy raises OverflowError for those.  The states, Schmidt pairs and
    Schmidt coefficients that library entry points take are converted here,
    so out-of-range input is a ValueError like any other bad input.
    """
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:
        raise ValueError("number beyond the float range") from None


def _as_finite(values, what: str) -> np.ndarray:
    """_as_array(values), raising ValueError if any entry is nan or infinite."""
    array = _as_array(values)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{what} has a non-finite entry")
    return array


# Row k of a batch must be bitwise the value numpy's scalar operators give on
# row k alone, but some array loops round differently: complex x * y and z**2
# may use fused multiply-add, np.abs of complex arrays and real x**k other
# algorithms.  So products are written out in real arithmetic (_cmul), moduli
# go through hypot (_cabs), and powers through np.power(z, 2) and
# np.float_power(x, k), which call the scalar routines element by element.


def _cmul(x, y):
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _cabs(z):
    return np.hypot(z.real, z.imag)


def _check_normalized(rows: np.ndarray) -> np.ndarray:
    """rows, after checking that every row of a 2-D array has norm 1 within ATOL.

    Raises ValueError naming the first row whose norm deviates by more than
    ATOL or is not finite.
    """
    err = np.abs(np.linalg.norm(rows, axis=1) - 1.0)
    bad = np.flatnonzero(~(err <= ATOL))
    if bad.size:
        raise ValueError(f"state not normalized: |norm - 1| = {err[bad[0]]:.3e} in row {bad[0]}")
    return rows


def as_state(amps) -> np.ndarray:
    """Coerce four amplitudes to a complex (4,) array and check normalization."""
    s = _as_array(amps)
    if s.shape != (4,):
        raise ValueError(f"expected 4 amplitudes in a flat (4,) array, got shape {s.shape}")
    _check_normalized(s[None, :])
    return s


def basis_state(n: int, bits: str) -> np.ndarray:
    """Computational basis state |bits> on n qubits, e.g. basis_state(4, "0101")."""
    if len(bits) != n:
        raise ValueError("bit string length must equal qubit count")
    v = np.zeros(2**n, dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def schmidt_state(alpha, beta) -> np.ndarray:
    """State alpha|00> + beta|11>, already in its Schmidt basis."""
    return as_state([alpha, 0.0, 0.0, beta])


def bell_phi_plus() -> np.ndarray:
    """(|00> + |11>)/sqrt(2)."""
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def fidelity_up_to_phase(a, b) -> float:
    """|<a|b>|^2 of two non-empty 1-D states, insensitive to global phase on either."""
    a, b = _as_finite(a, "state"), _as_finite(b, "state")
    if a.ndim != 1 or b.ndim != 1 or a.size == 0:
        raise ValueError(f"expected two non-empty 1-D states, got shapes {a.shape}, {b.shape}")
    if a.size != b.size:
        raise ValueError("states must have equal dimension")
    return float(abs(np.vdot(a, b)) ** 2)
