"""Dense state-vector helpers for small qubit registers.

Convention used throughout the package: big-endian indexing, so qubit 0 is
the most significant bit of the basis index.  A two-qubit state is a length-4
complex vector (c1, c2, c3, c4) over |00>, |01>, |10>, |11>, and two copies
of it are np.kron(psi, psi), stored in (A, B, A', B') register order.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

# Default absolute tolerance for analytic identities checked at matrix level.
ATOL = 1e-10


def _fits(shape: tuple, spec: tuple) -> bool:
    return len(shape) == len(spec) and all(n == m for n, m in zip(spec, shape) if type(n) is int)


def _as_array(values, dtype=complex, what: str = "numbers", shape=None) -> np.ndarray:
    """values as a finite array of dtype, float or complex, else ValueError "expected <what>, ...".

    Numbers only: strings, bytes and other non-numeric dtypes are refused,
    an object array must hold numbers.Real (for float) or numbers.Complex
    entries, complex input to float is refused, numpy's included, and so
    is an integer beyond the float range.  shape, when given, is the
    required shape or a list of them: an int fixes the length of its axis,
    None or a name leaves it free.  A non-finite entry is reported by its
    index k on the leading axis, as "<name> k" where that axis is named
    ("row 1", "pair 2") and as "index k" otherwise.  dtype None makes
    b, i, u and f input float and every other input complex.
    """
    array = np.asarray(values)
    real = array.dtype.kind in "biuf" if dtype is None else np.dtype(dtype).kind == "f"
    number = numbers.Real if real else numbers.Complex
    if not (array.dtype.kind in ("biuf" if real else "biufc") or array.dtype.kind == "O"
            and all(isinstance(x, number) for x in array.flat)):
        raise ValueError(f"expected {what}, got {array.dtype} input where "
                         f"{number.__name__.lower()} numbers belong")
    try:
        array = array.astype(float if real else complex, copy=False)
    except OverflowError:
        raise ValueError(f"expected {what}, got a number beyond the float range") from None
    fits = [s for s in ([] if shape is None else shape if isinstance(shape, list) else [shape])
            if _fits(array.shape, s)]
    if shape is not None and not fits:
        raise ValueError(f"expected {what}, got shape {array.shape}")
    finite = np.isfinite(array)
    if np.count_nonzero(finite) < array.size:  # cheaper than finite.all() on short arrays
        axis = next((s[0] for s in fits if s and isinstance(s[0], str)), "index")
        at = f" at {axis} {np.argwhere(~finite)[0][0]}" if array.ndim else ""
        raise ValueError(f"expected {what}, got a non-finite entry{at}")
    return array


def _as_real(value, name: str, lo: float = -math.inf, hi: float = math.inf,
             noun: str = "a real number") -> float:
    """value as a float in [lo, hi], else ValueError naming noun; nan lies outside every range.
    Text and numpy complex are refused by type: float() would parse one and truncate the other."""
    try:
        x = math.nan if isinstance(value, (str, bytes, np.complexfloating)) else float(value)
    except (TypeError, OverflowError):  # Python complex, integers beyond the float range
        x = math.nan
    if not lo <= x <= hi:
        raise ValueError(f"{name} must be {noun} at least {lo} and at most {hi}, got {value!r}")
    return x


def _check_int(value, name: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """value as an int in [lo, hi], else ValueError; integral floats such as 3.0 are accepted."""
    integral = (isinstance(value, (int, np.integer))
                or _as_real(value, name, lo, hi, "an integer").is_integer())
    if not (integral and lo <= int(value) <= hi):
        raise ValueError(f"{name} must be an integer at least {lo} and at most {hi}, got {value!r}")
    return int(value)


# Row k of a batch must be bitwise the value numpy's scalar operators give on
# row k alone, but some array loops round differently: complex x * y and z**2
# may use fused multiply-add, np.abs of complex arrays and real x**k other
# algorithms.  So every complex product, a square included, rounds as
# (xr yr - xi yi, xr yi + xi yr) in real arithmetic, written once in
# _cmul_into; the square of conj(z) is that of z with its imaginary part
# negated, which is exact.  Moduli go through hypot (_cabs) and real powers
# through np.float_power(x, k), which calls the scalar routine element by
# element.
# Real arrays take x * y and np.abs, bitwise the complex route at imaginary
# part 0 (x*y - 0*0 = x*y, hypot(x, 0) = |x|), without complex temporaries.


def _cmul_into(xr, xi, yr, yi, re, im, scratch, spare):
    """(xr + i xi)(yr + i yi) into the float arrays re and im, by the rule above.

    re and im may be xr and xi.  scratch and spare are overwritten, spare
    before im is written: it may be im when im is not xi, or yi.
    """
    np.multiply(xr, yi, out=scratch)
    np.multiply(xr, yr, out=re)
    re -= np.multiply(xi, yi, out=spare)
    np.multiply(xi, yr, out=im)
    im += scratch


def _cmul(x, y):
    if x.dtype.kind == y.dtype.kind == "f":
        return x * y
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    _cmul_into(x.real, x.imag, y.real, y.imag, out.real, out.imag, np.empty(out.shape), out.imag)
    return out


def _cabs(z):
    return np.abs(z) if z.dtype.kind == "f" else np.hypot(z.real, z.imag)


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
    s = _as_array(amps, what="4 amplitudes in a flat (4,) array", shape=(4,))
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
    """|<a|b>|^2 of two non-empty 1-D normalized states, insensitive to global phase on either."""
    a, b = (_as_array(x, what="a non-empty 1-D state", shape=(None,)) for x in (a, b))
    if not a.size:
        raise ValueError(f"expected two non-empty 1-D states, got shapes {a.shape}, {b.shape}")
    if a.size != b.size:
        raise ValueError("states must have equal dimension")
    _check_normalized(np.stack([a, b]))
    return float(abs(np.vdot(a, b)) ** 2)
