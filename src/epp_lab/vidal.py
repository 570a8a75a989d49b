"""Optimal single-copy conversion probabilities from entanglement monotones.

The monotone vector of a bipartite pure state collects the tail sums
E_l = sum_{k >= l} of its squared Schmidt coefficients sorted in
non-increasing order.  The best conclusive conversion probability between
two pure states is the minimum over l of E_l(source) / E_l(target).
vidal_probability takes an (n, k) stack of sources too, and the two-copy
curves an (n,) array of lambdas; entry i is bitwise the call on row i alone.
"""
from __future__ import annotations

import numpy as np

from .linalg import ATOL, _as_array, _check_int

# squared Schmidt coefficients may carry tiny negative float dust
_NEG_TOL = 1e-12
# largest conversion_curve grid: at 32-56 us per point (2-core x86-64 host), 10**6
# points take about 30-60 s
MAX_GRID = 10**6


def _monotones(coeffs, what="a 1-D list of squared Schmidt coefficients", shape=(None,)):
    """Tail sums of a spectrum, or of each row of a stack of them, after checking it."""
    x = _as_array(coeffs, float, what, shape)
    if not x.shape[-1]:
        raise ValueError(f"need a spectrum of at least one coefficient, got shape {x.shape}")
    low = x.min(axis=-1)
    x = np.maximum(x, 0.0)
    total = x.sum(axis=-1)  # x is finite
    for off, value, text in ((low < -_NEG_TOL, low, "negative squared coefficient {:.3e}"),
                             (np.abs(total - 1.0) > ATOL, total,
                              "squared coefficients must sum to 1, got {!r}")):
        if np.count_nonzero(off):  # cheaper than off.any() on one spectrum
            bad = np.flatnonzero(off)[0]
            raise ValueError(text.format(float(value.flat[bad]))
                             + (f" in row {bad}" if x.ndim > 1 else ""))
    # E[l] = x[l] + x[l+1] + ... in non-increasing order: the ascending running sum, reversed
    return np.cumsum(np.sort(x), axis=-1)[..., ::-1]


def monotones(schmidt_coeffs) -> np.ndarray:
    """Tail sums E_l of the sorted squared Schmidt coefficients; E_1 = 1."""
    return _monotones(schmidt_coeffs).copy()


def embedded_bell_coeffs() -> list:
    """Squared Schmidt coefficients of the Bell target padded into the 4x4 cut.

    The two-copy register holds a Bell pair plus a |00> ancilla pair, so the
    target spectrum across the two-qubits-per-party cut is (1/2, 1/2, 0, 0).
    """
    return [0.5, 0.5, 0.0, 0.0]


def _lambdas(lam, lo=0.0, hi=1.0, closed=True) -> np.ndarray:
    """lam, a real scalar or (n,) array, as floats in [lo, hi], or in (lo, hi) if not closed."""
    x = _as_array(lam, float, "lambda as a real number or an (n,) array", [(), ("point",)])
    bad = np.flatnonzero(~((lo <= x) & (x <= hi) if closed else (lo < x) & (x < hi)))
    if bad.size:
        raise ValueError(f"lambda must lie {'in' if closed else 'strictly inside'} [{lo}, {hi}], "
                         f"got {float(x.flat[bad[0]])!r} at point {bad[0]}")
    return x


def doubled_schmidt_coeffs(lam) -> np.ndarray:
    """Squared Schmidt spectrum of psi_lam x psi_lam across the doubled cut: (4,), or (n, 4)."""
    lam = _lambdas(lam)
    mixed = lam * (1 - lam)
    return np.stack([np.float_power(lam, 2), mixed, mixed, np.float_power(1 - lam, 2)], axis=-1)


def vidal_probability(source_coeffs, target_coeffs):
    """Optimal conclusive conversion probability between two pure states.

    The source is a 1-D squared Schmidt coefficient list (a float results) or an
    (n, k) stack of them ((n,) results), the target a 1-D list; the shorter is
    zero-padded.  Constraints with E_l(target) = 0, where the ratio is +infinity
    (0/0 included), never bind and are skipped.  The result is clamped to [0, 1].
    """
    Es = _monotones(source_coeffs, "a 1-D spectrum or a stack of them", [(None,), ("row", None)])
    # E_1(target) = 1 binds; Es.T[l] is E_l of each source, 0 past a shorter source's length
    best = 1.0
    for l, e_t in enumerate(monotones(target_coeffs).tolist()):
        if e_t > 0.0:
            best = np.minimum(best, Es.T[l] / e_t if l < len(Es.T) else 0.0)
    return np.maximum(best, 0.0)


def optimal_two_copy_prob(lam):
    """Best conversion probability for psi_lam x psi_lam into one Bell pair.

    min(1, 2(1 - lam^2)) in the larger squared Schmidt coefficient lam of the
    known input: certainty up to lam = 1/sqrt(2), then 2(1 - lam^2), which
    rounds above 1 at that breakpoint itself.  Only the open interval
    (1/2, 1) is meaningful (entangled, non-Bell input).
    """
    lam = _lambdas(lam, 0.5, 1.0, closed=False)
    return np.minimum(2.0 * (1.0 - np.float_power(lam, 2)), 1.0)


def universal_two_copy_prob(lam):
    """Success 2 lam (1 - lam) of the basis-blind two-copy protocol at the same input."""
    lam = _lambdas(lam)
    return 2.0 * lam * (1.0 - lam)


def _curve_lambda(k, n: int):
    return 0.5 + 0.5 * k / (n + 1)


def curve_lambdas(n: int) -> np.ndarray:
    """The n points lam = 1/2 + k/(2(n+1)), k = 1, ..., n, that conversion_curve(n) walks."""
    n = _check_int(n, "n", 1, MAX_GRID)
    return _curve_lambda(np.arange(1, n + 1), n)


def conversion_curve(n: int):
    """Iterator over the curve_lambdas(n) grid in blocks of at most 1024 points, so memory
    stays flat in n, each three (k,) float arrays (lam, p_vidal, p_universal): the
    monotone-ratio and basis-blind two-copy probabilities, one vidal_probability call a point.

    n is checked when this is called, not at the first block: it must be an
    integer in [1, MAX_GRID], which bounds the run time.
    """
    return _curve_blocks(_check_int(n, "n", 1, MAX_GRID))


def _curve_blocks(n: int):
    target = embedded_bell_coeffs()
    for start in range(1, n + 1, 1024):
        lam = _curve_lambda(np.arange(start, min(start + 1024, n + 1)), n)
        p_vidal = np.array([vidal_probability(c, target) for c in doubled_schmidt_coeffs(lam)])
        yield lam, p_vidal, universal_two_copy_prob(lam)
