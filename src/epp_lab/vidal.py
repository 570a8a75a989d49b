"""Optimal single-copy conversion probabilities from entanglement monotones.

The monotone vector of a bipartite pure state collects the tail sums
E_l = sum_{k >= l} of its squared Schmidt coefficients sorted in
non-increasing order.  The best conclusive conversion probability between
two pure states is the minimum over l of E_l(source) / E_l(target).
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import _as_array

# squared Schmidt coefficients may carry tiny negative float dust
_NEG_TOL = 1e-12


def _clean_coeffs(coeffs) -> np.ndarray:
    x = _as_array(coeffs, float).reshape(-1)
    if x.size == 0:
        raise ValueError("need at least one coefficient")
    if x.min() < -_NEG_TOL:
        raise ValueError(f"negative squared coefficient {x.min():.3e}")
    x = np.clip(x, 0.0, None)
    total = x.sum()
    if not (abs(total - 1.0) <= 1e-10):
        raise ValueError(f"squared coefficients must sum to 1, got {total!r}")
    return x


def monotones(schmidt_coeffs) -> np.ndarray:
    """Tail sums E_l of the sorted squared Schmidt coefficients; E_1 = 1."""
    x = _clean_coeffs(schmidt_coeffs)
    x = np.sort(x)[::-1]
    # suffix sums: E[l] = x[l] + x[l+1] + ...
    return np.cumsum(x[::-1])[::-1].copy()


def embedded_bell_coeffs() -> list:
    """Squared Schmidt coefficients of the Bell target padded into the 4x4 cut.

    The two-copy register holds a Bell pair plus a |00> ancilla pair, so the
    target spectrum across the two-qubits-per-party cut is (1/2, 1/2, 0, 0).
    """
    return [0.5, 0.5, 0.0, 0.0]


def doubled_schmidt_coeffs(lam: float) -> list:
    """Squared Schmidt spectrum of psi_lam x psi_lam across the doubled cut."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return [lam**2, lam * (1 - lam), lam * (1 - lam), (1 - lam) ** 2]


def vidal_probability(source_coeffs, target_coeffs) -> float:
    """Optimal conclusive conversion probability between two pure states.

    Arguments are squared Schmidt coefficient lists; the shorter one is
    zero-padded.  Constraints with E_l(target) = 0 are skipped: the ratio
    is +infinity there (including the 0/0 case) and never binds.  The
    result is clamped to [0, 1].
    """
    ns, nt = len(source_coeffs), len(target_coeffs)
    n = max(ns, nt)
    src = list(source_coeffs) + [0.0] * (n - ns)
    tgt = list(target_coeffs) + [0.0] * (n - nt)
    Es = monotones(src)
    Et = monotones(tgt)
    best = 1.0
    for l in range(n):
        if Et[l] <= 0.0:
            continue
        best = min(best, Es[l] / Et[l])
    return max(best, 0.0)


def optimal_two_copy_prob(lam: float) -> float:
    """Best conversion probability for psi_lam x psi_lam into one Bell pair.

    Piecewise in the larger squared Schmidt coefficient lam of the known
    input: certainty below lam = 1/sqrt(2), then 2(1 - lam^2).  Only the
    open interval (1/2, 1) is meaningful (entangled, non-Bell input).
    """
    if not 0.5 < lam < 1.0:
        raise ValueError("lambda must lie in the open interval (1/2, 1)")
    if lam < 1.0 / math.sqrt(2.0):
        return 1.0
    return 2.0 * (1.0 - lam**2)


def universal_two_copy_prob(lam: float) -> float:
    """Success 2 lam (1 - lam) of the basis-blind two-copy protocol at the same input."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return 2.0 * lam * (1.0 - lam)


def conversion_curve(n: int):
    """Yield (lam, p_vidal, p_universal) at lam = 1/2 + k/(2(n+1)), k = 1, ..., n: the
    monotone-ratio and basis-blind two-copy probabilities, one vidal_probability call each."""
    target = embedded_bell_coeffs()
    for k in range(1, n + 1):
        lam = 0.5 + 0.5 * k / (n + 1)
        p_vidal = vidal_probability(doubled_schmidt_coeffs(lam), target)
        yield lam, p_vidal, universal_two_copy_prob(lam)
