"""Two-stage conclusive purification pipeline and its closed-form bounds.

Stage 1 maps two copies of an arbitrary two-qubit pure state to a state
already in the {|00>, |11>} basis; stage 2 (run at the symmetric parameter
point) maps two copies of such a state to the Bell state (|00>+|11>)/sqrt(2)
exactly or fails.  All stage functions work at matrix level and cross-check
themselves against the closed forms.

Inputs are promoted, results have one shape.  A state of shape (4,) is
a batch of one and two scalars a Schmidt pair of one; this is the one
module that takes single states, the kraus functions take stacks only.
The pairs come as one KrausParams, which holds P pairs (one pair is a
stack of one).  For an (n, 4) batch and P pairs, stage1 and full_pipeline
return (P, n) fields, stage2 (n,) fields and every closed form an (n,)
array, and an undefined output is an all-zero row.  The stage kernel
builds and lifts a (P, 16, 16) operator stack and applies it to the whole
batch, in steps of at most _STEP_ROWS pair x state rows; only the pair
axis is cut, so a longer batch runs whole.  Stage 2 is that kernel at
CANONICAL_PARAMS; full_pipeline runs it on its stage-1 outputs, which are
normalized in the {|00>, |11>} basis by construction, without stage2's
input checks.  The leak, basis-support and closed-form checks run on every
(pair, row).  Entry [p, k] of any result is bitwise entry [0, 0] of the
call on pair p and row k alone, whatever the step size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kraus import CANONICAL_PARAMS, KrausParams, apply_kraus, build_kraus, lift_local_kraus
from .linalg import ATOL, _as_array, _cabs, _check_normalized, _cmul

# indices of the (A, B, A', B') basis whose ancilla pair A'B' reads 00
_AB_SLOTS = np.array([0, 4, 8, 12])

# treat branch weights below this as exact failure (amplitudes cancel exactly
# for product inputs, so this only guards float dust)
_ZERO_PROB = 1e-30

# most pair x state rows in one step of the stage kernel, which cuts only the
# pair axis.  A step's workspace is about 1 KB per row plus 8 KB per lifted
# pair, under 1 MB for any number of pairs (verify's 1 540-pair grid in one
# step: near 13 MB); a batch of n > 512 states runs whole, about 0.9 KB a row
_STEP_ROWS = 512


@dataclass
class ProtocolResult:
    """Outcome of a conclusive stage or pipeline on a batch of n states.

    success_prob is (n,) from stage2 and (P, n) from stage1 and
    full_pipeline, and every other field has the same leading shape.
    output holds the normalized post-selected states, (..., 4), with an
    all-zero row where the success probability vanishes and no output
    exists; a normalized output is never all-zero.  stage_probs is a list
    of arrays that multiply to success_prob.  product_output (bool) marks
    a defined but unentangled output (one Schmidt coefficient numerically
    zero), which makes any following stage fail.
    """

    success_prob: np.ndarray
    output: np.ndarray
    stage_probs: list
    product_output: np.ndarray


def _as_batch(state) -> np.ndarray:
    """(n, 4) complex view of one state or a batch; one state is a batch of one.

    Every row must be normalized within ATOL, as in as_state.
    """
    c = _as_array(state, what="a state (4,) or a batch (n, 4)", shape=[(4,), ("row", 4)])
    return _check_normalized(c.reshape(-1, 4))


def _as_params(params) -> KrausParams:
    if not isinstance(params, KrausParams):
        raise ValueError(f"expected a KrausParams, got {type(params).__name__}")
    return params


def _walk(step, c: np.ndarray, pairs: KrausParams) -> list:
    """step(c, chunk) over slices of the pairs, at most _STEP_ROWS pair x state rows a slice.

    step returns a tuple of arrays with a leading pair axis; the chunks are
    joined along it.  A batch longer than _STEP_ROWS runs one pair at a time.
    """
    size = max(1, _STEP_ROWS // max(len(c), 1))
    parts = [step(c, pairs[i:i + size]) for i in range(0, len(pairs), size)]
    return [np.concatenate(field) for field in zip(*parts)]


def _stage_amplitudes(c: np.ndarray, pairs: KrausParams):
    """Matrix-level run of one two-copy branch per pair on an (n, 4) batch.

    Returns (alpha', beta', prob), each of shape (P, n).
    """
    M = lift_local_kraus(build_kraus(pairs))
    # row k is np.kron(c[k], c[k])
    doubled = (c[:, :, None] * c[:, None, :]).reshape(-1, 16)
    out, prob = apply_kraus(M, doubled)

    # the branch must leave the ancilla pair in |00>; anything else is a bug
    residual = np.linalg.norm(np.delete(out, _AB_SLOTS, axis=2), axis=2)
    if not np.all(residual <= ATOL):
        raise RuntimeError(
            f"branch output leaked outside the |00> ancilla slot: {np.max(residual):.3e}"
        )
    ab = out[..., _AB_SLOTS]
    if not np.all(np.abs(ab[..., 1:3]) <= ATOL):
        raise RuntimeError("branch output has support outside the {|00>, |11>} basis")

    alpha, beta = ab[..., 0], ab[..., 3]
    # closed form for the same amplitudes
    u, w = _products(c)
    # np.power(z, 2) rounds as z**2 on one complex does
    expected_alpha = (2.0 * np.power(pairs.a, 2))[:, None] * (u + w)
    expected_beta = (2.0 * np.power(pairs.b, 2))[:, None] * (u - w)
    if not (
        np.all(np.abs(alpha - expected_alpha) <= ATOL)
        and np.all(np.abs(beta - expected_beta) <= ATOL)
    ):
        raise RuntimeError("matrix-level amplitudes disagree with the closed form")
    return alpha, beta, prob


def _branch_output(alpha, beta, prob) -> tuple[np.ndarray, np.ndarray]:
    """Rows alpha'|00> + beta'|11> normalized, zero where the branch fails; and the success mask."""
    defined = prob >= _ZERO_PROB
    output = np.zeros(prob.shape + (4,), dtype=complex)
    output[..., 0] = alpha
    output[..., 3] = beta
    output[defined] /= np.sqrt(prob[defined])[:, None]
    output[~defined] = 0.0
    return output, defined


def _stage1_rows(c: np.ndarray, pairs: KrausParams) -> tuple:
    alpha, beta, prob = _stage_amplitudes(c, pairs)
    output, defined = _branch_output(alpha, beta, prob)
    # squared moduli from real and imaginary parts round the same in any batch size
    weights = np.minimum(alpha.real**2 + alpha.imag**2, beta.real**2 + beta.imag**2)
    product = defined & (weights / np.where(defined, prob, 1.0) <= 1e-12)
    return prob, output, product


def stage1(state, params) -> ProtocolResult:
    """First purification round: psi x psi -> alpha'|00> + beta'|11>, or failure.

    alpha' = 2 a^2 (c1 c4 + c2 c3) and beta' = 2 b^2 (c1 c4 - c2 c3); the
    success probability is |alpha'|^2 + |beta'|^2.  Degenerate parameters
    (a = 0 or b = 0) give a product output, reported via product_output.
    Takes one state (4,) or a batch (n, 4), and a KrausParams of P pairs;
    every field is (P, n).
    """
    prob, output, product = _walk(_stage1_rows, _as_batch(state), _as_params(params))
    return ProtocolResult(prob, output, [prob], product)


def stage2(state) -> ProtocolResult:
    """Second round on a state already in the {|00>, |11>} basis.

    Requires c2 = c3 = 0 within tolerance; raises ValueError otherwise.
    Runs the symmetric-parameter branch on two copies.  On success the
    output is exactly (|00>+|11>)/sqrt(2) with probability 2|alpha beta|^2.
    Takes one state (4,) or a batch (n, 4); every field is (n,).
    """
    c = _as_batch(state)
    if not np.all(np.abs(c[:, 1:3]) <= ATOL):
        raise ValueError("stage2 input must have Schmidt basis {|00>, |11>}")
    # two copies of such a state never make a product output
    prob, output, product = (field[0] for field in _stage1_rows(c, CANONICAL_PARAMS))
    return ProtocolResult(prob, output, [prob], product)


def _pipeline_rows(c: np.ndarray, pairs: KrausParams) -> tuple:
    p1, first_output, first_product = _stage1_rows(c, pairs)
    # stage 2 also runs on product stage-1 outputs; only failed ones skip it
    ran = p1 >= _ZERO_PROB
    # stage2's kernel without its input checks: stage-1 outputs are normalized in its basis
    second_prob, second_output, _ = _stage1_rows(first_output[ran], CANONICAL_PARAMS)
    p2 = np.zeros_like(p1)
    p2[ran] = second_prob[0]
    product = first_product | (p2 < _ZERO_PROB)
    output = np.zeros_like(first_output)
    output[ran] = second_output[0]
    # no output, no success: the pipeline succeeds exactly where its output is defined
    output[product] = 0.0
    p2[product] = 0.0
    return p1, p2, output, product


def full_pipeline(state, params) -> ProtocolResult:
    """Four copies in, one Bell pair out: stage1 on two independent pairs, then stage2.

    Both stage-1 runs see identical inputs, so their branch probabilities
    coincide and the total success probability is P1^2 * P2.  A failed or
    product stage-1 output, or a stage-2 branch weight below _ZERO_PROB,
    makes the pipeline report an undefined (all-zero) output instead of
    raising, and then P2 and the success probability are exactly zero.
    Takes one state (4,) or a batch (n, 4), and a KrausParams of P pairs;
    every field is (P, n).
    """
    p1, p2, output, product = _walk(_pipeline_rows, _as_batch(state), _as_params(params))
    return ProtocolResult(p1 * p1 * p2, output, [p1, p1, p2], product)


# ------------------------------------------------------------ closed forms
# each row rounds as on its own, by the rule above linalg._cmul


def _products(c):
    """c1 c4 and c2 c3 for every row of a validated (n, 4) batch."""
    return _cmul(c[:, 0], c[:, 3]), _cmul(c[:, 1], c[:, 2])


def _cross_term(c):
    """Re[c1^2 c4^2 conj(c2)^2 conj(c3)^2] for every row of a validated (n, 4) batch."""
    term = _cmul(np.power(c[:, 0], 2), np.power(c[:, 3], 2))
    term = _cmul(term, np.power(c[:, 1].conj(), 2))
    return _cmul(term, np.power(c[:, 2].conj(), 2)).real


def schmidt_pair_bound(alpha, beta):
    """Optimal conclusive probability for two copies of alpha|00> + beta|11>: 2|alpha beta|^2.

    Takes two scalars, a pair of one, or two (n,) arrays of normalized pairs.
    """
    a, b = (_as_array(x, None, "two scalars or two (n,) arrays", [(), ("row",)])
            for x in (alpha, beta))
    if a.shape != b.shape:
        raise ValueError(f"expected two scalars or two (n,) arrays, got {a.shape}, {b.shape}")
    a, b = a.reshape(-1), b.reshape(-1)
    err = np.abs(np.float_power(_cabs(a), 2) + np.float_power(_cabs(b), 2) - 1.0)
    bad = np.flatnonzero(~(err <= ATOL))
    if bad.size:
        raise ValueError(f"Schmidt pair not normalized: {err[bad[0]]:.3e} off in row {bad[0]}")
    return 2.0 * np.float_power(_cabs(_cmul(a, b)), 2)


def schmidt_conversion_bound(state):
    """Upper bound 2(|c1 c4| + |c2 c3|)^2 on any single two-copy branch.

    No admissible parameter pair reaches it on states where both c1 c4 and
    c2 c3 are nonzero; the gap is at least 4(1 - f)|c1 c2 c3 c4|.
    """
    u, w = _products(_as_batch(state))
    return 2.0 * np.float_power(_cabs(u) + _cabs(w), 2)


def four_copy_bell_bound(state):
    """Best pipeline success over valid parameters, reached at a = b = sqrt(2)/2.

    Equals 2|c2 c3|^4 + 2|c1 c4|^4 - 4 Re[c1^2 c4^2 conj(c2)^2 conj(c3)^2],
    which is 2|(c1 c4)^2 - (c2 c3)^2|^2, manifestly non-negative.
    """
    return _four_copy(_as_batch(state))


def _four_copy(c):
    """four_copy_bell_bound for every row of a validated (n, 4) batch."""
    u, w = _products(c)
    value = (
        2.0 * np.float_power(_cabs(w), 4)
        + 2.0 * np.float_power(_cabs(u), 4)
        - 4.0 * _cross_term(c)
    )
    # clip float dust: the quantity is a squared modulus
    return np.where(value < 0.0, 0.0, value)


def kalman_stage1_prob(state):
    """First-round success 2(|c2 c3|^2 + |c1 c4|^2) of the symmetric-parameter branch."""
    u, w = _products(_as_batch(state))
    return 2.0 * (np.float_power(_cabs(w), 2) + np.float_power(_cabs(u), 2))


def kalman_stage2_prob(state):
    """Second-round success conditioned on the first; undefined when the first fails.

    |(c1 c4)^2 - (c2 c3)^2|^2 / (2 (|c2 c3|^2 + |c1 c4|^2)^2), raising
    ValueError when the stage-1 probability of any row vanishes.
    """
    u, w = _products(_as_batch(state))
    denom = 2.0 * np.float_power(np.float_power(_cabs(w), 2) + np.float_power(_cabs(u), 2), 2)
    vanished = np.flatnonzero(denom == 0.0)
    if vanished.size:
        raise ValueError(f"undefined: stage-1 success probability vanishes in row {vanished[0]}")
    return np.float_power(_cabs(np.power(u, 2) - np.power(w, 2)), 2) / denom
