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
array.  A stage whose success probability is below ZERO_PROB, the one
floor of every route, fails: its output is undefined, an all-zero row, and
kalman_stage2_prob raises.  A call builds its (P, 4, 4) operator stack
once; the stage kernel lifts and applies it, with the pairs' a and b, in
(pair x state) tiles of at most _STEP_ROWS rows: a batch of n <= _STEP_ROWS
states runs whole, _STEP_ROWS // n pairs a tile, a longer one in slices of
_STEP_ROWS states, one pair a tile.  Stage 2 is that kernel at
CANONICAL_PARAMS, its operator built at import; full_pipeline runs it in
each tile on the tile's stage-1 outputs, normalized in the {|00>, |11>}
basis by construction, without stage2's input checks.  Two checks run on
every (pair, row): the 14 stray amplitudes vanish and (alpha', beta') is
the closed form.  Entry [p, k] of any result is bitwise entry [0, 0] of
the call on pair p and row k alone, whatever the tile size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kraus import CANONICAL_PARAMS, apply_kraus, build_kraus, lift_local_kraus
from .linalg import ATOL, _as_array, _cabs, _check_normalized, _cmul, _cmul_into

# the stage-failure floor: a stage whose success probability is below it fails
# (amplitudes cancel exactly for product inputs, so this only guards float dust)
ZERO_PROB = 1e-30

# most pair x state rows in one tile of the stage kernel, for any P and n.
# A full tile's workspace measures 1.1-1.5 MB under tracemalloc (1 024
# states x 1 pair, 8 x 128), where verify's 1 540-pair grid as one tile
# peaked near 13 MB and 20 000 states as one tile near 18 MB
_STEP_ROWS = 1024

# stage 2's operator stack and pair, (K, a, b) at CANONICAL_PARAMS
_STAGE2 = (build_kraus(CANONICAL_PARAMS), CANONICAL_PARAMS.a, CANONICAL_PARAMS.b)

# flat slots 4 AB + A'B' of a branch output other than |00>|00> (0) and |11>|00> (12)
_STRAY = np.r_[1:12, 13:16]


@dataclass
class ProtocolResult:
    """Outcome of a conclusive stage or pipeline on a batch of n states.

    success_prob is (n,) from stage2 and (P, n) from stage1 and
    full_pipeline, and every other field has the same leading shape.
    output holds the normalized post-selected states, (..., 4), with an
    all-zero row where the success probability is below ZERO_PROB and no
    output exists; a normalized output is never all-zero.  stage_probs is a list
    of arrays that multiply to success_prob.  A stage-1 output can be
    defined but unentangled (one Schmidt coefficient numerically zero);
    stage 2 then fails on it, so full_pipeline reports that row undefined.
    """

    success_prob: np.ndarray
    output: np.ndarray
    stage_probs: list


def _as_batch(state) -> np.ndarray:
    """(n, 4) complex view of one state or a batch; one state is a batch of one.

    Every row must be normalized within ATOL, as in as_state.
    """
    c = _as_array(state, what="a state (4,) or a batch (n, 4)", shape=[(4,), ("row", 4)])
    return _check_normalized(c.reshape(-1, 4))


def _walk(step, c: np.ndarray, K: np.ndarray, a: np.ndarray, b: np.ndarray) -> list:
    """step(rows, K, a, b) over (pair x state) tiles of at most _STEP_ROWS rows, joined.

    Each tile gets one slice of the (P, 4, 4) stack K and of its pairs a, b.
    The tiles follow the rule above; an empty batch is one tile of no rows.
    step returns arrays with leading (pair, state) axes, copied into place.
    """
    rows = min(max(len(c), 1), _STEP_ROWS)
    size = _STEP_ROWS // rows
    fields = None
    for i in range(0, len(K), size):
        for k in range(0, max(len(c), 1), rows):
            tile = step(c[k:k + rows], K[i:i + size], a[i:i + size], b[i:i + size])
            fields = fields or [np.empty((len(K), len(c)) + f.shape[2:], f.dtype) for f in tile]
            for field, f in zip(fields, tile):
                field[i:i + size, k:k + rows] = f
    return fields


def _stage1_rows(c: np.ndarray, K: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """Matrix-level run of one two-copy branch per operator K[p] on an (n, 4) batch.

    K is a (P, 4, 4) stack with pairs a, b.  An output holding anything but
    alpha'|00>|00> + beta'|11>|00>, or a pair off the closed form, raises
    RuntimeError.  Returns (prob, output, product), of shapes (P, n),
    (P, n, 4) and (P, n); product (bool) marks a defined but unentangled output.
    """
    M = lift_local_kraus(K)
    # row k is np.kron(c[k], c[k])
    doubled = (c[:, :, None] * c[:, None, :]).reshape(-1, 16)
    out, prob = apply_kraus(M, doubled)

    # the branch fills slots 0 and 12 alone; any other amplitude is a bug
    stray = np.linalg.norm(out[..., _STRAY], axis=-1)
    if not np.all(stray <= ATOL):
        raise RuntimeError("branch output leaked outside the |00>|00>, |11>|00> support: "
                           f"{np.max(stray):.3e}")
    # (alpha', beta') at flat slots 0 and 12, against the closed form
    pair = out[..., ::12]
    u, w = _products(c)
    expected = np.stack([(2.0 * _cmul(a, a))[:, None] * (u + w),
                         (2.0 * _cmul(b, b))[:, None] * (u - w)], axis=-1)
    if not np.all(np.abs(pair - expected) <= ATOL):
        raise RuntimeError("matrix-level amplitudes disagree with the closed form")

    # rows alpha'|00> + beta'|11> normalized, zero where the branch fails
    defined = prob >= ZERO_PROB
    output = np.zeros(prob.shape + (4,), dtype=complex)
    np.divide(pair, np.sqrt(prob)[..., None], out=output[..., ::3], where=defined[..., None])
    # squared moduli from real and imaginary parts round the same in any batch size
    weights = pair.real**2 + pair.imag**2
    product = defined & (np.minimum(weights[..., 0], weights[..., 1])
                         / np.where(defined, prob, 1.0) <= 1e-12)
    return prob, output, product


def stage1(state, params) -> ProtocolResult:
    """First purification round: psi x psi -> alpha'|00> + beta'|11>, or failure.

    alpha' = 2 a^2 (c1 c4 + c2 c3) and beta' = 2 b^2 (c1 c4 - c2 c3); the
    success probability is |alpha'|^2 + |beta'|^2.  Degenerate parameters
    (a = 0 or b = 0) give an unentangled output, on which stage2 fails.
    Takes one state (4,) or a batch (n, 4), and a KrausParams of P pairs;
    every field is (P, n).
    """
    prob, output, _ = _walk(_stage1_rows, _as_batch(state), build_kraus(params),
                            params.a, params.b)
    return ProtocolResult(prob, output, [prob])


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
    prob, output, _ = (field[0] for field in _walk(_stage1_rows, c, *_STAGE2))
    return ProtocolResult(prob, output, [prob])


def _pipeline_rows(c: np.ndarray, K: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    p1, first_output, first_product = _stage1_rows(c, K, a, b)
    # stage2's kernel without its input checks: stage-1 outputs are normalized in
    # its basis, and a failed one is an all-zero row, on which stage 2 fails
    second_prob, second_output, _ = _stage1_rows(first_output.reshape(-1, 4), *_STAGE2)
    p2 = second_prob[0].reshape(p1.shape)
    product = first_product | (p2 < ZERO_PROB)
    output = second_output[0].reshape(first_output.shape)
    # no output, no success: the pipeline succeeds exactly where its output is defined
    output[product] = 0.0
    p2[product] = 0.0
    return p1, p2, output


def full_pipeline(state, params) -> ProtocolResult:
    """Four copies in, one Bell pair out: stage1 on two independent pairs, then stage2.

    Both stage-1 runs see identical inputs, so their branch probabilities
    coincide and the total success probability is P1^2 * P2.  A failed or
    product stage-1 output, or a stage-2 branch weight below ZERO_PROB,
    makes the pipeline report an undefined (all-zero) output instead of
    raising, and then P2 and the success probability are exactly zero.
    Takes one state (4,) or a batch (n, 4), and a KrausParams of P pairs;
    every field is (P, n).
    """
    p1, p2, output = _walk(_pipeline_rows, _as_batch(state), build_kraus(params),
                           params.a, params.b)
    return ProtocolResult(p1 * p1 * p2, output, [p1, p1, p2])


# ------------------------------------------------------------ closed forms
# each row rounds as on its own: every complex product, a square included,
# goes through linalg._cmul_into or its allocating form _cmul


def _products(c):
    """c1 c4 and c2 c3 for every row of a validated (n, 4) batch."""
    return _cmul(c[:, 0], c[:, 3]), _cmul(c[:, 1], c[:, 2])


def _cross_term(c, work=None):
    """Re[c1^2 c4^2 conj(c2)^2 conj(c3)^2] for every row of a validated (n, 4) batch.

    The squares and their products run through _cmul_into in five arrays of n;
    a conjugate's square is the square with its imaginary part negated.
    work, if given, is those five arrays, the result in the first;
    otherwise each is allocated in turn.
    """
    re, im, sq_re, sq_im, scratch = (np.empty(len(c)) for _ in range(5)) if work is None else work
    z = c[:, 0]
    _cmul_into(z.real, z.imag, z.real, z.imag, re, im, scratch, im)
    for k in 3, 1, 2:
        z = c[:, k]
        _cmul_into(z.real, z.imag, z.real, z.imag, sq_re, sq_im, scratch, sq_im)
        if k < 3:  # conj(c2)^2 and conj(c3)^2
            sq_im *= -1.0
        _cmul_into(re, im, sq_re, sq_im, re, im, scratch, sq_im)
    return re


def schmidt_pair_bound(alpha, beta):
    """Optimal conclusive probability for two copies of alpha|00> + beta|11>: 2|alpha beta|^2.

    Takes two scalars, a pair of one, or two (n,) arrays of normalized pairs.
    """
    a, b = (_as_array(x, None, "two scalars or two (n,) arrays", [(), ("row",)])
            for x in (alpha, beta))
    if a.shape != b.shape:
        raise ValueError(f"expected two scalars or two (n,) arrays, got {a.shape}, {b.shape}")
    a, b = a.reshape(-1), b.reshape(-1)
    # |norm - 1| of the state (alpha, 0, 0, beta), the rule of every state input
    err = np.abs(np.hypot(_cabs(a), _cabs(b)) - 1.0)
    bad = np.flatnonzero(~(err <= ATOL))
    if bad.size:
        raise ValueError(f"Schmidt pair not normalized: {err[bad[0]]:.3e} off in row {bad[0]}")
    return _pair_bound(a, b)


def _pair_bound(a, b):
    """schmidt_pair_bound on two (n,) arrays of pairs the package made normalized, unchecked."""
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


def _four_copy(c, work=None):
    """four_copy_bell_bound for every row of a validated (n, 4) batch.

    Evaluated as 2|c2 c3|^4 + 2|c1 c4|^4 - 4 _cross_term(c), each product
    through _cmul_into, one operation at a time in place, so at most five
    arrays of n are live.  work, if given, is five float arrays of n
    that _cross_term and then the rest run in, the result in the second;
    otherwise each is allocated in turn.
    """
    cross = _cross_term(c, work)
    value, other, re, im = (np.empty(len(c)) for _ in range(4)) if work is None else work[1:]
    for k, out in (1, value), (0, other):
        x, y = c[:, k], c[:, 3 - k]
        _cmul_into(x.real, x.imag, y.real, y.imag, re, im, out, im)
        np.float_power(np.hypot(re, im, out=re), 4, out=out)
        out *= 2.0
    value += other
    cross *= 4.0
    value -= cross
    # clip float dust: the quantity is a squared modulus
    value[value < 0.0] = 0.0
    return value


def kalman_stage1_prob(state):
    """First-round success 2(|c2 c3|^2 + |c1 c4|^2) of the symmetric-parameter branch."""
    u, w = _products(_as_batch(state))
    return 2.0 * (np.float_power(_cabs(w), 2) + np.float_power(_cabs(u), 2))


def kalman_stage2_prob(state):
    """Second-round success conditioned on the first; undefined when the first fails.

    |(c1 c4)^2 - (c2 c3)^2|^2 / (2 (|c2 c3|^2 + |c1 c4|^2)^2), raising
    ValueError where kalman_stage1_prob of any row is below ZERO_PROB.
    """
    u, w = _products(_as_batch(state))
    half_p1 = np.float_power(_cabs(w), 2) + np.float_power(_cabs(u), 2)
    failed = np.flatnonzero(~(2.0 * half_p1 >= ZERO_PROB))
    if failed.size:
        raise ValueError(f"undefined: stage-1 probability below {ZERO_PROB:g} in row {failed[0]}")
    return np.float_power(_cabs(_cmul(u, u) - _cmul(w, w)), 2) / (
        2.0 * np.float_power(half_p1, 2))
