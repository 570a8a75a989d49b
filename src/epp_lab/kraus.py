"""Kraus operators for conclusive two-copy purification.

The local operator acts on one party's pair of qubits (her halves of the
two copies).  A single successful branch is modeled; an implicit failure
branch completes the physical map.  Lifting tensors two local copies and
reorders registers so the lifted operator acts on states stored in
(A, B, A', B') order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_finite, basis_state

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
# basis order used by pauli_expand: (x, y, z, identity)
PAULI_BASIS = (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2)

# (A,B,A',B') -> (A,A',B,B'); the permutation is an involution
COPY_INTERLEAVE = (0, 2, 1, 3)
# the same reorder on the row and on the column qubits of a stack of 16x16
# operators, behind its leading axis
_LIFT_AXES = (0,) + tuple(1 + q for q in COPY_INTERLEAVE) + tuple(5 + q for q in COPY_INTERLEAVE)

# Slack on the parameter constraint so boundary points like a = b = sqrt(2)/2
# survive floating-point rounding.
CONSTRAINT_SLACK = 1e-12

# largest |a|, |b| for which the success branch is a contraction
_MAX_PHYSICAL_MODULUS = np.sqrt(2) / 2


def _fourth_powers(a, b) -> tuple[float, float]:
    """|a|^4 and |b|^4, raising ValueError unless both are finite floats."""
    try:
        a4, b4 = abs(complex(a)) ** 4, abs(complex(b)) ** 4
    except OverflowError:
        raise ValueError("|a|^4 and |b|^4 must lie within the float range") from None
    if not (math.isfinite(a4) and math.isfinite(b4)):
        raise ValueError(f"a and b must be finite, got {a!r} and {b!r}")
    return a4, b4


def constraint_value(a, b) -> float:
    """2(|a|^4 + |b|^4); valid parameter pairs keep this at most 1."""
    a4, b4 = _fourth_powers(a, b)
    return 2.0 * (a4 + b4)


def params_valid(a, b) -> bool:
    if a == 0 and b == 0:
        return False
    return constraint_value(a, b) <= 1.0 + CONSTRAINT_SLACK


def f_parameter(a, b) -> float:
    """Asymmetry f = 2 | |a|^4 - |b|^4 |, ranging over [0, 1] for valid pairs.

    f = 1 only at the degenerate corners (|a| = 2**-0.25, b = 0) and the
    mirror image, where the branch output is always a product state.
    """
    a4, b4 = _fourth_powers(a, b)
    return 2.0 * abs(a4 - b4)


@dataclass
class KrausParams:
    """Complex pair (a, b) steering the success branch.

    Invariants enforced on construction: both finite numbers, not both
    zero, and 2(|a|^4 + |b|^4) <= 1 within CONSTRAINT_SLACK.  A vanishing a
    or b is allowed, but that branch can only make product output (stage1
    reports it as product_output), so the purification stage it feeds is
    useless.
    """

    a: complex
    b: complex

    def __post_init__(self):
        try:
            self.a = complex(self.a)
            self.b = complex(self.b)
        except OverflowError:
            raise ValueError("a and b must lie within the float range") from None
        if self.a == 0 and self.b == 0:
            raise ValueError("a and b must not both vanish")
        value = constraint_value(self.a, self.b)
        if not (value <= 1.0 + CONSTRAINT_SLACK):
            raise ValueError(f"2(|a|^4 + |b|^4) = {value:.6f} exceeds 1")

    @property
    def f(self) -> float:
        return f_parameter(self.a, self.b)

    @property
    def physical(self) -> bool:
        """Whether the success branch is a contraction, as a physical branch must be.

        K^dag K has eigenvalues 2|a|^2 and 2|b|^2 (and two zeros), so this
        holds exactly when max(|a|, |b|) <= sqrt(2)/2, within
        CONSTRAINT_SLACK.  Every physical pair meets the constraint, but
        pairs with sqrt(2)/2 < max(|a|, |b|) <= 2**-0.25 meet it without
        being physical.
        """
        return max(abs(self.a), abs(self.b)) <= _MAX_PHYSICAL_MODULUS + CONSTRAINT_SLACK


# stage-2 parameters: the symmetric point saturating the constraint
CANONICAL_PARAMS = KrausParams(np.sqrt(2) / 2, np.sqrt(2) / 2)


def build_kraus(params: KrausParams) -> np.ndarray:
    """Local success-branch operator a(|00><01| + |00><10|) + b(|10><01| - |10><10|)."""
    a, b = params.a, params.b
    K = np.zeros((4, 4), dtype=complex)
    K[0, 1] = a
    K[0, 2] = a
    K[2, 1] = b
    K[2, 2] = -b
    return K


def lift_local_kraus(K: np.ndarray) -> np.ndarray:
    """Two-party operator K tensor K, expressed in (A, B, A', B') register order.

    K tensor K naturally acts on (A, A')(B, B'); interleaving the row and
    the column qubits makes the result applicable directly to
    np.kron(psi, psi), which is stored as (A, B)(A', B').  K is one (4, 4)
    operator, which gives a (16, 16) result, or a (P, 4, 4) stack, which
    gives (P, 16, 16).  The kron is the broadcast outer product np.kron
    itself computes, so entry [p] of a stack is bitwise the lift of K[p].
    """
    K = _as_finite(K, "local operator")
    if K.ndim not in (2, 3) or K.shape[-2:] != (4, 4):
        raise ValueError(f"local operator must be 4x4 or a (P, 4, 4) stack, got shape {K.shape}")
    stack = K.reshape(-1, 4, 4)
    # kron[p, i, k, j, l] = K[p, i, j] * K[p, k, l]
    kron = stack[:, :, None, :, None] * stack[:, None, :, None, :]
    lifted = kron.reshape((-1,) + (2,) * 8).transpose(_LIFT_AXES).reshape(-1, 16, 16)
    return lifted[0] if K.ndim == 2 else lifted


def apply_kraus(op: np.ndarray, s: np.ndarray) -> tuple:
    """Unnormalized branch output op @ s and its squared norm (the branch probability).

    op is one (d, d) operator or a (P, d, d) stack; s is one state of
    shape (d,) or a batch of shape (n, d).  One operator on one state
    gives (out (d,), prob float), on a batch (out (n, d), prob (n,)); a
    stack puts its (P,) axis in front of both.  Entry [p, k] is bitwise
    op[p] @ s[k]: every (operator, row) pair runs the same matrix-vector
    product and the same conjugated dot product, which s @ op.T or einsum
    would not.
    """
    op = _as_finite(op, "operator")
    s = _as_finite(s, "state")
    if s.ndim not in (1, 2):
        raise ValueError(f"expected a state (d,) or a batch (n, d), got shape {s.shape}")
    d = s.shape[-1]
    if op.ndim not in (2, 3) or op.shape[-2:] != (d, d):
        raise ValueError(f"operator shape {op.shape} does not act on dimension {d}")
    # (P, 1, d, d) @ (1, n, d, 1) -> (P, n, d)
    out = np.matmul(op.reshape(-1, 1, d, d), s.reshape(1, -1, d, 1))[..., 0]
    prob = np.matmul(out.conj()[..., None, :], out[..., :, None])[..., 0, 0].real
    if s.ndim == 1:
        out, prob = out[:, 0], prob[:, 0]
    if op.ndim == 2:
        out, prob = out[0], prob[0]
    return out, (float(prob) if prob.ndim == 0 else prob)


# Universality demands the lifted operator kill every two-copy component
# that is not proportional to |00>+-|11> after success.  Listed in
# (A, B, A', B') order; the four superposition vectors are normalized.
KILL_VECTOR_LABELS = (
    "0000",
    "0101",
    "1010",
    "1111",
    "0001+0100",
    "0010+1000",
    "0111+1011",
    "1011+1110",
)


def kill_vectors() -> list[tuple[str, np.ndarray]]:
    out = []
    for label in KILL_VECTOR_LABELS:
        parts = label.split("+")
        v = sum(basis_state(4, bits) for bits in parts)
        out.append((label, v / np.linalg.norm(v)))
    return out


def check_universality_constraints(M: np.ndarray) -> np.ndarray:
    """Residual norms ||M v|| over the eight kill vectors, in KILL_VECTOR_LABELS order.

    M satisfies the constraints when every residual is at most linalg.ATOL.
    """
    M = _as_finite(M, "lifted operator")
    if M.shape != (16, 16):
        raise ValueError("lifted operator must be 16x16")
    return np.array([np.linalg.norm(M @ v) for _, v in kill_vectors()])


def pauli_expand(K: np.ndarray) -> np.ndarray:
    """Coefficients r[k, l] of K = sum_kl r[k, l] sigma_k tensor sigma_l, as a (4, 4) array.

    The basis is (x, y, z, 1) and r[k, l] = Tr[(sigma_k tensor sigma_l)^dag K] / 4.
    For build_kraus the expansion collapses to two free entries,
    r[0, 3] = a/4 and r[2, 3] = b/4, with every other entry fixed by linear
    relations.
    """
    K = np.asarray(K, dtype=complex)
    if K.shape != (4, 4):
        raise ValueError("operator must be 4x4")
    r = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        for l in range(4):
            basis_op = np.kron(PAULI_BASIS[k], PAULI_BASIS[l])
            r[k, l] = np.trace(basis_op.conj().T @ K) / 4.0
    return r


def pauli_relation_residuals(r: np.ndarray) -> dict[str, float]:
    """Residuals of the linear relations satisfied by the purifying family.

    r is the (4, 4) array from pauli_expand.  Keys name the relation; values
    are absolute deviations.  All residuals vanish (to rounding) exactly
    when K came from build_kraus.
    """
    i = 1j
    checks = {
        "r21+r12": r[1, 0] + r[0, 1],
        "r22-r11": r[1, 1] - r[0, 0],
        "r23-i*r14": r[1, 2] - i * r[0, 3],
        "r24-i*r13": r[1, 3] - i * r[0, 2],
        "r41+i*r32": r[3, 0] + i * r[2, 1],
        "r42-i*r31": r[3, 1] - i * r[2, 0],
        "r43+r34": r[3, 2] + r[2, 3],
        "r44+r33": r[3, 3] + r[2, 2],
        "r11-r34": r[0, 0] - r[2, 3],
        "r12-i*r34": r[0, 1] - i * r[2, 3],
        "r13-r14": r[0, 2] - r[0, 3],
        "r31-r14": r[2, 0] - r[0, 3],
        "r32-i*r14": r[2, 1] - i * r[0, 3],
        "r33-r34": r[2, 2] - r[2, 3],
    }
    return {name: float(abs(val)) for name, val in checks.items()}
