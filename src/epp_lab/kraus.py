"""Kraus operators for conclusive two-copy purification.

The local operator acts on one party's pair of qubits (her halves of the
two copies).  A single successful branch is modeled; an implicit failure
branch completes the physical map.  Lifting tensors two local copies and
reorders registers so the lifted operator acts on states stored in
(A, B, A', B') order.

Every function that takes operators takes a (P, ...) stack of them, and
one operator is a stack of one; entry [p] of a result is bitwise the
result on the stack of one K[p:p + 1].
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


def _as_stack(values, shape: tuple, what: str) -> np.ndarray:
    """values as a finite complex (P,) + shape stack, raising ValueError otherwise."""
    stack = _as_finite(values, what)
    if stack.ndim != len(shape) + 1 or stack.shape[1:] != shape:
        raise ValueError(f"{what} must be a (P, {', '.join(map(str, shape))}) stack, "
                         f"got shape {stack.shape}")
    return stack


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
    """Two-party operators K[p] tensor K[p], expressed in (A, B, A', B') register order.

    K tensor K naturally acts on (A, A')(B, B'); interleaving the row and
    the column qubits makes the result applicable directly to
    np.kron(psi, psi), which is stored as (A, B)(A', B').  K is a (P, 4, 4)
    stack and the result (P, 16, 16).  The kron is the broadcast outer
    product np.kron itself computes, so entry [p] is bitwise the lift of
    K[p:p + 1].
    """
    K = _as_stack(K, (4, 4), "local operators")
    # kron[p, i, k, j, l] = K[p, i, j] * K[p, k, l]
    kron = K[:, :, None, :, None] * K[:, None, :, None, :]
    return kron.reshape((-1,) + (2,) * 8).transpose(_LIFT_AXES).reshape(-1, 16, 16)


def apply_kraus(op: np.ndarray, s: np.ndarray) -> tuple:
    """Unnormalized branch outputs op[p] @ s[k] and their squared norms (the branch probabilities).

    op is a (P, d, d) stack and s an (n, d) batch; the outputs are (P, n, d)
    and the probabilities (P, n).  Entry [p, k] is bitwise op[p] @ s[k]
    on its own: every (operator, row) pair runs the same matrix-vector
    product and the same conjugated dot product, which s @ op.T or einsum
    would not.
    """
    s = _as_finite(s, "states")
    if s.ndim != 2:
        raise ValueError(f"expected a batch (n, d) of states, got shape {s.shape}")
    d = s.shape[1]
    op = _as_stack(op, (d, d), "operators")
    # (P, 1, d, d) @ (1, n, d, 1) -> (P, n, d)
    out = np.matmul(op[:, None], s[None, :, :, None])[..., 0]
    prob = np.matmul(out.conj()[..., None, :], out[..., :, None])[..., 0, 0].real
    return out, prob


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


# column j is the normalized sum of the basis states KILL_VECTOR_LABELS[j] names
KILL_VECTORS = np.array([
    sum(basis_state(4, bits) for bits in label.split("+")) / np.sqrt(label.count("+") + 1)
    for label in KILL_VECTOR_LABELS
]).T

# PAULI_PRODUCTS[k, l] = PAULI_BASIS[k] tensor PAULI_BASIS[l]
PAULI_PRODUCTS = np.einsum("kij,lmn->klimjn", PAULI_BASIS, PAULI_BASIS).reshape(4, 4, 4, 4)


def check_universality_constraints(M: np.ndarray) -> np.ndarray:
    """Residual norms ||M[p] v|| over the eight kill vectors, as a (P, 8) array.

    M is a (P, 16, 16) stack; column j is KILL_VECTOR_LABELS[j].  M[p]
    satisfies the constraints when every residual is at most linalg.ATOL.
    """
    # apply_kraus checks the stack.  Its per-column product and conjugated dot
    # round as M[p] @ v and norm(M[p] @ v) do on one vector, where one
    # matmul against KILL_VECTORS and a norm over axis 1 move the last bit
    _, squared = apply_kraus(M, KILL_VECTORS.T)
    return np.sqrt(squared)


def pauli_expand(K: np.ndarray) -> np.ndarray:
    """Coefficients r[p, k, l] of K[p] = sum_kl r[p, k, l] sigma_k tensor sigma_l, as (P, 4, 4).

    K is a (P, 4, 4) stack.  The basis is (x, y, z, 1) and
    r[p, k, l] = Tr[(sigma_k tensor sigma_l)^dag K[p]] / 4.  For build_kraus
    the expansion collapses to two free entries, r[p, 0, 3] = a/4 and
    r[p, 2, 3] = b/4, with every other entry fixed by linear relations.
    """
    K = _as_stack(K, (4, 4), "operators")
    return np.einsum("klij,pij->pkl", PAULI_PRODUCTS.conj(), K) / 4.0


def pauli_relation_residuals(r: np.ndarray) -> dict:
    """Residuals of the linear relations satisfied by the purifying family.

    r is a (..., 4, 4) array of coefficients from pauli_expand.  Keys name
    the relation; values are absolute deviations of shape (...).  All
    residuals vanish (to rounding) exactly when K came from build_kraus.
    """
    r = _as_finite(r, "Pauli coefficients")
    if r.shape[-2:] != (4, 4) or r.ndim < 2:
        raise ValueError(f"Pauli coefficients must be a (..., 4, 4) array, got shape {r.shape}")
    r = np.moveaxis(r, (-2, -1), (0, 1))
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
    # hypot, as abs() of one complex number computes it
    return {name: np.hypot(val.real, val.imag) for name, val in checks.items()}
