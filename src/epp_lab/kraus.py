"""Kraus operators for conclusive two-copy purification.

The local operator acts on one party's pair of qubits (her halves of the
two copies).  A single successful branch is modeled; an implicit failure
branch completes the physical map.  Lifting tensors two local copies and
reorders registers so the lifted operator acts on states stored in
(A, B, A', B') order.

Every function that takes operators takes a (P, ...) stack of them, and
one operator is a stack of one; entry [p] of a result is bitwise the
result on the stack of one K[p:p + 1].  A KrausParams holds P pairs, one
pair is a stack of one.  The region tests (constraint_value, params_valid,
f_parameter, params_physical) broadcast over arrays of pairs, bitwise per pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _as_array, _cabs, basis_state

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


def _moduli(a, b) -> tuple[np.ndarray, np.ndarray]:
    """|a| and |b| through _cabs, each argument converted once; real input stays real."""
    return _cabs(_as_array(a, None, "pair entries a")), _cabs(_as_array(b, None, "pair entries b"))


def _fourth_powers(ma, mb) -> tuple[np.ndarray, np.ndarray]:
    """ma^4 and mb^4 by libm pow, as ** rounds on one float, else ValueError if not all finite."""
    with np.errstate(over="ignore"):
        a4, b4 = np.float_power(ma, 4), np.float_power(mb, 4)
    bad = np.flatnonzero(~(np.isfinite(a4) & np.isfinite(b4)))
    if bad.size:
        raise ValueError(f"|a|^4 and |b|^4 must be finite floats, not so in pair {bad[0]}")
    return a4, b4


def _valid(ma, mb) -> np.ndarray:
    a4, b4 = _fourth_powers(ma, mb)
    return ~((ma == 0) & (mb == 0)) & (2.0 * (a4 + b4) <= 1.0 + CONSTRAINT_SLACK)


def constraint_value(a, b) -> np.ndarray:
    """2(|a|^4 + |b|^4) per pair of broadcast arrays; valid pairs keep it at most 1."""
    a4, b4 = _fourth_powers(*_moduli(a, b))
    return 2.0 * (a4 + b4)


def params_valid(a, b) -> np.ndarray:
    """Per pair: not both zero and 2(|a|^4 + |b|^4) <= 1 within CONSTRAINT_SLACK."""
    return _valid(*_moduli(a, b))


def f_parameter(a, b) -> np.ndarray:
    """Asymmetry f = 2 | |a|^4 - |b|^4 | per pair, ranging over [0, 1] for valid pairs.

    f = 1 only at the degenerate corners (|a| = 2**-0.25, b = 0) and the
    mirror image, where the branch output is always a product state.
    """
    a4, b4 = _fourth_powers(*_moduli(a, b))
    return 2.0 * abs(a4 - b4)


def params_physical(a, b) -> np.ndarray:
    """Per pair: valid, and its success branch is a contraction, as a physical branch must be.

    K^dag K has eigenvalues 2|a|^2 and 2|b|^2 (and two zeros), so a valid
    pair is physical exactly when max(|a|, |b|) <= sqrt(2)/2, within
    CONSTRAINT_SLACK.  Pairs with sqrt(2)/2 < max(|a|, |b|) <= 2**-0.25
    meet the constraint without being physical.
    """
    ma, mb = _moduli(a, b)
    return _valid(ma, mb) & (np.maximum(ma, mb) <= _MAX_PHYSICAL_MODULUS + CONSTRAINT_SLACK)


@dataclass(eq=False)
class KrausParams:
    """A stack of P >= 1 complex pairs (a, b) steering the success branch.

    a and b are complex (P,) arrays; one pair is a stack of one, and
    params[i] and params[i:j] are stacks too.  Every pair must pass
    params_valid, or a ValueError names the first that fails.  A vanishing
    a or b is allowed, but that branch can only make product output (stage1
    reports it as product_output), so the stage it feeds is useless.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        # copies: an array the caller keeps must not change a validated pair
        what = "a and b as two (P,) arrays with P >= 1"
        self.a, self.b = (np.array(np.atleast_1d(_as_array(x, what=what, shape=[(), ("pair",)])))
                          for x in (self.a, self.b))
        if self.a.shape != self.b.shape or not self.a.size:
            raise ValueError(f"a and b must be two (P,) arrays with P >= 1, "
                             f"got shapes {self.a.shape} and {self.b.shape}")
        bad = np.flatnonzero(~_valid(_cabs(self.a), _cabs(self.b)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"pair {i} ({complex(self.a[i])}, {complex(self.b[i])}) is not valid: "
                             "need 2(|a|^4 + |b|^4) <= 1, not both zero")

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, index) -> KrausParams:
        return KrausParams(self.a[index], self.b[index])


# stage-2 parameters: the symmetric point saturating the constraint
CANONICAL_PARAMS = KrausParams(np.sqrt(2) / 2, np.sqrt(2) / 2)


def build_kraus(params: KrausParams) -> np.ndarray:
    """Success-branch operators a(|00><01| + |00><10|) + b(|10><01| - |10><10|), (P, 4, 4)."""
    K = np.zeros((len(params), 4, 4), dtype=complex)
    K[:, 0, 1] = params.a
    K[:, 0, 2] = params.a
    K[:, 2, 1] = params.b
    K[:, 2, 2] = -params.b
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
    K = _as_array(K, what="a (P, 4, 4) stack of local operators", shape=("operator", 4, 4))
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
    s = _as_array(s, what="a batch (n, d) of states", shape=("row", None))
    d = s.shape[1]
    op = _as_array(op, what=f"a (P, {d}, {d}) stack of operators", shape=("operator", d, d))
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
    K = _as_array(K, what="a (P, 4, 4) stack of operators", shape=("operator", 4, 4))
    return np.einsum("klij,pij->pkl", PAULI_PRODUCTS.conj(), K) / 4.0


def pauli_relation_residuals(r: np.ndarray) -> dict:
    """Residuals of the linear relations satisfied by the purifying family.

    r is a (..., 4, 4) array of coefficients from pauli_expand.  Keys name
    the relation; values are absolute deviations of shape (...).  All
    residuals vanish (to rounding) exactly when K came from build_kraus.
    """
    r = _as_array(r, what="Pauli coefficients")
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
    # _cabs, as abs() of one complex number computes it
    return {name: _cabs(val) for name, val in checks.items()}
