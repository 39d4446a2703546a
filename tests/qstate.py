"""Two-qubit states, noise channels and entanglement/nonlocality measures.

No command loads this module. The tests use it as the independent oracle
of the closed forms: the yields, chain visibility, and every task
threshold in repeater that a state can check.

Basis ordering throughout is the computational basis |00>, |01>, |10>, |11>.
The maximally entangled states use the convention

    |Psi+-> = (|00> +- |11>) / sqrt(2),
    |Phi+-> = (|01> +- |10>) / sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Union

import numpy as np

from qnetlim import UNIT, Range, check_fields, ranged
# the scalar yields live in the numpy-free yields module; re-exported here
from qnetlim.yields import depol_yield, thermal_yield  # noqa: F401

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-10

_I2 = np.eye(2)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (_SX, _SY, _SZ)


class BellKind(str, Enum):
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


_BELL_VECTORS = {
    BellKind.PSI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    BellKind.PSI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    BellKind.PHI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    BellKind.PHI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}


@dataclass(frozen=True)
class TwoQubitState:
    """A 4x4 density matrix, validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError("density matrix does not have unit trace")
        if np.linalg.eigvalsh(m).min() < -EIGENVALUE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", m)


def make_bell(kind: BellKind) -> TwoQubitState:
    """Rank-1 projector onto the named Bell vector."""
    v = _BELL_VECTORS[BellKind(kind)]
    return TwoQubitState(np.outer(v, v.conj()))


def make_isotropic(visibility: float) -> TwoQubitState:
    """lam * Psi+ + (1 - lam) * I/4 for visibility lam in [0, 1]."""
    UNIT.check("visibility", visibility)
    psi = make_bell(BellKind.PSI_PLUS).matrix
    return TwoQubitState(visibility * psi + (1.0 - visibility) * np.eye(4) / 4.0)


def fidelity_psi_plus(state: TwoQubitState) -> float:
    """Overlap <Psi+| rho |Psi+> (the singlet fraction in this convention)."""
    v = _BELL_VECTORS[BellKind.PSI_PLUS]
    return float(np.real(v.conj() @ state.matrix @ v))


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Depolarizing:
    """Qubit depolarizing channel."""

    p: float = ranged("[0, 4/3]")

    __post_init__ = check_fields

    def kraus_ops(self) -> List[np.ndarray]:
        k0 = math.sqrt(1.0 - 3.0 * self.p / 4.0) * _I2.astype(complex)
        rest = [math.sqrt(self.p) / 2.0 * s for s in PAULIS]
        return [k0, *rest]


@dataclass(frozen=True)
class Thermal:
    """Qubit thermal-loss channel (GADC reparameterization)."""

    eta_g: float = ranged("[0, 1]")
    kappa_g: float = ranged("[0, 1]")

    __post_init__ = check_fields

    def kraus_ops(self) -> List[np.ndarray]:
        eg, kg = self.eta_g, self.kappa_g
        a1 = math.sqrt(1 - kg) * np.diag([1.0, math.sqrt(eg)]).astype(complex)
        a2 = math.sqrt((1 - eg) * (1 - kg)) * np.array([[0, 1], [0, 0]], dtype=complex)
        a3 = math.sqrt(kg) * np.diag([math.sqrt(eg), 1.0]).astype(complex)
        a4 = math.sqrt(kg * (1 - eg)) * np.array([[0, 0], [1, 0]], dtype=complex)
        return [a1, a2, a3, a4]


ChannelModel = Union[Depolarizing, Thermal]


def kraus_completeness_defect(channel: ChannelModel) -> float:
    """Max-abs deviation of sum K^dag K from the identity."""
    ks = channel.kraus_ops()
    dim = ks[0].shape[1]
    acc = sum(k.conj().T @ k for k in ks)
    return float(np.abs(acc - np.eye(dim)).max())


def apply_pair_channel(state: TwoQubitState, channel: ChannelModel) -> TwoQubitState:
    """Apply a single-qubit channel independently to both qubits of a pair."""
    ks = channel.kraus_ops()
    out = np.zeros((4, 4), dtype=complex)
    for ki in ks:
        for kj in ks:
            op = np.kron(ki, kj)
            out += op @ state.matrix @ op.conj().T
    return TwoQubitState(out)


# ---------------------------------------------------------------------------
# Bell measurement / entanglement swapping
# ---------------------------------------------------------------------------

# Local correction returning each Bell outcome to Psi+ (applied on the
# second outer qubit).
_CORRECTIONS = {
    BellKind.PSI_PLUS: _I2.astype(complex),
    BellKind.PSI_MINUS: _SZ,
    BellKind.PHI_PLUS: _SX,
    BellKind.PHI_MINUS: _SX @ _SZ,
}

FAILURE_LABEL = "perp"


@dataclass(frozen=True)
class SwapBranch:
    probability: float
    post_state: TwoQubitState
    outcome_label: str


@dataclass(frozen=True)
class SwapOutcome:
    branches: List[SwapBranch]
    corrected_state: TwoQubitState
    corrected_visibility: float


def bell_swap(state1: TwoQubitState, state2: TwoQubitState, q: float) -> SwapOutcome:
    """Noisy standard Bell measurement on the inner qubits of two pairs.

    Qubit ordering is (A, A') x (B', B); the measurement acts on (A', B')
    and the branches describe the post-measurement state of (A, B). With
    probability 1 - q the measurement fails and the outer pair is left
    maximally mixed. The corrected state mixes all branches after the
    outcome-conditional Pauli correction; for isotropic inputs of
    visibilities lam1, lam2 it equals the isotropic state of visibility
    q * lam1 * lam2.
    """
    UNIT.check("q", q)
    # joint state on (A, A', B', B)
    joint = np.kron(state1.matrix, state2.matrix).reshape([2] * 8)
    branches: List[SwapBranch] = []
    corrected = np.zeros((4, 4), dtype=complex)
    for kind, vec in _BELL_VECTORS.items():
        v = vec.reshape(2, 2)
        # project the measured qubits A' (row axes 1, 2 / col axes 5, 6)
        post = np.einsum(
            "ij, aijbckld, kl -> abcd", v.conj(), joint, v, optimize=True
        )
        prob = float(np.einsum("abab->", post).real)
        prob_q = q * prob
        dm = post.reshape(4, 4) / prob if prob > 1e-15 else np.eye(4) / 4.0
        dm = 0.5 * (dm + dm.conj().T)
        branches.append(SwapBranch(prob_q, TwoQubitState(dm), kind.value))
        u = np.kron(_I2, _CORRECTIONS[kind])
        corrected += prob_q * (u @ dm @ u.conj().T)
    corrected += (1.0 - q) * np.eye(4) / 4.0
    branches.append(
        SwapBranch(1.0 - q, TwoQubitState(np.eye(4) / 4.0), FAILURE_LABEL)
    )
    corrected_state = TwoQubitState(corrected)
    vis = (4.0 * fidelity_psi_plus(corrected_state) - 1.0) / 3.0
    return SwapOutcome(branches, corrected_state, vis)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def correlation_matrix(state: TwoQubitState) -> np.ndarray:
    """3x3 matrix T with t_nm = Tr[rho sigma_n x sigma_m], order (x, y, z)."""
    t = np.empty((3, 3))
    for n, sn in enumerate(PAULIS):
        for m, sm in enumerate(PAULIS):
            t[n, m] = float(np.trace(state.matrix @ np.kron(sn, sm)).real)
    return t


@dataclass(frozen=True)
class HorodeckiMeasures:
    """N > 1 means useful for teleportation; M > 1 means CHSH-nonlocal."""

    N: float
    M: float


def horodecki_measures(state: TwoQubitState) -> HorodeckiMeasures:
    t = correlation_matrix(state)
    u = np.linalg.eigvalsh(t.T @ t)
    u = np.clip(u, 0.0, None)
    n_val = float(np.sqrt(u).sum())
    m_val = float(np.sort(u)[-2:].sum())
    return HorodeckiMeasures(n_val, m_val)


def concurrence(state: TwoQubitState) -> float:
    yy = np.kron(_SY, _SY)
    m = state.matrix @ yy @ state.matrix.conj() @ yy
    eigs = np.linalg.eigvals(m).real
    eigs = np.sqrt(np.clip(eigs, 0.0, None))
    eigs.sort()
    return max(0.0, float(eigs[-1] - eigs[-2] - eigs[-3] - eigs[-4]))


@dataclass(frozen=True)
class TeleportFidelity:
    quantum: float
    classical: float


def teleport_fidelity(singlet_fraction: float, d: int = 2) -> TeleportFidelity:
    """Best teleportation fidelity from singlet fraction f on a d x d system."""
    UNIT.check("singlet_fraction", singlet_fraction)
    Range(">= 2").check("d", d)
    return TeleportFidelity(
        (singlet_fraction * d + 1.0) / (d + 1.0), 2.0 / (d + 1.0)
    )


def isotropic_separable(visibility: float, d: int = 2) -> bool:
    """Separability of the d x d isotropic state of visibility lam.

    Its singlet fraction is p = (lam (d^2 - 1) + 1) / d^2, and the state is
    separable iff p <= 1/d (Horodecki & Horodecki, PRA 59, 4206, 1999), that
    is iff lam (d + 1) <= 1; lam <= 1/3 for d = 2. The comparison is exact,
    on the float's rational value, so no rounding moves the boundary.
    """
    UNIT.check("visibility", visibility)
    Range(">= 2").check("d", d)
    return Fraction(visibility) * (d + 1) <= 1
