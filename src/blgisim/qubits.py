"""Exact few-qubit quantum mechanics: states, measurement channels, entanglement.

Everything here is dense complex128 linear algebra on 1 to 4 qubits.
Measurement axes live in the x-z plane and are given by a single angle
theta measured from +z, so the observable is sigma(theta) =
cos(theta)*sigma_z + sin(theta)*sigma_x.

weak_measure is the scalar, state-updating route: it draws one uniform
from the generator it is handed and returns the outcome with the
renormalized post-measurement state.  The package's samplers do not call
it; they draw from exact laws built from these operators (see
trials.branch_distribution).  The tests run it as an independent check of
those laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

ATOL = 1e-12          # algebraic identity tolerance
EIG_FLOOR = -1e-10    # eigenvalue positivity slack for density operators
MIN_BRANCH_PROB = 1e-15

MAX_QUBITS = 4


class DegenerateBranchError(RuntimeError):
    """A sampled measurement branch has probability below MIN_BRANCH_PROB."""


def check_strength(v: float) -> float:
    """Validate a coupling strength; v = 1 is projective coupling."""
    v = float(v)
    if not 0.0 < v <= 1.0:
        raise ValueError(f"coupling strength must lie in (0, 1], got {v}")
    return v


def bloch_observable(theta: float) -> np.ndarray:
    """Hermitian, traceless, involutory observable for an x-z plane axis."""
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"axis angle must be finite, got {theta}")
    return np.cos(theta) * SIGMA_Z + np.sin(theta) * SIGMA_X


def axis_projectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors (P_plus, P_minus) of sigma(theta)."""
    obs = bloch_observable(theta)
    return (ID2 + obs) / 2.0, (ID2 - obs) / 2.0


@dataclass(frozen=True)
class KrausPair:
    """Two-outcome measurement channel {k_plus, k_minus}.

    Completeness k+^2 + k-^2 = I holds by construction; both operators are
    Hermitian positive semidefinite.
    """

    k_plus: np.ndarray
    k_minus: np.ndarray

    def operator(self, outcome: int) -> np.ndarray:
        return self.k_plus if outcome > 0 else self.k_minus


def weak_kraus(v: float, theta: float) -> KrausPair:
    """Kraus pair k+- = sqrt((I +- v*sigma(theta))/2).

    The square root is taken in closed form on the sigma(theta) eigenbasis:
    k+- = sqrt((1 +- v)/2) P_plus + sqrt((1 -+ v)/2) P_minus.  Outcome
    probabilities on a state are p+- = (1 +- v*<sigma(theta)>)/2, and at
    v = 1 the pair degenerates to the eigenprojectors.
    """
    v = check_strength(v)
    p_plus, p_minus = axis_projectors(theta)
    hi = np.sqrt((1.0 + v) / 2.0)
    lo = np.sqrt((1.0 - v) / 2.0)
    return KrausPair(hi * p_plus + lo * p_minus, lo * p_plus + hi * p_minus)


@dataclass(frozen=True)
class NoiseModel:
    """Additive detector noise on the raw ancilla signal.

    bias shifts the mean; sigma is a Gaussian standard deviation. Applied
    before 1/V rescaling (raw-side convention).
    """

    bias: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError(f"noise sigma must be >= 0, got {self.sigma}")
        if not (np.isfinite(self.bias) and np.isfinite(self.sigma)):
            raise ValueError("noise parameters must be finite")

    @property
    def active(self) -> bool:
        return self.bias != 0.0 or self.sigma != 0.0


NO_NOISE = NoiseModel()


class QuantumState:
    """Pure amplitude vector or density operator on 1..4 qubits.

    Instances are treated as immutable; operations return new states.
    """

    __slots__ = ("data", "num_qubits", "is_pure")

    def __init__(self, data: np.ndarray, num_qubits: int, is_pure: bool):
        self.data = data
        self.num_qubits = num_qubits
        self.is_pure = is_pure

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "QuantumState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = _qubit_count(vec.shape[0])
        state = cls(vec, n, is_pure=True)
        state.require_valid()
        return state

    @classmethod
    def from_density(cls, matrix) -> "QuantumState":
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density operator must be square, got shape {mat.shape}")
        n = _qubit_count(mat.shape[0])
        state = cls(mat, n, is_pure=False)
        state.require_valid()
        return state

    def density(self) -> np.ndarray:
        """Density operator form regardless of representation."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def require_valid(self) -> None:
        """Raise ValueError if any state invariant is violated.

        Pure states: unit norm within 1e-12. Density operators: Hermitian
        and unit trace within 1e-12, eigenvalues above -1e-10.
        """
        if self.is_pure:
            norm = float(np.linalg.norm(self.data))
            if abs(norm - 1.0) > ATOL:
                raise ValueError(f"amplitude vector norm {norm} deviates from 1")
            return
        mat = self.data
        if np.abs(mat - mat.conj().T).max() > ATOL:
            raise ValueError("density operator is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > ATOL:
            raise ValueError(f"density operator trace {trace} deviates from 1")
        smallest = float(np.linalg.eigvalsh(mat).min())
        if smallest < EIG_FLOOR:
            raise ValueError(f"density operator has eigenvalue {smallest} below floor")

    def expect(self, op_1q: np.ndarray, qubit: int) -> float:
        """Expectation of a single-qubit Hermitian operator on one qubit."""
        big = lift1(op_1q, qubit, self.num_qubits)
        if self.is_pure:
            return float(np.real(np.vdot(self.data, big @ self.data)))
        return float(np.real(np.trace(big @ self.data)))


def _qubit_count(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim != 2**n or not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"dimension {dim} is not 2^n for n in [1, {MAX_QUBITS}]")
    return n


def lift1(op_1q: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Embed a single-qubit operator at position ``qubit`` (0 = leftmost factor)."""
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {num_qubits} qubits")
    out = np.eye(1, dtype=complex)
    for pos in range(num_qubits):
        out = np.kron(out, op_1q if pos == qubit else ID2)
    return out


def _apply_branch(state: QuantumState, kraus_1q: np.ndarray, qubit: int, prob: float) -> QuantumState:
    big = lift1(kraus_1q, qubit, state.num_qubits)
    scale = 1.0 / np.sqrt(prob)
    if state.is_pure:
        return QuantumState(scale * (big @ state.data), state.num_qubits, True)
    post = big @ state.data @ big.conj().T
    return QuantumState((post + post.conj().T) * (0.5 / prob), state.num_qubits, False)


def weak_measure(
    state: QuantumState, qubit: int, theta: float, v: float, rng: np.random.Generator
) -> tuple[int, QuantumState]:
    """Sample one weak measurement of strength v along theta on one qubit.

    Returns (raw, post_state) with raw in {+1, -1} drawn with
    p+- = (1 +- v*<sigma(theta)>)/2 and post_state the renormalized Kraus
    update, so E[raw] = v*<sigma(theta)> holds exactly.

    Consumes exactly one uniform draw from ``rng``.
    """
    pair = weak_kraus(v, theta)
    mean = state.expect(bloch_observable(theta), qubit)
    p_plus = min(1.0, max(0.0, (1.0 + v * mean) / 2.0))
    raw = 1 if rng.random() < p_plus else -1
    prob = p_plus if raw > 0 else 1.0 - p_plus
    if prob < MIN_BRANCH_PROB:
        raise DegenerateBranchError(
            f"sampled branch raw={raw} has probability {prob}; state and axis are degenerate"
        )
    return raw, _apply_branch(state, pair.operator(raw), qubit, prob)


def nonselective_weak(state: QuantumState, qubit: int, theta: float, v: float) -> QuantumState:
    """Deterministic outcome-averaged weak channel, as a density operator.

    Closed form ((1+u)/2) rho + ((1-u)/2) sigma rho sigma with
    u = sqrt(1 - v^2): the diagonal in the measurement eigenbasis is
    untouched and the off-diagonal is damped by exactly u.
    """
    v = check_strength(v)
    u = np.sqrt(1.0 - v * v)
    big = lift1(bloch_observable(theta), qubit, state.num_qubits)
    rho = state.density()
    out = (1.0 + u) / 2.0 * rho + (1.0 - u) / 2.0 * (big @ rho @ big)
    return QuantumState(out, state.num_qubits, False)


def concurrence(state: QuantumState) -> float:
    """Wootters concurrence of a 2-qubit state, in [0, 1].

    max(0, l1 - l2 - l3 - l4) over the descending square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).
    """
    if state.num_qubits != 2:
        raise ValueError(f"concurrence is defined for 2 qubits, got {state.num_qubits}")
    rho = state.density()
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    product = rho @ flip @ rho.conj() @ flip
    eigs = np.linalg.eigvals(product)
    roots = np.sqrt(np.clip(eigs.real, 0.0, None))
    roots[::-1].sort()
    return float(max(0.0, min(1.0, roots[0] - roots[1] - roots[2] - roots[3])))
