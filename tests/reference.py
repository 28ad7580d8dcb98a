"""Scalar reference routes that only the tests use.

Each one re-derives, one operator or one draw at a time, something the
package computes another way: the system+ancilla unitary behind the weak
Kraus pair, the reduced state by partial trace, one trial's detector noise
and rescaling, and the step-by-step sequential readout.  They stay
independent oracles for the package's exact laws and batch samplers.
"""

import numpy as np
from scipy.special import ndtri

from blgisim.prediction import SequentialReadoutParams
from blgisim.qubits import (
    NoiseModel,
    QuantumState,
    axis_projectors,
    check_strength,
    weak_measure,
)


def coupling_unitary(v: float, theta: float) -> np.ndarray:
    """Equivalent 2-qubit system+ancilla representation of weak_kraus.

    Controlled rotation: conditioned on the system's sigma(theta)
    eigenbranch, the ancilla (second factor, prepared in |0>) is rotated to
    a pointer state with <sigma_z> = +-v.  Projecting the ancilla along z
    afterwards reproduces the weak_kraus outcome statistics and back-action
    exactly; the unit tests assert that equality.
    """
    v = check_strength(v)
    p_plus, p_minus = axis_projectors(theta)

    def rot_y(phi: float) -> np.ndarray:
        c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)

    phi_plus = 2.0 * np.arccos(np.sqrt((1.0 + v) / 2.0))
    phi_minus = 2.0 * np.arccos(np.sqrt((1.0 - v) / 2.0))
    return np.kron(p_plus, rot_y(phi_plus)) + np.kron(p_minus, rot_y(phi_minus))


def projective_measure(
    state: QuantumState, qubit: int, theta: float, rng: np.random.Generator
) -> tuple[int, QuantumState]:
    """Strong measurement along theta: the v = 1 weak channel.

    Returns (beta, post_state) with beta in {+1, -1}; the post state is the
    eigenprojection. Consumes exactly one uniform draw.
    """
    return weak_measure(state, qubit, theta, 1.0, rng)


def rescale(raw: float, v: float) -> float:
    """Normalize a raw weak outcome by the coupling strength: alpha = raw / v."""
    return float(raw) / check_strength(v)


def apply_readout_noise(raw: float, noise: NoiseModel, rng: np.random.Generator) -> float:
    """Contaminate a raw signal: raw + bias + Gaussian(0, sigma).

    Raw-side convention: called on the +-1 signal before rescaling, so under
    alpha = raw/V the noise standard deviation scales by 1/V.
    Consumes exactly one uniform draw (inverse-CDF Gaussian), even when
    sigma = 0, to keep per-trial draw budgets fixed.
    """
    u = max(rng.random(), 2.0**-53)  # keep the inverse CDF finite at u = 0
    gaussian = noise.sigma * float(ndtri(u)) if noise.sigma > 0.0 else 0.0
    return float(raw) + noise.bias + gaussian


def partial_trace(state: QuantumState, keep) -> QuantumState:
    """Reduced density operator on the kept qubits (in ascending order)."""
    keep = sorted(set(int(q) for q in keep))
    n = state.num_qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep set {keep} out of range for {n} qubits")
    rho = state.density().reshape((2,) * (2 * n))
    for q in reversed(range(n)):
        if q in keep:
            continue
        rho = np.trace(rho, axis1=q, axis2=q + rho.ndim // 2)
    dim = 2 ** len(keep)
    return QuantumState(rho.reshape(dim, dim), len(keep), False)


def sequential_weak_sequence(
    state: QuantumState, qubit: int, axis: float, params: SequentialReadoutParams, rng: np.random.Generator
) -> tuple:
    """Read one qubit out `steps` times at per-step strength params.v.

    Returns (mean of the +-1 raw outcomes, final conditioned state).  Each
    step consumes exactly one uniform draw.  The conditioned state performs
    a random walk that collapses toward a sigma(axis) eigenstate; the walk's
    <sigma(axis)> sequence is a martingale.
    """
    total = 0
    for _ in range(params.steps):
        raw, state = weak_measure(state, qubit, axis, params.v, rng)
        total += raw
    return total / params.steps, state
