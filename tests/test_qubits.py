"""Operator-level checks: Kraus algebra, sampling laws, entanglement measures."""

import numpy as np
import pytest
from scipy import stats

from blgisim.trials import NoiseModel, check_strength
from reference import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    DegenerateBranchError,
    QuantumState,
    apply_readout_noise,
    axis_projectors,
    bloch_observable,
    concurrence,
    coupling_unitary,
    expect,
    lift1,
    nonselective_weak,
    partial_trace,
    projective_measure,
    random_density,
    rescale,
    weak_kraus,
    weak_measure,
)

ATOL = 1e-12


class FixedUniforms:
    """Generator stand-in feeding a preset sequence of uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def random_pure(num_qubits: int, rng: np.random.Generator) -> QuantumState:
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.from_amplitudes(vec / np.linalg.norm(vec))


def bell_phi_plus() -> QuantumState:
    return QuantumState.from_amplitudes([1.0, 0.0, 0.0, 1.0] / np.sqrt(2.0))


# ---------------------------------------------------------------- observables


def test_bloch_observable_axis_cases():
    assert np.allclose(bloch_observable(0.0), SIGMA_Z, atol=ATOL)
    assert np.allclose(bloch_observable(np.pi / 2.0), SIGMA_X, atol=ATOL)


def test_bloch_observable_is_involutory_hermitian_traceless():
    for theta in np.linspace(-np.pi, np.pi, 17):
        obs = bloch_observable(theta)
        assert np.allclose(obs @ obs, ID2, atol=ATOL)
        assert np.allclose(obs, obs.conj().T, atol=ATOL)
        assert abs(np.trace(obs)) < ATOL


def test_bloch_observable_rejects_nonfinite():
    with pytest.raises(ValueError):
        bloch_observable(np.nan)


def test_axis_projectors_resolve_identity():
    for theta in (0.0, 0.3, np.pi / 4.0, -1.2):
        p_plus, p_minus = axis_projectors(theta)
        assert np.allclose(p_plus + p_minus, ID2, atol=ATOL)
        assert np.allclose(p_plus @ p_plus, p_plus, atol=ATOL)
        assert np.allclose(p_plus @ p_minus, np.zeros((2, 2)), atol=ATOL)
        assert np.allclose(p_plus - p_minus, bloch_observable(theta), atol=ATOL)


def test_check_strength_bounds():
    assert check_strength(1.0) == 1.0
    assert check_strength(1e-6) == 1e-6
    for bad in (0.0, -0.2, 1.0000001, np.inf):
        with pytest.raises(ValueError):
            check_strength(bad)


# --------------------------------------------------------------- Kraus pairs


def test_weak_kraus_completeness_grid():
    # k+^2 + k-^2 = I across the whole (v, theta) range
    for v in np.linspace(0.05, 1.0, 10):
        for theta in np.linspace(-np.pi, np.pi, 10):
            pair = weak_kraus(v, theta)
            total = pair.k_plus @ pair.k_plus + pair.k_minus @ pair.k_minus
            assert np.abs(total - ID2).max() < ATOL
            for k in (pair.k_plus, pair.k_minus):
                assert np.abs(k - k.conj().T).max() < ATOL
                assert np.linalg.eigvalsh(k).min() > -ATOL


def test_weak_kraus_projective_limit():
    pair = weak_kraus(1.0, 0.7)
    p_plus, p_minus = axis_projectors(0.7)
    assert np.abs(pair.k_plus - p_plus).max() < ATOL
    assert np.abs(pair.k_minus - p_minus).max() < ATOL


def test_kraus_pair_operator_selects_by_sign():
    pair = weak_kraus(0.4, 0.2)
    assert pair.operator(1) is pair.k_plus
    assert pair.operator(-1) is pair.k_minus


def test_coupling_unitary_is_unitary():
    for v in (0.05, 0.5, 1.0):
        for theta in (0.0, 0.9, -2.0):
            u = coupling_unitary(v, theta)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < ATOL


def test_coupling_unitary_reproduces_kraus_branches():
    # Projecting the ancilla along z after the coupling must give exactly
    # k_plus|psi> and k_minus|psi> as the unnormalized system branches.
    rng = np.random.default_rng(11)
    e0 = np.array([1.0, 0.0], dtype=complex)
    for _ in range(25):
        v = rng.uniform(0.05, 1.0)
        theta = rng.uniform(-np.pi, np.pi)
        psi = random_pure(1, rng).data
        joint = (coupling_unitary(v, theta) @ np.kron(psi, e0)).reshape(2, 2)
        pair = weak_kraus(v, theta)
        assert np.abs(joint[:, 0] - pair.k_plus @ psi).max() < ATOL
        assert np.abs(joint[:, 1] - pair.k_minus @ psi).max() < ATOL


# ------------------------------------------------------------- weak sampling


def test_weak_measure_threshold_rule():
    # raw = +1 exactly when the uniform falls below (1 + v<sigma>)/2
    state = QuantumState.from_amplitudes([np.cos(0.4), np.sin(0.4)])
    v, theta = 0.6, 0.0
    p_plus = (1.0 + v * expect(state, bloch_observable(theta), 0)) / 2.0
    raw_lo, _ = weak_measure(state, 0, theta, v, FixedUniforms([p_plus - 1e-9]))
    raw_hi, _ = weak_measure(state, 0, theta, v, FixedUniforms([p_plus + 1e-9]))
    assert raw_lo == 1
    assert raw_hi == -1


def test_weak_measure_posterior_matches_kraus_update():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        qubit = int(rng.integers(0, n))
        v = rng.uniform(0.05, 1.0)
        theta = rng.uniform(-np.pi, np.pi)
        state = random_pure(n, rng)
        raw, post = weak_measure(state, qubit, theta, v, FixedUniforms([rng.random()]))
        k = lift1(weak_kraus(v, theta).operator(raw), qubit, n)
        branch = k @ state.data
        expected = branch / np.linalg.norm(branch)
        assert np.abs(post.data - expected).max() < 1e-10
        post.require_valid()


def test_weak_measure_density_posterior_matches_kraus_update():
    rng = np.random.default_rng(22)
    for _ in range(20):
        v = rng.uniform(0.1, 1.0)
        theta = rng.uniform(-np.pi, np.pi)
        state = random_density(2, rng)
        raw, post = weak_measure(state, 1, theta, v, FixedUniforms([rng.random()]))
        k = lift1(weak_kraus(v, theta).operator(raw), 1, 2)
        branch = k @ state.density() @ k.conj().T
        expected = branch / np.trace(branch).real
        assert np.abs(post.density() - expected).max() < 1e-10
        post.require_valid()


def test_weak_measure_consumes_exactly_one_draw():
    g1 = np.random.default_rng(5)
    g2 = np.random.default_rng(5)
    state = bell_phi_plus()
    weak_measure(state, 0, 0.3, 0.5, g1)
    g2.random()
    assert np.array_equal(g1.random(6), g2.random(6))


def test_weak_measure_leaves_eigenstates_unchanged():
    # An eigenstate of the measured observable takes no back-action,
    # whichever raw outcome is drawn.
    state = QuantumState.from_amplitudes([1.0, 0.0])
    for u in (0.01, 0.99):
        raw, post = weak_measure(state, 0, 0.0, 0.7, FixedUniforms([u]))
        assert abs(expect(post, SIGMA_Z, 0) - 1.0) < ATOL
    assert abs(expect(state, SIGMA_Z, 0) - 1.0) < ATOL


def test_weak_measure_degenerate_branch_raises():
    # representable in double precision yet below the 1e-15 branch floor
    eps = 4e-16
    state = QuantumState.from_amplitudes([np.sqrt(eps), np.sqrt(1.0 - eps)])
    with pytest.raises(DegenerateBranchError):
        weak_measure(state, 0, 0.0, 1.0, FixedUniforms([1e-20]))


def test_weak_measure_outcome_frequencies():
    # chi-square on 10^4 samples against the exact two-point law
    state = QuantumState.from_amplitudes([np.cos(0.6), np.sin(0.6)])
    v, theta = 0.7, 0.0
    p_plus = (1.0 + v * expect(state, bloch_observable(theta), 0)) / 2.0
    rng = np.random.default_rng(99)
    n = 10_000
    plus = sum(weak_measure(state, 0, theta, v, rng)[0] > 0 for _ in range(n))
    result = stats.chisquare([plus, n - plus], [n * p_plus, n * (1.0 - p_plus)])
    assert result.pvalue > 1e-3


def test_projective_measure_is_full_strength_weak():
    state = bell_phi_plus()
    beta, post = projective_measure(state, 0, 0.4, FixedUniforms([0.3]))
    raw, post_weak = weak_measure(state, 0, 0.4, 1.0, FixedUniforms([0.3]))
    assert beta == raw
    assert np.abs(post.data - post_weak.data).max() < ATOL
    assert abs(expect(post, bloch_observable(0.4), 0) - beta) < 1e-10


# ----------------------------------------------------- nonselective channel


def test_nonselective_weak_equals_kraus_average():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 3))
        qubit = int(rng.integers(0, n))
        v = rng.uniform(0.05, 1.0)
        theta = rng.uniform(-np.pi, np.pi)
        state = random_pure(n, rng) if rng.random() < 0.5 else random_density(n, rng)
        out = nonselective_weak(state, qubit, theta, v)
        pair = weak_kraus(v, theta)
        rho = state.density()
        expected = np.zeros_like(rho)
        for outcome in (1, -1):
            k = lift1(pair.operator(outcome), qubit, n)
            expected += k @ rho @ k.conj().T
        assert np.abs(out.density() - expected).max() < ATOL


def test_nonselective_weak_damps_coherence_by_exact_factor():
    # In the measurement eigenbasis the off-diagonal shrinks by sqrt(1 - v^2)
    rng = np.random.default_rng(32)
    for _ in range(25):
        v = rng.uniform(0.05, 0.999)
        theta = rng.uniform(-np.pi, np.pi)
        state = random_density(1, rng)
        obs = bloch_observable(theta)
        _, basis = np.linalg.eigh(obs)
        before = basis.conj().T @ state.density() @ basis
        after = basis.conj().T @ nonselective_weak(state, 0, theta, v).density() @ basis
        damp = np.sqrt(1.0 - v * v)
        assert np.abs(np.diag(after) - np.diag(before)).max() < ATOL
        assert abs(after[0, 1] - damp * before[0, 1]) < ATOL


def test_nonselective_weak_preserves_measured_expectation():
    state = random_density(2, np.random.default_rng(33))
    obs = bloch_observable(0.8)
    out = nonselective_weak(state, 1, 0.8, 0.4)
    assert abs(expect(out, obs, 1) - expect(state, obs, 1)) < ATOL
    out.require_valid()


# ----------------------------------------------------------- noise and scale


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(bias=np.inf)


def test_apply_readout_noise_bias_only_is_exact_shift():
    rng = np.random.default_rng(0)
    assert apply_readout_noise(1.0, NoiseModel(bias=0.25), rng) == 1.25
    assert apply_readout_noise(-1.0, NoiseModel(bias=0.25), rng) == -0.75


def test_apply_readout_noise_consumes_draw_even_when_inactive():
    g1 = np.random.default_rng(8)
    g2 = np.random.default_rng(8)
    apply_readout_noise(1.0, NoiseModel(), g1)
    g2.random()
    assert np.array_equal(g1.random(4), g2.random(4))


def test_apply_readout_noise_moments():
    sigma, bias, n = 0.3, 0.1, 200_000
    rng = np.random.default_rng(12)
    samples = np.array([apply_readout_noise(1.0, NoiseModel(bias, sigma), rng) for _ in range(n)])
    assert abs(samples.mean() - 1.1) < 4.0 * sigma / np.sqrt(n)
    assert abs(samples.std(ddof=1) - sigma) < 0.01


def test_rescale():
    assert rescale(0.5, 0.5) == 1.0
    assert rescale(-1.0, 0.2) == -5.0
    with pytest.raises(ValueError):
        rescale(1.0, 0.0)


# ------------------------------------------------------------ state algebra


def test_state_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        QuantumState.from_amplitudes([1.0, 1.0])
    with pytest.raises(ValueError):
        QuantumState.from_amplitudes([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        QuantumState.from_amplitudes(np.zeros(32))
    with pytest.raises(ValueError):
        QuantumState.from_density(np.array([[0.5, 0.5j], [0.5j, 0.5]]))
    with pytest.raises(ValueError):
        QuantumState.from_density(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        QuantumState.from_density(np.diag([1.5, -0.5]))


def test_expect_on_pure_and_density_agree():
    rng = np.random.default_rng(41)
    state = random_pure(2, rng)
    dens = QuantumState.from_density(state.density())
    for qubit in (0, 1):
        for op in (SIGMA_X, SIGMA_Z, bloch_observable(1.1)):
            assert abs(expect(state, op, qubit) - expect(dens, op, qubit)) < ATOL


def test_lift1_placement():
    op = bloch_observable(0.3)
    assert np.array_equal(lift1(op, 0, 2), np.kron(op, ID2))
    assert np.array_equal(lift1(op, 1, 2), np.kron(ID2, op))
    with pytest.raises(ValueError):
        lift1(op, 2, 2)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(51)
    a = random_pure(1, rng)
    b = random_pure(1, rng)
    joint = QuantumState.from_amplitudes(np.kron(a.data, b.data))
    assert np.abs(partial_trace(joint, [0]).density() - a.density()).max() < ATOL
    assert np.abs(partial_trace(joint, [1]).density() - b.density()).max() < ATOL


def test_partial_trace_of_bell_is_maximally_mixed():
    for keep in ([0], [1]):
        reduced = partial_trace(bell_phi_plus(), keep)
        assert np.abs(reduced.density() - ID2 / 2.0).max() < ATOL


def test_partial_trace_keeps_multiple_qubits():
    rng = np.random.default_rng(52)
    pair = random_pure(2, rng)
    single = random_pure(1, rng)
    joint = QuantumState.from_amplitudes(np.kron(pair.data, single.data))
    reduced = partial_trace(joint, [0, 1])
    assert np.abs(reduced.density() - pair.density()).max() < ATOL
    with pytest.raises(ValueError):
        partial_trace(joint, [])
    with pytest.raises(ValueError):
        partial_trace(joint, [3])


# ------------------------------------------------------------- entanglement


def test_concurrence_extremes():
    assert abs(concurrence(bell_phi_plus()) - 1.0) < ATOL
    product = QuantumState.from_amplitudes([1.0, 0.0, 0.0, 0.0])
    assert concurrence(product) == 0.0
    with pytest.raises(ValueError):
        concurrence(QuantumState.from_amplitudes([1.0, 0.0]))


def test_concurrence_of_werner_mixture():
    # p |Bell><Bell| + (1-p) I/4 has concurrence max(0, (3p - 1)/2)
    bell = bell_phi_plus().density()
    for p in (0.2, 1.0 / 3.0, 0.5, 0.9):
        rho = p * bell + (1.0 - p) * np.eye(4) / 4.0
        got = concurrence(QuantumState.from_density(rho))
        assert abs(got - max(0.0, (3.0 * p - 1.0) / 2.0)) < 1e-10


def test_concurrence_after_one_sided_weak_channel():
    # One nonselective weak z-measurement on half a Bell pair leaves
    # concurrence sqrt(1 - v^2): 0.8 at v = 0.6.
    out = nonselective_weak(bell_phi_plus(), 0, 0.0, 0.6)
    assert abs(concurrence(out) - 0.8) < 1e-10
