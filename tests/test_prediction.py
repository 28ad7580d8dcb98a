"""Sequential-readout prediction: chain law, accuracy, after-protocol check."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import bdtr

from blgisim import prediction, streams
from blgisim.prediction import (
    MAX_STEPS,
    POST_TEST_AXES_1,
    POST_TEST_AXES_2,
    PredictionTable,
    SequentialReadoutParams,
    as_prediction_table,
    exact_post_protocol_chsh,
    post_coupling_state,
    post_protocol_chsh,
    predict,
    prediction_accuracy,
    prediction_accuracy_exact,
    prediction_batch,
    prediction_settings,
    run_prediction_experiment,
)
from blgisim.qubits import SIGMA_Z, QuantumState, axis_projectors, lift1, weak_kraus
from blgisim.trials import BELL_AMPLITUDES, Settings
from reference import expect, sequential_weak_sequence


def z_diagonal(m: float) -> QuantumState:
    return QuantumState.from_density(np.diag([(1.0 + m) / 2.0, (1.0 - m) / 2.0]))


def closed_form_post_chsh(v: float) -> float:
    # z and x couplings damp the two coherence sectors symmetrically, so
    # every test-axis correlator carries the same sqrt(1 - v^2) factor.
    return 2.0 * math.sqrt(2.0) * math.sqrt(1.0 - v * v)


# ------------------------------------------------------------------- plumbing


def test_readout_params_validation():
    with pytest.raises(ValueError):
        SequentialReadoutParams(v=0.0, steps=10)
    with pytest.raises(ValueError):
        SequentialReadoutParams(v=0.5, steps=0)
    with pytest.raises(ValueError):
        SequentialReadoutParams(v=0.5, steps=2.5)


def test_readout_saturation_threshold():
    assert SequentialReadoutParams(v=0.05, steps=10_000).saturated
    assert not SequentialReadoutParams(v=0.05, steps=9_999).saturated
    assert SequentialReadoutParams(v=1.0, steps=25).saturated


def test_readout_steps_are_capped():
    # constructing the parameters allocates nothing, so the cap itself is safe to build
    assert SequentialReadoutParams(v=0.5, steps=MAX_STEPS).steps == MAX_STEPS
    with pytest.raises(ValueError, match="steps"):
        SequentialReadoutParams(v=0.5, steps=MAX_STEPS + 1)


def test_predict_sign_rule():
    assert predict(0.31) == 1
    assert predict(-0.002) == -1
    assert predict(0.0) == 1


def test_prediction_settings_are_same_axis():
    s = prediction_settings(0.4)
    assert s.a1 == s.b1 and s.a2 == s.b2
    assert s.v == 0.4


def test_same_axis_requirement_is_enforced():
    readout = SequentialReadoutParams(v=0.1, steps=16)
    crooked = Settings(a1=0.0, a2=1.0, b1=0.5, b2=1.0, v=0.5)
    with pytest.raises(ValueError):
        run_prediction_experiment(crooked, readout, 0, 0)
    with pytest.raises(ValueError):
        prediction_batch(crooked, readout, 10, 0)


# --------------------------------------------------------------- scalar chain


def test_projective_readout_repeats_first_outcome():
    params = SequentialReadoutParams(v=1.0, steps=20)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        mean, final = sequential_weak_sequence(z_diagonal(0.0), 0, 0.0, params, rng)
        assert mean in (-1.0, 1.0)
        assert abs(expect(final, SIGMA_Z, 0) - mean) < 1e-10


def test_eigenstate_trajectory_mean_approaches_strength():
    # outcomes on a z eigenstate are iid with mean v and the state never moves
    params = SequentialReadoutParams(v=0.2, steps=2000)
    mean, final = sequential_weak_sequence(z_diagonal(1.0), 0, 0.0, params, np.random.default_rng(4))
    spread = math.sqrt(1.0 - 0.2**2) / math.sqrt(params.steps)
    assert abs(mean - 0.2) < 4.0 * spread
    assert abs(expect(final, SIGMA_Z, 0) - 1.0) < 1e-10


def test_conditioned_expectation_is_a_martingale():
    # the mean final <sigma_z> over trajectories reproduces the initial value
    params = SequentialReadoutParams(v=0.3, steps=50)
    rng = np.random.default_rng(5)
    finals = []
    for _ in range(300):
        _, final = sequential_weak_sequence(z_diagonal(0.3), 0, 0.0, params, rng)
        finals.append(expect(final, SIGMA_Z, 0))
    finals = np.array(finals)
    stderr = finals.std(ddof=1) / math.sqrt(len(finals))
    assert abs(finals.mean() - 0.3) < 4.0 * stderr


def test_long_readout_collapses_the_ancilla():
    params = SequentialReadoutParams(v=0.4, steps=300)
    rng = np.random.default_rng(6)
    collapsed = 0
    for _ in range(20):
        mean, final = sequential_weak_sequence(z_diagonal(0.0), 0, 0.0, params, rng)
        m = expect(final, SIGMA_Z, 0)
        if abs(m) > 0.99:
            collapsed += 1
            assert predict(mean) == (1 if m > 0 else -1)
    assert collapsed >= 19


# ----------------------------------------------------------------- the batch


def reference_prediction(settings: Settings, readout, index: int, master_seed: int):
    """Scalar re-derivation of one prediction trial from the draw layout.

    Samples the projective pair from its Born law, then per ancilla takes
    the two draws of its counter block: the first picks the eigenvalue c,
    the second the count K of +1 readouts by walking the binomial CDF one
    k at a time.
    """
    psi = BELL_AMPLITUDES[settings.bell_kind]
    rho = np.outer(psi, psi.conj())
    pr1 = axis_projectors(settings.b1)
    pr2 = axis_projectors(settings.b2)
    pick = {1: 0, -1: 1}
    probs = [
        float(np.trace(np.kron(pr1[pick[t1]], pr2[pick[t2]]) @ rho).real)
        for t1, t2 in prediction._BRANCHES
    ]
    u = streams.stream(master_seed, streams.PREDICT_BELL_STREAM, index=index, blocks=1).random()
    idx, acc = 0, probs[0]
    while u >= acc and idx < 3:
        idx += 1
        acc += probs[idx]
    t1, t2 = prediction._BRANCHES[idx]

    n = readout.steps
    means = []
    for qubit_tag, t in (
        (streams.PREDICT_ANCILLA1_STREAM, t1),
        (streams.PREDICT_ANCILLA2_STREAM, t2),
    ):
        gen = streams.stream(master_seed, qubit_tag, index=index, blocks=1)
        u_c, u_k = gen.random(), gen.random()
        c = 1 if u_c < (1.0 + t * settings.v) / 2.0 else -1
        p = (1.0 + c * readout.v) / 2.0
        k = 0
        while bdtr(k, n, p) <= u_k:
            k += 1
        means.append((2 * k - n) / n)
    return means[0], means[1], t1, t2


def test_batch_matches_scalar_layout_reference():
    settings = prediction_settings(0.6)
    readout = SequentialReadoutParams(v=0.3, steps=40)
    table = prediction_batch(settings, readout, 30, master_seed=77)
    for i in range(30):
        mean1, mean2, t1, t2 = reference_prediction(settings, readout, i, 77)
        row = table.row(i)
        assert row.trajectory_mean1 == mean1
        assert row.trajectory_mean2 == mean2
        assert row.actual1 == t1 and row.actual2 == t2
        assert row.predicted1 == predict(mean1)
        assert row.predicted2 == predict(mean2)


def binomial_mixture_pmf(m0: float, v: float, steps: int) -> np.ndarray:
    """P(K = k) of the two-stage law: c = +1 w.p. (1 + m0)/2, K | c ~ Bin(steps, (1 + c v)/2)."""
    pmf = np.zeros(steps + 1)
    for c in (1, -1):
        p = (1.0 + c * v) / 2.0
        for k in range(steps + 1):
            pmf[k] += (1.0 + c * m0) / 2.0 * math.comb(steps, k) * p**k * (1.0 - p) ** (steps - k)
    return pmf


def kraus_count_pmf(m0: float, v: float, steps: int) -> np.ndarray:
    """P(K = k) from all 2^steps readout sequences of weak_kraus operators.

    Each sequence's probability is the trace of its unnormalized branch
    state; sequences are grouped by their count K of +1 outcomes.
    """
    pair = weak_kraus(v, 0.0)
    branches = [(z_diagonal(m0).density().astype(complex), 0)]
    for _ in range(steps):
        branches = [
            (pair.operator(o) @ rho @ pair.operator(o).conj().T, k + (o > 0))
            for rho, k in branches
            for o in (1, -1)
        ]
    assert len(branches) == 2**steps
    pmf = np.zeros(steps + 1)
    for rho, k in branches:
        pmf[k] += float(np.trace(rho).real)
    return pmf


def test_readout_count_law_matches_kraus_enumeration():
    for m0, v in ((0.0, 0.3), (0.6, 0.3), (-0.45, 0.7), (1.0, 0.2), (0.3, 1.0)):
        for steps in range(1, 11):
            law = binomial_mixture_pmf(m0, v, steps)
            assert np.abs(kraus_count_pmf(m0, v, steps) - law).max() < 1e-12, (m0, v, steps)
            # the sampler inverts exactly this law's CDF
            cdf_plus, cdf_minus = prediction._count_cdfs(steps, v)
            mixture = (1.0 + m0) / 2.0 * cdf_plus + (1.0 - m0) / 2.0 * cdf_minus
            assert np.abs(mixture - np.cumsum(law)).max() < 1e-12, (m0, v, steps)


def test_scalar_readout_route_matches_count_law():
    m0, steps, n = 0.3, 5, 2000
    params = SequentialReadoutParams(v=0.4, steps=steps)
    rng = np.random.default_rng(21)
    counts = np.zeros(steps + 1)
    for _ in range(n):
        mean, _ = sequential_weak_sequence(z_diagonal(m0), 0, 0.0, params, rng)
        counts[round((mean + 1.0) * steps / 2.0)] += 1
    law = binomial_mixture_pmf(m0, params.v, steps)
    se = np.sqrt(law * (1.0 - law) / n)
    assert np.all(np.abs(counts / n - law) < 5.0 * se), (counts / n, law)


def test_run_prediction_experiment_is_deterministic():
    settings = prediction_settings(0.5)
    readout = SequentialReadoutParams(v=0.2, steps=64)
    rec = run_prediction_experiment(settings, readout, 9, master_seed=123)
    assert rec == run_prediction_experiment(settings, readout, 9, master_seed=123)
    assert rec.trial_index == 9
    assert rec.seed == streams.derived_seed(123, 9)
    assert rec.predicted1 == predict(rec.trajectory_mean1)
    assert rec.actual1 in (-1, 1) and rec.actual2 in (-1, 1)
    assert rec != run_prediction_experiment(settings, readout, 10, master_seed=123)


def test_prediction_batch_chunk_and_slice_invariance():
    settings = prediction_settings(0.3)
    readout = SequentialReadoutParams(v=0.25, steps=24)
    whole = prediction_batch(settings, readout, 777, master_seed=1, chunk=777)
    pieces = prediction_batch(settings, readout, 777, master_seed=1, chunk=123)
    for name in ("trajectory_mean1", "trajectory_mean2", "predicted1", "actual2", "seed"):
        assert np.array_equal(getattr(whole, name), getattr(pieces, name))
    tail = prediction_batch(settings, readout, 100, master_seed=1, start=677)
    assert np.array_equal(tail.trajectory_mean1, whole.trajectory_mean1[677:])
    for i in range(0, 777, 311):
        assert whole.row(i) == run_prediction_experiment(settings, readout, i, master_seed=1)
    with pytest.raises(ValueError):
        prediction_batch(settings, readout, 0, master_seed=1)


def test_prediction_table_round_trip():
    settings = prediction_settings(0.5)
    readout = SequentialReadoutParams(v=0.2, steps=8)
    records = [run_prediction_experiment(settings, readout, i, 3) for i in range(5)]
    table = as_prediction_table(records)
    assert len(table) == 5
    assert table.row(2) == records[2]
    merged = PredictionTable.concat([table, table])
    assert len(merged) == 10
    assert isinstance(merged.settings_id, str)
    with pytest.raises(ValueError):
        as_prediction_table([])
    with pytest.raises(ValueError):
        PredictionTable.concat([])


# ------------------------------------------------------------------- accuracy


def test_prediction_accuracy_counts():
    settings_id = "x"

    def rec(i, p1, a1):
        return prediction.PredictionRecord(i, 0.1, 0.1, p1, 1, a1, 1, settings_id, 0)

    est = prediction_accuracy([rec(0, 1, 1), rec(1, 1, -1)])
    assert est.matches == 3 and est.count == 4
    assert est.accuracy == 0.75
    assert 0.0 < est.ci_low < 0.75 < est.ci_high < 1.0

    perfect = prediction_accuracy([rec(0, 1, 1), rec(1, -1, -1)])
    assert perfect.accuracy == 1.0
    assert perfect.ci_high == 1.0


def test_accuracy_at_full_coupling_is_near_perfect():
    settings = prediction_settings(1.0)
    readout = SequentialReadoutParams(v=0.05, steps=10_000)
    table = prediction_batch(settings, readout, 300, master_seed=2)
    assert prediction_accuracy(table).accuracy > 0.99


def test_accuracy_tracks_coupling_strength_when_saturated():
    readout = SequentialReadoutParams(v=0.25, steps=600)
    assert readout.saturated
    for v, n in ((0.001, 2000), (0.4, 2000)):
        table = prediction_batch(prediction_settings(v), readout, n, master_seed=8)
        est = prediction_accuracy(table)
        target = (1.0 + v) / 2.0
        spread = math.sqrt(target * (1.0 - target) / est.count) if v < 1 else 0.0
        assert abs(est.accuracy - target) < 4.0 * spread + 1e-12


def enumerated_accuracy(system_v: float, chain: SequentialReadoutParams) -> float:
    """Pooled accuracy from all 2^steps outcome sequences of the readout chain."""

    def chain_prob(seq, m):
        p = 1.0
        for o in seq:
            p_plus = (1.0 + chain.v * m) / 2.0
            p *= p_plus if o > 0 else 1.0 - p_plus
            m = (m + o * chain.v) / (1.0 + o * chain.v * m)
        return p

    exact = 0.0
    for t in (1, -1):
        for seq in itertools.product((1, -1), repeat=chain.steps):
            if predict(sum(seq) / chain.steps) == t:
                exact += 0.5 * chain_prob(seq, t * system_v)
    return exact


def test_small_chain_accuracy_matches_exact_enumeration():
    # steps = 3 is far from saturation; enumerate all 2^3 outcome sequences
    system_v, chain = 0.5, SequentialReadoutParams(v=0.6, steps=3)
    exact = enumerated_accuracy(system_v, chain)

    table = prediction_batch(prediction_settings(system_v), chain, 30_000, master_seed=13)
    est = prediction_accuracy(table)
    spread = math.sqrt(exact * (1.0 - exact) / est.count)
    assert abs(est.accuracy - exact) < 4.0 * spread
    # not yet saturated: short chains predict worse than the asymptote
    assert exact < (1.0 + system_v) / 2.0

    # the exact accuracy, even steps included (a tie K = steps/2 predicts +1)
    for system_v, readout_v in ((0.5, 0.6), (0.9, 0.2), (1.0, 0.7)):
        for steps in range(1, 9):
            chain = SequentialReadoutParams(v=readout_v, steps=steps)
            got = prediction_accuracy_exact(prediction_settings(system_v), chain)
            assert abs(got - enumerated_accuracy(system_v, chain)) < 1e-12, (system_v, readout_v, steps)


def test_exact_accuracy_reaches_one_plus_v_over_two_at_saturation():
    readout = SequentialReadoutParams(v=0.05, steps=10_000)
    assert readout.saturated
    for v in (0.01, 0.3, 0.6, 1.0):
        exact = prediction_accuracy_exact(prediction_settings(v), readout)
        # the misassignment probability at steps * v^2 = 25 is below 1e-6
        assert 0.0 <= (1.0 + v) / 2.0 - exact < 1e-6, v
    psi_minus = Settings(a1=0.0, a2=math.pi / 2, b1=0.0, b2=math.pi / 2, v=0.3, bell_kind="psi_minus")
    assert abs(prediction_accuracy_exact(psi_minus, readout) - 0.65) < 1e-6
    shallow = SequentialReadoutParams(v=0.05, steps=100)
    assert prediction_accuracy_exact(prediction_settings(0.3), shallow) < 0.65 - 1e-3


# -------------------------------------------------------- after the protocol


def test_post_coupling_state_matches_kraus_average():
    settings = prediction_settings(0.5)
    got = post_coupling_state(settings).density()
    psi = BELL_AMPLITUDES["phi_plus"]
    rho = np.outer(psi, psi.conj())
    expected = np.zeros((4, 4), dtype=complex)
    for c1 in (1, -1):
        k1 = lift1(weak_kraus(0.5, settings.a1).operator(c1), 0, 2)
        for c2 in (1, -1):
            k2 = lift1(weak_kraus(0.5, settings.a2).operator(c2), 1, 2)
            m = k2 @ k1
            expected += m @ rho @ m.conj().T
    assert np.abs(got - expected).max() < 1e-12


def test_post_selected_state_matches_selective_branch():
    settings = prediction_settings(0.5)
    got = post_coupling_state(settings, post_select=(1, -1)).density()
    psi = BELL_AMPLITUDES["phi_plus"]
    rho = np.outer(psi, psi.conj())
    m = lift1(weak_kraus(0.5, settings.a2).operator(-1), 1, 2) @ lift1(
        weak_kraus(0.5, settings.a1).operator(1), 0, 2
    )
    branch = m @ rho @ m.conj().T
    branch /= np.trace(branch).real
    assert np.abs(got - branch).max() < 1e-12
    with pytest.raises(ValueError):
        post_coupling_state(settings, post_select=(0, 1))


def test_weak_coupling_leaves_bell_pair_nearly_intact():
    from blgisim.qubits import concurrence

    state = post_coupling_state(prediction_settings(0.01))
    assert concurrence(state) > 0.999


def test_exact_post_protocol_chsh_closed_form():
    for v in np.linspace(0.05, 1.0, 20):
        got = exact_post_protocol_chsh(prediction_settings(float(v)))
        assert abs(got - closed_form_post_chsh(float(v))) < 1e-12


def test_post_protocol_tradeoff_curve():
    grid = np.linspace(0.1, 1.0, 10)
    values = [exact_post_protocol_chsh(prediction_settings(float(v))) for v in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] > 2.0
    assert abs(exact_post_protocol_chsh(prediction_settings(1.0))) < 1e-12
    # the violation survives exactly while v^2 < 1/2
    assert exact_post_protocol_chsh(prediction_settings(0.70)) > 2.0
    assert exact_post_protocol_chsh(prediction_settings(0.72)) < 2.0


def test_post_protocol_chsh_sampling_matches_exact():
    settings = prediction_settings(0.5)
    readout = SequentialReadoutParams(v=0.05, steps=10_000)
    report = post_protocol_chsh(settings, readout, n_trials=40_000, master_seed=3)
    exact = exact_post_protocol_chsh(settings)
    assert abs(report.chsh - exact) < 4.0 * report.chsh_stderr
    again = post_protocol_chsh(settings, readout, n_trials=40_000, master_seed=3)
    assert report == again


def test_post_protocol_chsh_argument_validation():
    settings = prediction_settings(0.5)
    saturated = SequentialReadoutParams(v=0.05, steps=10_000)
    shallow = SequentialReadoutParams(v=0.05, steps=100)
    with pytest.raises(ValueError):
        post_protocol_chsh(settings, saturated, n_trials=4)
    with pytest.raises(ValueError):
        post_protocol_chsh(settings, shallow, post_select=(1, 1))
    report = post_protocol_chsh(settings, saturated, n_trials=8_000, post_select=(1, 1), master_seed=4)
    assert abs(report.chsh) <= 2.0 * math.sqrt(2.0) + 4.0 * report.chsh_stderr
