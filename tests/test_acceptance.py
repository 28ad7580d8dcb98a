"""Acceptance suite: one test per criterion, each a single pass/fail line.

Every tolerance and runtime budget is asserted inside the test that owns it:
  1. binary bound is exact arithmetic, enumerated and randomized, under 1s
  2. exact oracle equals the closed-form curve to 1e-9, under 1s
  3. a million-trial run reproduces the oracle and violates the bound, under 60s
  4. the auditor separates quantum data from binary+noise data
  5. back-action matches analytic decoherence to 1e-12
  6. residual entanglement decays monotonically but survives below v = 1
  7. prediction accuracy tracks (1 + v)/2 while the violation decays, under 5min
  8. record outputs are byte-identical across reruns, workers, and processes
"""

import math
import subprocess
import sys
import time

import numpy as np

from blgisim import audit, prediction, trials
from blgisim.cli import main
from blgisim.trials import NoiseModel, default_settings
from reference import QuantumState, axis_projectors, bloch_observable, entanglement_curve, lift1, nonselective_weak
from reference import prediction_batch, simulate_trials


def test_criterion_1_binary_bound_is_exact_and_fast():
    start = time.perf_counter()

    report = audit.exhaustive_verify()
    assert report.plus_two == 8
    assert report.minus_two == 8
    assert report.mean_term == 0.0
    assert all(term in (-2, 2) for _, term in report.rows)

    rng = np.random.default_rng(2026)
    big = [tuple(int(x) for x in row) for row in rng.choice((-1, 1), size=(100_000, 4))]
    assert audit.chsh_bound_check(big) <= 2.0  # zero tolerance: exact integers
    for _ in range(200):
        n = int(rng.integers(1, 500))
        seq = rng.choice((-1, 1), size=(n, 4))
        assert audit.chsh_bound_check(seq) <= 2.0

    assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_matches_closed_form_curve():
    start = time.perf_counter()
    for v in np.arange(0.05, 1.0000001, 0.05):
        v = float(v)
        exact = trials.exact_chsh(default_settings(v))
        closed = math.sqrt(2.0) * (1.0 + math.sqrt(1.0 - v * v))
        assert abs(exact - closed) < 1e-9, f"v={v}: {exact} vs {closed}"
    assert time.perf_counter() - start < 1.0


def test_criterion_3_million_trials_reproduce_oracle_and_violate_bound():
    start = time.perf_counter()
    settings = default_settings(0.2)
    table = simulate_trials(settings, 1_000_000, master_seed=20260816)

    report = trials.estimate_chsh(table)
    pairs = {
        "e11": (report.e11, "alpha1", "beta1"),
        "e12": (report.e12, "alpha1", "beta2"),
        "e21": (report.e21, "alpha2", "beta1"),
        "e22": (report.e22, "alpha2", "beta2"),
    }
    for name, (est, left, right) in pairs.items():
        exact = trials.exact_correlator(settings, left, right)
        assert abs(est.value - exact) < 4.0 * est.stderr, name

    assert report.chsh - 2.0 > 3.0 * report.chsh_stderr
    assert time.perf_counter() - start < 60.0


def test_criterion_4_auditor_separates_quantum_from_binary_noise():
    noise = NoiseModel(sigma=0.3)

    quantum = simulate_trials(default_settings(0.2, noise), 1_000_000, master_seed=41)
    assert audit.decomposition_test(quantum).verdict == audit.REJECT

    config = audit.hidden_variable_config(99)
    binary = simulate_trials(audit.hidden_variable_source(config, 0.2, noise), 1_000_000, master_seed=42)
    assert audit.decomposition_test(binary).verdict == audit.CONSISTENT

    # false-REJECT rate over randomized binary+noise generators
    rng = np.random.default_rng(77)
    rejects = 0
    for k in range(100):
        cfg = audit.hidden_variable_config(7, index=k)
        v = float(rng.uniform(0.1, 1.0))
        sigma = float(rng.uniform(0.0, 0.5))
        records = simulate_trials(
            audit.hidden_variable_source(cfg, v, NoiseModel(sigma=sigma)), 20_000, master_seed=1000 + k
        )
        if audit.decomposition_test(records).verdict == audit.REJECT:
            rejects += 1
    assert rejects <= 1


def test_criterion_5_back_action_matches_analytic_decoherence():
    rng = np.random.default_rng(5150)

    def decohered(state, qubit, theta, v):
        # independent route: damp that qubit's coherences in the measurement
        # eigenbasis by sqrt(1 - v^2), elementwise on the state tensor
        n = state.num_qubits
        _, w = np.linalg.eigh(bloch_observable(theta))
        big_w = lift1(w, qubit, n)
        rho = big_w.conj().T @ state.density() @ big_w
        t = rho.reshape((2,) * (2 * n))
        bra = [slice(None)] * (2 * n)
        u = math.sqrt(1.0 - v * v)
        for i in (0, 1):
            for j in (0, 1):
                if i != j:
                    bra[qubit] = i
                    bra[qubit + n] = j
                    t[tuple(bra)] = t[tuple(bra)] * u
        return big_w @ t.reshape(rho.shape) @ big_w.conj().T

    for trial in range(100):
        n = 1 + trial % 2
        qubit = trial % n
        v = float(rng.uniform(0.05, 1.0))
        theta = float(rng.uniform(-np.pi, np.pi))
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = QuantumState.from_amplitudes(vec / np.linalg.norm(vec))

        got = nonselective_weak(state, qubit, theta, v).density()
        assert np.abs(got - decohered(state, qubit, theta, v)).max() < 1e-12

        # v = 1 must equal the projective (eigenprojector average) channel
        plus, minus = axis_projectors(theta)
        rho = state.density()
        projective = sum(
            lift1(p, qubit, n) @ rho @ lift1(p, qubit, n) for p in (plus, minus)
        )
        full = nonselective_weak(state, qubit, theta, 1.0).density()
        assert np.abs(full - projective).max() < 1e-12


def test_criterion_6_entanglement_decays_but_survives_below_full_strength():
    grid = [0.001] + list(np.linspace(0.1, 0.99, 9)) + [1.0]
    curve = entanglement_curve(grid)
    values = [c for _, c in curve]

    assert values[0] > 0.999  # v -> 0 leaves the pair maximally entangled
    assert all(a > b for a, b in zip(values, values[1:]))
    for v, c in curve:
        assert abs(c - (1.0 - v * v)) < 1e-9
        if v < 1.0:
            assert c > 0.0
    assert values[-1] < 1e-9


def test_criterion_7_prediction_accuracy_and_violation_tradeoff():
    start = time.perf_counter()
    readout = prediction.SequentialReadoutParams(v=0.05, steps=10_000)
    assert readout.saturated

    for v, seed in ((0.01, 71), (0.3, 72), (1.0, 73)):
        table = prediction_batch(
            prediction.prediction_settings(v), readout, 100_000, master_seed=seed, workers=4
        )
        est = prediction.prediction_accuracy(table)
        target = (1.0 + v) / 2.0
        spread = math.sqrt(target * (1.0 - target) / est.count)
        observed = math.sqrt(max(est.accuracy * (1.0 - est.accuracy), 0.0) / est.count)
        # 1e-4 floor covers the degenerate zero-variance point at v = 1
        tolerance = max(4.0 * spread, 4.0 * observed, 1e-4)
        assert abs(est.accuracy - target) < tolerance, f"v={v}"

    post = [
        prediction.exact_post_protocol_chsh(prediction.prediction_settings(float(v)))
        for v in np.linspace(0.1, 1.0, 10)
    ]
    assert all(a > b for a, b in zip(post, post[1:]))
    assert post[0] > 2.0
    assert post[-1] <= 2.0

    sampled = prediction.post_protocol_chsh(
        prediction.prediction_settings(0.3), readout, n_trials=40_000, master_seed=74
    )
    exact = prediction.exact_post_protocol_chsh(prediction.prediction_settings(0.3))
    assert abs(sampled.chsh - exact) < 4.0 * sampled.chsh_stderr

    assert time.perf_counter() - start < 300.0


def test_criterion_8_outputs_are_byte_identical_everywhere(tmp_path):
    # trial records: rerun and worker-count invariance with the pool engaged
    # (70000 trials are five 16384-trial chunks)
    sim = ["simulate", "--v", "0.2", "--trials", "70000", "--seed", "12"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(sim + ["--out", str(paths[0])]) == 0
    assert main(sim + ["--out", str(paths[1])]) == 0
    assert main(sim + ["--out", str(paths[2]), "--workers", "3"]) == 0
    ref = paths[0].read_bytes()
    assert paths[1].read_bytes() == ref
    assert paths[2].read_bytes() == ref

    # fresh OS process through the module entry point
    sub_out = tmp_path / "d.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "blgisim.cli"] + sim + ["--out", str(sub_out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sub_out.read_bytes() == ref

    # prediction records: 40000 trials > two 16384-trial chunks
    pre = ["predict", "--v", "0.5", "--readout-v", "0.6", "--steps", "100", "--trials", "40000", "--seed", "13"]
    pa, pb = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert main(pre + ["--out", str(pa)]) == 0
    assert main(pre + ["--out", str(pb), "--workers", "3"]) == 0
    assert pa.read_bytes() == pb.read_bytes()

    # sweep rows: rerun, and at fewer and at more workers than points, which
    # the command records but runs in its own process
    swe = ["sweep", "--v-grid", "0.2,0.9", "--trials", "4000", "--seed", "14"]
    sa, sb, sc, sd = (tmp_path / f"s{i}.csv" for i in range(1, 5))
    assert main(swe + ["--out", str(sa)]) == 0
    assert main(swe + ["--out", str(sb)]) == 0
    assert main(swe + ["--out", str(sc), "--workers", "2"]) == 0
    assert main(swe + ["--out", str(sd), "--workers", "5"]) == 0
    assert sb.read_bytes() == sa.read_bytes()
    assert sc.read_bytes() == sa.read_bytes()
    assert sd.read_bytes() == sa.read_bytes()
