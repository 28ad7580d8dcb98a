"""Trial engine and exact oracle: dual routes, frozen values, noise algebra."""

import math

import numpy as np
import pytest
from scipy import stats

from blgisim import prediction, qubits, streams, trials
from blgisim.qubits import NO_NOISE, NoiseModel
from blgisim.trials import (
    BELL_AMPLITUDES,
    Settings,
    TrialTable,
    as_table,
    branch_distribution,
    chsh_combine,
    chsh_curve,
    coupled_state,
    default_settings,
    entanglement_curve,
    estimate_chsh,
    estimate_correlator,
    exact_chsh,
    exact_correlator,
    exact_mean,
    prepare_bell,
    run_trial,
    sample_branches,
    simulate_trials,
)
from reference import apply_readout_noise, projective_measure, rescale, weak_measure

SQRT_HALF = math.sqrt(0.5)

# psi- tested along z on both qubits at full strength: 14 of the 16 branches,
# the last one included, have probability exactly 0
ZERO_BRANCH_SETTINGS = Settings(a1=0.0, a2=0.0, b1=0.0, b2=0.0, v=1.0, bell_kind="psi_minus")


def closed_form_chsh(v: float) -> float:
    # Default axes: same-qubit terms are v-independent, cross terms carry
    # the sqrt(1 - v^2) back-action factor.
    return math.sqrt(2.0) * (1.0 + math.sqrt(1.0 - v * v))


def reference_trial(settings: Settings, index: int, master_seed: int):
    """Scalar re-derivation of one trial from draw layout 3.

    Reads the same counter window as the batch engine: draw 0 walks the
    16-branch law one branch at a time (the first branch whose cumulative
    probability exceeds it, else the last branch of positive probability),
    then apply_readout_noise takes draws 1 and 2 and rescale divides by V.
    It checks the draw layout, the noise and the rescaling exactly.
    """
    gen = streams.stream(master_seed, streams.TRIAL_STREAM, index=index, blocks=trials.TRIAL_BLOCKS)
    u = gen.random()
    acc = 0.0
    for branch, p in branch_distribution(settings).items():
        if p > 0.0:
            picked, acc = branch, acc + p
            if u < acc:
                break
    raw1, raw2, beta1, beta2 = picked
    noisy1 = apply_readout_noise(float(raw1), settings.noise, gen)
    noisy2 = apply_readout_noise(float(raw2), settings.noise, gen)
    return noisy1, noisy2, rescale(noisy1, settings.v), rescale(noisy2, settings.v), beta1, beta2


def scalar_chain_branch(settings: Settings, rng: np.random.Generator) -> tuple:
    """(raw1, raw2, beta1, beta2) of one trial run through the scalar Kraus chain."""
    state = prepare_bell(settings.bell_kind)
    raw1, state = weak_measure(state, 0, settings.a1, settings.v, rng)
    raw2, state = weak_measure(state, 1, settings.a2, settings.v, rng)
    beta1, state = projective_measure(state, 0, settings.b1, rng)
    beta2, _ = projective_measure(state, 1, settings.b2, rng)
    return raw1, raw2, beta1, beta2


def matrix_root_pmf(settings: Settings) -> dict:
    """Independent 16-branch enumeration built from matrix square roots.

    Kraus operators are square roots taken on a numerical eigendecomposition
    (numpy.linalg.eigh) rather than the closed form on the sigma(theta)
    projectors, and the qubit embedding is spelled out with plain kron.
    """
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def kraus(theta, v, outcome):
        obs = math.cos(theta) * sz + math.sin(theta) * sx
        vals, vecs = np.linalg.eigh((eye + outcome * v * obs) / 2.0)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

    psi = BELL_AMPLITUDES[settings.bell_kind]
    rho = np.outer(psi, psi.conj())
    pmf = {}
    for r1 in (1, -1):
        for r2 in (1, -1):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    m = (
                        np.kron(eye, kraus(settings.b2, 1.0, s2))
                        @ np.kron(kraus(settings.b1, 1.0, s1), eye)
                        @ np.kron(eye, kraus(settings.a2, settings.v, r2))
                        @ np.kron(kraus(settings.a1, settings.v, r1), eye)
                    )
                    pmf[(r1, r2, s1, s2)] = float(np.trace(m @ rho @ m.conj().T).real)
    return pmf


# ------------------------------------------------------------------ settings


def test_settings_validation():
    with pytest.raises(ValueError):
        Settings(v=0.0)
    with pytest.raises(ValueError):
        Settings(v=1.2)
    with pytest.raises(ValueError):
        Settings(a1=np.nan)
    with pytest.raises(ValueError):
        Settings(bell_kind="ghz")


def test_settings_id_is_stable_and_discriminating():
    sid = default_settings(0.2).settings_id
    assert sid == (
        "phi_plus;a1=0;a2=1.57079632679;b1=0.785398163397;"
        "b2=-0.785398163397;v=0.2;bias=0;sigma=0"
    )
    assert default_settings(0.3).settings_id != sid
    assert default_settings(0.2, NoiseModel(bias=0.1)).settings_id != sid
    assert "," not in sid


def test_prepare_bell_states():
    phi = prepare_bell("phi_plus")
    assert np.allclose(phi.data, np.array([1, 0, 0, 1]) / math.sqrt(2.0))
    psi = prepare_bell("psi_minus")
    assert np.allclose(psi.data, np.array([0, 1, -1, 0]) / math.sqrt(2.0))
    with pytest.raises(ValueError):
        prepare_bell("ghz")


# -------------------------------------------------------------- trial engine


def test_run_trial_is_deterministic_and_well_formed():
    settings = default_settings(0.4, NoiseModel(bias=0.05, sigma=0.2))
    rec = run_trial(settings, 17, master_seed=42)
    again = run_trial(settings, 17, master_seed=42)
    assert rec == again
    assert rec.trial_index == 17
    assert rec.beta1 in (-1, 1) and rec.beta2 in (-1, 1)
    assert rec.alpha1 == rec.raw1 / 0.4 and rec.alpha2 == rec.raw2 / 0.4
    assert rec.settings_id == settings.settings_id
    assert rec.seed == streams.derived_seed(42, 17)
    assert rec != run_trial(settings, 18, master_seed=42)
    assert rec != run_trial(settings, 17, master_seed=43)


def test_batch_rows_equal_single_trials():
    settings = default_settings(0.7, NoiseModel(sigma=0.1))
    table = simulate_trials(settings, 10, master_seed=9)
    for i in range(10):
        assert table.row(i) == run_trial(settings, i, master_seed=9)


def _assert_engine_matches_reference(settings, n, seed):
    # draw-exact: every row bit-equal to the scalar layout-3 reference
    table = simulate_trials(settings, n, master_seed=seed)
    for i in range(n):
        row = table.row(i)
        got = (row.raw1, row.raw2, row.alpha1, row.alpha2, row.beta1, row.beta2)
        assert got == reference_trial(settings, i, seed), (settings, i)


def test_engine_matches_scalar_operator_reference():
    # noisy, biased, weak coupling
    settings = Settings(v=0.6, noise=NoiseModel(bias=0.05, sigma=0.3))
    _assert_engine_matches_reference(settings, 150, 2024)


def test_engine_matches_scalar_operator_reference_projective():
    # random-angle projective coupling
    settings = Settings(a1=0.3, a2=1.1, b1=0.9, b2=-0.4, v=1.0)
    _assert_engine_matches_reference(settings, 50, 7)


def test_scalar_kraus_chain_matches_branch_law():
    # the physics check independent of the engine: the state-updating scalar
    # chain against the exact law the engine samples, every cell within 5 SE
    rng = np.random.default_rng(4242)
    a1, a2, b1, b2 = rng.uniform(-np.pi, np.pi, 4)
    n = 4000
    for settings in (
        default_settings(0.3),
        Settings(a1=a1, a2=a2, b1=b1, b2=b2, v=0.7, bell_kind="psi_minus"),
        ZERO_BRANCH_SETTINGS,
    ):
        pmf = branch_distribution(settings)
        counts = {branch: 0 for branch in pmf}
        for _ in range(n):
            counts[scalar_chain_branch(settings, rng)] += 1
        for branch, p in pmf.items():
            p = max(p, 0.0)  # a cell of probability 0 gets no tolerance: it must never be hit
            assert abs(counts[branch] / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n), (settings, branch)


def test_sample_branches_never_returns_a_zero_probability_branch():
    # u at 0, at every cumulative boundary and just below 1, on two laws
    # whose last branch has probability 0
    psi_minus = prepare_bell("psi_minus").density()
    zero_law = branch_distribution(ZERO_BRANCH_SETTINGS)
    laws = (
        (prediction._pair_probs(psi_minus, 0.0, 0.0), list(prediction._BRANCHES)),
        (list(zero_law.values()), list(zero_law)),
    )
    for probs, branches in laws:
        probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
        assert probs[-1] == 0.0
        cum = np.cumsum(probs)
        u = np.concatenate([[0.0], cum, [np.nextafter(1.0, 0.0)]])
        outcomes = len(branches[0])
        drawn = list(zip(*(d.tolist() for d in sample_branches(probs, u, outcomes))))
        last = max(k for k, p in enumerate(probs) if p > 0.0)
        for x, got in zip(u, drawn):
            want = min(int(np.searchsorted(cum, x, side="right")), last)
            assert probs[branches.index(got)] > 0.0, (x, got)
            assert got == branches[want], (x, got)


def test_projective_same_axis_repeats_outcome():
    # At v = 1 with b_i = a_i the projective outcome must equal the weak one.
    settings = Settings(a1=0.3, a2=1.1, b1=0.3, b2=1.1, v=1.0)
    table = simulate_trials(settings, 400, master_seed=3)
    assert np.array_equal(table.alpha1, table.beta1.astype(float))
    assert np.array_equal(table.alpha2, table.beta2.astype(float))


def test_batch_is_chunk_invariant():
    settings = default_settings(0.5, NoiseModel(sigma=0.25))
    whole = simulate_trials(settings, 1000, master_seed=5, chunk=1000)
    pieces = simulate_trials(settings, 1000, master_seed=5, chunk=137)
    for name in ("trial_index", "raw1", "raw2", "alpha1", "alpha2", "beta1", "beta2", "seed"):
        assert np.array_equal(getattr(whole, name), getattr(pieces, name))


def test_batch_start_offset_matches_full_run():
    settings = default_settings(0.5)
    full = simulate_trials(settings, 200, master_seed=11)
    tail = simulate_trials(settings, 60, master_seed=11, start=140)
    assert np.array_equal(tail.alpha1, full.alpha1[140:])
    assert np.array_equal(tail.beta2, full.beta2[140:])
    assert np.array_equal(tail.trial_index, np.arange(140, 200))


def test_simulate_trials_rejects_empty():
    with pytest.raises(ValueError):
        simulate_trials(default_settings(0.5), 0, master_seed=1)


# --------------------------------------------------------------- table shape


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs map in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_run_chunked_caps_workers_at_chunk_count(monkeypatch):
    monkeypatch.setattr(trials, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    settings = default_settings(0.4, NoiseModel(sigma=0.2))
    pooled = simulate_trials(settings, 70_000, master_seed=3, workers=10_000)
    assert _InlinePool.max_workers == [2]  # 70,000 trials are 2 chunks of 65,536
    serial = simulate_trials(settings, 70_000, master_seed=3, workers=1)
    assert _InlinePool.max_workers == [2]
    for name in TrialTable.field_names:
        assert np.array_equal(getattr(pooled, name), getattr(serial, name)), name


def test_as_table_round_trip_and_concat():
    settings = default_settings(0.8)
    records = [run_trial(settings, i, 1) for i in range(6)]
    table = as_table(records)
    assert len(table) == 6
    assert isinstance(table.settings_id, str)
    assert table.row(3) == records[3]

    other = simulate_trials(default_settings(0.3), 4, master_seed=1)
    with pytest.raises(ValueError, match="malformed records: 2 distinct settings ids"):
        TrialTable.concat([as_table(records), other])
    with pytest.raises(ValueError):
        TrialTable.concat([])
    with pytest.raises(ValueError):
        as_table([])


def test_table_column_validation():
    table = simulate_trials(default_settings(0.5), 3, master_seed=0)
    with pytest.raises(ValueError):
        table.column("raw1")


# ---------------------------------------------------------------- estimation


def test_estimate_correlator_known_cases():
    settings = default_settings(1.0)
    base = run_trial(settings, 0, 0)

    def rec(a1, b1):
        return trials.TrialRecord(0, a1, 1.0, a1, 1.0, b1, 1, base.settings_id, 0)

    perfect = estimate_correlator([rec(1.0, 1), rec(-1.0, -1)], "alpha1", "beta1")
    assert perfect.value == 1.0 and perfect.stderr == 0.0 and perfect.count == 2

    split = estimate_correlator([rec(1.0, 1), rec(1.0, -1)], "alpha1", "beta1")
    assert split.value == 0.0
    assert abs(split.stderr - 1.0) < 1e-15

    # rescaled signals are unbounded, so the mean product can exceed 1
    big = estimate_correlator([rec(2.0, 1), rec(2.0, 1)], "alpha1", "beta1")
    assert big.value == 2.0

    with pytest.raises(ValueError):
        estimate_correlator([rec(1.0, 1)], "alpha1", "beta1")
    with pytest.raises(ValueError):
        estimate_correlator([rec(1.0, 1), rec(1.0, 1)], "alpha1", "gamma")


def test_chsh_combine_signature_and_quadrature():
    def ce(value, stderr):
        return trials.CorrelatorEstimate(value=value, stderr=stderr, count=100)

    report = chsh_combine(ce(0.7, 0.03), ce(0.5, 0.04), ce(0.5, 0.0), ce(-0.7, 0.0))
    assert abs(report.chsh - 2.4) < 1e-15
    assert abs(report.chsh_stderr - 0.05) < 1e-15


def test_estimate_chsh_reports_consistent_combination():
    table = simulate_trials(default_settings(0.5), 2000, master_seed=8)
    report = estimate_chsh(table)
    total = report.e11.value + report.e12.value + report.e21.value - report.e22.value
    assert abs(report.chsh - total) < 1e-12
    assert report.e11.count == 2000


# -------------------------------------------------------------- exact oracle


def test_branch_distribution_is_a_probability_law():
    for v in (0.2, 1.0):
        pmf = branch_distribution(default_settings(v))
        assert len(pmf) == 16
        assert all(p >= -1e-15 for p in pmf.values())
        assert abs(sum(pmf.values()) - 1.0) < 1e-12


def test_branch_distribution_matches_matrix_root_enumeration():
    rng = np.random.default_rng(61)
    for _ in range(5):
        settings = Settings(
            a1=rng.uniform(-np.pi, np.pi),
            a2=rng.uniform(-np.pi, np.pi),
            b1=rng.uniform(-np.pi, np.pi),
            b2=rng.uniform(-np.pi, np.pi),
            v=rng.uniform(0.1, 1.0),
            bell_kind="psi_minus" if rng.random() < 0.5 else "phi_plus",
        )
        got = branch_distribution(settings)
        want = matrix_root_pmf(settings)
        assert max(abs(got[k] - want[k]) for k in want) < 1e-10


def test_branch_distribution_order_independence():
    # weak channels act on different qubits, so swapping them is invisible
    settings = default_settings(0.37)
    swapped = Settings(a1=settings.a2, a2=settings.a1, b1=settings.b2, b2=settings.b1, v=settings.v)
    pmf = branch_distribution(settings)
    pmf_swapped = branch_distribution(swapped)
    for (r1, r2, s1, s2), p in pmf.items():
        assert abs(pmf_swapped[(r2, r1, s2, s1)] - p) < 1e-12


def test_exact_correlator_frozen_values():
    # same-qubit correlator is v-independent; cross correlator carries
    # sqrt(1 - v^2); the combination at v = 0.2 is frozen to 15 digits
    for v in (0.1, 0.5, 1.0):
        assert abs(exact_correlator(default_settings(v), "alpha1", "beta1") - SQRT_HALF) < 1e-12
    assert abs(exact_correlator(default_settings(0.6), "alpha1", "beta2") - 0.5656854249492381) < 1e-12
    assert abs(exact_correlator(default_settings(1.0), "alpha1", "beta2")) < 1e-12
    assert abs(exact_chsh(default_settings(0.2)) - 2.799854208428197) < 1e-12


def test_exact_chsh_builds_one_law_per_call(monkeypatch):
    calls = []

    def counted(settings):
        calls.append(settings)
        return branch_distribution(settings)

    settings = default_settings(0.45, NoiseModel(bias=0.1, sigma=0.2))
    expected = exact_chsh(settings)
    monkeypatch.setattr(trials, "branch_distribution", counted)
    assert exact_chsh(settings) == expected
    assert calls == [settings]


def test_exact_chsh_matches_closed_form_curve():
    for v in np.linspace(0.05, 1.0, 20):
        assert abs(exact_chsh(default_settings(float(v))) - closed_form_chsh(float(v))) < 1e-9


def test_exact_correlators_ignore_unbiased_noise_and_bias():
    clean = default_settings(0.4)
    dirty = default_settings(0.4, NoiseModel(bias=0.3, sigma=0.5))
    for left, right in (("alpha1", "beta1"), ("alpha1", "beta2"), ("alpha2", "beta1"), ("alpha2", "beta2")):
        assert abs(exact_correlator(dirty, left, right) - exact_correlator(clean, left, right)) < 1e-12
    assert abs(exact_chsh(dirty) - exact_chsh(clean)) < 1e-12


def test_exact_same_field_moment_picks_up_noise_power():
    v, sigma = 0.5, 0.3
    clean = exact_correlator(default_settings(v), "alpha1", "alpha1")
    assert abs(clean - 1.0 / v**2) < 1e-12
    noisy = exact_correlator(default_settings(v, NoiseModel(sigma=sigma)), "alpha1", "alpha1")
    assert abs(noisy - (1.0 + sigma**2) / v**2) < 1e-12


def test_exact_means():
    assert abs(exact_mean(default_settings(0.3), "alpha1")) < 1e-12
    assert abs(exact_mean(default_settings(0.3), "beta2")) < 1e-12
    shifted = default_settings(0.5, NoiseModel(bias=0.2))
    assert abs(exact_mean(shifted, "alpha1") - 0.4) < 1e-12
    assert abs(exact_mean(shifted, "beta1")) < 1e-12
    with pytest.raises(ValueError):
        exact_mean(default_settings(0.3), "raw1")


def test_chsh_curve_shape():
    settings = default_settings(0.5)
    curve = chsh_curve(settings, [0.2, 0.6, 1.0])
    assert [v for v, _ in curve] == [0.2, 0.6, 1.0]
    for v, value in curve:
        assert abs(value - closed_form_chsh(v)) < 1e-9
    with pytest.raises(ValueError):
        chsh_curve(settings, [])


# ----------------------------------------------------- sampling vs the oracle


def test_sampled_branches_match_oracle_distribution():
    # chi-square over all 16 (raw1, raw2, beta1, beta2) branches
    settings = default_settings(0.3)
    table = simulate_trials(settings, 100_000, master_seed=314)
    pmf = branch_distribution(settings)
    keys = sorted(pmf)
    observed = {k: 0 for k in keys}
    stacked = np.stack(
        [table.raw1.astype(int), table.raw2.astype(int), table.beta1, table.beta2], axis=1
    )
    values, counts = np.unique(stacked, axis=0, return_counts=True)
    for row, c in zip(values, counts):
        observed[tuple(int(x) for x in row)] = int(c)
    f_obs = [observed[k] for k in keys]
    f_exp = [pmf[k] * len(table) for k in keys]
    assert stats.chisquare(f_obs, f_exp).pvalue > 1e-3


def test_noisy_estimates_agree_with_exact_oracle():
    settings = default_settings(0.5, NoiseModel(bias=0.1, sigma=0.3))
    table = simulate_trials(settings, 200_000, master_seed=77)
    for left, right in (("alpha1", "beta1"), ("alpha1", "beta2"), ("alpha2", "beta1"), ("alpha2", "beta2")):
        est = estimate_correlator(table, left, right)
        assert abs(est.value - exact_correlator(settings, left, right)) < 4.0 * est.stderr
    mean1 = float(table.alpha1.mean())
    spread = float(table.alpha1.std(ddof=1) / math.sqrt(len(table)))
    assert abs(mean1 - exact_mean(settings, "alpha1")) < 4.0 * spread


# ------------------------------------------------------ residual entanglement


def test_entanglement_curve_closed_form():
    grid = list(np.linspace(0.1, 1.0, 10))
    curve = entanglement_curve(grid)
    for v, c in curve:
        assert abs(c - (1.0 - v * v)) < 1e-9
    values = [c for _, c in curve]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        entanglement_curve([])


def test_asymmetric_axes_kill_entanglement_early():
    # coupling along z on one qubit and x on the other collapses the pair
    # before v reaches 1
    c85 = qubits.concurrence(coupled_state(0.85, 0.0, math.pi / 2))
    c95 = qubits.concurrence(coupled_state(0.95, 0.0, math.pi / 2))
    assert abs(c85 - 0.165533) < 1e-4
    assert c95 == 0.0
