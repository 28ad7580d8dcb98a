"""Trial engine and exact oracle: dual routes, frozen values, noise algebra."""

import collections
import concurrent.futures
import hashlib
import itertools
import math
import multiprocessing
import re
import tracemalloc
import weakref
from concurrent.futures import Future

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from blgisim import prediction, streams, trials
from blgisim.cli import main
from blgisim.prediction import SequentialReadoutParams, prediction_settings
from blgisim.records import emit_records, read_sweep
from blgisim.trials import (
    CHSH_PAIRS,
    FIELDS,
    FOLD_ROWS,
    ChshFold,
    NoiseModel,
    Settings,
    Source,
    TrialTable,
    branch_distribution,
    chsh_combine,
    default_settings,
    estimate_chsh,
    exact_chsh,
    exact_correlator,
    exact_mean,
    sample_branches,
    trial_chunks,
)
from blgisim.audit import HiddenVariableConfig, decomposition_test, hidden_variable_config, hidden_variable_source
from reference import (
    BELL_AMPLITUDES,
    cephes_ndtri,
    column,
    concat,
    concurrence,
    coupled_state,
    entanglement_curve,
    estimate_correlator,
    full_binomial_pmf,
    full_table,
    outcome_law,
    pauli_correlations,
    per_product_moments,
    prepare_bell,
    projective_measure,
    random_density,
    reference_trial,
    table_rows,
    trial_law,
    weak_kraus,
    weak_measure,
)
from reference import prediction_batch, read_records, simulate_trials

SQRT_HALF = math.sqrt(0.5)

# psi- tested along z on both qubits at full strength: 14 of the 16 branches,
# the last one included, have probability exactly 0
ZERO_BRANCH_SETTINGS = Settings(a1=0.0, a2=0.0, b1=0.0, b2=0.0, v=1.0, bell_kind="psi_minus")


def closed_form_chsh(v: float) -> float:
    # Default axes: same-qubit terms are v-independent, cross terms carry
    # the sqrt(1 - v^2) back-action factor.
    return math.sqrt(2.0) * (1.0 + math.sqrt(1.0 - v * v))


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


def test_single_trial_is_deterministic_and_well_formed():
    settings = default_settings(0.4, NoiseModel(bias=0.05, sigma=0.2))
    one = simulate_trials(settings, 1, master_seed=42, start=17)
    [rec] = table_rows(one)
    assert table_rows(simulate_trials(settings, 1, master_seed=42, start=17)) == [rec]
    assert one.trial_index.tolist() == [17]
    assert one.beta1[0] in (-1, 1) and one.beta2[0] in (-1, 1)
    assert one.alpha1[0] == one.raw1[0] / 0.4 and one.alpha2[0] == one.raw2[0] / 0.4
    assert one.settings_id == settings.settings_id
    assert (one.v, one.master_seed) == (0.4, 42)
    assert table_rows(simulate_trials(settings, 1, master_seed=42, start=18)) != [rec]
    assert table_rows(simulate_trials(settings, 1, master_seed=43, start=17)) != [rec]


def test_batch_rows_equal_single_trials():
    settings = default_settings(0.7, NoiseModel(sigma=0.1))
    table = simulate_trials(settings, 10, master_seed=9)
    for i in range(10):
        one = simulate_trials(settings, 1, master_seed=9, start=i)
        for name in TrialTable.field_names:
            assert np.array_equal(getattr(one, name), getattr(table, name)[i : i + 1]), (i, name)
        assert one.settings_id == table.settings_id


def _assert_engine_matches_reference(source, n, seed):
    # draw-exact: every row bit-equal to the scalar layout-5 reference
    table = simulate_trials(source, n, master_seed=seed)
    for i in range(n):
        got = tuple(getattr(table, name)[i].item() for name in ("raw1", "raw2", "alpha1", "alpha2", "beta1", "beta2"))
        assert got == reference_trial(source, i, seed), (source, i)


def test_engine_matches_scalar_operator_reference():
    # noisy, biased, weak coupling
    settings = Settings(v=0.6, noise=NoiseModel(bias=0.05, sigma=0.3))
    _assert_engine_matches_reference(settings, 150, 2024)


def test_engine_matches_scalar_operator_reference_projective():
    # random-angle projective coupling
    settings = Settings(a1=0.3, a2=1.1, b1=0.9, b2=-0.4, v=1.0)
    _assert_engine_matches_reference(settings, 50, 7)


def test_engine_matches_scalar_reference_on_the_hidden_variable_source():
    # the one sampler on a law of 5 branches, with raw_scale = v
    source = hidden_variable_source(hidden_variable_config(42), 0.3, NoiseModel(bias=0.05, sigma=0.3))
    _assert_engine_matches_reference(source, 150, 2025)
    _assert_engine_matches_reference(hidden_variable_source(hidden_variable_config(5, 2), 0.4), 50, 6)


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
    z_tests = ((0, weak_kraus(1.0, 0.0)), (1, weak_kraus(1.0, 0.0)))
    zero_law = branch_distribution(ZERO_BRANCH_SETTINGS)
    laws = (
        (outcome_law(psi_minus, z_tests), [(1, 1), (1, -1), (-1, 1), (-1, -1)]),
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


def test_batch_is_the_same_for_every_start_stream_and_worker_count():
    # three chunks, joined serially or from a pool of three, streamed, or
    # cut at start offsets whose chunks end at other trials than the whole's
    hidden = hidden_variable_source(hidden_variable_config(42), 0.5, NoiseModel(bias=0.1, sigma=0.25))
    n = 2 * trials._TRIAL_CHUNK + 37
    for source in (default_settings(0.5, NoiseModel(sigma=0.25)), hidden):
        whole = simulate_trials(source, n, master_seed=5)
        others = [simulate_trials(source, n, master_seed=5, workers=3)]
        others += [concat(list(trial_chunks(source, n, 5, workers=workers))) for workers in (1, 3)]
        cuts = (0, 137, trials._TRIAL_CHUNK + 1000, n)
        others.append(concat([simulate_trials(source, b - a, 5, start=a) for a, b in zip(cuts, cuts[1:])]))
        for other in others:
            for name in TrialTable.field_names:
                assert np.array_equal(getattr(whole, name), getattr(other, name)), (source, name)


def test_rows_at_chunk_edges_equal_each_trial_alone():
    # a chunk samples its trials in one numpy pass, and each trial reads its
    # own counter window, so a row at a chunk edge is the row of its trial alone
    chunk = trials._TRIAL_CHUNK
    source = FOLD_SOURCES["noisy quantum"]
    start, n = chunk - 3, 2 * chunk + 7
    table = simulate_trials(source, n, master_seed=13, start=start)
    one_pass = trials._simulate_range(source, start, n, master_seed=13)
    assert table_rows(table) == table_rows(one_pass)
    for i in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, n - 1):
        alone = simulate_trials(source, 1, master_seed=13, start=start + i)
        assert table_rows(alone) == table_rows(table)[i:i + 1], i


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


READOUT = SequentialReadoutParams(v=0.3, steps=5)
SAMPLERS = {
    "trial_chunks": lambda n, **kw: trial_chunks(default_settings(0.5), n, 1, **kw),
    "simulate_trials": lambda n, **kw: simulate_trials(default_settings(0.5), n, 1, **kw),
    "prediction_chunks": lambda n, **kw: prediction.prediction_chunks(prediction_settings(0.5), READOUT, n, 1, **kw),
    "prediction_batch": lambda n, **kw: prediction_batch(prediction_settings(0.5), READOUT, n, 1, **kw),
}


@pytest.mark.parametrize("sampler", list(SAMPLERS))
def test_samplers_check_workers_and_start_before_any_chunk_runs(monkeypatch, sampler):
    # a trial_index is an int64: a start that would wrap it past 2**63 - 1,
    # or that no int64 holds, is refused by name, as is a worker count below 1
    calls = []
    monkeypatch.setattr(trials, "_simulate_range", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(prediction, "_predict_range", lambda *args, **kwargs: calls.append(args))
    start = r"start must satisfy 0 <= start and start \+ n_trials <= 2\*\*63, got start="
    for kwargs, error in [
        ({"workers": 0}, "workers must be >= 1, got 0"),
        ({"workers": -3}, "workers must be >= 1, got -3"),
        ({"start": -1}, start + "-1"),
        ({"start": 2**63 - 5}, start + str(2**63 - 5)),
        ({"start": 2**64}, start + str(2**64)),
    ]:
        with pytest.raises(ValueError, match=f"^{error}$"):
            SAMPLERS[sampler](10, **kwargs)
    assert calls == []
    monkeypatch.undo()
    last = SAMPLERS[sampler](10, start=2**63 - 10)
    table = concat(list(last)) if sampler.endswith("chunks") else last
    assert table.trial_index.tolist() == list(range(2**63 - 10, 2**63))


# --------------------------------------------------------------- table shape


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and each
    submission, and runs each submitted task in this process at once."""

    max_workers = []
    submitted = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = Future()
        future.set_result(fn(*args))
        return future


def test_pool_submits_at_most_two_items_per_worker_ahead(monkeypatch):
    # a pool that submitted every item at once would hold every finished
    # result until it is taken, so a streamed run would grow with its length
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(_InlinePool, "submitted", [])
    seen, results = [], []
    for result in trials._pool_map(abs, range(-20, 0), workers=3):
        seen.append(len(_InlinePool.submitted))
        results.append(result)
    assert results == list(range(20, 0, -1))
    assert _InlinePool.max_workers == [3]
    # result k is taken with 2 * 3 items in flight, itself included, until the items run out
    assert seen == [min(2 * 3 - 1 + k, 20) for k in range(1, 21)]


def test_chunk_stream_caps_workers_at_chunk_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    settings = default_settings(0.4, NoiseModel(sigma=0.2))
    pooled = simulate_trials(settings, 20_000, master_seed=3, workers=10_000)
    assert _InlinePool.max_workers == [2]  # 20,000 trials are 2 chunks of 16,384
    serial = simulate_trials(settings, 20_000, master_seed=3, workers=1)
    assert _InlinePool.max_workers == [2]
    for name in TrialTable.field_names:
        assert np.array_equal(getattr(pooled, name), getattr(serial, name)), name


def test_sweep_opens_no_pool_at_any_worker_count(monkeypatch, tmp_path):
    # a grid point is 16 branch counts, a few ms, less than starting a
    # pool: the points run in the command's process, whatever --workers says
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    argv = ["sweep", "--v-grid", "0.2,0.4,0.6,0.8,0.9,1.0", "--trials", "70000", "--seed", "5"]
    columns = []
    for workers in (1, 2, 10_000):
        out = tmp_path / f"w{workers}.csv"
        assert main([*argv, "--out", str(out), "--workers", str(workers)]) == 0
        assert _InlinePool.max_workers == [], workers
        columns.append(read_sweep(str(out)))
    assert columns[1] == columns[0] and columns[2] == columns[0]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
def test_pooled_routes_run_serially_in_a_daemonic_pool_worker():
    # a multiprocessing.Pool worker is daemonic and may start no process, so
    # _pool_map runs the items there one by one, with the serial bytes
    settings = Settings(v=0.2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        table = pool.apply(simulate_trials, (settings, 20_000, 1), {"workers": 2})  # 2 chunks
    assert table_rows(table) == table_rows(simulate_trials(settings, 20_000, 1, workers=1))


def _law(changes: dict) -> tuple:
    """The uniform law on the 16 branches, with the given {branch: probability} changes."""
    return tuple(changes.get(k, 1 / 16) for k in range(16))


@pytest.mark.parametrize(
    "law",
    [(1 / 32,) * 16, _law({3: math.nan}), _law({0: 2 / 16 + 0.1, 5: -0.1})],
    ids=["sums_to_one_half", "nan_entry", "negative_entry"],
)
def test_source_refuses_a_law_that_is_not_a_probability_law(law):
    # a law summing to 1/2 gave an exact S of 0.0, a NaN entry an S of nan,
    # and a negative entry was sampled as if clipped
    with pytest.raises(ValueError, match=r"^the law of source 'bad' is not 16 finite probabilities >= 0 that sum to 1"):
        Source("bad", law, 0.5)


@pytest.mark.parametrize("entries", [15, 17])
def test_source_refuses_a_law_of_other_than_16_branches(entries):
    with pytest.raises(ValueError, match=f"^a source law has 16 branch probabilities, got {entries}$"):
        Source("short", (1 / entries,) * entries, 0.5)


def test_source_accepts_every_hidden_variable_law_and_round_off():
    for seed in range(50):
        for index in range(10):
            hidden_variable_source(hidden_variable_config(seed, index), 0.3)
    for thresholds in [(0.0, 0.0, 1.0, 1.0), (0.1, 0.2, 0.3, 0.7), (1 / 3, 1 / 3, 2 / 3, 2 / 3)]:
        hidden_variable_source(HiddenVariableConfig(thresholds, (1, -1, 1, -1)), 0.3)
    Source("round-off", _law({0: 2 / 16 + 1e-13, 1: -1e-13}), 0.5)
    with pytest.raises(ValueError, match="not 16 finite probabilities"):
        Source("past round-off", _law({0: 2 / 16 + 1e-11, 1: -1e-11}), 0.5)


def test_concat_of_single_trials_equals_the_batch():
    settings = default_settings(0.8)
    singles = [simulate_trials(settings, 1, 1, start=i) for i in range(6)]
    table = concat(singles)
    assert len(table) == 6
    assert isinstance(table.settings_id, str)
    assert table_rows(table) == table_rows(simulate_trials(settings, 6, 1))
    assert table_rows(table)[3] == table_rows(singles[3])[0]

    other = simulate_trials(default_settings(0.3), 4, master_seed=1)
    error = (
        f"malformed records: a block of settings_id {other.settings_id!r} "
        f"in a stream of settings_id {table.settings_id!r}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        concat([table, other])


def test_table_column_validation():
    table = simulate_trials(default_settings(0.5), 3, master_seed=0)
    with pytest.raises(ValueError):
        column(table, "raw1")


# ---------------------------------------------------------------- estimation


def test_estimate_correlator_known_cases():
    sid = default_settings(1.0).settings_id

    def records(*pairs):
        """One row per (alpha1, beta1) pair, with raw1 = alpha1 and raw2 = alpha2 = beta2 = 1."""
        a1, b1 = (list(col) for col in zip(*pairs))
        n = len(pairs)
        return TrialTable([0] * n, a1, [1.0] * n, b1, [1] * n, settings_id=sid, v=1.0, master_seed=0)

    perfect = estimate_correlator(records((1.0, 1), (-1.0, -1)), "alpha1", "beta1")
    assert perfect.value == 1.0 and perfect.stderr == 0.0 and perfect.count == 2

    split = estimate_correlator(records((1.0, 1), (1.0, -1)), "alpha1", "beta1")
    assert split.value == 0.0
    assert abs(split.stderr - 1.0) < 1e-15

    # rescaled signals are unbounded, so the mean product can exceed 1
    big = estimate_correlator(records((2.0, 1), (2.0, 1)), "alpha1", "beta1")
    assert big.value == 2.0

    with pytest.raises(ValueError):
        estimate_correlator(records((1.0, 1)), "alpha1", "beta1")
    with pytest.raises(ValueError):
        estimate_correlator(records((1.0, 1), (1.0, 1)), "alpha1", "gamma")


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


FOLD_SOURCES = {
    "noisy quantum": default_settings(0.5, NoiseModel(sigma=0.3)),
    "hidden variable": hidden_variable_source(hidden_variable_config(7), 0.5, NoiseModel(sigma=0.3)),
}


@pytest.mark.parametrize("n", [2, FOLD_ROWS - 1, FOLD_ROWS, FOLD_ROWS + 1, 3 * FOLD_ROWS + 17])
@pytest.mark.parametrize("source", list(FOLD_SOURCES))
def test_estimate_chsh_matches_a_two_pass_reference(source, n):
    # S is the mean of the per-trial term x and its stderr the term's; the
    # fold merges blocks of FOLD_ROWS rows, so the sizes sit at its edges
    table = simulate_trials(FOLD_SOURCES[source], n, master_seed=5)
    report = estimate_chsh(table)
    b1, b2 = table.beta1, table.beta2
    x = table.alpha1 * (b1 + b2) + table.alpha2 * (b1 - b2)
    assert abs(report.chsh - x.mean()) <= 1e-15 * abs(report.chsh)
    assert abs(report.chsh_stderr - x.std(ddof=1) / math.sqrt(n)) <= 1e-12 * report.chsh_stderr
    for estimate, (left, right) in zip((report.e11, report.e12, report.e21, report.e22), CHSH_PAIRS):
        products = column(table, left) * column(table, right)
        assert estimate.count == n
        assert abs(estimate.value - products.mean()) <= 1e-15 * np.abs(products).mean()
        assert abs(estimate.stderr - products.std(ddof=1) / math.sqrt(n)) <= 1e-12 * estimate.stderr


def test_estimate_chsh_is_the_same_for_every_start_cut_stream_and_worker_count():
    # the fold runs over the table's rows, whatever produced them; numpy
    # reductions, not a BLAS dot, so no thread count reorders a sum
    source = FOLD_SOURCES["noisy quantum"]
    n = 2 * trials._TRIAL_CHUNK + 17
    reports = [estimate_chsh(simulate_trials(source, n, master_seed=6, workers=workers)) for workers in (1, 3)]
    reports += [estimate_chsh(trial_chunks(source, n, 6, workers=workers)) for workers in (1, 3)]
    for cut in (1000, trials._TRIAL_CHUNK + 1000):
        pieces = [simulate_trials(source, cut, 6), simulate_trials(source, n - cut, 6, start=cut, workers=3)]
        reports.append(estimate_chsh(concat(pieces)))
    assert all(report == reports[0] for report in reports)


def test_estimate_chsh_of_a_stream_of_blocks_equals_that_of_the_table():
    table = simulate_trials(FOLD_SOURCES["hidden variable"], 2 * FOLD_ROWS + 5, master_seed=2)
    blocks = [simulate_trials(FOLD_SOURCES["hidden variable"], n, 2, start=s) for s, n in
              ((0, FOLD_ROWS), (FOLD_ROWS, FOLD_ROWS), (2 * FOLD_ROWS, 5))]
    assert estimate_chsh(iter(blocks)) == estimate_chsh(table)


def test_a_stream_folds_only_if_its_blocks_but_the_last_hold_whole_fold_blocks():
    # a block that ends inside a fold block would start the next fold block
    # at another row than the table's fold, and so change S's last bits
    source = FOLD_SOURCES["noisy quantum"]
    blocks = [simulate_trials(source, n, 3, start=s) for s, n in ((0, FOLD_ROWS + 1), (FOLD_ROWS + 1, 100))]
    with pytest.raises(ValueError, match=f"a multiple of {FOLD_ROWS} rows; a block follows {FOLD_ROWS + 1} rows"):
        estimate_chsh(iter(blocks))
    chunk = trials._TRIAL_CHUNK
    fold = ChshFold(trial_chunks(source, 3 * chunk + 5, 3))
    assert [len(block) for block in fold] == [chunk] * 3 + [5] and len(fold) == 3 * chunk + 5
    assert fold.report() == estimate_chsh(simulate_trials(source, 3 * chunk + 5, 3))


def test_chsh_stderr_is_the_per_trial_term_s_not_the_quadrature_of_the_correlators():
    # the four correlators share their trials; at V = 0.9 the quadrature sum
    # of their stderrs is about twice the stderr of S
    report = estimate_chsh(simulate_trials(default_settings(0.9), 200_000, master_seed=5))
    quadrature = chsh_combine(report.e11, report.e12, report.e21, report.e22).chsh_stderr
    assert 0.0019 < report.chsh_stderr < 0.0021 and quadrature > 2 * report.chsh_stderr


def test_folds_refuse_the_blocks_of_two_experiments():
    # a fold pools its blocks under the first block's scalars: pooled, V 0.2
    # and V 0.9 gave a wrong REJECT at |S| = 2.445 +- 0.053
    mixed = [simulate_trials(default_settings(0.2), FOLD_ROWS, 1), simulate_trials(default_settings(0.9), FOLD_ROWS, 2)]
    error = r"^malformed records: a block of settings_id '.*;v=0.9;.*' in a stream of settings_id '.*;v=0.2;.*'$"
    for fold in (decomposition_test, estimate_chsh):
        with pytest.raises(ValueError, match=error):
            fold(iter(mixed))
    seeds = [simulate_trials(default_settings(0.2), FOLD_ROWS, 1), simulate_trials(default_settings(0.2), 10, 2)]
    with pytest.raises(ValueError, match="^malformed records: a block of master_seed 2 in a stream of master_seed 1$"):
        estimate_chsh(seeds)
    readouts = [SequentialReadoutParams(v=0.3, steps=s) for s in (5, 7)]
    steps = [prediction_batch(prediction_settings(0.5), readout, 10, 1) for readout in readouts]
    with pytest.raises(ValueError, match="^malformed records: a block of steps 7 in a stream of steps 5$"):
        prediction.prediction_accuracy(steps)
    with pytest.raises(TypeError, match="^expected a TrialTable, got PredictionTable$"):
        estimate_chsh([mixed[0], steps[0]])


def test_a_fold_names_anything_but_its_table_kind_by_its_type():
    # a table is a stream of one block, and so is anything that is no
    # iterable; an iterable is named by its first block that is no table
    predictions = prediction_batch(prediction_settings(0.5), SequentialReadoutParams(v=0.3, steps=5), 10, 1)
    trials_table = simulate_trials(default_settings(0.5), 10, 1)
    for fold in (decomposition_test, estimate_chsh):
        for wrong, named in ((predictions, "PredictionTable"), ([predictions], "PredictionTable"), (None, "NoneType"),
                             ({"v": [0.5]}, "str")):
            with pytest.raises(TypeError, match=f"^expected a TrialTable, got {named}$"):
                fold(wrong)
    with pytest.raises(TypeError, match="^expected a PredictionTable, got TrialTable$"):
        prediction.prediction_accuracy(trials_table)


def test_merging_moments_with_no_trials_on_either_side_gives_the_other_side():
    moments = trials.ChshMoments(3, np.arange(5.0), np.ones(5))
    none = trials.ChshMoments(0, np.zeros(5), np.zeros(5))
    assert moments.merge(none) is moments and none.merge(moments) is moments


def test_simulate_s_chain_holds_one_chunk_at_a_time(tmp_path):
    # cli simulate's chain: the serial chunk stream, through ChshFold, into
    # emit_records; each stage lets a chunk go before the next one is made,
    # so no two chunks are alive at once
    settings = default_settings(0.4, NoiseModel(sigma=0.2))
    live = {"now": 0, "most": 0}

    def release():
        live["now"] -= 1

    def task(chunk_start, count):
        part = trials._simulate_range(settings, chunk_start, count, master_seed=3)
        live["now"] += 1
        live["most"] = max(live["most"], live["now"])
        weakref.finalize(part, release)
        return part

    n = 3 * trials._TRIAL_CHUNK + 5
    path = str(tmp_path / "run.csv")
    fold = ChshFold(trials.chunk_stream(task, n, 0, workers=1))
    emit_records(fold, path)
    assert live["most"] == 1
    table = simulate_trials(settings, n, 3)
    assert table_rows(read_records(path)) == table_rows(table)
    assert fold.report() == estimate_chsh(table)
    live["most"] = 0  # and the audit of a stream, through its check and its fold
    assert decomposition_test(trials.chunk_stream(task, n, 0, workers=1)) == decomposition_test(table)
    assert live["most"] == 1


# -------------------------------------------------------------- exact oracle


def test_branch_distribution_is_a_probability_law():
    for v in (0.2, 1.0):
        pmf = branch_distribution(default_settings(v))
        assert len(pmf) == 16
        assert all(p >= -1e-15 for p in pmf.values())
        assert abs(sum(pmf.values()) - 1.0) < 1e-12


def random_settings(rng: np.random.Generator) -> Settings:
    """Random axes, V in (1e-6, 1] and Bell state."""
    return Settings(
        a1=rng.uniform(-np.pi, np.pi),
        a2=rng.uniform(-np.pi, np.pi),
        b1=rng.uniform(-np.pi, np.pi),
        b2=rng.uniform(-np.pi, np.pi),
        v=1.0 - rng.uniform(0.0, 1.0 - 1e-6),
        bell_kind="psi_minus" if rng.random() < 0.5 else "phi_plus",
    )


def test_branch_distribution_matches_matrix_root_enumeration():
    # the real bilinear law against two dense complex routes: Kraus roots by
    # eigh, and the closed-form Kraus pairs of reference.outcome_law
    rng = np.random.default_rng(61)
    for _ in range(200):
        settings = random_settings(rng)
        got = branch_distribution(settings)
        want = matrix_root_pmf(settings)
        assert max(abs(got[k] - want[k]) for k in want) < 1e-15, settings
        dense = trial_law(prepare_bell(settings.bell_kind).density(), settings)
        assert np.abs(np.array(list(got.values())) - dense).max() < 1e-15, settings
    # any two-qubit state: its Pauli correlation matrix in the private contraction
    for _ in range(50):
        settings, rho = random_settings(rng), random_density(2, rng).density()
        got = trials._pauli_law(pauli_correlations(rho), settings)
        assert np.abs(got - trial_law(rho, settings)).max() < 1e-15, settings
    # at V = 1 along the test axes the projective outcome repeats the weak
    # one, so every other branch is exactly 0; the dense route leaves about
    # 4e-34 on some of them
    for settings, possible in (
        (ZERO_BRANCH_SETTINGS, [(1, -1, 1, -1), (-1, 1, -1, 1)]),
        (prediction_settings(1.0), [(r1, r2, r1, r2) for r1 in (1, -1) for r2 in (1, -1)]),
    ):
        law = branch_distribution(settings)
        assert [branch for branch, p in law.items() if p != 0.0] == possible
        assert all(law[branch] > 0.0 for branch in possible)


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


def _ulps(a: np.ndarray, b: np.ndarray) -> int:
    """Largest distance in units in the last place between same-signed doubles."""
    return int(np.abs(a.view(np.int64) - b.view(np.int64)).max())


def _ndtri_batches() -> list:
    e2, e32 = math.exp(-2.0), math.exp(-32.0)
    # 2**-53 is the floor _noisy applies; exp(-2) and 1 - exp(-2) bound the
    # centre band; exp(-32) is where the tail switches from P1/Q1 to P2/Q2;
    # 5e-324 and 2**-1022 are the least subnormal and the least normal
    edges = [2.0**-53, np.nextafter(1.0, 0.0), 0.5, 1e-300, 5e-324, 2.0**-1022]
    for x in (e2, 1.0 - e2, e32, 1.0 - e32):
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]
    rng = np.random.default_rng(2016)
    batches = [np.array(edges), np.exp(-40.0 * rng.random(100_000))]
    return batches + [rng.random(1_000_000) for _ in range(10)]


def test_ndtri_port_is_bit_equal_to_the_scalar_port():
    # the scalar cephes ndtri of tests/reference.py, in Python floats with
    # math.frexp; one million-value batch of the ten keeps the loop short
    for u in _ndtri_batches()[:3]:
        expected = np.array([cephes_ndtri(x) for x in u.tolist()])
        assert np.array_equal(trials._ndtri(u).view(np.int64), expected.view(np.int64))


def test_log_is_within_one_ulp_of_math_log_over_the_tail_domain():
    # _ndtri takes the log of y in (0, exp(-2)], subnormals included, and of
    # x = sqrt(-2 log y) in [2, sqrt(-2 log 5e-324)] = [2, 38.6]
    rng = np.random.default_rng(36)
    tiny = np.array([5e-324, 2.0**-1074 * 3, 2.0**-1023, 2.0**-1022, math.exp(-2.0), 2.0, 8.0])
    for y in (
        tiny,
        np.exp(-rng.uniform(2.0, 744.0, 500_000)),
        rng.integers(1, 2**52, 100_000) * 5e-324,
        rng.uniform(2.0, 38.6, 500_000),
    ):
        assert _ulps(trials._log(y), np.array([math.log(x) for x in y.tolist()])) <= 1


def test_ndtri_port_stays_within_its_ulp_bound_of_scipy():
    # scipy's cephes ndtri takes the C library's log; the worst distance
    # measured on these batches is pinned, and is never to be raised
    assert max(_ulps(trials._ndtri(u), ndtri(u)) for u in _ndtri_batches()) <= 6


def test_ndtri_keeps_its_pinned_bits():
    # the sha256 of _ndtri's bits over a grid of exact doubles: every
    # multiple of 2**-16 in (0, 1) and every power of two from 2**-1074 up;
    # a noisy record's bits are these, so this holds on every platform
    grid = np.concatenate([np.arange(1, 2**16) / 2**16, np.ldexp(1.0, -np.arange(1, 1075))])
    digest = hashlib.sha256(trials._ndtri(grid).tobytes()).hexdigest()
    assert digest == "726466d6c5f65abba23ccb41c50789d610f5d3dc911e2ae7129563922895d9d3"


NOISY_SOURCES = (
    default_settings(0.5, NoiseModel(bias=0.1, sigma=0.3)),
    hidden_variable_source(hidden_variable_config(5), 0.4, NoiseModel(bias=-0.2, sigma=0.5)),
)


@pytest.mark.parametrize("source", NOISY_SOURCES, ids=("settings", "hidden_variable"))
def test_noisy_estimates_agree_with_exact_oracle(source):
    # every distinct product of two fields and every mean; a beta product
    # such as E(beta1^2) = 1 has no spread, hence the 1e-12
    table = simulate_trials(source, 200_000, master_seed=77)
    for left, right in itertools.combinations_with_replacement(FIELDS, 2):
        est = estimate_correlator(table, left, right)
        assert abs(est.value - exact_correlator(source, left, right)) <= 4.0 * est.stderr + 1e-12, (left, right)
    for field in FIELDS:
        values = column(table, field)
        spread = float(values.std(ddof=1) / math.sqrt(len(table)))
        assert abs(float(values.mean()) - exact_mean(source, field)) <= 4.0 * spread + 1e-12, field


def _random_sources(rng, count: int) -> list:
    """Settings with random axes, V, bias and sigma for both Bell states, and noisy hidden-variable sources."""
    sources = []
    for k in range(count):
        noise = NoiseModel(bias=float(rng.normal(0.0, 0.3)), sigma=float(rng.uniform(0.0, 1.0)))
        v = float(rng.uniform(0.01, 1.0))
        if k % 2:
            sources.append(hidden_variable_source(hidden_variable_config(k, k), v, noise))
        else:
            axes = map(float, rng.uniform(-4.0, 4.0, 4))
            sources.append(Settings(*axes, v=v, noise=noise, bell_kind=("phi_plus", "psi_minus")[k % 4 // 2]))
    return sources


def test_exact_oracle_is_bit_equal_to_per_product_sums():
    pairs = list(itertools.product(FIELDS, repeat=2))
    for source in _random_sources(np.random.default_rng(27), 400):
        e11, e12, e21, e22 = per_product_moments(source, CHSH_PAIRS)
        assert exact_chsh(source) == e11 + e12 + e21 - e22
        assert [exact_mean(source, f) for f in FIELDS] == per_product_moments(source, [(f,) for f in FIELDS])
        assert [exact_correlator(source, *pair) for pair in pairs] == per_product_moments(source, pairs)


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
    c85 = concurrence(coupled_state(0.85, 0.0, math.pi / 2))
    c95 = concurrence(coupled_state(0.95, 0.0, math.pi / 2))
    assert abs(c85 - 0.165533) < 1e-4
    assert c95 == 0.0


# ------------------------------------------------------------- branch counts


def _binomial_cases(rng, count: int):
    """(n, p) pairs: n from 1 to 3e5 and p anywhere in (0, 1], near 0 and near 1 among them."""
    for i in range(count):
        n = 1 if i % 10 == 0 else int(10 ** rng.uniform(0.0, math.log10(3e5)))
        p = [rng.uniform(0.0, 1.0), 10 ** rng.uniform(-12, -2), 1.0 - 10 ** rng.uniform(-12, -2), 1.0][i % 4]
        yield n, max(p, 1e-300)


def test_windowed_binomial_draws_equal_the_full_tables_draws():
    # inverting the window draws what inverting it placed into zeros and
    # summed draws, for every u; the window also keeps every term that the
    # full (n + 1)-term recurrence leaves nonzero, to within the rounding of
    # the two sums it is divided by, so random u draw from it what they draw
    # from that
    rng = np.random.default_rng(29)
    for n, p in _binomial_cases(rng, 600):
        table, full = full_table(*trials._binomial_window(n, p), n), full_binomial_pmf(n, p)
        cdf = np.cumsum(table)
        cdf /= cdf[-1]
        for u in [0.0, 1.0 - 2.0**-53, *rng.uniform(0.0, 1.0, 6)]:
            assert trials._binomial_draw(n, p, u) == int(np.searchsorted(cdf, u, side="right")), (n, p, u)
        assert np.array_equal(table == 0.0, full == 0.0), (n, p)
        normal = full > np.finfo(float).tiny
        assert np.all(np.abs(table[normal] - full[normal]) <= 1e-15 * full[normal]), (n, p)
        full_cdf = np.cumsum(full)
        full_cdf /= full_cdf[-1]
        for u in rng.uniform(0.0, 1.0, 6):
            assert trials._binomial_draw(n, p, u) == int(np.searchsorted(full_cdf, u, side="right")), (n, p, u)
    # a conditional probability of 1 gives every trial left to its branch
    assert [trials._binomial_draw(n, 1.0, 0.999) for n in (1, 7, 200_000)] == [1, 7, 200_000]
    # predict's count windows draw, and its exact accuracy reads, the bits
    # of the (steps + 1)-entry tables of the window placed into zeros
    for i in range(400):
        steps = int(10 ** rng.uniform(0.0, math.log10(2e6)))
        v = [rng.uniform(0.0, 1.0), 10 ** rng.uniform(-4, -1), 1.0 - 10 ** rng.uniform(-8, -1), 1.0][i % 4]
        pmf = full_table(*trials._binomial_window(steps, (1.0 + v) / 2.0), steps)
        u = np.concatenate(([0.0, 1.0 - 2.0**-53, 0.5], rng.uniform(0.0, 1.0, 2000)))
        readout = SequentialReadoutParams(v=v, steps=steps)
        miss = []
        for c, full, window in zip((1, -1), (pmf, pmf[::-1]), prediction._count_cdfs(steps, v)):
            full_cdf = np.cumsum(full)
            full_cdf /= full_cdf[-1]
            want = np.searchsorted(full_cdf, u, side="right")
            assert np.array_equal(trials._invert_window(*window, u), want), (steps, v, c)
            assert np.array_equal(prediction._readout_counts(np.full(len(u), c), readout, u), want), (steps, v, c)
            miss.append(float(full_cdf[(steps - 1) // 2]))  # P(sign = -1 | c)
        hit = {(1, 1): 1.0 - miss[0], (1, -1): miss[0], (-1, 1): 1.0 - miss[1], (-1, -1): miss[1]}
        for coupling in (0.3, 1.0):
            settings, total = prediction_settings(coupling), 0.0
            for (c1, c2, t1, t2), p in branch_distribution(settings).items():
                total += p * (hit[(c1, t1)] + hit[(c2, t2)]) / 2.0
            assert prediction.prediction_accuracy_exact(settings, readout) == total, (steps, v, coupling)


def test_binomial_windows_keep_their_pinned_bits():
    # the sha256 of each window's lo (int64) and pmf bytes over this grid,
    # pinned from the route that cut the span with an int64 index of the
    # kept terms: holding less while the window is built moves no bit
    digest = hashlib.sha256()
    for n in (1, 2, 7, 100, 12_345, 10**6, 10**8, trials.MAX_COUNT_TRIALS):
        for p in (1e-9, 0.01, 0.3, 0.5, 0.77, 1 - 1e-9, 1.0):
            lo, pmf = trials._binomial_window(n, p)
            digest.update(np.int64(lo).tobytes() + np.ascontiguousarray(pmf).tobytes())
    assert digest.hexdigest() == "8a27ae8071807b5e7feddca80b50a2e968f22bef43e7bb8392665f11de16df81"


def test_binomial_window_peaks_below_two_and_a_half_of_its_pmf():
    # numpy reports its buffers to tracemalloc: the span of k, one
    # temporary as long as either side of the mode and a one-byte mask, not
    # a second span and an int64 index of the kept terms (3.4x the pmf)
    tracemalloc.start()
    try:
        lo, pmf = trials._binomial_window(10**8, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * pmf.nbytes


# two zero branches, the first of them -1e-14 by round-off, and the last
# branch zero, so the last positive branch (13) takes the trials left
_COUNT_LAW = _law({**dict.fromkeys(range(16), 0.0), 0: -1e-14, 1: 0.4 + 1e-14, 4: 0.3, 9: 0.2, 13: 0.1})


def _count_window(seed: int) -> np.ndarray:
    """Index 0's window of the count stream of seed, as trials._count_moments draws it."""
    return streams.window_uniforms(seed, streams.COUNT_STREAM, 0, 1, trials._COUNT_BLOCKS)[0]


def test_branch_counts_follow_the_multinomial_law():
    n, runs, positive = 5, 20_000, (1, 4, 9, 13)
    seen = collections.Counter()
    for seed in range(runs):
        counts = trials._branch_counts(_COUNT_LAW, n, _count_window(seed))
        assert counts.dtype == np.int64 and counts.sum() == n
        assert not counts[[k for k in range(16) if k not in positive]].any()
        seen[tuple(counts[list(positive)].tolist())] += 1
    probs = [0.4, 0.3, 0.2, 0.1]
    cells = [c for c in itertools.product(range(n + 1), repeat=4) if sum(c) == n]  # 56
    pmf = [
        math.factorial(n) * math.prod(p**k / math.factorial(k) for p, k in zip(probs, c)) for c in cells
    ]
    assert math.isclose(sum(pmf), 1.0) and set(seen) <= set(cells)
    # cells expected fewer than 5 times are pooled into one
    small = [i for i, q in enumerate(pmf) if q * runs < 5]
    observed = [seen[cells[i]] for i in range(len(cells)) if i not in small] + [sum(seen[cells[i]] for i in small)]
    expected = [pmf[i] * runs for i in range(len(cells)) if i not in small] + [sum(pmf[i] for i in small) * runs]
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_moments_of_branch_counts_equal_the_moments_of_their_trials(monkeypatch):
    # without noise each trial's five terms are those of its branch, so
    # weighting the 16 branches' terms by the trials' branch counts gives
    # the fold of the trials themselves; a bias shifts every alpha alike
    source = Source("biased", _law({}), v=0.4, noise=NoiseModel(bias=0.03), raw_scale=0.7)
    table = simulate_trials(source, 3 * FOLD_ROWS + 11, 8)
    # BRANCHES index, (+1, -1) nested with raw1 outermost
    index = 8 * (table.raw1 < 0) + 4 * (table.raw2 < 0) + 2 * (table.beta1 < 0) + (table.beta2 < 0)
    counts = np.bincount(index, minlength=16)
    monkeypatch.setattr(trials, "_branch_counts", lambda *args: counts)
    counted = trials._count_moments(source, len(table), 8).report()
    folded = estimate_chsh(table)
    assert math.isclose(counted.chsh, folded.chsh, rel_tol=1e-12)
    assert math.isclose(counted.chsh_stderr, folded.chsh_stderr, rel_tol=1e-9)
    for name in ("e11", "e12", "e21", "e22"):
        assert math.isclose(getattr(counted, name).value, getattr(folded, name).value, rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("v", [0.5, 0.9])
def test_count_route_matches_the_exact_law_and_the_trial_routes_spread(v):
    # S over many seeds centres on exact_chsh, and it spreads as S over the
    # same number of sampled trials does, and as the SE it reports says
    point, n = Settings(v=v), 2000
    counted = [trials._count_moments(point, n, seed).report() for seed in range(1500)]
    sampled = np.array([estimate_chsh(trial_chunks(point, n, seed)).chsh for seed in range(400)])
    s = np.array([report.chsh for report in counted])
    assert abs(s.mean() - exact_chsh(point)) < 4.0 * s.std(ddof=1) / math.sqrt(len(s))
    # the log of a sample SD has an SE of about 1/sqrt(2 (runs - 1))
    log_se = math.sqrt(1.0 / (2 * (len(s) - 1)) + 1.0 / (2 * (len(sampled) - 1)))
    assert abs(math.log(s.std(ddof=1) / sampled.std(ddof=1))) < 4.0 * log_se
    reported = np.mean([report.chsh_stderr for report in counted])
    assert abs(math.log(s.std(ddof=1) / reported)) < 4.0 / math.sqrt(2 * (len(s) - 1))


def test_branch_counts_refuse_a_noisy_source_and_no_trials():
    with pytest.raises(ValueError, match="noise-free source.*sigma is 0.1"):
        trials._count_moments(Settings(v=0.5, noise=NoiseModel(sigma=0.1)), 1000, 0)
    for n in (0, trials.MAX_COUNT_TRIALS + 1):
        with pytest.raises(ValueError, match=rf"n_trials must be an integer in \[1, {trials.MAX_COUNT_TRIALS}\], got {n}"):
            trials._branch_counts(Settings(v=0.5).law, n, _count_window(0))
