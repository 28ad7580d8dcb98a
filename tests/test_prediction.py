"""Sequential-readout prediction: chain law, accuracy, after-protocol check."""

import itertools
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import bdtr

from blgisim import prediction, streams, trials
from blgisim.cli import main
from blgisim.prediction import (
    MAX_STEPS,
    POST_TEST_AXES_1,
    POST_TEST_AXES_2,
    PredictionFold,
    PredictionTable,
    SequentialReadoutParams,
    exact_post_protocol_chsh,
    post_protocol_chsh,
    predict,
    prediction_accuracy,
    prediction_accuracy_exact,
    prediction_chunks,
    prediction_settings,
)
from blgisim.trials import DegenerateBranchError, Settings, chsh_combine
from reference import (
    BELL_AMPLITUDES,
    SIGMA_Z,
    QuantumState,
    axis_projectors,
    bloch_observable,
    concat,
    concurrence,
    empty_table,
    expect,
    full_table,
    lift1,
    post_coupling_state,
    sequential_weak_sequence,
    table_rows,
    weak_kraus,
)
from reference import prediction_batch


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
    for steps in (MAX_STEPS + 1, math.inf, math.nan, 2.5):
        with pytest.raises(ValueError, match="steps"):
            SequentialReadoutParams(v=0.5, steps=steps)
        with pytest.raises(ValueError, match="steps"):
            prediction.check_steps(steps)


@pytest.mark.parametrize("steps", [True, 5.0, "5"])
def test_readout_steps_must_be_an_integer(steps):
    # a bool and an integral float were once kept as given
    with pytest.raises(ValueError, match=f"^steps must be an integer, got {re.escape(repr(steps))}$"):
        prediction.check_steps(steps)
    with pytest.raises(ValueError, match="^steps must be an integer, got "):
        SequentialReadoutParams(v=0.5, steps=steps)


def test_readout_steps_are_stored_as_int():
    assert type(prediction.check_steps(np.int64(5))) is int
    assert type(SequentialReadoutParams(v=0.5, steps=np.int32(7)).steps) is int


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
        prediction_accuracy_exact(crooked, readout)
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
    """Scalar re-derivation of one prediction trial from draw layout 4.

    Builds the law of (c1, c2, t1, t2) branch by branch as the Born trace
    of a kron-ed operator: per qubit, the weak Kraus operator of ancilla
    eigenvalue c_i, then the projector on outcome t_i.  Draw 0 of the
    trial's block picks the branch by a cumulative walk; draws 1 and 2
    pick the counts K1 and K2 by walking the binomial CDFs of c1 and c2
    one k at a time.
    """
    psi = BELL_AMPLITUDES[settings.bell_kind]
    rho = np.outer(psi, psi.conj())
    branches = list(itertools.product((1, -1), repeat=4))

    def local(a: float, b: float, c: int, t: int) -> np.ndarray:
        return axis_projectors(b)[(1 - t) // 2] @ weak_kraus(settings.v, a).operator(c)

    probs = []
    for c1, c2, t1, t2 in branches:
        m = np.kron(local(settings.a1, settings.b1, c1, t1), local(settings.a2, settings.b2, c2, t2))
        probs.append(float(np.trace(m @ rho @ m.conj().T).real))
    gen = streams.stream(master_seed, streams.PREDICT_STREAM, index=index, blocks=1)
    u_branch, u_k1, u_k2 = gen.random(), gen.random(), gen.random()
    idx, acc = 0, probs[0]
    while u_branch >= acc and idx < len(branches) - 1:
        idx += 1
        acc += probs[idx]
    c1, c2, t1, t2 = branches[idx]

    n = readout.steps
    means = []
    for c, u_k in ((c1, u_k1), (c2, u_k2)):
        p = (1.0 + c * readout.v) / 2.0
        k = 0
        while bdtr(k, n, p) <= u_k:
            k += 1
        means.append((2 * k - n) / n)
    return means[0], means[1], t1, t2


def test_batch_matches_scalar_layout_reference():
    readout = SequentialReadoutParams(v=0.3, steps=40)
    for bell_kind in ("phi_plus", "psi_minus"):
        settings = replace(prediction_settings(0.6), bell_kind=bell_kind)
        table = prediction_batch(settings, readout, 30, master_seed=77)
        for i in range(30):
            mean1, mean2, t1, t2 = reference_prediction(settings, readout, i, 77)
            assert table.trajectory_mean1[i] == mean1, (bell_kind, i)
            assert table.trajectory_mean2[i] == mean2, (bell_kind, i)
            assert table.actual1[i] == t1 and table.actual2[i] == t2, (bell_kind, i)
            assert table.predicted1[i] == predict(mean1)
            assert table.predicted2[i] == predict(mean2)


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


def full_count_cdfs(steps: int, v: float) -> list:
    """predict's two count CDF windows, each placed at k = 0..steps."""
    return [full_table(lo, cdf, steps, after=1.0) for lo, cdf in prediction._count_cdfs(steps, v)]


def test_readout_count_law_matches_kraus_enumeration():
    for m0, v in ((0.0, 0.3), (0.6, 0.3), (-0.45, 0.7), (1.0, 0.2), (0.3, 1.0)):
        for steps in range(1, 11):
            law = binomial_mixture_pmf(m0, v, steps)
            assert np.abs(kraus_count_pmf(m0, v, steps) - law).max() < 1e-12, (m0, v, steps)
            # the sampler inverts exactly this law's CDF
            cdf_plus, cdf_minus = full_count_cdfs(steps, v)
            mixture = (1.0 + m0) / 2.0 * cdf_plus + (1.0 - m0) / 2.0 * cdf_minus
            assert np.abs(mixture - np.cumsum(law)).max() < 1e-12, (m0, v, steps)


@pytest.mark.parametrize("v", [0.05, 0.6])
def test_count_pmf_and_tables_match_exact_binomial_sums(v):
    p = (1.0 + v) / 2.0
    a, d = p.as_integer_ratio()  # p = a/d exactly, d a power of 2
    row = [1]  # C(n, k) a^k (d - a)^(n - k) = P(K = k) d^n at steps n, as exact integers
    for n in range(1, 401):
        row = [x * (d - a) + y * a for x, y in zip(row + [0], [0] + row)]
        scale = d**n
        exact = [x / scale for x in row]  # int / int rounds once
        cdf = [x / scale for x in itertools.accumulate(row)]
        mirrored = [x / scale for x in itertools.accumulate(reversed(row))]  # c = -1: K -> n - K
        cdf_plus, cdf_minus = full_count_cdfs(n, v)
        assert np.abs(full_table(*trials._binomial_window(n, p), n) - exact).max() < 2e-15, n
        assert np.abs(cdf_plus - cdf).max() < 2e-15, n
        assert np.abs(cdf_minus - mirrored).max() < 2e-15, n
        assert [window[-1] for _, window in prediction._count_cdfs(n, v)] == [1.0, 1.0]


def test_count_tables_at_max_steps_are_accurate_and_fit_in_memory():
    # Reference: P(K <= 5_005_000) for K ~ Binomial(10**7, p), p the double
    # nearest 0.5005 = (1 + 0.001)/2, summed in mpmath at 50 digits: the
    # pmf at k = 5_005_000 from loggamma, then 10**5 terms down by the
    # ratio recurrence (the rest is below 1e-870).  scipy's bdtr gives
    # 0.50149 here.  Run apart so the peak RSS is the window build's own;
    # the bdtr tables peaked at 284 MB and the zero-padded (steps + 1)-entry
    # tables at 195 MB.  The peak is the process's VmHWM, which, unlike
    # ru_maxrss, does not inherit the forking test process's peak.
    src = os.path.dirname(os.path.dirname(os.path.abspath(prediction.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import os; from blgisim.prediction import MAX_STEPS, _count_cdfs\n"
        "(lo, plus), (lo_minus, minus) = _count_cdfs(MAX_STEPS, 0.001)\n"
        "status = open('/proc/self/status').read() if os.path.exists('/proc/self/status') else 'VmHWM: 0 kB'\n"
        "peak_kb = next(ln.split()[1] for ln in status.splitlines() if ln.startswith('VmHWM:'))\n"
        "print(float(plus[5_005_000 - lo]), float(minus[4_994_999 - lo_minus]), len(plus), len(minus), peak_kb)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    at_mode, mirrored, len_plus, len_minus, peak_kb = proc.stdout.split()
    assert abs(float(at_mode) - 0.500126114633939077559678) < 1e-12
    assert abs(float(mirrored) + float(at_mode) - 1.0) < 1e-12  # P(K- <= n - k - 1) = 1 - P(K+ <= k)
    assert int(len_plus) <= 150_000 and int(len_minus) <= 150_000  # about 44 sd to each side of the mode
    assert int(peak_kb) / 1024 <= 64  # reads 0 where there is no /proc


def test_cached_count_tables_own_their_bytes():
    # the pmf is a view of a wider span (at these arguments 121,451 of
    # 139,269 entries); a cached table built in that span kept all of it alive
    steps, v = 10**7, 0.001
    prediction._count_cdfs.cache_clear()
    plus, minus = prediction._count_cdfs(steps, v)
    assert prediction._count_cdfs(steps, v) == (plus, minus)  # the cached tables
    lo, pmf = trials._binomial_window(steps, (1.0 + v) / 2.0)
    assert len(pmf.base) > len(pmf)
    want_minus = np.cumsum(pmf[::-1])
    want_plus = np.cumsum(pmf, out=pmf)  # each table built as before, in the span
    for table in (want_plus, want_minus):
        table /= table[-1]
    assert plus[0] == lo and minus[0] == steps - (lo + len(pmf) - 1)
    for (_, table), want in zip((plus, minus), (want_plus, want_minus)):
        assert table.base is None and table.tobytes() == want.tobytes()


def test_predict_at_max_steps_fits_in_memory(tmp_path):
    # the whole command builds the two count windows once, and the exact
    # accuracy reads them: a second full-length pmf for it peaked at 343 MB,
    # the zero-padded tables at 195 MB.  VmHWM as above
    src = os.path.dirname(os.path.dirname(os.path.abspath(prediction.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import os; from blgisim.cli import main; from blgisim.prediction import MAX_STEPS\n"
        "argv = ['predict', '--v', '0.5', '--readout-v', '0.0016', '--steps', str(MAX_STEPS), '--trials', '64']\n"
        "code = main([*argv, '--out', 'p.csv'])\n"
        "status = open('/proc/self/status').read() if os.path.exists('/proc/self/status') else 'VmHWM: 0 kB'\n"
        "print(code, next(ln.split()[1] for ln in status.splitlines() if ln.startswith('VmHWM:')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, peak_kb = proc.stdout.splitlines()[-1].split()  # after the command's summary
    assert exit_code == "0"
    assert int(peak_kb) / 1024 <= 64  # reads 0 where there is no /proc


def test_predict_builds_one_count_pmf(monkeypatch, tmp_path):
    calls, binomial_window = [], prediction._binomial_window

    def counted(steps, p):
        calls.append((steps, p))
        return binomial_window(steps, p)

    monkeypatch.setattr(prediction, "_binomial_window", counted)
    prediction._count_cdfs.cache_clear()
    argv = ["predict", "--v", "0.5", "--readout-v", "0.05", "--steps", "1000", "--trials", "64"]
    assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 0
    assert calls == [(1000, (1.0 + 0.05) / 2.0)]


def test_saturation_threshold_is_a_five_sigma_misassignment():
    phi_minus_5 = math.erfc(5.0 / math.sqrt(2.0)) / 2.0  # 2.87e-7
    for steps, v, wrong_plus in ((10_000, 0.05, 2.68e-7), (2_500, 0.1, 2.41e-7)):
        readout = SequentialReadoutParams(v=v, steps=steps)
        assert math.isclose(steps * v**2, prediction.SATURATION_THRESHOLD) and readout.saturated
        pmf = full_table(*trials._binomial_window(steps, (1.0 + v) / 2.0), steps)
        half = steps // 2  # both steps are even
        # c = +1 is misread when the mean is negative, K < steps/2.  c = -1
        # (K -> steps - K) is misread when the mean is >= 0, so the tie
        # K = steps/2, which predicts +1, counts against it.
        miss_plus, miss_minus = pmf[:half].sum(), pmf[: half + 1].sum()
        assert abs(miss_plus - wrong_plus) < 0.005e-7 and miss_plus <= phi_minus_5
        assert abs(miss_minus - 2.97e-7) < 0.005e-7
        # at V = 1 the ancilla eigenvalue is the projective outcome, so the
        # exact accuracy misses by the misassignment averaged over c
        pooled = 1.0 - prediction_accuracy_exact(prediction_settings(1.0), readout)
        assert abs(pooled - (miss_plus + miss_minus) / 2.0) < 1e-12
        assert pooled <= phi_minus_5


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


def test_single_prediction_trial_is_deterministic():
    settings = prediction_settings(0.5)
    readout = SequentialReadoutParams(v=0.2, steps=64)
    one = prediction_batch(settings, readout, 1, master_seed=123, start=9)
    [rec] = table_rows(one)
    assert table_rows(prediction_batch(settings, readout, 1, master_seed=123, start=9)) == [rec]
    assert one.trial_index.tolist() == [9]
    assert (one.steps, one.master_seed) == (64, 123)
    assert one.predicted1[0] == predict(one.trajectory_mean1[0])
    assert one.actual1[0] in (-1, 1) and one.actual2[0] in (-1, 1)
    assert table_rows(prediction_batch(settings, readout, 1, master_seed=123, start=10)) != [rec]


def test_prediction_batch_start_stream_worker_and_slice_invariance():
    # three chunks, joined serially or from a pool of three, streamed, or
    # cut at start offsets whose chunks end at other trials than the whole's
    settings = prediction_settings(0.3)
    readout = SequentialReadoutParams(v=0.25, steps=24)
    n = 2 * trials._TRIAL_CHUNK + 41
    whole = prediction_batch(settings, readout, n, master_seed=1)
    others = [prediction_batch(settings, readout, n, master_seed=1, workers=3)]
    others += [concat(list(prediction_chunks(settings, readout, n, 1, workers=workers))) for workers in (1, 3)]
    cuts = (0, 123, trials._TRIAL_CHUNK + 1000, n)
    others.append(concat([prediction_batch(settings, readout, b - a, 1, start=a) for a, b in zip(cuts, cuts[1:])]))
    for other in others:
        for name in ("K1", "K2", "trajectory_mean1", "trajectory_mean2", "predicted1", "actual2"):
            assert np.array_equal(getattr(whole, name), getattr(other, name)), name
    tail = prediction_batch(settings, readout, 100, master_seed=1, start=n - 100)
    assert np.array_equal(tail.trajectory_mean1, whole.trajectory_mean1[n - 100:])
    for i in (0, 311, 622, trials._TRIAL_CHUNK - 1, trials._TRIAL_CHUNK, n - 1):
        one = prediction_batch(settings, readout, 1, master_seed=1, start=i)
        for name in PredictionTable.field_names:
            assert np.array_equal(getattr(one, name), getattr(whole, name)[i : i + 1]), (i, name)
        assert one.settings_id == whole.settings_id
    with pytest.raises(ValueError):
        prediction_batch(settings, readout, 0, master_seed=1)


def test_prediction_table_round_trip():
    settings = prediction_settings(0.5)
    readout = SequentialReadoutParams(v=0.2, steps=8)
    singles = [prediction_batch(settings, readout, 1, 3, start=i) for i in range(5)]
    table = concat(singles)
    assert len(table) == 5
    assert table_rows(table) == table_rows(prediction_batch(settings, readout, 5, 3))
    assert table_rows(table)[2] == table_rows(singles[2])[0]
    merged = concat([table, table])
    assert len(merged) == 10
    assert isinstance(merged.settings_id, str)


# ------------------------------------------------------------------- accuracy


def test_prediction_accuracy_counts():
    def records(*pairs):
        """One row per (predicted1, actual1) pair, with predicted2 = actual2 = 1, from 2-step readouts."""
        p1, a1 = (list(col) for col in zip(*pairs))
        n = len(pairs)
        k1 = [2 if p > 0 else 0 for p in p1]  # K = 2 of 2 outcomes +1 predicts +1, K = 0 predicts -1
        return PredictionTable(range(n), k1, [2] * n, a1, [1] * n, settings_id="x", steps=2, master_seed=0)

    est = prediction_accuracy(records((1, 1), (1, -1)))
    assert est.matches == 3 and est.count == 4
    assert est.accuracy == 0.75
    assert 0.0 < est.ci_low < 0.75 < est.ci_high < 1.0

    perfect = prediction_accuracy(records((1, 1), (-1, -1)))
    assert perfect.accuracy == 1.0
    assert perfect.ci_high == 1.0


def test_table_means_and_predictions_follow_the_counts():
    # K of 2 readout outcomes +1: a tie (K = 1) has mean 0, which predicts +1 as predict does
    table = PredictionTable([0, 1, 2], [0, 1, 2], [2, 1, 0], [1] * 3, [1] * 3, settings_id="x", steps=2, master_seed=0)
    assert table.trajectory_mean1.tolist() == [-1.0, 0.0, 1.0]
    assert table.trajectory_mean2.tolist() == [1.0, 0.0, -1.0]
    assert table.predicted1.tolist() == [predict(m) for m in table.trajectory_mean1] == [-1, 1, 1]
    assert table.predicted2.tolist() == [predict(m) for m in table.trajectory_mean2] == [1, 1, -1]


def test_prediction_accuracy_rejects_an_empty_table():
    with pytest.raises(ValueError, match="at least 1 record"):
        prediction_accuracy(empty_table(PredictionTable))


def test_accuracy_of_a_stream_or_a_fold_is_that_of_its_table():
    # one count: a table, its chunk stream, and a fold that a writer took
    # part of the way give the same estimate
    settings, readout = prediction_settings(0.4), SequentialReadoutParams(v=0.3, steps=40)
    n = 2 * trials._TRIAL_CHUNK + 5
    whole = prediction_accuracy(prediction_batch(settings, readout, n, master_seed=6))
    assert prediction_accuracy(prediction_chunks(settings, readout, n, 6)) == whole
    fold = PredictionFold(prediction_chunks(settings, readout, n, 6, workers=2))
    taken = [len(block) for block in itertools.islice(fold, 1)]
    assert taken == [trials._TRIAL_CHUNK] and len(fold) == trials._TRIAL_CHUNK
    assert prediction_accuracy(fold) == whole and len(fold) == n
    with pytest.raises(ValueError, match="at least 1 record"):
        prediction_accuracy(iter(()))


def test_prediction_chunks_refuse_unequal_axes_before_any_chunk_and_join_to_the_batch(monkeypatch):
    readout = SequentialReadoutParams(v=0.3, steps=40)
    calls = []
    monkeypatch.setattr(prediction, "_predict_range", lambda *args, **kwargs: calls.append(args))
    for bad in (replace(prediction_settings(0.4), b1=0.1), replace(prediction_settings(0.4), a2=0.0)):
        with pytest.raises(ValueError, match="coupling axes equal to projective axes"):
            prediction_chunks(bad, readout, 10, 1)
        with pytest.raises(ValueError, match="coupling axes equal to projective axes"):
            prediction_batch(bad, readout, 10, 1)
    assert calls == []
    monkeypatch.undo()
    settings, n = prediction_settings(0.4), trials._TRIAL_CHUNK + 9
    for start in (0, 5):
        batch = prediction_batch(settings, readout, n, 2, start=start)
        chunks = list(prediction_chunks(settings, readout, n, 2, start=start))
        assert [len(chunk) for chunk in chunks] == [trials._TRIAL_CHUNK, 9]
        assert table_rows(concat(chunks)) == table_rows(batch) and batch.trial_index[0] == start


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

    state = post_coupling_state(prediction_settings(0.01))
    assert concurrence(state) > 0.999


def test_exact_post_protocol_chsh_closed_form():
    for v in np.linspace(0.05, 1.0, 20):
        got = exact_post_protocol_chsh(prediction_settings(float(v)))
        assert abs(got - closed_form_post_chsh(float(v))) < 1e-12


def density_route_correlators(settings: Settings, post_select=None) -> list:
    """The four after-protocol correlators, in (e11, e12, e21, e22) order, from the
    coupled density operator and projective traces."""
    rho = post_coupling_state(settings, post_select).density()
    return [
        float(np.trace(np.kron(bloch_observable(th1), bloch_observable(th2)) @ rho).real)
        for th1 in POST_TEST_AXES_1
        for th2 in POST_TEST_AXES_2
    ]


def density_route_post_chsh(settings: Settings, post_select=None) -> float:
    """The after-protocol combination from the coupled density operator and projective traces."""
    corr = density_route_correlators(settings, post_select)
    return corr[0] + corr[1] + corr[2] - corr[3]


@pytest.mark.parametrize("bell_kind", ["phi_plus", "psi_minus"])
def test_post_protocol_law_matches_density_route(bell_kind):
    for v in (0.05, 0.3, 0.5, 0.7071, 0.9, 0.99, 1.0):
        settings = replace(prediction_settings(v), bell_kind=bell_kind)
        for post_select in (None, (1, 1), (1, -1), (-1, 1), (-1, -1)):
            got = exact_post_protocol_chsh(settings, post_select)
            assert abs(got - density_route_post_chsh(settings, post_select)) < 1e-12, (v, post_select)


def test_post_selecting_a_zero_probability_branch_raises():
    # phi+ coupled along z on both qubits at V = 1: the ancillas always agree
    settings = Settings(a1=0.0, a2=0.0, b1=0.0, b2=0.0, v=1.0)
    saturated = SequentialReadoutParams(v=0.05, steps=10_000)
    with pytest.raises(DegenerateBranchError):
        post_coupling_state(settings, post_select=(1, -1))
    with pytest.raises(DegenerateBranchError):
        exact_post_protocol_chsh(settings, post_select=(1, -1))
    with pytest.raises(DegenerateBranchError):
        post_protocol_chsh(settings, saturated, n_trials=400, post_select=(1, -1))
    agree = exact_post_protocol_chsh(settings, post_select=(1, 1))
    assert abs(agree - density_route_post_chsh(settings, (1, 1))) < 1e-12
    with pytest.raises(ValueError):
        exact_post_protocol_chsh(settings, post_select=(0, 1))


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


def _count_route_failures(reports: dict, settings: Settings) -> list:
    """The checks of the after-protocol reports of 1000 seeds that fail against the exact law.

    At 40,000 trials, z = (S - exact)/SE over the seeds must have mean 0
    and variance 1, each within 4 of its standard errors.  At 16 trials
    (4 per axis pair), where dividing M2 by n or by n - 1 differs by a
    quarter, the mean of SE^2 must be Var(S) = sum (1 - e^2)/4, which
    dividing by n - 1 makes exact, within 4 standard errors of that mean.
    """
    failures = []
    exact = exact_post_protocol_chsh(settings)
    z = np.array([(r.chsh - exact) / r.chsh_stderr for r in reports[40_000]])
    if abs(z.mean()) > 4.0 / math.sqrt(len(z)):
        failures.append("mean")
    if abs(z.var(ddof=1) - 1.0) > 4.0 * math.sqrt(2.0 / (len(z) - 1)):
        failures.append("variance")
    variance = sum((1.0 - e * e) / 4 for e in density_route_correlators(settings))
    se2 = np.array([r.chsh_stderr**2 for r in reports[16]])
    if abs(se2.mean() - variance) > 4.0 * se2.std(ddof=1) / math.sqrt(len(se2)):
        failures.append("stderr bias")
    return failures


def test_post_protocol_counts_follow_the_exact_law_and_their_stderr_is_unbiased():
    settings = prediction_settings(0.5)
    readout = SequentialReadoutParams(v=0.05, steps=10_000)
    reports = {n: [post_protocol_chsh(settings, readout, n, seed) for seed in range(1000)] for n in (40_000, 16)}
    assert _count_route_failures(reports, settings) == []

    # the check must catch a stderr whose M2 is divided by n, not n - 1 ...
    def by_n(r):
        shrink = math.sqrt((r.e11.count - 1) / r.e11.count)
        return chsh_combine(*(replace(e, stderr=e.stderr * shrink) for e in (r.e11, r.e12, r.e21, r.e22)))

    # ... and a combination of the wrong sign pattern
    def wrong_signs(r):
        return replace(r, chsh=r.e11.value + r.e12.value - r.e21.value + r.e22.value)

    for mutant, caught in ((by_n, "stderr bias"), (wrong_signs, "mean")):
        mutated = {n: [mutant(r) for r in runs] for n, runs in reports.items()}
        assert caught in _count_route_failures(mutated, settings), mutant.__name__


def test_post_protocol_chsh_argument_validation():
    settings = prediction_settings(0.5)
    saturated = SequentialReadoutParams(v=0.05, steps=10_000)
    shallow = SequentialReadoutParams(v=0.05, steps=100)
    with pytest.raises(ValueError):
        post_protocol_chsh(settings, saturated, n_trials=4)
    with pytest.raises(ValueError, match=rf"n_trials must be an integer in \[1, {trials.MAX_COUNT_TRIALS}\]"):
        post_protocol_chsh(settings, saturated, n_trials=4 * (trials.MAX_COUNT_TRIALS + 1))
    with pytest.raises(ValueError):
        post_protocol_chsh(settings, shallow, post_select=(1, 1))
    report = post_protocol_chsh(settings, saturated, n_trials=8_000, post_select=(1, 1), master_seed=4)
    assert abs(report.chsh) <= 2.0 * math.sqrt(2.0) + 4.0 * report.chsh_stderr
