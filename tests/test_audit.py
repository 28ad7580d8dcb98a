"""Binary-data bound, decomposition verdicts, hidden-variable control source."""

import hashlib
import math

import numpy as np
import pytest

from blgisim import audit
from blgisim.audit import (
    CONSISTENT,
    INCONCLUSIVE,
    REJECT,
    BinaryTuple,
    as_binary_tuple,
    chsh_bound_check,
    decomposition_test,
    exhaustive_verify,
    hidden_variable_config,
    hidden_variable_exact_chsh,
    hidden_variable_records,
    per_trial_term,
)
from blgisim.qubits import NoiseModel
from blgisim.records import emit_records
from blgisim.trials import (
    Settings,
    TrialRecord,
    TrialTable,
    default_settings,
    estimate_chsh,
    exact_chsh,
    simulate_trials,
)


def binary_columns(table):
    return zip(
        table.alpha1.astype(int), table.alpha2.astype(int), table.beta1, table.beta2
    )


# ------------------------------------------------------------ per-trial term


def test_per_trial_term_known_cases():
    assert per_trial_term(BinaryTuple(1, 1, 1, 1)) == 2
    assert per_trial_term(BinaryTuple(1, -1, 1, -1)) == -2
    assert per_trial_term(BinaryTuple(-1, -1, -1, -1)) == 2
    assert per_trial_term((1, 1, 1, -1)) == 2


def test_binary_tuple_validation():
    with pytest.raises(ValueError):
        BinaryTuple(0, 1, 1, 1)
    with pytest.raises(ValueError):
        as_binary_tuple((1, 1, 2, 1))
    assert as_binary_tuple((1.0, -1.0, 1.0, -1.0)) == BinaryTuple(1, -1, 1, -1)


def test_per_trial_term_is_always_plus_or_minus_two():
    rng = np.random.default_rng(71)
    for _ in range(500):
        a1, a2, b1, b2 = (int(x) for x in rng.choice([-1, 1], size=4))
        term = per_trial_term((a1, a2, b1, b2))
        assert term in (-2, 2)
        assert term == a1 * (b1 + b2) + a2 * (b1 - b2)


def test_exhaustive_verify_counts():
    report = exhaustive_verify()
    assert len(report.rows) == 16
    assert report.plus_two == 8
    assert report.minus_two == 8
    assert report.mean_term == 0.0
    assert all(term in (-2, 2) for _, term in report.rows)


# ----------------------------------------------------------------- the bound


def test_bound_saturates_at_exactly_two():
    assert chsh_bound_check([(1, 1, 1, 1)] * 50) == 2.0
    assert chsh_bound_check([(-1, -1, -1, -1)] * 7) == 2.0


def test_bound_cancellation():
    seq = [(1, 1, 1, 1), (1, -1, 1, -1)] * 10
    assert chsh_bound_check(seq) == 0.0


def test_bound_is_exact_integer_arithmetic():
    seq = [(1, 1, 1, 1), (1, 1, 1, 1), (-1, 1, 1, 1)]
    assert chsh_bound_check(seq) == 2.0 / 3.0


def test_bound_holds_for_random_sequences():
    rng = np.random.default_rng(72)
    for _ in range(20):
        n = int(rng.integers(1, 400))
        seq = rng.choice([-1, 1], size=(n, 4))
        assert chsh_bound_check(seq) <= 2.0


def test_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        chsh_bound_check([])
    with pytest.raises(ValueError):
        chsh_bound_check([(1, 1, 1, 0)])


# --------------------------------------------------------------- the verdict


def test_decomposition_rejects_weak_coupling_quantum_records():
    settings = default_settings(0.2, NoiseModel(sigma=0.3))
    table = simulate_trials(settings, 200_000, master_seed=1)
    verdict = decomposition_test(table, v=0.2)
    assert verdict.verdict == REJECT
    assert verdict.chsh_value > 2.0
    assert verdict.chsh_value - 2.0 > 3.0 * verdict.chsh_stderr
    assert verdict.threshold_sigmas == 3.0


def test_decomposition_consistent_for_strong_coupling_quantum_records():
    # at v = 0.95 the exact combination is below 2, so no rejection
    settings = default_settings(0.95)
    table = simulate_trials(settings, 100_000, master_seed=2)
    assert exact_chsh(settings) < 2.0
    assert decomposition_test(table, v=0.95).verdict == CONSISTENT


def test_decomposition_statistic_is_absolute():
    # rotating both projective axes by pi flips every correlator, driving
    # the raw combination to -2.8
    settings = Settings(
        a1=0.0, a2=math.pi / 2, b1=math.pi + math.pi / 4, b2=math.pi - math.pi / 4, v=0.2
    )
    assert exact_chsh(settings) < -2.0
    table = simulate_trials(settings, 100_000, master_seed=3)
    verdict = decomposition_test(table, v=0.2)
    assert verdict.chsh_value > 2.0
    assert verdict.verdict == REJECT


def test_decomposition_consistent_for_hidden_variable_records():
    config = hidden_variable_config(99)
    noise = NoiseModel(sigma=0.3)
    table = hidden_variable_records(config, 200_000, v=0.2, noise=noise, master_seed=4)
    verdict = decomposition_test(table, v=0.2)
    assert verdict.verdict == CONSISTENT
    expected = hidden_variable_exact_chsh(config, v=0.2, noise=noise)
    assert abs(verdict.chsh_value - expected) < 4.0 * verdict.chsh_stderr


def test_decomposition_inconclusive_below_min_records():
    config = hidden_variable_config(5)
    table = hidden_variable_records(config, 50, v=1.0, master_seed=5)
    assert decomposition_test(table, v=1.0).verdict == INCONCLUSIVE


def test_decomposition_inconclusive_when_stderr_blows_up():
    # heavy noise at tiny coupling: rescaled spread ~ sigma/v = 6 per signal
    settings = default_settings(0.05, NoiseModel(sigma=0.3))
    table = simulate_trials(settings, 150, master_seed=6)
    verdict = decomposition_test(table, v=0.05)
    assert verdict.verdict == INCONCLUSIVE
    assert verdict.chsh_stderr > audit.STDERR_CAP


def test_decomposition_never_rejects_binary_noise_sources():
    rng = np.random.default_rng(73)
    for k in range(10):
        config = hidden_variable_config(200, index=k)
        v = float(rng.uniform(0.1, 1.0))
        noise = NoiseModel(sigma=float(rng.uniform(0.0, 0.5)))
        table = hidden_variable_records(config, 20_000, v=v, noise=noise, master_seed=300 + k)
        assert decomposition_test(table, v=v).verdict != REJECT


def test_decomposition_validates_arguments():
    table = simulate_trials(default_settings(0.5), 200, master_seed=7)
    with pytest.raises(ValueError):
        decomposition_test(table, v=0.0)
    with pytest.raises(ValueError):
        decomposition_test(table, v=0.5, threshold_sigmas=0.0)
    with pytest.raises(ValueError):
        decomposition_test(table, v=0.5, threshold_sigmas=float("nan"))


def test_decomposition_rejects_malformed_records():
    sid = "test;v=0.5"

    def rec(raw1=0.5, alpha1=1.0, beta1=1):
        return TrialRecord(0, raw1, 0.5, alpha1, 1.0, beta1, 1, sid, 0)

    good = [rec() for _ in range(120)]
    decomposition_test(good, v=0.5)  # sanity: well-formed passes

    with pytest.raises(ValueError, match="beta"):
        decomposition_test(good[:-1] + [rec(beta1=2)], v=0.5)
    with pytest.raises(ValueError, match="alpha"):
        decomposition_test(good[:-1] + [rec(alpha1=0.3)], v=0.5)
    with pytest.raises(ValueError, match="finite"):
        decomposition_test(good[:-1] + [rec(raw1=math.nan, alpha1=math.nan)], v=0.5)


def test_decomposition_rejects_mixed_settings_ids():
    # two experiments pooled into one record set must not get a verdict:
    # such a table cannot be built, from tables or from records
    parts = [
        simulate_trials(Settings(v=0.2), 5000, 1),
        simulate_trials(Settings(v=0.2, b1=0.0, b2=0.0), 5000, 2),
    ]
    with pytest.raises(ValueError, match="malformed records: .*settings ids"):
        TrialTable.concat(parts)
    with pytest.raises(ValueError, match="malformed records: .*settings ids"):
        decomposition_test([parts[0].row(0), parts[1].row(0)], v=0.2)


# ------------------------------------------------------ hidden-variable source


def test_hidden_variable_config_is_deterministic():
    a = hidden_variable_config(99)
    b = hidden_variable_config(99)
    assert a == b
    assert all(0.0 <= t <= 1.0 for t in a.thresholds)
    assert all(s in (-1, 1) for s in a.signs)
    assert hidden_variable_config(99, index=1) != a
    assert hidden_variable_config(98) != a


def test_hidden_variable_records_are_binary_under_zero_noise():
    config = hidden_variable_config(42)
    table = hidden_variable_records(config, 5000, v=0.3, master_seed=8)
    assert set(np.unique(table.alpha1)) <= {-1.0, 1.0}
    assert set(np.unique(table.alpha2)) <= {-1.0, 1.0}
    assert set(np.unique(table.raw1)) <= {-0.3, 0.3}
    assert set(np.unique(table.beta1)) <= {-1, 1}
    assert chsh_bound_check(binary_columns(table)) <= 2.0


def test_hidden_variable_records_slice_invariance():
    config = hidden_variable_config(42)
    full = hidden_variable_records(config, 150, v=0.5, master_seed=9)
    tail = hidden_variable_records(config, 50, v=0.5, master_seed=9, start=100)
    assert np.array_equal(tail.alpha1, full.alpha1[100:])
    assert np.array_equal(tail.beta2, full.beta2[100:])
    with pytest.raises(ValueError):
        hidden_variable_records(config, 0, v=0.5)


@pytest.mark.parametrize(
    "noise, digest",
    [
        (NoiseModel(), "2b1c01eed72b6140e9da1228f38c6405bbf0acb9fa6fdfe7ee02868da683c292"),
        (
            NoiseModel(bias=0.05, sigma=0.3),
            "91ede6f5bc12a5143b02f03584c4223f77cfdcddffc866f4c51527d1e58702a1",
        ),
    ],
)
def test_hidden_variable_record_bytes_match_golden_hashes(tmp_path, noise, digest):
    records = hidden_variable_records(hidden_variable_config(5, 2), 1000, v=0.4, noise=noise, master_seed=6)
    path = tmp_path / "hidden.csv"
    emit_records(records, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_hidden_variable_exact_chsh_hand_case():
    # thresholds (0.5, 0.5, 0.25, 0.75), all signs +1:
    # pairs are 0.5, 0.5, 0.5, 0.5 giving |0.5 + 0.5 + 0.5 - 0.5| = 1
    config = audit.HiddenVariableConfig((0.5, 0.5, 0.25, 0.75), (1, 1, 1, 1))
    assert abs(hidden_variable_exact_chsh(config) - 1.0) < 1e-15
    aligned = audit.HiddenVariableConfig((0.5, 0.5, 0.5, 0.5), (1, 1, 1, 1))
    assert hidden_variable_exact_chsh(aligned) == 2.0


def test_hidden_variable_exact_chsh_matches_sampling():
    config = hidden_variable_config(99)
    noise = NoiseModel(bias=0.1, sigma=0.2)
    table = hidden_variable_records(config, 100_000, v=0.6, noise=noise, master_seed=10)
    report = estimate_chsh(table)
    expected = hidden_variable_exact_chsh(config, v=0.6, noise=noise)
    assert abs(abs(report.chsh) - expected) < 4.0 * report.chsh_stderr


def test_hidden_variable_pair_correlation_formula():
    # E[B1 * B2] = s3 * s4 * (1 - 2|t3 - t4|) under a shared lambda
    config = hidden_variable_config(17)
    table = hidden_variable_records(config, 100_000, v=1.0, master_seed=11)
    products = table.beta1 * table.beta2
    t, s = config.thresholds, config.signs
    expected = s[2] * s[3] * (1.0 - 2.0 * abs(t[2] - t[3]))
    stderr = products.std(ddof=1) / math.sqrt(len(products))
    assert abs(products.mean() - expected) < 4.0 * stderr


def test_hidden_variable_config_validation():
    with pytest.raises(ValueError):
        audit.HiddenVariableConfig((0.5, 0.5, 0.5), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        audit.HiddenVariableConfig((0.5, 0.5, 0.5, 1.5), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        audit.HiddenVariableConfig((0.5, 0.5, 0.5, 0.5), (1, 1, 1, 0))
