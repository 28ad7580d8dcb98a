"""Binary-data bound, decomposition verdicts, hidden-variable control source."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

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
    hidden_variable_source,
    per_trial_term,
)
from blgisim.records import emit_records, read_record_blocks
from blgisim.trials import (
    BRANCHES,
    NoiseModel,
    Settings,
    TrialTable,
    default_settings,
    estimate_chsh,
    exact_chsh,
)
from reference import concat, emit_format1, empty_table, hidden_variable_exact_chsh, with_scalars
from reference import simulate_trials


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
    with pytest.raises(ValueError, match="a1 must be -1 or \\+1, got 1.7"):
        as_binary_tuple((1.7, -1.2, 1, 1))  # not truncated to (1, -1, 1, 1)
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
        # the scalar loop over per-trial terms is the reference, for an array and for BinaryTuples
        tuples = [BinaryTuple(*(int(x) for x in row)) for row in seq]
        expected = abs(sum(per_trial_term(t) for t in tuples)) / n
        assert chsh_bound_check(seq) == chsh_bound_check(tuples) == expected


def test_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        chsh_bound_check([])
    with pytest.raises(ValueError):
        chsh_bound_check([(1, 1, 1, 0)])
    with pytest.raises(ValueError, match="got 1.5"):
        chsh_bound_check([(1.5, 1, 1, 1), (-1.9, 1, 1, 1)])  # not truncated to a bound value of 0
    with pytest.raises(ValueError, match="four values"):
        chsh_bound_check([(1, 1, 1)])


# --------------------------------------------------------------- the verdict


def test_decomposition_rejects_weak_coupling_quantum_records():
    settings = default_settings(0.2, NoiseModel(sigma=0.3))
    table = simulate_trials(settings, 200_000, master_seed=1)
    verdict = decomposition_test(table)
    assert verdict.verdict == REJECT
    assert verdict.chsh_value > 2.0
    assert verdict.chsh_value - 2.0 > 3.0 * verdict.chsh_stderr
    assert verdict.threshold_sigmas == 3.0


def test_decomposition_consistent_for_strong_coupling_quantum_records():
    # at v = 0.95 the exact combination is below 2, so no rejection
    settings = default_settings(0.95)
    table = simulate_trials(settings, 100_000, master_seed=2)
    assert exact_chsh(settings) < 2.0
    assert decomposition_test(table).verdict == CONSISTENT


def test_decomposition_statistic_is_absolute():
    # rotating both projective axes by pi flips every correlator, driving
    # the raw combination to -2.8
    settings = Settings(
        a1=0.0, a2=math.pi / 2, b1=math.pi + math.pi / 4, b2=math.pi - math.pi / 4, v=0.2
    )
    assert exact_chsh(settings) < -2.0
    table = simulate_trials(settings, 100_000, master_seed=3)
    verdict = decomposition_test(table)
    assert verdict.chsh_value > 2.0
    assert verdict.verdict == REJECT


def test_decomposition_consistent_for_hidden_variable_records():
    config = hidden_variable_config(99)
    noise = NoiseModel(sigma=0.3)
    table = simulate_trials(hidden_variable_source(config, 0.2, noise), 200_000, 4)
    verdict = decomposition_test(table)
    assert verdict.verdict == CONSISTENT
    expected = hidden_variable_exact_chsh(config, v=0.2, noise=noise)
    assert abs(verdict.chsh_value - expected) < 4.0 * verdict.chsh_stderr


def test_decomposition_inconclusive_below_min_records():
    config = hidden_variable_config(5)
    table = simulate_trials(hidden_variable_source(config, 1.0), 50, 5)
    assert decomposition_test(table).verdict == INCONCLUSIVE


def test_decomposition_inconclusive_when_stderr_blows_up():
    # heavy noise at tiny coupling: rescaled spread ~ sigma/v = 6 per signal
    settings = default_settings(0.05, NoiseModel(sigma=0.3))
    table = simulate_trials(settings, 150, master_seed=6)
    verdict = decomposition_test(table)
    assert verdict.verdict == INCONCLUSIVE
    assert verdict.chsh_stderr > audit.STDERR_CAP


def test_decomposition_never_rejects_binary_noise_sources():
    rng = np.random.default_rng(73)
    for k in range(10):
        config = hidden_variable_config(200, index=k)
        v = float(rng.uniform(0.1, 1.0))
        noise = NoiseModel(sigma=float(rng.uniform(0.0, 0.5)))
        table = simulate_trials(hidden_variable_source(config, v, noise), 20_000, 300 + k)
        assert decomposition_test(table).verdict != REJECT


def _boundary_reject_rate(source, n: int, runs: int, seed: int) -> float:
    """The share of `runs` audits of n trials each of source that REJECT.

    The trials are sampled a million at a time, and audit k reads trials
    [k n, (k + 1) n) as its own table."""
    per_batch = 10**6 // n
    rejects = 0
    for first in range(0, runs, per_batch):
        count = min(per_batch, runs - first)
        batch = simulate_trials(source, count * n, seed, start=first * n)
        for k in range(count):
            rows = slice(k * n, (k + 1) * n)
            table = TrialTable(
                *(getattr(batch, name)[rows] for name in TrialTable.field_names),
                settings_id=batch.settings_id, v=batch.v, master_seed=batch.master_seed,
            )
            verdict = decomposition_test(table).verdict
            assert verdict != INCONCLUSIVE
            rejects += verdict == REJECT
    return rejects / runs


@pytest.mark.parametrize("n, runs", [(100, 40_000), (1000, 10_000)])
def test_false_reject_rate_at_the_boundary_is_the_student_t_tail(n, runs):
    # every signal -1 with unbiased Gaussian noise: x = 2 - 2 eps / V per
    # trial, iid N(2, (2 sigma / V)^2), so S is exactly 2 and the audit's
    # z is Student-t with n - 1 degrees of freedom; at 3 sigma its REJECT
    # rate is the t tail, above the normal tail 0.00135 (27% above at n = 100)
    source = hidden_variable_source(audit.HiddenVariableConfig((0,) * 4, (1,) * 4), 0.5, NoiseModel(sigma=0.3))
    assert exact_chsh(source) == 2.0
    tail = stats.t.sf(audit.DEFAULT_THRESHOLD_SIGMAS, n - 1)
    rate = _boundary_reject_rate(source, n, runs, seed=n)
    assert abs(rate - tail) <= 3.0 * math.sqrt(tail * (1.0 - tail) / runs), (rate, tail)


def test_decomposition_validates_arguments():
    table = simulate_trials(default_settings(0.5), 200, master_seed=7)
    with pytest.raises(ValueError):
        decomposition_test(with_scalars(table, v=0.0))
    with pytest.raises(ValueError):
        decomposition_test(table, threshold_sigmas=0.0)
    with pytest.raises(ValueError):
        decomposition_test(table, threshold_sigmas=float("nan"))


def test_decomposition_rejects_malformed_records():
    n = 120

    def records(raw1=0.5, beta1=1, v=0.5):
        """n well-formed rows at v, the last one with the given raw1 and beta1."""
        raw1s, beta1s = [0.5] * n, [1] * n
        raw1s[-1], beta1s[-1] = raw1, beta1
        return TrialTable([0] * n, raw1s, [0.5] * n, beta1s, [1] * n, settings_id="test;v=0.5", v=v, master_seed=0)

    decomposition_test(records())  # sanity: well-formed passes

    with pytest.raises(ValueError, match="beta"):
        decomposition_test(records(beta1=2))
    with pytest.raises(ValueError, match="non-finite raw1"):
        decomposition_test(records(raw1=math.nan))
    # a finite raw whose alpha = raw / v overflows to inf
    with pytest.raises(ValueError, match="non-finite alpha1"):
        decomposition_test(records(raw1=1e308, v=1e-10))


@pytest.mark.parametrize(
    "bad, error",
    [
        ({"raw2": math.inf}, "non-finite raw2"),
        ({"raw2": 1e308}, "non-finite alpha2"),
        ({"beta2": 0}, "beta outside"),
        ({"beta2": -(2**63)}, "beta outside"),  # whose int64 abs is itself
        ({"beta1": 3, "raw2": math.nan}, "non-finite raw2"),
        ({"beta1": 0, "raw2": math.nan, "raw1": -math.inf}, "non-finite raw1"),
        ({"raw1": 1e308, "raw2": math.nan}, "non-finite raw2"),
    ],
)
def test_decomposition_names_the_first_bad_field_in_field_order(bad, error):
    # one pass over the alphas and betas passes a sound table, and a table
    # it does not pass is searched raw1, raw2, alpha1, alpha2, then betas
    n = 120
    columns = {"raw1": [0.5] * n, "raw2": [0.5] * n, "beta1": [1] * n, "beta2": [-1] * n}
    for name, value in bad.items():
        columns[name][n // 2] = value
    table = TrialTable(range(n), *columns.values(), settings_id="s", v=1e-10, master_seed=0)
    with pytest.raises(ValueError, match=f"^malformed records: {error}"):
        decomposition_test(table)


@pytest.mark.parametrize(
    "blocks", [read_record_blocks, lambda path: iter(read_record_blocks(path))], ids=["file", "stream"]
)
def test_streamed_decomposition_test_holds_a_block_not_the_file(tmp_path, monkeypatch, blocks):
    # numpy reports its buffers to tracemalloc, so the traced peak covers
    # the parsed columns and every temporary of the fold, whatever the
    # file's size.  tracemalloc sees this process only, so the file audit
    # is held to one range, read here, by a floor of the file's size; an
    # iterator of the same blocks takes the stream route
    path = tmp_path / "run.csv"
    table = simulate_trials(default_settings(0.2, NoiseModel(sigma=0.3)), 300_000, master_seed=4)
    emit_records(table, str(path))
    monkeypatch.setattr(audit, "_AUDIT_RANGE_BYTES", path.stat().st_size)
    columns = sum(getattr(table, name).nbytes for name in TrialTable.field_names)
    assert columns == 12_000_000
    whole = decomposition_test(table)
    del table
    tracemalloc.start()
    try:
        streamed = decomposition_test(blocks(str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed == whole and streamed.verdict == REJECT
    assert peak < columns / 4


def test_decomposition_needs_two_records():
    one = simulate_trials(default_settings(0.5), 1, master_seed=7)
    for table in (empty_table(TrialTable), one):
        with pytest.raises(ValueError, match="at least 2 records"):
            decomposition_test(table)


def test_decomposition_rejects_mixed_settings_ids():
    # two experiments pooled into one record set must not get a verdict:
    # such a table cannot be built
    parts = [
        simulate_trials(Settings(v=0.2), 5000, 1),
        simulate_trials(Settings(v=0.2, b1=0.0, b2=0.0), 5000, 2),
    ]
    error = (
        f"malformed records: a block of settings_id {parts[1].settings_id!r} "
        f"in a stream of settings_id {parts[0].settings_id!r}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        concat(parts)


# ------------------------------------------------------ hidden-variable source


def test_hidden_variable_config_is_deterministic():
    a = hidden_variable_config(99)
    b = hidden_variable_config(99)
    assert a == b
    assert all(0.0 <= t <= 1.0 for t in a.thresholds)
    assert all(s in (-1, 1) for s in a.signs)
    assert hidden_variable_config(99, index=1) != a
    assert hidden_variable_config(98) != a


def test_hidden_variable_settings_id_names_its_thresholds_and_signs():
    # configs 98 and 99 differ in thresholds and signs, so their records are
    # two experiments and must not pool into one table
    configs = [hidden_variable_config(98), hidden_variable_config(99)]
    parts = [simulate_trials(hidden_variable_source(c, 0.5), 5000, 1) for c in configs]
    error = (
        f"malformed records: a block of settings_id {parts[1].settings_id!r} "
        f"in a stream of settings_id {parts[0].settings_id!r}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        concat(parts)
    for config, part in zip(configs, parts):
        assert all(f"{t:.17g}" in part.settings_id for t in config.thresholds)
        assert "," not in part.settings_id and '"' not in part.settings_id


def test_hidden_variable_source_law():
    # thresholds (0.25, 0.5, 0.5, 1.0) cut [0, 1) into [0, .25), [.25, .5), [.5, 1)
    source = hidden_variable_source(audit.HiddenVariableConfig((0.25, 0.5, 0.5, 1.0), (1, -1, 1, 1)), 0.5)
    law = dict(zip(BRANCHES, source.law))
    assert {branch: p for branch, p in law.items() if p} == {
        (1, -1, 1, 1): 0.25,
        (-1, -1, 1, 1): 0.25,
        (-1, 1, -1, 1): 0.5,
    }
    assert source.raw_scale == source.v == 0.5


def test_hidden_variable_records_are_binary_under_zero_noise():
    config = hidden_variable_config(42)
    table = simulate_trials(hidden_variable_source(config, 0.3), 5000, 8)
    assert set(np.unique(table.alpha1)) <= {-1.0, 1.0}
    assert set(np.unique(table.alpha2)) <= {-1.0, 1.0}
    assert set(np.unique(table.raw1)) <= {-0.3, 0.3}
    assert set(np.unique(table.beta1)) <= {-1, 1}
    assert chsh_bound_check(binary_columns(table)) <= 2.0


def test_hidden_variable_records_slice_invariance():
    config = hidden_variable_config(42)
    source = hidden_variable_source(config, 0.5)
    full = simulate_trials(source, 150, 9)
    tail = simulate_trials(source, 50, 9, start=100)
    assert np.array_equal(tail.alpha1, full.alpha1[100:])
    assert np.array_equal(tail.beta2, full.beta2[100:])
    with pytest.raises(ValueError):
        simulate_trials(source, 0, 9)


@pytest.mark.parametrize(
    "noise, digest",
    [
        (NoiseModel(), "1e95fbfb42433578ae3fc9f24282af8428e97951126bce79c99c380c557bed9a"),
        (
            NoiseModel(bias=0.05, sigma=0.3),
            "cf4d6211be16c3dd364fdcb4065c137e0ef804eb98adf2c31a287477d8d11b0b",
        ),
    ],
)
def test_hidden_variable_record_bytes_match_golden_hashes(tmp_path, noise, digest):
    # record format 1, through the format-1 writer
    records = simulate_trials(hidden_variable_source(hidden_variable_config(5, 2), 0.4, noise), 1000, 6)
    path = tmp_path / "hidden.csv"
    emit_format1(records, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "noise, digest",
    [
        (NoiseModel(), "96c42c15e31fcfc597b199dcaf5fd13b9802bcdd6f91d4abc0b655c6d0f669da"),
        (NoiseModel(bias=0.05, sigma=0.3), "d7c7c3d4e5ebd59007ca6b2d5ea1718f3fa796182472b2edd1a70043e4c9dac4"),
    ],
)
def test_hidden_variable_format_2_record_bytes_match_golden_hashes(tmp_path, noise, digest):
    records = simulate_trials(hidden_variable_source(hidden_variable_config(5, 2), 0.4, noise), 1000, 6)
    path = tmp_path / "hidden.csv"
    emit_records(records, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_hidden_variable_exact_chsh_hand_case():
    # thresholds (0.5, 0.5, 0.25, 0.75), all signs +1:
    # pairs are 0.5, 0.5, 0.5, 0.5 giving |0.5 + 0.5 + 0.5 - 0.5| = 1
    # the closed form and the source's 16-branch law agree on both
    config = audit.HiddenVariableConfig((0.5, 0.5, 0.25, 0.75), (1, 1, 1, 1))
    assert abs(hidden_variable_exact_chsh(config) - 1.0) < 1e-15
    assert abs(exact_chsh(hidden_variable_source(config, 1.0)) - 1.0) < 1e-15
    aligned = audit.HiddenVariableConfig((0.5, 0.5, 0.5, 0.5), (1, 1, 1, 1))
    assert hidden_variable_exact_chsh(aligned) == 2.0
    assert exact_chsh(hidden_variable_source(aligned, 1.0)) == 2.0


def test_hidden_variable_exact_chsh_matches_sampling():
    config = hidden_variable_config(99)
    noise = NoiseModel(bias=0.1, sigma=0.2)
    table = simulate_trials(hidden_variable_source(config, 0.6, noise), 100_000, 10)
    report = estimate_chsh(table)
    expected = hidden_variable_exact_chsh(config, v=0.6, noise=noise)
    assert abs(abs(report.chsh) - expected) < 4.0 * report.chsh_stderr


def test_hidden_variable_pair_correlation_formula():
    # E[B1 * B2] = s3 * s4 * (1 - 2|t3 - t4|) under a shared lambda
    config = hidden_variable_config(17)
    table = simulate_trials(hidden_variable_source(config, 1.0), 100_000, 11)
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
