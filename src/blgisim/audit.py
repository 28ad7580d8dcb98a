"""The binary-data bound and the test that rejects "binary plus unbiased noise".

For binary 4-tuples (a1, a2, b1, b2) the per-trial combination
a1*b1 + a1*b2 + a2*b1 - a2*b2 factors as a1*(b1+b2) + a2*(b1-b2); one
bracket is always 0 and the other +-2, so every trial contributes exactly
+-2 and any sequence average is bounded by 2.  That bound is arithmetic,
not statistical: adding independent zero-mean noise to the binary signals
cannot move a correlation mean.  Rescaled weak-measurement data that holds
the combination above 2 beyond statistical error therefore cannot be
binary signals contaminated only by unbiased noise, which is exactly what
decomposition_test checks.

The hidden-variable generator at the bottom produces data that IS binary
plus unbiased noise, as the consistent control for the test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .qubits import NO_NOISE, NoiseModel, check_strength
from .trials import TrialTable, _noisy, as_table, estimate_chsh

MIN_RECORDS = 100     # below this the test has no power
STDERR_CAP = 0.2      # combined-stderr cap for a conclusive verdict
DEFAULT_THRESHOLD_SIGMAS = 3.0

CONSISTENT = "CONSISTENT"
REJECT = "REJECT"
INCONCLUSIVE = "INCONCLUSIVE"

# Record-integrity tolerance for alpha * v == raw.
_INTEGRITY_ATOL = 1e-12


@dataclass(frozen=True)
class BinaryTuple:
    """One trial's worth of strictly binary outcomes."""

    a1: int
    a2: int
    b1: int
    b2: int

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "b1", "b2"):
            if getattr(self, name) not in (-1, 1):
                raise ValueError(f"{name} must be -1 or +1, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class AuditVerdict:
    chsh_value: float
    chsh_stderr: float
    threshold_sigmas: float
    verdict: str


@dataclass(frozen=True)
class EnumerationReport:
    """All 16 binary tuples with their per-trial terms."""

    rows: tuple
    plus_two: int
    minus_two: int
    mean_term: float


def as_binary_tuple(item) -> BinaryTuple:
    if isinstance(item, BinaryTuple):
        return item
    a1, a2, b1, b2 = item
    return BinaryTuple(int(a1), int(a2), int(b1), int(b2))


def per_trial_term(t: BinaryTuple) -> int:
    """a1*b1 + a1*b2 + a2*b1 - a2*b2; exactly +2 or -2 for binary inputs."""
    t = as_binary_tuple(t)
    return t.a1 * t.b1 + t.a1 * t.b2 + t.a2 * t.b1 - t.a2 * t.b2


def exhaustive_verify() -> EnumerationReport:
    """Enumerate all 16 binary tuples and check every term is +-2.

    The +2 and -2 branches each occur 8 times, so the terms average to 0.
    A violation here would be a bug, not data.
    """
    rows = []
    for a1 in (1, -1):
        for a2 in (1, -1):
            for b1 in (1, -1):
                for b2 in (1, -1):
                    t = BinaryTuple(a1, a2, b1, b2)
                    term = per_trial_term(t)
                    if term not in (-2, 2):
                        raise AssertionError(f"per-trial term {term} for {t} is not +-2")
                    rows.append((t, term))
    plus = sum(1 for _, term in rows if term == 2)
    minus = len(rows) - plus
    mean = sum(term for _, term in rows) / len(rows)
    return EnumerationReport(rows=tuple(rows), plus_two=plus, minus_two=minus, mean_term=mean)


def chsh_bound_check(sequence) -> float:
    """(1/N) |sum a1b1 + sum a1b2 + sum a2b1 - sum a2b2| for binary tuples.

    Sums are accumulated in exact integer arithmetic, so the returned value
    is <= 2 with no tolerance for every binary sequence.
    """
    total = 0
    count = 0
    for item in sequence:
        t = as_binary_tuple(item)
        total += t.a1 * (t.b1 + t.b2) + t.a2 * (t.b1 - t.b2)
        count += 1
    if count == 0:
        raise ValueError("sequence must be nonempty")
    return abs(total) / count


def _check_record_integrity(table: TrialTable, v: float) -> None:
    for name in ("raw1", "raw2", "alpha1", "alpha2"):
        col = getattr(table, name)
        if not np.isfinite(col).all():
            raise ValueError(f"malformed records: non-finite {name}")
    for b in (table.beta1, table.beta2):
        if not np.isin(b, (-1, 1)).all():
            raise ValueError("malformed records: beta outside {-1, +1}")
    for alpha, raw in ((table.alpha1, table.raw1), (table.alpha2, table.raw2)):
        scale = max(1.0, float(np.abs(raw).max()))
        if float(np.abs(alpha * v - raw).max()) > _INTEGRITY_ATOL * scale:
            raise ValueError("malformed records: alpha * v does not reproduce raw")


def decomposition_test(records, v: float, threshold_sigmas: float = DEFAULT_THRESHOLD_SIGMAS) -> AuditVerdict:
    """Can these records be binary signals plus setting-independent
    zero-mean noise?  REJECT means no such decomposition exists.

    The statistic is the absolute rescaled combination
    |E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)| from the record fields.
    Under the binary-plus-unbiased-noise model its mean is <= 2, so an
    excess beyond threshold_sigmas combined standard errors rejects the
    model.  Verdicts are INCONCLUSIVE below MIN_RECORDS records or when
    the combined stderr exceeds STDERR_CAP.
    """
    v = check_strength(v)
    if not (np.isfinite(threshold_sigmas) and threshold_sigmas > 0):
        raise ValueError(f"threshold_sigmas must be positive, got {threshold_sigmas}")
    table = as_table(records)
    _check_record_integrity(table, v)
    report = estimate_chsh(table)
    value = abs(report.chsh)
    stderr = report.chsh_stderr

    if len(table) < MIN_RECORDS or stderr > STDERR_CAP:
        verdict = INCONCLUSIVE
    elif value - 2.0 > threshold_sigmas * stderr:
        verdict = REJECT
    else:
        verdict = CONSISTENT
    return AuditVerdict(
        chsh_value=value, chsh_stderr=stderr, threshold_sigmas=float(threshold_sigmas), verdict=verdict
    )


# ---------------------------------------------------------------------------
# Hidden-variable control source: binary signals plus unbiased noise by
# construction, so decomposition_test must find it CONSISTENT.


@dataclass(frozen=True)
class HiddenVariableConfig:
    """Deterministic-response sampler: shared uniform lambda per trial;
    signal k is sign_k * (+1 if lambda < threshold_k else -1)."""

    thresholds: tuple
    signs: tuple
    index: int = 0

    def __post_init__(self) -> None:
        if len(self.thresholds) != 4 or len(self.signs) != 4:
            raise ValueError("config needs one (threshold, sign) pair per signal")
        if any(not 0.0 <= t <= 1.0 for t in self.thresholds):
            raise ValueError("thresholds must lie in [0, 1]")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be -1 or +1")


def hidden_variable_config(master_seed: int, index: int = 0) -> HiddenVariableConfig:
    """Draw a random response configuration (4 thresholds, 4 signs)."""
    u = streams.window_uniforms(master_seed, streams.HIDDEN_VAR_CONFIG_STREAM, index, 1, blocks=2)[0]
    thresholds = tuple(float(x) for x in u[:4])
    signs = tuple(1 if x < 0.5 else -1 for x in u[4:8])
    return HiddenVariableConfig(thresholds=thresholds, signs=signs, index=index)


def hidden_variable_records(
    config: HiddenVariableConfig,
    n_trials: int,
    v: float,
    noise: NoiseModel = NO_NOISE,
    master_seed: int = 0,
    start: int = 0,
) -> TrialTable:
    """Binary signals from a shared hidden variable, plus detector noise.

    Per trial: lambda ~ U[0,1) is shared by all four signals; the two weak
    channels report raw_i = v * A_i + bias + Gaussian(0, sigma) which is
    rescaled to alpha_i = raw_i / v; the projective channels report the
    binary B_j directly.  The noiseless signals are strictly binary, so
    the combination of these records obeys the bound of 2.
    """
    v = check_strength(v)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    u = streams.window_uniforms(master_seed, streams.HIDDEN_VAR_STREAM, start, n_trials, blocks=1)
    lam = u[:, 0]
    signal = [
        config.signs[k] * np.where(lam < config.thresholds[k], 1, -1).astype(np.int64)
        for k in range(4)
    ]
    raws = [_noisy(v * signal[i].astype(float), noise, u[:, 1 + i]) for i in (0, 1)]
    index = np.arange(start, start + n_trials, dtype=np.int64)
    sid = (
        f"hidden;idx={config.index};v={v:.12g};"
        f"bias={noise.bias:.12g};sigma={noise.sigma:.12g}"
    )
    return TrialTable(
        index,
        raws[0],
        raws[1],
        raws[0] / v,
        raws[1] / v,
        signal[2],
        signal[3],
        sid,
        streams.derived_seed(master_seed, index),
    )


def hidden_variable_exact_chsh(config: HiddenVariableConfig, v: float = 1.0, noise: NoiseModel = NO_NOISE) -> float:
    """Population value of the combination for a hidden-variable source.

    For signals k and j with thresholds t and signs s,
    E[A_k * B_j] = s_k * s_j * (1 - 2|t_k - t_j|); a rescaled bias adds
    (bias/v) * E[B_j].  Always <= 2 in absolute value when bias = 0.
    """
    v = check_strength(v)
    t, s = config.thresholds, config.signs

    def pair(k: int, j: int) -> float:
        core = s[k] * s[j] * (1.0 - 2.0 * abs(t[k] - t[j]))
        return core + (noise.bias / v) * s[j] * (2.0 * t[j] - 1.0)

    return abs(pair(0, 2) + pair(0, 3) + pair(1, 2) - pair(1, 3))
