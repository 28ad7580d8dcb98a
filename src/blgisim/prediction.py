"""Predicting projective Bell outcomes from sequentially read ancillas.

Protocol per trial: couple an ancilla to each Bell qubit along the very
axis that will later be tested projectively (strength V = settings.v),
read each ancilla out through a long sequence of very weak z measurements
(strength v = readout.v, `steps` repetitions), average the readouts, and
predict the later projective outcome from the sign of that average.

Coupling at strength V and later finding ancilla i in its z eigenstate
c_i = +-1 is the weak measurement of strength V with outcome c_i.  With
the coupling axes equal to the test axes (a_i = b_i), the 16-branch trial
law trials.branch_distribution is therefore exactly the joint law of
(c1, c2, t1, t2), t_i the projective outcome.

A weak z readout of a z-diagonal ancilla is a classical Bayes filter on
its hidden eigenvalue c: the conditioned update
m' = (m + o v)/(1 + o v m) is exactly the posterior mean of c.  So given
c, the count K of +1 readout outcomes is Binomial(steps, (1 + c v)/2),
and the trajectory mean is (2K - steps)/steps.  A trial takes one counter
block: draw 0 picks (c1, c2, t1, t2) from the 16-branch law, draws 1 and
2 invert the binomial CDFs of K1 | c1 and K2 | c2.  Those CDFs are the
cumulative sums of one binomial pmf over its nonzero window, built by the
ratio recurrence outward from its mode (trials._binomial_window, whose
windows the sweep's branch counts invert too; numpy only; at steps =
10**7 it is accurate near the mode where scipy's bdtr is off by about
1e-3).  It is not a shortcut around the physics but an exact
reformulation; the test suite checks it against enumeration of the Kraus
readout sequence and against the scalar step-by-step route.  A
PredictionTable holds what its record file holds: the counts K1, K2 and
the projective outcomes as columns, and the settings id, `steps` and
master seed as scalars; each trajectory mean and its sign prediction is
computed from its count on access.  prediction_chunks gives trials
[start, start + n) as a stream of chunks of _predict_range, cut by
trials.chunk_stream as trials.trial_chunks is, and it is the one route by
which prediction trials leave this module: cli predict takes the stream,
and a PredictionFold counts each chunk's matches as it passes to the
writer, so the command never holds its run.

At saturated readout (steps * v^2 >= 25) the readout sign misassigns the
ancilla eigenvalue with probability about Phi(-5) ~ 2.9e-7 (see
SATURATION_THRESHOLD), so prediction accuracy is (1 + V)/2 to that
precision: perfect at V = 1, coin-flip as V -> 0.  prediction_accuracy
is the fold's Wilson estimate, of a table or of a stream alike.  For any
`steps`, prediction_accuracy_exact sums the same law, with P(sign | c)
read from the same cached CDF windows, to the accuracy the batch
converges to.  The complementary post_protocol_chsh shows what the
coupling costs: it reads the same law at the Bell test axes, with the
ancilla eigenvalues summed out (or fixed, to post-select), and the pair's
own violation decays toward the classical bound as V grows.  It forms no
trial: each axis pair's four outcome counts are one multinomial, drawn
by the conditional binomials of trials._branch_counts, as a sweep point
draws its 16 branch counts, and each correlator's mean and M2 come from
those counts.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import streams
from .trials import (
    MIN_BRANCH_PROB,
    ChshReport,
    CorrelatorEstimate,
    DegenerateBranchError,
    RecordTable,
    Settings,
    _INTEGER,
    _binomial_window,
    _branch_counts,
    _check_seed,
    _check_settings_id,
    _invert_window,
    _one_experiment,
    _typed,
    branch_distribution,
    check_strength,
    chsh_combine,
    chunk_stream,
    sample_branches,
)

# steps * v^2 at which the readout is saturated.  The readout sign then
# misassigns the ancilla eigenvalue c, P(sign != c), about as often as a
# 5-sigma normal tail, Phi(-5) = 2.87e-7: the mean is c v with spread
# sqrt((1 - v^2)/steps), about v/5.  Summed from _binomial_window at
# steps * v^2 = 25: P(sign = -1 | c = +1) is 2.68e-7 at (steps, v) =
# (10**4, 0.05) and 2.41e-7 at (2500, 0.1).  A zero mean predicts +1, so
# P(sign = +1 | c = -1) adds the tie P(K = steps/2) and reaches 2.97e-7 at
# both; averaged over c it is 2.82e-7 and 2.69e-7.
SATURATION_THRESHOLD = 25.0

# Cap on the readout length, set by accuracy, not memory: the cached CDF
# windows grow as sqrt(steps) (121,451 entries at (10**7, 0.001)), but each
# entry adds rounding, and the tests check them against exact sums up to the cap.
MAX_STEPS = 10**7

# Projective test axes for the after-protocol Bell check (radians):
# qubit 1 in {0, pi/2}, qubit 2 in {pi/4, -pi/4} maximize the ideal combination.
POST_TEST_AXES_1 = (0.0, math.pi / 2)
POST_TEST_AXES_2 = (math.pi / 4, -math.pi / 4)

_WILSON_Z = 1.959963984540054  # two-sided 95%


def check_steps(steps: int) -> int:
    """Validate a readout length, an int or numpy integer in [1, MAX_STEPS],
    and return it as an int; a bool, a float (inf and nan among them) or a
    str is refused like any other value out of range, with a ValueError."""
    if not 1 <= _typed(steps, _INTEGER, "steps") <= MAX_STEPS:
        raise ValueError(f"steps must be an integer in [1, {MAX_STEPS}], got {steps}")
    return int(steps)


@dataclass(frozen=True)
class SequentialReadoutParams:
    """Per-step strength and length of the ancilla readout sequence."""

    v: float
    steps: int

    def __post_init__(self) -> None:
        check_strength(self.v)
        object.__setattr__(self, "steps", check_steps(self.steps))

    @property
    def saturated(self) -> bool:
        """steps * v^2 >= SATURATION_THRESHOLD: the sign misassigns c about as often as Phi(-5)."""
        return self.steps * self.v**2 >= SATURATION_THRESHOLD


@dataclass(frozen=True)
class AccuracyEstimate:
    """Pooled match fraction with a Wilson 95% interval."""

    accuracy: float
    ci_low: float
    ci_high: float
    matches: int
    count: int


# a prediction record's columns, in CSV order, with their numpy dtypes: K_i
# counts the +1 outcomes of ancilla i's readout, actual_i is the projective outcome
PREDICTION_SCHEMA = (
    ("trial_index", "int64"), ("K1", "int64"), ("K2", "int64"), ("actual1", "int64"), ("actual2", "int64"),
)


class PredictionTable(RecordTable):
    """Column-oriented batch of prediction records of `steps`-outcome readouts,
    from the stream of master_seed; each trajectory mean and its prediction
    is computed from K_i on access."""

    schema = PREDICTION_SCHEMA
    scalar_checks = {"settings_id": _check_settings_id, "steps": check_steps, "master_seed": _check_seed}

    trajectory_mean1 = property(lambda self: _readout_columns(self.K1, self.steps)[0])
    trajectory_mean2 = property(lambda self: _readout_columns(self.K2, self.steps)[0])
    predicted1 = property(lambda self: _readout_columns(self.K1, self.steps)[1])
    predicted2 = property(lambda self: _readout_columns(self.K2, self.steps)[1])


def predict(mean: float) -> int:
    """Sign rule for a trajectory mean; exact zero breaks to +1."""
    return -1 if mean < 0 else 1


def prediction_settings(v: float) -> Settings:
    """Same-axis protocol settings: couple and test along z and x."""
    return Settings(a1=0.0, a2=math.pi / 2, b1=0.0, b2=math.pi / 2, v=v)


# ---------------------------------------------------------------------------
# Batch engine


@lru_cache(maxsize=8)
def _count_cdfs(steps: int, v: float) -> tuple:
    """Read-only windows (lo, F_c), F_c[j] = P(K <= lo + j | c), for c = +1 and c = -1.

    K | c ~ Binomial(steps, (1 + c v)/2) counts the +1 readout outcomes;
    the c = -1 law is the c = +1 law mirrored, K -> steps - K.  Each F_c
    is the cumsum of one pmf's nonzero window, divided by its last entry
    so it ends at 1; F_c is 0 below lo and 1 past the window's end.  Both
    are fresh arrays: the pmf is a view of a wider span, which a cached
    table would keep alive.
    """
    lo, pmf = _binomial_window(steps, (1.0 + v) / 2.0)
    minus = np.cumsum(pmf[::-1])
    plus = np.cumsum(pmf)
    for table in (plus, minus):
        table /= table[-1]
        table.flags.writeable = False
    return (lo, plus), (steps - (lo + len(pmf) - 1), minus)


def _readout_counts(c: np.ndarray, readout: SequentialReadoutParams, u: np.ndarray) -> np.ndarray:
    """Counts K of +1 outcomes in z-readout sequences on ancillas of eigenvalue c.

    One draw per ancilla picks K = min{k : F_c(k) > u}.
    """
    plus, minus = _count_cdfs(int(readout.steps), readout.v)
    return np.where(c > 0, _invert_window(*plus, u), _invert_window(*minus, u))


def _readout_columns(k: np.ndarray, steps: int) -> tuple:
    """(trajectory mean, prediction) columns of readouts of `steps` outcomes, K of them +1.

    A mean is (2K - steps)/steps and its prediction the sign rule of predict.
    """
    mean = (2 * np.asarray(k, dtype=np.int64) - steps) / steps
    return mean, np.where(mean < 0, -1, 1)


def _predict_range(
    settings: Settings, readout: SequentialReadoutParams, start: int, count: int, master_seed: int
) -> PredictionTable:
    """Trials [start, start+count): one block each, in order (c1, c2, t1, t2), K1, K2."""
    u = streams.window_uniforms(master_seed, streams.PREDICT_STREAM, start, count, 1)
    c1, c2, t1, t2 = sample_branches(settings.law, u[:, 0], 4)
    k1 = _readout_counts(c1, readout, u[:, 1])
    k2 = _readout_counts(c2, readout, u[:, 2])
    index = np.arange(start, start + count, dtype=np.int64)
    return PredictionTable(
        index, k1, k2, t1, t2, settings_id=settings.settings_id, steps=int(readout.steps), master_seed=master_seed
    )


def _require_same_axis(settings: Settings) -> None:
    if settings.a1 != settings.b1 or settings.a2 != settings.b2:
        raise ValueError(
            "prediction protocol requires coupling axes equal to projective axes "
            f"(a1={settings.a1}, b1={settings.b1}, a2={settings.a2}, b2={settings.b2})"
        )


def prediction_chunks(
    settings: Settings,
    readout: SequentialReadoutParams,
    n_trials: int,
    master_seed: int,
    start: int = 0,
    workers: int = 1,
):
    """The PredictionTable chunks of prediction trials [start, start + n_trials), in order.

    settings.v is the system-ancilla coupling strength; settings must have
    a_i = b_i (the protocol couples along the axes to be tested), or
    ValueError before any chunk runs.  Detector noise in settings is not
    part of this protocol and is ignored.  Results are identical for every
    start and worker count, so trial i alone is the one chunk of
    prediction_chunks(settings, readout, 1, master_seed, start=i); cli
    predict counts and writes each chunk as it arrives.
    """
    _require_same_axis(settings)
    return chunk_stream(partial(_predict_range, settings, readout, master_seed=master_seed), n_trials, start, workers)


class PredictionFold:
    """The matches of a PredictionTable, or of a stream of the PredictionTable blocks of one experiment.

    Iterating yields the blocks unchanged, each one's matches of
    predicted_i = actual_i counted into `matches` as it passes; so a
    writer can take the stream a block at a time while the count rides
    along.  len() is the number of trials counted so far, and
    prediction_accuracy of the fold counts the blocks not yet taken.  A
    block whose scalars differ from the first block's raises ValueError.
    """

    def __init__(self, records) -> None:
        self._blocks = _one_experiment(records, PredictionTable, self._count)
        self.matches = self.trials = 0

    def __len__(self) -> int:
        return self.trials

    def __iter__(self):
        return self._blocks

    def _count(self, block: PredictionTable) -> None:
        self.matches += int(np.count_nonzero(block.predicted1 == block.actual1))
        self.matches += int(np.count_nonzero(block.predicted2 == block.actual2))
        self.trials += len(block)


def prediction_accuracy(records) -> AccuracyEstimate:
    """Fraction of predicted_i = actual_i, pooled over both qubits, with a Wilson 95% interval.

    records is a PredictionTable, a stream of the PredictionTable blocks
    of one experiment, or a PredictionFold that a writer has taken some or
    all of its blocks through; the blocks not yet counted are counted here.
    No rows have no accuracy and raise ValueError.
    """
    fold = records if isinstance(records, PredictionFold) else PredictionFold(records)
    deque(fold, maxlen=0)  # takes the blocks left, holding none once counted
    if len(fold) < 1:
        raise ValueError("need at least 1 record to estimate prediction accuracy, got 0")
    n = 2 * len(fold)
    p = fold.matches / n
    z2 = _WILSON_Z**2
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = _WILSON_Z * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / denom
    return AccuracyEstimate(p, max(0.0, center - half), min(1.0, center + half), fold.matches, n)


def prediction_accuracy_exact(settings: Settings, readout: SequentialReadoutParams) -> float:
    """Exact pooled accuracy that prediction_accuracy of a batch converges to.

    Valid for any `steps`.  Sums the 16-branch law of (c1, c2, t1, t2)
    against P(sign = t_i | c_i), averaged over both qubits: K | c is
    binomial, and the sign rule predicts +1 iff K >= ceil(steps/2) (a zero
    mean predicts +1).
    """
    _require_same_axis(settings)
    steps = int(readout.steps)
    below = (steps - 1) // 2  # largest K with a negative mean, so predicting -1
    hit = {}  # P(sign = t | c), from the windows the batch samples K from
    for c, (lo, cdf) in zip((1, -1), _count_cdfs(steps, readout.v)):
        miss = float(cdf[min(below - lo, len(cdf) - 1)]) if below >= lo else 0.0
        hit[(c, 1)], hit[(c, -1)] = 1.0 - miss, miss
    total = 0.0
    for (c1, c2, t1, t2), p in branch_distribution(settings).items():
        total += p * (hit[(c1, t1)] + hit[(c2, t2)]) / 2.0
    return total


# ---------------------------------------------------------------------------
# The after-protocol Bell check on the Bell qubits alone


def _post_pair_laws(settings: Settings, post_select) -> list:
    """P(t1, t2) at each test-axis pair, in (0, 0), (0, 1), (1, 0), (1, 1) order.

    Each is read from the 16-branch law at coupling axes (a1, a2) and test
    axes (theta1, theta2).  Default sums out the ancilla eigenvalues (the
    non-selective coupling).  With post_select = (c1, c2), c_i in
    {-1, +1}, it takes the row of ancilla i collapsed to branch c_i and
    normalizes it, which at saturated readout is the selective Kraus branch.
    """
    if post_select is not None:
        c1, c2 = post_select
        if c1 not in (-1, 1) or c2 not in (-1, 1):
            raise ValueError(f"post_select branches must be -1 or +1, got {post_select!r}")
    laws = []
    for th1 in POST_TEST_AXES_1:
        for th2 in POST_TEST_AXES_2:
            # one (t1, t2) row per (c1, c2), both in nested (+1, -1) order
            rows = np.array(replace(settings, b1=th1, b2=th2).law).reshape(4, 4)
            if post_select is None:
                laws.append(rows.sum(axis=0))
                continue
            row = rows[2 * (c1 < 0) + (c2 < 0)]
            p = float(row.sum())
            if p < MIN_BRANCH_PROB:
                raise DegenerateBranchError(f"post-selected ancilla branch {(c1, c2)} has probability {p}")
            laws.append(row / p)
    return laws


def exact_post_protocol_chsh(settings: Settings, post_select=None) -> float:
    """Exact combination the after-protocol Bell check converges to."""
    e11, e12, e21, e22 = (float(p[0] - p[1] - p[2] + p[3]) for p in _post_pair_laws(settings, post_select))
    return e11 + e12 + e21 - e22


def post_protocol_chsh(
    settings: Settings,
    readout: SequentialReadoutParams,
    n_trials: int = 40000,
    master_seed: int = 0,
    post_select=None,
) -> ChshReport:
    """Standard projective Bell check on the Bell qubits after the protocol.

    Estimates the four correlators at the fixed test axes from n_trials
    projective trials (n_trials // 4 per axis pair, at most
    MAX_COUNT_TRIALS) of the marginal (or post-selected) pair law.  A
    pair's trials are drawn as their four (t1, t2) counts, one multinomial
    (trials._branch_counts) from pair k's one-block window of the
    after-protocol stream; no trial is formed.  A correlator's products
    are +-1, so its mean e and M2 = n (1 - e^2) come from the count of
    t1 t2 = +1, and its stderr is sqrt(M2 / (n - 1)) / sqrt(n), as of the
    products themselves.  The marginal distribution of the Bell pair is
    unchanged by how the ancillas were read out, so `readout` does not
    shift this estimate; it is accepted because post-selection is only
    defined at saturated readout, which is validated here.  The four
    correlators use disjoint trials, so their stderrs add in quadrature.
    Quadrature is exact here, with no covariance term left out; it is not
    for estimate_chsh, whose four correlators share one set of trials.
    """
    if post_select is not None and not readout.saturated:
        raise ValueError(
            "post-selection conditions on the readout collapse branch, which requires "
            f"saturated readout (steps * v^2 >= {SATURATION_THRESHOLD})"
        )
    n_per = n_trials // 4
    if n_per < 2:
        raise ValueError(f"n_trials must be >= 8 to estimate four correlators, got {n_trials}")
    u = streams.window_uniforms(master_seed, streams.POST_CHSH_STREAM, 0, 4, 1)
    estimates = []
    for law, draws in zip(_post_pair_laws(settings, post_select), u):
        agree = int(_branch_counts(law, n_per, draws)[[0, 3]].sum())  # (t1, t2) = (+1, +1) or (-1, -1)
        # n products of +-1: e = (2 agree - n) / n and M2 = n (1 - e^2) = 4 agree (n - agree) / n
        stderr = 2.0 * math.sqrt(agree * (n_per - agree) / (n_per - 1)) / n_per  # sqrt(M2 / (n - 1)) / sqrt(n)
        estimates.append(CorrelatorEstimate((2 * agree - n_per) / n_per, stderr, n_per))
    return chsh_combine(*estimates)
