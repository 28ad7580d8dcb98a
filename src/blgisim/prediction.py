"""Predicting projective Bell outcomes from sequentially read ancillas.

Protocol per trial: couple an ancilla to each Bell qubit along the very
axis that will later be tested projectively (strength V = settings.v),
read each ancilla out through a long sequence of very weak z measurements
(strength v = readout.v, `steps` repetitions), average the readouts, and
predict the later projective outcome from the sign of that average.

Because the coupling and the projective test share an axis, every
operation on the Bell side is diagonal in the same eigenbasis, so the
joint distribution factors exactly: the projective outcome pair (t1, t2)
follows the Born rule of the undisturbed Bell state, and conditioned on
t_i the ancilla is a z-diagonal qubit with <sigma_z> = m0 = t_i * V.

A weak z readout of a z-diagonal ancilla is a classical Bayes filter on
its hidden eigenvalue c = +-1: the conditioned update
m' = (m + o v)/(1 + o v m) is exactly the posterior mean of c.  So the
readout sequence has an exact two-stage law: c = +1 with probability
(1 + m0)/2, then the count K of +1 outcomes is Binomial(steps,
(1 + c v)/2), and the trajectory mean is (2K - steps)/steps.  The batch
engine samples that law with two draws per ancilla (one picks c, one
inverts the binomial CDF for K).  It is not a shortcut around the
physics but an exact reformulation; the test suite checks it against
enumeration of the Kraus readout sequence and against the scalar
step-by-step route.

At saturated readout (steps * v^2 >= 25) the readout sign recovers the
ancilla eigenbranch almost surely, so prediction accuracy approaches
(1 + V)/2: perfect at V = 1, coin-flip as V -> 0.  For any `steps`,
prediction_accuracy_exact gives the accuracy the batch converges to.  The
complementary post_protocol_chsh shows what the coupling costs: the Bell
pair's own violation decays toward the classical bound as V grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.special import bdtr, bdtrc

from . import streams
from .qubits import (
    MIN_BRANCH_PROB,
    DegenerateBranchError,
    QuantumState,
    axis_projectors,
    check_strength,
    lift1,
    weak_kraus,
)
from .trials import (
    ChshReport,
    CorrelatorEstimate,
    RecordTable,
    Settings,
    chsh_combine,
    coupled_state,
    prepare_bell,
    run_chunked,
    sample_branches,
)

SATURATION_THRESHOLD = 25.0  # steps * v^2 at which readout is treated as saturated

# Cap on the readout length: each (steps, v) builds two (steps + 1)-entry CDF
# tables, 80 MB each at the cap.
MAX_STEPS = 10**7

# Projective test axes for the after-protocol Bell check (radians):
# qubit 1 in {0, pi/2}, qubit 2 in {pi/4, -pi/4} maximize the ideal combination.
POST_TEST_AXES_1 = (0.0, math.pi / 2)
POST_TEST_AXES_2 = (math.pi / 4, -math.pi / 4)

_WILSON_Z = 1.959963984540054  # two-sided 95%

# Outcome pairs in the nested (+1, -1) order of trials.sample_branches.
_BRANCHES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class SequentialReadoutParams:
    """Per-step strength and length of the ancilla readout sequence."""

    v: float
    steps: int

    def __post_init__(self) -> None:
        check_strength(self.v)
        if int(self.steps) != self.steps or not 1 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be an integer in [1, {MAX_STEPS}], got {self.steps}")

    @property
    def saturated(self) -> bool:
        return self.steps * self.v**2 >= SATURATION_THRESHOLD


@dataclass(frozen=True)
class PredictionRecord:
    trial_index: int
    trajectory_mean1: float
    trajectory_mean2: float
    predicted1: int
    predicted2: int
    actual1: int
    actual2: int
    settings_id: str
    seed: int


@dataclass(frozen=True)
class AccuracyEstimate:
    """Pooled match fraction with a Wilson 95% interval."""

    accuracy: float
    ci_low: float
    ci_high: float
    matches: int
    count: int


# CSV column order and numpy dtype per field; "str" is the unquoted settings id
PREDICTION_SCHEMA = (
    ("trial_index", "int64"), ("settings_id", "str"),
    ("trajectory_mean1", "float64"), ("trajectory_mean2", "float64"),
    ("predicted1", "int64"), ("predicted2", "int64"), ("actual1", "int64"), ("actual2", "int64"),
    ("seed", "uint64"),
)


class PredictionTable(RecordTable):
    """Column-oriented batch of prediction records."""

    record = PredictionRecord
    schema = PREDICTION_SCHEMA


def as_prediction_table(records) -> PredictionTable:
    return PredictionTable.from_records(records)


def predict(mean: float) -> int:
    """Sign rule for a trajectory mean; exact zero breaks to +1."""
    return -1 if mean < 0 else 1


def prediction_settings(v: float) -> Settings:
    """Same-axis protocol settings: couple and test along z and x."""
    return Settings(a1=0.0, a2=math.pi / 2, b1=0.0, b2=math.pi / 2, v=v)


# ---------------------------------------------------------------------------
# Batch engine


def _pair_probs(rho: np.ndarray, th1: float, th2: float) -> np.ndarray:
    """P(t1, t2) of projective tests along (th1, th2) on state rho, in _BRANCHES order."""
    plus1, minus1 = axis_projectors(th1)
    plus2, minus2 = axis_projectors(th2)
    pick1 = {1: plus1, -1: minus1}
    pick2 = {1: plus2, -1: minus2}
    probs = np.array(
        [float(np.trace(np.kron(pick1[t1], pick2[t2]) @ rho).real) for t1, t2 in _BRANCHES]
    )
    return np.clip(probs, 0.0, 1.0)


@lru_cache(maxsize=8)
def _count_cdfs(steps: int, v: float) -> tuple:
    """Read-only tables F_c(k) = P(K <= k | c), k = 0..steps, for c = +1 and c = -1.

    K | c ~ Binomial(steps, (1 + c v)/2) counts the +1 readout outcomes.
    """
    k = np.arange(steps + 1)
    tables = tuple(bdtr(k, steps, (1.0 + c * v) / 2.0) for c in (1, -1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _readout_means(m0: np.ndarray, readout: SequentialReadoutParams, u: np.ndarray) -> np.ndarray:
    """Trajectory means of z-readout sequences on z-diagonal ancillas.

    m0 holds each ancilla's initial <sigma_z>; row i of u is trial i's
    block.  Draw 0 picks the eigenvalue c = +1 iff u0 < (1 + m0)/2; draw 1
    picks K = min{k : F_c(k) > u1}.  Returns (2K - steps)/steps.
    """
    steps = int(readout.steps)
    cdf_plus, cdf_minus = _count_cdfs(steps, readout.v)
    k = np.where(
        u[:, 0] < (1.0 + m0) / 2.0,
        np.searchsorted(cdf_plus, u[:, 1], side="right"),
        np.searchsorted(cdf_minus, u[:, 1], side="right"),
    )
    return (2 * k - steps) / steps


def _predict_range(
    settings: Settings, readout: SequentialReadoutParams, start: int, count: int, master_seed: int
) -> PredictionTable:
    probs = _pair_probs(prepare_bell(settings.bell_kind).density(), settings.b1, settings.b2)
    u_bell = streams.window_uniforms(master_seed, streams.PREDICT_BELL_STREAM, start, count, 1)
    t1, t2 = sample_branches(probs, u_bell[:, 0], 2)

    u1 = streams.window_uniforms(master_seed, streams.PREDICT_ANCILLA1_STREAM, start, count, 1)
    mean1 = _readout_means(t1 * settings.v, readout, u1)
    u2 = streams.window_uniforms(master_seed, streams.PREDICT_ANCILLA2_STREAM, start, count, 1)
    mean2 = _readout_means(t2 * settings.v, readout, u2)

    index = np.arange(start, start + count, dtype=np.int64)
    return PredictionTable(
        index,
        mean1,
        mean2,
        np.where(mean1 < 0, -1, 1),
        np.where(mean2 < 0, -1, 1),
        t1,
        t2,
        settings.settings_id,
        streams.derived_seed(master_seed, index),
    )


def _require_same_axis(settings: Settings) -> None:
    if settings.a1 != settings.b1 or settings.a2 != settings.b2:
        raise ValueError(
            "prediction protocol requires coupling axes equal to projective axes "
            f"(a1={settings.a1}, b1={settings.b1}, a2={settings.a2}, b2={settings.b2})"
        )


def run_prediction_experiment(
    settings: Settings, readout: SequentialReadoutParams, trial_index: int, master_seed: int
) -> PredictionRecord:
    """One prediction trial, fully determined by (master_seed, trial_index).

    settings.v is the system-ancilla coupling strength; settings must have
    a_i = b_i (the protocol couples along the axes to be tested).  Detector
    noise in settings is not part of this protocol and is ignored.
    """
    _require_same_axis(settings)
    return _predict_range(settings, readout, trial_index, 1, master_seed).row(0)


def prediction_batch(
    settings: Settings,
    readout: SequentialReadoutParams,
    n_trials: int,
    master_seed: int,
    start: int = 0,
    workers: int = 1,
    chunk: int = 2048,
) -> PredictionTable:
    """Batch of prediction trials [start, start + n_trials), chunked.

    Identical output for every chunk size and worker count.
    """
    _require_same_axis(settings)
    task = partial(_predict_range, settings, readout, master_seed=master_seed)
    return run_chunked(task, n_trials, start, chunk, workers)


def prediction_accuracy(records) -> AccuracyEstimate:
    """Fraction of predicted_i = actual_i, pooled over both qubits."""
    table = as_prediction_table(records)
    n = 2 * len(table)
    matches = int((table.predicted1 == table.actual1).sum()) + int(
        (table.predicted2 == table.actual2).sum()
    )
    p = matches / n
    z2 = _WILSON_Z**2
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = _WILSON_Z * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / denom
    return AccuracyEstimate(
        accuracy=p,
        ci_low=max(0.0, center - half),
        ci_high=min(1.0, center + half),
        matches=matches,
        count=n,
    )


def prediction_accuracy_exact(settings: Settings, readout: SequentialReadoutParams) -> float:
    """Exact pooled accuracy that prediction_accuracy of a batch converges to.

    Valid for any `steps`.  Given the projective outcome t, the ancilla
    eigenvalue is c = t with probability (1 + V)/2, K | c is binomial, and
    the sign rule predicts +1 iff K >= ceil(steps/2) (a zero mean predicts
    +1).  t_i follows the Bell pair's projective marginal; the result is
    averaged over both qubits.
    """
    _require_same_axis(settings)
    steps = int(readout.steps)
    below = (steps - 1) // 2  # largest K with a negative mean, so predicting -1

    def hit(t: int) -> float:
        """P(prediction = t | projective outcome t)."""
        total = 0.0
        for c in (1, -1):
            p = (1.0 + c * readout.v) / 2.0
            tail = bdtrc(below, steps, p) if t > 0 else bdtr(below, steps, p)
            total += (1.0 + c * t * settings.v) / 2.0 * float(tail)
        return total

    probs = _pair_probs(prepare_bell(settings.bell_kind).density(), settings.b1, settings.b2)
    plus = (2.0 * probs[0] + probs[1] + probs[2]) / 2.0  # P(t_i = +1), averaged over i
    return float(plus * hit(1) + (1.0 - plus) * hit(-1))


# ---------------------------------------------------------------------------
# The after-protocol Bell check on the Bell qubits alone


def post_coupling_state(settings: Settings, post_select=None) -> QuantumState:
    """Bell pair after ancilla coupling along (a1, a2) at strength settings.v.

    Default marginalizes the ancilla record (non-selective channel).  With
    post_select = (c1, c2), c_i in {-1, +1}, the state is instead
    conditioned on ancilla i having collapsed to branch c_i, which at
    saturated readout applies the selective Kraus branch.
    """
    if post_select is None:
        return coupled_state(settings.v, settings.a1, settings.a2, settings.bell_kind)
    c1, c2 = post_select
    if c1 not in (-1, 1) or c2 not in (-1, 1):
        raise ValueError(f"post_select branches must be -1 or +1, got {post_select!r}")
    rho = prepare_bell(settings.bell_kind).density()
    for qubit, axis, c in ((0, settings.a1, c1), (1, settings.a2, c2)):
        big = lift1(weak_kraus(settings.v, axis).operator(c), qubit, 2)
        rho = big @ rho @ big.conj().T
        p = float(np.trace(rho).real)
        if p < MIN_BRANCH_PROB:
            raise DegenerateBranchError(f"post-selected branch {c} on qubit {qubit} has probability {p}")
        rho = rho / p
    return QuantumState.from_density((rho + rho.conj().T) / 2.0)


def exact_post_protocol_chsh(settings: Settings, post_select=None) -> float:
    """Exact combination the after-protocol Bell check converges to."""
    rho = post_coupling_state(settings, post_select).density()
    corr = {}
    for i, th1 in enumerate(POST_TEST_AXES_1):
        for j, th2 in enumerate(POST_TEST_AXES_2):
            probs = _pair_probs(rho, th1, th2)
            corr[(i, j)] = float(sum(t1 * t2 * p for (t1, t2), p in zip(_BRANCHES, probs)))
    return corr[(0, 0)] + corr[(0, 1)] + corr[(1, 0)] - corr[(1, 1)]


def post_protocol_chsh(
    settings: Settings,
    readout: SequentialReadoutParams,
    n_trials: int = 40000,
    master_seed: int = 0,
    post_select=None,
) -> ChshReport:
    """Standard projective Bell check on the Bell qubits after the protocol.

    Estimates the four correlators at the fixed test axes from n_trials
    projective samples (n_trials // 4 per axis pair) of the marginal
    (or post-selected) coupled state.  The marginal distribution of the
    Bell pair is unchanged by how the ancillas were read out, so `readout`
    does not shift this estimate; it is accepted because post-selection is
    only defined at saturated readout, which is validated here.
    """
    if post_select is not None and not readout.saturated:
        raise ValueError(
            "post-selection conditions on the readout collapse branch, which requires "
            f"saturated readout (steps * v^2 >= {SATURATION_THRESHOLD})"
        )
    n_per = n_trials // 4
    if n_per < 2:
        raise ValueError(f"n_trials must be >= 8 to estimate four correlators, got {n_trials}")
    rho = post_coupling_state(settings, post_select).density()
    estimates = {}
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        probs = _pair_probs(rho, POST_TEST_AXES_1[i], POST_TEST_AXES_2[j])
        u = streams.window_uniforms(master_seed, streams.POST_CHSH_STREAM, k * n_per, n_per, 1)
        t1, t2 = sample_branches(probs, u[:, 0], 2)
        products = (t1 * t2).astype(float)
        estimates[(i, j)] = CorrelatorEstimate(
            value=float(products.mean()),
            stderr=float(products.std(ddof=1) / math.sqrt(n_per)),
            count=n_per,
        )
    return chsh_combine(estimates[(0, 0)], estimates[(0, 1)], estimates[(1, 0)], estimates[(1, 1)])
