"""One weak-plus-projective trial, Monte Carlo batches, and the exact oracle.

A trial: prepare a Bell pair, weakly measure qubit 1 along a1 and qubit 2
along a2 (strength V), contaminate both raw outcomes with detector noise,
projectively measure qubit 1 along b1 and qubit 2 along b2, rescale the
noisy raws by 1/V.  The four correlators E(alpha_i, beta_j) combine into
the CHSH-style statistic e11 + e12 + e21 - e22.

The trial engine does not evolve a state.  branch_distribution gives the
exact joint law of (raw1, raw2, beta1, beta2), sixteen branches, and
sample_branches draws each trial's branch from it with one uniform; two
more uniforms carry the detector noise.  This is an exact reformulation,
not an approximation: the test suite checks the law against an
independent matrix-root enumeration and against a scalar state-updating
Kraus chain.  The exact oracle reads every moment it reports from one
such law per call.

run_trial produces a single record, simulate_trials a columnar batch; both
read the same per-trial counter window, so a trial's record is identical
no matter which path, chunking, or worker count produced it.  A record
table holds one experiment: one settings id for all of its rows.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import product

import numpy as np
from scipy.special import ndtri

from . import streams
from .qubits import (
    NO_NOISE,
    NoiseModel,
    QuantumState,
    check_strength,
    concurrence,
    nonselective_weak,
    outcome_law,
    weak_kraus,
)

# Angles (radians) that maximize the ideal combination at 2*sqrt(2).
DEFAULT_A1 = 0.0
DEFAULT_A2 = math.pi / 2
DEFAULT_B1 = math.pi / 4
DEFAULT_B2 = -math.pi / 4

BELL_AMPLITUDES = {
    "phi_plus": np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "psi_minus": np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0),
}

FIELDS = ("alpha1", "alpha2", "beta1", "beta2")
# The (left, right) fields of e11, e12, e21, e22.
CHSH_PAIRS = (("alpha1", "beta1"), ("alpha1", "beta2"), ("alpha2", "beta1"), ("alpha2", "beta2"))
# The 16 (raw1, raw2, beta1, beta2) branches in nested (+1, -1) order, raw1 outermost.
BRANCHES = tuple(product((1, -1), repeat=4))

# Per-trial draw window: 1 Philox block = 4 draws, 3 consumed, in order:
# the (raw1, raw2, beta1, beta2) branch, noise raw 1, noise raw 2.
TRIAL_BLOCKS = 1
_MIN_UNIFORM = 2.0**-53  # floor before inverse-CDF so ndtri stays finite


@dataclass(frozen=True)
class Settings:
    """Axes (radians), coupling strength, noise, and Bell-state choice."""

    a1: float = DEFAULT_A1
    a2: float = DEFAULT_A2
    b1: float = DEFAULT_B1
    b2: float = DEFAULT_B2
    v: float = 1.0
    noise: NoiseModel = NO_NOISE
    bell_kind: str = "phi_plus"

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "b1", "b2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"axis angle {name} must be finite")
        check_strength(self.v)
        if self.bell_kind not in BELL_AMPLITUDES:
            raise ValueError(
                f"unknown bell_kind {self.bell_kind!r}; supported: {sorted(BELL_AMPLITUDES)}"
            )

    @property
    def settings_id(self) -> str:
        n = self.noise
        return (
            f"{self.bell_kind};a1={self.a1:.12g};a2={self.a2:.12g};"
            f"b1={self.b1:.12g};b2={self.b2:.12g};v={self.v:.12g};"
            f"bias={n.bias:.12g};sigma={n.sigma:.12g}"
        )


def default_settings(v: float, noise: NoiseModel = NO_NOISE, bell_kind: str = "phi_plus") -> Settings:
    return Settings(v=v, noise=noise, bell_kind=bell_kind)


@dataclass(frozen=True)
class TrialRecord:
    """One realization: noisy raws, rescaled alphas, binary betas."""

    trial_index: int
    raw1: float
    raw2: float
    alpha1: float
    alpha2: float
    beta1: int
    beta2: int
    settings_id: str
    seed: int


@dataclass(frozen=True)
class CorrelatorEstimate:
    value: float
    stderr: float
    count: int


@dataclass(frozen=True)
class ChshReport:
    e11: CorrelatorEstimate
    e12: CorrelatorEstimate
    e21: CorrelatorEstimate
    e22: CorrelatorEstimate
    chsh: float
    chsh_stderr: float


_I, _F = "int64", "float64"
# CSV column order and numpy dtype per field; "str" is the unquoted settings id
TRIAL_SCHEMA = (
    ("trial_index", _I), ("settings_id", "str"), ("raw1", _F), ("raw2", _F),
    ("alpha1", _F), ("alpha2", _F), ("beta1", _I), ("beta2", _I), ("seed", "uint64"),
)
_SCALARS = {"int64": int, "uint64": int, "float64": float, "str": str}


class RecordTable:
    """Column-oriented batch of the records of one experiment.

    A subclass names its `record` dataclass and its `schema`; the constructor
    takes one column per record field, in field order, each cast to its schema
    dtype.  Every array column is 1-D and as long as trial_index; settings_id
    is one str for the whole table, so a table never pools two experiments.
    """

    record: type
    schema: tuple

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.field_names = tuple(f.name for f in fields(cls.record))
        cls._kinds = tuple(dict(cls.schema)[name] for name in cls.field_names)

    def __init__(self, *columns):
        if len(columns) != len(self.field_names):
            raise TypeError(f"{type(self).__name__} takes {len(self.field_names)} columns, got {len(columns)}")
        for name, kind, col in zip(self.field_names, self._kinds, columns):
            if kind == "str" and not isinstance(col, str):
                raise TypeError(f"{name} must be one str per table, got {type(col).__name__}")
            setattr(self, name, col if kind == "str" else np.asarray(col, dtype=kind))
        shapes = {name: getattr(self, name).shape for name, kind in zip(self.field_names, self._kinds) if kind != "str"}
        if len(set(shapes.values())) != 1 or len(self.trial_index.shape) != 1:
            raise ValueError(f"every column must be 1-D and match trial_index; got shapes {shapes}")

    def __len__(self) -> int:
        return self.trial_index.shape[0]

    def row(self, i: int):
        columns = (getattr(self, name) for name in self.field_names)
        return self.record(*(c if k == "str" else _SCALARS[k](c[i]) for c, k in zip(columns, self._kinds)))

    @classmethod
    def concat(cls, parts: list):
        if not parts:
            raise ValueError("cannot concatenate zero tables")
        sid = _one_settings_id(p.settings_id for p in parts)
        return cls(
            *(sid if name == "settings_id" else np.concatenate([getattr(p, name) for p in parts]) for name in cls.field_names)
        )

    @classmethod
    def from_records(cls, records):
        """Normalize a table of this kind or an iterable of its records into a table."""
        if isinstance(records, cls):
            return records
        rows = list(records)
        if not rows:
            raise ValueError("empty record set")
        columns = {name: [getattr(r, name) for r in rows] for name in cls.field_names}
        columns["settings_id"] = _one_settings_id(columns["settings_id"])
        return cls(*columns.values())


def _one_settings_id(ids) -> str:
    """The one settings id of a record set; a second id is malformed input."""
    distinct = set(ids)
    if len(distinct) > 1:
        raise ValueError(f"malformed records: {len(distinct)} distinct settings ids in one record set")
    return distinct.pop()


class TrialTable(RecordTable):
    """Column-oriented batch of trial records."""

    record = TrialRecord
    schema = TRIAL_SCHEMA

    def column(self, name: str) -> np.ndarray:
        if name not in FIELDS:
            raise ValueError(f"unknown field {name!r}; choose one of {FIELDS}")
        return getattr(self, name).astype(float, copy=False)


def as_table(records) -> TrialTable:
    """Normalize a TrialTable or an iterable of TrialRecord into a table."""
    return TrialTable.from_records(records)


def prepare_bell(kind: str) -> QuantumState:
    """Two-qubit Bell state: phi_plus = (|00>+|11>)/sqrt2 or psi_minus = (|01>-|10>)/sqrt2."""
    if kind not in BELL_AMPLITUDES:
        raise ValueError(f"unknown bell_kind {kind!r}; supported: {sorted(BELL_AMPLITUDES)}")
    return QuantumState.from_amplitudes(BELL_AMPLITUDES[kind])


# ---------------------------------------------------------------------------
# Trial engine: sample the exact branch law


def sample_branches(probs, u: np.ndarray, outcomes: int) -> tuple:
    """Draw joint +-1 outcomes from their pmf, one draw per entry of u.

    probs holds the 2**outcomes branch probabilities in nested (+1, -1)
    order, first outcome outermost.  Branch k is the first whose cumulative
    probability exceeds u; negative round-off is clipped to 0, and a u past
    the last cumulative value goes to the last branch of positive
    probability, so a branch of probability 0 is never returned.  Returns
    one int64 array of +-1 per outcome.
    """
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    last = int(np.flatnonzero(probs)[-1])
    idx = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), last)
    return tuple(1 - 2 * ((idx >> (outcomes - 1 - k)) & 1) for k in range(outcomes))


def _noisy(raw: np.ndarray, noise: NoiseModel, u: np.ndarray) -> np.ndarray:
    g = ndtri(np.maximum(u, _MIN_UNIFORM)) if noise.sigma > 0.0 else 0.0
    return raw + noise.bias + noise.sigma * g


def _simulate_range(settings: Settings, start: int, count: int, master_seed: int) -> TrialTable:
    """Trials [start, start+count) of the stream owned by master_seed."""
    u = streams.window_uniforms(master_seed, streams.TRIAL_STREAM, start, count, TRIAL_BLOCKS)
    probs = list(branch_distribution(settings).values())
    raw1, raw2, beta1, beta2 = sample_branches(probs, u[:, 0], 4)
    noisy1 = _noisy(raw1.astype(float), settings.noise, u[:, 1])
    noisy2 = _noisy(raw2.astype(float), settings.noise, u[:, 2])

    index = np.arange(start, start + count, dtype=np.int64)
    return TrialTable(
        index,
        noisy1,
        noisy2,
        noisy1 / settings.v,
        noisy2 / settings.v,
        beta1,
        beta2,
        settings.settings_id,
        streams.derived_seed(master_seed, index),
    )


def run_chunked(task, n_trials: int, start: int, chunk: int, workers: int):
    """Concatenate task(chunk_start, count) over the chunks of [start, start + n_trials).

    With workers > 1 the chunks run in a process pool of at most one worker
    per chunk; parts are joined in chunk order, so the result is the same
    for every chunk size and worker count.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    starts = range(start, start + n_trials, chunk)
    counts = [min(chunk, start + n_trials - s) for s in starts]
    if workers > 1 and len(starts) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            parts = list(pool.map(task, starts, counts))
    else:
        parts = list(map(task, starts, counts))
    return parts[0] if len(parts) == 1 else type(parts[0]).concat(parts)


def run_trial(settings: Settings, trial_index: int, master_seed: int) -> TrialRecord:
    """One trial, fully determined by (master_seed, trial_index)."""
    return _simulate_range(settings, trial_index, 1, master_seed).row(0)


def simulate_trials(
    settings: Settings,
    n_trials: int,
    master_seed: int,
    start: int = 0,
    workers: int = 1,
    chunk: int = 1 << 16,
) -> TrialTable:
    """Monte Carlo batch of trials [start, start + n_trials).

    Chunked over the per-trial counter windows; results are identical for
    every chunk size and worker count.
    """
    return run_chunked(partial(_simulate_range, settings, master_seed=master_seed), n_trials, start, chunk, workers)


# ---------------------------------------------------------------------------
# Estimation


def estimate_correlator(records, left: str, right: str) -> CorrelatorEstimate:
    """Sample mean and stderr of the product of two record fields."""
    table = as_table(records)
    n = len(table)
    if n < 2:
        raise ValueError(f"need at least 2 records to estimate a correlator, got {n}")
    products = table.column(left) * table.column(right)
    value = float(products.mean())
    stderr = float(products.std(ddof=1) / math.sqrt(n))
    return CorrelatorEstimate(value=value, stderr=stderr, count=n)


def chsh_combine(
    e11: CorrelatorEstimate,
    e12: CorrelatorEstimate,
    e21: CorrelatorEstimate,
    e22: CorrelatorEstimate,
) -> ChshReport:
    """Combine the four correlators with signature (+, +, +, -)."""
    chsh = e11.value + e12.value + e21.value - e22.value
    stderr = math.sqrt(e11.stderr**2 + e12.stderr**2 + e21.stderr**2 + e22.stderr**2)
    return ChshReport(e11=e11, e12=e12, e21=e21, e22=e22, chsh=chsh, chsh_stderr=stderr)


def estimate_chsh(records) -> ChshReport:
    table = as_table(records)
    return chsh_combine(*(estimate_correlator(table, left, right) for left, right in CHSH_PAIRS))


# ---------------------------------------------------------------------------
# Exact oracle: enumerate both weak and both projective outcomes (16 branches)


def branch_distribution(settings: Settings) -> dict:
    """Joint pmf of (raw1, raw2, beta1, beta2) before detector noise.

    Sixteen branches: the Bell state's density operator is conditioned
    through weak Kraus updates on both qubits, then eigenprojections on both
    qubits.  Keys come in nested (+1, -1) order, raw1 outermost, which is
    the order sample_branches takes; the trial engine samples this law
    directly.  Probabilities sum to 1.
    """
    steps = (
        (0, weak_kraus(settings.v, settings.a1)),
        (1, weak_kraus(settings.v, settings.a2)),
        (0, weak_kraus(1.0, settings.b1)),
        (1, weak_kraus(1.0, settings.b2)),
    )
    probs = outcome_law(prepare_bell(settings.bell_kind).density(), steps)
    return dict(zip(BRANCHES, probs.tolist()))


def _exact_moments(settings: Settings, products) -> list:
    """E[product of the named fields], per tuple of FIELDS names, all from one 16-branch law.

    Row k of the 16x4 value matrix holds branch k's noiseless FIELDS values,
    the alphas rescaled by 1/V after the detector bias is added.  The noise
    is independent and zero-mean, so it drops out of every moment except a
    squared alpha, which gains (sigma / V)^2.  Sums run term by term in
    branch order, so no reordered (pairwise or BLAS) sum moves a moment's
    last bit.
    """
    unknown = sorted({name for names in products for name in names} - set(FIELDS))
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}; choose one of {FIELDS}")
    probs = list(branch_distribution(settings).values())
    values = np.array(BRANCHES, dtype=float)
    values[:, :2] = (values[:, :2] + settings.noise.bias) / settings.v
    moments = []
    for cols in ([FIELDS.index(name) for name in names] for names in products):
        total = 0.0
        for p, x in zip(probs, values[:, cols].prod(axis=1).tolist()):
            total += p * x
        if len(cols) == 2 and cols[0] == cols[1] < 2:
            total += (settings.noise.sigma / settings.v) ** 2
        moments.append(total)
    return moments


def exact_correlator(settings: Settings, left: str, right: str) -> float:
    """E[left * right] from the 16-branch law; no sampling.

    Detector noise enters analytically: independent zero-mean Gaussians drop
    out of cross moments, bias shifts alpha means, and the same-field alpha
    second moment picks up sigma^2.  Rescaling by 1/V is applied to alphas.
    """
    return _exact_moments(settings, [(left, right)])[0]


def exact_mean(settings: Settings, field: str) -> float:
    """E[field] from the 16-branch law (alphas include bias/V)."""
    return _exact_moments(settings, [(field,)])[0]


def exact_chsh(settings: Settings) -> float:
    """Exact e11 + e12 + e21 - e22 for the alpha_i x beta_j pairing, from one law."""
    e11, e12, e21, e22 = _exact_moments(settings, CHSH_PAIRS)
    return e11 + e12 + e21 - e22


def chsh_curve(settings: Settings, v_grid) -> list:
    """Exact combination per coupling strength, as (v, chsh) pairs."""
    grid = [check_strength(v) for v in v_grid]
    if not grid:
        raise ValueError("v grid must be nonempty")
    return [(v, exact_chsh(replace(settings, v=v))) for v in grid]


# ---------------------------------------------------------------------------
# Residual entanglement after outcome-averaged coupling


def coupled_state(v: float, axis1: float, axis2: float, bell_kind: str = "phi_plus") -> QuantumState:
    """Bell pair after non-selective weak measurement of both qubits."""
    state = prepare_bell(bell_kind)
    state = nonselective_weak(state, 0, axis1, v)
    return nonselective_weak(state, 1, axis2, v)


def entanglement_curve(v_grid, axis: float = 0.0, bell_kind: str = "phi_plus") -> list:
    """Concurrence after symmetric coupling (both qubits, one shared axis).

    Returns (v, concurrence) pairs. With a common axis the curve is 1 - v^2:
    1 in the v -> 0 limit, strictly positive below v = 1.
    """
    grid = [check_strength(v) for v in v_grid]
    if not grid:
        raise ValueError("v grid must be nonempty")
    return [(v, concurrence(coupled_state(v, axis, axis, bell_kind))) for v in grid]
