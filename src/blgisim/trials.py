"""One weak-plus-projective trial, Monte Carlo batches, and the exact oracle.

A trial: prepare a Bell pair, weakly measure qubit 1 along a1 and qubit 2
along a2 (strength V), contaminate both raw outcomes with detector noise,
projectively measure qubit 1 along b1 and qubit 2 along b2, rescale the
noisy raws by 1/V.  The four correlators E(alpha_i, beta_j) combine into
the CHSH-style statistic e11 + e12 + e21 - e22.

Every source of trials is a law on the sixteen (A1, A2, B1, B2) BRANCHES
plus detector noise: weak channel i reports raw_i = raw_scale * A_i +
bias + sigma * g_i and alpha_i = raw_i / V.  A Settings is the quantum
source, whose law is branch_distribution and whose raw_scale is 1; a
Source holds any other law, such as audit.hidden_variable_source.  The
quantum law is a real bilinear form: branch (r1, r2, beta1, beta2) has
probability e1 . T e2 / 16, where e_i holds the Pauli coefficients of
qubit i's weak-then-projective effect for (r_i, beta_i) and T is the
pair's real 4x4 Pauli correlation matrix, so no complex arithmetic is
done.  No state is evolved: sample_branches draws each trial's branch with
one uniform, and two more carry the noise through _ndtri, a numpy port of
the cephes inverse normal CDF whose tail logs are _log, fdlibm's log in
numpy arithmetic, so a noisy record has the same bits on every platform.
The tests check the quantum law against the dense complex-state Born rule
of tests/reference.py, an independent matrix-root enumeration and a
scalar Kraus chain.  The exact oracle reads every moment it reports by
index from one 5x5 moment matrix E[u u^T], u = (1, alpha1, alpha2, beta1,
beta2), summed over the 16 branches in branch order.  The detector noise
model and the coupling-strength check live here too.

trial_chunks gives trials [start, start + n) as a stream of chunks of
_TRIAL_CHUNK trials (chunk_stream, which prediction.prediction_chunks
shares), the one route by which sampled trials leave this module: a
caller folds or writes each chunk as it arrives, and no join of the
stream into one table is kept.  Each trial reads its own counter window,
so its row is identical no matter which start, chunk or worker count
produced it, and a single trial i is the one chunk of
trial_chunks(source, 1, seed, start=i).  A TrialTable holds
one experiment: the columns its record file stores (trial_index, raw_i,
beta_i) and the scalars its header stores (settings id, V, master seed).
alpha_i = raw_i / V is computed from them on access.

estimate_chsh (through ChshFold, which can also fold a stream as it passes
to a writer) folds a table, or a stream of its blocks, FOLD_ROWS rows at
a time into ChshMoments, the mergeable count, mean and M2 of the per-trial
term x = alpha1 (beta1 + beta2) + alpha2 (beta1 - beta2) and of the four
correlator products.  S is the mean of x and its standard error that of
x, because the four correlators share their trials.

Without noise a trial's terms depend only on its branch, so _count_moments
gives the ChshMoments of a noise-free source's trials from their 16 branch
counts, which _branch_counts draws as one multinomial of any law: a
conditional binomial per branch, each one uniform of the caller's window
inverted on _binomial_window, the nonzero window of the binomial pmf
(prediction inverts the same windows for its readout counts).  The sweep
uses it, and so does prediction's after-protocol Bell check for the four
outcome counts of each axis pair, so neither forms a trial; sample_branches
draws trial by trial only for the two samplers of record tables.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from . import streams

# Angles (radians) that maximize the ideal combination at 2*sqrt(2).
DEFAULT_A1 = 0.0
DEFAULT_A2 = math.pi / 2
DEFAULT_B1 = math.pi / 4
DEFAULT_B2 = -math.pi / 4

# Each Bell state's real Pauli correlation matrix T[j, k] = <P_j (x) P_k>,
# P = (I, X, Y, Z): phi_plus = (|00> + |11>)/sqrt2, psi_minus = (|01> - |10>)/sqrt2.
BELL_CORRELATIONS = {
    "phi_plus": np.diag([1.0, 1.0, -1.0, 1.0]),
    "psi_minus": np.diag([1.0, -1.0, -1.0, -1.0]),
}

FIELDS = ("alpha1", "alpha2", "beta1", "beta2")
# The (left, right) fields of e11, e12, e21, e22.
CHSH_PAIRS = (("alpha1", "beta1"), ("alpha1", "beta2"), ("alpha2", "beta1"), ("alpha2", "beta2"))
# The 16 (raw1, raw2, beta1, beta2) branches in nested (+1, -1) order, raw1 outermost.
BRANCHES = tuple(product((1, -1), repeat=4))

# Rows per block of the CHSH fold.  Fixed, so that an estimate has the same
# bits however its rows arrive: as one table, or as the blocks a record file
# is read in (records reads blocks of this size).  A block's five terms take
# 320 KiB, so a streamed audit stays a few MiB whatever the file's size.
FOLD_ROWS = 1 << 13

# Per-trial draw window: 1 Philox block = 4 draws, 3 consumed, in order:
# the (raw1, raw2, beta1, beta2) branch, noise raw 1, noise raw 2.
TRIAL_BLOCKS = 1
_MIN_UNIFORM = 2.0**-53  # floor before inverse-CDF so _ndtri stays finite

# Coefficients of cephes ndtri, highest power first: P0/Q0 on the centre band
# exp(-2) < u <= 1 - exp(-2); in the tails, on z = 1/x with
# x = sqrt(-2 log y), P1/Q1 for x < 8 and P2/Q2 for x >= 8.  Each Q's
# leading 1 is implicit.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
# fdlibm's __ieee754_log: ln 2 split so that k * _LN2_HI is exact for any
# double's exponent k, and Lg1..Lg7 of its polynomial in s^2.
_SQRT_HALF = 0.70710678118654752440
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LG = (6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
       2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
       1.479819860511658591e-01)


# Smallest probability of a branch that a caller may condition on.
MIN_BRANCH_PROB = 1e-15
# How far a Source law's entries may fall below 0, and its sum stray from 1,
# by round-off; sample_branches clips such a negative entry to 0.
LAW_TOLERANCE = 1e-12


class DegenerateBranchError(RuntimeError):
    """A measurement branch to condition on has probability below MIN_BRANCH_PROB."""


def check_strength(v: float) -> float:
    """Validate a coupling strength; v = 1 is projective coupling."""
    v = float(v)
    if not 0.0 < v <= 1.0:
        raise ValueError(f"coupling strength must lie in (0, 1], got {v}")
    return v


@dataclass(frozen=True)
class NoiseModel:
    """Additive detector noise on the raw ancilla signal.

    bias shifts the mean; sigma is a Gaussian standard deviation. Applied
    before 1/V rescaling (raw-side convention).
    """

    bias: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError(f"noise sigma must be >= 0, got {self.sigma}")
        if not (np.isfinite(self.bias) and np.isfinite(self.sigma)):
            raise ValueError("noise parameters must be finite")

    @property
    def active(self) -> bool:
        return self.bias != 0.0 or self.sigma != 0.0


NO_NOISE = NoiseModel()


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

    raw_scale = 1.0  # a class attribute, not a field: raw_i = A_i + noise

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "b1", "b2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"axis angle {name} must be finite")
        check_strength(self.v)
        if self.bell_kind not in BELL_CORRELATIONS:
            raise ValueError(
                f"unknown bell_kind {self.bell_kind!r}; supported: {sorted(BELL_CORRELATIONS)}"
            )

    @property
    def settings_id(self) -> str:
        n = self.noise
        return (
            f"{self.bell_kind};a1={self.a1:.12g};a2={self.a2:.12g};"
            f"b1={self.b1:.12g};b2={self.b2:.12g};v={self.v:.12g};"
            f"bias={n.bias:.12g};sigma={n.sigma:.12g}"
        )

    @property
    def law(self) -> tuple:
        """branch_distribution's 16 probabilities, in BRANCHES order."""
        return tuple(branch_distribution(self).values())


@dataclass(frozen=True)
class Source:
    """A law on the 16 BRANCHES, in their order, plus detector noise: raw_i = raw_scale * A_i + noise."""

    settings_id: str
    law: tuple
    v: float
    noise: NoiseModel = NO_NOISE
    raw_scale: float = 1.0

    def __post_init__(self) -> None:
        check_strength(self.v)
        if len(self.law) != len(BRANCHES):
            raise ValueError(f"a source law has {len(BRANCHES)} branch probabilities, got {len(self.law)}")
        law = np.asarray(self.law, dtype=float)
        if not (np.isfinite(law).all() and law.min() >= -LAW_TOLERANCE and abs(math.fsum(law) - 1.0) <= LAW_TOLERANCE):
            raise ValueError(
                f"the law of source {self.settings_id!r} is not 16 finite probabilities >= 0 that sum to 1 "
                f"(to within {LAW_TOLERANCE:g}): {self.law}"
            )


def default_settings(v: float, noise: NoiseModel = NO_NOISE, bell_kind: str = "phi_plus") -> Settings:
    return Settings(v=v, noise=noise, bell_kind=bell_kind)


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
# a trial record's columns, in CSV order, with their numpy dtypes
TRIAL_SCHEMA = (("trial_index", _I), ("raw1", _F), ("raw2", _F), ("beta1", _I), ("beta2", _I))


_INTEGER, _NUMBER = (int, np.integer), (int, float)


def _typed(value, kinds: tuple, name: str):
    """value, if it is one of kinds and not a bool (JSON's true and false read as Python ints)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {'an integer' if kinds is _INTEGER else 'a number'}, got {value!r}")
    return value


def _check_settings_id(settings_id) -> str:
    if not isinstance(settings_id, str):
        raise TypeError(f"settings_id must be one str per table, got {type(settings_id).__name__}")
    return settings_id


def _check_seed(master_seed) -> int:
    if not 0 <= _typed(master_seed, _INTEGER, "master_seed") < 2**64:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed!r}")
    return int(master_seed)


def _check_v(v) -> float:
    return check_strength(_typed(v, _NUMBER, "coupling strength"))


class RecordTable:
    """Column-oriented batch of the records of one experiment.

    A subclass names its `schema` of (name, kind) columns and its
    `scalar_checks`: the experiment's values that every row shares,
    settings_id among them, each with the check that validates it and
    returns the value to store.  field_names are the schema's names and
    scalars the checks' names.  The constructor takes one column per name,
    in schema (CSV) order, each cast to its kind's dtype, and each scalar by
    keyword.  Every column is 1-D and as long as trial_index; settings_id is
    one str for the whole table, so a table never pools two experiments.
    """

    schema: tuple
    scalar_checks: dict

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.field_names = tuple(name for name, _ in cls.schema)
        cls.scalars = tuple(cls.scalar_checks)

    def __init__(self, *columns, **scalars):
        table = type(self).__name__
        if len(columns) != len(self.schema):
            raise TypeError(f"{table} takes {len(self.schema)} columns, got {len(columns)}")
        if sorted(scalars) != sorted(self.scalars):
            raise TypeError(f"{table} takes the scalars {sorted(self.scalars)}, got {sorted(scalars)}")
        self.__dict__.update({name: check(scalars[name]) for name, check in self.scalar_checks.items()})
        for (name, kind), col in zip(self.schema, columns):
            setattr(self, name, np.asarray(col, dtype=kind))
        shapes = {name: getattr(self, name).shape for name in self.field_names}
        if len(set(shapes.values())) != 1 or len(self.trial_index.shape) != 1:
            raise ValueError(f"every column must be 1-D and match trial_index; got shapes {shapes}")

    def __len__(self) -> int:
        return self.trial_index.shape[0]


def _one_experiment(records, cls: type, *visits):
    """The blocks of records, a cls table (a stream of one block) or an
    iterable of cls tables, each yielded once it is a cls that holds the
    first block's scalars and each of visits has been called on it.

    This is the one check that blocks are one experiment: the folds, the
    writers and the audit pass what they are given through it, so a stream
    of the blocks of two experiments raises at the first block of the
    second.  Anything else raises TypeError, named by its type, or for an
    iterable by the type of the block that is no cls.  The folds and the
    audit's checks ride along as visits, so this is the one generator of
    their chains, and it lets each block go before it takes the next.
    """
    scalars = None
    # a table is not iterable, so it is a stream of one block, as is anything else that is not, to be named
    for block in records if isinstance(records, Iterable) else (records,):
        if not isinstance(block, cls):
            raise TypeError(f"expected a {cls.__name__}, got {type(block).__name__}")
        if scalars is None:
            scalars = {name: getattr(block, name) for name in cls.scalars}
        for name, value in scalars.items():
            if getattr(block, name) != value:
                raise ValueError(
                    f"malformed records: a block of {name} {getattr(block, name)!r} in a stream of {name} {value!r}"
                )
        for visit in visits:
            visit(block)
        yield block
        del block  # let go before the next block is made, so a stream holds one block at a time


class TrialTable(RecordTable):
    """Column-oriented batch of trial records at coupling strength v, from
    the stream of master_seed; alpha_i = raw_i / v is computed on access."""

    schema = TRIAL_SCHEMA
    scalar_checks = {"settings_id": _check_settings_id, "v": _check_v, "master_seed": _check_seed}

    def _rescaled(self, raw: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # an alpha past the float range is inf, which audit rejects
            return raw / self.v

    alpha1 = property(lambda self: self._rescaled(self.raw1))
    alpha2 = property(lambda self: self._rescaled(self.raw2))


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


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """cephes polevl: the polynomial with coefficients coef, highest first, by Horner in cephes' order."""
    ans = x * coef[0] + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """cephes p1evl: as _polevl with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _log(y: np.ndarray) -> np.ndarray:
    """Natural log of y > 0 (subnormals included), with the same bits on every platform.

    fdlibm's __ieee754_log in numpy ufuncs: y = 2^k (1 + f) with 1 + f in
    [sqrt(1/2), sqrt(2)), split exactly by frexp; s = f / (2 + f), R the
    Lg polynomial in s^2, and log y = k ln2_hi - ((f^2/2 - (s (f^2/2 + R)
    + k ln2_lo)) - f).  fdlibm's other branches (k = 0, tiny f, its second
    rebuild) are not taken; within 1 ULP of math.log on _ndtri's domain all
    the same.  numpy fuses no multiply-add and rounds each ufunc correctly,
    so unlike the C library's log (or np.log's SIMD loop) the result does
    not depend on the platform.
    """
    f, k = np.frexp(y)
    low = f < _SQRT_HALF
    f = np.ldexp(f, low) - 1.0
    k = (k - low).astype(float)
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = w * (_LG[1] + w * (_LG[3] + w * _LG[5])) + z * (_LG[0] + w * (_LG[2] + w * (_LG[4] + w * _LG[6])))
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of u in (0, 1), the same bits on every platform.

    cephes ndtri vectorized: a rational function of (u - 1/2)^2 on the
    centre band, and in each tail (y = min(u, 1 - u) < exp(-2)) the
    asymptotic x - log(x)/x - z P(z)/Q(z) with x = sqrt(-2 log y), z = 1/x.
    Both tail logs are _log, so the result is bit-equal to the scalar port
    in tests/reference.py and within a few ULP of scipy.special.ndtri,
    whose logs are the C library's.
    """
    out = np.empty_like(u)
    in_centre = (u > _EXP_M2) & (u <= 1.0 - _EXP_M2)
    # index arrays: gathers and scatters by index are several times faster than by mask
    centre, tail = np.flatnonzero(in_centre), np.flatnonzero(~in_centre)
    y = u[centre]
    y -= 0.5
    y2 = y * y
    r = _polevl(y2, _P0)
    r *= y2
    r /= _p1evl(y2, _Q0)
    r *= y
    r += y
    r *= _SQRT_2PI
    out[centre] = r

    y = u[tail]
    upper = y > 0.5
    np.subtract(1.0, y, out=y, where=upper)
    x = _log(y)
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    x1 = _polevl(z, _P1)
    x1 *= z
    x1 /= _p1evl(z, _Q1)
    far = x >= 8.0  # y < exp(-32)
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x0 = _log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    x0 -= x1
    np.negative(x0, out=x0, where=~upper)
    out[tail] = x0
    return out


def _noisy(raw: np.ndarray, noise: NoiseModel, u: np.ndarray) -> np.ndarray:
    g = _ndtri(np.maximum(u, _MIN_UNIFORM)) if noise.sigma > 0.0 else 0.0
    return raw + noise.bias + noise.sigma * g


def _simulate_range(source, start: int, count: int, master_seed: int) -> TrialTable:
    """Trials [start, start+count) of the stream owned by master_seed, from a Settings or Source.

    All count trials are drawn in one numpy pass, whose temporaries take
    about 137 bytes per trial: the callers ask for a _TRIAL_CHUNK at a time.
    """
    u = streams.window_uniforms(master_seed, streams.TRIAL_STREAM, start, count, TRIAL_BLOCKS)
    raw1, raw2, beta1, beta2 = sample_branches(source.law, u[:, 0], 4)
    noisy1 = _noisy(source.raw_scale * raw1, source.noise, u[:, 1])
    noisy2 = _noisy(source.raw_scale * raw2, source.noise, u[:, 2])

    index = np.arange(start, start + count, dtype=np.int64)
    return TrialTable(
        index, noisy1, noisy2, beta1, beta2, settings_id=source.settings_id, v=source.v, master_seed=master_seed
    )


def _pool_map(task, *sequences, workers: int):
    """map(task, *sequences): yields the results in input order, each as it is needed.

    With workers > 1 and more than one item, the items run in one process
    pool of min(workers, items) workers, opened at the first result.  At
    most two items per worker are submitted ahead of the result being
    taken, so a pool holds a window of results, not the whole run.
    Otherwise, and in a daemonic process, such as a multiprocessing.Pool
    worker, which may start no process, they run in this process, one per
    result taken.  In a pool, task and its arguments and results must pickle.
    """
    workers = min(workers, *map(len, sequences))
    if workers > 1:
        import multiprocessing  # here, as the pool below, so that a serial run never imports it

        if multiprocessing.current_process().daemon:
            workers = 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so that a serial run never imports it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            window = []
            for args in zip(*sequences):
                if len(window) == 2 * workers:
                    yield window.pop(0).result()
                window.append(pool.submit(task, *args))
            while window:
                yield window.pop(0).result()
    else:
        yield from map(task, *sequences)


# Trials per chunk, for simulate and predict alike: a multiple of FOLD_ROWS,
# so a stream of chunks folds as its table does.  A chunk's sampling
# temporaries take 2.2 MB, about one core's L2 cache on a 2-core box; 1M
# trials sample as fast as in chunks of 65536, whose temporaries take 9 MB.
_TRIAL_CHUNK = 1 << 14


def chunk_stream(task, n_trials: int, start: int, workers: int):
    """The tables task(chunk_start, count) of the _TRIAL_CHUNK-trial chunks of [start, start + n_trials), in order.

    The chunks go through _pool_map, so with workers > 1 they run in a
    process pool of at most one worker per chunk, a window of them at a
    time; serially each chunk is made only when it is taken.  Arguments are
    checked at the call, before any chunk runs: a trial_index is an int64.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not (0 <= start and start + n_trials <= 2**63):
        raise ValueError(f"start must satisfy 0 <= start and start + n_trials <= 2**63, got start={start}")
    starts = range(start, start + n_trials, _TRIAL_CHUNK)
    counts = [min(_TRIAL_CHUNK, start + n_trials - s) for s in starts]
    return _pool_map(task, starts, counts, workers=workers)


def trial_chunks(source, n_trials: int, master_seed: int, start: int = 0, workers: int = 1):
    """The TrialTable chunks of trials [start, start + n_trials) of a Settings or Source, in order.

    The one sampler route: the caller takes the trials a chunk at a time
    (cli simulate folds and writes each chunk as it arrives, so its memory
    does not grow with n_trials).  Results are identical for every start
    and worker count.  Every chunk but the last holds a multiple of
    FOLD_ROWS trials, so estimate_chsh of the stream has the bits of
    estimate_chsh of one table of its rows.
    """
    return chunk_stream(partial(_simulate_range, source, master_seed=master_seed), n_trials, start, workers)


# ---------------------------------------------------------------------------
# Estimation


def chsh_combine(
    e11: CorrelatorEstimate,
    e12: CorrelatorEstimate,
    e21: CorrelatorEstimate,
    e22: CorrelatorEstimate,
) -> ChshReport:
    """Combine four correlators from DISJOINT sets of trials with signature (+, +, +, -).

    Their stderrs add in quadrature, which holds only because the four
    estimates are independent.  Correlators of the same trials covary, so
    estimate_chsh takes the stderr of the per-trial term instead.
    """
    chsh = e11.value + e12.value + e21.value - e22.value
    stderr = math.sqrt(e11.stderr**2 + e12.stderr**2 + e21.stderr**2 + e22.stderr**2)
    return ChshReport(e11=e11, e12=e12, e21=e21, e22=e22, chsh=chsh, chsh_stderr=stderr)


@dataclass(frozen=True, eq=False)
class ChshMoments:
    """Count, mean and M2 (sum of squared deviations from the mean) of a set of trials' CHSH terms.

    Entry 0 of mean and m2 is the per-trial term x = alpha1 (beta1 + beta2)
    + alpha2 (beta1 - beta2), whose mean is S; entries 1 to 4 are the
    products of CHSH_PAIRS, whose means are e11, e12, e21 and e22.
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray

    def merge(self, other: "ChshMoments") -> "ChshMoments":
        """The moments of self's trials and other's together, by Chan, Golub and LeVeque's update."""
        if not other.count:
            return self
        if not self.count:
            return other
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / count)
        m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / count)
        return ChshMoments(count, mean, m2)

    def report(self) -> ChshReport:
        """S, the four correlators, and the standard error of each mean."""
        n = self.count
        if n < 2:
            raise ValueError(f"need at least 2 records to estimate a correlator, got {n}")
        stderr = np.sqrt(self.m2 / (n - 1)) / math.sqrt(n)
        e11, e12, e21, e22 = (
            CorrelatorEstimate(value=value, stderr=se, count=n)
            for value, se in zip(self.mean[1:].tolist(), stderr[1:].tolist())
        )
        return ChshReport(e11, e12, e21, e22, chsh=float(self.mean[0]), chsh_stderr=float(stderr[0]))


_NO_TRIALS = ChshMoments(0, np.zeros(1 + len(CHSH_PAIRS)), np.zeros(1 + len(CHSH_PAIRS)))


def _chsh_terms(a1, a2, b1, b2) -> np.ndarray:
    """The five CHSH terms of each trial, one row each: x, then the products of CHSH_PAIRS."""
    return np.stack([a1 * (b1 + b2) + a2 * (b1 - b2), a1 * b1, a1 * b2, a2 * b1, a2 * b2])


def _block_moments(table: TrialTable, start: int) -> ChshMoments:
    """The moments of rows [start, start + FOLD_ROWS) of a table, by two passes of numpy reductions."""
    rows = slice(start, start + FOLD_ROWS)
    a1, a2 = table._rescaled(table.raw1[rows]), table._rescaled(table.raw2[rows])
    terms = _chsh_terms(a1, a2, table.beta1[rows], table.beta2[rows])
    mean = terms.sum(axis=1) / terms.shape[1]
    terms -= mean[:, None]
    terms *= terms
    return ChshMoments(terms.shape[1], mean, terms.sum(axis=1))


class ChshFold:
    """The CHSH fold of a TrialTable, or of a stream of the TrialTable blocks of one experiment.

    Iterating yields the blocks unchanged, each folded into `moments`,
    FOLD_ROWS rows at a time from its first row, as it passes; so a writer
    can take the stream a block at a time while the fold rides along.
    report() folds the blocks not yet taken and gives the ChshReport;
    len() is the number of trials folded so far.

    Every block but the last must hold a multiple of FOLD_ROWS rows, as
    trial_chunks and records.read_record_blocks yield them: then the fold
    has the bits of the fold of one table of the stream's rows.  A block
    that follows one that breaks this raises ValueError.  The blocks pass
    through _one_experiment, so a block whose scalars differ from the
    first block's raises ValueError, and anything but a TrialTable raises
    TypeError.
    """

    def __init__(self, records) -> None:
        self._blocks = _one_experiment(records, TrialTable, self._fold)
        self.moments = _NO_TRIALS

    def __len__(self) -> int:
        return self.moments.count

    def __iter__(self):
        return self._blocks

    def _fold(self, block: TrialTable) -> None:
        if self.moments.count % FOLD_ROWS:
            raise ValueError(
                f"every block of a folded stream but the last must hold a multiple of {FOLD_ROWS} rows; "
                f"a block follows {self.moments.count} rows"
            )
        for start in range(0, len(block), FOLD_ROWS):
            self.moments = self.moments.merge(_block_moments(block, start))

    def report(self) -> ChshReport:
        deque(self, maxlen=0)  # takes the blocks left, holding none once folded
        return self.moments.report()


def estimate_chsh(records) -> ChshReport:
    """S, its standard error and the four correlators of a TrialTable, or of
    an iterable of TrialTable blocks of one experiment (see ChshFold).

    A stream whose blocks all hold a multiple of FOLD_ROWS rows but the
    last, as records.read_record_blocks and trial_chunks yield them, gives
    the same bits as its rows in one table; any other stream raises
    ValueError.  S is the mean of the per-trial term, and its standard
    error is that of the term: the four correlators share their trials, so
    their errors do not add in quadrature.
    """
    return ChshFold(records).report()


# ---------------------------------------------------------------------------
# Count engine: the branch counts of a noise-free source's trials

# Uniforms per count draw: 4 Philox blocks = 16 draws, draw k for branch k's
# conditional binomial (the last positive branch takes no draw).
_COUNT_BLOCKS = 4

# Most trials that one multinomial of branch counts may hold: a sweep point,
# or an after-protocol axis pair.  Its binomial windows grow as sqrt(trials),
# widest at p = 1/2.  A fresh process (Linux, numpy 2.4) that imports
# blgisim.cli and draws the counts of the law (1/2, 1/2, 0, ...) peaked at
# 48.5 MB of VmHWM at this bound, 50.6 MB at 7 * 10**8 and 53.3 MB at 10**9,
# where tracemalloc put 16.7 MB in the draw; the MAX_STEPS windows keep to 64 MB.
MAX_COUNT_TRIALS = 5 * 10**8


def _binomial_window(n: int, p: float) -> tuple:
    """(lo, pmf): pmf[j] = P(K = lo + j) for K ~ Binomial(n, p), 0 < p <= 1,
    over the k where P(K = k) is nonzero in float64.

    Starts at 1 at the mode and multiplies outward by the ratios of
    neighbouring terms, each at most 1, so the terms fall away from the
    mode.  A term at most 2**-1076 times the terms' sum is 0 once divided
    by that sum, and so is every term past it.  The span starts some 44
    standard deviations to each side of the mode and doubles until each
    end is such a term or reaches 0 or n; then it is cut to the terms
    above that bound and divided by their sum.  So the cost grows as
    sqrt(n p q), not n, and a kept term has the bits of the same term of
    the full (n + 1)-term recurrence before the division.  The span is
    the one array held throughout; the ratios take one temporary as long
    as one side of the mode, and the cut a one-byte mask, so the peak is
    about 1.7 times the pmf's bytes.
    """
    q = 1.0 - p
    mode = min(int((n + 1) * p), n)
    half = int(44.0 * math.sqrt(n * p * q)) + 64
    while True:
        lo = max(mode - half, 0)
        w = np.arange(lo, min(mode + half, n) + 1, dtype=float)  # k
        at = mode - lo
        up, down = w[at + 1:], w[:at]
        # above the mode P(k)/P(k-1) = (n - k + 1) p / (k q); q = 0 leaves up empty.
        # Every k, n - k and n - k + 1 is an integer below 2**53, so exact in float64
        # however it is formed, and each side holds one temporary of its own length.
        np.divide(n + 1.0 - up, up, out=up)
        if q > 0.0:
            up *= p / q
        # below it P(k)/P(k+1) = (k + 1) q / ((n - k) p)
        rest = n - down
        down += 1.0
        down /= rest
        down *= q / p
        del rest  # w alone is held from here on
        w[at] = 1.0
        np.cumprod(w[at:], out=w[at:])
        np.cumprod(w[at::-1], out=w[at::-1])
        cut = math.ldexp(float(w.sum()), -1076)
        if (lo == 0 or w[0] <= cut) and (lo + len(w) == n + 1 or w[-1] <= cut):
            # the first and last kept terms, from a mask of one byte per term, not an index of eight
            above = w > cut
            first, last = int(np.argmax(above)), len(w) - 1 - int(np.argmax(above[::-1]))
            pmf = w[first:last + 1]
            pmf /= pmf.sum()
            return lo + first, pmf
        half *= 2


def _invert_window(lo: int, cdf: np.ndarray, u):
    """min{k : P(K <= k) > u} per uniform u in [0, 1), from cdf[j] = P(K <= lo + j) over K's nonzero window."""
    return lo + np.searchsorted(cdf, u, side="right")


def _binomial_draw(n: int, p: float, u: float) -> int:
    """The K ~ Binomial(n, p) of one uniform u: min{k : P(K <= k) > u}.

    The window's pmf is summed and divided by its last sum, as
    prediction._count_cdfs builds its readout count windows.
    """
    lo, pmf = _binomial_window(n, p)
    cdf = np.cumsum(pmf, out=pmf)
    cdf /= cdf[-1]
    return int(_invert_window(lo, cdf, u))


def _branch_counts(law, n_trials: int, u: np.ndarray) -> np.ndarray:
    """How many of n_trials trials fall in each branch of law, drawn as one multinomial.

    law holds the branch probabilities in their order, as sample_branches
    takes them, and u the uniforms of the caller's count window, one per
    branch but the last.  Branch k takes a Binomial(left, p_k / (p_k +
    p_k+1 + ...)) of the trials the branches before it left, by inverting
    u[k].  As in sample_branches, negative round-off is clipped to 0, a
    branch of probability 0 gets no trial, and the last branch of positive
    probability gets every trial left.  n_trials must lie in [1,
    MAX_COUNT_TRIALS], or ValueError.
    """
    if not 1 <= n_trials <= MAX_COUNT_TRIALS:
        raise ValueError(f"n_trials must be an integer in [1, {MAX_COUNT_TRIALS}], got {n_trials}")
    probs = np.clip(np.asarray(law, dtype=float), 0.0, None)
    rests = np.cumsum(probs[::-1])[::-1]  # p_k + p_k+1 + ..., summed from the last branch
    positive = np.flatnonzero(probs)
    counts = np.zeros(len(probs), dtype=np.int64)
    left = n_trials
    for k in positive[:-1]:  # once no trial is left, each draw is 0
        counts[k] = _binomial_draw(left, probs[k] / rests[k], u[k])
        left -= counts[k]
    counts[positive[-1]] = left
    return counts


def _count_moments(source, n_trials: int, master_seed: int) -> ChshMoments:
    """The ChshMoments of trials [0, n_trials) of a noise-free source, from their branch counts.

    The 16 counts are _branch_counts of the source's law, from index 0's
    window of the count stream of master_seed.  Without noise a trial's
    five terms depend only on its branch, so the mean and M2 of each are
    the count-weighted ones of the 16 branches' terms: the same law as
    estimate_chsh of the source's trials, at a cost that grows as
    sqrt(n_trials).  A source with sigma > 0 raises ValueError: its
    trials' terms depend on more than their branch.
    """
    if source.noise.sigma > 0.0:
        raise ValueError(f"branch counts hold a noise-free source's trials; noise sigma is {source.noise.sigma}")
    u = streams.window_uniforms(master_seed, streams.COUNT_STREAM, 0, 1, _COUNT_BLOCKS)[0]
    counts = _branch_counts(source.law, n_trials, u)
    r1, r2, b1, b2 = np.array(BRANCHES, dtype=float).T
    a1, a2 = ((source.raw_scale * r + source.noise.bias) / source.v for r in (r1, r2))
    terms = _chsh_terms(a1, a2, b1, b2)
    mean = (terms * counts).sum(axis=1) / n_trials
    terms -= mean[:, None]
    terms *= terms
    return ChshMoments(n_trials, mean, (terms * counts).sum(axis=1))


# ---------------------------------------------------------------------------
# Exact oracle: enumerate both weak and both projective outcomes (16 branches)

# (r, beta) of the rows of _effects: nested (+1, -1) order, r outermost
_R = np.array([1.0, 1.0, -1.0, -1.0])
_BETA = np.array([1.0, -1.0, 1.0, -1.0])


def _effects(weak: float, strong: float, v: float) -> np.ndarray:
    """4 x Pauli coefficients on (I, X, Y, Z) of one qubit's effects, one row per (r, beta).

    The effect of weak outcome r at strength v along the x-z axis `weak`,
    then projective outcome beta along `strong`, is K_r P_beta K_r with
    K_r = sqrt((I + r v sigma(weak))/2).  With d = strong - weak, n(t) =
    (sin t, cos t) and n_perp(t) = (cos t, -sin t) in (x, z), 4 K_r P_beta K_r
    = (1 + r beta v cos d) I + w . sigma, where w = (r v + beta cos d) n(weak)
    + beta sqrt(1 - v^2) sin d n_perp(weak): K_r keeps sigma(weak), and
    scales the part of sigma(strong) that anticommutes with it by
    sqrt(1 - v^2).  No Y coefficient arises.
    """
    c, s = math.cos(strong - weak), math.sin(strong - weak)
    along = _R * v + _BETA * c
    across = _BETA * (math.sqrt(1.0 - v * v) * s)
    e = np.zeros((4, 4))
    e[:, 0] = 1.0 + _R * _BETA * (v * c)
    e[:, 1] = along * math.sin(weak) + across * math.cos(weak)
    e[:, 3] = along * math.cos(weak) - across * math.sin(weak)
    return e


def _pauli_law(t: np.ndarray, settings: Settings) -> np.ndarray:
    """The 16 branch probabilities of a pair whose Pauli correlation matrix is t, in BRANCHES order.

    t[j, k] = tr(rho P_j (x) P_k), P = (I, X, Y, Z), is real for any
    two-qubit density rho.  The steps on different qubits commute, so
    branch (r1, r2, beta1, beta2) has probability tr(rho E1 (x) E2) =
    e1 . t e2 / 16, e_i qubit i's row (r_i, beta_i) of _effects.
    """
    e1 = _effects(settings.a1, settings.b1, settings.v)
    e2 = _effects(settings.a2, settings.b2, settings.v)
    # einsum's own loop, not BLAS, so the summation order and the law's last
    # bits (which exact_chsh reports) do not depend on the BLAS build
    pair = np.einsum("ij,jk,lk->il", e1, t, e2) / 16.0  # pair[(r1, beta1), (r2, beta2)]
    return pair.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)


def branch_distribution(settings: Settings) -> dict:
    """Joint pmf of (raw1, raw2, beta1, beta2) before detector noise.

    Sixteen branches, each a real bilinear form in the two qubits'
    weak-then-projective effects (_pauli_law) at the Bell state's
    correlation matrix.  Keys come in nested (+1, -1) order, raw1
    outermost, which is the order sample_branches takes; the trial engine
    samples this law directly.  Probabilities sum to 1, and a branch that
    no state could reach, such as beta_i = -r_i at v = 1 and equal axes, is
    exactly 0.
    """
    probs = _pauli_law(BELL_CORRELATIONS[settings.bell_kind], settings)
    return dict(zip(BRANCHES, probs.tolist()))


def _moment_matrix(source) -> np.ndarray:
    """The 5x5 matrix E[u u^T], u = (1, alpha1, alpha2, beta1, beta2), from the source's one law.

    Row 0 and column 0 hold the means.  Branch k's u has the alphas
    (raw_scale * A_i + bias) / V.  The noise is independent and zero-mean,
    so it drops out of every moment except the two alpha diagonal entries,
    which gain (sigma / V)^2 after the sum.  The sum runs term by term in
    branch order, so no reordered (pairwise or BLAS) sum moves a moment's
    last bit.
    """
    u = np.ones((len(BRANCHES), 5))
    u[:, 1:] = BRANCHES
    u[:, 1:3] = (source.raw_scale * u[:, 1:3] + source.noise.bias) / source.v
    m = np.zeros((5, 5))
    for p, row in zip(source.law, u):
        m += p * np.outer(row, row)
    m[[1, 2], [1, 2]] += (source.noise.sigma / source.v) ** 2
    return m


def _field_index(name: str) -> int:
    """Position of name in FIELDS; any other name is a ValueError."""
    if name not in FIELDS:
        raise ValueError(f"unknown field {name!r}; choose one of {FIELDS}")
    return FIELDS.index(name)


def exact_correlator(source, left: str, right: str) -> float:
    """E[left * right] from a Settings' or Source's 16-branch law; no sampling.

    Detector noise enters analytically: independent zero-mean Gaussians drop
    out of cross moments, bias shifts alpha means, and the same-field alpha
    second moment picks up sigma^2.  Rescaling by 1/V is applied to alphas.
    """
    i, j = _field_index(left), _field_index(right)
    return float(_moment_matrix(source)[1 + i, 1 + j])


def exact_mean(source, field: str) -> float:
    """E[field] from the 16-branch law (alphas include bias/V)."""
    return float(_moment_matrix(source)[0, 1 + _field_index(field)])


def exact_chsh(source) -> float:
    """Exact e11 + e12 + e21 - e22 for the alpha_i x beta_j pairing, from one law."""
    (e11, e12), (e21, e22) = _moment_matrix(source)[1:3, 3:5].tolist()
    return e11 + e12 + e21 - e22
