"""Scalar reference routes that only the tests use.

The file opens with dense complex-state quantum mechanics on 1 to 4
qubits: states (random_density draws mixed ones), the weak Kraus pair,
Bell states, concurrence, and outcome_law, the Born rule that takes
products of lifted Kraus operators.  trial_law applies it to one trial on
any two-qubit density, and pauli_correlations gives that density's real
correlation matrix.  It is the independent oracle that the package's real
bilinear branch law (trials.branch_distribution) is checked against.

Each route after it re-derives, one operator or one draw at a time,
something the package computes another way: the state-updating weak
measurement, the
system+ancilla unitary behind the weak Kraus pair, the reduced state by
partial trace, one trial's detector noise (a scalar cephes ndtri on a
scalar port of trials._log) and rescaling, one whole
trial of any source, the step-by-step sequential readout, the Bell
pair after outcome-averaged coupling and its concurrence curve, the Bell
pair's density operator after the ancilla coupling, the closed-form
combination of a hidden-variable source, one binary tuple's unfactored
CHSH term, the exact moments summed one field product at a time, one
correlator and its stderr from a table's column products
(estimate_correlator), and the full (n + 1)-term
binomial pmf that the package's windowed recurrence cuts short.  They stay independent oracles
for the package's exact laws and batch samplers.  Ten record helpers
close the file: a record table's rows as tuples, for whole-row
comparisons, the table of the rows of several, the whole-table joins of
the package's four record streams (simulate_trials, prediction_batch,
read_records and read_predictions, each the table of the rows of its
stream's blocks), a table of no rows, a copy
of a table with other scalars, a writer of a trial file whose CR LF
straddles a given byte, and the record-format-1 writer, which keeps the
format-1 golden bytes pinned now that the package writes and reads format
2 only.
"""

import math
from copy import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from blgisim import streams
from blgisim.prediction import PredictionTable, SequentialReadoutParams, prediction_chunks
from blgisim.records import emit_records, read_prediction_blocks, read_record_blocks
from blgisim.trials import (
    _EXP_M2,
    _LG,
    _LN2_HI,
    _LN2_LO,
    _P0,
    _P1,
    _P2,
    _Q0,
    _Q1,
    _Q2,
    _SQRT_2PI,
    _SQRT_HALF,
    BRANCHES,
    FIELDS,
    MIN_BRANCH_PROB,
    NO_NOISE,
    TRIAL_BLOCKS,
    CorrelatorEstimate,
    DegenerateBranchError,
    NoiseModel,
    Settings,
    TrialTable,
    _field_index,
    _one_experiment,
    check_strength,
    trial_chunks,
)

# ---------------------------------------------------------------------------
# Dense complex-state quantum mechanics
#
# Measurement axes live in the x-z plane and are given by a single angle
# theta measured from +z, so the observable is sigma(theta) =
# cos(theta)*sigma_z + sin(theta)*sigma_x.

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)

ATOL = 1e-12          # algebraic identity tolerance
EIG_FLOOR = -1e-10    # eigenvalue positivity slack for density operators

MAX_QUBITS = 4


def bloch_observable(theta: float) -> np.ndarray:
    """Hermitian, traceless, involutory observable for an x-z plane axis."""
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"axis angle must be finite, got {theta}")
    return np.cos(theta) * SIGMA_Z + np.sin(theta) * SIGMA_X


def axis_projectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors (P_plus, P_minus) of sigma(theta)."""
    obs = bloch_observable(theta)
    return (ID2 + obs) / 2.0, (ID2 - obs) / 2.0


@dataclass(frozen=True)
class KrausPair:
    """Two-outcome measurement channel {k_plus, k_minus}.

    Completeness k+^2 + k-^2 = I holds by construction; both operators are
    Hermitian positive semidefinite.
    """

    k_plus: np.ndarray
    k_minus: np.ndarray

    def operator(self, outcome: int) -> np.ndarray:
        return self.k_plus if outcome > 0 else self.k_minus


def weak_kraus(v: float, theta: float) -> KrausPair:
    """Kraus pair k+- = sqrt((I +- v*sigma(theta))/2).

    The square root is taken in closed form on the sigma(theta) eigenbasis:
    k+- = sqrt((1 +- v)/2) P_plus + sqrt((1 -+ v)/2) P_minus.  Outcome
    probabilities on a state are p+- = (1 +- v*<sigma(theta)>)/2, and at
    v = 1 the pair degenerates to the eigenprojectors.
    """
    v = check_strength(v)
    p_plus, p_minus = axis_projectors(theta)
    hi = np.sqrt((1.0 + v) / 2.0)
    lo = np.sqrt((1.0 - v) / 2.0)
    return KrausPair(hi * p_plus + lo * p_minus, lo * p_plus + hi * p_minus)


class QuantumState:
    """Pure amplitude vector or density operator on 1..4 qubits.

    Instances are treated as immutable; operations return new states.
    """

    __slots__ = ("data", "num_qubits", "is_pure")

    def __init__(self, data: np.ndarray, num_qubits: int, is_pure: bool):
        self.data = data
        self.num_qubits = num_qubits
        self.is_pure = is_pure

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "QuantumState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = _qubit_count(vec.shape[0])
        state = cls(vec, n, is_pure=True)
        state.require_valid()
        return state

    @classmethod
    def from_density(cls, matrix) -> "QuantumState":
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density operator must be square, got shape {mat.shape}")
        n = _qubit_count(mat.shape[0])
        state = cls(mat, n, is_pure=False)
        state.require_valid()
        return state

    def density(self) -> np.ndarray:
        """Density operator form regardless of representation."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def require_valid(self) -> None:
        """Raise ValueError if any state invariant is violated.

        Pure states: unit norm within 1e-12. Density operators: Hermitian
        and unit trace within 1e-12, eigenvalues above -1e-10.
        """
        if self.is_pure:
            norm = float(np.linalg.norm(self.data))
            if abs(norm - 1.0) > ATOL:
                raise ValueError(f"amplitude vector norm {norm} deviates from 1")
            return
        mat = self.data
        if np.abs(mat - mat.conj().T).max() > ATOL:
            raise ValueError("density operator is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > ATOL:
            raise ValueError(f"density operator trace {trace} deviates from 1")
        smallest = float(np.linalg.eigvalsh(mat).min())
        if smallest < EIG_FLOOR:
            raise ValueError(f"density operator has eigenvalue {smallest} below floor")


def random_density(num_qubits: int, rng: np.random.Generator) -> QuantumState:
    """A rank-3 mixture of random complex pure states: Bloch vectors and correlations off the x-z plane."""
    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(3))
    for w in weights:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        rho += w * np.outer(vec, vec.conj())
    return QuantumState.from_density(rho)


def _qubit_count(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim != 2**n or not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"dimension {dim} is not 2^n for n in [1, {MAX_QUBITS}]")
    return n


def lift1(op_1q: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Embed a single-qubit operator at position ``qubit`` (0 = leftmost factor)."""
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {num_qubits} qubits")
    out = np.eye(1, dtype=complex)
    for pos in range(num_qubits):
        out = np.kron(out, op_1q if pos == qubit else ID2)
    return out


def outcome_law(rho: np.ndarray, steps) -> np.ndarray:
    """Born pmf of two-outcome measurements applied in turn to density rho.

    steps is a sequence of (qubit, KrausPair).  Branch probabilities
    tr(M rho M^dagger), M the product of the chosen Kraus operators, come in
    nested (+1, -1) order, first step outermost: the order
    trials.sample_branches takes.  They sum to 1 up to round-off.
    """
    num_qubits = _qubit_count(rho.shape[0])
    products = [np.eye(rho.shape[0], dtype=complex)]
    for qubit, pair in steps:
        ops = [lift1(pair.operator(outcome), qubit, num_qubits) for outcome in (1, -1)]
        products = [op @ m for m in products for op in ops]
    return np.array([np.trace(m @ rho @ m.conj().T).real for m in products])


def trial_law(rho: np.ndarray, settings: Settings) -> np.ndarray:
    """outcome_law of a trial on the two-qubit density rho: weak along a1, a2, then projective along b1, b2.

    The 16 probabilities come in trials.BRANCHES order, as
    trials.branch_distribution gives them for a Bell state.
    """
    steps = (
        (0, weak_kraus(settings.v, settings.a1)),
        (1, weak_kraus(settings.v, settings.a2)),
        (0, weak_kraus(1.0, settings.b1)),
        (1, weak_kraus(1.0, settings.b2)),
    )
    return outcome_law(rho, steps)


def pauli_correlations(rho: np.ndarray) -> np.ndarray:
    """The real 4x4 matrix T[j, k] = tr(rho P_j (x) P_k), P = (I, X, Y, Z), of a two-qubit density."""
    return np.array([[np.trace(rho @ np.kron(pj, pk)).real for pk in PAULIS] for pj in PAULIS])


def nonselective_weak(state: QuantumState, qubit: int, theta: float, v: float) -> QuantumState:
    """Deterministic outcome-averaged weak channel, as a density operator.

    Closed form ((1+u)/2) rho + ((1-u)/2) sigma rho sigma with
    u = sqrt(1 - v^2): the diagonal in the measurement eigenbasis is
    untouched and the off-diagonal is damped by exactly u.
    """
    v = check_strength(v)
    u = np.sqrt(1.0 - v * v)
    big = lift1(bloch_observable(theta), qubit, state.num_qubits)
    rho = state.density()
    out = (1.0 + u) / 2.0 * rho + (1.0 - u) / 2.0 * (big @ rho @ big)
    return QuantumState(out, state.num_qubits, False)


def concurrence(state: QuantumState) -> float:
    """Wootters concurrence of a 2-qubit state, in [0, 1].

    max(0, l1 - l2 - l3 - l4) over the descending square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).
    """
    if state.num_qubits != 2:
        raise ValueError(f"concurrence is defined for 2 qubits, got {state.num_qubits}")
    rho = state.density()
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    product = rho @ flip @ rho.conj() @ flip
    eigs = np.linalg.eigvals(product)
    roots = np.sqrt(np.clip(eigs.real, 0.0, None))
    roots[::-1].sort()
    return float(max(0.0, min(1.0, roots[0] - roots[1] - roots[2] - roots[3])))


BELL_AMPLITUDES = {
    "phi_plus": np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "psi_minus": np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0),
}


def prepare_bell(kind: str) -> QuantumState:
    """Two-qubit Bell state: phi_plus = (|00>+|11>)/sqrt2 or psi_minus = (|01>-|10>)/sqrt2."""
    if kind not in BELL_AMPLITUDES:
        raise ValueError(f"unknown bell_kind {kind!r}; supported: {sorted(BELL_AMPLITUDES)}")
    return QuantumState.from_amplitudes(BELL_AMPLITUDES[kind])


# ---------------------------------------------------------------------------
# Scalar routes


def _expect_lifted(state: QuantumState, big: np.ndarray) -> float:
    if state.is_pure:
        return float(np.real(np.vdot(state.data, big @ state.data)))
    return float(np.real(np.trace(big @ state.data)))


def expect(state: QuantumState, op_1q: np.ndarray, qubit: int) -> float:
    """Expectation of a single-qubit Hermitian operator on one qubit of state."""
    return _expect_lifted(state, lift1(op_1q, qubit, state.num_qubits))


@lru_cache(maxsize=256)
def _lifted_weak_operators(v: float, theta: float, qubit: int, num_qubits: int) -> tuple:
    """sigma(theta) and the weak Kraus pair (k+, k-) at strength v, lifted onto one qubit; read-only."""
    pair = weak_kraus(v, theta)
    ops = tuple(lift1(op, qubit, num_qubits) for op in (bloch_observable(theta), pair.k_plus, pair.k_minus))
    for op in ops:
        op.flags.writeable = False
    return ops


def _apply_branch(state: QuantumState, big: np.ndarray, prob: float) -> QuantumState:
    scale = 1.0 / np.sqrt(prob)
    if state.is_pure:
        return QuantumState(scale * (big @ state.data), state.num_qubits, True)
    post = big @ state.data @ big.conj().T
    return QuantumState((post + post.conj().T) * (0.5 / prob), state.num_qubits, False)


def weak_measure(
    state: QuantumState, qubit: int, theta: float, v: float, rng: np.random.Generator
) -> tuple[int, QuantumState]:
    """Sample one weak measurement of strength v along theta on one qubit.

    Returns (raw, post_state) with raw in {+1, -1} drawn with
    p+- = (1 +- v*<sigma(theta)>)/2 and post_state the renormalized Kraus
    update, so E[raw] = v*<sigma(theta)> holds exactly.

    Consumes exactly one uniform draw from ``rng``.
    """
    obs, k_plus, k_minus = _lifted_weak_operators(v, theta, qubit, state.num_qubits)
    mean = _expect_lifted(state, obs)
    p_plus = min(1.0, max(0.0, (1.0 + v * mean) / 2.0))
    raw = 1 if rng.random() < p_plus else -1
    prob = p_plus if raw > 0 else 1.0 - p_plus
    if prob < MIN_BRANCH_PROB:
        raise DegenerateBranchError(
            f"sampled branch raw={raw} has probability {prob}; state and axis are degenerate"
        )
    return raw, _apply_branch(state, k_plus if raw > 0 else k_minus, prob)


def coupling_unitary(v: float, theta: float) -> np.ndarray:
    """Equivalent 2-qubit system+ancilla representation of weak_kraus.

    Controlled rotation: conditioned on the system's sigma(theta)
    eigenbranch, the ancilla (second factor, prepared in |0>) is rotated to
    a pointer state with <sigma_z> = +-v.  Projecting the ancilla along z
    afterwards reproduces the weak_kraus outcome statistics and back-action
    exactly; the unit tests assert that equality.
    """
    v = check_strength(v)
    p_plus, p_minus = axis_projectors(theta)

    def rot_y(phi: float) -> np.ndarray:
        c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)

    phi_plus = 2.0 * np.arccos(np.sqrt((1.0 + v) / 2.0))
    phi_minus = 2.0 * np.arccos(np.sqrt((1.0 - v) / 2.0))
    return np.kron(p_plus, rot_y(phi_plus)) + np.kron(p_minus, rot_y(phi_minus))


def projective_measure(
    state: QuantumState, qubit: int, theta: float, rng: np.random.Generator
) -> tuple[int, QuantumState]:
    """Strong measurement along theta: the v = 1 weak channel.

    Returns (beta, post_state) with beta in {+1, -1}; the post state is the
    eigenprojection. Consumes exactly one uniform draw.
    """
    return weak_measure(state, qubit, theta, 1.0, rng)


def rescale(raw: float, v: float) -> float:
    """Normalize a raw weak outcome by the coupling strength: alpha = raw / v."""
    return float(raw) / check_strength(v)


def fdlibm_log(x: float) -> float:
    """Scalar port of trials._log: fdlibm's __ieee754_log of x > 0 in Python floats."""
    f, k = math.frexp(x)
    if f < _SQRT_HALF:
        f, k = 2.0 * f, k - 1
    f -= 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = w * (_LG[1] + w * (_LG[3] + w * _LG[5])) + z * (_LG[0] + w * (_LG[2] + w * (_LG[4] + w * _LG[6])))
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


def _polevl(x: float, coef) -> float:
    """cephes polevl, coefficients highest first; p1evl is coef with a leading 1.0 prepended."""
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def cephes_ndtri(u: float) -> float:
    """Scalar cephes ndtri of u in (0, 1) with fdlibm_log as its log: the oracle for trials._ndtri."""
    y, negate = u, True
    if y > 1.0 - _EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, (1.0, *_Q0)))) * _SQRT_2PI
    x = math.sqrt(-2.0 * fdlibm_log(y))
    x0 = x - fdlibm_log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, (1.0, *q))
    return -x if negate else x


def apply_readout_noise(raw: float, noise: NoiseModel, rng: np.random.Generator) -> float:
    """Contaminate a raw signal: raw + bias + Gaussian(0, sigma).

    Raw-side convention: called on the +-1 signal before rescaling, so under
    alpha = raw/V the noise standard deviation scales by 1/V.
    Consumes exactly one uniform draw (inverse-CDF Gaussian), even when
    sigma = 0, to keep per-trial draw budgets fixed.
    """
    u = max(rng.random(), 2.0**-53)  # keep the inverse CDF finite at u = 0
    gaussian = noise.sigma * cephes_ndtri(u) if noise.sigma > 0.0 else 0.0
    return float(raw) + noise.bias + gaussian


def reference_trial(source, index: int, master_seed: int) -> tuple:
    """Scalar re-derivation of one trial of a Settings or Source, from draw layout 5.

    Reads the same counter window as the batch engine: draw 0 walks
    source.law one branch at a time (the first branch whose cumulative
    probability exceeds it, else the last branch of positive probability),
    then apply_readout_noise takes draws 1 and 2 on raw_scale * A_i and
    rescale divides by V.  Returns (raw1, raw2, alpha1, alpha2, beta1, beta2).
    """
    gen = streams.stream(master_seed, streams.TRIAL_STREAM, index=index, blocks=TRIAL_BLOCKS)
    u = gen.random()
    acc = 0.0
    for branch, p in zip(BRANCHES, source.law):
        if p > 0.0:
            picked, acc = branch, acc + p
            if u < acc:
                break
    a1, a2, beta1, beta2 = picked
    noisy1 = apply_readout_noise(source.raw_scale * a1, source.noise, gen)
    noisy2 = apply_readout_noise(source.raw_scale * a2, source.noise, gen)
    return noisy1, noisy2, rescale(noisy1, source.v), rescale(noisy2, source.v), beta1, beta2


def hidden_variable_exact_chsh(config, v: float = 1.0, noise: NoiseModel = NO_NOISE) -> float:
    """|e11 + e12 + e21 - e22| of a hidden-variable source, in closed form.

    For signals k and j with thresholds t and signs s under a shared
    lambda ~ U[0, 1), E[A_k * B_j] = s_k * s_j * (1 - 2|t_k - t_j|); a
    rescaled bias adds (bias/v) * E[B_j].  Always <= 2 when bias = 0.
    """
    v = check_strength(v)
    t, s = config.thresholds, config.signs

    def pair(k: int, j: int) -> float:
        core = s[k] * s[j] * (1.0 - 2.0 * abs(t[k] - t[j]))
        return core + (noise.bias / v) * s[j] * (2.0 * t[j] - 1.0)

    return abs(pair(0, 2) + pair(0, 3) + pair(1, 2) - pair(1, 3))


def per_trial_term(a1: int, a2: int, b1: int, b2: int) -> int:
    """a1*b1 + a1*b2 + a2*b1 - a2*b2 of one binary tuple, unfactored: the
    scalar route that trials._chsh_terms's a1*(b1+b2) + a2*(b1-b2) is checked against."""
    return a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2


def per_product_moments(source, products) -> list:
    """E[product of the named FIELDS], one sum over the 16-branch law per tuple of field names.

    Branch k's values are its noiseless fields, the alphas
    (raw_scale * A_i + bias) / V; a squared alpha gains (sigma / V)^2.
    Each sum runs term by term in branch order, so its bits are those the
    moment matrix of trials must read.
    """
    values = np.array(BRANCHES, dtype=float)
    values[:, :2] = (source.raw_scale * values[:, :2] + source.noise.bias) / source.v
    moments = []
    for cols in ([FIELDS.index(name) for name in names] for names in products):
        total = 0.0
        for p, x in zip(source.law, values[:, cols].prod(axis=1).tolist()):
            total += p * x
        if len(cols) == 2 and cols[0] == cols[1] < 2:
            total += (source.noise.sigma / source.v) ** 2
        moments.append(total)
    return moments


def column(table, name: str) -> np.ndarray:
    """A TrialTable's field of FIELDS as floats (alpha_i rescaled); any other name is a ValueError."""
    _field_index(name)
    return getattr(table, name).astype(float, copy=False)


def estimate_correlator(table, left: str, right: str) -> CorrelatorEstimate:
    """Sample mean and stderr of the per-trial product of two FIELDS of a TrialTable, by numpy's two passes.

    The direct route that the package's CHSH fold (trials.ChshMoments) is
    checked against.
    """
    products = column(table, left) * column(table, right)
    n = len(products)
    if n < 2:
        raise ValueError(f"need at least 2 records to estimate a correlator, got {n}")
    return CorrelatorEstimate(value=float(products.mean()), stderr=float(products.std(ddof=1) / math.sqrt(n)), count=n)


def full_binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(K = k), k = 0..n, K ~ Binomial(n, p), 0 < p <= 1, over all n + 1 terms.

    The ratio recurrence outward from the mode, as the package ran it
    before it computed only the window of nonzero terms: every term is
    formed, the far tails underflow to 0 (or to the smallest subnormals,
    which the division by the sum sends to 0), and the table is divided by
    its sum.
    """
    q = 1.0 - p
    mode = min(int((n + 1) * p), n)
    pmf = np.arange(n + 1, dtype=float)  # k
    rest = n - pmf  # n - k
    up, down = pmf[mode + 1:], pmf[:mode]
    rest[mode + 1:] += 1.0
    np.divide(rest[mode + 1:], up, out=up)  # P(k)/P(k-1) = (n - k + 1) p / (k q)
    if q > 0.0:
        up *= p / q
    down += 1.0
    down /= rest[:mode]
    down *= q / p  # P(k)/P(k+1) = (k + 1) q / ((n - k) p)
    pmf[mode] = 1.0
    np.cumprod(pmf[mode:], out=pmf[mode:])
    np.cumprod(pmf[mode::-1], out=pmf[mode::-1])
    pmf /= pmf.sum()
    return pmf


def full_table(lo: int, window: np.ndarray, n: int, after: float = 0.0) -> np.ndarray:
    """A window over k = lo..lo + len(window) - 1 placed at k = 0..n: 0
    below it and `after` past it, 0 for a pmf and 1 for a CDF."""
    table = np.full(n + 1, after)
    table[:lo] = 0.0
    table[lo:lo + len(window)] = window
    return table


def partial_trace(state: QuantumState, keep) -> QuantumState:
    """Reduced density operator on the kept qubits (in ascending order)."""
    keep = sorted(set(int(q) for q in keep))
    n = state.num_qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep set {keep} out of range for {n} qubits")
    rho = state.density().reshape((2,) * (2 * n))
    for q in reversed(range(n)):
        if q in keep:
            continue
        rho = np.trace(rho, axis1=q, axis2=q + rho.ndim // 2)
    dim = 2 ** len(keep)
    return QuantumState(rho.reshape(dim, dim), len(keep), False)


def sequential_weak_sequence(
    state: QuantumState, qubit: int, axis: float, params: SequentialReadoutParams, rng: np.random.Generator
) -> tuple:
    """Read one qubit out `steps` times at per-step strength params.v.

    Returns (mean of the +-1 raw outcomes, final conditioned state).  Each
    step consumes exactly one uniform draw.  The conditioned state performs
    a random walk that collapses toward a sigma(axis) eigenstate; the walk's
    <sigma(axis)> sequence is a martingale.
    """
    total = 0
    for _ in range(params.steps):
        raw, state = weak_measure(state, qubit, axis, params.v, rng)
        total += raw
    return total / params.steps, state


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


# ---------------------------------------------------------------------------
# Record tables, row by row


def table_rows(table) -> list:
    """The rows of a record table's columns as tuples of Python scalars, in schema order."""
    return list(zip(*(getattr(table, name).tolist() for name in table.field_names)))


# scalars of a table built by empty_table or with_scalars unless given
_SCALAR_DEFAULTS = {"settings_id": "s", "master_seed": 0, "v": 1.0, "steps": 1}


def concat(parts: list):
    """One table of the rows of parts, tables of one class and one
    experiment, in order: trials._one_experiment refuses two experiments,
    and each column joins the parts' columns."""
    parts = list(_one_experiment(parts, type(parts[0])))
    first = parts[0]
    columns = (np.concatenate([getattr(part, name) for part in parts]) for name in first.field_names)
    return type(first)(*columns, **{name: getattr(first, name) for name in first.scalars})


# The whole-table joins of the package's streams, for tests that compare
# whole runs: each holds every block of its stream at once.


def simulate_trials(source, n_trials: int, master_seed: int, start: int = 0, workers: int = 1) -> TrialTable:
    return concat(list(trial_chunks(source, n_trials, master_seed, start, workers)))


def prediction_batch(settings, readout, n_trials: int, master_seed: int, start: int = 0, workers: int = 1):
    return concat(list(prediction_chunks(settings, readout, n_trials, master_seed, start, workers)))


def read_records(path: str, v: float | None = None) -> TrialTable:
    return concat(list(read_record_blocks(path, v)))


def read_predictions(path: str) -> PredictionTable:
    return concat(list(read_prediction_blocks(path)))


def empty_table(cls, **scalars):
    """A cls table of no rows, with settings id "s", master seed 0 and v or steps 1 unless given."""
    return cls(*([] for _ in cls.schema), **{name: scalars.get(name, _SCALAR_DEFAULTS[name]) for name in cls.scalars})


def with_scalars(table, **scalars):
    """A copy of table with the given scalars assigned in place of its own.

    The assignment skips the constructor's checks, so the copy can hold a
    scalar that no table is built with, as the emitters and the auditor
    must refuse.
    """
    changed = copy(table)
    changed.__dict__.update(scalars)
    return changed


def crlf_split_at(path: str, table, edge: int):
    """Write a TrialTable to path with CR LF line ends, its settings id
    lengthened until a CR LF straddles byte `edge` of the file: the CR is
    the last byte before it, the LF the first at it.  Returns the table written."""
    emit_records(table, path)
    with open(path, "rb") as f:
        pad = edge - 1 - f.read().replace(b"\n", b"\r\n").rfind(b"\r\n", 0, edge)
    scalars = {name: getattr(table, name) for name in table.scalars}
    scalars["settings_id"] += "x" * pad
    table = TrialTable(*(getattr(table, name) for name in table.field_names), **scalars)
    emit_records(table, path)
    with open(path, "rb") as f:
        text = f.read().replace(b"\n", b"\r\n")
    assert text[edge - 1:edge + 1] == b"\r\n"
    with open(path, "wb") as f:
        f.write(text)
    return table


# record format 1: on every row, every column a table held before format 2,
# the settings id and the per-trial seed included, with its printf format
_FORMAT1_SCHEMAS = {
    TrialTable: (
        ("trial_index", "%d"), ("settings_id", "%s"), ("raw1", "%.17g"), ("raw2", "%.17g"),
        ("alpha1", "%.17g"), ("alpha2", "%.17g"), ("beta1", "%d"), ("beta2", "%d"), ("seed", "%d"),
    ),
    PredictionTable: (
        ("trial_index", "%d"), ("settings_id", "%s"), ("trajectory_mean1", "%.17g"), ("trajectory_mean2", "%.17g"),
        ("predicted1", "%d"), ("predicted2", "%d"), ("actual1", "%d"), ("actual2", "%d"), ("seed", "%d"),
    ),
}


def _format1_column(table, name: str):
    if name == "settings_id":
        return repeat(table.settings_id)
    if name == "seed":
        return streams.derived_seed(table.master_seed, table.trial_index).tolist()
    return getattr(table, name).tolist()


def emit_format1(table, path: str) -> str:
    """Write a record table as a format-1 CSV: the header of every format-1
    column, then one row per trial holding each of them.  The alphas, means
    and predictions come from the table's properties, and each seed is
    derived_seed(table.master_seed, trial_index)."""
    schema = _FORMAT1_SCHEMAS[type(table)]
    template = ",".join(fmt for _, fmt in schema) + "\n"
    columns = [_format1_column(table, name) for name, _ in schema]
    with open(path, "w", newline="") as f:
        f.write(",".join(name for name, _ in schema) + "\n")
        f.writelines(map(template.__mod__, zip(*columns)))
    return path
