"""The binary-data bound and the test that rejects "binary plus unbiased noise".

For binary 4-tuples (a1, a2, b1, b2) the per-trial combination
a1*b1 + a1*b2 + a2*b1 - a2*b2 factors as a1*(b1+b2) + a2*(b1-b2); one
bracket is always 0 and the other +-2, so every trial contributes exactly
+-2 and any sequence average is bounded by 2.  trials._chsh_terms forms
that term for every estimate, and exhaustive_verify and chsh_bound_check
take it from there too, so the self-test checks the term behind every
verdict.  The bound is arithmetic, not statistical: adding independent
zero-mean noise to the binary signals cannot move a correlation mean.
Rescaled weak-measurement data that holds the combination above 2 beyond
statistical error therefore cannot be binary signals contaminated only by
unbiased noise, which is exactly what decomposition_test checks.  It
tests that one fixed-sign combination only, so CONSISTENT is no
certificate that such a decomposition exists: at V = 0.2 and noise sigma
0.3 the axes 90,-180,135,-135 (degrees) audit CONSISTENT while the
(alpha2, beta1, beta2) triangle inequality, which every binary-plus-noise
source obeys, is broken.

A record file, as records.read_record_blocks gives it, is audited in byte
ranges of whole trials.FOLD_ROWS blocks, at most one per usable CPU and at
least _AUDIT_RANGE_BYTES each.  Each range is read, checked and folded
block by block in one task of trials._pool_map (which runs the tasks in
this process for a file of one range, and in a daemonic process, such as
a multiprocessing.Pool worker, which may start no pool), and its rows must
be trials 0, 1, 2, ... in order.
The blocks' moments merge in file order, so the verdict is that of one
fold of the file, whatever the cut, and the first error in file order is
the one raised.

The hidden-variable source at the bottom produces data that IS binary
plus unbiased noise, as the consistent control for the test.  It is a law
on the 16 (A1, A2, B1, B2) branches, so trials.trial_chunks samples it
and trials.exact_chsh reads its exact value, as for the quantum source.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain

import numpy as np

from . import streams
from .records import RecordFile
from .trials import (
    BRANCHES,
    NO_NOISE,
    ChshMoments,
    ChshReport,
    NoiseModel,
    Source,
    TrialTable,
    _block_moments,
    _chsh_terms,
    _one_experiment,
    _pool_map,
    check_strength,
    estimate_chsh,
)

MIN_RECORDS = 100     # below this the test has no power
STDERR_CAP = 0.2      # stderr cap for a conclusive verdict
DEFAULT_THRESHOLD_SIGMAS = 3.0

CONSISTENT = "CONSISTENT"
REJECT = "REJECT"
INCONCLUSIVE = "INCONCLUSIVE"


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


def exhaustive_verify() -> EnumerationReport:
    """The per-trial term of each of the 16 binary tuples, as trials._chsh_terms forms it for every estimate.

    rows holds ((a1, a2, b1, b2), term) for each of BRANCHES, in plain ints.
    The term is sound when the +2 and -2 branches each occur 8 times, which
    leaves no branch for another value and averages the terms to 0; the
    caller judges the counts, so a broken term is reported, not raised.
    """
    terms = _chsh_terms(*np.array(BRANCHES, dtype=np.int64).T)[0].tolist()
    return EnumerationReport(
        rows=tuple(zip(BRANCHES, terms)),
        plus_two=terms.count(2),
        minus_two=terms.count(-2),
        mean_term=sum(terms) / len(terms),
    )


def chsh_bound_check(sequence) -> float:
    """(1/N) |sum a1b1 + sum a1b2 + sum a2b1 - sum a2b2| for an array or iterable of binary 4-tuples.

    The tuples form one int64 (N, 4) array once every value is checked to
    be -1 or +1 (1.0 is 1; 1.7 is a ValueError, not truncated), and
    trials._chsh_terms forms each trial's term, so the sums are exact
    integers and the returned value is <= 2 with no tolerance.
    """
    values = np.asarray(sequence if isinstance(sequence, np.ndarray) else list(sequence))
    if len(values) == 0:
        raise ValueError("sequence must be nonempty")
    if values.ndim != 2 or values.shape[1] != 4:
        raise ValueError(f"each tuple must hold four values (a1, a2, b1, b2), got shape {values.shape}")
    binary = (values == 1) | (values == -1)
    if not binary.all():
        raise ValueError(f"tuple values must be -1 or +1, got {values[~binary][0].item()!r}")
    return abs(int(_chsh_terms(*values.astype(np.int64).T)[0].sum())) / len(values)


def _check_record_integrity(table: TrialTable) -> None:
    """Check a table's v, and that its raws and alphas are finite and its betas +-1."""
    check_strength(table.v)
    # alpha = raw / v with 0 < v <= 1 is finite only where raw is, so one
    # pass over the alphas and betas passes a sound table; a table it does
    # not pass is searched field by field for the error to name
    alpha1, alpha2, beta1, beta2 = table.alpha1, table.alpha2, table.beta1, table.beta2
    if np.isfinite(alpha1).all() and np.isfinite(alpha2).all() and (abs(beta1) == 1).all() and (abs(beta2) == 1).all():
        return
    for name, values in (("raw1", table.raw1), ("raw2", table.raw2), ("alpha1", alpha1), ("alpha2", alpha2)):
        if not np.isfinite(values).all():
            raise ValueError(f"malformed records: non-finite {name}")
    for b in (beta1, beta2):
        if not np.isin(b, (-1, 1)).all():
            raise ValueError("malformed records: beta outside {-1, +1}")


def _check_threshold(threshold_sigmas) -> None:
    if not (np.isfinite(threshold_sigmas) and threshold_sigmas > 0):
        raise ValueError(f"threshold_sigmas must be positive, got {threshold_sigmas}")


# Bytes of record file per audit range, at least: a file under twice this
# is audited in this process, as one range, and a larger one in a pool, in
# at most one range per usable CPU.  Measured on a 2-core box, fresh audit
# processes, 12 alternating pairs of one range and two: at 8.2 MB one range
# was faster (0.268 against 0.306 s), at 10.2 and 12.3 MB two ranges won 7
# of 12 by under 0.02 s, and at 16.5 MB they won 12 of 12 (0.406 to 0.337 s).
# Only the command was measured: a library caller that audits many files
# in one long-lived process opens a new pool for each.
_AUDIT_RANGE_BYTES = 6 << 20


def _audit_range(records: RecordFile, part: tuple) -> list:
    """The ChshMoments of each FOLD_ROWS block of one range of a record
    file, part a (cut, count) of its ranges, in file order, each block once
    it passes the decomposition test's checks and holds the trial_index of
    its rows: a file's rows are trials 0, 1, 2, ... in order, so a file
    with a trial duplicated or missing is refused.
    """
    row = part[0][1]
    moments = []
    for block in records.blocks(*part):
        _check_record_integrity(block)
        wrong = np.flatnonzero(block.trial_index != np.arange(row, row + len(block)))
        if len(wrong):
            at = row + int(wrong[0])
            index = block.trial_index[wrong[0]]
            raise ValueError(f"malformed records: trial_index {index} at line {at + 3}, expected {at}")
        moments.append(_block_moments(block, 0))
        row += len(block)
    return moments


def _audit_file(records: RecordFile) -> ChshReport:
    """The CHSH estimate of a record file, audited in byte ranges as the module docstring says."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    parts = max(1, min(cpus, os.path.getsize(records.path) // _AUDIT_RANGE_BYTES))
    # each task reads its range a block at a time, so none holds its range;
    # the results are taken in file order, so the first error in file order is raised
    ranges = _pool_map(partial(_audit_range, records), records.ranges(parts), workers=parts)
    moments = reduce(ChshMoments.merge, chain.from_iterable(ranges))  # a range that yields no block raises
    return moments.report()


def decomposition_test(records, threshold_sigmas: float = DEFAULT_THRESHOLD_SIGMAS) -> AuditVerdict:
    """Can these records be binary signals plus setting-independent
    zero-mean noise?  REJECT means no such decomposition exists; CONSISTENT
    is no certificate that one does, since only the fixed-sign CHSH
    combination is tested (see the module docstring).

    records is one of:
    - a record file, as records.read_record_blocks gives it: audited in
      byte ranges on every usable CPU (a pool opens for a file of two
      _AUDIT_RANGE_BYTES or more, unless this process is daemonic, so a
      script that audits one on a spawn platform needs its __main__
      guard), and its rows must be trials 0, 1, 2, ... in order, or a
      ValueError names the first trial_index out of place;
    - a TrialTable, whose v rescales its raws;
    - any other iterable of the TrialTable blocks of one experiment, folded
      into the estimate as they come, so a stream is never held whole.  A
      table or stream passes through trials._one_experiment, so a block of
      another experiment raises ValueError, and anything but a TrialTable
      raises TypeError.
    Each block is checked (finite raws and alphas, betas of +-1), and the
    first error in file or stream order is raised.  Fewer than 2 records
    cannot give a standard error and raise ValueError (ChshMoments.report).
    The verdict is decomposition_verdict's on the folded estimate.
    """
    _check_threshold(threshold_sigmas)
    if isinstance(records, RecordFile):
        return decomposition_verdict(_audit_file(records), threshold_sigmas)
    blocks = _one_experiment(records, TrialTable, _check_record_integrity)
    return decomposition_verdict(estimate_chsh(blocks), threshold_sigmas)


def decomposition_verdict(report: ChshReport, threshold_sigmas: float = DEFAULT_THRESHOLD_SIGMAS) -> AuditVerdict:
    """The decomposition test's verdict on the CHSH estimate of records that pass its checks.

    The statistic is the absolute rescaled combination
    |E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)|, the mean of the per-trial
    term, and its standard error is the term's.  Under the
    binary-plus-unbiased-noise model its mean is <= 2, so an excess beyond
    threshold_sigmas standard errors rejects the model.  Verdicts are
    INCONCLUSIVE below MIN_RECORDS records or when the standard error
    exceeds STDERR_CAP.
    """
    _check_threshold(threshold_sigmas)
    value = abs(report.chsh)
    stderr = report.chsh_stderr
    if report.e11.count < MIN_RECORDS or stderr > STDERR_CAP:
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
    """Deterministic responses to a uniform lambda that all four signals share:
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


def hidden_variable_source(config: HiddenVariableConfig, v: float, noise: NoiseModel = NO_NOISE) -> Source:
    """config's binary signals as a source: weak channels raw_i = v * A_i + noise, projective B_j.

    The thresholds cut the shared lambda's range [0, 1) into at most five
    intervals; every signal is constant on each, so an interval's length
    is the probability of one (A1, A2, B1, B2) branch.  The noiseless
    signals are binary, so the combination obeys the bound of 2.
    """
    v = check_strength(v)
    t, s = config.thresholds, config.signs
    cuts = sorted({0.0, 1.0, *t})
    law = [0.0] * len(BRANCHES)
    for lo, hi in zip(cuts, cuts[1:]):
        # each threshold is a cut, so lambda < t_k on all of [lo, hi) exactly when lo < t_k
        branch = tuple(sk * (1 if lo < tk else -1) for tk, sk in zip(t, s))
        law[BRANCHES.index(branch)] += hi - lo
    sid = (
        f"hidden;idx={config.index};t={':'.join(f'{tk:.17g}' for tk in t)};"
        f"s={':'.join(map(str, s))};v={v:.12g};bias={noise.bias:.12g};sigma={noise.sigma:.12g}"
    )
    return Source(sid, tuple(law), v, noise, raw_scale=v)
