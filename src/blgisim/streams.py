"""Counter-based random streams for reproducible, order-independent Monte Carlo.

Every stochastic quantity in this package is derived from (master_seed,
trial_index) through a keyed Philox counter stream.  Philox advances in
blocks of four 64-bit outputs, and ``Generator.random(dtype=float64)``
consumes exactly one output per draw, so a trial that owns a block-aligned
window of draws gets the same values no matter how trials are chunked or
how many workers run them.

Layout contract: a stream is identified by (master_seed, tag); index ``k``
of that stream owns draws [k * 4 * blocks, (k + 1) * 4 * blocks).  Callers
declare ``blocks`` wide enough for their fixed per-index draw budget and
must consume draws in a documented order.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

DRAWS_PER_BLOCK = 4

# Version of the draw layout that run manifests record.  Bumped whenever a
# consumer changes which draws it takes or what it does with them, because
# the same master seed then writes different record bytes.
#   1: the sequential readout took one draw per readout step.
#   2: the sequential readout took two draws per ancilla (eigenvalue, count).
#   3: a simulate trial takes one block: branch, noise 1, noise 2.
#   4: a prediction trial takes one block: branch (c1, c2, t1, t2), count 1, count 2.
#   5: a hidden-variable trial is a simulate trial of its 16-branch law, on
#      the trial stream, not a lambda threshold test on a stream of its own.
#   6: the branch law is the real bilinear form; the draws and every record
#      byte are unchanged; the sweep's exact_chsh moves in its last bits.
#   7: a sweep point draws the 16 branch counts of its trials (one uniform
#      per conditional binomial, on the count stream), not each trial; the
#      sweep's empirical columns move, and no record byte does.
#   8: the after-protocol Bell check draws each test-axis pair's four outcome
#      counts (one uniform per conditional binomial, from the pair's window
#      of its stream), not each trial; predict's post_protocol_chsh and its
#      stderr move, and no record byte does.
#   9: the noise's inverse normal CDF takes its tail logs in numpy IEEE
#      arithmetic (fdlibm's log), not the C library's log; noisy simulate
#      raws move in their last bits, and no branch, beta, predict or sweep
#      byte does.
LAYOUT_VERSION = 9

# Stream tags: second 64-bit word of the Philox key. Distinct per consumer
# so no two subsystems ever share counter space under one master seed.
TRIAL_STREAM = 0x01
HIDDEN_VAR_CONFIG_STREAM = 0x03
PREDICT_STREAM = 0x04
POST_CHSH_STREAM = 0x07
COUNT_STREAM = 0x08

_U64 = np.uint64
_MASK64 = _U64(0xFFFFFFFFFFFFFFFF)


def stream(master_seed: int, tag: int, index: int = 0, blocks: int = 1) -> Generator:
    """Generator positioned at the start of window ``index`` of a keyed stream.

    The returned generator may draw up to ``4 * blocks`` float64 values
    before trespassing into the next index's window.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must be a 64-bit unsigned value, got {master_seed}")
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    bitgen = Philox(key=np.array([master_seed, tag], dtype=_U64))
    bitgen.advance(index * blocks)
    return Generator(bitgen)


def window_uniforms(
    master_seed: int, tag: int, start_index: int, count: int, blocks: int
) -> np.ndarray:
    """Uniform draws for ``count`` consecutive windows, one row per index.

    Row ``i`` holds the 4*blocks draws owned by index ``start_index + i``,
    identical to what ``stream(master_seed, tag, start_index + i, blocks)``
    would produce one value at a time.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    gen = stream(master_seed, tag, start_index, blocks)
    return gen.random((count, DRAWS_PER_BLOCK * blocks))


def derived_seed(master_seed: int, trial_index) -> "int | np.ndarray":
    """64-bit seed mixed from (master_seed, trial_index) by a splitmix64
    finalizer over a golden-ratio index walk.

    cli's sweep seeds grid point k with derived_seed(master_seed, k), so
    every point draws its own stream, apart from the other points.  Accepts
    scalar or integer array indices.
    """
    idx = np.asarray(trial_index, dtype=_U64)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z = (_U64(master_seed) + (idx + _U64(1)) * _U64(0x9E3779B97F4A7C15)) & _MASK64
        z = ((z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)) & _MASK64
        z = ((z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)) & _MASK64
        z = z ^ (z >> _U64(31))
    if np.isscalar(trial_index):
        return int(z)
    return z
