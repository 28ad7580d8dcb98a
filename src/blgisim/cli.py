"""Command-line harness: argument parsing, sweeps, persistence, manifests.

Subcommands: verify-theorem, simulate, audit, predict, sweep.  argv is parsed
once, and the parsed ``argparse.Namespace`` is the command.  Every value check
is an argparse ``type=`` (the library's own checks, such as ``check_strength``
and ``check_steps``, where there is one), so a bad flag or value is a usage
error before any work or output.  Each subcommand sets its handler on the
namespace; the handler builds the library objects it needs from the flags,
and the run manifest records the same flags.  Exit codes: 0 success, 1
runtime or I/O failure, 2 usage error, 3 self-test failure (verify-theorem
only).

simulate and predict each take their sampler's one chunk stream,
trials.trial_chunks and prediction.prediction_chunks, through a fold
(ChshFold, PredictionFold) to the writer, so neither holds its run; their
--workers pools the chunks.  These streams and the block readers are the
package's only routes for records, so no command joins a run into one
table.  audit takes no --workers: it is
audit.decomposition_test of records.read_record_blocks, which audits the
file in byte ranges on every usable CPU, with the same output whatever
the cut.  sweep takes --workers and records it in its manifest, but runs
its grid points in its own process at any count: a point takes a few ms,
less than a pool's start-up.

Importing this module sets OPENBLAS_NUM_THREADS to 1, unless it is set,
before anything loads numpy: the command runs numpy's BLAS on one thread,
and so does every pool worker it opens.
"""

from __future__ import annotations

import os

# numpy's bundled OpenBLAS starts a pool thread when numpy loads, and the
# thread spins while idle.  blgisim calls no BLAS routine (no linalg or
# matmul), so the thread only burns CPU: on a 2-core box it was 0.12 s of
# the 0.32 s of CPU that a fresh 4096-trial `predict` took.  OpenBLAS reads
# the variable once, as numpy loads, so it is set before any import that
# loads numpy; forked pool workers inherit the one thread and spawned ones
# the variable.  setdefault, so that a caller's own setting wins.  A library
# leaves its caller's threading alone, so only this module, which owns its
# process, sets it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# numpy, then the package, then the stdlib: of the orders tried, this one
# gave that `predict`, compiled from source, the lowest peak RSS, about
# 0.3 MB below numpy, stdlib, package and 0.5 MB below the usual stdlib,
# numpy, package.
import numpy as np

from ._version import __version__
from .audit import (
    DEFAULT_THRESHOLD_SIGMAS,
    chsh_bound_check,
    decomposition_test,
    decomposition_verdict,
    exhaustive_verify,
)
from .prediction import (
    MAX_STEPS,
    PredictionFold,
    SequentialReadoutParams,
    check_steps,
    exact_post_protocol_chsh,
    post_protocol_chsh,
    prediction_accuracy,
    prediction_accuracy_exact,
    prediction_chunks,
    prediction_settings,
)
from .records import (
    RECORD_FORMAT,
    SWEEP_HEADER,
    RunManifest,
    emit_manifest,
    emit_predictions,
    emit_records,
    emit_sweep,
    read_record_blocks,
)
from .streams import LAYOUT_VERSION, derived_seed
from .trials import (
    MAX_COUNT_TRIALS,
    ChshFold,
    DegenerateBranchError,
    NoiseModel,
    Settings,
    _count_moments,
    check_strength,
    exact_chsh,
    trial_chunks,
)

import argparse
import json
import math
import shlex
import sys
from dataclasses import asdict
from datetime import datetime, timezone

_BELL_FLAGS = {"phi+": "phi_plus", "psi-": "psi_minus"}
# namespace entries that are not flags: the command's name, its handler and its argv
_NOT_FLAGS = ("argv", "command", "handler")


def _parse(convert, text: str, expected: str, ok=lambda value: True):
    """convert(text) if it converts and ok accepts the value, else a usage
    error that names the expected value."""
    try:
        value = convert(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")


def _strength(text: str) -> float:
    return _parse(lambda t: check_strength(float(t)), text, "a coupling strength in (0, 1]")


def _steps(text: str) -> int:
    return _parse(lambda t: check_steps(int(t)), text, f"an integer in [1, {MAX_STEPS}]")


def _positive_int(text: str) -> int:
    return _parse(int, text, "an integer >= 1", lambda n: n >= 1)


def _trials(text: str) -> int:
    return _parse(int, text, "an integer >= 2 (a correlator needs two trials)", lambda n: n >= 2)


def _count_trials(text: str) -> int:
    return _parse(_trials, text, f"at most {MAX_COUNT_TRIALS} trials per grid point", lambda n: n <= MAX_COUNT_TRIALS)


def _predict_trials(text: str) -> int:
    # the after-protocol check draws trials // 4 per axis pair, each at most MAX_COUNT_TRIALS
    bound = 4 * MAX_COUNT_TRIALS + 3
    return _parse(_positive_int, text, f"an integer in [1, {bound}]", lambda n: n <= bound)


def _seed(text: str) -> int:
    return _parse(int, text, "a 64-bit unsigned integer", lambda n: 0 <= n < 2**64)


def _finite(text: str) -> float:
    return _parse(float, text, "a finite number", math.isfinite)


def _nonneg(text: str) -> float:
    return _parse(float, text, "a finite number >= 0", lambda x: 0.0 <= x < math.inf)


def _positive(text: str) -> float:
    return _parse(float, text, "a finite number > 0", lambda x: 0.0 < x < math.inf)


def _angles(text: str) -> tuple:
    try:
        angles = tuple(math.radians(float(p)) for p in text.split(","))
    except ValueError:
        angles = ()
    if len(angles) != 4 or not all(map(math.isfinite, angles)):
        raise argparse.ArgumentTypeError(f"expected four finite angles a1,a2,b1,b2 in degrees, got {text!r}")
    return angles


def _v_grid(text: str) -> tuple:
    return tuple(_strength(p) for p in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blgisim",
        description="Weak-measurement Bell-test simulator and binary-plus-noise auditor.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    ver = sub.add_parser("verify-theorem", help="enumerate the binary bound and check it on random sequences")
    ver.set_defaults(handler=_do_verify_theorem)

    sim = sub.add_parser("simulate", help="run weak+projective trials and write a record CSV")
    sim.add_argument("--v", type=_strength, required=True, help="coupling strength in (0, 1]")
    sim.add_argument("--trials", type=_trials, default=100000)
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--angles", type=_angles, default=_angles("0,90,45,-45"), metavar="A1,A2,B1,B2", help="axes in degrees (default 0,90,45,-45)")
    sim.add_argument("--bell", choices=sorted(_BELL_FLAGS), default="phi+")
    sim.add_argument("--noise-sigma", type=_nonneg, default=0.0)
    sim.add_argument("--noise-bias", type=_finite, default=0.0)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--workers", type=_positive_int, default=1)
    sim.set_defaults(handler=_do_simulate)

    aud = sub.add_parser("audit", help="test a record CSV against the binary+unbiased-noise model")
    aud.add_argument("--in", dest="in_path", required=True, help="input record CSV")
    aud.add_argument("--v", type=_strength, required=True)
    aud.add_argument("--threshold-sigmas", type=_positive, default=DEFAULT_THRESHOLD_SIGMAS)
    aud.set_defaults(handler=_do_audit)

    pre = sub.add_parser("predict", help="sequential-readout prediction of projective Bell outcomes")
    pre.add_argument("--v", type=_strength, required=True, help="system-ancilla coupling strength")
    pre.add_argument("--readout-v", type=_strength, default=0.05, help="per-step readout strength")
    pre.add_argument("--steps", type=_steps, default=10000)
    pre.add_argument("--trials", type=_predict_trials, default=1000)
    pre.add_argument("--seed", type=_seed, default=0)
    pre.add_argument("--out", required=True, help="output CSV path")
    pre.add_argument("--workers", type=_positive_int, default=1)
    pre.set_defaults(handler=_do_predict)

    swe = sub.add_parser("sweep", help="exact and empirical combination across a V grid")
    swe.add_argument("--v-grid", type=_v_grid, required=True, metavar="V1,V2,...")
    swe.add_argument("--trials", type=_count_trials, default=50000, help="trials per grid point")
    swe.add_argument("--seed", type=_seed, default=0)
    swe.add_argument("--out", required=True, help="output CSV path")
    swe.add_argument(
        "--workers", type=_positive_int, default=1, help="accepted and recorded; the grid points run in this process"
    )
    swe.set_defaults(handler=_do_sweep)
    return parser


def parse_invocation(argv) -> argparse.Namespace:
    """Parse argv (sys.argv[1:] when None) into the command: a namespace of
    the parsed flags, plus ``command``, ``handler`` and ``argv`` itself.

    Every value is checked while parsing, so a bad flag or value raises
    SystemExit(2) with usage text before any work; --help and --version
    raise SystemExit(0).
    """
    argv = tuple(sys.argv[1:] if argv is None else argv)
    return _build_parser().parse_args(argv, argparse.Namespace(argv=argv))


def _sweep_point(k: int, v: float, trials: int, master_seed: int) -> tuple:
    """Grid point k's sweep row: v, the exact combination, the empirical one
    and its stderr, and the decomposition-test verdict.

    The point's source is noise-free, so a trial's terms depend only on its
    branch, and the empirical columns come from the 16 branch counts of its
    trials, drawn as one multinomial (trials._count_moments) from the seed
    derived from (master_seed, k): no trial is formed, the cost grows as
    sqrt(trials), and the row does not depend on the other points.
    """
    point = Settings(v=v)
    report = _count_moments(point, trials, int(derived_seed(master_seed, k))).report()
    return v, exact_chsh(point), report.chsh, report.chsh_stderr, decomposition_verdict(report).verdict


def run_sweep(v_values, trials: int, master_seed: int) -> dict:
    """The sweep of `trials` trials of default_settings(v) per grid point.

    Returns columns keyed by SWEEP_HEADER, one entry per point, as
    _sweep_point computes it from the point's branch counts, not from its
    trials.  The points run one after another in this process: a point is
    16 branch counts and takes a few ms, less than starting a process pool
    would.  Every point uses a seed derived from (master_seed, point
    index), so the columns do not depend on the evaluation order.
    """
    rows = [_sweep_point(k, v, trials, master_seed) for k, v in enumerate(v_values)]
    return {name: [row[i] for row in rows] for i, name in enumerate(SWEEP_HEADER)}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(ns: argparse.Namespace, started: str) -> str:
    """Write <out>.manifest.json; its parameters are the command's parsed flags."""
    manifest = RunManifest(
        tool_version=__version__,
        command=shlex.join(ns.argv),
        master_seed=ns.seed,
        parameters={name: value for name, value in vars(ns).items() if name not in _NOT_FLAGS},
        started=started,
        finished=_now(),
        output_paths=[ns.out],
        layout_version=LAYOUT_VERSION,
        record_format=RECORD_FORMAT,
    )
    return emit_manifest(manifest, ns.out + ".manifest.json")


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _do_verify_theorem(ns: argparse.Namespace) -> int:
    report = exhaustive_verify()
    rng = np.random.default_rng(12345)
    worst = 0.0
    sequences = 200
    for _ in range(sequences):
        length = int(rng.integers(1, 600))
        seq = [tuple(x) for x in rng.choice((-1, 1), size=(length, 4))]
        worst = max(worst, chsh_bound_check(seq))
    ok = report.plus_two == 8 and report.minus_two == 8 and report.mean_term == 0.0 and worst <= 2.0
    _emit(
        {
            "tuples_enumerated": len(report.rows),
            "plus_two": report.plus_two,
            "minus_two": report.minus_two,
            "mean_term": report.mean_term,
            "random_sequences_checked": sequences,
            "max_bound_value": worst,
            "bound": 2.0,
            "ok": ok,
        }
    )
    return 0 if ok else 3


def _do_simulate(ns: argparse.Namespace) -> int:
    started = _now()
    noise = NoiseModel(bias=ns.noise_bias, sigma=ns.noise_sigma)
    settings = Settings(*ns.angles, v=ns.v, noise=noise, bell_kind=_BELL_FLAGS[ns.bell])
    # one pass: each chunk is folded and written as it arrives, then let go
    fold = ChshFold(trial_chunks(settings, ns.trials, ns.seed, workers=ns.workers))
    emit_records(fold, ns.out)
    manifest_path = _write_manifest(ns, started)
    report = fold.report()
    _emit(
        {
            "records": len(fold),
            "out": ns.out,
            "manifest": manifest_path,
            "chsh": report.chsh,
            "chsh_stderr": report.chsh_stderr,
            "exact_chsh": exact_chsh(settings),
        }
    )
    return 0


def _do_audit(ns: argparse.Namespace) -> int:
    _emit(asdict(decomposition_test(read_record_blocks(ns.in_path, ns.v), ns.threshold_sigmas)))
    return 0


def _do_predict(ns: argparse.Namespace) -> int:
    started = _now()
    settings = prediction_settings(ns.v)
    readout = SequentialReadoutParams(v=ns.readout_v, steps=ns.steps)
    post = post_protocol_chsh(settings, readout, max(8, ns.trials), ns.seed)
    # one pass, as in simulate: each chunk's matches are counted as it is written, then it is let go
    fold = PredictionFold(prediction_chunks(settings, readout, ns.trials, ns.seed, workers=ns.workers))
    emit_predictions(fold, ns.out)
    accuracy = prediction_accuracy(fold)
    manifest_path = _write_manifest(ns, started)
    _emit(
        {
            "records": len(fold),
            "out": ns.out,
            "manifest": manifest_path,
            "accuracy": accuracy.accuracy,
            "ci_low": accuracy.ci_low,
            "ci_high": accuracy.ci_high,
            "matches": accuracy.matches,
            "count": accuracy.count,
            "exact_accuracy": prediction_accuracy_exact(settings, readout),
            "expected_accuracy_saturated": (1.0 + settings.v) / 2.0,
            "post_protocol_chsh": post.chsh,
            "post_protocol_chsh_stderr": post.chsh_stderr,
            "exact_post_protocol_chsh": exact_post_protocol_chsh(settings),
        }
    )
    return 0


def _do_sweep(ns: argparse.Namespace) -> int:
    started = _now()
    columns = run_sweep(ns.v_grid, ns.trials, ns.seed)
    emit_sweep(columns, ns.out)
    manifest_path = _write_manifest(ns, started)
    _emit(
        {
            "points": len(ns.v_grid),
            "out": ns.out,
            "manifest": manifest_path,
            "verdicts": columns["verdict"],
        }
    )
    return 0


def main(argv=None) -> int:
    try:
        ns = parse_invocation(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return ns.handler(ns)
    except (OSError, ValueError, DegenerateBranchError) as exc:
        print(f"blgisim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
