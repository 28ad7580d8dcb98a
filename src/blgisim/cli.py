"""Command-line harness: argument parsing, sweeps, persistence, manifests.

Subcommands: verify-theorem, simulate, audit, predict, sweep.  Exit codes:
0 success, 1 runtime or I/O failure, 2 usage error, 3 self-test failure
(verify-theorem only).
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .audit import (
    DEFAULT_THRESHOLD_SIGMAS,
    chsh_bound_check,
    decomposition_test,
    exhaustive_verify,
)
from .prediction import (
    SequentialReadoutParams,
    _post_protocol_check,
    prediction_accuracy,
    prediction_accuracy_exact,
    prediction_batch,
    prediction_settings,
)
from .qubits import DegenerateBranchError, NoiseModel, check_strength
from .records import (
    RunManifest,
    SweepRow,
    emit_manifest,
    emit_predictions,
    emit_records,
    emit_sweep,
    read_records,
)
from .streams import LAYOUT_VERSION, derived_seed
from .trials import Settings, estimate_chsh, exact_chsh, simulate_trials

_BELL_FLAGS = {"phi+": "phi_plus", "psi-": "psi_minus"}


@dataclass(frozen=True)
class SweepSpec:
    v_values: tuple
    trials_per_point: int

    def __post_init__(self) -> None:
        if not self.v_values:
            raise ValueError("sweep grid must be nonempty")
        for v in self.v_values:
            check_strength(v)
        if self.trials_per_point < 2:
            raise ValueError(f"trials_per_point must be >= 2 to estimate a correlator, got {self.trials_per_point}")


@dataclass(frozen=True)
class VerifyTheoremCommand:
    argv: tuple


@dataclass(frozen=True)
class SimulateCommand:
    settings: Settings
    trials: int
    seed: int
    out: str
    workers: int
    argv: tuple


@dataclass(frozen=True)
class AuditCommand:
    in_path: str
    v: float
    threshold_sigmas: float
    argv: tuple


@dataclass(frozen=True)
class PredictCommand:
    settings: Settings
    readout: SequentialReadoutParams
    trials: int
    seed: int
    out: str
    workers: int
    argv: tuple


@dataclass(frozen=True)
class SweepCommand:
    spec: SweepSpec
    seed: int
    out: str
    workers: int
    argv: tuple


def _strength(text: str):
    try:
        return check_strength(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be a 64-bit unsigned integer, got {value}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _nonneg(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _angles(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected a1,a2,b1,b2 in degrees, got {text!r}")
    try:
        return tuple(math.radians(float(p)) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"angles must be numeric, got {text!r}") from None


def _v_grid(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("v grid must be nonempty")
    return tuple(_strength(p) for p in parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blgisim",
        description="Weak-measurement Bell-test simulator and binary-plus-noise auditor.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser("verify-theorem", help="enumerate the binary bound and check it on random sequences")

    sim = sub.add_parser("simulate", help="run weak+projective trials and write a record CSV")
    sim.add_argument("--v", type=_strength, required=True, help="coupling strength in (0, 1]")
    sim.add_argument("--trials", type=_positive_int, default=100000)
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--angles", type=_angles, default=_angles("0,90,45,-45"), metavar="A1,A2,B1,B2", help="axes in degrees (default 0,90,45,-45)")
    sim.add_argument("--bell", choices=sorted(_BELL_FLAGS), default="phi+")
    sim.add_argument("--noise-sigma", type=_nonneg, default=0.0)
    sim.add_argument("--noise-bias", type=_finite, default=0.0)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--workers", type=_positive_int, default=1)

    aud = sub.add_parser("audit", help="test a record CSV against the binary+unbiased-noise model")
    aud.add_argument("--in", dest="in_path", required=True, help="input record CSV")
    aud.add_argument("--v", type=_strength, required=True)
    aud.add_argument("--threshold-sigmas", type=_positive, default=DEFAULT_THRESHOLD_SIGMAS)

    pre = sub.add_parser("predict", help="sequential-readout prediction of projective Bell outcomes")
    pre.add_argument("--v", type=_strength, required=True, help="system-ancilla coupling strength")
    pre.add_argument("--readout-v", type=_strength, default=0.05, help="per-step readout strength")
    pre.add_argument("--steps", type=_positive_int, default=10000)
    pre.add_argument("--trials", type=_positive_int, default=1000)
    pre.add_argument("--seed", type=_seed, default=0)
    pre.add_argument("--out", required=True, help="output CSV path")
    pre.add_argument("--workers", type=_positive_int, default=1)

    swe = sub.add_parser("sweep", help="exact and empirical combination across a V grid")
    swe.add_argument("--v-grid", type=_v_grid, required=True, metavar="V1,V2,...")
    swe.add_argument("--trials", type=_positive_int, default=50000, help="trials per grid point")
    swe.add_argument("--seed", type=_seed, default=0)
    swe.add_argument("--out", required=True, help="output CSV path")
    swe.add_argument("--workers", type=_positive_int, default=1)
    return parser


def parse_invocation(argv) -> object:
    """Parse and validate argv into a typed command object.

    Raises SystemExit(2) with usage text on invalid flags or values, and
    SystemExit(0) for --help.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    tup = tuple(argv)
    try:
        if ns.command == "verify-theorem":
            return VerifyTheoremCommand(argv=tup)
        if ns.command == "simulate":
            if ns.trials < 2:
                raise ValueError(f"trials must be >= 2 to estimate the correlators, got {ns.trials}")
            a1, a2, b1, b2 = ns.angles
            settings = Settings(
                a1=a1,
                a2=a2,
                b1=b1,
                b2=b2,
                v=ns.v,
                noise=NoiseModel(bias=ns.noise_bias, sigma=ns.noise_sigma),
                bell_kind=_BELL_FLAGS[ns.bell],
            )
            return SimulateCommand(settings, ns.trials, ns.seed, ns.out, ns.workers, tup)
        if ns.command == "audit":
            return AuditCommand(ns.in_path, ns.v, ns.threshold_sigmas, tup)
        if ns.command == "predict":
            readout = SequentialReadoutParams(v=ns.readout_v, steps=ns.steps)
            return PredictCommand(prediction_settings(ns.v), readout, ns.trials, ns.seed, ns.out, ns.workers, tup)
        if ns.command == "sweep":
            spec = SweepSpec(v_values=ns.v_grid, trials_per_point=ns.trials)
            return SweepCommand(spec, ns.seed, ns.out, ns.workers, tup)
    except ValueError as exc:
        parser.error(str(exc))
    raise AssertionError(f"unhandled command {ns.command!r}")


def run_sweep(spec: SweepSpec, settings: Settings, master_seed: int, workers: int = 1) -> list:
    """One row per grid point: exact combination, empirical combination,
    stderr, and the decomposition-test verdict.

    Each point uses a seed derived from (master_seed, point index), so rows
    are independent and insensitive to evaluation order and worker count.
    """
    rows = []
    for k, v in enumerate(spec.v_values):
        point = replace(settings, v=v)
        point_seed = int(derived_seed(master_seed, k))
        table = simulate_trials(point, spec.trials_per_point, point_seed, workers=workers)
        report = estimate_chsh(table)
        verdict = decomposition_test(table, v).verdict
        rows.append(
            SweepRow(
                v=v,
                exact_chsh=exact_chsh(point),
                empirical_chsh=report.chsh,
                chsh_stderr=report.chsh_stderr,
                verdict=verdict,
            )
        )
    return rows


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(cmd, master_seed: int, out: str, started: str) -> str:
    """Write <out>.manifest.json; its parameters are the command's parsed flags."""
    flags = vars(_build_parser().parse_args(cmd.argv))
    manifest = RunManifest(
        tool_version=__version__,
        command=shlex.join(cmd.argv),
        master_seed=master_seed,
        parameters={name: value for name, value in flags.items() if name != "command"},
        started=started,
        finished=_now(),
        output_paths=[out],
        layout_version=LAYOUT_VERSION,
    )
    return emit_manifest(manifest, out + ".manifest.json")


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _do_verify_theorem(cmd: VerifyTheoremCommand) -> int:
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


def _do_simulate(cmd: SimulateCommand) -> int:
    started = _now()
    table = simulate_trials(cmd.settings, cmd.trials, cmd.seed, workers=cmd.workers)
    emit_records(table, cmd.out)
    manifest_path = _write_manifest(cmd, cmd.seed, cmd.out, started)
    report = estimate_chsh(table)
    _emit(
        {
            "records": len(table),
            "out": cmd.out,
            "manifest": manifest_path,
            "chsh": report.chsh,
            "chsh_stderr": report.chsh_stderr,
            "exact_chsh": exact_chsh(cmd.settings),
        }
    )
    return 0


def _do_audit(cmd: AuditCommand) -> int:
    table = read_records(cmd.in_path)
    verdict = decomposition_test(table, cmd.v, cmd.threshold_sigmas)
    _emit(asdict(verdict))
    return 0


def _do_predict(cmd: PredictCommand) -> int:
    started = _now()
    table = prediction_batch(
        cmd.settings, cmd.readout, cmd.trials, cmd.seed, workers=cmd.workers
    )
    emit_predictions(table, cmd.out)
    accuracy = prediction_accuracy(table)
    post, exact_post = _post_protocol_check(cmd.settings, cmd.readout, max(8, cmd.trials), cmd.seed)
    manifest_path = _write_manifest(cmd, cmd.seed, cmd.out, started)
    _emit(
        {
            "records": len(table),
            "out": cmd.out,
            "manifest": manifest_path,
            "accuracy": accuracy.accuracy,
            "ci_low": accuracy.ci_low,
            "ci_high": accuracy.ci_high,
            "matches": accuracy.matches,
            "count": accuracy.count,
            "exact_accuracy": prediction_accuracy_exact(cmd.settings, cmd.readout),
            "expected_accuracy_saturated": (1.0 + cmd.settings.v) / 2.0,
            "post_protocol_chsh": post.chsh,
            "post_protocol_chsh_stderr": post.chsh_stderr,
            "exact_post_protocol_chsh": exact_post,
        }
    )
    return 0


def _do_sweep(cmd: SweepCommand) -> int:
    started = _now()
    rows = run_sweep(cmd.spec, Settings(v=cmd.spec.v_values[0]), cmd.seed, workers=cmd.workers)
    emit_sweep(rows, cmd.out)
    manifest_path = _write_manifest(cmd, cmd.seed, cmd.out, started)
    _emit(
        {
            "points": len(rows),
            "out": cmd.out,
            "manifest": manifest_path,
            "verdicts": [r.verdict for r in rows],
        }
    )
    return 0


def main(argv=None) -> int:
    try:
        cmd = parse_invocation(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    handlers = {
        VerifyTheoremCommand: _do_verify_theorem,
        SimulateCommand: _do_simulate,
        AuditCommand: _do_audit,
        PredictCommand: _do_predict,
        SweepCommand: _do_sweep,
    }
    try:
        return handlers[type(cmd)](cmd)
    except (OSError, ValueError, DegenerateBranchError) as exc:
        print(f"blgisim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
