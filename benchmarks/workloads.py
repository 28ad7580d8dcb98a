"""The benchmark's workloads: CLI commands in order, each with an output check.

Each workload exercises a different layer of blgisim:

- records_pipeline: `simulate` 1M trials to CSV, then `audit` that CSV.
  Record I/O (emit_records, read_records) does most of the work; the
  state-vector trials engine a minor share.  Writes and reads sit side by
  side, so a codec change that helps one and hurts the other shows.
- predict_saturated: `predict` with steps * v^2 = 25, two 2048-trial
  chunks.  The sequential readout chain and the Philox streams do almost
  all the work and hold the largest arrays; records and trials do almost
  none.
- sweep_pool: a 6-point `sweep` at workers=2, the only workload that goes
  through the ProcessPoolExecutor path.  It writes almost no CSV, so an
  I/O change should leave it unchanged while a sampler or pool change
  moves it.

A check returns a list of problems; an empty list means the command's
output is right.  The checks hold with overwhelming probability for every
seed (5 standard errors, or 4 for prediction accuracy).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("records_pipeline", "predict_saturated", "sweep_pool")

SWEEP_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
RECORDS_V = 0.2
PREDICT_V = 0.5


@dataclass(frozen=True)
class Size:
    records_trials: int
    predict_trials: int
    predict_steps: int
    predict_readout_v: float
    sweep_trials: int


SIZES = {
    "full": Size(records_trials=1_000_000, predict_trials=4096, predict_steps=10000, predict_readout_v=0.05, sweep_trials=200_000),
    # Same saturation (steps * v^2 = 25) and verdicts, small enough for a smoke test.
    "tiny": Size(records_trials=20_000, predict_trials=256, predict_steps=2500, predict_readout_v=0.1, sweep_trials=100_000),
}


@dataclass(frozen=True)
class Step:
    """One CLI command.  `check(summary, earlier)` gets the command's JSON
    summary and the summaries of the workload's earlier commands by name."""

    name: str
    argv: tuple
    check: Callable[[dict, dict], list]


def _within(value: float, target: float, tolerance: float) -> bool:
    return abs(value - target) <= tolerance  # False for NaN


def check_simulate(summary: dict, earlier: dict) -> list:
    chsh, exact, se = summary["chsh"], summary["exact_chsh"], summary["chsh_stderr"]
    if not _within(chsh, exact, 5 * se):
        return [f"simulate chsh {chsh} is more than 5 SE ({se}) from exact {exact}"]
    return []


def check_audit(summary: dict, earlier: dict) -> list:
    problems = []
    if summary["verdict"] != "REJECT":
        problems.append(f"audit verdict {summary['verdict']}, expected REJECT")
    written = abs(earlier["simulate"]["chsh"])
    if not _within(summary["chsh_value"], written, 1e-12):
        problems.append(f"audit chsh_value {summary['chsh_value']} differs from simulate chsh {written}")
    return problems


def check_predict(summary: dict, earlier: dict) -> list:
    problems = []
    accuracy, count = summary["accuracy"], summary["count"]
    expected = (1.0 + PREDICT_V) / 2.0
    tolerance = 4 * math.sqrt(expected * (1.0 - expected) / count)
    if not _within(accuracy, expected, tolerance):
        problems.append(f"predict accuracy {accuracy} is more than {tolerance} from {expected}")
    post, exact, se = summary["post_protocol_chsh"], summary["exact_post_protocol_chsh"], summary["post_protocol_chsh_stderr"]
    if not _within(post, exact, 5 * se):
        problems.append(f"post-protocol chsh {post} is more than 5 SE ({se}) from exact {exact}")
    return problems


def check_sweep(summary: dict, earlier: dict) -> list:
    with open(summary["out"], newline="") as f:
        rows = list(csv.DictReader(f))
    if [float(r["v"]) for r in rows] != list(SWEEP_GRID):
        return [f"sweep CSV holds V values {[r['v'] for r in rows]}, expected {SWEEP_GRID}"]
    problems = []
    for r in rows:
        v, exact, empirical, se = (float(r[k]) for k in ("v", "exact_chsh", "empirical_chsh", "chsh_stderr"))
        if not _within(empirical, exact, 5 * se):
            problems.append(f"sweep V={v}: chsh {empirical} is more than 5 SE ({se}) from exact {exact}")
        expected = "REJECT" if v <= 0.7 else "CONSISTENT" if v == 1.0 else None
        if expected and r["verdict"] != expected:
            problems.append(f"sweep V={v}: verdict {r['verdict']}, expected {expected}")
    return problems


def steps(workload: str, out_dir: Path, seed: int, size: Size) -> list:
    """The commands of `workload`, writing under `out_dir`, all given `--seed seed`."""
    seed_args = ("--seed", str(seed))
    if workload == "records_pipeline":
        records = str(out_dir / "records.csv")
        simulate = ("simulate", "--v", str(RECORDS_V), "--noise-sigma", "0.3", "--trials", str(size.records_trials), "--workers", "1")
        return [
            Step("simulate", simulate + seed_args + ("--out", records), check_simulate),
            Step("audit", ("audit", "--v", str(RECORDS_V), "--in", records), check_audit),
        ]
    if workload == "predict_saturated":
        predict = (
            "predict", "--v", str(PREDICT_V), "--readout-v", str(size.predict_readout_v),
            "--steps", str(size.predict_steps), "--trials", str(size.predict_trials), "--workers", "1",
        )
        return [Step("predict", predict + seed_args + ("--out", str(out_dir / "predictions.csv")), check_predict)]
    if workload == "sweep_pool":
        grid = ",".join(str(v) for v in SWEEP_GRID)
        sweep = ("sweep", "--v-grid", grid, "--trials", str(size.sweep_trials), "--workers", "2")
        return [Step("sweep", sweep + seed_args + ("--out", str(out_dir / "sweep.csv")), check_sweep)]
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
