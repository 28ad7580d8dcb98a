#!/usr/bin/env python3
"""Benchmark of the blgisim command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from `src/` next to this
directory.  The workloads are in workloads.py.  One driver process runs a
workload as a closed loop with one client: the workload's commands run one
after another, each in a fresh `python3 -c` child that imports
`blgisim.cli` and calls `main` (no `-m`, which would import the module
twice), with PYTHONPATH=src.  Every command gets `--seed N`.  BLAS
threading is left at its default.

--trace 0 runs the workload again and again for S seconds and reports the
median over iterations of:

  wall_s       spawn to exit, summed over the workload's commands
  simulate_s   the first command (the one that simulates and writes records)
  audit_s      the last command (the one that gives the verdict); on a
               one-command workload it is the same command as simulate_s
  cpu_s        user + sys of the commands, their pool workers and threads
  peak_rss_mb  the highest peak RSS of any one process, from os.wait4
  setup_s      interpreter start plus `import blgisim.cli` in a fresh
               process (the median of several, measured before the loop)

--trace 1 runs the commands in this process instead: for S seconds, an
untraced pass, a traced pass (tracing.py), and a rerun of each sampler
call at workers=1 and 2 for the pool speedup.  It reports the median of
each per-layer metric over those rounds.  trace_overhead_s is the traced
minus the untraced pass; on records_pipeline pass-to-pass noise (about
2 s) swamps the tracer's own cost.

A command fails if it exits non-zero or its output check fails.  The last
stdout line is {"correct", "attempted", "failed", "metrics"}; the line
before it holds the machine facts, and the whole record, samples included,
goes to .bench_out/results/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI_BOOT = "import sys; from blgisim.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150  # a hung command is killed and counted as failed

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Outcome:
    """One command run: how long it took, what it used, what went wrong."""

    step: str
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    summary: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args, env, log: Path) -> tuple:
    """Run a child to completion; returns (exit code, wall seconds, rusage, stdout)."""
    with open(log, "w+") as out:
        start = perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, wall, usage, out.read()


def last_json(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def judge(outcome: Outcome, code: int, stdout: str, step: workloads.Step, earlier: dict) -> Outcome:
    """Apply the exit-code rule and the step's output check to `outcome`."""
    if code != 0:
        outcome.problems.append(f"{step.name} exited {code}: {stdout.strip()[-500:]}")
        return outcome
    try:
        outcome.summary = last_json(stdout)
        outcome.problems.extend(step.check(outcome.summary, earlier))
    except (ValueError, KeyError, TypeError, OSError) as exc:
        outcome.problems.append(f"{step.name} output unreadable: {exc!r}")
    return outcome


def run_step(step: workloads.Step, env: dict, work: Path, earlier: dict) -> Outcome:
    args = [sys.executable, "-c", CLI_BOOT, *step.argv]
    code, wall, usage, stdout = spawn(args, env, work / f"{step.name}.log")
    outcome = Outcome(step.name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    return judge(outcome, code, stdout, step, earlier)


def run_iteration(steps, env: dict, work: Path, after_step=None) -> list:
    """Run the steps in order in fresh processes; `after_step(step)` runs
    after each one (tests use it to corrupt an intermediate file)."""
    earlier, outcomes = {}, []
    for step in steps:
        outcome = run_step(step, env, work, earlier)
        earlier[step.name] = outcome.summary
        outcomes.append(outcome)
        if after_step is not None:
            after_step(step)
    return outcomes


def measure_setup(env: dict, work: Path) -> tuple:
    """Seconds to start python and import blgisim.cli, SETUP_REPEATS times; and whether all succeeded."""
    times, ok = [], True
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = spawn([sys.executable, "-c", "import blgisim.cli"], env, work / "setup.log")
        times.append(wall)
        ok = ok and code == 0
    return times, ok


def iteration_sample(outcomes) -> dict:
    return {
        "wall_s": sum(o.wall_s for o in outcomes),
        "simulate_s": outcomes[0].wall_s,
        "audit_s": outcomes[-1].wall_s,
        "cpu_s": sum(o.cpu_s for o in outcomes),
        "peak_rss_mb": max(o.peak_rss_mb for o in outcomes),
    }


def medians(samples: list) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def run_untraced(steps, seconds: float, work: Path) -> tuple:
    env = child_env()
    setup_times, setup_ok = measure_setup(env, work)
    samples, outcomes = [], []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        done = run_iteration(steps, env, work)
        outcomes.extend(done)
        samples.append(iteration_sample(done))
    metrics = medians(samples)
    metrics["setup_s"] = statistics.median(setup_times)
    record = {"samples": samples, "setup_samples": setup_times}
    return metrics, outcomes, setup_ok, record


def run_traced(steps, seconds: float) -> tuple:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracing

    samples, outcomes = [], []

    def run_pass() -> float:
        earlier, total = {}, 0.0
        for step in steps:
            code, wall, stdout = tracing.call_cli(step.argv)
            outcome = judge(Outcome(step.name, wall), code, stdout, step, earlier)
            earlier[step.name] = outcome.summary
            outcomes.append(outcome)
            total += wall
        return total

    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        untraced_s = run_pass()
        with tracing.Tracer() as tracer:
            traced_s = run_pass()
        sample = tracing.layer_metrics(tracer.spans, traced_s, untraced_s)
        sample["trials.pool_speedup"] = tracing.pool_speedup(tracer.spans, "trials.simulate_trials")
        sample["prediction.pool_speedup"] = tracing.pool_speedup(tracer.spans, "prediction.prediction_batch")
        samples.append(sample)
    return medians(samples), outcomes, True, {"samples": samples}


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "blgisim" / "cli.py").is_file():
        print(f"run.py: no blgisim source at {SRC}", file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steps = workloads.steps(args.workload, work, args.seed, workloads.SIZES[args.size])
    try:
        if args.trace:
            metrics, outcomes, setup_ok, record = run_traced(steps, args.seconds)
        else:
            metrics, outcomes, setup_ok, record = run_untraced(steps, args.seconds, work)
    finally:
        for big in work.glob("*.csv"):
            big.unlink()

    kind = "per_layer" if args.trace else "end_to_end"
    problems = [p for o in outcomes for p in o.problems]
    failed = sum(not o.ok for o in outcomes)
    result = {
        "correct": failed == 0 and setup_ok,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in SPEC[kind]},
    }
    facts = machine_facts()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  size=args.size, machine=facts, problems=problems, result=result)
    path = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
