"""Command-line interface: parsing, exit codes, outputs, manifest replay, and the file audit in byte ranges."""

import concurrent.futures
import json
import math
import multiprocessing
import os
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import blgisim
from blgisim import audit, cli, records
from blgisim.audit import decomposition_test
from blgisim.cli import main, parse_invocation, run_sweep
from blgisim.prediction import (
    MAX_STEPS,
    SequentialReadoutParams,
    exact_post_protocol_chsh,
    post_protocol_chsh,
    prediction_accuracy,
    prediction_accuracy_exact,
    prediction_settings,
)
from blgisim.records import (
    RECORD_FORMAT,
    emit_predictions,
    emit_records,
    read_manifest,
    read_prediction_blocks,
    read_record_blocks,
    read_sweep,
)
from blgisim.streams import LAYOUT_VERSION
from blgisim.trials import (
    FOLD_ROWS,
    MAX_COUNT_TRIALS,
    NoiseModel,
    Settings,
    TrialTable,
    default_settings,
    estimate_chsh,
    exact_chsh,
)
from reference import crlf_split_at, empty_table
from reference import prediction_batch, read_predictions, read_records, simulate_trials


def last_json(capsys) -> dict:
    lines = [ln for ln in capsys.readouterr().out.strip().splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


# -------------------------------------------------------------------- parsing


def test_parse_simulate_full_flags():
    argv = shlex.split(
        "simulate --v 0.2 --trials 500 --seed 7 --angles 0,90,45,-45 "
        "--bell psi- --noise-sigma 0.3 --noise-bias 0.1 --out x.csv --workers 2"
    )
    ns = parse_invocation(argv)
    assert ns.handler is cli._do_simulate and ns.argv == tuple(argv)
    assert ns.v == 0.2 and ns.bell == "psi-"
    a1, a2, b1, b2 = ns.angles
    assert (a1, a2) == (0.0, math.pi / 2)
    assert abs(b1 - math.pi / 4) < 1e-15 and abs(b2 + math.pi / 4) < 1e-15
    assert ns.noise_sigma == 0.3 and ns.noise_bias == 0.1
    assert ns.trials == 500 and ns.seed == 7 and ns.out == "x.csv" and ns.workers == 2


def test_simulate_builds_its_settings_from_every_flag(tmp_path, capsys):
    # the flags reach Settings through the handler: angles, v, bell state and both noise terms
    out = tmp_path / "x.csv"
    argv = shlex.split(
        "simulate --v 0.2 --trials 500 --seed 7 --angles 10,80,30,-60 "
        f"--bell psi- --noise-sigma 0.3 --noise-bias 0.1 --out {out} --workers 2"
    )
    assert main(argv) == 0
    angles = (math.radians(x) for x in (10, 80, 30, -60))
    settings = Settings(*angles, v=0.2, noise=NoiseModel(bias=0.1, sigma=0.3), bell_kind="psi_minus")
    assert last_json(capsys)["exact_chsh"] == exact_chsh(settings)
    expected = tmp_path / "expected.csv"
    emit_records(simulate_trials(settings, 500, 7), str(expected))
    assert out.read_bytes() == expected.read_bytes()


def test_parse_defaults():
    ns = parse_invocation(["simulate", "--v", "1", "--out", "x.csv"])
    assert ns.trials == 100000 and ns.seed == 0 and ns.workers == 1
    s = default_settings(1.0)
    assert ns.v == s.v and ns.angles == (s.a1, s.a2, s.b1, s.b2)
    assert (ns.bell, ns.noise_sigma, ns.noise_bias) == ("phi+", 0.0, 0.0)

    pre = parse_invocation(["predict", "--v", "0.4", "--out", "p.csv"])
    assert pre.handler is cli._do_predict
    assert pre.readout_v == 0.05 and pre.steps == 10000 and pre.trials == 1000

    aud = parse_invocation(["audit", "--in", "x.csv", "--v", "0.5"])
    assert aud.handler is cli._do_audit
    assert aud.threshold_sigmas == 3.0 and aud.in_path == "x.csv"

    swe = parse_invocation(["sweep", "--v-grid", "0.1,0.5", "--out", "s.csv"])
    assert swe.handler is cli._do_sweep
    assert swe.v_grid == (0.1, 0.5) and swe.trials == 50000

    assert parse_invocation(["verify-theorem"]).handler is cli._do_verify_theorem


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["simulate", "--v", "1.5", "--out", "x.csv"],
        ["simulate", "--v", "0", "--out", "x.csv"],
        ["simulate", "--v", "0.5"],
        ["simulate", "--v", "0.5", "--out", "x.csv", "--angles", "1,2,3"],
        ["simulate", "--v", "0.5", "--out", "x.csv", "--angles", "nan,90,45,-45"],
        ["simulate", "--v", "0.5", "--out", "x.csv", "--seed", "-1"],
        ["simulate", "--v", "0.5", "--out", "x.csv", "--seed", str(2**64)],
        ["simulate", "--v", "0.5", "--out", "x.csv", "--noise-sigma", "-0.1"],
        ["simulate", "--v", "0.5", "--out", "x.csv", "--bell", "ghz"],
        ["simulate", "--v", "0.5", "--out", "x.csv", "--no-such-flag"],
        ["predict", "--v", "0.5", "--out", "p.csv", "--steps", "0"],
        ["sweep", "--v-grid", ",,", "--out", "s.csv"],
        ["sweep", "--v-grid", "0.5,2.0", "--out", "s.csv"],
        ["audit", "--v", "0.5"],
        ["no-such-command"],
        ["simulate", "--v", "0.5", "--out", "x.csv", "--trials", "1.5"],
        ["simulate", "--v", "0.5", "--out", "x.csv", "--seed", "abc"],
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, capsys, monkeypatch):
    # wide enough that argparse prints each usage on one line
    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("usage:") and ": error: " in lines[1]
    # a usage error names the expected value, not a private parsing function
    assert "_positive_int" not in lines[1] and "invalid _" not in lines[1]
    assert list(tmp_path.iterdir()) == []


def test_predict_steps_above_cap_exit_2_with_one_usage_line(capsys, monkeypatch):
    # rejected while parsing, before any table or draw array is allocated;
    # wide enough that argparse prints the subcommand's usage on one line
    monkeypatch.setenv("COLUMNS", "200")
    assert main(["predict", "--v", "0.5", "--out", "p.csv", "--steps", str(10 * MAX_STEPS)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [ln for ln in lines if ln.startswith("usage:")] == lines[:1]
    assert lines[1:] == [
        f"blgisim predict: error: argument --steps: expected an integer in [1, {MAX_STEPS}], got '{10 * MAX_STEPS}'"
    ]


@pytest.mark.parametrize(
    "command, error",
    [
        (
            "audit --in {out} --v 0.5 --threshold-sigmas 0",
            "blgisim audit: error: argument --threshold-sigmas: expected a finite number > 0, got '0'",
        ),
        (
            "simulate --v 0.3 --trials 1 --out {out}",
            "blgisim simulate: error: argument --trials: expected an integer >= 2 (a correlator needs two trials), got '1'",
        ),
        (
            "sweep --v-grid 0.5,0.9 --trials 1 --out {out}",
            "blgisim sweep: error: argument --trials: expected an integer >= 2 (a correlator needs two trials), got '1'",
        ),
        (
            "sweep --v-grid 0.5,,0.9 --out {out}",
            "blgisim sweep: error: argument --v-grid: expected a coupling strength in (0, 1], got ''",
        ),
        (
            "simulate --v 0.3 --trials 1.5 --out {out}",
            "blgisim simulate: error: argument --trials: expected an integer >= 2 (a correlator needs two trials), got '1.5'",
        ),
        (
            "simulate --v 0.3 --seed abc --out {out}",
            "blgisim simulate: error: argument --seed: expected a 64-bit unsigned integer, got 'abc'",
        ),
        (
            "predict --v 0.3 --steps 2.5 --out {out}",
            f"blgisim predict: error: argument --steps: expected an integer in [1, {MAX_STEPS}], got '2.5'",
        ),
        (
            "simulate --v 0.3 --angles 0,90,inf,-45 --out {out}",
            "blgisim simulate: error: argument --angles: "
            "expected four finite angles a1,a2,b1,b2 in degrees, got '0,90,inf,-45'",
        ),
        (
            "simulate --v 0.3 --angles a,b,c,d --out {out}",
            "blgisim simulate: error: argument --angles: "
            "expected four finite angles a1,a2,b1,b2 in degrees, got 'a,b,c,d'",
        ),
    ],
)
def test_usage_errors_found_before_any_work_exit_2_with_one_usage_line(command, error, tmp_path, capsys, monkeypatch):
    # wide enough that argparse prints each usage on one line
    monkeypatch.setenv("COLUMNS", "200")
    out = tmp_path / "out.csv"
    assert main(command.format(out=out).split()) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("usage:")
    assert lines[1] == error
    assert not out.exists()


def test_cli_import_loads_no_scipy_module():
    # scipy is a test-only dependency; importing scipy.special alone would
    # about double every command's start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(blgisim.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, blgisim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs_without_warnings():
    # the package does not import blgisim.cli, so runpy finds no copy of it
    # in sys.modules and prints no RuntimeWarning
    src = os.path.dirname(os.path.dirname(os.path.abspath(blgisim.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "blgisim.cli", "--version"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == f"blgisim {blgisim.__version__}\n"


def test_help_and_version_exit_0(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    assert main(["simulate", "--help"]) == 0


# ------------------------------------------------------------------- commands


def test_verify_theorem_reports_ok(capsys):
    assert main(["verify-theorem"]) == 0
    out = last_json(capsys)
    assert out["ok"] is True
    assert out["plus_two"] == 8 and out["minus_two"] == 8
    assert out["tuples_enumerated"] == 16
    assert out["max_bound_value"] <= 2.0


def test_simulate_writes_records_and_manifest(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--v", "0.2", "--trials", "400", "--seed", "9", "--out", str(out)])
    assert code == 0
    summary = last_json(capsys)
    assert summary["records"] == 400
    assert abs(summary["exact_chsh"] - 2.799854208428197) < 1e-12
    assert "chsh" in summary and "chsh_stderr" in summary

    table = read_records(str(out))
    assert len(table) == 400

    manifest = read_manifest(summary["manifest"])
    assert manifest.master_seed == 9
    assert manifest.tool_version == cli.__version__
    assert manifest.parameters["trials"] == 400
    assert manifest.output_paths == [str(out)]
    assert shlex.split(manifest.command)[0] == "simulate"
    assert manifest.record_format == RECORD_FORMAT == 2


def test_simulate_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--v", "0.5", "--trials", "300", "--seed", "3", "--out", str(a)]) == 0
    assert main(["simulate", "--v", "0.5", "--trials", "300", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_manifest_replay_reproduces_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--v", "0.3", "--trials", "250", "--seed", "11", "--out", "sim.csv"]) == 0
    capsys.readouterr()
    original = (tmp_path / "sim.csv").read_bytes()
    command = read_manifest("sim.csv.manifest.json").command
    assert main(shlex.split(command)) == 0
    assert (tmp_path / "sim.csv").read_bytes() == original


def test_audit_rejects_weak_coupling_run(tmp_path, capsys):
    out = tmp_path / "weak.csv"
    assert main(["simulate", "--v", "0.2", "--trials", "5000", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["audit", "--in", str(out), "--v", "0.2"]) == 0
    verdict = last_json(capsys)
    assert verdict["verdict"] == "REJECT"
    assert verdict["chsh_value"] > 2.0
    assert verdict["threshold_sigmas"] == 3.0
    assert verdict["chsh_stderr"] > 0.0


def test_streamed_audit_equals_simulate_bit_for_bit(tmp_path, capsys):
    # audit folds the file in the blocks it reads, simulate the table it
    # wrote; 70,000 rows cross several block boundaries
    out = tmp_path / "run.csv"
    simulate = ["simulate", "--v", "0.2", "--noise-sigma", "0.3", "--trials", "70000", "--seed", "2"]
    assert main([*simulate, "--out", str(out)]) == 0
    simulated = last_json(capsys)
    assert main(["audit", "--in", str(out), "--v", "0.2"]) == 0
    audited = last_json(capsys)
    assert audited["chsh_value"] == abs(simulated["chsh"])
    assert audited["chsh_stderr"] == simulated["chsh_stderr"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [2, FOLD_ROWS + 1, 65536, 65537, 200_003])
def test_simulate_folds_and_writes_the_bits_of_its_table(tmp_path, capsys, n, workers):
    # simulate folds and writes each chunk as it arrives; the summary and
    # the file must be those of the whole table, at chunk and fold edges
    settings = default_settings(0.2, NoiseModel(sigma=0.3))
    out = tmp_path / "run.csv"
    argv = ["simulate", "--v", "0.2", "--noise-sigma", "0.3", "--trials", str(n), "--seed", "6"]
    assert main([*argv, "--workers", str(workers), "--out", str(out)]) == 0
    summary = last_json(capsys)
    table = simulate_trials(settings, n, 6)
    report = estimate_chsh(table)
    assert (summary["chsh"], summary["chsh_stderr"], summary["records"]) == (report.chsh, report.chsh_stderr, n)
    expected = tmp_path / "table.csv"
    emit_records(table, str(expected))
    assert out.read_bytes() == expected.read_bytes()


def _simulate_peak(tmp_path, trials: int) -> int:
    """The tracemalloc peak of an in-process simulate run of `trials` noisy trials."""
    argv = ["simulate", "--v", "0.2", "--noise-sigma", "0.3", "--trials", str(trials), "--out", str(tmp_path / "m.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_temporaries_stay_a_few_megabytes(tmp_path, capsys):
    # a chunk of 16,384 trials samples in 2.2 MB, and a block of rows is
    # compacted 2,048 rows at a time; whole 65,536-trial chunks and
    # 16,384-row compactions peaked at 18.7 MB
    assert _simulate_peak(tmp_path, 300_000) < 8_000_000


def test_simulate_memory_does_not_grow_with_trials(tmp_path, capsys):
    # numpy reports its buffers to tracemalloc; a run that held its trials
    # as one table would peak at 4 times the memory at 4 times the trials
    small = _simulate_peak(tmp_path, 300_000)
    large = _simulate_peak(tmp_path, 1_200_000)
    assert large <= 1.1 * small


def _predict_peak(tmp_path, trials: int) -> int:
    """The tracemalloc peak of an in-process predict run of `trials` trials."""
    argv = ["predict", "--v", "0.5", "--readout-v", "0.5", "--steps", "100", "--trials", str(trials)]
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path / "p.csv")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_memory_does_not_grow_with_trials(tmp_path, capsys):
    # predict counts and writes each chunk as simulate folds and writes its
    # own, and the after-protocol check draws counts, not trials; holding
    # the run as one table peaked at 78 MB of table alone at 2M trials
    small = _predict_peak(tmp_path, 300_000)
    large = _predict_peak(tmp_path, 1_200_000)
    assert large <= 1.1 * small


def test_predict_streams_the_file_and_the_accuracy_of_its_table(tmp_path, capsys):
    # 40000 trials are three chunks, here in a pool; the file and the
    # accuracy are those of the whole table that prediction_batch joins
    argv = ["predict", "--v", "0.5", "--readout-v", "0.6", "--steps", "100", "--trials", "40000", "--seed", "13"]
    out = tmp_path / "p.csv"
    assert main([*argv, "--out", str(out), "--workers", "2"]) == 0
    summary = last_json(capsys)
    table = prediction_batch(prediction_settings(0.5), SequentialReadoutParams(v=0.6, steps=100), 40_000, 13)
    emit_predictions(table, str(tmp_path / "table.csv"))
    assert out.read_bytes() == (tmp_path / "table.csv").read_bytes()
    estimate = prediction_accuracy(table)
    assert [summary[k] for k in ("records", "accuracy", "ci_low", "ci_high", "matches", "count")] == [
        40_000, estimate.accuracy, estimate.ci_low, estimate.ci_high, estimate.matches, estimate.count
    ]


def test_a_predict_file_reads_back_as_blocks_to_the_printed_accuracy(tmp_path, capsys):
    # read_prediction_blocks is the package's one reader of a prediction
    # file, and prediction_accuracy folds its three blocks as they come
    out, empty = tmp_path / "p.csv", tmp_path / "empty.csv"
    argv = ["predict", "--v", "0.5", "--readout-v", "0.6", "--steps", "100", "--trials", "20000", "--out", str(out)]
    assert main(argv) == 0
    summary = last_json(capsys)
    estimate = prediction_accuracy(read_prediction_blocks(str(out)))
    assert (estimate.matches, estimate.count) == (summary["matches"], summary["count"])
    empty.write_bytes(b"")
    with pytest.raises(ValueError) as info:
        prediction_accuracy(read_prediction_blocks(str(empty)))
    assert str(info.value) == f"prediction CSV {empty} is empty"


def test_sweep_trials_above_the_count_bound_exit_2_with_one_usage_line_and_no_file(tmp_path, capsys, monkeypatch):
    # rejected while parsing, before any count window is built
    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--v-grid", "0.5", "--trials", str(MAX_COUNT_TRIALS + 1), "--out", "s.csv"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [ln for ln in lines if ln.startswith("usage:")] == lines[:1]
    assert lines[1:] == [
        f"blgisim sweep: error: argument --trials: expected at most {MAX_COUNT_TRIALS} trials per grid point, "
        f"got '{MAX_COUNT_TRIALS + 1}'"
    ]
    assert list(tmp_path.iterdir()) == []


def test_predict_trials_above_the_count_bound_exit_2_with_one_usage_line_and_no_file(tmp_path, capsys, monkeypatch):
    # the after-protocol check draws trials // 4 per axis pair, at most
    # MAX_COUNT_TRIALS each: rejected while parsing, before any work
    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.chdir(tmp_path)
    bound = 4 * MAX_COUNT_TRIALS + 3
    assert parse_invocation(["predict", "--v", "0.5", "--trials", str(bound), "--out", "p.csv"]).trials == bound
    argv = ["predict", "--v", "0.5", "--trials", str(bound + 1), "--out", "p.csv"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [ln for ln in lines if ln.startswith("usage:")] == lines[:1]
    assert lines[1:] == [f"blgisim predict: error: argument --trials: expected an integer in [1, {bound}], got '{bound + 1}'"]
    assert list(tmp_path.iterdir()) == []


def test_branch_counts_at_the_count_bound_fit_in_memory():
    # the widest windows are those of p = 1/2; run apart so that the peak
    # is the process's VmHWM, as for the MAX_STEPS windows
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import os, blgisim.cli; from blgisim.trials import MAX_COUNT_TRIALS, Source, _count_moments\n"
        "law = (0.5, 0.5) + (0.0,) * 14\n"
        "report = _count_moments(Source('half', law, v=1.0), MAX_COUNT_TRIALS, 3).report()\n"
        "status = open('/proc/self/status').read() if os.path.exists('/proc/self/status') else 'VmHWM: 0 kB'\n"
        "print(report.e22.count, next(ln.split()[1] for ln in status.splitlines() if ln.startswith('VmHWM:')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    count, peak_kb = proc.stdout.split()
    assert int(count) == MAX_COUNT_TRIALS
    assert int(peak_kb) / 1024 <= 64  # reads 0 where there is no /proc


@pytest.mark.parametrize("line", [FOLD_ROWS + 4, 65540])
@pytest.mark.parametrize(
    "field, error",
    [("abc", "malformed trial CSV row at line {line}: '{index},abc,"), ("nan", "malformed records: non-finite raw1")],
    ids=["unparsable", "non-finite"],
)
def test_audit_of_a_bad_row_in_a_later_block_exits_1_with_one_line(tmp_path, capsys, line, field, error):
    # rows start at line 3, so line FOLD_ROWS + 4 is the second row of the second block
    path = tmp_path / "run.csv"
    emit_records(simulate_trials(default_settings(0.3), 70_000, 1), str(path))
    lines = path.read_text().splitlines()
    index, _, rest = lines[line - 1].split(",", 2)
    lines[line - 1] = f"{index},{field},{rest}"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["audit", "--in", str(path), "--v", "0.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("blgisim: error: " + error.format(line=line, index=line - 3))


def test_audit_mixed_settings_ids_exits_1_with_one_line(tmp_path, capsys):
    # no table holds two experiments, so join two record files by hand: a
    # file names its one settings id in its header comment, and the second
    # file's comment, at line 5003, is no row of the first
    path = tmp_path / "mixed.csv"
    text = ""
    for k, settings in enumerate((Settings(v=0.2), Settings(v=0.2, b1=0.0, b2=0.0))):
        part = tmp_path / f"part{k}.csv"
        emit_records(simulate_trials(settings, 5000, k + 1), str(part))
        text += part.read_text()
    path.write_text(text)
    assert main(["audit", "--in", str(path), "--v", "0.2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("blgisim: error: malformed trial CSV row at line 5003: '# {")
    assert Settings(v=0.2, b1=0.0, b2=0.0).settings_id in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["simulate", "--v", "0.4", "--trials", "30", "--angles", "10,80,30,-20", "--bell", "psi-",
             "--noise-sigma", "0.2", "--noise-bias", "0.1", "--seed", "4"],
            {"v": 0.4, "trials": 30, "angles": [math.radians(a) for a in (10, 80, 30, -20)], "bell": "psi-",
             "noise_sigma": 0.2, "noise_bias": 0.1, "workers": 1},
        ),
        (
            ["predict", "--v", "0.5", "--readout-v", "0.5", "--steps", "20", "--trials", "16", "--seed", "4"],
            {"v": 0.5, "readout_v": 0.5, "steps": 20, "trials": 16, "workers": 1},
        ),
        (
            ["sweep", "--v-grid", "0.3,0.9", "--trials", "200", "--seed", "4", "--workers", "2"],
            {"v_grid": [0.3, 0.9], "trials": 200, "workers": 2},
        ),
    ],
)
def test_manifest_parameters_are_the_parsed_flags(tmp_path, capsys, argv, expected):
    out = str(tmp_path / "out.csv")
    assert main([*argv, "--out", out]) == 0
    parameters = read_manifest(last_json(capsys)["manifest"]).parameters
    assert parameters == {**expected, "seed": 4, "out": out}


def test_audit_errors_exit_1(tmp_path, capsys):
    assert main(["audit", "--in", str(tmp_path / "missing.csv"), "--v", "0.5"]) == 1
    assert "blgisim: error:" in capsys.readouterr().err

    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,record,file\n")
    assert main(["audit", "--in", str(junk), "--v", "0.5"]) == 1


def test_audit_of_one_record_exits_1_with_one_line(tmp_path, capsys):
    # simulate refuses --trials 1, so the one-row file is written directly
    path = tmp_path / "one.csv"
    emit_records(simulate_trials(default_settings(0.3), 1, 1), str(path))
    assert main(["audit", "--in", str(path), "--v", "0.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "blgisim: error: need at least 2 records to estimate a correlator, got 1\n"


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_audit_out_of_range_field_exits_1_with_one_line(tmp_path, capsys, seed):
    # the master seed, from which every per-trial seed derives, is in the header comment
    path = tmp_path / "run.csv"
    emit_records(simulate_trials(default_settings(0.3), 20, 1), str(path))
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"master_seed": 1,', f'"master_seed": {seed},')
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["audit", "--in", str(path), "--v", "0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"blgisim: error: malformed trial CSV {path} line 1: master_seed must be")
    assert err.count("\n") == 1


def _simulate_format_2(tmp_path, capsys):
    path = tmp_path / "run.csv"
    assert main(["simulate", "--v", "0.3", "--trials", "200", "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    return path, path.read_text().splitlines()


def _audit_error(path, capsys, v="0.3") -> str:
    assert main(["audit", "--in", str(path), "--v", v]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("blgisim: error: ") and captured.err.count("\n") == 1
    return captured.err


V_FIELD = '"v": 0.29999999999999999'


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda lines: lines[1:], "no header comment at line 1: record format 1 is no longer read"),
        (lambda lines: [lines[0][:-3], *lines[1:]], "line 1: header comment is not JSON"),
        (lambda lines: [lines[0], *lines], "a second header comment at line 2"),
        (lambda lines: [lines[0].replace('"format": 2', '"format": 3'), *lines[1:]], "record format 3"),
        (lambda lines: [lines[0].replace(V_FIELD, '"v": NaN'), *lines[1:]], "coupling strength must lie in"),
        (lambda lines: [lines[0].replace(V_FIELD, '"v": 1e999'), *lines[1:]], "coupling strength must lie in"),
        (lambda lines: [lines[0].replace(V_FIELD, '"v": 1.25'), *lines[1:]], "coupling strength must lie in"),
        (lambda lines: [*lines[:9], lines[9].rsplit(",", 1)[0] + ",x", *lines[10:]], "CSV row at line 10: '7,"),
    ],
    ids=["no comment", "garbled comment", "two comments", "format 3", "NaN v", "infinite v", "v above 1", "bad row"],
)
def test_audit_of_a_hostile_format_2_header_exits_1_with_one_line(tmp_path, capsys, edit, error):
    path, lines = _simulate_format_2(tmp_path, capsys)
    assert lines[0].endswith(V_FIELD + "}")
    path.write_text("\n".join(edit(lines)) + "\n")
    assert error in _audit_error(path, capsys)


def test_audit_at_another_v_than_the_header_exits_1_naming_both(tmp_path, capsys):
    path, _ = _simulate_format_2(tmp_path, capsys)
    err = _audit_error(path, capsys, v="0.35")
    assert "v=0.3" in err and "v=0.35" in err


# ------------------------------------------------------ audit in byte ranges


def _audit_in_ranges(monkeypatch, cpus: int) -> list:
    """Make audit see `cpus` usable CPUs and a floor of one byte per range,
    so that it cuts a file into `cpus` ranges where the file's blocks allow;
    returns the list that each audit's cuts are appended to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(audit, "_AUDIT_RANGE_BYTES", 1)
    seen = []

    block_cuts = records._block_cuts

    def cuts(path, parts):
        seen.append(block_cuts(path, parts))
        return seen[-1]

    monkeypatch.setattr(records, "_block_cuts", cuts)
    return seen


def _record_file(tmp_path, rows: int, ending: str = "lf") -> str:
    """The path of a noisy v = 0.2 trial file of `rows` rows with the given line ends."""
    path = str(tmp_path / "run.csv")
    table = simulate_trials(default_settings(0.2, NoiseModel(sigma=0.3)), rows, 3)
    if ending == "crlf split at a read edge":
        crlf_split_at(path, table, records._COUNT_BYTES)
        return path
    emit_records(table, path)
    text = Path(path).read_bytes()
    edits = {"crlf": text.replace(b"\n", b"\r\n"), "cr": text.replace(b"\n", b"\r"), "no final newline": text[:-1]}
    Path(path).write_bytes(edits.get(ending, text))
    return path


def _outcome(test) -> tuple:
    """(exit code, stdout, stderr) of the audit command, for the verdict or the ValueError of test()."""
    try:
        verdict = test()
    except ValueError as exc:
        return 1, "", f"blgisim: error: {exc}\n"
    return 0, json.dumps(asdict(verdict), sort_keys=True) + "\n", ""


def _serial_audit(path: str, v: float = 0.2) -> str:
    """What audit prints, on stdout or stderr, as decomposition_test of read_records, the table route, gives it."""
    _, out, err = _outcome(lambda: decomposition_test(read_records(path, v)))
    return out + err


# the file audit's two entry points, each as (exit code, stdout, stderr)
FILE_AUDITS = pytest.mark.parametrize(
    "audit_file",
    [
        lambda path, v, capsys: (main(["audit", "--in", path, "--v", str(v)]), *capsys.readouterr()),
        lambda path, v, capsys: _outcome(lambda: decomposition_test(read_record_blocks(path, v))),
    ],
    ids=["command", "api"],
)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "rows, ending",
    [
        (4 * FOLD_ROWS, "lf"),
        (4 * FOLD_ROWS + 1, "lf"),
        (FOLD_ROWS - 5, "lf"),
        (FOLD_ROWS, "lf"),
        (4 * FOLD_ROWS + 1, "crlf"),
        (4 * FOLD_ROWS + 1, "cr"),
        (4 * FOLD_ROWS + 3, "crlf split at a read edge"),
        (4 * FOLD_ROWS, "no final newline"),
    ],
    ids=[
        "k blocks", "k blocks and 1 row", "under 1 block", "1 block", "crlf", "cr", "crlf split at a read edge",
        "no final newline",
    ],
)
@FILE_AUDITS
def test_audit_in_ranges_prints_the_serial_verdict_bytes(tmp_path, capsys, monkeypatch, cpus, rows, ending, audit_file):
    # each range of whole fold blocks is read, checked and folded on its
    # own, and the blocks' moments merge in file order, so no cut moves a
    # bit.  A cut is the first block end past a share of the bytes, short
    # of the file's end, so 1 block is 1 range and 4 blocks and more are 3
    # ranges at 3 CPUs; the CR LF split at the binary pass's read edge
    # lies before the last of them
    seen = _audit_in_ranges(monkeypatch, cpus)
    path = _record_file(tmp_path, rows, ending)
    assert audit_file(path, 0.2, capsys) == (0, _serial_audit(path), "")
    (cuts,) = seen
    assert len(cuts) == (min(cpus, 3) if rows > FOLD_ROWS else 1)
    assert all(row % FOLD_ROWS == 0 for _, row in cuts)


def _edit_fields(path: str, edits: dict) -> None:
    """Set field `column` of row `row` (rows counted from 0 after the two
    header lines) to `text`, for each (row, column): text of edits."""
    lines = Path(path).read_text().splitlines()
    for (row, column), text in edits.items():
        fields = lines[row + 2].split(",")
        fields[column] = text
        lines[row + 2] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n")


# at 2 CPUs a file of 3 blocks is cut at the first block end past its
# middle, after block 2, so range 2 holds rows 2 * FOLD_ROWS on
LATER = 2 * FOLD_ROWS + 5


@pytest.mark.parametrize(
    "rows, edits, v",
    [
        (3 * FOLD_ROWS, {(LATER, 1): "abc"}, 0.2),
        (3 * FOLD_ROWS, {(10, 2): "1e", (LATER, 1): "abc"}, 0.2),
        (3 * FOLD_ROWS, {(LATER, 2): "nan"}, 0.2),
        (3 * FOLD_ROWS, {}, 0.3),
        (0, {}, 0.2),
        (1, {}, 0.2),
    ],
    ids=[
        "bad row in range 2", "bad rows in ranges 1 and 2", "non-finite raw in range 2", "v mismatch", "header only",
        "1 record",
    ],
)
@FILE_AUDITS
def test_audit_in_ranges_raises_the_serial_error_first_in_file_order(
    tmp_path, capsys, monkeypatch, rows, edits, v, audit_file
):
    seen = _audit_in_ranges(monkeypatch, 2)
    if rows:
        path = _record_file(tmp_path, rows)
    else:
        path = str(tmp_path / "run.csv")
        emit_records(empty_table(TrialTable, v=0.2), path)
    _edit_fields(path, edits)
    error = _serial_audit(path, v)
    assert error.startswith("blgisim: error: ")
    assert audit_file(path, v, capsys) == (1, "", error)
    assert len(seen[0]) == (2 if rows > FOLD_ROWS else 1)


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda rows: [row for row in rows for _ in range(2)], "trial_index 0 at line 4, expected 1"),
        (lambda rows: rows[::2], "trial_index 2 at line 4, expected 1"),
    ],
    ids=["every row twice", "every other row"],
)
def test_audit_refuses_a_trial_duplicated_or_missing(tmp_path, capsys, edit, error):
    # decomposition_test of a table folds such rows, and REJECTs both files:
    # duplicates shrink the standard error, and a missing trial is a
    # selection the verdict cannot see; the file audit, of the API and the
    # command alike, holds a file to trials 0, 1, 2, ... in order
    path = tmp_path / "run.csv"
    argv = ["simulate", "--v", "0.2", "--noise-sigma", "0.3", "--trials", "20000", "--seed", "9", "--out", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + edit(lines[2:])) + "\n")
    assert decomposition_test(read_records(str(path))).verdict == "REJECT"
    with pytest.raises(ValueError) as info:
        decomposition_test(read_record_blocks(str(path)))
    assert str(info.value) == f"malformed records: {error}"
    assert main(["audit", "--in", str(path), "--v", "0.2"]) == 1
    assert capsys.readouterr() == ("", f"blgisim: error: malformed records: {error}\n")


def test_audit_checks_a_later_range_against_its_first_row_in_the_file(tmp_path, capsys, monkeypatch):
    _audit_in_ranges(monkeypatch, 2)
    path = _record_file(tmp_path, 3 * FOLD_ROWS)
    _edit_fields(path, {(LATER, 0): "5"})
    assert main(["audit", "--in", path, "--v", "0.2"]) == 1
    error = f"malformed records: trial_index 5 at line {LATER + 3}, expected {LATER}"
    assert capsys.readouterr() == ("", f"blgisim: error: {error}\n")


def test_audit_names_a_non_ascii_field_as_the_serial_read_does(tmp_path, capsys, monkeypatch):
    # a non-ASCII byte fails the numpy parse, so its block is decoded as
    # open(path) decodes it and the row and field are named, in either range
    seen = _audit_in_ranges(monkeypatch, 2)
    path = _record_file(tmp_path, 3 * FOLD_ROWS)
    _edit_fields(path, {(LATER, 1): "0.5é"})
    row = Path(path).read_text().splitlines()[LATER + 2]
    error = f"malformed trial CSV row at line {LATER + 3}: {row!r}: raw1 '0.5é' does not parse as float64"
    assert _serial_audit(path) == f"blgisim: error: {error}\n"
    assert main(["audit", "--in", path, "--v", "0.2"]) == 1
    assert capsys.readouterr() == ("", f"blgisim: error: {error}\n")
    assert len(seen[0]) == 2


@pytest.mark.parametrize("row", [10, LATER], ids=["range 1", "range 2"])
def test_audit_of_an_invalid_utf8_byte_exits_1_with_the_serial_line(tmp_path, capsys, monkeypatch, row):
    seen = _audit_in_ranges(monkeypatch, 2)
    path = _record_file(tmp_path, 3 * FOLD_ROWS)
    lines = Path(path).read_bytes().split(b"\n")
    lines[row + 2] = lines[row + 2].replace(b",", b",\xff", 1)
    Path(path).write_bytes(b"\n".join(lines))
    error = _serial_audit(path)
    assert _audit_error(path, capsys, v="0.2") == error
    assert len(seen[0]) == 2


@pytest.mark.parametrize("ending", ["lf", "crlf", "cr", "no final newline"])
def test_prediction_and_sweep_files_of_the_commands_read_the_same_whatever_the_line_ends(tmp_path, capsys, ending):
    predictions, sweep = tmp_path / "pred.csv", tmp_path / "sweep.csv"
    argv = ["predict", "--v", "0.5", "--readout-v", "0.3", "--steps", "5", "--trials", str(FOLD_ROWS + 1)]
    assert main([*argv, "--seed", "3", "--out", str(predictions)]) == 0
    assert main(["sweep", "--v-grid", "0.3,0.9,1.0", "--trials", "2000", "--seed", "6", "--out", str(sweep)]) == 0
    capsys.readouterr()
    want = read_predictions(str(predictions)), read_sweep(str(sweep))
    for path in (predictions, sweep):
        text = path.read_bytes()
        edits = {"crlf": text.replace(b"\n", b"\r\n"), "cr": text.replace(b"\n", b"\r"), "no final newline": text[:-1]}
        path.write_bytes(edits.get(ending, text))
    table, columns = read_predictions(str(predictions)), read_sweep(str(sweep))
    assert all(np.array_equal(getattr(table, name), getattr(want[0], name)) for name in table.field_names)
    assert columns == want[1]


class _NoPool:
    def __init__(self, max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was opened")


def test_audit_of_a_file_below_the_floor_opens_no_pool(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    path = _record_file(tmp_path, 3 * FOLD_ROWS)
    size = os.path.getsize(path)
    assert size < 2 * audit._AUDIT_RANGE_BYTES
    assert main(["audit", "--in", path, "--v", "0.2"]) == 0
    assert capsys.readouterr().out == _serial_audit(path)
    # a file of two floors is two ranges, over a pool of two workers
    monkeypatch.setattr(audit, "_AUDIT_RANGE_BYTES", size // 2)
    with pytest.raises(AssertionError, match="a pool of 2 workers"):
        main(["audit", "--in", path, "--v", "0.2"])


def _audit_in_a_pool_worker(path: str):
    return decomposition_test(read_record_blocks(path, 0.2))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
def test_file_audit_in_a_daemonic_pool_worker_is_one_range_in_that_worker(tmp_path, monkeypatch):
    # a multiprocessing.Pool worker is daemonic and may start no process,
    # so trials._pool_map reads the file's ranges there one after another;
    # the forked worker sees the two CPUs and the one-byte floor that cut
    # it in two here
    seen = _audit_in_ranges(monkeypatch, 2)
    path = _record_file(tmp_path, 3 * FOLD_ROWS)
    want = decomposition_test(read_record_blocks(path, 0.2))
    assert len(seen[0]) == 2
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_audit_in_a_pool_worker, (path,)) == want
    assert _outcome(lambda: want)[1] == _serial_audit(path)


def test_predict_writes_records_and_summary(tmp_path, capsys):
    out = tmp_path / "pred.csv"
    code = main(
        [
            "predict",
            "--v", "0.5",
            "--readout-v", "0.5",
            "--steps", "200",
            "--trials", "64",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = last_json(capsys)
    assert summary["records"] == 64
    assert summary["count"] == 128
    assert 0.0 <= summary["accuracy"] <= 1.0
    assert summary["expected_accuracy_saturated"] == 0.75
    assert abs(summary["exact_post_protocol_chsh"] - 2.0 * math.sqrt(2.0) * math.sqrt(0.75)) < 1e-12
    # one build of the after-protocol laws serves both figures, unchanged
    settings, readout = prediction_settings(0.5), SequentialReadoutParams(v=0.5, steps=200)
    assert summary["exact_post_protocol_chsh"] == exact_post_protocol_chsh(settings)
    assert summary["post_protocol_chsh"] == post_protocol_chsh(settings, readout, 64, 5).chsh
    assert len(out.read_text().splitlines()) == 66  # header comment, column header, 64 rows
    manifest = read_manifest(summary["manifest"])
    assert manifest.parameters["steps"] == 200


def test_predict_reports_exact_accuracy_and_layout_version(tmp_path, capsys):
    out = tmp_path / "pred.csv"
    argv = ["predict", "--v", "0.4", "--readout-v", "0.3", "--steps", "7", "--trials", "50", "--seed", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    summary = last_json(capsys)
    readout = SequentialReadoutParams(v=0.3, steps=7)
    assert summary["exact_accuracy"] == prediction_accuracy_exact(prediction_settings(0.4), readout)
    assert summary["exact_accuracy"] < summary["expected_accuracy_saturated"]
    assert read_manifest(summary["manifest"]).layout_version == LAYOUT_VERSION == 9


def test_sweep_verdict_transition(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--v-grid", "0.1,0.5,0.95", "--trials", "20000", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    summary = last_json(capsys)
    assert summary["points"] == 3
    assert summary["verdicts"] == ["REJECT", "REJECT", "CONSISTENT"]

    columns = read_sweep(str(out))
    assert columns["v"] == [0.1, 0.5, 0.95]
    for v, exact, empirical, stderr, _ in zip(*columns.values()):  # SWEEP_HEADER order
        assert abs(exact - math.sqrt(2.0) * (1.0 + math.sqrt(1.0 - v**2))) < 1e-9
        assert abs(empirical - exact) < 5.0 * stderr


def test_sweep_file_reads_back_as_run_sweep_columns(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--v-grid", "0.3,1.0", "--trials", "3000", "--seed", "6", "--out", str(out)]) == 0
    assert read_sweep(str(out)) == run_sweep((0.3, 1.0), 3000, 6)


def test_run_sweep_uses_independent_point_seeds():
    columns = run_sweep((0.5, 0.5), 2000, master_seed=4)
    # same v, different derived seed per point: distinct empirical values
    assert columns["empirical_chsh"][0] != columns["empirical_chsh"][1]
    assert columns["exact_chsh"][0] == columns["exact_chsh"][1]
