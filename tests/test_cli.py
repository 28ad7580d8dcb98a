"""Command-line interface: parsing, exit codes, outputs, manifest replay."""

import json
import math
import os
import shlex
import subprocess
import sys

import pytest

import blgisim
from blgisim import cli
from blgisim.cli import (
    AuditCommand,
    PredictCommand,
    SimulateCommand,
    SweepCommand,
    SweepSpec,
    VerifyTheoremCommand,
    main,
    parse_invocation,
    run_sweep,
)
from blgisim.prediction import (
    MAX_STEPS,
    SequentialReadoutParams,
    prediction_accuracy_exact,
    prediction_settings,
)
from blgisim.records import emit_records, read_manifest, read_records, read_sweep
from blgisim.streams import LAYOUT_VERSION
from blgisim.trials import Settings, default_settings, simulate_trials


def last_json(capsys) -> dict:
    lines = [ln for ln in capsys.readouterr().out.strip().splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


# -------------------------------------------------------------------- parsing


def test_parse_simulate_full_flags():
    cmd = parse_invocation(
        shlex.split(
            "simulate --v 0.2 --trials 500 --seed 7 --angles 0,90,45,-45 "
            "--bell psi- --noise-sigma 0.3 --noise-bias 0.1 --out x.csv --workers 2"
        )
    )
    assert isinstance(cmd, SimulateCommand)
    s = cmd.settings
    assert s.v == 0.2 and s.bell_kind == "psi_minus"
    assert (s.a1, s.a2) == (0.0, math.pi / 2)
    assert abs(s.b1 - math.pi / 4) < 1e-15 and abs(s.b2 + math.pi / 4) < 1e-15
    assert s.noise.sigma == 0.3 and s.noise.bias == 0.1
    assert cmd.trials == 500 and cmd.seed == 7 and cmd.out == "x.csv" and cmd.workers == 2


def test_parse_defaults():
    cmd = parse_invocation(["simulate", "--v", "1", "--out", "x.csv"])
    assert cmd.trials == 100000 and cmd.seed == 0 and cmd.workers == 1
    assert cmd.settings == default_settings(1.0)

    pre = parse_invocation(["predict", "--v", "0.4", "--out", "p.csv"])
    assert isinstance(pre, PredictCommand)
    assert pre.readout.v == 0.05 and pre.readout.steps == 10000
    assert pre.settings.a1 == pre.settings.b1 and pre.settings.a2 == pre.settings.b2

    aud = parse_invocation(["audit", "--in", "x.csv", "--v", "0.5"])
    assert isinstance(aud, AuditCommand)
    assert aud.threshold_sigmas == 3.0 and aud.in_path == "x.csv"

    swe = parse_invocation(["sweep", "--v-grid", "0.1,0.5", "--out", "s.csv"])
    assert isinstance(swe, SweepCommand)
    assert swe.spec == SweepSpec(v_values=(0.1, 0.5), trials_per_point=50000)

    assert isinstance(parse_invocation(["verify-theorem"]), VerifyTheoremCommand)


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
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2


def test_predict_steps_above_cap_exit_2_with_one_usage_line(capsys):
    # rejected while parsing, before any table or draw array is allocated
    assert main(["predict", "--v", "0.5", "--out", "p.csv", "--steps", str(10 * MAX_STEPS)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [ln for ln in lines if ln.startswith("usage:")] == lines[:1]
    assert lines[1:] == [f"blgisim: error: steps must be an integer in [1, {MAX_STEPS}], got {10 * MAX_STEPS}"]


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import, which every command would pay
    src = os.path.dirname(os.path.dirname(os.path.abspath(blgisim.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, blgisim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_audit_mixed_settings_ids_exits_1_with_one_line(tmp_path, capsys):
    # no table holds two experiments, so join two record files by hand
    path = tmp_path / "mixed.csv"
    text = ""
    for k, settings in enumerate((Settings(v=0.2), Settings(v=0.2, b1=0.0, b2=0.0))):
        part = tmp_path / f"part{k}.csv"
        emit_records(simulate_trials(settings, 5000, k + 1), str(part))
        text += part.read_text().split("\n", 1)[1] if k else part.read_text()
    path.write_text(text)
    assert main(["audit", "--in", str(path), "--v", "0.2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("blgisim: error: malformed records:")
    assert "settings ids" in captured.err
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


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_audit_out_of_range_field_exits_1_with_one_line(tmp_path, capsys, seed):
    path = tmp_path / "run.csv"
    assert main(["simulate", "--v", "0.3", "--trials", "20", "--seed", "1", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + seed
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["audit", "--in", str(path), "--v", "0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("blgisim: error: malformed trial CSV row")
    assert err.count("\n") == 1


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
    assert len(out.read_text().splitlines()) == 65
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
    assert read_manifest(summary["manifest"]).layout_version == LAYOUT_VERSION == 3


def test_sweep_verdict_transition(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--v-grid", "0.1,0.5,0.95", "--trials", "20000", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    summary = last_json(capsys)
    assert summary["points"] == 3
    assert summary["verdicts"] == ["REJECT", "REJECT", "CONSISTENT"]

    rows = read_sweep(str(out))
    assert [r.v for r in rows] == [0.1, 0.5, 0.95]
    for row in rows:
        assert abs(row.exact_chsh - math.sqrt(2.0) * (1.0 + math.sqrt(1.0 - row.v**2))) < 1e-9
        assert abs(row.empirical_chsh - row.exact_chsh) < 5.0 * row.chsh_stderr


def test_run_sweep_uses_independent_point_seeds():
    spec = SweepSpec(v_values=(0.5, 0.5), trials_per_point=2000)
    rows = run_sweep(spec, Settings(v=0.5), master_seed=4)
    # same v, different derived seed per point: distinct empirical values
    assert rows[0].empirical_chsh != rows[1].empirical_chsh
    assert rows[0].exact_chsh == rows[1].exact_chsh
