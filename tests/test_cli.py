"""End-to-end tests of the command-line driver and its exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import lockstep
from lockstep import cli
from lockstep.cli import (
    TABLE1_DROP_RATES,
    SweepSpec,
    _sweep_cell,
    aggregate_sweep,
    build_sim_config,
    main,
    run_sweep,
)
from lockstep.platoon import LevelApp, ScenarioSpec, ServiceLevel
from lockstep.sim import BernoulliLoss, run


def test_run_writes_trace_and_report(tmp_path):
    code = main([
        "run", "--n", "4", "--round-ms", "160", "--delay-ms", "100", "--sync-ms", "5",
        "--gossip-ms", "50", "--loss", "bernoulli:0.15", "--seed", "7",
        "--duration-s", "8", "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rounds"] == 50
    assert all(c["passed"] for c in report["checks"])
    assert (tmp_path / "trace.jsonl").exists()


def test_run_is_deterministic_across_invocations(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--n", "3", "--duration-s", "5", "--seed", "3",
                     "--loss", "bernoulli:0.2", "--out", str(out)]) == 0
    assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_run_reports_no_drop_rate_without_transmissions(tmp_path):
    assert main(["run", "--n", "1", "--duration-s", "2", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["drop_rate"] is None


def test_run_rejects_round_length_at_constraint_boundary(tmp_path, capsys):
    code = main(["run", "--round-ms", "110", "--delay-ms", "100", "--sync-ms", "5",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "round_length" in capsys.readouterr().err


def test_run_rejects_unknown_loss_spec(tmp_path):
    assert main(["run", "--loss", "gilbert:0.5", "--out", str(tmp_path)]) == 2


def test_run_with_schedule_file(tmp_path):
    sched = tmp_path / "fig.json"
    sched.write_text(json.dumps([
        {"round": 20, "from": "*", "to": 1},
        {"round": 20, "from": "*", "to": 2},
    ]))
    code = main(["run", "--n", "4", "--duration-s", "4", "--seed", "1",
                 "--loss", f"schedule:{sched}", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["reliability"] < 1.0


def test_verify_exhaustive_passes():
    assert main(["verify", "--n", "2", "--rounds", "3"]) == 0


def test_verify_mutant_fails():
    assert main(["verify", "--n", "2", "--rounds", "3", "--mutate", "drop-default-write"]) == 1


def test_verify_sampled_mode(capsys):
    assert main(["verify", "--n", "5", "--rounds", "10", "--trials", "50", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] and out["mode"] == "sampled"


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "5", "--rounds", "4"],  # 20 completeness bits, over the bound
    ["verify", "--n", "3", "--rounds", "3", "--trials", "0"],
    ["verify", "--n", "0", "--rounds", "1"],
    ["verify", "--n", "3", "--rounds", "-1"],
    ["verify", "--n", "3", "--rounds", "-1", "--trials", "5"],
    ["verify", "--n", "3", "--rounds", "0"],
])
def test_verify_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_4x3_is_exhaustive(capsys):
    assert main(["verify", "--n", "4", "--rounds", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "exhaustive" and out["patterns_checked"] == 2**36


def test_sweep_single_cell(tmp_path):
    code = main(["sweep", "--n-list", "3", "--round-ms-list", "260", "--seeds", "1",
                 "--duration-s", "10", "--processes", "1", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "n,round_ms,loss,seed,reliability,drop_rate,p1,p2,p3"
    assert len(lines) == 2
    assert (tmp_path / "sweep_plot.csv").exists()


def test_sweep_spec_uses_calibrated_drop_rates():
    spec = SweepSpec(ns=(2, 8), round_ms=(160,), seeds=(1,))
    assert [c.loss.p for c in spec.cells()] == [TABLE1_DROP_RATES[2], TABLE1_DROP_RATES[8]]


def test_sweep_rejects_bad_round_length():
    with pytest.raises(Exception):
        SweepSpec(ns=(2,), round_ms=(110,), seeds=(1,))


def test_sweep_starts_no_more_workers_than_cells(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(cli.multiprocessing.get_context("fork"), "Pool", SerialPool)
    spec = SweepSpec(ns=(2,), round_ms=(160, 260), seeds=(1,), duration_s=1)
    rows = run_sweep(spec, processes=6)
    assert sizes == [2]
    assert rows == run_sweep(spec, processes=1)
    assert sizes == [2]  # one worker runs in process, with no pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 6)
    run_sweep(spec)
    assert sizes == [2, 2]


def test_aggregate_groups_by_cell():
    rows = run_sweep(SweepSpec(ns=(2,), round_ms=(160,), seeds=(1, 2), duration_s=5),
                     processes=1)
    agg = aggregate_sweep(rows)
    assert len(agg) == 1
    assert agg[0]["seeds"] == 2


def test_scenario_command(tmp_path):
    assert main(["scenario", "--out", str(tmp_path)]) == 0
    for name in ("scenario_trace.jsonl", "scenario_protocol.csv",
                 "scenario_baseline.csv", "scenario_report.json", "scenario.json"):
        assert (tmp_path / name).exists()
    report = json.loads((tmp_path / "scenario_report.json").read_text())
    assert report["all_low_ok"] and report["baseline_tail_stays_initial"]


def test_scenario_from_json_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    main(["scenario", "--out", str(tmp_path)])  # produces scenario.json
    spec_path.write_text((tmp_path / "scenario.json").read_text())
    out2 = tmp_path / "again"
    assert main(["scenario", "--scenario-json", str(spec_path), "--out", str(out2)]) == 0
    assert ((out2 / "scenario_report.json").read_bytes()
            == (tmp_path / "scenario_report.json").read_bytes())


# Scenario specs with the command's exit code and the sha256 of each file it writes.
PINNED_SCENARIOS = {
    "default": (ScenarioSpec(), 0, {
        "scenario_report.json": "467d8243c93834e323d56ac417711c6d357a269f95427915006a2a144233586f",
        "scenario_protocol.csv": "0bbf4d96c4a8ea78201a2f74bf083454af85f33d79adc7cc28109c87fc7d97d1",
        "scenario_baseline.csv": "bed448f1143a6a030c866fbd413735360727351f23504af09aad2ad3b73b657e",
        "scenario_trace.jsonl": "4ef2ba903547b1085e74505175bf596bd314bf14a217566966ce60bfaa9d940b",
        "scenario.json": "2e0aabe197393e1be8b93e4fc65510e2725cc416b0c986f33e0583ef2702b45a",
    }),
    # The tail vehicle is deaf, so the baseline drops it to LOW and the run fails.
    "cut-tail": (ScenarioSpec(cut_vehicle=3, outage_round=12), 1, {
        "scenario_report.json": "5fbc70a67fa20bdeae1a20591868897dc81c4384761fab16d955311b7ea69755",
        "scenario_protocol.csv": "6601bf97c27ac9e3953635a7fc10fb7766ddb7866abd6e752783f7772ea15d91",
        "scenario_baseline.csv": "080409498293026b4819129d295f4ce0379bb1d621904bedde039a6ade2bcda0",
        "scenario_trace.jsonl": "e89f650cefbdc80e653d373c76d69deebf74e1c79431386aa8a628a152c1b07c",
        "scenario.json": "02732161d0feb75a7dc0f924f6f23f7468f4b25dc645af056bdc94966fb5f359",
    }),
    # The deaf vehicle is the leader, which has no predecessor to miss.
    "deaf-leader": (ScenarioSpec(n=4, cut_vehicle=1), 0, {
        "scenario_report.json": "5ec084de144f0dc186efacdc57ab3adb9104f788446c3bc3d1eaff0b18acc918",
        "scenario_protocol.csv": "b2a6a62c9437f95567da782f6bd895d2ab1beadc49f4d66ba4933b3a16c4de2e",
        "scenario_baseline.csv": "bd49c8d35244f1202c98e56f83c0796588ceab8ac117e3d30b37ba899e8c2ce6",
        "scenario_trace.jsonl": "37c3e0b1d7efe528f17ee2417e387813cdad718d119413d8befbf869132be3c7",
        "scenario.json": "660a2d07092e4bdf26cc711012cfc5904db1bdb4f3d7dc8779b5937af93b1da6",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_scenario_artifacts_are_pinned(tmp_path, name):
    spec, code, want = PINNED_SCENARIOS[name]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    out = tmp_path / "out"
    assert main(["scenario", "--scenario-json", str(spec_path), "--out", str(out)]) == code
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in want}
    assert got == want


def test_replay_command_round_trip(tmp_path):
    assert main(["run", "--n", "3", "--duration-s", "4", "--seed", "5",
                 "--loss", "bernoulli:0.1", "--out", str(tmp_path)]) == 0
    assert main(["replay", str(tmp_path / "trace.jsonl")]) == 0


def test_replay_command_detects_tampering(tmp_path, capsys):
    main(["run", "--n", "2", "--duration-s", "3", "--seed", "6", "--out", str(tmp_path)])
    path = tmp_path / "trace.jsonl"
    lines = path.read_text().splitlines()
    ev = json.loads(lines[2])
    ev["t"] += 7
    lines[2] = json.dumps(ev, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path)]) == 1
    assert "diverged at line 3" in capsys.readouterr().err


def _record_small_trace(tmp_path):
    main(["run", "--n", "2", "--duration-s", "2", "--seed", "6", "--out", str(tmp_path)])
    path = tmp_path / "trace.jsonl"
    return path, path.read_text().splitlines()


def _rewrite_header(path, lines, edit):
    header = json.loads(lines[0])
    edit(header)
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")


@pytest.mark.parametrize("case,message", [
    ("not-json", "is not a lockstep-trace file"),
    ("missing-config", "missing key 'config'"),
    ("missing-protocol-field", "header is missing key 'gossip_interval'"),
    ("wrong-version", "trace version 2"),
    ("wrong-type", "field of the wrong type"),
    ("app-not-object", "app that is not an object"),
    ("app-without-level", "malformed 'level' app spec: KeyError"),
    ("app-unknown-kind", "app builder for kind 'bogus'"),
    ("app-unknown-level", "malformed 'level' app spec: KeyError: 'ULTRA'"),
    ("seed-a-list", "bad value: seed must be an int, got [1]"),
    ("n-a-float", "bad value: n must be an int, got 3.0"),
    ("round-length-a-float", "bad value: round_length must be an int, got 160000.5"),
    ("loss-p-not-a-number", "bad value: drop probability must be a number, got 'abc'"),
    ("fixed-delay-not-a-number", "bad value: fixed delay must be an int, got 'x'"),
    # A number of the wrong kind is malformed too, not a different config.
    ("loss-p-a-numeric-string", "bad value: drop probability must be a number, got '0.15'"),
    ("loss-p-a-bool", "bad value: drop probability must be a number, got True"),
    ("composite-p-a-string", "bad value: drop probability must be a number, got '0.1'"),
    ("fixed-delay-a-float", "bad value: fixed delay must be an int, got 3.5"),
    ("rule-round-a-string", "bad value: drop rule round must be an int, got '3'"),
    ("rule-span-a-float", "bad value: drop rule t1 must be an int, got 200.5"),
    ("rule-receiver-a-string", "bad value: drop rule receiver must be an int, got '2'"),
    # A rule that can match nothing is a typo, not a schedule.
    ("rule-round-negative", "bad value: drop rule round must be >= 0, got -4"),
    ("rule-span-backwards", "bad value: drop rule span [200, 100] matches no send time"),
])
def test_replay_malformed_header_is_usage_error(tmp_path, capsys, case, message):
    path, lines = _record_small_trace(tmp_path)
    config_edits = {
        "seed-a-list": {"seed": [1]},
        "n-a-float": {"n": 3.0},
        "round-length-a-float": {"round_length": 160000.5},
        "loss-p-not-a-number": {"loss": {"kind": "bernoulli", "p": "abc"}},
        "fixed-delay-not-a-number": {"delay": {"kind": "fixed", "delay": "x"}},
        "loss-p-a-numeric-string": {"loss": {"kind": "bernoulli", "p": "0.15"}},
        "loss-p-a-bool": {"loss": {"kind": "bernoulli", "p": True}},
        "composite-p-a-string": {"loss": {"kind": "composite", "p": "0.1", "rules": []}},
        "fixed-delay-a-float": {"delay": {"kind": "fixed", "delay": 3.5}},
        "rule-round-a-string": {"loss": {"kind": "schedule",
                                         "rules": [{"round": "3", "from": "*", "to": 1}]}},
        "rule-span-a-float": {"loss": {"kind": "schedule",
                                       "rules": [{"t": [100, 200.5], "from": 1, "to": "*"}]}},
        "rule-receiver-a-string": {"loss": {"kind": "schedule",
                                            "rules": [{"round": 3, "from": "*", "to": "2"}]}},
        "rule-round-negative": {"loss": {"kind": "schedule",
                                         "rules": [{"round": -4, "from": 2, "to": "*"}]}},
        "rule-span-backwards": {"loss": {"kind": "composite", "p": 0.1,
                                         "rules": [{"t": [200, 100], "from": "*", "to": 1}]}},
    }
    if case in config_edits:
        _rewrite_header(path, lines, lambda h: h["config"].update(config_edits[case]))
    elif case == "not-json":
        path.write_text("this is not json\n" + "\n".join(lines[1:]) + "\n")
    elif case == "missing-config":
        _rewrite_header(path, lines, lambda h: h.pop("config"))
    elif case == "missing-protocol-field":
        _rewrite_header(path, lines, lambda h: h["config"].pop("gossip_interval"))
    elif case == "wrong-version":
        _rewrite_header(path, lines, lambda h: h.update(version=2))
    elif case == "wrong-type":
        _rewrite_header(path, lines, lambda h: h.update(config=5))
    elif case == "app-not-object":
        _rewrite_header(path, lines, lambda h: h.update(app=5))
    elif case == "app-without-level":
        _rewrite_header(path, lines, lambda h: h.update(app={"kind": "level"}))
    elif case == "app-unknown-kind":
        _rewrite_header(path, lines, lambda h: h.update(app={"kind": "bogus"}))
    else:
        _rewrite_header(path, lines, lambda h: h.update(app={"kind": "level", "level": "ultra"}))
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv,message", [
    pytest.param(["run", "--round-ms", "0"], "round_length", id="run-round-ms-0"),
    pytest.param(["run", "--loss", "bernoulli:abc"], "bad loss spec 'bernoulli:abc'",
                 id="run-loss-p-not-a-number"),
    pytest.param(["run", "--loss", "composite:abc,x.json"], "bad loss spec",
                 id="run-composite-p-not-a-number"),
    pytest.param(["run", "--loss", "schedule:{bad}"], "bad loss spec", id="run-schedule-not-json"),
    pytest.param(["run", "--loss", "schedule:{five}"], "bad loss spec",
                 id="run-schedule-not-a-list"),
    pytest.param(["run", "--loss", "composite:0.1"], "bad loss spec",
                 id="run-composite-without-file"),
    pytest.param(["run", "--loss", "schedule:{round3}"], "drop rule round must be an int, got '3'",
                 id="run-schedule-round-a-string"),
    pytest.param(["run", "--loss", "composite:0.1,{round3}"],
                 "drop rule round must be an int, got '3'", id="run-composite-round-a-string"),
    pytest.param(["run", "--loss", "schedule:{negative}"], "drop rule round must be >= 0, got -4",
                 id="run-schedule-round-negative"),
    pytest.param(["run", "--loss", "composite:0.1,{negative}"],
                 "drop rule round must be >= 0, got -4", id="run-composite-round-negative"),
    pytest.param(["run", "--loss", "schedule:{backwards}"],
                 "drop rule span [2000000, 1000000] matches no send time",
                 id="run-schedule-span-backwards"),
    pytest.param(["run", "--loss", "composite:0.1,{backwards}"],
                 "drop rule span [2000000, 1000000] matches no send time",
                 id="run-composite-span-backwards"),
    pytest.param(["run", "--loss", "schedule:{before0}"],
                 "drop rule span [-300, -1] matches no send time",
                 id="run-schedule-span-before-0"),
    pytest.param(["run", "--loss", "composite:0.1,{before0}"],
                 "drop rule span [-300, -1] matches no send time",
                 id="run-composite-span-before-0"),
    pytest.param(["scenario", "--outage-rounds", "1"], "at least two rounds",
                 id="scenario-outage-rounds-1"),
    pytest.param(["scenario", "--outage-round", "39"], "outage_round must be in 0..34",
                 id="scenario-outage-past-the-horizon"),
    pytest.param(["scenario", "--outage-round", "-3"], "outage_round must be in 0..34",
                 id="scenario-outage-round-negative"),
    pytest.param(["scenario", "--outage-round", "35"], "the brake lands by the horizon",
                 id="scenario-brake-past-the-horizon"),
    pytest.param(["scenario", "--outage-rounds", "30", "--brake-after-rounds", "21"],
                 "outage_round must be in 0..19", id="scenario-long-brake-past-the-horizon"),
    pytest.param(["scenario", "--round-ms", "50"], "round_length", id="scenario-round-ms-50"),
    pytest.param(["scenario", "--round-ms", "0"], "round_length", id="scenario-round-ms-0"),
    pytest.param(["scenario", "--round-ms", "-5"], "round_length", id="scenario-round-ms-negative"),
    pytest.param(["sweep", "--n-list", "1", "--duration-s", "1"], "fleet sizes must be >= 2",
                 id="sweep-n-list-1"),
    pytest.param(["sweep", "--n-list", "2,8", "--round-ms-list", "160,2000", "--seeds", "1",
                  "--duration-s", "1", "--processes", "1"], "a 1 s run holds no 2000 ms round",
                 id="sweep-duration-shorter-than-a-round"),
    pytest.param(["sweep", "--drop-rate", "1.5", "--n-list", "2", "--duration-s", "1"],
                 "drop probability must be in [0,1], got 1.5", id="sweep-drop-rate-1.5"),
    pytest.param(["sweep", "--round-ms", "2000", "--n-list", "2", "--duration-s", "1"],
                 "a 1 s run holds no 2000 ms round", id="sweep-round-ms-is-the-list-prefix"),
    pytest.param(["sweep", "--processes", "0", "--n-list", "2", "--duration-s", "1"],
                 "--processes must be >= 1, got 0", id="sweep-processes-0"),
    pytest.param(["sweep", "--processes", "-3", "--n-list", "2", "--duration-s", "1"],
                 "--processes must be >= 1, got -3", id="sweep-processes-negative"),
    pytest.param(["scenario", "--scenario-json", "{bad}"], "cannot read scenario",
                 id="scenario-json-not-json"),
    pytest.param(["scenario", "--scenario-json", "{list}"], "must be a JSON object",
                 id="scenario-json-not-an-object"),
    pytest.param(["scenario", "--scenario-json", "{missing}"], "KeyError: 'initial_level'",
                 id="scenario-json-missing-key"),
    pytest.param(["scenario", "--scenario-json", "{unknown}"], "'bogus'",
                 id="scenario-json-unknown-key"),
    pytest.param(["scenario", "--scenario-json", "{ultra}"], "KeyError: 'ULTRA'",
                 id="scenario-json-unknown-level"),
    pytest.param(["scenario", "--scenario-json", "{fast}"], "'cruise_speed' must be float",
                 id="scenario-json-float-field-a-string"),
    pytest.param(["scenario", "--scenario-json", "{half}"], "'horizon_rounds' must be int",
                 id="scenario-json-int-field-a-float"),
    pytest.param(["scenario", "--scenario-json", "{round0}"], "round_length",
                 id="scenario-json-round-length-0"),
    pytest.param(["scenario", "--scenario-json", "{levelkey}"],
                 "unexpected keyword argument 'bogus'", id="scenario-json-unknown-level-key"),
])
def test_malformed_command_input_is_usage_error(tmp_path, capsys, argv, message):
    scenario = ScenarioSpec().to_json()
    files = {
        "bad": "not json\n",
        "five": "5\n",
        "list": "[1]\n",
        "missing": '{"n": 3, "bogus": 1}\n',
        "unknown": json.dumps(dict(scenario, bogus=1)),
        "ultra": json.dumps(dict(scenario, initial_level="ultra")),
        "fast": json.dumps(dict(scenario, cruise_speed="fast")),
        "half": json.dumps(dict(scenario, horizon_rounds=2.5)),
        "round0": json.dumps(dict(scenario, round_length=0)),
        "levelkey": json.dumps(dict(scenario, levels=dict(
            scenario["levels"], low=dict(scenario["levels"]["low"], bogus=1)))),
        "round3": '[{"round": "3", "from": "*", "to": 1}]\n',
        "negative": '[{"round": -4, "from": 2, "to": "*"}]\n',
        "backwards": '[{"t": [2000000, 1000000], "from": "*", "to": 1}]\n',
        "before0": '[{"t": [-300, -1], "from": "*", "to": 1}]\n',
    }
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()  # rejected before any output directory is made


def test_replay_missing_file_is_usage_error():
    assert main(["replay", "/nonexistent/trace.jsonl"]) == 2


@pytest.mark.parametrize("argv,message", [
    pytest.param(["replay", "{dir}"], "Is a directory", id="replay-a-directory"),
    pytest.param(["verify", "--n", "2", "--rounds", "1", "--report-file", "{dir}"],
                 "Is a directory", id="verify-report-file-a-directory"),
    pytest.param(["run", "--duration-s", "1", "--out", "{dir}", "--trace-file", "{dir}"],
                 "Is a directory", id="run-trace-file-a-directory"),
    pytest.param(["run", "--duration-s", "1", "--out", "{file}/x"], "Not a directory",
                 id="run-out-under-a-file"),
    pytest.param(["scenario", "--out", "{file}"], "File exists",
                 id="scenario-out-a-file"),
])
def test_unusable_path_is_usage_error(tmp_path, capsys, argv, message):
    plain = tmp_path / "plain"
    plain.write_text("")
    argv = [a.format(dir=tmp_path, file=plain) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no result is printed by a command that failed
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv,message", [
    pytest.param(["run", "--duration-s", "1", "--out", "{file}/x"], "Not a directory",
                 id="run-out-under-a-file"),
    pytest.param(["sweep", "--n-list", "2", "--round-ms-list", "160", "--seeds", "1",
                  "--processes", "1", "--out", "{file}"], "File exists", id="sweep-out-a-file"),
    pytest.param(["scenario", "--out", "{file}"], "File exists", id="scenario-out-a-file"),
    pytest.param(["run", "--duration-s", "120", "--n", "8", "--out", "{dir}",
                  "--trace-file", "{dir}"], "Is a directory", id="run-trace-file-a-directory"),
])
def test_unusable_out_fails_before_any_simulation(tmp_path, capsys, monkeypatch, argv, message):
    def no_simulation(*args, **kwargs):
        pytest.fail("simulated before checking the output paths")

    for name in ("run", "run_sweep", "run_worst_case", "run_baseline"):
        monkeypatch.setattr(cli, name, no_simulation)
    plain = tmp_path / "plain"
    plain.write_text("")
    assert main([a.format(file=plain, dir=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["run", "--round-ms", "not-a-number"])
    assert info.value.code == 2


def test_sweep_cell_holds_no_trace():
    # An acceptance-scale cell at 30 s: the view keeps a few numbers per
    # round, where a trace keeps every send, delivery and drop.
    config = build_sim_config(8, 160, 5, 100, 50, BernoulliLoss(TABLE1_DROP_RATES[8]), 1, 30)
    tracemalloc.start()
    try:
        trace = run(config, LevelApp(ServiceLevel.HIGH))
        _, run_peak = tracemalloc.get_traced_memory()
        del trace
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        _sweep_cell(config)
        _, cell_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cell_peak - before < run_peak / 5


def run_into_closed_pipe(argv):
    """Run ``python -m lockstep`` with stdout a pipe whose reader is already gone.

    The read end is closed before the child starts, so its first write to
    stdout fails with EPIPE whatever the timing.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(lockstep.__file__).resolve().parent.parent))
    try:
        return subprocess.run([sys.executable, "-m", "lockstep", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)


def test_closed_stdout_is_not_a_usage_error():
    # Like `lockstep verify ... | head`: a reader that leaves early is not
    # malformed input, so no exit 2 and nothing on stderr.
    caught = run_into_closed_pipe(
        ["verify", "--n", "2", "--rounds", "3", "--mutate", "drop-default-write"])
    assert caught.returncode == 1
    assert caught.stderr == b""
    passing = run_into_closed_pipe(["verify", "--n", "2", "--rounds", "3"])
    assert passing.returncode != 2
    assert passing.stderr == b""
