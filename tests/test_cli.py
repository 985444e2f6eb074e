"""End-to-end tests of the command-line driver and its exit codes."""

import gc
import hashlib
import json
import multiprocessing
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
    _sweep_cell,
    aggregate_sweep,
    build_sim_config,
    main,
    run_sweep,
    sweep_cells,
)
from lockstep.oracle import MAX_REPORT_CELLS, MAX_VERIFY_ROUNDS
from lockstep.platoon import LevelApp, PlatoonApp, ScenarioSpec, ServiceLevel
from lockstep.protocol import MAX_INPUT_BYTES, MAX_MEMBERS, MAX_SENDS_PER_ROUND
from lockstep.sim import MAX_EVENTS, MAX_JOURNEY_EVENTS, BernoulliLoss, run

from conftest import PYTHON_WORDING


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
    # Just past each size bound; unbounded, each of these passes small and fast.
    ["verify", "--n", str(MAX_MEMBERS + 1), "--rounds", "1", "--trials", "1"],
    ["verify", "--n", "2", "--rounds", str(MAX_VERIFY_ROUNDS + 1), "--trials", "1"],
    ["verify", "--n", "1", "--rounds", str(MAX_VERIFY_ROUNDS + 1)],  # 0 bits, still bounded
    # One round more than a failing report of 16 vehicles may render.
    ["verify", "--n", "16", "--rounds", str(MAX_REPORT_CELLS // 16**2 + 1), "--trials", "1"],
])
def test_verify_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Failing exhaustive reports past the sizes the literal matrix enumerator in
# tests/test_oracle.py can reach: the sha256 of the --report-file, and its
# patterns_checked, the literal rank of the first failing matrix sequence plus one.
PINNED_MUTANT_REPORTS = {
    (4, 4): ("77a7816d517b3cda3259eca574aca2325e979abed26ee76cfd6e5563b439ac58", 4_098),
    (5, 3): ("8cc7c7c728f583a9bc826c6e1ac0ad00c55f71754c63cc64b7ff67e8715edc41", 1_048_578),
    (3, 6): ("cb49824df328067a63eadff1919d967d1141c7e026a200438be0e72db23b08b9", 66),
}


@pytest.mark.parametrize("n,rounds", sorted(PINNED_MUTANT_REPORTS))
def test_failing_exhaustive_reports_are_pinned(tmp_path, n, rounds):
    digest, patterns = PINNED_MUTANT_REPORTS[n, rounds]
    path = tmp_path / "report.json"
    assert main(["verify", "--n", str(n), "--rounds", str(rounds),
                 "--mutate", "drop-default-write", "--report-file", str(path)]) == 1
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert json.loads(path.read_text())["patterns_checked"] == patterns


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


def test_sweep_runs_a_fleet_past_the_run_bound(tmp_path):
    # 64 vehicles over 20 s are about 1.03M events, past MAX_EVENTS; a sweep
    # cell holds no events, so MAX_JOURNEY_EVENTS bounds it instead.
    code = main(["sweep", "--n-list", "64", "--round-ms-list", "160", "--seeds", "1",
                 "--duration-s", "20", "--processes", "1", "--out", str(tmp_path)])
    assert code == 0
    header, *rows = [line.split(",") for line in
                     (tmp_path / "sweep.csv").read_text().splitlines()]
    assert len(rows) == 1 and rows[0][0] == "64"
    assert [rows[0][header.index(p)] for p in ("p1", "p2", "p3")] == ["True"] * 3


def test_sweep_spec_uses_calibrated_drop_rates():
    cells = sweep_cells(ns=(2, 8), round_ms=(160,), seeds=(1,))
    assert [c.loss.p for c in cells] == [TABLE1_DROP_RATES[2], TABLE1_DROP_RATES[8]]


def test_sweep_rejects_bad_round_length():
    with pytest.raises(Exception):
        sweep_cells(ns=(2,), round_ms=(110,), seeds=(1,))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Pools run their cells in process; the list records each pool's size."""
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

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", SerialPool)
    return sizes


def test_sweep_starts_no_more_workers_than_cells(monkeypatch, pool_sizes):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 6)
    cells = sweep_cells(ns=(2,), round_ms=(160, 260), seeds=(1,), duration_s=1)
    rows = run_sweep(cells, processes=6)
    assert pool_sizes == [2]
    assert rows == run_sweep(cells, processes=1)
    assert pool_sizes == [2]  # one worker runs in process, with no pool
    run_sweep(cells)
    assert pool_sizes == [2, 2]


def test_sweep_starts_no_more_workers_than_cpus(monkeypatch, pool_sizes):
    cells = sweep_cells(ns=(2, 3), round_ms=(160, 260), seeds=(1, 2), duration_s=1)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    rows = run_sweep(cells, processes=5000)
    assert pool_sizes == [3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert run_sweep(cells, processes=5000) == rows
    assert pool_sizes == [3]  # one CPU: the cells run in process, with no pool


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    """Only a sweep that makes a pool pays for multiprocessing's imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(lockstep.__file__).resolve().parent.parent))
    code = "import sys, lockstep.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out == "False\n"


def test_aggregate_groups_by_cell():
    rows = run_sweep(sweep_cells(ns=(2,), round_ms=(160,), seeds=(1, 2), duration_s=5),
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
    # The tail vehicle is deaf, so the baseline facts read the vehicle ahead of it.
    "cut-tail": (ScenarioSpec(cut_vehicle=3, outage_round=12), 0, {
        "scenario_report.json": "59906c9c0fa87bb1e15d51bed80303154d7ada6a3fba656dbe4931603e8b68a3",
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


def test_scenario_fields_left_out_take_their_defaults(tmp_path):
    spec = ScenarioSpec().to_json()
    del spec["initial_level"], spec["levels"], spec["cruise_speed"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["scenario", "--scenario-json", str(spec_path), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "scenario.json").read_bytes()).hexdigest()
    assert digest == PINNED_SCENARIOS["default"][2]["scenario.json"]


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


def test_replay_command_rejects_a_crlf_copy(tmp_path, capsys):
    main(["run", "--n", "3", "--duration-s", "2", "--seed", "3", "--out", str(tmp_path)])
    data = (tmp_path / "trace.jsonl").read_bytes()
    path = tmp_path / "crlf.jsonl"
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    capsys.readouterr()
    assert main(["replay", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("replay diverged at line 1:\n  recorded: {")
    assert err.split("\n")[1].endswith("}\\r")  # the "\r" shown as an escape


def _record_small_trace(tmp_path):
    main(["run", "--n", "2", "--duration-s", "2", "--seed", "6", "--out", str(tmp_path)])
    path = tmp_path / "trace.jsonl"
    return path, path.read_text().splitlines()


def _rewrite_header(path, lines, edit):
    header = json.loads(lines[0])
    edit(header)
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")


# Each case below keeps the id it has always had, made of its case and the
# message it pinned before the header's objects, and then its drop rules and
# its decoding errors, named their paths in the program's words; the message
# it pins now is the one in HEADER_CASES.
_FORMER_MESSAGES = {
    "app-level-a-list":
        "malformed 'level' app spec: field 'level' must name one of low, medium, high, got ['high']",
    "app-level-a-number":
        "malformed 'level' app spec: field 'level' must name one of low, medium, high, got 3",
    "app-not-object": "app that is not an object",
    "app-unknown-kind": "app builder for kind 'bogus'",
    "app-unknown-level":
        "malformed 'level' app spec: field 'level' must name one of low, medium, high, got 'ultra'",
    "app-without-level":
        "malformed 'level' app spec: field 'level' must name one of low, medium, high, got None",
    "composite-p-a-string": "bad value: drop probability must be a number, got '0.1'",
    "fixed-delay-a-float": "bad value: fixed delay must be an int, got 3.5",
    "fixed-delay-not-a-number": "bad value: fixed delay must be an int, got 'x'",
    "loss-p-a-bool": "bad value: drop probability must be a number, got True",
    "loss-p-a-numeric-string": "bad value: drop probability must be a number, got '0.15'",
    "loss-p-not-a-number": "bad value: drop probability must be a number, got 'abc'",
    "missing-config": "missing key 'config'",
    "missing-protocol-field": "header is missing key 'gossip_interval'",
    "n-a-float": "bad value: n must be an int, got 3.0",
    "nested-too-deep": "is not a lockstep-trace file: maximum recursion depth exceeded",
    "round-length-a-float": "bad value: round_length must be an int, got 160000.5",
    "rule-misspelled-key": "bad value: drop rule has unknown key 'recieer'",
    "rule-receiver-a-string": "bad value: drop rule receiver must be an int, got '2'",
    "rule-round-a-string": "bad value: drop rule round must be an int, got '3'",
    "rule-round-and-span": "drop rule needs exactly one of: round, [t0, t1]",
    "rule-round-negative": "bad value: drop rule round must be >= 0, got -4",
    "rule-span-a-float": "bad value: drop rule t1 must be an int, got 200.5",
    "rule-span-backwards": "bad value: drop rule span [200, 100] matches no send time",
    "rule-without-round-or-span": "drop rule needs exactly one of: round, [t0, t1]",
    "seed-a-list": "bad value: seed must be an int, got [1]",
    "wrong-type": "field of the wrong type",
}

HEADER_CASES = [
    ("not-json", "is not a lockstep-trace file"),
    ("missing-config", "header lacks field 'config'"),
    ("missing-protocol-field", "config lacks field 'gossip_interval'"),
    ("wrong-version", "trace version 2"),
    ("wrong-type", "config must be a JSON object, got 5"),
    ("app-not-object", "app must be a JSON object, got 5"),
    ("app-without-level", "app lacks field 'level'"),
    ("app-unknown-kind", "app.kind must be one of level, platoon-worst-case, got 'bogus'"),
    ("app-unknown-level", "app.level must name one of low, medium, high, got 'ultra'"),
    ("app-level-a-number", "app.level must name one of low, medium, high, got 3"),
    ("app-level-a-list", "app.level must name one of low, medium, high, got ['high']"),
    ("seed-a-list", "error: seed must be an int, got [1]"),
    ("n-a-float", "error: n must be an int, got 3.0"),
    ("round-length-a-float", "error: round_length must be an int, got 160000.5"),
    ("loss-p-not-a-number", "error: drop probability must be a number, got 'abc'"),
    ("fixed-delay-not-a-number", "error: fixed delay must be an int, got 'x'"),
    # A number of the wrong kind is malformed too, not a different config.
    ("loss-p-a-numeric-string", "error: drop probability must be a number, got '0.15'"),
    ("loss-p-a-bool", "error: drop probability must be a number, got True"),
    ("composite-p-a-string", "error: drop probability must be a number, got '0.1'"),
    ("fixed-delay-a-float", "error: fixed delay must be an int, got 3.5"),
    # A rule's error names the rule.
    ("rule-round-a-string", "error: config.loss.rules[0]: drop rule round must be an int, got '3'"),
    ("rule-span-a-float", "error: config.loss.rules[0]: drop rule t1 must be an int, got 200.5"),
    ("rule-receiver-a-string",
     "error: config.loss.rules[0]: drop rule receiver must be an int, got '2'"),
    # A rule that can match nothing is a typo, not a schedule.
    ("rule-round-negative", "error: config.loss.rules[0]: drop rule round must be >= 0, got -4"),
    ("rule-span-backwards",
     "error: config.loss.rules[0]: drop rule span [200, 100] matches no send time"),
    # A misspelled key would widen the rule to a wildcard.
    ("rule-misspelled-key", "config.loss.rules[0] has unknown field 'recieer'"),
    # A clock more than a round ahead would skip a round.
    ("offsets-past-a-round", "clock offsets must be <= round_length 160000"),
    # Every object of the header names an unknown key, a missing one or a
    # value of the wrong shape by its path.
    ("header-unknown-key", "header has unknown field 'extra'"),
    ("config-unknown-key", "config has unknown field 'sedd'"),
    ("loss-unknown-key", "config.loss has unknown field 'pp'"),
    ("composite-misspelled-rules", "config.loss has unknown field 'ruels'"),
    ("delay-unknown-key", "config.delay has unknown field 'dealy'"),
    ("app-unknown-key", "app has unknown field 'levle'"),
    ("loss-a-list", "config.loss must be a JSON object, got [0.1]"),
    ("delay-a-list", "config.delay must be a JSON object, got ['uniform']"),
    ("loss-kind-a-list",
     "config.loss.kind must be one of bernoulli, schedule, composite, got ['x']"),
    ("offsets-null", "config.offsets must be a JSON array of length 2, got None"),
    ("offsets-too-few", "config.offsets must be a JSON array of length 2, got [0]"),
    ("rules-null", "config.loss.rules must be a JSON array, got None"),
    ("rules-an-object", "config.loss.rules must be a JSON array, got {'r': 1}"),
    ("rule-a-number", "config.loss.rules[1] must be a JSON object, got 3"),
    ("rule-span-of-three",
     "config.loss.rules[0].t must be a JSON array of length 2, got [1, 2, 3]"),
    ("rule-without-round-or-span",
     "config.loss.rules[0]: drop rule needs exactly one of: round, [t0, t1]"),
    # Read as a round alone, the rule would drop the whole round, not the span.
    ("rule-round-and-span",
     "config.loss.rules[0]: drop rule needs exactly one of: round, [t0, t1]"),
    ("rule-vehicle-outside-the-fleet",
     "drop rule at index 1 references vehicle 3, valid ids are 1..2"),
    ("n-above-max-members", f"n must be in 1..{MAX_MEMBERS}, got 1000000"),
    # JSON nested deeper than the parser recurses is not JSON it can read.
    ("nested-too-deep", "is not a lockstep-trace file: it is nested deeper than can be read"),
    ("integer-too-long", "is not a lockstep-trace file: it holds an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits"),
    ("not-utf-8", "is not a lockstep-trace file: it is not UTF-8 text at byte 2"),
    # A run or a header line too large to hold is refused before it is made or read.
    ("duration-too-many-events", "duration 10000000000000 holds 62500000 rounds of 2 vehicles, "
                                 f"about 625000000 events, more than {MAX_EVENTS}"),
    ("endless", "/dev/zero is not a lockstep-trace file: the JSON text is longer than "
                f"{MAX_INPUT_BYTES} bytes"),
    # A platoon run's config is its scenario's. In the default scenario's
    # header, a 2-vehicle scenario would crash the 3-vehicle run, and a
    # 1 µs duration would replay as identical a run of none of its 40 rounds.
    ("platoon-scenario-n-not-the-config's", "error: config is not the one app.scenario runs"),
    ("platoon-duration-not-the-scenario's", "error: config is not the one app.scenario runs"),
]


@pytest.mark.parametrize("case,message", HEADER_CASES,
                         ids=[f"{case}-{_FORMER_MESSAGES.get(case, message)}"
                              for case, message in HEADER_CASES])
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
        "rule-misspelled-key": {"loss": {"kind": "schedule",
                                         "rules": [{"round": 3, "recieer": 2}]}},
        "config-unknown-key": {"sedd": 6},
        "loss-unknown-key": {"loss": {"kind": "bernoulli", "p": 0.1, "pp": 0.2}},
        "composite-misspelled-rules": {"loss": {"kind": "composite", "p": 0.1, "rules": [],
                                                "ruels": [{"round": 3}]}},
        "delay-unknown-key": {"delay": {"kind": "fixed", "delay": 5, "dealy": 7}},
        "loss-a-list": {"loss": [0.1]},
        "delay-a-list": {"delay": ["uniform"]},
        "loss-kind-a-list": {"loss": {"kind": ["x"]}},
        "offsets-null": {"offsets": None},
        "offsets-too-few": {"offsets": [0]},
        "rules-null": {"loss": {"kind": "schedule", "rules": None}},
        "rules-an-object": {"loss": {"kind": "schedule", "rules": {"r": 1}}},
        "rule-a-number": {"loss": {"kind": "schedule", "rules": [{"round": 2}, 3]}},
        "rule-span-of-three": {"loss": {"kind": "composite", "p": 0.1,
                                        "rules": [{"t": [1, 2, 3]}]}},
        "rule-without-round-or-span": {"loss": {"kind": "schedule", "rules": [{"to": 2}]}},
        "rule-round-and-span": {"loss": {"kind": "schedule",
                                         "rules": [{"round": 3, "t": [0, 100], "to": 2}]}},
        "rule-vehicle-outside-the-fleet": {"loss": {"kind": "schedule", "rules": [
            {"round": 3}, {"round": 4, "to": 3}]}},
        "n-above-max-members": {"n": 1_000_000},
        "duration-too-many-events": {"duration": 10**13},
    }
    app_edits = {
        "app-not-object": 5,
        "app-without-level": {"kind": "level"},
        "app-unknown-kind": {"kind": "bogus"},
        "app-unknown-level": {"kind": "level", "level": "ultra"},
        "app-level-a-number": {"kind": "level", "level": 3},
        "app-level-a-list": {"kind": "level", "level": ["high"]},
        "app-unknown-key": {"kind": "level", "level": "high", "levle": "low"},
    }
    if case in config_edits:
        _rewrite_header(path, lines, lambda h: h["config"].update(config_edits[case]))
    elif case in app_edits:
        _rewrite_header(path, lines, lambda h: h.update(app=app_edits[case]))
    elif case == "not-json":
        path.write_text("this is not json\n" + "\n".join(lines[1:]) + "\n")
    elif case == "missing-config":
        _rewrite_header(path, lines, lambda h: h.pop("config"))
    elif case == "missing-protocol-field":
        _rewrite_header(path, lines, lambda h: h["config"].pop("gossip_interval"))
    elif case == "offsets-past-a-round":
        def shift(h):
            config = h["config"]
            config["offsets"] = [o + config["round_length"] + 1 for o in config["offsets"]]
        _rewrite_header(path, lines, shift)
    elif case == "wrong-version":
        _rewrite_header(path, lines, lambda h: h.update(version=2))
    elif case == "header-unknown-key":
        _rewrite_header(path, lines, lambda h: h.update(extra=1))
    elif case == "nested-too-deep":
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n" + "\n".join(lines[1:]) + "\n")
    elif case == "integer-too-long":  # a seed of 5,000 digits, which json.dumps cannot write
        _rewrite_header(path, lines, lambda h: h["config"].update(seed=0))
        path.write_text(path.read_text().replace('"seed": 0', '"seed": ' + "7" * 5_000, 1))
    elif case == "not-utf-8":
        path.write_bytes(b'{"\xff": 1}\n' + "\n".join(lines[1:]).encode() + b"\n")
    elif case == "endless":
        path = Path("/dev/zero")
    elif case.startswith("platoon-"):  # written as replay writes it, so line 1 matches
        scenario = ScenarioSpec()
        header = {"format": "lockstep-trace", "version": 1,
                  "config": scenario.sim_config().to_json(), "app": PlatoonApp(scenario).spec()}
        if "scenario-n" in case:
            header["app"]["scenario"]["n"] = 2
        else:
            header["config"]["duration"] = 1
        path.write_text(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        assert case == "wrong-type"
        _rewrite_header(path, lines, lambda h: h.update(config=5))
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not any(word in err for word in PYTHON_WORDING)


@pytest.mark.parametrize("argv,message", [
    pytest.param(["run", "--round-ms", "0"], "round_length", id="run-round-ms-0"),
    pytest.param(["run", "--round-ms", str(10**400)],
                 f"round_length {10**403} holds more than {MAX_SENDS_PER_ROUND} gossip sends "
                 "of gossip_interval 50000", id="run-round-ms-too-many-sends"),
    pytest.param(["run", "--loss", "bernoulli:abc"],
                 "bad loss spec 'bernoulli:abc': 'abc' is not a number",
                 id="run-loss-p-not-a-number"),
    pytest.param(["run", "--loss", "composite:abc,x.json"],
                 "bad loss spec 'composite:abc,x.json': 'abc' is not a number",
                 id="run-composite-p-not-a-number"),
    pytest.param(["run", "--level", "ultra"],
                 "--level must name one of low, medium, high, got 'ultra'",
                 id="run-level-unknown"),
    pytest.param(["run", "--loss", "schedule:{bad}"],
                 "bad loss spec 'schedule:{bad}': cannot read schedule {bad}: "
                 "it is not JSON at line 1, column 1", id="run-schedule-not-json"),
    pytest.param(["run", "--loss", "schedule:{five}"], "bad loss spec",
                 id="run-schedule-not-a-list"),
    pytest.param(["run", "--loss", "composite:0.1"], "bad loss spec",
                 id="run-composite-without-file"),
    # A rule's error names the rule.
    pytest.param(["run", "--loss", "schedule:{round3}"],
                 "schedule[0]: drop rule round must be an int, got '3'",
                 id="run-schedule-round-a-string"),
    pytest.param(["run", "--loss", "composite:0.1,{round3}"],
                 "schedule[0]: drop rule round must be an int, got '3'",
                 id="run-composite-round-a-string"),
    pytest.param(["run", "--loss", "schedule:{negative}"],
                 "schedule[1]: drop rule round must be >= 0, got -4",
                 id="run-schedule-round-negative"),
    pytest.param(["run", "--loss", "composite:0.1,{negative}"],
                 "schedule[1]: drop rule round must be >= 0, got -4",
                 id="run-composite-round-negative"),
    pytest.param(["run", "--loss", "schedule:{backwards}"],
                 "schedule[0]: drop rule span [2000000, 1000000] matches no send time",
                 id="run-schedule-span-backwards"),
    pytest.param(["run", "--loss", "composite:0.1,{backwards}"],
                 "schedule[0]: drop rule span [2000000, 1000000] matches no send time",
                 id="run-composite-span-backwards"),
    pytest.param(["run", "--loss", "schedule:{before0}"],
                 "schedule[0]: drop rule span [-300, -1] matches no send time",
                 id="run-schedule-span-before-0"),
    pytest.param(["run", "--loss", "composite:0.1,{before0}"],
                 "schedule[0]: drop rule span [-300, -1] matches no send time",
                 id="run-composite-span-before-0"),
    pytest.param(["run", "--loss", "schedule:{outside}"],
                 "drop rule at index 1 references vehicle 5, valid ids are 1..4",
                 id="run-schedule-vehicle-outside-the-fleet"),
    pytest.param(["run", "--loss", "schedule:{misspelled}"],
                 "schedule[0] has unknown field 'recieer'", id="run-schedule-misspelled-key"),
    pytest.param(["run", "--loss", "composite:0.1,{misspelled}"],
                 "schedule[0] has unknown field 'recieer'", id="run-composite-misspelled-key"),
    pytest.param(["run", "--loss", "schedule:{both}"],
                 "schedule[0]: drop rule needs exactly one of: round, [t0, t1]",
                 id="run-schedule-round-and-span"),
    pytest.param(["run", "--loss", "composite:0.1,{both}"],
                 "schedule[0]: drop rule needs exactly one of: round, [t0, t1]",
                 id="run-composite-round-and-span"),
    pytest.param(["run", "--loss", "schedule:{null}"], "schedule must be a JSON array, got None",
                 id="run-schedule-null"),
    # JSON the decoder cannot read is named in the program's words: too deep,
    # an integer too long to convert, or bytes that are not UTF-8.
    pytest.param(["run", "--loss", "schedule:{deep}"],
                 "bad loss spec 'schedule:{deep}': cannot read schedule {deep}: "
                 "it is nested deeper than can be read", id="run-schedule-nested-too-deep"),
    pytest.param(["scenario", "--scenario-json", "{deep}"],
                 "cannot read scenario {deep}: it is nested deeper than can be read",
                 id="scenario-json-nested-too-deep"),
    pytest.param(["run", "--loss", "schedule:{digits}"],
                 f"cannot read schedule {{digits}}: it holds an integer of more than "
                 f"{sys.get_int_max_str_digits()} digits", id="run-schedule-integer-too-long"),
    pytest.param(["scenario", "--scenario-json", "{digits}"],
                 f"cannot read scenario {{digits}}: it holds an integer of more than "
                 f"{sys.get_int_max_str_digits()} digits", id="scenario-json-integer-too-long"),
    pytest.param(["run", "--loss", "schedule:{latin1}"],
                 "cannot read schedule {latin1}: it is not UTF-8 text at byte 12",
                 id="run-schedule-not-utf-8"),
    pytest.param(["scenario", "--scenario-json", "{latin1}"],
                 "cannot read scenario {latin1}: it is not UTF-8 text at byte 12",
                 id="scenario-json-not-utf-8"),
    pytest.param(["run", "--loss", "schedule:{span3}"],
                 "schedule[0].t must be a JSON array of length 2, got [1, 2, 3]",
                 id="run-schedule-span-of-three"),
    # The fleet bound is checked before anything of size n is made.
    pytest.param(["run", "--n", str(MAX_MEMBERS + 1), "--duration-s", "1"],
                 f"n must be in 1..{MAX_MEMBERS}, got {MAX_MEMBERS + 1}",
                 id="run-n-above-max-members"),
    pytest.param(["run", "--n", "30000", "--duration-s", "1"],
                 f"n must be in 1..{MAX_MEMBERS}, got 30000", id="run-n-30000"),
    pytest.param(["scenario", "--scenario-json", "{fleet}"],
                 f"n must be in 1..{MAX_MEMBERS}, got {MAX_MEMBERS + 1}",
                 id="scenario-json-n-above-max-members"),
    pytest.param(["scenario", "--scenario-json", "{one}"], "a platoon needs at least two vehicles",
                 id="scenario-json-n-1"),
    pytest.param(["scenario", "--scenario-json", "{headways}"],
                 "headways must grow as the level drops", id="scenario-json-headways-flat"),
    pytest.param(["scenario", "--scenario-json", "{accels}"],
                 "acceleration bounds must nest upward as the level drops",
                 id="scenario-json-accel-bounds-flat"),
    pytest.param(["scenario", "--scenario-json", "{outage1}"], "at least two rounds",
                 id="scenario-outage-rounds-1"),
    pytest.param(["scenario", "--scenario-json", "{outage39}"], "outage_round must be in 0..30",
                 id="scenario-outage-past-the-horizon"),
    pytest.param(["scenario", "--scenario-json", "{outage_neg}"], "outage_round must be in 0..30",
                 id="scenario-outage-round-negative"),
    pytest.param(["scenario", "--scenario-json", "{outage35}"], "the outage ends by the horizon",
                 id="scenario-brake-past-the-horizon"),
    pytest.param(["scenario", "--scenario-json", "{long_brake}"],
                 "outage_round must be in 0..10", id="scenario-long-brake-past-the-horizon"),
    pytest.param(["scenario", "--scenario-json", "{late_outage}"], "outage_round must be in 0..37",
                 id="scenario-outage-runs-past-the-horizon"),
    pytest.param(["scenario", "--scenario-json", "{round50ms}"], "round_length",
                 id="scenario-round-ms-50"),
    pytest.param(["scenario", "--scenario-json", "{round0ms}"], "round_length",
                 id="scenario-round-ms-0"),
    pytest.param(["scenario", "--scenario-json", "{round_neg}"], "round_length",
                 id="scenario-round-ms-negative"),
    # A run, a sweep grid or an input file too large to hold is refused
    # before anything of its size is made or read.
    pytest.param(["run", "--n", "2", "--duration-s", "10000000"],
                 "duration 10000000000000 holds 62500000 rounds of 2 vehicles, "
                 f"about 625000000 events, more than {MAX_EVENTS}", id="run-too-many-events"),
    pytest.param(["sweep", "--n-list", "2", "--round-ms-list", "160", "--seeds", "1",
                  "--processes", "1", "--duration-s", "10000000"],
                 f"about 625000000 events, more than {MAX_JOURNEY_EVENTS}",
                 id="sweep-too-many-events"),
    pytest.param(["scenario", "--scenario-json", "{long_horizon}"],
                 "duration 26000000000000 holds 100000000 rounds of 3 vehicles, "
                 f"about 3900000000 events, more than {MAX_EVENTS}",
                 id="scenario-json-too-many-events"),
    pytest.param(["sweep", "--seeds", "10000000"],
                 f"a sweep grid holds at most {cli.MAX_SWEEP_CELLS} cells, "
                 "got 7 x 3 x 10000000 = 210000000", id="sweep-too-many-cells"),
    pytest.param(["run", "--n", "2", "--duration-s", "1", "--loss", "schedule:/dev/zero"],
                 "bad loss spec 'schedule:/dev/zero': cannot read schedule /dev/zero: "
                 f"the JSON text is longer than {MAX_INPUT_BYTES} bytes",
                 id="run-schedule-endless"),
    pytest.param(["scenario", "--scenario-json", "/dev/zero"],
                 f"cannot read scenario /dev/zero: the JSON text is longer than {MAX_INPUT_BYTES} "
                 "bytes", id="scenario-json-endless"),
    pytest.param(["sweep", "--n-list", "1", "--duration-s", "1"], "fleet sizes must be >= 2",
                 id="sweep-n-list-1"),
    pytest.param(["sweep", "--seeds", "0"], "sweep axes must be non-empty", id="sweep-seeds-0"),
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
    pytest.param(["scenario", "--scenario-json", "{bad}"],
                 "cannot read scenario {bad}: it is not JSON at line 1, column 1",
                 id="scenario-json-not-json"),
    pytest.param(["scenario", "--scenario-json", "{list}"], "must be a JSON object",
                 id="scenario-json-not-an-object"),
    pytest.param(["scenario", "--scenario-json", "{missing}"],
                 "scenario has unknown field 'bogus'", id="scenario-json-missing-key"),
    pytest.param(["scenario", "--scenario-json", "{unknown}"], "'bogus'",
                 id="scenario-json-unknown-key"),
    pytest.param(["scenario", "--scenario-json", "{ultra}"],
                 "scenario.initial_level must name one of low, medium, high, got 'ultra'",
                 id="scenario-json-unknown-level"),
    pytest.param(["scenario", "--scenario-json", "{fast}"], "'cruise_speed' must be float",
                 id="scenario-json-float-field-a-string"),
    pytest.param(["scenario", "--scenario-json", "{half}"], "'horizon_rounds' must be int",
                 id="scenario-json-int-field-a-float"),
    pytest.param(["scenario", "--scenario-json", "{round0}"], "round_length",
                 id="scenario-json-round-length-0"),
    pytest.param(["scenario", "--scenario-json", "{round_huge}"],
                 f"round_length {10**400} holds more than {MAX_SENDS_PER_ROUND} gossip sends "
                 "of gossip_interval 50000", id="scenario-json-round-length-too-many-sends"),
    pytest.param(["scenario", "--scenario-json", "{levelkey}"],
                 "scenario.levels.low has unknown field 'bogus'",
                 id="scenario-json-unknown-level-key"),
    pytest.param(["scenario", "--scenario-json", "{no_headway}"],
                 "scenario.levels.low lacks field 'headway'",
                 id="scenario-json-level-entry-without-headway"),
    # Physics must be finite and > 0: NaN, an infinity, 0 or a negative value is named.
    pytest.param(["scenario", "--scenario-json", "{cruise_nan}"],
                 "'cruise_speed' must be finite and > 0, got nan",
                 id="scenario-json-cruise-speed-nan"),
    pytest.param(["scenario", "--scenario-json", "{cruise_inf}"],
                 "'cruise_speed' must be finite and > 0, got inf",
                 id="scenario-json-cruise-speed-inf"),
    pytest.param(["scenario", "--scenario-json", "{cruise_neg}"],
                 "'cruise_speed' must be finite and > 0, got -1.0",
                 id="scenario-json-cruise-speed-negative"),
    # An int too large for a float counts as infinite.
    pytest.param(["scenario", "--scenario-json", "{cruise_huge}"],
                 f"'cruise_speed' must be finite and > 0, got {10**400}",
                 id="scenario-json-cruise-speed-too-large-for-a-float"),
    pytest.param(["scenario", "--scenario-json", "{brake0}"],
                 "'brake_decel' must be finite and > 0, got 0.0", id="scenario-json-brake-decel-0"),
    pytest.param(["scenario", "--scenario-json", "{brake_inf}"],
                 "'brake_decel' must be finite and > 0, got inf",
                 id="scenario-json-brake-decel-inf"),
    pytest.param(["scenario", "--scenario-json", "{gap_neg}"],
                 "'gap_gain' must be finite and > 0, got -1.0",
                 id="scenario-json-gap-gain-negative"),
    pytest.param(["scenario", "--scenario-json", "{speed_nan}"],
                 "'speed_gain' must be finite and > 0, got nan", id="scenario-json-speed-gain-nan"),
    pytest.param(["scenario", "--scenario-json", "{speed0}"],
                 "'speed_gain' must be finite and > 0, got 0", id="scenario-json-speed-gain-0"),
    # A level, a level table and the horizon are named with the values allowed.
    pytest.param(["scenario", "--scenario-json", "{level3}"],
                 "scenario.initial_level must name one of low, medium, high, got 3",
                 id="scenario-json-initial-level-a-number"),
    pytest.param(["scenario", "--scenario-json", "{bogus}"],
                 "scenario.initial_level must name one of low, medium, high, got 'bogus'",
                 id="scenario-json-initial-level-bogus"),
    pytest.param(["scenario", "--scenario-json", "{nolow}"],
                 "'levels' must give each of low, medium, high, got medium, high",
                 id="scenario-json-levels-without-low"),
    pytest.param(["scenario", "--scenario-json", "{levelname}"],
                 "scenario.levels has unknown field 'ultra'",
                 id="scenario-json-levels-unknown-name"),
    pytest.param(["scenario", "--scenario-json", "{levelint}"],
                 "scenario.levels.medium must be a JSON object, got 3",
                 id="scenario-json-level-entry-a-number"),
    pytest.param(["scenario", "--scenario-json", "{levelsint}"],
                 "scenario.levels must be a JSON object, got 3",
                 id="scenario-json-levels-a-number"),
    pytest.param(["scenario", "--scenario-json", "{horizon0}"],
                 "'horizon_rounds' must be at least outage_rounds (10), got 0",
                 id="scenario-json-horizon-rounds-0"),
    # Level entries: headway and accel_bound finite and > 0, error bounds null or finite >= 0.
    pytest.param(["scenario", "--scenario-json", "{pos_x}"],
                 "'levels' low position_error must be null or finite and >= 0, got 'x'",
                 id="scenario-json-position-error-a-string"),
    pytest.param(["scenario", "--scenario-json", "{vel_neg}"],
                 "'levels' high velocity_error must be null or finite and >= 0, got -0.5",
                 id="scenario-json-velocity-error-negative"),
    pytest.param(["scenario", "--scenario-json", "{vel_nan}"],
                 "'levels' medium velocity_error must be null or finite and >= 0, got nan",
                 id="scenario-json-velocity-error-nan"),
    pytest.param(["scenario", "--scenario-json", "{headway0}"],
                 "'levels' low headway must be finite and > 0, got 0.0",
                 id="scenario-json-headway-0"),
    pytest.param(["scenario", "--scenario-json", "{headway_inf}"],
                 "'levels' low headway must be finite and > 0, got inf",
                 id="scenario-json-headway-inf"),
    pytest.param(["scenario", "--scenario-json", "{headway_huge}"],
                 f"'levels' low headway must be finite and > 0, got {10**400}",
                 id="scenario-json-headway-too-large-for-a-float"),
    pytest.param(["scenario", "--scenario-json", "{accel_str}"],
                 "'levels' high accel_bound must be finite and > 0, got '2'",
                 id="scenario-json-accel-bound-a-string"),
    pytest.param(["scenario", "--scenario-json", "{accel_neg}"],
                 "'levels' high accel_bound must be finite and > 0, got -2.0",
                 id="scenario-json-accel-bound-negative"),
])
def test_malformed_command_input_is_usage_error(tmp_path, capsys, argv, message):
    scenario = ScenarioSpec().to_json()
    levels = scenario["levels"]

    def level(name, **fields):
        entry = dict(levels[name], **fields)
        return json.dumps(dict(scenario, levels=dict(levels, **{name: entry})))

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
        "round_huge": json.dumps(dict(scenario, round_length=10**400)),
        "levelkey": json.dumps(dict(scenario, levels=dict(
            scenario["levels"], low=dict(scenario["levels"]["low"], bogus=1)))),
        "cruise_nan": json.dumps(dict(scenario, cruise_speed=float("nan"))),
        "cruise_inf": json.dumps(dict(scenario, cruise_speed=float("inf"))),
        "cruise_neg": json.dumps(dict(scenario, cruise_speed=-1.0)),
        "cruise_huge": json.dumps(dict(scenario, cruise_speed=10**400)),
        "brake0": json.dumps(dict(scenario, brake_decel=0.0)),
        "brake_inf": json.dumps(dict(scenario, brake_decel=float("inf"))),
        "gap_neg": json.dumps(dict(scenario, gap_gain=-1.0)),
        "speed_nan": json.dumps(dict(scenario, speed_gain=float("nan"))),
        "speed0": json.dumps(dict(scenario, speed_gain=0)),
        "level3": json.dumps(dict(scenario, initial_level=3)),
        "bogus": json.dumps(dict(scenario, initial_level="bogus")),
        "nolow": json.dumps(dict(scenario, levels={k: v for k, v in levels.items() if k != "low"})),
        "levelname": json.dumps(dict(scenario, levels=dict(levels, ultra=levels["low"]))),
        "levelint": json.dumps(dict(scenario, levels=dict(levels, medium=3))),
        "levelsint": json.dumps(dict(scenario, levels=3)),
        "horizon0": json.dumps(dict(scenario, horizon_rounds=0)),
        "pos_x": level("low", position_error="x"),
        "vel_neg": level("high", velocity_error=-0.5),
        "vel_nan": level("medium", velocity_error=float("nan")),
        "headway0": level("low", headway=0.0),
        "headway_inf": level("low", headway=float("inf")),
        "headway_huge": level("low", headway=10**400),
        "no_headway": json.dumps(dict(scenario, levels=dict(
            levels, low={k: v for k, v in levels["low"].items() if k != "headway"}))),
        "accel_str": level("high", accel_bound="2"),
        "accel_neg": level("high", accel_bound=-2.0),
        "round3": '[{"round": "3", "from": "*", "to": 1}]\n',
        "negative": '[{"round": 3}, {"round": -4, "from": 2, "to": "*"}]\n',
        "outside": '[{"round": 3, "to": 4}, {"round": 3, "from": 5}]\n',
        "digits": '[{"round": ' + "7" * 5_000 + '}]\n',
        "backwards": '[{"t": [2000000, 1000000], "from": "*", "to": 1}]\n',
        "before0": '[{"t": [-300, -1], "from": "*", "to": 1}]\n',
        "misspelled": '[{"round": 3, "recieer": 2}]\n',
        "both": '[{"round": 3, "t": [0, 100], "to": 2}]\n',
        "null": "null\n",
        "span3": '[{"t": [1, 2, 3]}]\n',
        "deep": "[" * 100_000 + "]" * 100_000,
        "latin1": '[{"to": "caf\xe9"}]\n'.encode("latin-1"),
        "fleet": json.dumps(dict(scenario, n=MAX_MEMBERS + 1)),
        "one": json.dumps(dict(scenario, n=1)),
        "outage1": json.dumps({"outage_rounds": 1}),
        "outage39": json.dumps({"outage_round": 39}),
        "outage_neg": json.dumps({"outage_round": -3}),
        "outage35": json.dumps({"outage_round": 35}),
        "long_brake": json.dumps({"outage_rounds": 30, "brake_after_rounds": 21}),
        "late_outage": json.dumps({"outage_round": 38, "outage_rounds": 3,
                                   "brake_after_rounds": 2}),
        "round50ms": json.dumps({"round_length": 50_000}),
        "round0ms": json.dumps({"round_length": 0}),
        "round_neg": json.dumps({"round_length": -5_000}),
        "long_horizon": json.dumps({"horizon_rounds": 100_000_000}),
        "headways": level("medium", headway=levels["low"]["headway"]),
        "accels": level("medium", accel_bound=levels["high"]["accel_bound"]),
    }
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, text in files.items():
        (paths[name].write_bytes if isinstance(text, bytes) else paths[name].write_text)(text)
    argv = [a.format(**paths) for a in argv]
    message = message.format(**paths)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not any(word in err for word in PYTHON_WORDING)
    assert not out.exists()  # rejected before any output directory is made


def test_replay_missing_file_is_usage_error():
    assert main(["replay", "/nonexistent/trace.jsonl"]) == 2


@pytest.mark.parametrize("argv,message", [
    pytest.param(["replay", "{dir}"], "Is a directory", id="replay-a-directory"),
    pytest.param(["verify", "--n", "2", "--rounds", "1", "--report-file", "{dir}"],
                 "Is a directory", id="verify-report-file-a-directory"),
    pytest.param(["run", "--duration-s", "1", "--out", "{traced}"],
                 "Is a directory", id="run-trace-file-a-directory"),
    pytest.param(["run", "--duration-s", "1", "--out", "{file}/x"], "Not a directory",
                 id="run-out-under-a-file"),
    pytest.param(["scenario", "--out", "{file}"], "File exists",
                 id="scenario-out-a-file"),
])
def test_unusable_path_is_usage_error(tmp_path, capsys, argv, message):
    plain = tmp_path / "plain"
    plain.write_text("")
    traced = tmp_path / "traced"  # an output directory whose trace.jsonl is a directory
    (traced / "trace.jsonl").mkdir(parents=True)
    argv = [a.format(dir=tmp_path, file=plain, traced=traced) for a in argv]
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
    pytest.param(["run", "--duration-s", "120", "--n", "8", "--out", "{traced}"],
                 "Is a directory", id="run-trace-file-a-directory"),
])
def test_unusable_out_fails_before_any_simulation(tmp_path, capsys, monkeypatch, argv, message):
    def no_simulation(*args, **kwargs):
        pytest.fail("simulated before checking the output paths")

    for name in ("record", "run_sweep", "run_worst_case", "run_baseline"):
        monkeypatch.setattr(cli, name, no_simulation)
    plain = tmp_path / "plain"
    plain.write_text("")
    traced = tmp_path / "traced"  # an output directory whose trace.jsonl is a directory
    (traced / "trace.jsonl").mkdir(parents=True)
    assert main([a.format(file=plain, traced=traced) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--n", "abc"], id="run-n-not-a-number"),
    pytest.param(["verify", "--trials", "x"], id="verify-trials-not-a-number"),
    pytest.param(["run", "--bogus", "1"], id="run-unknown-flag"),
    pytest.param([], id="no-command"),
    pytest.param(["sweep", "--n-list", "a"], id="sweep-n-list-not-integers"),
    pytest.param(["sweep", "--round-ms-list", "160,x"], id="sweep-round-ms-list-not-integers"),
    # A scenario is read from its file alone, and a run's trace is OUT/trace.jsonl.
    pytest.param(["scenario", "--outage-round", "3"], id="scenario-outage-round-is-no-flag"),
    pytest.param(["run", "--trace-file", "t.jsonl"], id="run-trace-file-is-no-flag"),
])
def test_bad_command_line_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "usage:" not in err and "_int_list" not in err
    assert not any(word in err for word in PYTHON_WORDING)


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


def test_run_holds_none_of_its_events(tmp_path):
    # The trace is written and the view fed as the events come: a 30 s run
    # at n = 8 (25k events) peaks near 0.5 MB, where holding its events took
    # 4 MB, a figure that grows with the run.
    tracemalloc.start()
    try:
        assert main(["run", "--n", "8", "--duration-s", "30", "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for the test, and restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv,code", [
    pytest.param(["verify", "--n", "2", "--rounds", "3"], 0, id="exit-0"),
    pytest.param(["verify", "--n", "2", "--rounds", "3", "--mutate", "drop-default-write"], 1,
                 id="exit-1"),
    pytest.param(["run", "--loss", "bernoulli:abc"], 2, id="exit-2"),
    pytest.param(["run", "--bogus"], 2, id="argparse-system-exit"),
])
def test_main_leaves_the_collector_as_it_found_it(collector, capsys, argv, code):
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        got = exc.code
    assert got == code
    assert gc.isenabled() is collector


def test_main_runs_commands_with_the_collector_paused(collector, monkeypatch):
    seen = []

    def broken(args):
        seen.append(gc.isenabled())
        raise RuntimeError("a command that fails")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    with pytest.raises(RuntimeError, match="a command that fails"):
        main(["verify"])
    assert seen == [False]
    assert gc.isenabled() is collector


@pytest.mark.parametrize("small,large", [
    pytest.param(["run", "--n", "3", "--duration-s", "4"],
                 ["run", "--n", "3", "--duration-s", "40"], id="run"),
    pytest.param(["scenario"], ["scenario", "--scenario-json", "{horizon400}"], id="scenario"),
    pytest.param(["sweep", "--n-list", "3", "--round-ms-list", "160", "--seeds", "1",
                  "--processes", "1", "--duration-s", "2"],
                 ["sweep", "--n-list", "3", "--round-ms-list", "160", "--seeds", "1",
                  "--processes", "1", "--duration-s", "20"], id="sweep"),
])
def test_cyclic_garbage_does_not_grow_with_a_command(tmp_path, capsys, small, large):
    """``main`` pauses the cyclic collector, so nothing may leave cycles per event or round."""
    horizon400 = tmp_path / "horizon400.json"
    horizon400.write_text(json.dumps(dict(ScenarioSpec().to_json(), horizon_rounds=400)))
    was = gc.isenabled()
    found = []
    try:
        for argv in (small, large):
            gc.collect()
            gc.disable()
            assert main([a.format(horizon400=horizon400) for a in argv]
                        + ["--out", str(tmp_path / "out")]) == 0
            found.append(gc.collect())
    finally:
        (gc.enable if was else gc.disable)()
    assert found[0] == found[1]
