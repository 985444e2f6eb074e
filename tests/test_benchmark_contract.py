"""The benchmark's layer tracer still fits the program it wraps.

``perfbench/tracer.py`` wraps the public functions of each layer from
outside, by name, and counts trace bytes in its ``event_to_json`` wrapper.
A rename or a call that bypasses a module global would leave a layer's time
unaccounted for or its counts wrong without failing anything else, so this
runs a small traced ``run``, ``replay`` and ``scenario``, and a traced
exhaustive and mutant ``verify``, the way the benchmark does: in a fresh
interpreter, through ``lockstep.cli.main``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs each command line of argv[3] (a JSON list) under one tracer.
TRACED_PASS = """
import json, sys, time
from pathlib import Path

root, out = Path(sys.argv[1]), sys.argv[2]
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from tracer import Tracer, install
import lockstep.cli

tracer = Tracer()
install(tracer)
main = tracer.span("cli.command", lockstep.cli.main)
t0 = time.perf_counter()
codes = [main([a.format(out=out) for a in argv]) for argv in json.loads(sys.argv[3])]
pass_s = time.perf_counter() - t0
print(json.dumps({"codes": codes, "layers": tracer.layer_metrics(pass_s)}))
"""


def traced_pass(out, *commands):
    # -B: importing the tracer must not leave byte-code in perfbench/.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_PASS, str(ROOT), str(out), json.dumps(commands)],
        capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_and_replay_are_fully_accounted_for(tmp_path):
    result = traced_pass(tmp_path,
                         ["run", "--n", "3", "--duration-s", "4", "--seed", "2", "--out", "{out}"],
                         ["replay", "{out}/trace.jsonl"],
                         ["scenario", "--out", "{out}/s"])
    layers = result["layers"]
    assert result["codes"] == [0, 0, 0]
    assert layers["trace.coverage_ratio"] >= 0.9

    header, *events = (tmp_path / "trace.jsonl").read_text().splitlines(keepends=True)
    header, *scenario = (tmp_path / "s" / "scenario_trace.jsonl").read_text().splitlines(
        keepends=True)
    # Every event line is encoded once by run's write and once by replay,
    # and each scenario line once by its write.
    assert layers["sim.trace_bytes"] == (2 * sum(len(line) for line in events)
                                         + sum(len(line) for line in scenario))
    # Events are counted from the trace that sim.run returns, and only the
    # scenario calls it: run streams its events, and replay returns none.
    assert layers["sim.events"] == len(scenario)
    assert layers["sim.run_s"] > 0 and layers["sim.replay_s"] > 0


def test_traced_verify_counts_every_sequence(tmp_path):
    result = traced_pass(tmp_path, ["verify", "--n", "3", "--rounds", "3"],
                         ["verify", "--n", "2", "--rounds", "3", "--mutate", "drop-default-write"])
    layers = result["layers"]
    assert result["codes"] == [0, 1]
    # 3x3 checks all 8^3 completeness-vector sequences and covers 2^18
    # matrix sequences; the mutant is caught at its sixth sequence, rank 6.
    assert layers["oracle.sequences"] == 512 + 6
    assert layers["oracle.patterns_checked"] == 262_144 + 6
    assert layers["trace.coverage_ratio"] >= 0.9
