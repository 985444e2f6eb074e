"""The failure contract, fuzzed over the JSON the program takes in.

Each example starts from a valid input and changes one node of it: it
deletes a key or an item, adds an unknown key, or puts in a value of another
type, a huge int, a NaN or a nested value. The result goes through
``cli.main`` in process, as a trace header to ``replay``, a scenario file to
``scenario --scenario-json`` or a schedule file to ``run --loss schedule:F``.
The command must return 0, 1 or 2 and raise nothing; on 2 it prints exactly
one stderr line, in the program's words rather than Python's; and an
unknown key is always a 2, since a key the program ignores would run
another input than the one written. (Miller, Fredriksen & So, "An empirical
study of the reliability of UNIX utilities", CACM 1990.)
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from lockstep.cli import main
from lockstep.platoon import PlatoonApp, ScenarioSpec

from conftest import PYTHON_WORDING

# A 3-member trace header with a composite loss of two rules and a fixed
# delay, so that every kind of object a header holds is there to change.
# A header is written as replay writes it, compact with sorted keys, so a
# mutant that replay accepts matches line 1 and reaches the simulator.
# Replay stops at the first block that differs, and the file holds the
# header alone, so no mutation costs more than one block of events.
HEADER = {
    "format": "lockstep-trace",
    "version": 1,
    "config": {
        "n": 3, "round_length": 160_000, "sync_bound": 5_000, "maximum_delay": 100_000,
        "gossip_interval": 50_000, "offsets": [0, 2_359, 71], "duration": 640_000, "seed": 5,
        "loss": {"kind": "composite", "p": 0.1, "rules": [
            {"from": "*", "to": 2, "round": 3},
            {"from": 1, "to": "*", "t": [160_000, 320_000]},
        ]},
        "delay": {"kind": "fixed", "delay": 40_000},
    },
    "app": {"kind": "level", "level": "high"},
}

# The default scenario's header: its config and its platoon app spec.
PLATOON_HEADER = {"format": "lockstep-trace", "version": 1,
                  "config": ScenarioSpec().sim_config().to_json(),
                  "app": PlatoonApp(ScenarioSpec()).spec()}

# Acceptance criterion 5's schedule: round 20 lost to members 1 and 2.
SCHEDULE = [{"round": 20, "from": "*", "to": 1}, {"round": 20, "from": "*", "to": 2}]

SCENARIO = ScenarioSpec().to_json()

# Values put in for a node: one of each JSON type, a huge int, a NaN and a
# nest, and 2, which keeps a count valid.
VALUES = [None, True, 0, -1, 1.5, 2, "x", [], {}, [1, 2, 3], 10**400, float("nan"),
          {"kind": [None, {"round": []}]}]


def _nodes(doc, path=()):
    """The path of every node of ``doc``, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(child, path + (key,))


@st.composite
def mutants(draw, doc):
    """``doc`` with one node changed, and whether the change added an unknown key."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_nodes(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    ops = ["replace"] + (["delete"] if path else []) + (["add"] if isinstance(node, dict) else [])
    op = draw(st.sampled_from(ops))
    if op == "add":
        node["bogus"] = draw(st.sampled_from(VALUES))
    elif op == "delete":
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = draw(st.sampled_from(VALUES))
    else:
        doc = draw(st.sampled_from(VALUES))
    return doc, op == "add"


def _check(argv, added_key):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not any(word in err for word in PYTHON_WORDING), err
    if added_key:
        assert code == 2, f"an unknown key was read as input: exit {code}, {err!r}"


def _write(directory, name, text):
    path = Path(directory) / name
    path.write_text(text)
    return str(path)


@settings(max_examples=250, deadline=None)
@given(st.one_of(mutants(HEADER), mutants(PLATOON_HEADER)))
def test_a_changed_trace_header_is_replayed_or_refused(mutant):
    header, added_key = mutant
    text = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        _check(["replay", _write(tmp, "trace.jsonl", text)], added_key)


@settings(max_examples=100, deadline=None)
@given(mutants(SCENARIO))
def test_a_changed_scenario_runs_or_is_refused(mutant):
    scenario, added_key = mutant
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "scenario.json", json.dumps(scenario))
        _check(["scenario", "--scenario-json", path, "--out", str(Path(tmp) / "out")], added_key)


@settings(max_examples=100, deadline=None)
@given(mutants(SCHEDULE))
def test_a_changed_schedule_runs_or_is_refused(mutant):
    schedule, added_key = mutant
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "schedule.json", json.dumps(schedule))
        _check(["run", "--n", "4", "--duration-s", "4", "--loss", f"schedule:{path}",
                "--out", str(Path(tmp) / "out")], added_key)
