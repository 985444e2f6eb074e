"""Tests for service levels, the platoon controller, and the outage scenario."""

import json
from dataclasses import replace

import pytest

from lockstep import platoon
from lockstep.cli import write_csv
from lockstep.platoon import (
    LevelParams,
    PlatoonApp,
    PlatoonDatum,
    ScenarioSpec,
    ServiceLevel,
    World,
    control_accel,
    effective_level,
    kinematics_rows,
    min_level_decide,
    platoon_decide,
    run_baseline,
    run_worst_case,
    scenario_facts,
    step_world,
)
from lockstep.protocol import DEFAULT, checked_decide, is_default
from lockstep.sim import replay

from conftest import acked_copies_agree, checked_receives, trace_view

HIGH, MEDIUM, LOW = ServiceLevel.HIGH, ServiceLevel.MEDIUM, ServiceLevel.LOW


def datum(level, x, v=20.0):
    return PlatoonDatum(level, x, v)


# ---------------------------------------------------------------------------
# Levels and decisions
# ---------------------------------------------------------------------------

def test_level_order_and_min():
    assert HIGH > MEDIUM > LOW
    assert min([HIGH, MEDIUM, HIGH]) == MEDIUM
    assert min([HIGH, HIGH]) == HIGH


def test_platoon_decide_examples():
    s = (datum(HIGH, 20), datum(HIGH, 10), datum(HIGH, 0))
    assert platoon_decide(s) == HIGH
    s = (datum(HIGH, 20), datum(MEDIUM, 10), datum(HIGH, 0))
    assert platoon_decide(s) == MEDIUM
    assert is_default(checked_decide(platoon_decide, (datum(HIGH, 20), DEFAULT, datum(HIGH, 0))))


def test_min_level_decide_absorbs_default():
    assert is_default(checked_decide(min_level_decide, (DEFAULT, HIGH)))
    assert checked_decide(min_level_decide, (MEDIUM, HIGH)) == MEDIUM


def test_default_table_orderings():
    low, medium, high = ScenarioSpec().levels
    assert high.headway < medium.headway < low.headway
    assert high.accel_bound < medium.accel_bound < low.accel_bound


def test_bad_table_rejected():
    low, medium, _ = ScenarioSpec().levels
    with pytest.raises(ValueError):
        ScenarioSpec(levels=(low, medium, low))


def test_effective_level_maps_default_to_low():
    assert effective_level(DEFAULT) == LOW
    assert effective_level(MEDIUM) == MEDIUM


# ---------------------------------------------------------------------------
# Read state
# ---------------------------------------------------------------------------

def test_read_state_snapshots_world():
    app = PlatoonApp(ScenarioSpec())
    d = app.read_state(1)
    assert d == PlatoonDatum(MEDIUM, 0.0, 20.0)
    d3 = app.read_state(3)
    assert d3.x == -20.0 and d3.v == 20.0


def test_read_state_reflects_scenario_level_and_stopped_vehicle():
    app = PlatoonApp(ScenarioSpec(initial_level=HIGH))
    assert app.read_state(2).los == HIGH
    app.world.body(2).v = 0.0
    assert app.read_state(2).v == 0.0


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------

def make_world(gap, level=MEDIUM, v_pred=20.0, v_self=20.0):
    world = World(ScenarioSpec(n=2))
    world.body(1).x, world.body(1).v = 0.0, v_pred
    world.body(2).x, world.body(2).v = -gap, v_self
    return world


def test_follower_at_target_gap_is_at_equilibrium():
    world = make_world(gap=10.0)
    s = (datum(MEDIUM, 0.0), datum(MEDIUM, -10.0))
    assert control_accel(world, 2, s, MEDIUM) == pytest.approx(0.0)


def test_default_decision_opens_toward_widest_headway():
    world = make_world(gap=10.0)
    a = control_accel(world, 2, (), DEFAULT)
    assert a < 0
    assert abs(a) <= world.scenario.levels[LOW - 1].accel_bound


def test_leader_accelerates_toward_cruise_within_level_bound():
    world = make_world(gap=10.0)
    world.body(1).v = 15.0
    a = control_accel(world, 1, (), HIGH)
    assert 0 < a <= world.scenario.levels[HIGH - 1].accel_bound


def test_cooperative_control_uses_shared_snapshot():
    # Shared data says the gap is perfect even though the world disagrees;
    # a cooperating follower trusts the snapshot.
    world = make_world(gap=8.0)
    s = (datum(MEDIUM, 0.0), datum(MEDIUM, -10.0))
    assert control_accel(world, 2, s, MEDIUM) == pytest.approx(0.0)
    # At LOW the on-board (world) gap drives the command instead.
    assert control_accel(world, 2, s, DEFAULT) < 0


def test_accel_clipped_to_level_bound():
    world = make_world(gap=100.0)  # huge positive gap error
    for level in (HIGH, MEDIUM, LOW):
        a = control_accel(world, 2, (), level)
        assert abs(a) <= world.scenario.levels[level - 1].accel_bound


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------

def test_step_uniform_motion():
    world = make_world(gap=10.0)
    step_world(world, 260_000)
    assert world.body(1).x == pytest.approx(20.0 * 0.26)
    assert world.body(1).v == pytest.approx(20.0)


def test_step_braking_arithmetic():
    world = make_world(gap=10.0)
    world.body(1).accel = -5.0
    step_world(world, 260_000)
    assert world.body(1).v == pytest.approx(20.0 - 0.26 * 5.0)


def test_step_velocity_floor_at_zero():
    world = make_world(gap=10.0, v_pred=0.5)
    world.body(1).accel = -5.0
    step_world(world, 260_000)
    assert world.body(1).v == 0.0


def test_closing_rate_tracks_relative_velocity():
    world = make_world(gap=10.0, v_pred=18.0, v_self=20.0)
    g0 = world.gap_behind_predecessor(2)
    step_world(world, 260_000)
    assert world.gap_behind_predecessor(2) == pytest.approx(g0 - 2.0 * 0.26)
    assert world.min_gap <= g0


# ---------------------------------------------------------------------------
# Worst-case scenario
# ---------------------------------------------------------------------------

def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(brake_after_rounds=1)
    with pytest.raises(ValueError):
        ScenarioSpec(outage_rounds=1, brake_after_rounds=2)
    with pytest.raises(ValueError):
        ScenarioSpec(brake_after_rounds=12, outage_rounds=10)
    # The outage must end by the horizon (30 + 10 = 40 is the last legal start).
    assert ScenarioSpec(outage_round=30).outage_end == 40 * ScenarioSpec().round_length
    for bad in (dict(outage_round=31), dict(outage_round=-1), dict(horizon_rounds=25),
                dict(round_length=50_000)):
        with pytest.raises(ValueError):
            ScenarioSpec(**bad)
    # The physics must be finite and > 0.
    for name in ("cruise_speed", "brake_decel", "gap_gain", "speed_gain"):
        for value in (float("nan"), float("inf"), -1.0, 0.0, 0):
            with pytest.raises(ValueError, match=f"'{name}' must be finite and > 0"):
                ScenarioSpec(**{name: value})


def test_level_error_bounds_may_be_zero_or_absent():
    low, medium, high = ScenarioSpec().levels
    high = replace(high, position_error=0, velocity_error=0.0)
    low = replace(low, position_error=None)
    assert ScenarioSpec(levels=(low, medium, high)).levels == (low, medium, high)
    low = replace(low, headway=True)  # a bool is not a number
    with pytest.raises(ValueError, match="'levels' low headway must be finite and > 0, got True"):
        ScenarioSpec(levels=(low, medium, high))


def test_scenario_json_round_trip():
    spec = ScenarioSpec(round_length=360_000, outage_round=15)
    assert ScenarioSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


def test_level_entry_may_omit_its_error_bounds():
    spec = ScenarioSpec().to_json()
    spec["levels"]["low"] = {"headway": 20.0, "accel_bound": 5.0}
    assert ScenarioSpec.from_json(spec) == ScenarioSpec()


def test_scenario_with_custom_level_table_replays(tmp_path):
    _, medium, high = ScenarioSpec().levels
    low = LevelParams(headway=30.0, accel_bound=6.0, position_error=None, velocity_error=None)
    spec = ScenarioSpec(horizon_rounds=30, levels=(low, medium, high))
    assert spec.levels[LOW - 1].headway == 30.0
    res = run_worst_case(spec)
    path = tmp_path / "custom.jsonl"
    res.trace.write(path)
    replay(path)  # the app spec must carry the table, or positions diverge


def test_worst_case_fallback_timeline():
    spec = ScenarioSpec()
    res = run_worst_case(spec)
    u = spec.outage_round
    # The deaf vehicle falls back one round after the outage starts; the rest
    # follow one round later, and nobody disagrees for two rounds running.
    assert res.levels[u][2] == MEDIUM
    assert res.levels[u + 1][2] == LOW
    assert res.levels[u + 1][1] == MEDIUM and res.levels[u + 1][3] == MEDIUM
    assert all(lv == LOW for lv in res.levels[u + 2].values())


def test_worst_case_gaps_open_before_brake_and_stay_positive():
    spec = ScenarioSpec()
    res = run_worst_case(spec)
    brake_round = spec.outage_round + spec.brake_after_rounds
    initial_gap = ScenarioSpec().levels[spec.initial_level - 1].headway
    assert res.gap_at(brake_round, 2) > initial_gap
    assert res.gap_at(brake_round, 3) > initial_gap
    assert res.min_gap > 0
    assert res.gap_at(brake_round, 1) is None  # the leader has no gap
    assert res.gap_at(spec.horizon_rounds + 1, 2) is None  # no such round
    assert res.gap_at(brake_round, spec.n + 1) is None  # no such vehicle


def test_worst_case_recovers_after_outage():
    spec = ScenarioSpec()
    res = run_worst_case(spec)
    end = spec.outage_round + spec.outage_rounds
    assert all(lv == MEDIUM for lv in res.levels[end + 2].values())


def test_acked_copies_agree_in_the_outage_scenario():
    # Kinematic payloads change every round, so a copy from the wrong
    # moment would differ from the one the receiver holds.
    with checked_receives(acked_copies_agree) as received:
        run_worst_case(ScenarioSpec())
    assert received[0] > 0


def test_accel_commands_respect_effective_level_bounds(monkeypatch):
    # Record each output's command where the app makes it, one per row.
    commands = []

    def recorded_accel(world, vid, s, decision):
        a = control_accel(world, vid, s, decision)
        commands.append((effective_level(decision), a))
        return a

    monkeypatch.setattr(platoon, "control_accel", recorded_accel)
    res = run_worst_case(ScenarioSpec())
    levels = ScenarioSpec().levels
    assert [level for level, _ in commands] == [row.level for row in res.rows]
    for level, a in commands:
        assert abs(a) <= levels[level - 1].accel_bound + 1e-9


def test_agreed_rounds_use_uniform_parameters():
    """Whenever decisions agree, every vehicle applies the same level envelope."""
    spec = ScenarioSpec()
    res = run_worst_case(spec)
    view = trace_view(res.trace)
    for t in range(1, view.rounds + 1):
        row = view.decisions[t - 1]
        if all(d == row[0] for d in row):
            levels = set(res.levels[t].values())
            assert len(levels) == 1


def test_baseline_tail_vehicle_keeps_platooning():
    spec = ScenarioSpec()
    res = run_baseline(spec)
    outage = range(spec.outage_round, spec.outage_round + spec.outage_rounds)
    assert all(res.levels[r][3] == MEDIUM for r in outage)
    # The deaf vehicle itself notices its predecessor is gone and backs off.
    assert res.levels[spec.outage_round][2] == LOW


def test_scenario_facts_read_the_baseline_over_the_outage_rounds():
    # The baseline's deaf vehicle drops to LOW on exactly the outage rounds
    # u .. u+outage_rounds-1 and is restored right after; the facts read the
    # tail over those rounds only.
    spec = ScenarioSpec()
    base = run_baseline(spec)
    end = spec.outage_round + spec.outage_rounds
    assert base.levels[spec.outage_round - 1][2] == MEDIUM
    assert [base.levels[r][2] for r in range(spec.outage_round, end)] == [LOW] * spec.outage_rounds
    assert base.levels[end][2] == MEDIUM
    protocol_res = run_worst_case(spec)

    def tail_low_at(rounds):
        rows = [replace(row, level=LOW) if row.vehicle == 3 and row.round in rounds else row
                for row in base.rows]
        return scenario_facts(spec, protocol_res, replace(base, rows=rows))

    facts = tail_low_at({spec.outage_round - 1, end})
    assert facts["baseline_tail_vehicle_level"] == ["medium"] * spec.outage_rounds
    assert facts["baseline_tail_stays_initial"]
    assert not tail_low_at({end - 1})["baseline_tail_stays_initial"]


def test_scenario_facts_read_the_last_vehicle_that_is_not_cut():
    # A cut tail drives LOW in the baseline by design, so the facts read the
    # vehicle ahead of it, which keeps platooning.
    spec = ScenarioSpec(cut_vehicle=3, outage_round=12)
    base = run_baseline(spec)
    outage = range(spec.outage_round, spec.outage_round + spec.outage_rounds)
    assert all(base.levels[r][3] == LOW and base.levels[r][2] == MEDIUM for r in outage)
    facts = scenario_facts(spec, run_worst_case(spec), base)
    assert facts["baseline_tail_vehicle_level"] == ["medium"] * spec.outage_rounds
    assert all(facts[name] for name in platoon.SCENARIO_CHECKS)


def test_scenario_trace_replays(tmp_path):
    res = run_worst_case(ScenarioSpec(horizon_rounds=30))
    path = tmp_path / "scenario.jsonl"
    res.trace.write(path)
    replay(path)


def test_kinematics_csv_format(tmp_path):
    res = run_worst_case(ScenarioSpec(horizon_rounds=30))
    path = tmp_path / "kin.csv"
    write_csv(path, kinematics_rows(res.rows))
    lines = path.read_text().splitlines()
    assert lines[0] == "round,vehicle,x,v,gap,level"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1" and first[4] == "" and first[5] == "medium"
