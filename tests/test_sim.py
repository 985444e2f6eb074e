"""Tests for the discrete-event harness: timing, loss, traces, replay."""

import copy
import dataclasses
import gc
import hashlib
import heapq
import io
import itertools
import json
import pickle
import sys
import tracemalloc
import warnings
from collections import Counter
from typing import Iterable

import pytest

from lockstep import oracle, sim
from lockstep.cli import TABLE1_DROP_RATES, build_sim_config
from lockstep.platoon import (LevelApp, PlatoonApp, PlatoonDatum, ScenarioSpec, ServiceLevel,
                              run_worst_case)
from lockstep.protocol import (
    DEFAULT,
    ConfigError,
    GossipMessage,
    ProtocolConfig,
    RoundOutput,
    is_default,
)
from lockstep.sim import (
    BernoulliLoss,
    CompositeLoss,
    DeliverEvent,
    DropEvent,
    DropRule,
    FixedDelay,
    OutputEvent,
    ReplayMismatch,
    ScheduleLoss,
    SendEvent,
    SimConfig,
    Trace,
    UniformDelay,
    datum_to_json,
    load_schedule,
    replay,
    run,
    sample_offsets,
    simulate,
)

from conftest import (
    MS,
    PINNED_LEVEL_CONFIGS,
    ack_flags,
    ack_mask,
    acked_copies_agree,
    drain_checked,
    events_of,
    in_own_round,
    make_protocol_config,
    make_sim_config,
    trace_lines,
    trace_view,
)

HIGH = ServiceLevel.HIGH
RL = 160 * MS


def run_high(config):
    return run(config, LevelApp(HIGH))


# ---------------------------------------------------------------------------
# Clocks and configuration
# ---------------------------------------------------------------------------

def test_offsets_at_exact_sync_bound_accepted():
    config = make_sim_config(n=2, offsets=(0, 5 * MS))
    assert config.offsets[1] - config.offsets[0] == 5 * MS


def test_offsets_must_number_one_per_vehicle():
    # Built directly: the JSON reader checks the length of "offsets" first.
    with pytest.raises(ConfigError, match="expected 3 offsets, got 2"):
        make_sim_config(n=3, offsets=(0, 0))


def test_offsets_beyond_sync_bound_rejected():
    with pytest.raises(ConfigError):
        make_sim_config(n=2, offsets=(0, 6 * MS))


def test_offset_of_exactly_a_round_accepted():
    config = make_sim_config(n=2, offsets=(RL - 5 * MS, RL))
    assert max(config.offsets) == RL


def test_offset_past_a_round_rejected():
    """A clock more than a round ahead would put its round-1 boundary before
    global 0, where no tick runs, and its vehicle would skip a round."""
    with pytest.raises(ConfigError, match=f"offsets must be <= round_length {RL}, got {RL + 1}"):
        make_sim_config(n=2, offsets=(RL - 5 * MS, RL + 1))


def test_sampled_offsets_are_deterministic_and_bounded():
    a = sample_offsets(9, 8, 5 * MS)
    b = sample_offsets(9, 8, 5 * MS)
    assert a == b
    assert min(a) == 0
    assert max(a) - min(a) <= 5 * MS
    assert sample_offsets(10, 8, 5 * MS) != a


def test_duration_must_be_positive():
    with pytest.raises(ConfigError):
        make_sim_config(n=2, rounds=0)


# ---------------------------------------------------------------------------
# Tick instants against the schedule they replaced
# ---------------------------------------------------------------------------

def reference_tick_times(p: ProtocolConfig, horizon: int) -> Iterable[int]:
    """Local-clock tick instants: each round boundary, then the send cadence."""
    window_end_slack = p.sync_bound + p.maximum_delay
    for k in itertools.count():
        base = k * p.round_length
        if base > horizon:
            return
        if k > 0:
            yield base
        t = base + p.sync_bound
        end = base + p.round_length - window_end_slack
        while t <= end:
            if t > horizon:
                return
            yield t
            t += p.gossip_interval


TICK_CONFIGS = {
    # The default 50 ms window, sent at both ends.
    "default": ProtocolConfig(4, RL, 5 * MS, 100 * MS, 50 * MS),
    # The first send falls on the round boundary: two ticks at one instant.
    "sync-0": ProtocolConfig(4, RL, 0, 100 * MS, 50 * MS),
    # An interval of the whole window (90 ms) also sends at its two ends.
    "interval-is-window": ProtocolConfig(4, 200 * MS, 5 * MS, 100 * MS, 90 * MS),
    "interval-divides-window": ProtocolConfig(4, RL, 5 * MS, 100 * MS, 10 * MS),
    "interval-not-dividing-window": ProtocolConfig(4, RL, 5 * MS, 100 * MS, 30 * MS),
    "window-of-3us": ProtocolConfig(2, 2 * 5 * MS + 100 * MS + 3, 5 * MS, 100 * MS, 1),
}


@pytest.mark.parametrize("name", sorted(TICK_CONFIGS))
def test_tick_times_match_the_reference(name):
    p = TICK_CONFIGS[name]
    whole = 3 * p.round_length
    horizons = [
        0,
        max(p.sync_bound - 1, 0),  # below the first send
        p.sync_bound,
        whole,
        whole - 1,  # not a multiple of the round
        whole + p.sync_bound + p.gossip_interval // 2,  # inside a send window
        whole + p.round_length // 2,
    ]
    offsets = [
        0,
        p.sync_bound // 2,  # inside the sync window
        p.sync_bound,  # on the first send
        p.sync_bound + p.gossip_interval // 2 + 1,  # past the first send
        p.round_length + p.sync_bound,  # past a whole round
    ]
    for horizon, offset in itertools.product(horizons, offsets):
        want = [(local - offset, local) for local in reference_tick_times(p, horizon)
                if local >= offset]
        assert list(sim._tick_times(p, horizon, offset)) == want


# ---------------------------------------------------------------------------
# Transmission: loss and delay
# ---------------------------------------------------------------------------

def test_bernoulli_zero_never_drops():
    trace = run_high(make_sim_config(n=3, rounds=10, loss=BernoulliLoss(0.0)))
    assert not events_of(trace, DropEvent)
    assert len(events_of(trace, DeliverEvent)) == len(events_of(trace, SendEvent)) * 2


def test_bernoulli_one_always_drops():
    trace = run_high(make_sim_config(n=3, rounds=10, loss=BernoulliLoss(1.0)))
    assert not events_of(trace, DeliverEvent)
    assert len(events_of(trace, DropEvent)) == len(events_of(trace, SendEvent)) * 2
    assert all(ev.cause == "bernoulli" for ev in events_of(trace, DropEvent))


def test_delay_bound_holds_on_every_delivery():
    trace = run_high(make_sim_config(n=4, rounds=30, seed=3, loss=BernoulliLoss(0.2)))
    # The trace holds every message, so an id names one send.
    sent_at = {id(ev.msg): ev.t for ev in events_of(trace, SendEvent)}
    assert events_of(trace, DeliverEvent)
    for ev in events_of(trace, DeliverEvent):
        assert 0 < ev.t - sent_at[id(ev.msg)] <= 100 * MS


def test_deliveries_land_in_the_senders_round():
    """roundLength > 2*sync + delay makes the round guard never fire in spec."""
    cell = build_sim_config(8, 160, 5, 100, 50, BernoulliLoss(TABLE1_DROP_RATES[8]), 1, 60)
    assert drain_checked(cell, LevelApp(HIGH), in_own_round) > 0


def test_acked_copies_of_a_slot_agree():
    """A vehicle writes its own slot only at a round boundary, so a receive may keep its first copy."""
    cell = build_sim_config(8, 160, 5, 100, 50, BernoulliLoss(TABLE1_DROP_RATES[8]), 1, 60)
    assert drain_checked(cell, LevelApp(HIGH), acked_copies_agree) > 0


def test_transmission_conservation():
    trace = run_high(make_sim_config(n=5, rounds=20, seed=5, loss=BernoulliLoss(0.4)))
    transmissions = len(events_of(trace, DeliverEvent)) + len(events_of(trace, DropEvent))
    assert len(events_of(trace, SendEvent)) * 4 == transmissions


def test_sends_stay_inside_the_window():
    config = make_sim_config(n=4, rounds=12, seed=6, loss=BernoulliLoss(0.1))
    p = config.protocol
    for ev in events_of(run_high(config), SendEvent):
        local = ev.t + config.offsets[ev.msg.sender - 1]
        lo = p.round_length * ev.msg.round + p.sync_bound
        hi = p.round_length * (ev.msg.round + 1) - p.sync_bound - p.maximum_delay
        assert lo <= local <= hi
        assert ev.msg.round == local // p.round_length


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def test_failure_free_run_agrees_from_round_one():
    trace = run_high(make_sim_config(n=2, rounds=10))
    view = trace_view(trace)
    assert view.rounds == 10
    for t in range(1, view.rounds + 1):
        row = view.decisions[t - 1]
        assert all(d == HIGH for d in row)


def test_two_sends_per_vehicle_per_round_at_160ms():
    config = make_sim_config(n=4, rounds=10, seed=2)
    sends = events_of(run_high(config), SendEvent)
    per_round = Counter((ev.msg.sender, ev.msg.round) for ev in sends)
    for vid in range(1, 5):
        for rnd in range(10):
            assert per_round[(vid, rnd)] == 2


def single_effective_link_schedule():
    """Round-20 drop of exactly one effective link (3 -> 1) with relays defeated.

    Direct 3->1 copies are dropped all round; the second-window sends of the
    would-be relays (2->1, 4->1) are dropped by time. First-window sends
    cannot relay because nothing has arrived when they fire (zero offsets).
    """
    t0 = 20 * RL + 5 * MS + 1
    t1 = 21 * RL
    return ScheduleLoss([
        DropRule(round=20, sender=3, receiver=1),
        DropRule(t0=t0, t1=t1, sender=2, receiver=1),
        DropRule(t0=t0, t1=t1, sender=4, receiver=1),
    ])


def test_single_link_outage_recovers_in_two_rounds():
    config = make_sim_config(n=4, rounds=25, seed=7, offsets=(0, 0, 0, 0),
                             loss=single_effective_link_schedule())
    view = trace_view(run_high(config))
    d = view.decisions
    assert d[20 - 1] == (HIGH,) * 4
    assert is_default(d[21 - 1][0])
    assert d[21 - 1][1:] == (HIGH, HIGH, HIGH)
    assert all(is_default(x) for x in d[22 - 1])
    assert d[23 - 1] == (HIGH,) * 4


def test_single_link_outage_matches_oracle():
    """The timed run and the abstract model agree decision-for-decision."""
    config = make_sim_config(n=4, rounds=25, seed=8, offsets=(0, 0, 0, 0),
                             loss=single_effective_link_schedule())
    trace = run_high(config)
    view = trace_view(trace)
    # Link level: only vehicle 1's snapshot entering round 21 lacks slot 3.
    for ev in events_of(trace, OutputEvent):
        out = ev.output
        if (ev.vehicle, out.round) == (1, 21):
            assert out.r == ack_mask((True, True, False, True))
        else:
            assert all(ack_flags(out.r, 4))
    assert view.complete[20] == (False, True, True, True)
    expected = oracle.run_abstract(view.complete, LevelApp(HIGH).decide, (HIGH,) * 4)
    assert view.decisions == expected


def test_messages_are_well_formed():
    """Every gossiped view acks its sender and carries DEFAULT in unacked slots."""
    trace = run_high(make_sim_config(n=4, rounds=30, seed=20, loss=BernoulliLoss(0.3)))
    for ev in events_of(trace, SendEvent):
        msg = ev.msg
        ack = ack_flags(msg.ack, len(msg.data))
        assert ack[msg.sender - 1]
        for d, a in zip(msg.data, ack):
            assert a or is_default(d)


def test_output_law_on_lossy_run():
    """decision is DEFAULT exactly when the ack snapshot has a gap or decide(s) does."""
    trace = run_high(make_sim_config(n=4, rounds=40, seed=21, loss=BernoulliLoss(0.35)))
    from lockstep.platoon import min_level_decide

    for ev in events_of(trace, OutputEvent):
        out = ev.output
        complete = all(ack_flags(out.r, len(out.s)))
        expect_default = (not complete) or is_default(min_level_decide(out.s))
        assert is_default(out.decision) == expect_default


def test_stable_rounds_have_identical_snapshots():
    """If every vehicle ended round r complete, they all hold the same data vector."""
    trace = run_high(make_sim_config(n=4, rounds=40, seed=22, loss=BernoulliLoss(0.3)))
    view = trace_view(trace)
    snapshots: dict = {}
    for ev in events_of(trace, OutputEvent):
        snapshots.setdefault(ev.output.round - 1, []).append(ev.output)
    stable_rounds = [r for r, c in enumerate(view.complete) if all(c)]
    assert stable_rounds
    for r in stable_rounds:
        outs = snapshots[r]
        assert len(outs) == 4
        first = outs[0].s
        assert all(o.s == first for o in outs)


def test_repaired_first_send_keeps_round_stable():
    # Only 3's first-window copy toward 1 is lost; its retransmission lands.
    loss = ScheduleLoss([DropRule(t0=20 * RL, t1=20 * RL + 5 * MS, sender=3, receiver=1)])
    config = make_sim_config(n=4, rounds=25, seed=9, offsets=(0, 0, 0, 0), loss=loss)
    trace = run_high(config)
    assert events_of(trace, DropEvent)
    assert all(all(c) for c in trace_view(trace).complete)


def test_composite_loss_mixes_schedule_and_noise():
    loss = CompositeLoss(0.0, ScheduleLoss([DropRule(round=3, receiver=2)]))
    trace = run_high(make_sim_config(n=3, rounds=8, seed=10, loss=loss))
    causes = {ev.cause for ev in events_of(trace, DropEvent)}
    assert causes == {"schedule"}
    assert all(ev.msg.round == 3 and ev.receiver == 2 for ev in events_of(trace, DropEvent))


def test_fixed_delay_validated_against_maximum():
    with pytest.raises(ConfigError):
        SimConfig(
            protocol=make_protocol_config(n=2),
            offsets=(0, 0),
            loss=BernoulliLoss(0.0),
            duration=RL,
            seed=1,
            delay=FixedDelay(101 * MS),
        )


def test_config_json_round_trip():
    rules = [DropRule(round=3, receiver=2), DropRule(t0=100, t1=200, sender=1)]
    for loss, delay in [
        (BernoulliLoss(0.25), UniformDelay()),
        (ScheduleLoss(rules), UniformDelay()),  # built from a list
        (CompositeLoss(0.1, ScheduleLoss(rules)), UniformDelay()),
        (BernoulliLoss(0.0), FixedDelay(40 * MS)),
        (BernoulliLoss(0), UniformDelay()),  # an int p
        (CompositeLoss(1, ScheduleLoss(rules)), FixedDelay(40 * MS)),
    ]:
        config = SimConfig(protocol=make_protocol_config(n=3), offsets=(0, 1, 2), loss=loss,
                           duration=4 * RL, seed=5, delay=delay)
        back = SimConfig.from_json(config.to_json())
        assert back == config
        # 0 == 0.0, so compare the JSON too: a header must read back as written.
        assert json.dumps(back.to_json()) == json.dumps(config.to_json())


def test_replay_of_a_trace_with_an_int_drop_probability(tmp_path):
    for p in (0, 1):
        trace = run_high(make_sim_config(n=3, rounds=4, seed=19, loss=BernoulliLoss(p)))
        path = tmp_path / f"p{p}.jsonl"
        trace.write(path)
        assert f'"p":{p}}}' in path.read_text().splitlines()[0]
        assert replay(path) is None


def test_schedule_from_a_list_equals_one_from_a_tuple():
    rule = DropRule(round=3, receiver=2)
    assert ScheduleLoss([rule]) == ScheduleLoss((rule,))
    assert hash(ScheduleLoss([rule])) == hash(ScheduleLoss((rule,)))


# ---------------------------------------------------------------------------
# Schedule files
# ---------------------------------------------------------------------------

def test_schedule_file_round_trip(tmp_path):
    rules = [
        {"round": 20, "from": "*", "to": 1},
        {"t": [100, 200], "from": 2, "to": "*"},
    ]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(rules))
    loss = load_schedule(path)
    assert loss.rules[0] == DropRule(round=20, receiver=1)
    assert loss.rules[1] == DropRule(t0=100, t1=200, sender=2)
    assert loss.to_json()["rules"] == rules


def test_schedule_rule_requires_round_or_span():
    with pytest.raises(ConfigError):
        DropRule(sender=1, receiver=2)
    with pytest.raises(ConfigError):
        DropRule(round=1, t0=0, t1=5)


def test_schedule_rejects_unknown_vehicle():
    with pytest.raises(ConfigError):
        make_sim_config(n=2, loss=ScheduleLoss([DropRule(round=0, receiver=9)]))


def test_a_run_replays_its_own_drops_as_a_schedule_testing_few_rules_a_copy(monkeypatch):
    """One one-instant rule per drop, under ``composite:0``, reproduces a
    Bernoulli run: one draw per copy either way, so the same delays, drops and
    decisions. The schedule's index tests a copy against the rules at its send
    time alone, not against all of them."""
    config = make_sim_config(n=8, rounds=60, seed=31, loss=BernoulliLoss(0.17))
    bernoulli = run_high(config)
    drops = events_of(bernoulli, DropEvent)
    rules = [DropRule(t0=ev.t, t1=ev.t, sender=ev.msg.sender, receiver=ev.receiver)
             for ev in drops]
    transmissions = len(drops) + len(events_of(bernoulli, DeliverEvent))
    assert len(rules) > 500
    matches = DropRule.matches
    calls = Counter()

    def counted(rule, *args):
        calls["matches"] += 1
        return matches(rule, *args)

    monkeypatch.setattr(DropRule, "matches", counted)
    schedule = run_high(dataclasses.replace(config, loss=CompositeLoss(0, ScheduleLoss(rules))))
    # Scanning every rule would make about a thousand calls a copy.
    assert 0 < calls["matches"] <= 2 * transmissions
    assert schedule.events == [ev._replace(cause="schedule") if type(ev) is DropEvent else ev
                               for ev in bernoulli.events]


# ---------------------------------------------------------------------------
# Trace format, determinism, replay
# ---------------------------------------------------------------------------

def test_trace_event_fields_and_datum_encoding():
    trace = run_high(make_sim_config(n=2, rounds=3, seed=11, loss=BernoulliLoss(0.3)))
    lines = list(trace_lines(trace))
    header = json.loads(lines[0])
    assert header["format"] == "lockstep-trace"
    assert header["app"] == {"kind": "level", "level": "high"}
    seen = set()
    for line in lines[1:]:
        ev = json.loads(line)
        seen.add(ev["ev"])
        assert isinstance(ev["t"], int)
        if ev["ev"] == "send":
            assert set(ev) == {"t", "ev", "v", "round", "data", "ack"}
            assert all(d in (None, "high") for d in ev["data"])
        elif ev["ev"] in ("deliver", "drop"):
            assert "from" in ev and "to" in ev
        else:
            assert ev["ev"] == "output"
            assert "decision" in ev
    assert seen == {"send", "deliver", "drop", "output"}


def test_trace_timestamps_non_decreasing():
    trace = run_high(make_sim_config(n=3, rounds=10, seed=12, loss=BernoulliLoss(0.2)))
    times = [ev.t for ev in trace.events]
    assert times == sorted(times)


def test_identical_configs_produce_identical_traces():
    a = run_high(make_sim_config(n=4, rounds=15, seed=13, loss=BernoulliLoss(0.25)))
    b = run_high(make_sim_config(n=4, rounds=15, seed=13, loss=BernoulliLoss(0.25)))
    assert list(trace_lines(a)) == list(trace_lines(b))


def test_different_seed_changes_the_trace():
    a = run_high(make_sim_config(n=4, rounds=15, seed=13, loss=BernoulliLoss(0.25)))
    b = run_high(make_sim_config(n=4, rounds=15, seed=14, loss=BernoulliLoss(0.25)))
    assert list(trace_lines(a)) != list(trace_lines(b))


# Runs the benchmark never makes, each with the sha256 of its trace lines:
# the platoon scenario, whose world step shares instants with every round
# boundary, and the level-app runs of ``PINNED_LEVEL_CONFIGS``.
PINNED_TRACES = {
    "platoon-app-clock": "4ef2ba903547b1085e74505175bf596bd314bf14a217566966ce60bfaa9d940b",
    "offsets-past-sync-bound": "07ca0d14ab7182faa11bc9c7c4ab8a7035ae1345d24a25cec480cb2348cb93dc",
    "sync-0": "1ad47daf05e3afd336be599379ad2559f67b64939aa891346252ede5b35c89b0",
    "schedule": "0988c1f27cee2894f2c0ecbf4733d279aaa9bd7498b9d843a3ea7208a5fd371f",
    "composite": "7d71ef4b4cace61bfbfde322d8d300b7e472f25b0618dce67b7f76fcaf597ceb",
    "single-vehicle": "74592f850263bc4d041132158dbc82aabc145d7dbf7d893b95f0309530fd74cf",
    "copies-on-tick-instants": "33cb68a1b31b14b678e42893d3a068da933db6d8ab7bc69d272ae0817f76e0d0",
    "delay-1us": "d416ec87ad05ce482caaeef654a24cf7cef8fe036a196aef137445caba825986",
}


def pinned_trace(name):
    if name == "platoon-app-clock":
        return run_worst_case(ScenarioSpec()).trace
    return run_high(PINNED_LEVEL_CONFIGS[name])


def trace_sha256(trace) -> str:
    digest = hashlib.sha256()
    for line in trace_lines(trace):
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_trace_bytes_are_pinned(name):
    assert trace_sha256(pinned_trace(name)) == PINNED_TRACES[name]


@pytest.mark.parametrize("name", sorted(PINNED_LEVEL_CONFIGS))
def test_record_writes_each_block_before_its_events(name):
    """``record`` yields run's events, each once its line is written, and writes run's trace."""
    fh = io.StringIO()
    seen = []
    for ev in sim.record(PINNED_LEVEL_CONFIGS[name], LevelApp(HIGH), fh):
        seen.append(ev)
        written = fh.getvalue().count("\n")  # the header, then one line per event
        assert len(seen) < written <= len(seen) + sim._BLOCK
    assert hashlib.sha256(fh.getvalue().encode()).hexdigest() == PINNED_TRACES[name]
    assert seen == run_high(PINNED_LEVEL_CONFIGS[name]).events


@pytest.mark.parametrize("make", [
    lambda: (make_sim_config(n=4, rounds=10, seed=28, loss=BernoulliLoss(0.2)), LevelApp(HIGH)),
    lambda: (ScenarioSpec(horizon_rounds=12, outage_round=2).sim_config(),
             PlatoonApp(ScenarioSpec(horizon_rounds=12, outage_round=2))),
], ids=["level", "platoon-app-clock"])
def test_one_heap_step_per_tick(monkeypatch, make):
    """A tick is one replace (a pop where its clock ends); a delivered copy one push, one pop."""
    calls = Counter()

    def counted(name):
        fn = getattr(heapq, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("heappush", "heappop", "heapreplace"):
        monkeypatch.setattr(heapq, name, counted(name))
    config, app = make()
    p = config.protocol
    clocks = [[*app.app_tick_times()]]
    clocks += [[*sim._tick_times(p, config.duration, offset)] for offset in config.offsets]
    ticks = sum(map(len, clocks))
    started = sum(1 for clock in clocks if clock)
    delivered = sum(type(ev) is DeliverEvent for ev in simulate(config, app))
    assert delivered > 0 and ticks > started > 1
    assert calls == {"heappush": started + delivered, "heappop": delivered + started,
                     "heapreplace": ticks - started}


def test_replay_from_file(tmp_path):
    trace = run_high(make_sim_config(n=3, rounds=12, seed=15, loss=BernoulliLoss(0.2)))
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    assert replay(path) is None


def test_replay_detects_tampered_seed(tmp_path):
    trace = run_high(make_sim_config(n=3, rounds=12, seed=16, loss=BernoulliLoss(0.2)))
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["seed"] = 17
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert info.value.line_no > 1  # config parses; the first RNG-driven event diverges


def test_replay_detects_tampered_event(tmp_path):
    trace = run_high(make_sim_config(n=2, rounds=5, seed=18))
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    lines = path.read_text().splitlines()
    ev = json.loads(lines[3])
    ev["t"] += 1
    lines[3] = json.dumps(ev, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert info.value.line_no == 4


# ---------------------------------------------------------------------------
# Trace encoding against the encoder it replaced
# ---------------------------------------------------------------------------

def _reference_dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reference_event_to_json(ev) -> str:
    """The one-dict-per-line encoder that re-encoded every message copy."""
    def acks(m):
        return list(ack_flags(m.ack, len(m.data)))

    if isinstance(ev, SendEvent):
        m = ev.msg
        return _reference_dumps({"t": ev.t, "ev": "send", "v": m.sender, "round": m.round,
                                 "data": [datum_to_json(d) for d in m.data], "ack": acks(m)})
    if isinstance(ev, DeliverEvent):
        m = ev.msg
        return _reference_dumps({"t": ev.t, "ev": "deliver", "from": m.sender, "to": ev.receiver,
                                 "round": m.round, "data": [datum_to_json(d) for d in m.data],
                                 "ack": acks(m)})
    if isinstance(ev, DropEvent):
        m = ev.msg
        return _reference_dumps({"t": ev.t, "ev": "drop", "from": m.sender, "to": ev.receiver,
                                 "round": m.round, "data": [datum_to_json(d) for d in m.data],
                                 "ack": acks(m), "cause": ev.cause})
    out = ev.output
    return _reference_dumps({"t": ev.t, "ev": "output", "v": ev.vehicle, "round": out.round,
                             "data": [datum_to_json(d) for d in out.s],
                             "ack": list(ack_flags(out.r, len(out.s))),
                             "decision": datum_to_json(out.decision)})


def reference_lines(trace):
    return [next(trace_lines(trace))] + [reference_event_to_json(ev) for ev in trace.events]


def in_flight_after_each_event(trace):
    """How many sent messages still have copies to come, after each event line."""
    last_copy = {id(ev.msg): j for j, ev in enumerate(trace.events)
                 if isinstance(ev, (DeliverEvent, DropEvent))}
    delta = [0] * (len(trace.events) + 1)
    for i, ev in enumerate(trace.events):
        if isinstance(ev, SendEvent) and last_copy.get(id(ev.msg), i) > i:
            delta[i] += 1
            delta[last_copy[id(ev.msg)]] -= 1
    return list(itertools.accumulate(delta[:-1]))


def assert_encodes_like_reference(trace):
    """Byte-identical lines, with a cache that holds only the messages in flight."""
    lines = trace_lines(trace)
    assert next(lines) == next(trace_lines(trace))
    encoded, cached = [], []
    for _ in trace.events:
        encoded.append(next(lines))
        cached.append(len(sim._in_flight))
    assert encoded == reference_lines(trace)[1:]
    assert cached == in_flight_after_each_event(trace)
    assert next(lines, None) is None
    assert_nothing_cached()


def assert_nothing_cached():
    assert not sim._in_flight
    assert not sim._ack_json and not sim._data_json and not sim._decision_json


@pytest.mark.parametrize("n,seed,p", [
    (2, 1, 0.0), (3, 2, 0.2), (4, 3, 0.5), (5, 4, 1.0), (8, 5, 0.17),
])
def test_encoder_matches_reference_on_bernoulli_traces(n, seed, p):
    assert_encodes_like_reference(run_high(make_sim_config(n=n, rounds=12, seed=seed,
                                                           loss=BernoulliLoss(p))))


def test_encoder_matches_reference_on_schedule_and_composite_traces():
    rules = [DropRule(round=3, receiver=2), DropRule(t0=5 * RL, t1=6 * RL, sender=1)]
    for loss in (ScheduleLoss(rules), CompositeLoss(0.3, ScheduleLoss(rules))):
        trace = run_high(make_sim_config(n=4, rounds=10, seed=6, loss=loss))
        assert "schedule" in {ev.cause for ev in events_of(trace, DropEvent)}
        assert_encodes_like_reference(trace)


def test_encoder_matches_reference_with_a_single_vehicle():
    trace = run_high(make_sim_config(n=1, rounds=6, seed=7))
    assert events_of(trace, SendEvent)
    assert not events_of(trace, DeliverEvent) and not events_of(trace, DropEvent)
    assert_encodes_like_reference(trace)


def test_encoder_matches_reference_on_platoon_dict_payloads():
    trace = run_worst_case(ScenarioSpec(horizon_rounds=30)).trace
    assert any(isinstance(datum_to_json(d), dict)
               for ev in events_of(trace, SendEvent) for d in ev.msg.data)
    assert_encodes_like_reference(trace)


def hand_built_trace():
    """Copies out of step with their sends: the cache must miss, never mis-hit."""
    config = make_sim_config(n=3, rounds=2, seed=8)
    orphan = GossipMessage(2, 0, (DEFAULT, HIGH, DEFAULT), ack_mask((False, True, False)))
    m = GossipMessage(1, 0, (HIGH, DEFAULT, DEFAULT), ack_mask((True, False, False)))
    twin = GossipMessage(*m)  # equal to m, another object
    never_copied = GossipMessage(2, 1, (DEFAULT, HIGH, DEFAULT), ack_mask((False, True, False)))
    out = RoundOutput(1, (HIGH, DEFAULT, DEFAULT), ack_mask((True, False, False)), DEFAULT)
    events = [
        DeliverEvent(5, 1, orphan),  # no send line
        SendEvent(10, m),
        SendEvent(10, twin),
        DeliverEvent(20, 2, m),
        DropEvent(10, 3, twin, "schedule"),
        DropEvent(10, 3, m, "bernoulli"),
        DeliverEvent(30, 2, m),  # one copy more than n - 1
        DeliverEvent(25, 2, twin),
        SendEvent(60, never_copied),  # its copies never appear
        OutputEvent(160_000, 1, out),
    ]
    return Trace(config=config, app_spec={"kind": "level", "level": "high"}, events=events)


def test_encoder_matches_reference_on_a_hand_built_trace():
    trace = hand_built_trace()
    assert list(trace_lines(trace)) == reference_lines(trace)
    assert_nothing_cached()  # the send whose copies never came is forgotten at the end


def mixed_type_trace():
    """Equal data and decision vectors that encode apart: no two may share an
    encoding. PlatoonDatum(LOW, 0, 20) and PlatoonDatum(LOW, 0.0, 20.0) are
    equal and hash alike, but write 0 and 0.0. An ack is an int mask, so acks
    have no such pairs."""
    config = make_sim_config(n=2, rounds=2, seed=8)
    low = ServiceLevel.LOW
    ints, floats = PlatoonDatum(low, 0, 20), PlatoonDatum(low, 0.0, 20.0)
    mixed = PlatoonDatum(low, 0, 20.0)
    sends = [
        GossipMessage(1, 0, (ints, DEFAULT), 0b01),
        GossipMessage(2, 0, (floats, DEFAULT), 0b01),
        GossipMessage(1, 0, (mixed, DEFAULT), 0b01),
        GossipMessage(2, 0, (low, DEFAULT), 0b01),
        GossipMessage(1, 0, (ints, DEFAULT), 0b01),  # the first data again
        GossipMessage(2, 1, (DEFAULT, floats), 0b10),
        GossipMessage(1, 1, (DEFAULT, ints), 0b10),
    ]
    events = []
    for i, m in enumerate(sends):
        events.append(SendEvent(10 * i, m))
        # An equal copy of another object misses the in-flight cache and meets the memos.
        copy = m if i % 2 else GossipMessage(*m)
        events.append(DeliverEvent(10 * i + 5, 3 - m.sender, copy))
    for vid, s, r, decision in [
        (1, (ints, DEFAULT), 0b01, ints),
        (2, (floats, DEFAULT), 0b01, floats),
        (1, (low, floats), 0b11, low),
        (2, (floats, low), 0b11, mixed),
        (1, (ints, ints), 0b11, ints),
    ]:
        events.append(OutputEvent(RL, vid, RoundOutput(1, s, r, decision)))
    return Trace(config=config, app_spec={"kind": "level", "level": "high"}, events=events)


def test_encoder_keeps_equal_vectors_of_other_types_apart():
    trace = mixed_type_trace()
    assert list(trace_lines(trace)) == reference_lines(trace)
    assert_nothing_cached()


@pytest.mark.parametrize("make", [
    *[lambda level=level: (make_sim_config(n=3, rounds=10, seed=29, loss=BernoulliLoss(0.3)),
                           LevelApp(level)) for level in ServiceLevel],
    lambda: (ScenarioSpec().sim_config(), PlatoonApp(ScenarioSpec())),
], ids=[*(f"level-{level.to_json()}" for level in ServiceLevel), "platoon-scenario"])
def test_every_datum_keeps_the_datum_contract(make):
    """What the encoder's memos and ``datum_to_json`` rely on: each element of
    a sent data vector, an output's ``s`` and a decision is DEFAULT, or is
    hashable and has a ``to_json``."""
    config, app = make()
    kinds = Counter()
    for ev in simulate(config, app):
        if type(ev) is SendEvent:
            data = ev.msg.data
        elif type(ev) is OutputEvent:
            data = (*ev.output.s, ev.output.decision)
        else:
            continue
        for d in data:
            if not is_default(d):
                hash(d)
                json.dumps(d.to_json())
            kinds[type(d)] += 1
    assert kinds[type(DEFAULT)] and len(kinds) >= 2  # failed rounds, and data of the app


def test_vector_memos_stay_within_their_bound_on_the_platoon_scenario(monkeypatch):
    trace = run_worst_case(ScenarioSpec()).trace
    memos = (sim._ack_json, sim._data_json, sim._decision_json)
    # The platoon's data vectors change every round; a small bound shows them reach it.
    assert len({ev.msg.data for ev in events_of(trace, SendEvent)}) > 64
    for bound in (sim._MEMO_SIZE, 64):
        monkeypatch.setattr(sim, "_MEMO_SIZE", bound)
        lines, sizes = [], []
        for line in trace_lines(trace):
            lines.append(line)
            sizes.append(max(map(len, memos)))
        assert lines == reference_lines(trace)
        assert max(sizes) <= bound
        assert_nothing_cached()


def test_ack_memo_stays_within_its_bound_on_a_large_fleet(monkeypatch):
    # 32 members: masks wider than 30 bits. Under heavy loss they keep changing;
    # a small bound shows them reach it.
    trace = run_high(make_sim_config(n=32, rounds=2, seed=12, round_ms=260,
                                     loss=BernoulliLoss(0.9)))
    assert len({ev.msg.ack for ev in events_of(trace, SendEvent)}) > 64
    reference = reference_lines(trace)
    for bound in (sim._MEMO_SIZE, 64):
        monkeypatch.setattr(sim, "_MEMO_SIZE", bound)
        lines, sizes = [], []
        for line in trace_lines(trace):
            lines.append(line)
            sizes.append(len(sim._ack_json))
        assert lines == reference
        assert max(sizes) <= bound
        assert_nothing_cached()


@pytest.mark.parametrize("make", [
    hand_built_trace,
    mixed_type_trace,
    lambda: run_high(make_sim_config(n=3, rounds=6, seed=9, loss=BernoulliLoss(0.3))),
])
def test_interleaved_encodings_of_one_trace(make):
    trace = make()
    a, b = trace_lines(trace), trace_lines(trace)
    # a starts half a trace ahead of b, then they take turns.
    from_a, from_b = [next(a) for _ in range(len(trace.events) // 2)], []
    for x, y in itertools.zip_longest(b, a):
        from_b.append(x)
        if y is not None:
            from_a.append(y)
    assert from_a == from_b == reference_lines(trace)
    assert_nothing_cached()


def test_abandoned_encoding_leaves_nothing_cached():
    trace = run_high(make_sim_config(n=4, rounds=6, seed=10, loss=BernoulliLoss(0.2)))
    first_send = next(i for i, ev in enumerate(trace.events) if isinstance(ev, SendEvent))
    lines = trace_lines(trace)
    for _ in range(first_send + 2):  # the header, then up to that send line
        next(lines)
    assert sim._in_flight and sim._ack_json and sim._data_json
    lines.close()
    assert_nothing_cached()


def test_write_encodes_each_event_line_once_through_the_module_global(tmp_path, monkeypatch):
    # The benchmark's layer tracer times encoding by replacing
    # sim.event_to_json with a one-argument wrapper like this one.
    trace = run_high(make_sim_config(n=4, rounds=10, seed=11, loss=BernoulliLoss(0.2)))
    encode = sim.event_to_json
    seen = []

    def encode_call(ev):
        seen.append(ev)
        return encode(ev)

    monkeypatch.setattr(sim, "event_to_json", encode_call)
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    assert len(seen) == len(trace.events)
    assert all(a is b for a, b in zip(seen, trace.events))
    assert path.read_text() == "".join(line + "\n" for line in reference_lines(trace))
    # Replay encodes the events it re-simulates through the same global.
    seen.clear()
    replay(path)
    assert [reference_event_to_json(ev) for ev in seen] == reference_lines(trace)[1:]


# ---------------------------------------------------------------------------
# Streaming replay
# ---------------------------------------------------------------------------

def write_trace_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def test_replay_of_a_truncated_trace_reports_the_first_missing_line(tmp_path):
    trace = run_high(make_sim_config(n=3, rounds=6, seed=12, loss=BernoulliLoss(0.2)))
    lines = list(trace_lines(trace))
    path = tmp_path / "trace.jsonl"
    write_trace_lines(path, lines[:-3])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert info.value.line_no == len(lines) - 2
    assert info.value.expected == "<missing>"
    assert info.value.actual == lines[-3]


def test_replay_of_a_trace_with_an_extra_line_reports_it(tmp_path):
    trace = run_high(make_sim_config(n=3, rounds=6, seed=13, loss=BernoulliLoss(0.2)))
    lines = list(trace_lines(trace))
    path = tmp_path / "trace.jsonl"
    write_trace_lines(path, lines + [lines[-1]])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert info.value.line_no == len(lines) + 1
    assert info.value.expected == lines[-1]
    assert info.value.actual == "<missing>"


def test_replay_reports_a_line_that_is_not_text_as_a_mismatch(tmp_path):
    trace = run_high(make_sim_config(n=3, rounds=60, seed=15, loss=BernoulliLoss(0.2)))
    lines = list(trace_lines(trace))
    path = tmp_path / "trace.jsonl"
    bad = len(lines) - 5  # past the first read buffer
    data = "".join(line + "\n" for line in lines).encode()
    cut = data.index(lines[bad - 1].encode())
    path.write_bytes(data[:cut] + b"\xff" + data[cut + 1:])
    assert cut > 64 * 1024
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert info.value.line_no == bad
    assert info.value.expected == "\\xff" + lines[bad - 1][1:]


def test_replay_reports_a_byte_that_is_not_text_on_an_early_line_as_a_mismatch(tmp_path):
    # The header check decodes the header line alone, so a bad byte on line 3,
    # inside the file's first read buffer, is a divergence at line 3 too.
    trace = run_high(make_sim_config(n=3, rounds=6, seed=15, loss=BernoulliLoss(0.2)))
    lines = list(trace_lines(trace))
    data = "".join(line + "\n" for line in lines).encode()
    cut = data.index(lines[2].encode())
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data[:cut] + b"\xff" + data[cut + 1:])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert info.value.line_no == 3
    assert info.value.expected == "\\xff" + lines[2][1:]


def test_replay_holds_neither_the_run_nor_the_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        trace = run_high(make_sim_config(n=8, rounds=200, seed=16, loss=BernoulliLoss(0.17)))
        _, run_peak = tracemalloc.get_traced_memory()
        trace.write(path)
        del trace
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        replay(path)
        _, replay_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert replay_peak - before < run_peak / 10


def test_replay_leaves_no_file_open(tmp_path, monkeypatch):
    trace = run_high(make_sim_config(n=3, rounds=6, seed=14, loss=BernoulliLoss(0.2)))
    lines = list(trace_lines(trace))
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_trace_lines(good, lines)
    middle = len(lines) // 2
    write_trace_lines(bad, lines[:middle] + [lines[middle] + " "] + lines[middle + 1:])
    # A file finalised while open warns from its destructor, where the error
    # the filter makes of it goes to the unraisable hook.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        replay(good)
        with pytest.raises(ReplayMismatch):
            replay(bad)
        gc.collect()
    assert not unraisable
    assert_nothing_cached()


def test_replay_of_a_crlf_copy_diverges_at_line_one(tmp_path):
    trace = run_high(make_sim_config(n=3, rounds=6, seed=17, loss=BernoulliLoss(0.2)))
    lines = list(trace_lines(trace))
    path = tmp_path / "crlf.jsonl"
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert info.value.line_no == 1
    assert info.value.expected == lines[0] + "\r"  # the raw text
    assert info.value.actual == lines[0]
    assert not info.value.unterminated
    assert f"recorded: {lines[0]}\\r\n" in str(info.value)  # the "\r" shows


def test_replay_of_a_copy_without_its_final_newline_diverges_at_its_last_line(tmp_path):
    trace = run_high(make_sim_config(n=3, rounds=6, seed=18, loss=BernoulliLoss(0.2)))
    lines = list(trace_lines(trace))
    path = tmp_path / "nonl.jsonl"
    path.write_text("\n".join(lines))
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert info.value.line_no == len(lines)
    assert info.value.expected == info.value.actual == lines[-1]
    assert info.value.unterminated
    assert f"recorded: {lines[-1]} (no newline at end of file)\n" in str(info.value)


def test_replay_names_a_line_with_a_multibyte_character(tmp_path):
    # Replay compares bytes, and the two bytes of "é" shift every byte after
    # them; the walk decodes the recorded line, so the message shows the "é".
    trace = run_high(make_sim_config(n=3, rounds=6, seed=20, loss=BernoulliLoss(0.2)))
    lines = list(trace_lines(trace))
    bad = len(lines) // 2
    tampered = lines[bad - 1].replace('"ev"', '"\u00e9v"', 1)
    path = tmp_path / "trace.jsonl"
    path.write_bytes("".join(line + "\n" for line in
                             lines[:bad - 1] + [tampered] + lines[bad:]).encode())
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert (info.value.line_no, info.value.expected, info.value.actual) == (
        bad, tampered, lines[bad - 1])
    assert f"recorded: {tampered}\n" in str(info.value)
    assert_nothing_cached()


def test_replay_names_a_whole_line_with_a_carriage_return_inside(tmp_path):
    trace = run_high(make_sim_config(n=3, rounds=6, seed=19, loss=BernoulliLoss(0.2)))
    lines = list(trace_lines(trace))
    bad = len(lines) // 2
    tampered = lines[bad - 1].replace(",", ",\r", 1)  # a line ends at "\n" alone
    path = tmp_path / "trace.jsonl"
    write_trace_lines(path, lines[:bad - 1] + [tampered] + lines[bad:])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert (info.value.line_no, info.value.expected, info.value.actual) == (
        bad, tampered, lines[bad - 1])


# ---------------------------------------------------------------------------
# Replay at the edges of its blocks
# ---------------------------------------------------------------------------

def block_edge_trace(monkeypatch, event_lines):
    """A trace of exactly ``event_lines`` event lines, which replay re-simulates.

    ``sim.simulate`` is cut to that many events, for ``run`` and ``replay``
    alike, so a file can end anywhere relative to the block size.
    """
    simulate = sim.simulate
    monkeypatch.setattr(sim, "simulate",
                        lambda config, app: itertools.islice(simulate(config, app), event_lines))
    # About 21 events a round: over four blocks of lines.
    trace = run_high(make_sim_config(n=3, rounds=sim._BLOCK // 5, seed=21,
                                     loss=BernoulliLoss(0.2)))
    assert len(trace.events) == event_lines
    return trace


@pytest.mark.parametrize("blocks,offset", [
    (1, -2), (1, -1), (1, 0), (1, 1), (2, -1), (2, 0),
])
def test_replay_of_traces_ending_at_block_edges_is_identical(tmp_path, monkeypatch, blocks,
                                                             offset):
    trace = block_edge_trace(monkeypatch, blocks * sim._BLOCK + offset)
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    assert path.read_text() == "".join(line + "\n" for line in reference_lines(trace))
    assert replay(path) is None
    assert_nothing_cached()


def block_end(k):
    """The line that ends the k-th block of event lines; the header is a block of its own."""
    return 1 + k * sim._BLOCK


# The cases at _BLOCK, _BLOCK + 1 and 2 * _BLOCK name edges of a layout whose
# first block held the header and _BLOCK - 1 events; they stay as lines at the
# end or start of a block's last or first event, and the block_end cases are
# the edges of this one.
@pytest.mark.parametrize("line_no", [
    pytest.param(2, id="first-event-line"),
    pytest.param(block_end(1), id="last-line-of-the-first-event-block"),
    pytest.param(block_end(1) + 1, id="first-line-of-the-second-event-block"),
    pytest.param(block_end(2), id="last-line-of-the-second-event-block"),
    pytest.param(sim._BLOCK, id="last-line-of-the-first-block"),
    pytest.param(sim._BLOCK + 1, id="first-line-of-a-block"),
    pytest.param(2 * sim._BLOCK, id="last-line-of-a-block"),
    pytest.param(3 * sim._BLOCK + 3, id="inside-the-final-partial-block"),
    pytest.param(3 * sim._BLOCK + 5, id="last-line-of-the-final-partial-block"),
])
def test_replay_names_a_divergence_at_a_block_edge(tmp_path, monkeypatch, line_no):
    lines = list(trace_lines(block_edge_trace(monkeypatch, 3 * sim._BLOCK + 4)))
    assert len(lines) == 3 * sim._BLOCK + 5
    # The same length as the line it replaces, so the block's length matches too.
    tampered = lines[line_no - 1].replace('"ev"', '"EV"')
    assert len(tampered) == len(lines[line_no - 1]) and tampered != lines[line_no - 1]
    path = tmp_path / "trace.jsonl"
    write_trace_lines(path, lines[:line_no - 1] + [tampered] + lines[line_no:])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert (info.value.line_no, info.value.expected, info.value.actual) == (
        line_no, tampered, lines[line_no - 1])
    assert_nothing_cached()


def test_replay_of_a_file_cut_at_a_block_boundary_reports_the_missing_line(tmp_path,
                                                                           monkeypatch):
    lines = list(trace_lines(block_edge_trace(monkeypatch, 3 * sim._BLOCK)))
    path = tmp_path / "trace.jsonl"
    write_trace_lines(path, lines[:2 * sim._BLOCK])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert (info.value.line_no, info.value.expected, info.value.actual) == (
        2 * sim._BLOCK + 1, "<missing>", lines[2 * sim._BLOCK])


def test_replay_of_a_file_cut_after_whole_event_blocks_reports_the_missing_line(tmp_path,
                                                                               monkeypatch):
    lines = list(trace_lines(block_edge_trace(monkeypatch, 3 * sim._BLOCK)))
    path = tmp_path / "trace.jsonl"
    write_trace_lines(path, lines[:block_end(2)])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert (info.value.line_no, info.value.expected, info.value.actual) == (
        block_end(2) + 1, "<missing>", lines[block_end(2)])


def test_replay_reports_a_line_added_after_whole_event_blocks(tmp_path, monkeypatch):
    lines = list(trace_lines(block_edge_trace(monkeypatch, 2 * sim._BLOCK)))
    assert len(lines) == block_end(2)
    path = tmp_path / "trace.jsonl"
    write_trace_lines(path, lines + [lines[-1]])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert (info.value.line_no, info.value.expected, info.value.actual) == (
        block_end(2) + 1, lines[-1], "<missing>")


def test_replay_reports_a_line_added_after_whole_blocks(tmp_path, monkeypatch):
    lines = list(trace_lines(block_edge_trace(monkeypatch, 2 * sim._BLOCK - 1)))
    assert len(lines) == 2 * sim._BLOCK
    path = tmp_path / "trace.jsonl"
    write_trace_lines(path, lines + [lines[-1]])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    assert (info.value.line_no, info.value.expected, info.value.actual) == (
        2 * sim._BLOCK + 1, lines[-1], "<missing>")


def test_replay_reports_a_byte_that_is_not_text_in_a_later_block(tmp_path, monkeypatch):
    lines = list(trace_lines(block_edge_trace(monkeypatch, 3 * sim._BLOCK)))
    bad = 2 * sim._BLOCK + 7
    data = "".join(line + "\n" for line in lines).encode()
    cut = data.index(lines[bad - 1].encode()) + 5
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data[:cut] + b"\xff" + data[cut + 1:])
    with pytest.raises(ReplayMismatch) as info:
        replay(path)
    want = lines[bad - 1]
    assert (info.value.line_no, info.value.expected, info.value.actual) == (
        bad, want[:5] + "\\xff" + want[6:], want)


@pytest.mark.parametrize("edit", ["first-event-line-differs", "last-line-differs", "extra-line"])
def test_replay_mismatch_path_holds_neither_the_run_nor_the_file(tmp_path, edit):
    """The memory bound of the identical replay, on a divergence.

    A first line that differs is there so that a walk which takes the rest
    of the run (or of the file) at once fails the bound.
    """
    path = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        trace = run_high(make_sim_config(n=8, rounds=200, seed=16, loss=BernoulliLoss(0.17)))
        _, run_peak = tracemalloc.get_traced_memory()
        trace.write(path)
        last = len(trace.events) + 1
        del trace
        with open(path, "r+b") as fh:
            if edit == "first-event-line-differs":
                fh.readline()
                fh.write(b"[")  # in place of the line's "{"
            elif edit == "last-line-differs":
                fh.seek(-2, 2)
                fh.write(b"]")  # in place of the line's "}"
            else:
                fh.seek(0, 2)
                fh.write(b"{}\n")
        want = {"first-event-line-differs": 2, "last-line-differs": last, "extra-line": last + 1}
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        with pytest.raises(ReplayMismatch) as info:
            replay(path)
        _, replay_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.line_no == want[edit]
    assert replay_peak - before < run_peak / 10


HOT_PATH_TUPLES = (SendEvent, DeliverEvent, DropEvent, OutputEvent, GossipMessage, RoundOutput)


def test_hot_path_builds_events_without_python_calls():
    # A NamedTuple's constructor is a generated Python __new__; the simulator
    # and the protocol build the same tuples with tuple.__new__ instead, and
    # is_default is a C partial. Earlier builds made 384 constructor and 252
    # is_default calls on this run.
    p = make_protocol_config(n=3)
    config = SimConfig(protocol=p, offsets=sample_offsets(1, 3, p.sync_bound),
                       loss=BernoulliLoss(0.15), duration=2_000_000, seed=1)
    constructors = {kind.__new__.__code__ for kind in HOT_PATH_TUPLES}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls["constructor"] += code in constructors
            calls["is_default"] += code.co_name == "is_default"

    sys.setprofile(profile)
    try:
        events = list(simulate(config, LevelApp(HIGH)))
    finally:
        sys.setprofile(None)
    assert calls["constructor"] == 0 and calls["is_default"] == 0
    assert {type(ev) for ev in events} == {SendEvent, DeliverEvent, DropEvent, OutputEvent}
    for ev in events:
        # The same type and fields as the constructor, so `type(ev) is ...` dispatch holds.
        assert type(ev)(*ev) == ev
        inner, kind = (ev.output, RoundOutput) if type(ev) is OutputEvent else (ev.msg, GossipMessage)
        assert type(inner) is kind and kind(*inner) == inner


def test_is_default_compares_by_identity():
    class EqualsAnything:
        def __eq__(self, other):
            return True

        __hash__ = object.__hash__

    assert is_default(DEFAULT)
    assert is_default(pickle.loads(pickle.dumps(DEFAULT)))
    assert is_default(copy.deepcopy(DEFAULT))
    assert EqualsAnything() == DEFAULT
    assert not is_default(EqualsAnything())
    assert not is_default(None)
