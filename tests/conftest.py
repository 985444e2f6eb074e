import contextlib
import dataclasses

import pytest
from hypothesis import strategies as st

from lockstep import sim
from lockstep.analysis import round_view
from lockstep.platoon import LevelApp, ServiceLevel
from lockstep.protocol import ProtocolConfig, RoundOutput, VehicleProtocol
from lockstep.sim import (
    BernoulliLoss,
    CompositeLoss,
    DropRule,
    FixedDelay,
    OutputEvent,
    ScheduleLoss,
    SimConfig,
    Trace,
    sample_offsets,
    simulate,
)

MS = 1000  # microseconds per millisecond
HIGH = ServiceLevel.HIGH

# Python's own exception wording, which no usage error may carry.
PYTHON_WORDING = ("NoneType", "indices", "unpack", "__init__", "object is not", "Traceback",
                  "set_int_max_str_digits", "recursion depth", "could not convert")


def make_protocol_config(n=4, round_ms=160, sync_ms=5, delay_ms=100, gossip_ms=50):
    return ProtocolConfig(
        n=n,
        round_length=round_ms * MS,
        sync_bound=sync_ms * MS,
        maximum_delay=delay_ms * MS,
        gossip_interval=gossip_ms * MS,
    )


def make_sim_config(n=4, rounds=25, seed=1, loss=None, round_ms=160, offsets=None, **kw):
    protocol = make_protocol_config(n=n, round_ms=round_ms, **kw)
    if offsets is None:
        offsets = sample_offsets(seed, n, protocol.sync_bound)
    return SimConfig(
        protocol=protocol,
        offsets=tuple(offsets),
        loss=loss if loss is not None else BernoulliLoss(0.0),
        duration=protocol.round_length * rounds,
        seed=seed,
    )


PIN_RULES = [DropRule(round=3, receiver=2), DropRule(t0=5 * 160 * MS, t1=6 * 160 * MS, sender=1)]

# Level-app runs the benchmark never makes: tests/test_sim.py pins their
# trace bytes, and tests/test_journeys.py checks the journey model on them.
PINNED_LEVEL_CONFIGS = {
    # Every clock is past sync_bound, so each vehicle skips its first send.
    "offsets-past-sync-bound": make_sim_config(
        n=3, rounds=12, seed=21, offsets=(7 * MS, 9 * MS, 8 * MS), loss=BernoulliLoss(0.2)),
    # The first send falls on the round boundary: two ticks at one instant.
    "sync-0": make_sim_config(n=4, rounds=12, seed=22, sync_ms=0, loss=BernoulliLoss(0.2)),
    "schedule": make_sim_config(n=4, rounds=10, seed=23, loss=ScheduleLoss(PIN_RULES)),
    "composite": make_sim_config(n=4, rounds=10, seed=24,
                                 loss=CompositeLoss(0.3, ScheduleLoss(PIN_RULES))),
    "single-vehicle": make_sim_config(n=1, rounds=6, seed=25),
    # Shared clocks and a delay of one gossip interval: a copy sent at a
    # send instant lands on its receivers' next send instant, so deliveries
    # tie with ticks.
    "copies-on-tick-instants": dataclasses.replace(
        make_sim_config(n=4, rounds=10, seed=26, offsets=(0,) * 4, loss=BernoulliLoss(0.2)),
        delay=FixedDelay(50 * MS)),
    # The shortest delay: a copy lands 1 µs after its send.
    "delay-1us": dataclasses.replace(
        make_sim_config(n=4, rounds=10, seed=27, loss=BernoulliLoss(0.2)), delay=FixedDelay(1)),
}


def ack_mask(flags):
    """The ack mask of one bool per member, ``flags[k-1]`` for member k: bit k - 1.

    Tests state acks as bools and read masks back through ``ack_flags``.
    """
    return sum(1 << k for k, acked in enumerate(flags) if acked)


def ack_flags(mask, n):
    """An ack mask of ``n`` members as one bool per member: ``ack_mask``'s inverse."""
    return tuple(mask >> k & 1 == 1 for k in range(n))


def events_of(trace, kind):
    """The trace's events of one type (``SendEvent``, ``DropEvent``, ...), in order."""
    return [ev for ev in trace.events if isinstance(ev, kind)]


def trace_lines(trace):
    """The trace's lines without their newlines, each event encoded as its line
    is read: ``sim._blocks`` in blocks of one event. ``_BLOCK`` is one only
    while this pass takes a step, so passes that interleave with it keep theirs."""
    blocks = sim._blocks(trace.config, trace.app_spec, trace.events)
    while True:
        size, sim._BLOCK = sim._BLOCK, 1
        try:
            text, _ = next(blocks, ("", None))
        finally:
            sim._BLOCK = size
        if not text:
            return
        yield text[:-1]


def trace_view(trace):
    """The round view of a recorded trace."""
    return round_view(trace.config.protocol.n, trace.events)


def simulated_view(config, app):
    """The round view of a run, read as its events are made; no trace is kept."""
    return round_view(config.protocol.n, simulate(config, app))


@contextlib.contextmanager
def checked_receives(check):
    """Within the block, call ``check(inst, msg)`` before every gossip receive.

    Yields a one-item list that counts the receives checked.
    """
    receive = VehicleProtocol.on_gossip_receive
    received = [0]

    def checked_receive(inst, msg):
        check(inst, msg)
        received[0] += 1
        receive(inst, msg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VehicleProtocol, "on_gossip_receive", checked_receive)
        yield received


def in_own_round(inst, msg):
    assert msg.round == inst.my_round, (inst.vid, inst.my_round, msg)


def acked_copies_agree(inst, msg):
    """A slot acked by both the receiver and a message of its round holds one datum.

    This is what lets a receive skip the slots it has already acked.
    """
    if msg.round != inst.my_round:
        return
    for k, (mine, theirs) in enumerate(zip(inst.ack, ack_flags(msg.ack, len(msg.data)))):
        if mine and theirs:
            assert inst.data[k] == msg.data[k], (inst.vid, k + 1, inst.data[k], msg)


def drain_checked(config, app, check):
    """Run to the end, checking every receive; returns how many messages were received."""
    with checked_receives(check) as received:
        for _ in simulate(config, app):
            pass
    return received[0]


def synthetic_trace(decisions_by_round, stable_rounds=None, n=None):
    """Build an outputs-only trace from decision rows.

    ``decisions_by_round[t]`` is the decision vector entering round t+1; the
    matching ack snapshots are all-true for stable rounds and miss one slot
    on vehicle 1 otherwise.
    """
    n = n or len(decisions_by_round[0])
    rounds = len(decisions_by_round)
    stable = stable_rounds if stable_rounds is not None else [True] * rounds
    config = make_sim_config(n=n, rounds=rounds)
    round_length = config.protocol.round_length
    events = []
    for r in range(rounds):
        for vid in range(1, n + 1):
            acks = [True] * n
            if not stable[r] and vid == 1:
                acks[-1] = False
            s = tuple(HIGH for _ in range(n))
            out = RoundOutput(r + 1, s, ack_mask(acks), decisions_by_round[r][vid - 1])
            events.append(OutputEvent((r + 1) * round_length, vid, out))
    return Trace(config=config, app_spec={"kind": "level", "level": "high"}, events=events)


@st.composite
def adversaries(draw):
    """A short run under Bernoulli noise, per-link round drops, or both."""
    n = draw(st.integers(min_value=2, max_value=5))
    rounds = draw(st.integers(min_value=8, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.6]))
    rules = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        rnd = draw(st.integers(min_value=0, max_value=rounds - 1))
        sender = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=n)))
        receiver = draw(st.integers(min_value=1, max_value=n))
        rules.append(DropRule(round=rnd, sender=sender, receiver=receiver))
    loss = CompositeLoss(p, ScheduleLoss(rules)) if rules else BernoulliLoss(p)
    return make_sim_config(n=n, rounds=rounds, seed=seed, loss=loss)


@pytest.fixture
def high_app():
    return LevelApp(ServiceLevel.HIGH)
