"""Unit tests for the per-vehicle protocol state machine.

The gossip-receive guard is additionally checked against a literal
transliteration of its defining condition, over randomized inputs.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lockstep.protocol
from lockstep.protocol import (
    DEFAULT,
    MAX_SENDS_PER_ROUND,
    ConfigError,
    DecideContractError,
    GossipMessage,
    ProtocolConfig,
    RoundOutput,
    VehicleProtocol,
    checked_decide,
    is_default,
    send_window,
)
from lockstep.platoon import ServiceLevel, min_level_decide

from conftest import MS, ack_flags, ack_mask, make_protocol_config

HIGH = ServiceLevel.HIGH
MEDIUM = ServiceLevel.MEDIUM


def read_high():
    return HIGH


def in_send_window(config, round_index, local_clock):
    """True iff ``local_clock`` lies in the gossip window of ``round_index``."""
    lo, hi = send_window(config, round_index)
    return lo <= local_clock <= hi


# ---------------------------------------------------------------------------
# Construction and config validation
# ---------------------------------------------------------------------------

def test_init_state_shape():
    v = VehicleProtocol(make_protocol_config(n=2), 1, HIGH)
    assert v.my_round == 0
    assert v.mask == 0b01
    assert v.ack == (True, False)
    assert v.data == [HIGH, DEFAULT]
    assert v.last_send_time is None


def test_paper_timing_accepted_with_50ms_window():
    config = make_protocol_config(round_ms=160, sync_ms=5, delay_ms=100)
    assert config.send_window_length == 50 * MS
    assert config.sends_per_round() == 2


@pytest.mark.parametrize("round_ms,expected_sends", [(160, 2), (260, 4), (360, 6)])
def test_sends_per_round_scales_with_round_length(round_ms, expected_sends):
    assert make_protocol_config(round_ms=round_ms).sends_per_round() == expected_sends


def test_round_length_bound_is_strict():
    # 110 = 2*5 + 100 exactly: the window would be empty.
    with pytest.raises(ConfigError):
        make_protocol_config(round_ms=110, sync_ms=5, delay_ms=100)


def test_gossip_interval_must_fit_window():
    with pytest.raises(ConfigError):
        make_protocol_config(gossip_ms=51)
    with pytest.raises(ConfigError):
        ProtocolConfig(2, 160 * MS, 5 * MS, 100 * MS, 0)


def test_a_round_holds_at_most_max_sends_per_round():
    # sync_bound 0 and a 1 ms delay: the window is round_length - 1 ms.
    at_bound = ProtocolConfig(2, MS + (MAX_SENDS_PER_ROUND - 1) * MS, 0, MS, MS)
    assert at_bound.sends_per_round() == MAX_SENDS_PER_ROUND
    with pytest.raises(ConfigError, match="round_length .* gossip_interval"):
        ProtocolConfig(2, MS + MAX_SENDS_PER_ROUND * MS, 0, MS, MS)
    with pytest.raises(ConfigError, match="round_length .* gossip_interval"):
        make_protocol_config(round_ms=10**400)


def test_vehicle_id_range_checked():
    config = make_protocol_config(n=3)
    with pytest.raises(ConfigError):
        VehicleProtocol(config, 0, HIGH)
    with pytest.raises(ConfigError):
        VehicleProtocol(config, 4, HIGH)


def test_default_equality_axioms():
    assert DEFAULT == DEFAULT
    assert not DEFAULT == HIGH
    assert DEFAULT != HIGH
    assert is_default(DEFAULT) and not is_default(HIGH)


def test_default_copies_and_unpickles_to_itself():
    assert pickle.loads(pickle.dumps(DEFAULT)) is DEFAULT
    assert copy.copy(DEFAULT) is DEFAULT
    assert copy.deepcopy(DEFAULT) is DEFAULT


# ---------------------------------------------------------------------------
# Gossip receive
# ---------------------------------------------------------------------------

def make_vehicle(n=3, vid=1, datum=HIGH, round_ms=160):
    return VehicleProtocol(make_protocol_config(n=n, round_ms=round_ms), vid, datum)


def test_receive_ignores_other_rounds():
    v = make_vehicle(n=2)
    v.my_round = 5
    before = (list(v.data), v.mask)
    v.on_gossip_receive(GossipMessage(2, 4, (DEFAULT, MEDIUM), ack_mask((False, True))))
    v.on_gossip_receive(GossipMessage(2, 6, (DEFAULT, MEDIUM), ack_mask((False, True))))
    assert (v.data, v.mask) == before


def test_receive_takes_vouched_slots_but_never_own():
    # Sender 2 vouches for slot 1 (our own) and itself; slot 3 is unacked.
    v = make_vehicle(n=3, vid=1, datum=HIGH)
    msg = GossipMessage(2, 0, (MEDIUM, MEDIUM, DEFAULT), ack_mask((True, True, False)))
    v.on_gossip_receive(msg)
    assert v.data == [HIGH, MEDIUM, DEFAULT]
    assert v.ack == (True, True, False)


def test_receive_transitive_relay():
    # 3 relays 2's datum: both slots land even though 2 never reached us.
    v = make_vehicle(n=3, vid=1, datum=HIGH)
    msg = GossipMessage(3, 0, (DEFAULT, MEDIUM, HIGH), ack_mask((False, True, True)))
    v.on_gossip_receive(msg)
    assert v.ack == (True, True, True)
    assert v.data == [HIGH, MEDIUM, HIGH]


def reference_receive(n, vid, my_round, data, ack, msg):
    """Direct transliteration of the receive guard, kept independent on purpose."""
    data, ack = list(data), list(ack)
    msg_ack = ack_flags(msg.ack, n)
    if my_round == msg.round:
        for k in range(1, n + 1):
            if (msg_ack[k - 1] and vid != k) or (k == msg.sender):
                data[k - 1] = msg.data[k - 1]
                ack[k - 1] = True
    return data, ack


SMALL_FLEETS = st.integers(min_value=2, max_value=5)
# Fleets up to 64 members: masks wider than 30 bits are multi-digit ints.
FLEETS_UP_TO_64 = st.integers(min_value=2, max_value=8) | st.integers(min_value=9, max_value=64)


@st.composite
def receive_cases(draw, sizes=FLEETS_UP_TO_64):
    n = draw(sizes)
    vid = draw(st.integers(min_value=1, max_value=n))
    sender = draw(st.integers(min_value=1, max_value=n).filter(lambda s: s != vid))
    my_round = draw(st.integers(min_value=0, max_value=3))
    msg_round = draw(st.integers(min_value=0, max_value=3))
    datum = st.sampled_from([HIGH, MEDIUM, ServiceLevel.LOW])
    state_ack = [draw(st.booleans()) for _ in range(n)]
    state_ack[vid - 1] = True
    state_data = [draw(datum) if state_ack[k] else DEFAULT for k in range(n)]
    # The sender's own ack bit is drawn too: its slot is taken either way.
    msg_ack = [draw(st.booleans()) for _ in range(n)]
    msg_data = tuple(draw(datum) if msg_ack[k] or k == sender - 1 else DEFAULT
                     for k in range(n))
    msg = GossipMessage(sender, msg_round, msg_data, ack_mask(msg_ack))
    return n, vid, my_round, state_data, state_ack, msg


@st.composite
def reachable_receive_cases(draw):
    """States a run can reach: every copy of a slot in a round holds one datum.

    Vehicle k's datum for round r is ``round_data[r][k-1]``; a slot is
    DEFAULT until acked, and a message carries the data of its own round.
    """
    n = draw(FLEETS_UP_TO_64)
    vid = draw(st.integers(min_value=1, max_value=n))
    sender = draw(st.integers(min_value=1, max_value=n).filter(lambda s: s != vid))
    my_round = draw(st.integers(min_value=0, max_value=3))
    msg_round = draw(st.sampled_from([my_round, my_round, (my_round + 1) % 4]))
    datum = st.sampled_from([DEFAULT, HIGH, MEDIUM, ServiceLevel.LOW])
    round_data = [[draw(datum) for _ in range(n)] for _ in range(4)]
    state_ack = [draw(st.booleans()) for _ in range(n)]
    state_ack[vid - 1] = True
    state_data = [round_data[my_round][k] if state_ack[k] else DEFAULT for k in range(n)]
    msg_ack = [draw(st.booleans()) for _ in range(n)]
    msg_ack[sender - 1] = True
    msg_data = tuple(round_data[msg_round][k] if msg_ack[k] else DEFAULT for k in range(n))
    msg = GossipMessage(sender, msg_round, msg_data, ack_mask(msg_ack))
    return n, vid, my_round, state_data, state_ack, msg


def received(n, vid, my_round, data, ack, msg):
    v = make_vehicle(n=n, vid=vid, datum=data[vid - 1])
    v.my_round = my_round
    v.data = list(data)
    v.mask = ack_mask(ack)
    v.on_gossip_receive(msg)
    return v


@given(receive_cases())
def test_receive_matches_reference_interpreter(case):
    # Arbitrary states, including ones no run reaches: an acked slot whose
    # datum differs from the message's copy. Which copy an acked slot keeps
    # is left open there, so the data are compared on the unacked slots.
    n, vid, my_round, data, ack, msg = case
    v = received(n, vid, my_round, data, ack, msg)
    want_data, want_ack = reference_receive(n, vid, my_round, data, ack, msg)
    assert list(v.ack) == want_ack
    unacked = [k for k in range(n) if not ack[k]]
    assert [v.data[k] for k in unacked] == [want_data[k] for k in unacked]


@given(reachable_receive_cases())
def test_receive_matches_reference_on_reachable_states(case):
    n, vid, my_round, data, ack, msg = case
    v = received(n, vid, my_round, data, ack, msg)
    assert (v.data, list(v.ack)) == reference_receive(n, vid, my_round, data, ack, msg)


@given(receive_cases(SMALL_FLEETS))
def test_receive_invariants(case):
    """Own slots immutable, acks monotone, and stale rounds leave no trace."""
    n, vid, my_round, data, ack, msg = case
    v = make_vehicle(n=n, vid=vid, datum=data[vid - 1])
    v.my_round = my_round
    v.data = list(data)
    v.mask = ack_mask(ack)
    v.on_gossip_receive(msg)
    assert v.data[vid - 1] == data[vid - 1]
    assert v.ack[vid - 1] is True
    for before, after in zip(ack, v.ack):
        assert after or not before  # no true -> false
    if msg.round != my_round:
        assert v.data == list(data) and list(v.ack) == list(ack)


class ReferenceTicker:
    """A vehicle whose tick tests ``in_send_window`` and divides, on every tick.

    Kept independent on purpose, like ``reference_receive``, which takes its
    receives.
    """

    def __init__(self, config, vid, datum):
        self.config, self.vid, self.my_round = config, vid, 0
        self.data = [DEFAULT] * config.n
        self.ack = [False] * config.n
        self.data[vid - 1], self.ack[vid - 1] = datum, True
        self.last_send_time = None

    def on_gossip_receive(self, msg):
        self.data, self.ack = reference_receive(
            self.config.n, self.vid, self.my_round, self.data, self.ack, msg)

    def on_tick(self, local_clock, read_state, decide):
        config = self.config
        msg = None
        if in_send_window(config, self.my_round, local_clock) and (
                self.last_send_time is None
                or local_clock - self.last_send_time >= config.gossip_interval):
            msg = GossipMessage(self.vid, self.my_round, tuple(self.data), ack_mask(self.ack))
            self.last_send_time = local_clock
        output = None
        clock_round = local_clock // config.round_length
        if self.my_round < clock_round:
            s, r = tuple(self.data), tuple(self.ack)
            self.my_round = clock_round
            self.data = [DEFAULT] * config.n
            self.ack = [False] * config.n
            self.ack[self.vid - 1] = True
            self.last_send_time = None
            if all(r):
                self.data[self.vid - 1] = read_state()
                output = RoundOutput(clock_round, s, ack_mask(r), checked_decide(decide, s))
            else:
                output = RoundOutput(clock_round, s, ack_mask(r), DEFAULT)
        return msg, output


LEVELS = [HIGH, MEDIUM, ServiceLevel.LOW]


@st.composite
def tick_schedules(draw):
    """A config, a vehicle and non-decreasing clock readings, each with a datum
    to read and, from time to time, a receive before it.

    A reading sits in the round of the one before, the next, or one to three
    rounds later, on a boundary, a window edge, next to one or anywhere. A
    receive is ``(sender, ack, own_round)``: its message is built when it is
    delivered, with the data every copy of that round holds.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    sync = draw(st.integers(min_value=0, max_value=3))
    delay = draw(st.integers(min_value=1, max_value=3))
    window = draw(st.integers(min_value=1, max_value=6))
    config = ProtocolConfig(n, 2 * sync + delay + window, sync, delay,
                            draw(st.integers(min_value=1, max_value=window)))
    vid = draw(st.integers(min_value=1, max_value=n))
    rl = config.round_length
    clock, steps = 0, []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        start = (clock // rl + draw(st.integers(min_value=0, max_value=3))) * rl
        edges = [start, start + sync - 1, start + sync, start + sync + 1,
                 start + rl - sync - delay - 1, start + rl - sync - delay,
                 start + rl - sync - delay + 1, start + rl - 1]
        clock = max(clock, draw(st.sampled_from(edges) | st.integers(start, start + rl - 1)))
        receive = None
        if n > 1 and draw(st.booleans()):
            sender = draw(st.integers(min_value=1, max_value=n).filter(lambda k: k != vid))
            ack = [draw(st.booleans()) for _ in range(n)]
            ack[sender - 1] = True
            receive = (sender, tuple(ack), draw(st.booleans()))
        steps.append((clock, draw(st.sampled_from(LEVELS)), receive))
    return config, vid, steps


def round_datum(rnd, k):
    """Vehicle k's datum in round ``rnd``: what every copy of its slot holds."""
    return LEVELS[(rnd + k) % len(LEVELS)]


@settings(max_examples=300)
@given(tick_schedules())
def test_tick_matches_reference(case):
    """The window kept per round sends and outputs as testing it on every tick does."""
    config, vid, steps = case
    vehicle = VehicleProtocol(config, vid, HIGH)
    reference = ReferenceTicker(config, vid, HIGH)
    for clock, datum, receive in steps:
        if receive is not None:
            sender, ack, own_round = receive
            rnd = reference.my_round if own_round else reference.my_round + 1
            data = tuple(round_datum(rnd, k) if acked else DEFAULT for k, acked in enumerate(ack))
            msg = GossipMessage(sender, rnd, data, ack_mask(ack))
            vehicle.on_gossip_receive(msg)
            reference.on_gossip_receive(msg)
        got = vehicle.on_tick(clock, lambda: datum, min_level_decide)
        assert got == reference.on_tick(clock, lambda: datum, min_level_decide), clock
    assert ((vehicle.my_round, vehicle.data, list(vehicle.ack), vehicle.last_send_time)
            == (reference.my_round, reference.data, reference.ack, reference.last_send_time))


# ---------------------------------------------------------------------------
# Send window
# ---------------------------------------------------------------------------

def test_send_window_edges():
    config = make_protocol_config()
    assert not in_send_window(config, 0, 0)
    assert in_send_window(config, 0, 5 * MS)
    assert in_send_window(config, 0, 55 * MS)
    assert not in_send_window(config, 0, 55 * MS + 1)
    assert not in_send_window(config, 0, 56 * MS)


def test_send_window_brute_force_scan():
    config = make_protocol_config(round_ms=160)
    lo = 160 * MS + 5 * MS
    hi = 2 * 160 * MS - 105 * MS
    for t in range(160 * MS, 2 * 160 * MS + 1, 500):
        assert in_send_window(config, 1, t) == (lo <= t <= hi)


# ---------------------------------------------------------------------------
# Tick behavior
# ---------------------------------------------------------------------------

def test_tick_sends_inside_window_without_transition():
    v = make_vehicle(n=2)
    msg, output = v.on_tick(5 * MS, read_high, min_level_decide)
    assert output is None
    assert v.my_round == 0
    assert msg == GossipMessage(1, 0, (HIGH, DEFAULT), ack_mask((True, False)))


def test_tick_rate_limits_sends():
    v = make_vehicle(n=2)
    first, _ = v.on_tick(5 * MS, read_high, min_level_decide)
    again, _ = v.on_tick(30 * MS, read_high, min_level_decide)
    later, _ = v.on_tick(55 * MS, read_high, min_level_decide)
    assert [x is not None for x in (first, again, later)] == [True, False, True]


def test_boundary_with_all_acks_decides():
    v = make_vehicle(n=2, vid=1)
    v.on_gossip_receive(GossipMessage(2, 0, (DEFAULT, HIGH), ack_mask((False, True))))
    msg, output = v.on_tick(160 * MS, read_high, min_level_decide)
    assert msg is None
    assert output is not None
    assert output.round == 1
    assert output.s == (HIGH, HIGH)
    assert output.r == ack_mask((True, True))
    assert output.decision == HIGH
    assert v.my_round == 1


def test_boundary_with_missing_ack_falls_back_and_gossips_default():
    v = make_vehicle(n=2, vid=1)
    _, output = v.on_tick(160 * MS, read_high, min_level_decide)
    assert output.r == ack_mask((True, False))
    assert is_default(output.decision)
    assert is_default(v.data[0])
    msg, _ = v.on_tick(165 * MS, read_high, min_level_decide)
    assert msg.round == 1
    assert is_default(msg.data[0])  # the fallback is what gets gossiped


def test_transition_processed_once_per_round():
    v = make_vehicle(n=2)
    _, first = v.on_tick(160 * MS, read_high, min_level_decide)
    _, second = v.on_tick(161 * MS, read_high, min_level_decide)
    assert first is not None and second is None


def test_tick_determinism():
    """The same tick/receive schedule yields identical states and outputs."""
    def drive():
        v = make_vehicle(n=2, vid=1)
        log = []
        for t in (5 * MS, 55 * MS, 160 * MS, 165 * MS, 320 * MS):
            if t == 55 * MS:
                v.on_gossip_receive(GossipMessage(2, 0, (DEFAULT, MEDIUM), ack_mask((False, True))))
            log.append(copy.deepcopy(v.on_tick(t, read_high, min_level_decide)))
        return log, v.data, v.ack, v.my_round

    assert drive() == drive()


# ---------------------------------------------------------------------------
# Decide contract
# ---------------------------------------------------------------------------

def test_decide_absorbs_default():
    assert is_default(min_level_decide((DEFAULT, HIGH, HIGH)))
    assert min_level_decide((HIGH, HIGH)) == HIGH
    assert min_level_decide((HIGH, MEDIUM, HIGH)) == MEDIUM


def test_checked_decide_reports_contract_violation():
    def bad_decide(s):
        return HIGH

    with pytest.raises(DecideContractError):
        checked_decide(bad_decide, (DEFAULT, HIGH))
    # Fine on default-free input.
    assert checked_decide(bad_decide, (HIGH, MEDIUM)) == HIGH


def test_contract_enforced_at_round_boundary():
    v = make_vehicle(n=2, vid=1)
    v.on_gossip_receive(GossipMessage(2, 0, (DEFAULT, DEFAULT), ack_mask((False, True))))
    with pytest.raises(DecideContractError):
        v.on_tick(160 * MS, read_high, lambda s: HIGH)


@pytest.mark.parametrize("module,loaded", [
    ("lockstep.protocol", ["lockstep", "lockstep.protocol"]),
    ("lockstep.sim", ["lockstep", "lockstep.protocol", "lockstep.sim"]),
])
def test_a_module_loads_only_the_modules_it_imports(module, loaded):
    """A vehicle runs the protocol alone: importing it loads no simulator,
    checker, verifier or platoon physics."""
    src = Path(lockstep.protocol.__file__).resolve().parent.parent
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'lockstep'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    assert out.stdout == f"{loaded}\n"
