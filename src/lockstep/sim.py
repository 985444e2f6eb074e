"""Deterministic discrete-event simulator for the round protocol.

A run drives n protocol instances over a virtual global clock. Every tick
comes from a clock, an iterator of ``(global, local)`` instants: clock 0 is
the app's (``app.app_tick_times()``), and clock i is vehicle i's, which reads
the global clock plus a fixed offset (``_tick_times``). Gossip broadcasts fan
out into independent point-to-point transmissions, each delivered after a
sampled delay in (0, maximum_delay] or dropped by the loss model.
``simulate`` is the one event loop: it yields every send, delivery, drop,
and round output as it happens, a sequence that is a pure function of the
configuration. ``_blocks`` encodes them in one pass, ``_BLOCK`` events to a
string: ``record`` writes each block and then yields its events, and
``replay`` compares its bytes with the file's, so no side is held beyond one
block and any trace replays byte for byte; ``run``, for the scenario, keeps all.
Events hold each fact once: ``SendEvent(t, msg)``, ``DeliverEvent(t, receiver,
msg)``, ``DropEvent(t, receiver, msg, cause)`` and ``OutputEvent(t, vehicle,
output)``. The sender is ``msg.sender``, and a drop's ``t`` is its send time.

Event order is total: by time, then deliveries before ticks, then receiver
or clock (so the app's tick comes before vehicle 1's), then insertion order.
Per transmission the RNG is consumed in a fixed order (delay first, then the
loss decision), one transmission per receiver in ascending id, sends by
(time, vehicle). Two functions read the draws in that order, each applying
the law inline that the models' methods write out, as ``_copy_law`` reads
it once per run from their fields. ``simulate`` runs the protocol on them;
``round_journeys`` takes each round's completeness and transmission counts
from them without running the protocol. ``tests/test_journeys.py`` holds
the two equal, and both to the models' methods.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import operator
import random
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .protocol import (ConfigError, Datum, GossipMessage, ProtocolConfig, RoundOutput,
                       VehicleProtocol, is_default, read_json, read_kind, read_list, read_object,
                       require_int)

TRACE_FORMAT = "lockstep-trace"
TRACE_VERSION = 1


# Control characters as escapes, so that a message shows a stray "\r".
_VISIBLE = {c: repr(chr(c))[1:-1] for c in (*range(32), 127)}


class ReplayMismatch(Exception):
    """Replay diverged from the recorded trace.

    ``expected`` and ``actual`` are the recorded and replayed lines without
    their newline, or ``"<missing>"`` where a side has no such line; a
    recorded last line that lacks its newline is ``unterminated``.
    """

    def __init__(self, line_no: int, expected: str, actual: str,
                 unterminated: bool = False) -> None:
        note = " (no newline at end of file)" if unterminated else ""
        super().__init__(
            f"replay diverged at line {line_no}:\n"
            f"  recorded: {expected.translate(_VISIBLE)}{note}\n"
            f"  replayed: {actual.translate(_VISIBLE)}"
        )
        self.line_no = line_no
        self.expected = expected
        self.actual = actual
        self.unterminated = unterminated


# ---------------------------------------------------------------------------
# Loss and delay models
# ---------------------------------------------------------------------------

_RULE_KEYS = frozenset(("round", "t", "from", "to"))
_INT_OR_NONE = frozenset((int, type(None)))


@dataclass(frozen=True)
class DropRule:
    """One adversarial drop directive; None fields are wildcards.

    Matches a transmission either by the message's round number or by its
    send time falling inside [t0, t1] (inclusive, microseconds).
    """

    round: Optional[int] = None
    t0: Optional[int] = None
    t1: Optional[int] = None
    sender: Optional[int] = None
    receiver: Optional[int] = None

    def __post_init__(self) -> None:
        values = (self.round, self.t0, self.t1, self.sender, self.receiver)
        # One set test per rule; require_int words the error, and takes an int subclass.
        if not _INT_OR_NONE.issuperset(map(type, values)):
            for name, value in zip(("round", "t0", "t1", "sender", "receiver"), values):
                if value is not None:
                    require_int(f"drop rule {name}", value)
        has_round = self.round is not None
        has_span = self.t0 is not None and self.t1 is not None
        if has_round == has_span:
            raise ConfigError("drop rule needs exactly one of: round, [t0, t1]")
        if has_round and self.round < 0:
            raise ConfigError(f"drop rule round must be >= 0, got {self.round}")
        if has_span and (self.t0 > self.t1 or self.t1 < 0):
            raise ConfigError(f"drop rule span [{self.t0}, {self.t1}] matches no send time")

    def matches(self, msg_round: int, sender: int, receiver: int, send_time: int) -> bool:
        if self.sender is not None and self.sender != sender:
            return False
        if self.receiver is not None and self.receiver != receiver:
            return False
        if self.round is not None:
            return self.round == msg_round
        return self.t0 <= send_time <= self.t1

    def to_json(self) -> dict:
        out: dict = {
            "from": "*" if self.sender is None else self.sender,
            "to": "*" if self.receiver is None else self.receiver,
        }
        if self.round is not None:
            out["round"] = self.round
        else:
            out["t"] = [self.t0, self.t1]
        return out

    @staticmethod
    def from_json(d: dict, where: str) -> "DropRule":
        """Read a rule; a misspelled key would otherwise widen it to a wildcard.
        Every error names the rule's path, ``where``. The keys, the span's
        shape and then the fields are each checked once, with no call for a
        rule that passes; ``read_object`` and ``read_list`` word a failure."""
        if type(d) is not dict or not d.keys() <= _RULE_KEYS:
            read_object(where, d, optional=_RULE_KEYS)
        t0 = t1 = None
        if "t" in d:
            t = d["t"]
            if type(t) is not list or len(t) != 2:
                read_list(f"{where}.t", t, 2)
            t0, t1 = t
        sender, receiver = d.get("from"), d.get("to")
        try:
            return DropRule(d.get("round"), t0, t1, None if sender == "*" else sender,
                            None if receiver == "*" else receiver)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class BernoulliLoss:
    """Independent drop with probability p per transmission. One RNG draw each."""

    p: float

    def validate(self, n: int) -> None:
        if isinstance(self.p, bool) or not isinstance(self.p, (int, float)):
            raise ConfigError(f"drop probability must be a number, got {self.p!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"drop probability must be in [0,1], got {self.p}")

    def decide(self, rng, msg_round, sender, receiver, send_time):
        return "bernoulli" if rng.random() < self.p else None

    def to_json(self) -> dict:
        return {"kind": "bernoulli", "p": self.p}


@dataclass(frozen=True)
class ScheduleLoss:
    """Drops exactly the transmissions matched by a rule list. No RNG draws.
    A copy meets only its round's rules, the one-instant rules (t0 = t1) at its
    send time and the longer spans, from an index built once that is no field."""

    rules: tuple[DropRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))  # a list is accepted too
        by_round, at_time, spans = {}, {}, []
        for rule in self.rules:
            if rule.round is not None:
                by_round.setdefault(rule.round, []).append(rule)
            elif rule.t0 == rule.t1:
                at_time.setdefault(rule.t0, []).append(rule)
            else:
                spans.append(rule)
        object.__setattr__(self, "_index", (by_round, at_time, tuple(spans)))

    def validate(self, n: int) -> None:
        for i, rule in enumerate(self.rules):
            for ref in (rule.sender, rule.receiver):
                if ref is not None and not 1 <= ref <= n:
                    raise ConfigError(f"drop rule at index {i} references vehicle {ref}, "
                                      f"valid ids are 1..{n}")

    def decide(self, rng, msg_round, sender, receiver, send_time):
        by_round, at_time, spans = self._index
        for rules in (by_round.get(msg_round, ()), at_time.get(send_time, ()), spans):
            for rule in rules:
                if rule.matches(msg_round, sender, receiver, send_time):
                    return "schedule"
        return None

    def to_json(self) -> dict:
        return {"kind": "schedule", "rules": [r.to_json() for r in self.rules]}


@dataclass(frozen=True)
class CompositeLoss:
    """Schedule drops on top of Bernoulli noise. Exactly one RNG draw per transmission."""

    p: float
    schedule: ScheduleLoss

    def validate(self, n: int) -> None:
        BernoulliLoss(self.p).validate(n)
        self.schedule.validate(n)

    def decide(self, rng, msg_round, sender, receiver, send_time):
        u = rng.random()  # drawn unconditionally to keep the stream aligned
        if self.schedule.decide(rng, msg_round, sender, receiver, send_time):
            return "schedule"
        return "bernoulli" if u < self.p else None

    def to_json(self) -> dict:
        return {"kind": "composite", "p": self.p, "rules": [r.to_json() for r in self.schedule.rules]}


def schedule_from_json(rules: list, where: str) -> ScheduleLoss:
    return ScheduleLoss([DropRule.from_json(r, f"{where}[{i}]")
                         for i, r in enumerate(read_list(where, rules))])


def loss_from_json(d: dict, where: str) -> LossModel:
    kind = read_kind(where, d, {"bernoulli": ("p",), "schedule": ("rules",),
                                "composite": ("p", "rules")})
    if kind == "bernoulli":
        return BernoulliLoss(d["p"])
    schedule = schedule_from_json(d["rules"], f"{where}.rules")
    return schedule if kind == "schedule" else CompositeLoss(d["p"], schedule)


def load_schedule(path: Union[str, Path]) -> ScheduleLoss:
    """Load an adversarial schedule file: a JSON array of drop directives."""
    with open(path, "rb") as fh:
        return schedule_from_json(read_json(f"cannot read schedule {path}", fh.read), "schedule")


@dataclass(frozen=True)
class UniformDelay:
    """Uniform integer latency in [1, maximum_delay] microseconds. One RNG draw."""

    def validate(self, maximum_delay: int) -> None:
        pass

    def sample(self, rng, maximum_delay):
        return 1 + int(rng.random() * maximum_delay)

    def to_json(self) -> dict:
        return {"kind": "uniform"}


@dataclass(frozen=True)
class FixedDelay:
    """Constant latency; handy for fully deterministic schedules. No RNG draws."""

    delay: int

    def validate(self, maximum_delay: int) -> None:
        require_int("fixed delay", self.delay)
        if not 0 < self.delay <= maximum_delay:
            raise ConfigError(f"fixed delay must be in (0, {maximum_delay}], got {self.delay}")

    def sample(self, rng, maximum_delay):
        return self.delay

    def to_json(self) -> dict:
        return {"kind": "fixed", "delay": self.delay}


# A loss model's ``decide(rng, msg_round, sender, receiver, send_time)`` gives a
# drop cause, or None to deliver; a delay model's ``sample(rng, maximum_delay)``
# a copy's latency in µs. Each states its RNG draws and has ``validate`` and ``to_json``.
LossModel = Union[BernoulliLoss, ScheduleLoss, CompositeLoss]
DelayModel = Union[UniformDelay, FixedDelay]


def delay_from_json(d: dict, where: str) -> DelayModel:
    kind = read_kind(where, d, {"uniform": (), "fixed": ("delay",)})
    return UniformDelay() if kind == "uniform" else FixedDelay(d["delay"])


def _copy_law(config: "SimConfig") -> tuple:
    """The law the models' methods write out, read once from their fields:
    a ``FixedDelay``'s delay (else 0: one uniform draw), the Bernoulli or
    composite ``p`` (else None: no loss draw), and the schedule's draw-free
    ``decide`` (else None: no rules). A call to each model per copy costs
    about a quarter of a sweep."""
    loss = config.loss
    schedule = loss if isinstance(loss, ScheduleLoss) else getattr(loss, "schedule", None)
    return (config.delay.delay if isinstance(config.delay, FixedDelay) else 0,
            None if loss is schedule else loss.p,
            schedule.decide if schedule is not None and schedule.rules else None)


# ---------------------------------------------------------------------------
# Simulation configuration
# ---------------------------------------------------------------------------

_PROTOCOL_FIELDS = tuple(f.name for f in fields(ProtocolConfig))

# The most events, as ``check_events`` counts them, of a run that `simulate`
# makes: `lockstep run`, the scenario and replay. Run and replay hold none,
# so it bounds their trace and time: 10^6 events at n = 8 wrote 168 MB in
# 4.1 s and peaked at 19 MB (2 shared cores), and at n = 256 (3 KB a line)
# 3 GB, inside `protocol.MAX_MEMBERS`'s budget of 60 s and 4 GB. The scenario
# holds its events, so it bounds its memory: 10^6 at n = 3 peaked at 268 MB.
MAX_EVENTS = 1_000_000

# The most events of a run that `round_journeys` reads instead, a sweep cell,
# which holds one vector per round and no events. A whole `cli._sweep_cell`
# took 0.29 to 0.69 µs an event at n = 2 to 256 (2 shared cores); n = 2 has
# the fewest events a round, and 5 * 10^7 of them took 31 s and peaked at
# 447 MB, inside the same budget. The whole `sweep` command at n = 64 over
# 360 s (18.6M events) takes about 5.5 to 6.3 s.
MAX_JOURNEY_EVENTS = 50_000_000


@dataclass(frozen=True)
class SimConfig:
    """Everything a run depends on; two equal configs produce identical traces.

    ``duration`` is a local-clock horizon: each vehicle executes every tick
    with local time <= duration. Use a multiple of round_length so the final
    round closes cleanly at every vehicle.

    Vehicle i's clock reads global time plus ``offsets[i - 1]``. Offsets are
    >= 0, spread by at most ``sync_bound``, and at most ``round_length``:
    a larger one would put a vehicle's round-1 boundary before global 0,
    where its clock never ticks, so the vehicle would skip a round.
    """

    protocol: ProtocolConfig
    offsets: tuple[int, ...]
    loss: LossModel
    duration: int
    seed: int
    delay: DelayModel = UniformDelay()

    def __post_init__(self) -> None:
        require_int("duration", self.duration)
        require_int("seed", self.seed)
        for offset in self.offsets:
            require_int("clock offset", offset)
        if len(self.offsets) != self.protocol.n:
            raise ConfigError(f"expected {self.protocol.n} offsets, got {len(self.offsets)}")
        if any(o < 0 for o in self.offsets):
            raise ConfigError("clock offsets must be >= 0")
        if max(self.offsets) > self.protocol.round_length:
            raise ConfigError(f"clock offsets must be <= round_length "
                              f"{self.protocol.round_length}, got {max(self.offsets)}")
        if max(self.offsets) - min(self.offsets) > self.protocol.sync_bound:
            raise ConfigError(
                f"offset spread {max(self.offsets) - min(self.offsets)} exceeds "
                f"sync_bound {self.protocol.sync_bound}"
            )
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        self.loss.validate(self.protocol.n)
        self.delay.validate(self.protocol.maximum_delay)

    def to_json(self) -> dict:
        return {**asdict(self.protocol), "offsets": list(self.offsets),
                "duration": self.duration, "seed": self.seed,
                "loss": self.loss.to_json(), "delay": self.delay.to_json()}

    @staticmethod
    def from_json(d: dict) -> "SimConfig":
        read_object("config", d,
                    (*_PROTOCOL_FIELDS, "offsets", "loss", "duration", "seed", "delay"))
        protocol = ProtocolConfig(**{name: d[name] for name in _PROTOCOL_FIELDS})
        return SimConfig(
            protocol=protocol,
            offsets=tuple(read_list("config.offsets", d["offsets"], protocol.n)),
            loss=loss_from_json(d["loss"], "config.loss"),
            duration=d["duration"],
            seed=d["seed"],
            delay=delay_from_json(d["delay"], "config.delay"),
        )


def check_events(config: SimConfig, bound: int) -> SimConfig:
    """``config``, if its run makes at most ``bound`` events: per round, n vehicles
    each send k times (``sends_per_round``) to n - 1 others and output once."""
    p = config.protocol
    n, rounds = p.n, -(-config.duration // p.round_length)
    events = rounds * n * (n * p.sends_per_round() + 1)
    if events > bound:
        raise ConfigError(f"duration {config.duration} holds {rounds} rounds of {n} vehicles, "
                          f"about {events} events, more than {bound}")
    return config


def sample_offsets(seed: int, n: int, sync_bound: int) -> tuple[int, ...]:
    """Per-vehicle clock offsets: uniform in [0, sync_bound], shifted so min is 0."""
    rng = random.Random(f"offsets:{seed}")
    vals = [rng.randrange(sync_bound + 1) for _ in range(n)]
    lo = min(vals)
    return tuple(v - lo for v in vals)


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

class SendEvent(NamedTuple):
    t: int
    msg: GossipMessage


class DeliverEvent(NamedTuple):
    t: int
    receiver: int
    msg: GossipMessage


class DropEvent(NamedTuple):
    t: int
    receiver: int
    msg: GossipMessage
    cause: str


class OutputEvent(NamedTuple):
    t: int
    vehicle: int
    output: RoundOutput


TraceEvent = Union[SendEvent, DeliverEvent, DropEvent, OutputEvent]


def datum_to_json(d: Datum):
    if is_default(d):
        return None
    return d.to_json()


# json.dumps(obj, sort_keys=True, separators=(",", ":")) without building an
# encoder per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _dumps_data(data: tuple) -> str:
    return _dumps([datum_to_json(d) for d in data])


# record, Trace.write and replay encode the events this many at a time into
# one string, newlines included (about 22 KB of an 8-vehicle trace): one write,
# or one read and byte compare, per block. Replay holds a block's events, their
# lines and join, its bytes and the bytes read: a peak of 235 KB at 128 on the
# n=8, 120 s trace; 256 took it to 356 KB and ran no faster.
_BLOCK = 128

# The JSON of each distinct vector met in the passes under way, one memo per
# kind. The data memo maps vector -> (vector, JSON), and a hit counts only if
# the cached vector holds the very same element objects: equal data may
# encode apart, as PlatoonDatum(LOW, 0, 20) and (LOW, 0.0, 20.0) do. A
# decision is encoded as its one-element vector without the brackets. The ack
# memo maps an ack mask of n members, keyed as mask | 1 << n, to its JSON list
# of n booleans. A memo that reaches _MEMO_SIZE entries starts afresh, so
# vectors that keep changing (the platoon's data, a large fleet's acks) cannot
# grow it; 512 holds all 256 ack or data vectors an 8-vehicle level run can
# send. _blocks clears both, and _in_flight.
_MEMO_SIZE = 512
_ack_json: dict[int, str] = {}
_data_json: dict[tuple, tuple] = {}


def _remember(memo: dict, key, value):
    """Store ``value`` under ``key`` and return it; a full memo starts afresh."""
    if len(memo) >= _MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


def _ack_dumps(mask: int, n: int) -> str:
    """An ack mask of ``n`` members as the JSON list of its n bits, lowest first."""
    key = mask | 1 << n
    return (_ack_json.get(key)
            or _remember(_ack_json, key, _dumps([mask >> k & 1 == 1 for k in range(n)])))


def _memo_dumps(memo: dict, vec: tuple, dumps) -> str:
    hit = memo.get(vec)
    if hit is not None and all(map(operator.is_, hit[0], vec)):
        return hit[1]
    return _remember(memo, vec, (vec, dumps(vec)))[1]


def _message_json(m: GossipMessage) -> tuple[str, str, str]:
    """A message's ack and data JSON, and a deliver line up to its ``"t":``,
    which is all of that line that depends on the message."""
    sender, rnd, data, ack = m
    ack = _ack_dumps(ack, len(data))
    data = _memo_dumps(_data_json, data, _dumps_data)
    return ack, data, f'{{"ack":{ack},"data":{data},"ev":"deliver","from":{sender},"round":{rnd},'


# Each sent message whose deliver and drop lines are still to be written:
# id(msg) -> [msg, ack JSON, data JSON, deliver head, copies left]. The
# entry holds msg, so no other object can have its id while cached; a miss
# (a deliver with no send line, say) encodes afresh. A send expects one copy
# per other member (len(msg.data) - 1) and each deliver or drop line takes
# one, so after a complete trace the cache is empty again.
_in_flight: dict[int, list] = {}


def event_to_json(ev: TraceEvent) -> str:
    """One trace line. Keys are written in sorted order, as ``_dumps`` would.

    Events are told apart by exact type and read by position, in their
    fields' order; anything else is taken for an ``OutputEvent``.
    """
    kind = type(ev)
    if kind is DeliverEvent or kind is DropEvent:
        m = ev[2]
        entry = _in_flight.get(id(m))
        if entry is not None:
            _, ack, data, head, left = entry
            if left > 1:
                entry[4] = left - 1
            else:
                _in_flight.pop(id(m), None)
        else:
            ack, data, head = _message_json(m)
        if kind is DeliverEvent:
            return f'{head}"t":{ev[0]},"to":{ev[1]}}}'
        t, receiver, _, cause = ev
        return (f'{{"ack":{ack},"cause":{_dumps(cause)},"data":{data},"ev":"drop",'
                f'"from":{m[0]},"round":{m[1]},"t":{t},"to":{receiver}}}')
    if kind is SendEvent:
        t, m = ev
        sender, rnd, vdata, _ = m
        ack, data, head = _message_json(m)
        if len(vdata) > 1:
            _in_flight[id(m)] = [m, ack, data, head, len(vdata) - 1]
        return f'{{"ack":{ack},"data":{data},"ev":"send","round":{rnd},"t":{t},"v":{sender}}}'
    t, vehicle, (rnd, s, r, decision) = ev
    return (f'{{"ack":{_ack_dumps(r, len(s))},'
            f'"data":{_memo_dumps(_data_json, s, _dumps_data)},'
            f'"decision":{_memo_dumps(_data_json, (decision,), _dumps_data)[1:-1]},'
            f'"ev":"output","round":{rnd},"t":{t},"v":{vehicle}}}')


def _blocks(config: SimConfig, app_spec: dict,
            events: Iterable[TraceEvent]) -> Iterator[tuple[str, list]]:
    """A trace file's text with the events it encodes: the header line alone,
    then each ``_BLOCK`` events with their lines, every line with its newline."""
    yield _dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION,
                  "config": config.to_json(), "app": app_spec}) + "\n", []
    events = iter(events)
    try:
        while block := list(itertools.islice(events, _BLOCK)):
            yield "\n".join([*map(event_to_json, block), ""]), block
    finally:
        # The memos hold the vectors this pass met; _in_flight holds entries
        # only if the pass stopped early or a send's copies are not all in
        # it. A pass still running elsewhere then re-encodes what it misses.
        for memo in (_in_flight, _ack_json, _data_json):
            memo.clear()


@dataclass
class Trace:
    """Complete record of one run: its config, app identity, and ordered events."""

    config: SimConfig
    app_spec: dict
    events: list = field(default_factory=list)

    def write(self, path: Union[str, Path]) -> None:
        with open(path, "w", newline="\n") as fh:
            for text, _ in _blocks(self.config, self.app_spec, self.events):
                fh.write(text)


def read_trace_header(path: Union[str, Path]) -> tuple[SimConfig, dict]:
    with open(path, "rb") as fh:
        header = read_json(f"{path} is not a {TRACE_FORMAT} file", fh.readline)
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ConfigError(f"{path} is not a {TRACE_FORMAT} file")
    if header.get("version") != TRACE_VERSION:
        raise ConfigError(f"{path} has trace version {header.get('version')!r}, "
                          f"this build reads version {TRACE_VERSION}")
    read_object("header", header, ("format", "version", "config", "app"))
    return check_events(SimConfig.from_json(header["config"]), MAX_EVENTS), header["app"]


# ---------------------------------------------------------------------------
# The event loop
# ---------------------------------------------------------------------------

_PRIO_DELIVER = 0
_PRIO_TICK = 1


def _send_offsets(p: ProtocolConfig) -> range:
    """The local times of a round's gossip sends, from the round's start."""
    return range(p.sync_bound, p.sync_bound + p.sends_per_round() * p.gossip_interval,
                 p.gossip_interval)


def _tick_times(p: ProtocolConfig, horizon: int, offset: int) -> Iterator[tuple[int, int]]:
    """A vehicle's clock: ``(global, local)`` at each round boundary, then its sends,
    up to local ``horizon``. A local reading below ``offset`` is before global 0."""
    sends = _send_offsets(p)
    for k in itertools.count():
        base = k * p.round_length
        if base > horizon:
            return
        if k > 0 and base >= offset:
            yield base - offset, base
        for s in sends:
            local = base + s
            if local > horizon:
                return
            if local >= offset:
                yield local - offset, local


def simulate(config: SimConfig, app: "LevelApp | PlatoonApp") -> Iterator[TraceEvent]:
    """Execute one simulation, yielding its events in trace order.

    The events are a pure function of the inputs. The loop runs only as far
    as the events are read. ``app`` is one of ``platoon``'s two applications.
    A vehicle reads its datum with ``app.read_state(vid)`` and decides a
    complete round's vector ``s`` with ``app.decide(s)``, which the protocol
    calls only for an ``s`` without DEFAULT (``checked_decide`` decides DEFAULT
    for the rest). A datum either returns is DEFAULT or, like ``ServiceLevel``
    and ``PlatoonDatum``, is hashable and has a ``to_json`` that gives its
    trace JSON. Each round output goes to ``app.on_output(vid, output, t)``.
    At each global time that ``app.app_tick_times()`` yields,
    ``app.on_app_tick(t)`` runs before any vehicle tick at the same instant
    (the platoon world advances its kinematics there). The times may not
    depend on the run: the loop takes each next time before the tick at the
    one before it runs.
    """
    p = config.protocol
    n = p.n
    draw = random.Random(config.seed).random
    max_delay = p.maximum_delay

    # Per-vehicle tables are indexed by vehicle id, like the clocks; slot 0
    # is the app's clock and unused here.
    instances = [VehicleProtocol(p, vid, app.read_state(vid)) for vid in range(1, n + 1)]
    readers = [None] + [functools.partial(app.read_state, vid) for vid in range(1, n + 1)]
    decide = app.decide
    # Bound once per run, on first read: a wrapper installed on a class
    # before the run starts is what gets bound.
    receives = [None] + [inst.on_gossip_receive for inst in instances]
    ticks = [None] + [inst.on_tick for inst in instances]
    peers = [()] + [tuple(k for k in range(1, n + 1) if k != vid) for vid in range(1, n + 1)]
    fixed, drop_p, rules = _copy_law(config)
    draws = drop_p is not None
    new = tuple.__new__  # builds the same NamedTuple events without a Python call

    # Clock 0 is the app's, clock i vehicle i's. A heap entry is (t, prio, clock
    # or receiver, seq, payload); a tick's payload is its local reading.
    clocks = [((t, None) for t in app.app_tick_times())]
    clocks += [_tick_times(p, config.duration, offset) for offset in config.offsets]
    heap: list = []
    seq = itertools.count()
    push = heapq.heappush
    pop = heapq.heappop
    replace = heapq.heapreplace
    for clock, instants in enumerate(clocks):
        for at, local in instants:
            push(heap, (at, _PRIO_TICK, clock, next(seq), local))
            break

    while heap:
        t, prio, vid, _, payload = heap[0]
        if prio == _PRIO_DELIVER:
            pop(heap)
            yield new(DeliverEvent, (t, vid, payload))
            receives[vid](payload)
            continue
        # The tick's successor takes its place in one heap step, before the
        # tick runs. No order changes: a clock has one entry in the heap at a
        # time, so seq never ranks the successor against another tick (they
        # differ in clock) or a delivery (they differ in prio); and a clock
        # is a pure function of the config, so advancing it early reads the
        # same instants.
        for at, local in clocks[vid]:
            replace(heap, (at, _PRIO_TICK, vid, next(seq), local))
            break
        else:
            pop(heap)
        if vid == 0:
            app.on_app_tick(t)
            continue
        msg, output = ticks[vid](payload, readers[vid], decide)
        if msg is not None:
            yield new(SendEvent, (t, msg))
            rnd = msg.round
            for rcv in peers[vid]:
                d = fixed or 1 + int(draw() * max_delay)
                lost = draws and draw() < drop_p
                if rules and rules(None, rnd, vid, rcv, t):
                    yield new(DropEvent, (t, rcv, msg, "schedule"))
                elif lost:
                    yield new(DropEvent, (t, rcv, msg, "bernoulli"))
                else:
                    push(heap, (t + d, _PRIO_DELIVER, rcv, next(seq), msg))
        if output is not None:
            yield new(OutputEvent, (t, vid, output))
            app.on_output(vid, output, t)


def _round_sends(send_offsets: range, offsets: tuple[int, ...], base: int, horizon: float
                 ) -> tuple[list[tuple[int, int, int]], list[list[int]], list[float]]:
    """A round's sends, sorted as (global time - ``base``, vehicle index, its
    send index), each vehicle's send times and its last (-inf if none): vehicle
    i + 1 sends at local ``base + s`` for each ``s`` in ``send_offsets`` within
    ``[offsets[i], horizon]``."""
    times = [[s - o for s in send_offsets if o <= base + s <= horizon] for o in offsets]
    return (sorted([(t, i, b) for i, ts in enumerate(times) for b, t in enumerate(ts)]), times,
            [ts[-1] if ts else -math.inf for ts in times])


def round_journeys(config: SimConfig) -> tuple[list[tuple[bool, ...]], int, int]:
    """Each round's completeness vector, and the run's delivered and dropped copies.

    A round-level reading of the run ``simulate`` makes, on its own draws:
    per round, the sends by (global time, vehicle) from ``_send_offsets``;
    per copy, the delay and then the loss, receivers ascending, from
    ``random.Random(config.seed)``, by the law ``_copy_law`` reads, as
    ``simulate`` applies it. Vehicle i is complete in round r when
    its ack mask holds every slot: what its ack snapshot on entering round
    r + 1 holds. The vectors cover rounds 0 .. duration // round_length - 1,
    the rounds every vehicle ends within the run; the counts cover every
    copy sent, as ``analysis.round_view`` counts them.

    Masks only grow by OR, so all a copy's arrival decides is which of its
    receiver's sends come after it. The sends are walked by (global time,
    vehicle). ``got[k]`` is vehicle k's own bit ORed with what every copy
    delivered to it carries, wherever it lands: every copy is ORed in before
    a later send of its receiver or into the final mask, so ``got[k]`` is
    exactly the end-of-round mask, and the vector reads ``got[k] == full``.
    A delivered copy that lands at or before its receiver's last send, to a
    receiver whose mask is not yet full, is also filed under the first such
    send at or after its arrival (``bisect_left``: deliveries before sends
    at one instant) and ORed in before it. It lands after its own send, so
    it is filed before it is read. Any other copy changes no send: a later
    one is read by none, and a full mask stays full. So once every ``got``
    is full, the round is decided: its vector is all True, though some
    vehicle may not yet have sent a full mask, or never send one. Without
    rules, the rest of its copies, from the next send on, only take their
    draws and count their drops, in C; a rule would have to see each copy.

    Rounds are independent, so each is read on its own. With offsets spread within
    ``sync_bound`` and delays in (0, maximum_delay], a round-r copy sent at
    local time at most (r+1) * round_length - sync_bound - maximum_delay
    reaches its receiver after that vehicle entered round r and by its local
    (r+1) * round_length, where a delivery comes before the tick: every copy
    lands in its own round, and ``on_gossip_receive``'s round test never
    fires. Round r's last send precedes round r+1's first in global time, by
    at least 2 * sync_bound + maximum_delay - spread > 0, so reading the
    rounds in order reads the draws in ``simulate``'s order. A model whose
    copies may land in a later round (a delay beyond ``maximum_delay``)
    breaks both facts.

    The decisions follow from the vectors: ``oracle.run_abstract`` over them
    equals the simulator's, as acceptance criterion 2 checks on adversarial
    schedules. Within a round every copy of slot k carries vehicle k's datum,
    so a complete vehicle holds all of what the others gossiped and decides
    on it, and an incomplete one outputs and then gossips DEFAULT.
    """
    p = config.protocol
    n = p.n
    rl = p.round_length
    horizon = config.duration
    max_delay = p.maximum_delay
    draw = random.Random(config.seed).random
    fixed, drop_p, rules = _copy_law(config)
    draws = drop_p is not None
    per = (not fixed) + draws  # a copy's draws: a uniform delay's, then a loss's
    offsets = config.offsets
    send_offsets = _send_offsets(p)
    # A round with every send in [offset, horizon] lists the same sends.
    latest = max(offsets)
    whole = _round_sends(send_offsets, offsets, latest, math.inf)
    peers = [[k for k in range(n) if k != i] for i in range(n)]
    full = (1 << n) - 1
    complete = []
    copies = drops = 0
    for rnd in range(horizon // rl + 1):
        base = rnd * rl
        if latest <= base + send_offsets[0] and base + send_offsets[-1] <= horizon:
            sends, times, lasts = whole
        else:
            sends, times, lasts = _round_sends(send_offsets, offsets, base, horizon)
        masks = [1 << i for i in range(n)]
        got = masks[:]
        filed = [[0] * len(ts) for ts in times]
        done = 0
        for j, (t, i, b) in enumerate(sends):
            if done == n and not rules:
                # Decided: the copies left only take their draws and count
                # drops. A copy's last draw is its loss's; with no loss draw
                # it is its delay's, which is never below 0.
                if per:
                    left = itertools.repeat((), (len(sends) - j) * (n - 1) * per)
                    taken = itertools.islice(itertools.starmap(draw, left), per - 1, None, per)
                    drops += sum(map(operator.lt, taken, itertools.repeat(drop_p or 0)))
                break
            carried = masks[i] = masks[i] | filed[i][b]
            at = base + t
            for k in peers[i]:
                delay = fixed or 1 + int(draw() * max_delay)
                if (draws and draw() < drop_p) or (rules and rules(None, rnd, i + 1, k + 1, at)):
                    drops += 1
                elif masks[k] != full:
                    if got[k] != full:
                        got[k] |= carried
                        done += got[k] == full
                    if t + delay <= lasts[k]:
                        filed[k][bisect_left(times[k], t + delay)] |= carried
        copies += len(sends) * (n - 1)
        if base + rl <= horizon:
            complete.append(tuple([g == full for g in got]))
    return complete, copies - drops, drops


def record(config: SimConfig, app: "LevelApp | PlatoonApp", fh) -> Iterator[TraceEvent]:
    """Execute one simulation, writing its trace to ``fh`` ``_BLOCK`` events at
    a time; each event is yielded once its line is written, so the trace is
    whole when the events are read to the end, and none is held beyond a block."""
    for text, block in _blocks(config, app.spec(), simulate(config, app)):
        fh.write(text)
        yield from block


def run(config: SimConfig, app: "LevelApp | PlatoonApp") -> Trace:
    """Execute one simulation; the returned trace is a pure function of the inputs.
    It records ``app.spec()``, from which ``platoon.build_app`` rebuilds the app."""
    events = list(simulate(config, app))
    return Trace(config, app.spec(), events)


def _mismatch(line_no: int, recorded: bytes, replayed: str) -> ReplayMismatch:
    """The divergence of one line; each side is a line with its newline, or empty."""
    recorded = recorded.decode(errors="backslashreplace")
    return ReplayMismatch(line_no,
                          recorded.removesuffix("\n") if recorded else "<missing>",
                          replayed.removesuffix("\n") if replayed else "<missing>",
                          unterminated=recorded[-1:] not in ("", "\n"))


def _divergence(fh, text: str, line_no: int) -> ReplayMismatch:
    """Walk a block that differs, from its start in ``fh``, to the line that does."""
    for line_no, line in enumerate(text[:-1].split("\n"), start=line_no):
        line += "\n"
        recorded = fh.readline()
        if recorded != line.encode():
            return _mismatch(line_no, recorded, line)
    raise AssertionError("a block that differs has a line that does")


def replay(path: Union[str, Path]) -> None:
    """Re-run a trace file's config and verify the result is byte-identical.

    The application is rebuilt from the recorded app spec, and each block of
    ``_blocks`` is compared, as bytes, with as many read from the file. Only a
    block that differs is read again line by line, to name the first divergent
    line; bytes left after the run are a divergence too. So neither side is
    held beyond one block; raises ReplayMismatch at the first divergent line.
    """
    from .platoon import PlatoonApp, build_app  # platoon imports this module

    config, app_spec = read_trace_header(path)
    app = build_app(app_spec)
    if isinstance(app, PlatoonApp) and config != app.scenario.sim_config():
        raise ConfigError("config is not the one app.scenario runs")
    replayed = _blocks(config, app.spec(), simulate(config, app))
    # The file's bytes are compared as they are, so a "\r" is a divergence,
    # and so is a byte that is not text, at its line, not a crash.
    with open(path, "rb") as fh:
        try:
            line_no = 1
            for text, block in replayed:
                data = text.encode()
                start = fh.tell()
                if fh.read(len(data)) != data:
                    fh.seek(start)
                    raise _divergence(fh, text, line_no)
                line_no += len(block) or 1  # the header's block holds no event
            rest = fh.readline()
            if rest:
                raise _mismatch(line_no, rest, "")
        finally:
            replayed.close()
