"""Deterministic discrete-event simulator for the round protocol.

A run drives n protocol instances over a virtual global clock. Every tick
comes from a clock, an iterator of ``(global, local)`` instants: clock 0 is
the app's (``App.app_tick_times``), and clock i is vehicle i's, which reads
the global clock plus a fixed offset (``_tick_times``). Gossip broadcasts fan
out into independent point-to-point transmissions, each delivered after a
sampled delay in (0, maximum_delay] or dropped by the loss model.
``simulate`` is the one event loop: it yields every send, delivery, drop,
and round output as it happens, a sequence that is a pure function of the
configuration. ``run`` keeps them all in a trace; ``replay`` compares them
with a trace file as they come, so any trace can be replayed bit-for-bit.
Events hold each fact once: ``SendEvent(t, msg)``, ``DeliverEvent(t, receiver,
msg)``, ``DropEvent(t, receiver, msg, cause)`` and ``OutputEvent(t, vehicle,
output)``. The sender is ``msg.sender``, and a drop's ``t`` is its send time.

Event order is total: by time, then deliveries before ticks, then receiver
or clock (so the app's tick comes before vehicle 1's), then insertion order.
Per transmission the RNG is consumed in a fixed order (delay first, then the
loss decision), one transmission per receiver in ascending id.
"""

from __future__ import annotations

import heapq
import itertools
import json
import operator
import random
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .protocol import (
    ConfigError,
    Datum,
    GossipMessage,
    ProtocolConfig,
    RoundOutput,
    VehicleProtocol,
    is_default,
    require_int,
)

TRACE_FORMAT = "lockstep-trace"
TRACE_VERSION = 1


class ReplayMismatch(Exception):
    """Replay diverged from the recorded trace."""

    def __init__(self, line_no: int, expected: str, actual: str) -> None:
        super().__init__(
            f"replay diverged at line {line_no}:\n  recorded: {expected}\n  replayed: {actual}"
        )
        self.line_no = line_no
        self.expected = expected
        self.actual = actual


# ---------------------------------------------------------------------------
# Loss and delay models
# ---------------------------------------------------------------------------

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
        for name in ("round", "t0", "t1", "sender", "receiver"):
            value = getattr(self, name)
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
    def from_json(d: dict) -> "DropRule":
        def ref(v):
            return None if v in (None, "*") else v

        if "round" in d:
            return DropRule(round=d["round"], sender=ref(d.get("from")), receiver=ref(d.get("to")))
        t0, t1 = d["t"]
        return DropRule(t0=t0, t1=t1, sender=ref(d.get("from")), receiver=ref(d.get("to")))


class LossModel:
    """Per-transmission omission behavior. Subclasses document their RNG draws."""

    def decide(self, rng: random.Random, msg_round: int, sender: int, receiver: int,
               send_time: int) -> Optional[str]:
        """Return a drop cause, or None to deliver."""
        raise NotImplementedError

    def validate(self, n: int) -> None:
        pass

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class BernoulliLoss(LossModel):
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
class ScheduleLoss(LossModel):
    """Drops exactly the transmissions matched by a rule list. No RNG draws."""

    rules: tuple[DropRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))  # a list is accepted too

    def validate(self, n: int) -> None:
        for rule in self.rules:
            for ref in (rule.sender, rule.receiver):
                if ref is not None and not 1 <= ref <= n:
                    raise ConfigError(f"drop rule references vehicle {ref}, valid ids are 1..{n}")

    def decide(self, rng, msg_round, sender, receiver, send_time):
        for rule in self.rules:
            if rule.matches(msg_round, sender, receiver, send_time):
                return "schedule"
        return None

    def to_json(self) -> dict:
        return {"kind": "schedule", "rules": [r.to_json() for r in self.rules]}


@dataclass(frozen=True)
class CompositeLoss(LossModel):
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


def loss_from_json(d: dict) -> LossModel:
    kind = d["kind"]
    if kind == "bernoulli":
        return BernoulliLoss(d["p"])
    if kind == "schedule":
        return ScheduleLoss([DropRule.from_json(r) for r in d["rules"]])
    if kind == "composite":
        return CompositeLoss(d["p"], ScheduleLoss([DropRule.from_json(r) for r in d["rules"]]))
    raise ConfigError(f"unknown loss model kind {kind!r}")


def load_schedule(path: Union[str, Path]) -> ScheduleLoss:
    """Load an adversarial schedule file: a JSON array of drop directives."""
    rules = json.loads(Path(path).read_text())
    return ScheduleLoss([DropRule.from_json(r) for r in rules])


class DelayModel:
    def sample(self, rng: random.Random, maximum_delay: int) -> int:
        raise NotImplementedError

    def validate(self, maximum_delay: int) -> None:
        pass

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Uniform integer latency in [1, maximum_delay] microseconds. One RNG draw."""

    def sample(self, rng, maximum_delay):
        return 1 + int(rng.random() * maximum_delay)

    def to_json(self) -> dict:
        return {"kind": "uniform"}


@dataclass(frozen=True)
class FixedDelay(DelayModel):
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


def delay_from_json(d: dict) -> DelayModel:
    if d["kind"] == "uniform":
        return UniformDelay()
    if d["kind"] == "fixed":
        return FixedDelay(d["delay"])
    raise ConfigError(f"unknown delay model kind {d['kind']!r}")


# ---------------------------------------------------------------------------
# Simulation configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Everything a run depends on; two equal configs produce identical traces.

    ``duration`` is a local-clock horizon: each vehicle executes every tick
    with local time <= duration. Use a multiple of round_length so the final
    round closes cleanly at every vehicle.
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
        return SimConfig(
            protocol=ProtocolConfig(**{f.name: d[f.name] for f in fields(ProtocolConfig)}),
            offsets=tuple(d["offsets"]),
            loss=loss_from_json(d["loss"]),
            duration=d["duration"],
            seed=d["seed"],
            delay=delay_from_json(d["delay"]),
        )


def sample_offsets(seed: int, n: int, sync_bound: int) -> tuple[int, ...]:
    """Per-vehicle clock offsets: uniform in [0, sync_bound], shifted so min is 0."""
    rng = random.Random(f"offsets:{seed}")
    vals = [rng.randrange(sync_bound + 1) if sync_bound > 0 else 0 for _ in range(n)]
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
    if isinstance(d, Enum):
        return d.name.lower()
    to_json = getattr(d, "to_json", None)
    if to_json is not None:
        return to_json()
    return d


# json.dumps(obj, sort_keys=True, separators=(",", ":")) without building an
# encoder per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _dumps_data(data: tuple) -> str:
    return _dumps([datum_to_json(d) for d in data])


def _dumps_decision(decision: tuple) -> str:
    return _dumps(datum_to_json(decision[0]))


# The JSON of each distinct vector met in the passes under way, one memo per
# kind: vector -> (vector, JSON). A hit counts only if the cached vector holds
# the very same element objects, since equal vectors of other element types,
# (1, 0) and (True, False) or ServiceLevel.LOW and 1, encode differently. A
# kind of its own keeps n=1's data vector (HIGH,) apart from the decision
# (HIGH,). A memo that reaches _MEMO_SIZE entries starts afresh, so vectors
# that keep changing (the platoon's data) cannot grow it; 512 holds all 256
# ack or data vectors an 8-vehicle level run can send. _lines clears all.
_MEMO_SIZE = 512
_ack_json: dict[tuple, tuple] = {}
_data_json: dict[tuple, tuple] = {}
_decision_json: dict[tuple, tuple] = {}


def _memo_dumps(memo: dict, vec: tuple, dumps) -> str:
    try:
        hit = memo.get(vec)
    except TypeError:  # an unhashable datum
        return dumps(vec)
    if hit is not None and all(map(operator.is_, hit[0], vec)):
        return hit[1]
    text = dumps(vec)
    if len(memo) >= _MEMO_SIZE:
        memo.clear()
    memo[vec] = (vec, text)
    return text


def _ack_and_data(m: GossipMessage) -> tuple[str, str]:
    return _memo_dumps(_ack_json, m.ack, _dumps), _memo_dumps(_data_json, m.data, _dumps_data)


def _deliver_head(m: GossipMessage, ack: str, data: str) -> str:
    """A deliver line up to its ``"t":``, which is all that depends on the message."""
    return f'{{"ack":{ack},"data":{data},"ev":"deliver","from":{m.sender},"round":{m.round},'


# Each sent message whose deliver and drop lines are still to be written:
# id(msg) -> [msg, ack JSON, data JSON, deliver head, copies left]. The entry
# holds msg, so no other object can have its id while cached; a miss (a
# deliver with no send line, say) encodes afresh. A send
# expects one copy per other member (len(msg.ack) - 1) and each deliver or
# drop line takes one, so after a complete trace the cache is empty again.
_in_flight: dict[int, list] = {}


def event_to_json(ev: TraceEvent) -> str:
    """One trace line. Keys are written in sorted order, as ``_dumps`` would."""
    if isinstance(ev, (DeliverEvent, DropEvent)):
        m = ev.msg
        entry = _in_flight.get(id(m))
        if entry is not None:
            _, ack, data, head, left = entry
            if left > 1:
                entry[4] = left - 1
            else:
                _in_flight.pop(id(m), None)
        else:
            ack, data = _ack_and_data(m)
            head = _deliver_head(m, ack, data)
        if isinstance(ev, DeliverEvent):
            return f'{head}"t":{ev.t},"to":{ev.receiver}}}'
        return (f'{{"ack":{ack},"cause":{_dumps(ev.cause)},"data":{data},"ev":"drop",'
                f'"from":{m.sender},"round":{m.round},"t":{ev.t},"to":{ev.receiver}}}')
    if isinstance(ev, SendEvent):
        m = ev.msg
        ack, data = _ack_and_data(m)
        if len(m.ack) > 1:
            _in_flight[id(m)] = [m, ack, data, _deliver_head(m, ack, data), len(m.ack) - 1]
        return (f'{{"ack":{ack},"data":{data},"ev":"send","round":{m.round},'
                f'"t":{ev.t},"v":{m.sender}}}')
    out = ev.output
    return (f'{{"ack":{_memo_dumps(_ack_json, out.r, _dumps)},'
            f'"data":{_memo_dumps(_data_json, out.s, _dumps_data)},'
            f'"decision":{_memo_dumps(_decision_json, (out.decision,), _dumps_decision)},'
            f'"ev":"output","round":{out.round},"t":{ev.t},"v":{ev.vehicle}}}')


def _lines(config: SimConfig, app_spec: dict, events: Iterable[TraceEvent]) -> Iterator[str]:
    """A trace file's lines: the header, then one line per event."""
    yield _dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION,
                  "config": config.to_json(), "app": app_spec})
    try:
        for ev in events:
            yield event_to_json(ev)
    finally:
        # The memos hold the vectors this pass met; _in_flight holds entries
        # only if the pass stopped early or a send's copies are not all in
        # it. A pass still running elsewhere then re-encodes what it misses.
        _in_flight.clear()
        _ack_json.clear()
        _data_json.clear()
        _decision_json.clear()


@dataclass
class Trace:
    """Complete record of one run: its config, app identity, and ordered events."""

    config: SimConfig
    app_spec: dict
    events: list = field(default_factory=list)

    def lines(self) -> Iterator[str]:
        return _lines(self.config, self.app_spec, self.events)

    def write(self, path: Union[str, Path]) -> None:
        with open(path, "w") as fh:
            for line in self.lines():
                fh.write(line)
                fh.write("\n")


def read_trace_header(path: Union[str, Path]) -> tuple[SimConfig, dict]:
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:  # not text, or not JSON
            raise ConfigError(f"{path} is not a {TRACE_FORMAT} file: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ConfigError(f"{path} is not a {TRACE_FORMAT} file")
    if header.get("version") != TRACE_VERSION:
        raise ConfigError(f"{path} has trace version {header.get('version')!r}, "
                          f"this build reads version {TRACE_VERSION}")
    try:
        config, app_spec = SimConfig.from_json(header["config"]), header["app"]
    except KeyError as exc:
        raise ConfigError(f"{path} header is missing key {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"{path} header has a field of the wrong type: {exc}") from None
    except ValueError as exc:  # a value out of range, or a string that is not a number
        raise ConfigError(f"{path} header has a bad value: {exc}") from None
    if not isinstance(app_spec, dict):
        raise ConfigError(f"{path} header has an app that is not an object: {app_spec!r}")
    return config, app_spec


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------

class App:
    """Application glue: state source, decision function, and output sink.

    ``app_tick_times`` may yield global times at which ``on_app_tick`` runs
    before any vehicle tick at the same instant (the platoon world advances
    its kinematics there). ``spec`` identifies the app for trace replay;
    ``platoon.build_app`` rebuilds the kinds it names.
    """

    def read_state(self, vid: int) -> Datum:
        raise NotImplementedError

    def decide(self, s: tuple) -> Datum:
        raise NotImplementedError

    def on_output(self, vid: int, output: RoundOutput, t: int) -> None:
        pass

    def app_tick_times(self) -> Iterable[int]:
        return ()

    def on_app_tick(self, t: int) -> None:
        pass

    def spec(self) -> dict:
        return {"kind": "custom"}


# ---------------------------------------------------------------------------
# The event loop
# ---------------------------------------------------------------------------

_PRIO_DELIVER = 0
_PRIO_TICK = 1


def _tick_times(p: ProtocolConfig, horizon: int, offset: int) -> Iterator[tuple[int, int]]:
    """A vehicle's clock: ``(global, local)`` at each round boundary, then its sends,
    up to local ``horizon``. A local reading below ``offset`` is before global 0."""
    sends = [p.sync_bound + j * p.gossip_interval for j in range(p.sends_per_round())]
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


def simulate(config: SimConfig, app: App) -> Iterator[TraceEvent]:
    """Execute one simulation, yielding its events in trace order.

    The events are a pure function of the inputs. The loop runs only as far
    as the events are read.
    """
    p = config.protocol
    n = p.n
    rng = random.Random(config.seed)
    max_delay = p.maximum_delay

    instances = [VehicleProtocol(p, vid, app.read_state(vid)) for vid in range(1, n + 1)]
    readers = [(lambda v: (lambda: app.read_state(v)))(vid) for vid in range(1, n + 1)]
    decide = app.decide
    # Bound once per run, on first read: a wrapper installed on a class
    # before the run starts is what gets bound.
    receives = [inst.on_gossip_receive for inst in instances]
    ticks = [inst.on_tick for inst in instances]
    peers = [tuple(k for k in range(1, n + 1) if k != vid) for vid in range(1, n + 1)]
    sample = config.delay.sample
    decide_loss = config.loss.decide
    new = tuple.__new__  # builds the same NamedTuple events without a Python call

    # Clock 0 is the app's, clock i vehicle i's. A heap entry is (t, prio, clock
    # or receiver, seq, payload); a tick's payload is its local reading.
    clocks = [((t, None) for t in app.app_tick_times())]
    clocks += [_tick_times(p, config.duration, offset) for offset in config.offsets]
    heap: list = []
    seq = itertools.count()
    push = heapq.heappush
    pop = heapq.heappop
    for clock, instants in enumerate(clocks):
        for at, local in instants:
            push(heap, (at, _PRIO_TICK, clock, next(seq), local))
            break

    while heap:
        t, prio, vid, _, payload = pop(heap)
        if prio == _PRIO_DELIVER:
            yield new(DeliverEvent, (t, vid, payload))
            receives[vid - 1](payload)
            continue
        if vid == 0:
            app.on_app_tick(t)
        else:
            msg, output = ticks[vid - 1](payload, readers[vid - 1], decide)
            if msg is not None:
                yield new(SendEvent, (t, msg))
                rnd = msg.round
                for rcv in peers[vid - 1]:
                    d = sample(rng, max_delay)
                    cause = decide_loss(rng, rnd, vid, rcv, t)
                    if cause is None:
                        push(heap, (t + d, _PRIO_DELIVER, rcv, next(seq), msg))
                    else:
                        yield new(DropEvent, (t, rcv, msg, cause))
            if output is not None:
                yield new(OutputEvent, (t, vid, output))
                app.on_output(vid, output, t)
        for at, local in clocks[vid]:
            push(heap, (at, _PRIO_TICK, vid, next(seq), local))
            break


def run(config: SimConfig, app: App) -> Trace:
    """Execute one simulation; the returned trace is a pure function of the inputs."""
    events = list(simulate(config, app))
    return Trace(config, app.spec(), events)


def _recorded_lines(path: Union[str, Path]) -> Iterator[str]:
    # A byte that is not text is a divergence at its line, not a crash.
    with open(path, errors="backslashreplace") as fh:
        for line in fh:
            yield line.rstrip("\n")


def replay(path: Union[str, Path]) -> None:
    """Re-run a trace file's config and verify the result is identical.

    The application is rebuilt from the recorded app spec. The file is read
    as the run is re-simulated and re-encoded, and the two are compared line
    by line, so neither side is held; raises ReplayMismatch at the first
    divergent line.
    """
    from .platoon import build_app  # platoon imports this module

    config, app_spec = read_trace_header(path)
    app = build_app(app_spec)
    recorded = _recorded_lines(path)
    replayed = _lines(config, app.spec(), simulate(config, app))
    try:
        pairs = itertools.zip_longest(recorded, replayed, fillvalue="<missing>")
        for i, (want, got) in enumerate(pairs, start=1):
            if want != got:
                raise ReplayMismatch(i, want, got)
    finally:
        recorded.close()
        replayed.close()
