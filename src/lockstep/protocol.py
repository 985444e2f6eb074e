"""Round-synchronous cooperation state machine for a single vehicle.

Each vehicle runs fixed-length communication rounds. Within a send window it
gossips its view ``<round, data, ack>``; at every round boundary it snapshots
the collected view and either applies the shared decision function (all
members heard from) or falls back to the default value for one round (some
member missing). The fallback value is itself gossiped, and a view that holds
it decides DEFAULT (``checked_decide``), which is what pulls the whole group
onto the default within one further round.

Pure and clock-free: callers feed in receive events and clock ticks and get
back at most one message and one round output per tick. Times are integer µs.

An ack view is a set of members, kept as an int mask: bit k - 1 stands for
member k, and a view is complete when the mask is ``(1 << n) - 1``. The
mask itself is what a message and an output carry.

Within a round every copy of slot k holds the same datum: vehicle k writes
its own slot only at a round boundary, and a receive takes slots only from a
message of its own round. So the first copy of a slot that arrives is the
one every later copy repeats, and a receive takes only the slots it has not
yet acked, visiting the new bits alone; it returns at once when it holds
them all.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, NamedTuple, Optional


class ConfigError(ValueError):
    """Raised for timing or membership parameters that violate the protocol constraints."""


class _Default:
    """The distinguished void/fallback value. A single module-level instance is used."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DEFAULT"

    def __reduce__(self):
        # Pickles by name, so copies and unpickles are the module singleton.
        return "DEFAULT"


DEFAULT = _Default()

# A datum is either DEFAULT or an application payload with value equality.
Datum = Any

# An application's shared decision over one round's data vector. The protocol
# calls it through ``checked_decide``, so its vector never holds DEFAULT.
DecideFn = Callable[[tuple], Datum]
ReadStateFn = Callable[[], Datum]


# ``d is DEFAULT``, by identity and in C: any(map(is_default, s)) makes no Python call.
is_default: Callable[[Datum], bool] = functools.partial(operator.is_, DEFAULT)


# The most gossip sends one round may hold. The simulator lists a round's
# send offsets and broadcasts n - 1 copies per send, so a round with millions
# of sends (a 10**400 µs round_length, say) would exhaust memory before its
# first tick. The largest configuration the repo runs, 360 ms rounds with
# 50 ms gossip, sends 6.
MAX_SENDS_PER_ROUND = 1_000

# The largest fleet: a trace grows as n**3. One second of `lockstep run --n N`
# (160 ms rounds, 2 shared cores) took 2.7 s, 43 MB peak RSS and a 302 MB trace
# at N = 128, and 13.0 s, 121 MB and a 2.37 GB trace at N = 256. N = 512 would
# write some 19 GB, past a budget of 60 s and 4 GB; N = 30,000 ran out of memory.
MAX_MEMBERS = 256


def require_int(name: str, value: Any) -> None:
    """Reject anything but an int: a float, a string, a list, or a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an int, got {value!r}")


def read_object(where: str, value: Any, required: Iterable[str] = (),
                optional: Iterable[str] = ()) -> dict:
    """``value``, once it is a JSON object with every ``required`` key and no
    key outside ``required`` and ``optional``. Every JSON object the program
    takes in is read here; an error names ``where``, the object's dotted path
    (``config.loss.rules[0]``, say). The constructors check kinds and ranges."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    allowed = {*required, *optional}
    for key in value:
        if key not in allowed:
            raise ConfigError(f"{where} has unknown field {key!r}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{where} lacks field {key!r}")
    return value


# The most bytes of one JSON text: a schedule, a scenario or a trace header.
# Four times the largest the repo will write: a schedule of one rule per drop
# takes 3.7 MB indented for the 43,375 drops of an acceptance-scale run.
MAX_INPUT_BYTES = 16 * 2**20


def read_json(what: str, read: Callable[[int], bytes]) -> Any:
    """The JSON value of the UTF-8 text of at most ``MAX_INPUT_BYTES`` that a
    file's ``read`` or ``readline`` returns. Every JSON text the program takes
    in is read here; an error begins with ``what`` (``cannot read scenario
    s.json``, say) and says why in the program's own terms."""
    if len(data := read(MAX_INPUT_BYTES + 1)) > MAX_INPUT_BYTES:
        raise ConfigError(f"{what}: the JSON text is longer than {MAX_INPUT_BYTES} bytes")
    try:
        return json.loads(data.decode())
    except UnicodeDecodeError as exc:
        why = f"it is not UTF-8 text at byte {exc.start}"
    except json.JSONDecodeError as exc:
        why = f"it is not JSON at line {exc.lineno}, column {exc.colno}"
    except RecursionError:
        why = "it is nested deeper than can be read"
    except ValueError:  # the one other error of json.loads: an int too long to convert
        why = f"it holds an integer of more than {sys.get_int_max_str_digits()} digits"
    raise ConfigError(f"{what}: {why}")


def read_kind(where: str, value: Any, kinds: dict[str, tuple[str, ...]]) -> str:
    """The ``kind`` of the object ``value``, whose other keys are those ``kinds`` gives it."""
    kind = read_object(where, value, ("kind",), [k for ks in kinds.values() for k in ks])["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where}.kind must be one of {', '.join(kinds)}, got {kind!r}")
    read_object(where, value, ("kind", *kinds[kind]))
    return kind


def read_list(where: str, value: Any, length: Optional[int] = None) -> list:
    """``value``, once it is a JSON array, of ``length`` items unless that is None."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        size = "" if length is None else f" of length {length}"
        raise ConfigError(f"{where} must be a JSON array{size}, got {value!r}")
    return value


@dataclass(frozen=True)
class ProtocolConfig:
    """Timing and membership parameters shared by all vehicles in a run.

    All durations are integer microseconds. The round must be long enough to
    fit the worst-case clock skew on both ends plus the worst-case message
    delay, i.e. round_length > 2 * sync_bound + maximum_delay (strictly,
    otherwise the send window is empty).
    """

    n: int
    round_length: int
    sync_bound: int
    maximum_delay: int
    gossip_interval: int

    def __post_init__(self) -> None:
        for f in fields(self):
            require_int(f.name, getattr(self, f.name))
        if not 1 <= self.n <= MAX_MEMBERS:
            raise ConfigError(f"n must be in 1..{MAX_MEMBERS}, got {self.n}")
        if self.sync_bound < 0 or self.maximum_delay <= 0:
            raise ConfigError("sync_bound must be >= 0 and maximum_delay > 0")
        if self.round_length <= 2 * self.sync_bound + self.maximum_delay:
            raise ConfigError(
                f"round_length must exceed 2*sync_bound + maximum_delay "
                f"({self.round_length} <= {2 * self.sync_bound + self.maximum_delay})"
            )
        if not 0 < self.gossip_interval <= self.send_window_length:
            raise ConfigError(
                f"gossip_interval must be in (0, {self.send_window_length}], "
                f"got {self.gossip_interval}"
            )
        if self.sends_per_round() > MAX_SENDS_PER_ROUND:
            raise ConfigError(
                f"round_length {self.round_length} holds more than {MAX_SENDS_PER_ROUND} "
                f"gossip sends of gossip_interval {self.gossip_interval}"
            )

    @property
    def send_window_length(self) -> int:
        return self.round_length - 2 * self.sync_bound - self.maximum_delay

    def sends_per_round(self) -> int:
        return self.send_window_length // self.gossip_interval + 1


class GossipMessage(NamedTuple):
    """Wire view of a sender's state: its round, its data vector and its ack mask.

    ``data[k-1]`` is member k's slot, DEFAULT while unacked; bit k - 1 of
    ``ack`` says the sender holds member k's datum of ``round``.
    """

    sender: int
    round: int
    data: tuple
    ack: int


class RoundOutput(NamedTuple):
    """Emitted on entering ``round``: snapshots of the previous round and the decision.

    ``s`` is the data vector and ``r`` the ack mask collected during the
    round that just ended; ``decision`` is DEFAULT exactly when ``r`` lacks a
    member's bit (``r != (1 << len(s)) - 1``), ``s`` holds DEFAULT or
    decide(s) returned DEFAULT.
    """

    round: int
    s: tuple
    r: int
    decision: Datum


def send_window(config: ProtocolConfig, round_index: int) -> tuple[int, int]:
    """The first and last local clock readings of the gossip window of ``round_index``.

    The window leaves sync_bound at the front (latest-clock members must have
    entered the round) and sync_bound + maximum_delay at the back (the message
    must land before the earliest-clock member leaves it).
    """
    lo = config.round_length * round_index + config.sync_bound
    hi = config.round_length * (round_index + 1) - (config.sync_bound + config.maximum_delay)
    return lo, hi


def checked_decide(decide: DecideFn, s: tuple) -> Datum:
    """DEFAULT when ``s`` holds DEFAULT, else ``decide(s)``.

    This is the one place the protocol absorbs DEFAULT: a vehicle that hears a
    member's fallback falls back too, whatever the application's ``decide``
    would say, and ``decide`` only ever sees a vector without DEFAULT.
    """
    return DEFAULT if any(map(is_default, s)) else decide(s)


class VehicleProtocol:
    """Protocol instance for one vehicle.

    Single-threaded by contract: the owner delivers receive events and ticks
    in local-timestamp order. Ticks carry the vehicle's local clock; the
    instance never reads time itself. ``next_send``, ``window_end`` and
    ``next_round_start`` belong to ``my_round``: ``_enter_round`` sets all
    four, once per round (a send moves ``next_send`` a gossip_interval on),
    so a tick compares its clock with them and divides only at a boundary.

    ``data[k-1]`` is member k's slot and bit k - 1 of ``mask`` its ack;
    ``own`` is this vehicle's bit and ``full`` the mask of every member.
    """

    __slots__ = ("config", "vid", "my_round", "data", "mask", "own", "full",
                 "next_send", "window_end", "next_round_start")

    def __init__(self, config: ProtocolConfig, vid: int, initial_datum: Datum) -> None:
        if not 1 <= vid <= config.n:
            raise ConfigError(f"vehicle id {vid} outside 1..{config.n}")
        self.config = config
        self.vid = vid
        self.own = 1 << (vid - 1)
        self.full = (1 << config.n) - 1
        self._enter_round(0)
        # The own slot is primed as if a round transition had just run.
        self.data = [DEFAULT] * config.n
        self.data[vid - 1] = initial_datum
        self.mask = self.own

    @property
    def ack(self) -> tuple[bool, ...]:
        """The ack mask as one bool per member, ``ack[k-1]`` for member k.

        A read-only view built on each read, for readers that count or
        compare slots (the benchmark's layer tracer counts ``True`` entries
        around each receive, and the tests compare states); the protocol
        itself reads ``mask``.
        """
        mask = self.mask
        return tuple([mask >> k & 1 == 1 for k in range(self.config.n)])

    def _enter_round(self, round_index: int) -> None:
        self.my_round = round_index
        self.next_send, self.window_end = send_window(self.config, round_index)
        self.next_round_start = self.config.round_length * (round_index + 1)

    def on_gossip_receive(self, msg: GossipMessage) -> None:
        """Fold a received view into this round's slots.

        Messages from other rounds are ignored. Slot k is taken when the
        sender vouches for it (its ack) or when it is the sender's own slot,
        and only while this vehicle has not acked it; the own slot is acked
        from the round's start and is therefore never overwritten. Those
        slots are the set bits of ``new``, visited lowest first.

        First copy wins. In round r every copy of slot k carries vehicle k's
        round-r datum, since vehicle k writes its own slot only at a round
        boundary and copies from other rounds are ignored. So a later copy of
        an acked slot would write the datum it already holds, and skipping it
        gives the same state as taking every copy.
        """
        mask = self.mask
        if mask == self.full or msg.round != self.my_round:
            return
        new = (msg.ack | 1 << (msg.sender - 1)) & ~mask
        self.mask = mask | new
        data = self.data
        mdata = msg.data
        while new:
            low = new & -new
            k = low.bit_length() - 1
            data[k] = mdata[k]
            new ^= low

    def on_tick(
        self,
        local_clock: int,
        read_state: ReadStateFn,
        decide: DecideFn,
    ) -> tuple[Optional[GossipMessage], Optional[RoundOutput]]:
        """Advance on a clock sample; returns (message to gossip, round output), each or None.

        The message is this vehicle's view, sent inside the window at most
        once per gossip_interval (the first tick of a round's window always
        sends). The output is emitted when the clock has crossed into a later
        round; local_clock must be non-decreasing across calls.
        """
        msg: Optional[GossipMessage] = None
        if self.next_send <= local_clock <= self.window_end:
            # tuple.__new__ builds the same NamedTuple as its constructor, in C.
            msg = tuple.__new__(GossipMessage, (self.vid, self.my_round, tuple(self.data), self.mask))
            self.next_send = local_clock + self.config.gossip_interval

        output: Optional[RoundOutput] = None
        if local_clock >= self.next_round_start:
            s = tuple(self.data)
            r = self.mask
            clock_round = local_clock // self.config.round_length
            self._enter_round(clock_round)
            self.data = [DEFAULT] * self.config.n
            self.mask = self.own
            if r != self.full:
                # Missed someone last round: the own slot stays DEFAULT for
                # this round and is gossiped, so everyone else falls back with us.
                output = tuple.__new__(RoundOutput, (clock_round, s, r, DEFAULT))
            else:
                self.data[self.vid - 1] = read_state()
                output = tuple.__new__(RoundOutput, (clock_round, s, r, checked_decide(decide, s)))
        return msg, output
