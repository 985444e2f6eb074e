"""Round-synchronous cooperation state machine for a single vehicle.

Each vehicle runs fixed-length communication rounds. Within a send window it
gossips its view ``<round, data, ack>``; at every round boundary it snapshots
the collected view and either applies the shared decision function (all
members heard from) or falls back to the default value for one round (some
member missing). The fallback value is itself gossiped, which is what pulls
the whole group onto the default within one further round.

Pure and clock-free: callers feed in receive events and clock ticks and get
back at most one message and one round output per tick. Times are integer µs.

Within a round every copy of slot k holds the same datum: vehicle k writes
its own slot only at a round boundary, and a receive takes slots only from a
message of its own round. So the first copy of a slot that arrives is the
one every later copy repeats, and a receive takes only the slots it has not
yet acked; it returns at once when it holds them all.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple, Optional


class ConfigError(ValueError):
    """Raised for timing or membership parameters that violate the protocol constraints."""


class DecideContractError(Exception):
    """Raised when an application decide() fails to absorb the default value."""


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

DecideFn = Callable[[tuple], Datum]
ReadStateFn = Callable[[], Datum]


# ``d is DEFAULT``, by identity and in C: any(map(is_default, s)) makes no Python call.
is_default: Callable[[Datum], bool] = functools.partial(operator.is_, DEFAULT)


def require_int(name: str, value: Any) -> None:
    """Reject anything but an int: a float, a string, a list, or a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an int, got {value!r}")


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
        if self.n < 1:
            raise ConfigError(f"need at least one vehicle, got n={self.n}")
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

    @property
    def send_window_length(self) -> int:
        return self.round_length - 2 * self.sync_bound - self.maximum_delay

    def sends_per_round(self) -> int:
        return self.send_window_length // self.gossip_interval + 1


class GossipMessage(NamedTuple):
    """Wire view of a sender's state: its round plus the data/ack vectors."""

    sender: int
    round: int
    data: tuple
    ack: tuple


class RoundOutput(NamedTuple):
    """Emitted on entering ``round``: snapshots of the previous round and the decision.

    ``s`` and ``r`` are the data and ack vectors collected during the round
    that just ended; ``decision`` is DEFAULT exactly when ``r`` has a false
    entry or decide(s) returned DEFAULT.
    """

    round: int
    s: tuple
    r: tuple
    decision: Datum


def in_send_window(config: ProtocolConfig, round_index: int, local_clock: int) -> bool:
    """True iff ``local_clock`` lies in the gossip window of ``round_index``.

    The window leaves sync_bound at the front (latest-clock members must have
    entered the round) and sync_bound + maximum_delay at the back (the message
    must land before the earliest-clock member leaves it).
    """
    lo = config.round_length * round_index + config.sync_bound
    hi = config.round_length * (round_index + 1) - (config.sync_bound + config.maximum_delay)
    return lo <= local_clock <= hi


def checked_decide(decide: DecideFn, s: tuple) -> Datum:
    """Apply ``decide`` and enforce default-absorption: DEFAULT in s forces DEFAULT out."""
    value = decide(s)
    if not is_default(value) and any(map(is_default, s)):
        raise DecideContractError(
            f"decide() returned {value!r} for an input containing DEFAULT"
        )
    return value


class VehicleProtocol:
    """Protocol instance for one vehicle.

    Single-threaded by contract: the owner delivers receive events and ticks
    in local-timestamp order. Ticks carry the vehicle's local clock; the
    instance never reads time itself.
    """

    __slots__ = ("config", "vid", "my_round", "data", "ack", "last_send_time")

    def __init__(self, config: ProtocolConfig, vid: int, initial_datum: Datum) -> None:
        if not 1 <= vid <= config.n:
            raise ConfigError(f"vehicle id {vid} outside 1..{config.n}")
        self.config = config
        self.vid = vid
        self.my_round = 0
        # data[k-1]/ack[k-1] are the slot for member k; own slot is primed as
        # if a round transition had just run.
        self.data = [DEFAULT] * config.n
        self.ack = [False] * config.n
        self.data[vid - 1] = initial_datum
        self.ack[vid - 1] = True
        self.last_send_time: Optional[int] = None

    def on_gossip_receive(self, msg: GossipMessage) -> None:
        """Fold a received view into this round's slots.

        Messages from other rounds are ignored. Slot k is taken when the
        sender vouches for it (its ack) or when it is the sender's own slot,
        and only while this vehicle has not acked it; the own slot is acked
        from the round's start and is therefore never overwritten.

        First copy wins. In round r every copy of slot k carries vehicle k's
        round-r datum, since vehicle k writes its own slot only at a round
        boundary and copies from other rounds are ignored. So a later copy of
        an acked slot would write the datum it already holds, and skipping it
        gives the same state as taking every copy.
        """
        ack = self.ack
        if msg.round != self.my_round or False not in ack:
            return
        data = self.data
        mdata = msg.data
        mack = msg.ack
        sender = msg.sender - 1
        for k, acked in enumerate(ack):
            if not acked and (mack[k] or k == sender):
                data[k] = mdata[k]
                ack[k] = True

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
        config = self.config
        msg: Optional[GossipMessage] = None
        if in_send_window(config, self.my_round, local_clock) and (
            self.last_send_time is None
            or local_clock - self.last_send_time >= config.gossip_interval
        ):
            # tuple.__new__ builds the same NamedTuple as its constructor, in C.
            msg = tuple.__new__(GossipMessage, (self.vid, self.my_round, tuple(self.data), tuple(self.ack)))
            self.last_send_time = local_clock

        output: Optional[RoundOutput] = None
        clock_round = local_clock // config.round_length
        if self.my_round < clock_round:
            s = tuple(self.data)
            r = tuple(self.ack)
            self.my_round = clock_round
            n = config.n
            self.data = [DEFAULT] * n
            self.ack = [False] * n
            self.ack[self.vid - 1] = True
            self.last_send_time = None
            if not all(r):
                # Missed someone last round: impose the default for one round
                # and gossip it so everyone else falls back with us.
                self.data[self.vid - 1] = DEFAULT
                output = tuple.__new__(RoundOutput, (clock_round, s, r, DEFAULT))
            else:
                self.data[self.vid - 1] = read_state()
                output = tuple.__new__(RoundOutput, (clock_round, s, r, checked_decide(decide, s)))
        return msg, output
