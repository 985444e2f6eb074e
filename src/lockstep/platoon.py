"""Cooperative platooning on top of the round protocol, with an ACC fallback.

Vehicles gossip their position, velocity, and the highest service level their
sensing currently supports. The shared decision is the minimum of those
levels, so the whole platoon always operates at a level every member can
meet. A default (failed-round) decision maps to the lowest level: autonomous
ACC on on-board sensing with the widest headway and the loosest acceleration
bound. Dynamics are a deliberately small 1-D kinematic chain, the ``World``
built from a ``ScenarioSpec`` and stepped once per round.

Includes the three-vehicle worst-case outage scenario (the middle vehicle
stops receiving while the leader later brakes) in two flavors: running the
protocol, and a keep-last-known baseline that shows the tail vehicle
happily platooning through the outage. Both turn each vehicle's decision
into an acceleration through ``World.command``, which records one
``KinematicsRow``; a run's levels are read off those rows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from enum import IntEnum
from typing import Optional

from .protocol import (ConfigError, Datum, ProtocolConfig, RoundOutput, is_default, read_kind,
                       read_object)
from .sim import (
    MAX_EVENTS,
    DropRule,
    ScheduleLoss,
    SimConfig,
    Trace,
    check_events,
    run,
)


class ServiceLevel(IntEnum):
    """Total order of operating modes; higher levels need better information."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3

    def to_json(self) -> str:
        return self.name.lower()


# The names a level may be given, in order.
_LEVEL_KEYS = tuple(level.to_json() for level in ServiceLevel)
_LEVEL_NAMES = ", ".join(_LEVEL_KEYS)


def level_from_json(where: str, name) -> ServiceLevel:
    """The level ``name`` names; an error names the field, ``where``, and the levels allowed."""
    if isinstance(name, str) and name.upper() in ServiceLevel.__members__:
        return ServiceLevel[name.upper()]
    raise ConfigError(f"{where} must name one of {_LEVEL_NAMES}, got {name!r}")


def _finite(value) -> bool:
    """True for an int or a float, not a bool, that is neither infinite nor NaN.

    An int too large for a float counts as infinite: the physics run in floats.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class LevelParams:
    """Operating envelope of one service level.

    ``headway`` is the target gap to the predecessor; ``accel_bound`` the
    symmetric acceleration limit; both are finite and > 0. The error bounds
    describe the information quality the level requires: a finite number
    >= 0, or None (unbounded / not required).
    """

    headway: float
    accel_bound: float
    position_error: Optional[float] = None
    velocity_error: Optional[float] = None


def levels_from_json(d: dict, where: str) -> tuple:
    """The levels ``d`` gives, as ``ScenarioSpec.levels`` holds them; None for
    a level ``d`` omits, which the spec then names."""
    read_object(where, d, optional=_LEVEL_KEYS)
    return tuple(LevelParams(**read_object(f"{where}.{name}", d[name], ("headway", "accel_bound"),
                                           ("position_error", "velocity_error")))
                 if name in d else None for name in _LEVEL_KEYS)


@dataclass(frozen=True)
class PlatoonDatum:
    """One vehicle's gossip payload: its supportable level and kinematic state."""

    los: ServiceLevel
    x: float
    v: float

    def to_json(self) -> dict:
        return {"los": self.los.to_json(), "x": self.x, "v": self.v}


def min_level_decide(s: tuple) -> Datum:
    """Shared decision over bare ServiceLevel payloads: the minimum.

    ``s`` never holds DEFAULT: the protocol absorbs it (``checked_decide``).
    """
    return min(s)


def platoon_decide(s: tuple) -> Datum:
    """Shared decision over PlatoonDatum payloads: the minimum supportable level.

    ``s`` never holds DEFAULT: the protocol absorbs it (``checked_decide``).
    """
    return min(d.los for d in s)


# ---------------------------------------------------------------------------
# World model
# ---------------------------------------------------------------------------

@dataclass
class VehicleBody:
    x: float
    v: float
    accel: float = 0.0


@dataclass(frozen=True)
class KinematicsRow:
    round: int
    vehicle: int
    x: float
    v: float
    gap: Optional[float]
    level: ServiceLevel


class World:
    """1-D kinematic platoon of a scenario: vehicle 1 leads (largest x), i follows i-1.

    Every vehicle starts at the cruise speed, spaced by the initial level's
    headway. The controller's gains, the cruise speed and the leader's brake
    are read from ``scenario``. ``command`` sets one vehicle's acceleration
    for a decided level and records its ``KinematicsRow``; ``step_world``
    moves every vehicle and keeps the smallest gap seen.
    """

    def __init__(self, scenario: ScenarioSpec) -> None:
        self.scenario = scenario
        headway = scenario.levels[scenario.initial_level - 1].headway
        self.bodies = [VehicleBody(-headway * i, scenario.cruise_speed) for i in range(scenario.n)]
        self.time = 0  # global µs, advanced by step_world
        self.min_gap = float("inf")
        self.rows: list[KinematicsRow] = []

    def body(self, vid: int) -> VehicleBody:
        return self.bodies[vid - 1]

    def gap_behind_predecessor(self, vid: int) -> Optional[float]:
        return None if vid == 1 else self.body(vid - 1).x - self.body(vid).x

    def datum(self, vid: int) -> PlatoonDatum:
        body = self.body(vid)
        return PlatoonDatum(self.scenario.initial_level, body.x, body.v)

    def command(self, rnd: int, vid: int, s: tuple, decision: Datum) -> None:
        """Set vehicle vid's acceleration for round rnd's decision and record its row."""
        body = self.body(vid)
        body.accel = control_accel(self, vid, s, decision)
        gap = self.gap_behind_predecessor(vid)
        self.rows.append(KinematicsRow(rnd, vid, body.x, body.v, gap, effective_level(decision)))


def effective_level(decision: Datum) -> ServiceLevel:
    """A failed round means no cooperative guarantee: operate at LOW."""
    return ServiceLevel.LOW if is_default(decision) else ServiceLevel(decision)


def control_accel(world: World, vid: int, s: tuple, decision: Datum) -> float:
    """Acceleration command for one vehicle given the jointly decided level.

    The leader tracks the cruise speed (or brakes when the brake event is
    active). A follower regulates the gap to its predecessor toward the
    level's headway: from the gossiped snapshot in ``s`` when cooperating,
    from on-board relative sensing (world truth) at LOW. Always clipped to
    the level's acceleration bound.
    """
    spec = world.scenario
    level = effective_level(decision)
    params = spec.levels[level - 1]
    body = world.body(vid)
    if vid == 1:
        if world.time >= spec.brake_time:
            a = -spec.brake_decel
        else:
            a = spec.speed_gain * (spec.cruise_speed - body.v)
    else:
        ahead = world.body(vid - 1)
        if level > ServiceLevel.LOW and s and not any(map(is_default, s[vid - 2:vid])):
            ahead, body = s[vid - 2], s[vid - 1]  # cooperating: the gossiped snapshot
        gap, dv = ahead.x - body.x, ahead.v - body.v
        a = spec.gap_gain * (gap - params.headway) + spec.speed_gain * dv
    return max(-params.accel_bound, min(params.accel_bound, a))


def step_world(world: World, dt_us: int) -> None:
    """Advance every vehicle by dt: v += a*dt (floored at 0), then x += v*dt.

    Then fold every follower's gap into ``world.min_gap``.
    """
    dt = dt_us / 1e6
    for body in world.bodies:
        body.v = max(0.0, body.v + body.accel * dt)
        body.x += body.v * dt
    world.time += dt_us
    for vid in range(2, len(world.bodies) + 1):
        world.min_gap = min(world.min_gap, world.gap_behind_predecessor(vid))


# ---------------------------------------------------------------------------
# Worst-case outage scenario
# ---------------------------------------------------------------------------

# The numeric field annotations of ``ScenarioSpec`` and the types each accepts.
_NUMBER_KINDS = {"int": (int,), "float": (int, float)}


@dataclass(frozen=True)
class ScenarioSpec:
    """Platoon outage: the cut vehicle goes deaf, the leader brakes.

    By default three vehicles, and the middle one is cut. From round ``outage_round`` every transmission toward the cut vehicle is
    dropped for ``outage_rounds`` rounds (its own messages still flow, so the
    others keep relaying its data), and it must end by round ``horizon_rounds``.
    The leader starts braking ``brake_after_rounds`` rounds into the outage;
    both spans must be at least two rounds for the fallback to develop.
    The physics, ``cruise_speed``, ``brake_decel``, ``gap_gain`` and
    ``speed_gain``, must be finite and > 0; none of them may be 0. Of the
    numbers, only ``outage_round`` and a level's error bounds may be 0.
    """

    n: int = 3
    round_length: int = 260_000
    sync_bound: int = 5_000
    maximum_delay: int = 100_000
    gossip_interval: int = 50_000
    outage_round: int = 20
    outage_rounds: int = 10
    brake_after_rounds: int = 6
    cut_vehicle: int = 2
    horizon_rounds: int = 40
    initial_level: ServiceLevel = ServiceLevel.MEDIUM
    cruise_speed: float = 20.0
    brake_decel: float = 5.0
    gap_gain: float = 0.3
    speed_gain: float = 2.0
    seed: int = 1
    # The envelope of each level, in ServiceLevel order: LOW, MEDIUM, HIGH.
    levels: tuple = (
        LevelParams(headway=20.0, accel_bound=5.0),
        LevelParams(headway=10.0, accel_bound=3.0, velocity_error=0.5),
        LevelParams(headway=5.0, accel_bound=2.0, position_error=0.5, velocity_error=0.5),
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            kinds = _NUMBER_KINDS.get(f.type)
            value = getattr(self, f.name)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise ConfigError(f"scenario field {f.name!r} must be {f.type}, got {value!r}")
        for name in ("cruise_speed", "brake_decel", "gap_gain", "speed_gain"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ConfigError(f"scenario field {name!r} must be finite and > 0, got {value!r}")
        if self.n < 2:
            raise ConfigError("a platoon needs at least two vehicles")
        if not 1 <= self.cut_vehicle <= self.n:
            raise ConfigError("cut vehicle outside the platoon")
        if self.brake_after_rounds < 2 or self.outage_rounds < 2:
            raise ConfigError("outage and brake offsets must each span at least two rounds")
        if self.brake_after_rounds >= self.outage_rounds:
            raise ConfigError("the brake must land inside the outage")
        if self.horizon_rounds < self.outage_rounds:
            raise ConfigError(f"scenario field 'horizon_rounds' must be at least outage_rounds"
                              f" ({self.outage_rounds}), got {self.horizon_rounds}")
        if not 0 <= self.outage_round <= self.horizon_rounds - self.outage_rounds:
            raise ConfigError(f"outage_round must be in 0..{self.horizon_rounds - self.outage_rounds}"
                              f" so the outage ends by the horizon, got {self.outage_round}")
        check_events(self.sim_config(), MAX_EVENTS)  # the timing and size a run would reject
        # One LevelParams per level, in level order, widening as the level drops.
        given = [key for key, params in zip(_LEVEL_KEYS, self.levels) if params is not None]
        if len(given) != len(self.levels) or len(given) != len(_LEVEL_KEYS):
            raise ConfigError(f"scenario field 'levels' must give each of {_LEVEL_NAMES}, "
                              f"got {', '.join(given) or 'none'}")
        for key, params in zip(_LEVEL_KEYS, self.levels):
            where = f"scenario field 'levels' {key}"
            for name in ("headway", "accel_bound"):
                value = getattr(params, name)
                if not (_finite(value) and value > 0):
                    raise ConfigError(f"{where} {name} must be finite and > 0, got {value!r}")
            for name in ("position_error", "velocity_error"):
                value = getattr(params, name)
                if value is not None and not (_finite(value) and value >= 0):
                    raise ConfigError(f"{where} {name} must be null or finite and >= 0, "
                                      f"got {value!r}")
        lo, med, hi = self.levels
        if not hi.headway < med.headway < lo.headway:
            raise ConfigError("headways must grow as the level drops")
        if not hi.accel_bound < med.accel_bound < lo.accel_bound:
            raise ConfigError("acceleration bounds must nest upward as the level drops")

    @property
    def outage_start(self) -> int:
        return self.outage_round * self.round_length

    @property
    def outage_end(self) -> int:
        return (self.outage_round + self.outage_rounds) * self.round_length

    @property
    def brake_time(self) -> int:
        return (self.outage_round + self.brake_after_rounds) * self.round_length

    def sim_config(self) -> SimConfig:
        # A bad timing is named before the outage rule reads it.
        protocol = ProtocolConfig(self.n, self.round_length, self.sync_bound,
                                  self.maximum_delay, self.gossip_interval)
        # Cutting every reception of the target vehicle is what the outage
        # means at message level: with gossip relaying, dropping single links
        # would be healed by the other members within the round.
        schedule = ScheduleLoss([
            DropRule(t0=self.outage_start, t1=self.outage_end - 1,
                     receiver=self.cut_vehicle),
        ])
        return SimConfig(
            protocol=protocol,
            offsets=(0,) * self.n,
            loss=schedule,
            duration=self.horizon_rounds * self.round_length,
            seed=self.seed,
        )

    def to_json(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "initial_level": self.initial_level.to_json(),
                "levels": dict(zip(_LEVEL_KEYS, map(asdict, self.levels)))}

    @staticmethod
    def from_json(d: dict, where: str = "scenario") -> "ScenarioSpec":
        """The scenario a JSON object gives; a field it omits takes its default."""
        d = dict(read_object(where, d, optional=[f.name for f in fields(ScenarioSpec)]))
        if "initial_level" in d:
            d["initial_level"] = level_from_json(f"{where}.initial_level", d["initial_level"])
        if "levels" in d:
            d["levels"] = levels_from_json(d["levels"], f"{where}.levels")
        return ScenarioSpec(**d)


class PlatoonApp:
    """Protocol application driving the kinematic world.

    On every round boundary the world steps forward with the accelerations
    decided at the previous boundary (the app tick runs before the vehicle
    ticks at the same instant, so vehicles read fresh positions). Each round
    output turns into an acceleration command via ``World.command``.
    """

    def __init__(self, scenario: ScenarioSpec) -> None:
        self.scenario = scenario
        self.world = World(scenario)

    def read_state(self, vid: int) -> PlatoonDatum:
        return self.world.datum(vid)

    def decide(self, s: tuple) -> Datum:
        return platoon_decide(s)

    def app_tick_times(self):
        rl = self.scenario.round_length
        return range(rl, self.scenario.horizon_rounds * rl + 1, rl)

    def on_app_tick(self, t: int) -> None:
        step_world(self.world, self.scenario.round_length)

    def on_output(self, vid: int, output: RoundOutput, t: int) -> None:
        self.world.command(output.round, vid, output.s, output.decision)

    def spec(self) -> dict:
        return {"kind": "platoon-worst-case", "scenario": self.scenario.to_json()}


class LevelApp:
    """Evaluation application: every vehicle always supports a fixed level.

    Payloads are bare ServiceLevel values and the decision is their minimum,
    so a failure-free round decides the configured level everywhere.
    """

    def __init__(self, level: ServiceLevel = ServiceLevel.HIGH) -> None:
        self.level = level

    def read_state(self, vid: int) -> ServiceLevel:
        return self.level

    def decide(self, s: tuple) -> Datum:
        return min_level_decide(s)

    def on_output(self, vid: int, output: RoundOutput, t: int) -> None:
        pass

    def app_tick_times(self) -> tuple:
        return ()

    def on_app_tick(self, t: int) -> None:
        pass

    def spec(self) -> dict:
        return {"kind": "level", "level": self.level.to_json()}


def build_app(spec: dict) -> "LevelApp | PlatoonApp":
    """Rebuild a recorded application from its ``spec()``, for replay."""
    kind = read_kind("app", spec, {"level": ("level",), "platoon-worst-case": ("scenario",)})
    if kind == "level":
        return LevelApp(level_from_json("app.level", spec["level"]))
    return PlatoonApp(ScenarioSpec.from_json(spec["scenario"], "app.scenario"))


@dataclass
class ScenarioResult:
    trace: Optional[Trace]
    rows: list[KinematicsRow]
    min_gap: float

    @property
    def levels(self) -> dict[int, dict[int, ServiceLevel]]:
        """round -> vehicle -> the level that vehicle drove at, read off the rows."""
        levels: dict[int, dict[int, ServiceLevel]] = {}
        for row in self.rows:
            levels.setdefault(row.round, {})[row.vehicle] = row.level
        return levels

    def gap_at(self, rnd: int, vid: int) -> Optional[float]:
        for row in self.rows:
            if row.round == rnd and row.vehicle == vid:
                return row.gap
        return None


# The facts of ``scenario_facts`` that must hold for the scenario to pass.
SCENARIO_CHECKS = ("cut_vehicle_low_ok", "all_low_ok", "gaps_open_before_brake",
                   "min_gap_positive", "baseline_tail_stays_initial")


def scenario_facts(scenario: ScenarioSpec, protocol_res: ScenarioResult,
                   baseline_res: ScenarioResult) -> dict:
    """What the worst case showed, protocol run against baseline run.

    The protocol must put the cut vehicle on LOW one round after the outage
    begins and every vehicle one round later, and open every gap before the
    brake. The baseline's tail is read over the outage rounds
    u .. u+outage_rounds-1, the rounds ``run_baseline`` cuts: the last vehicle
    that is not cut, since a deaf vehicle drives LOW there by design.
    """
    u = scenario.outage_round
    low = ServiceLevel.LOW
    brake_round = u + scenario.brake_after_rounds
    initial_gap = scenario.levels[scenario.initial_level - 1].headway
    levels, baseline_levels = protocol_res.levels, baseline_res.levels
    tail_vehicle = scenario.n if scenario.cut_vehicle != scenario.n else scenario.n - 1
    tail = [baseline_levels[r][tail_vehicle]
            for r in range(u, u + scenario.outage_rounds) if r in baseline_levels]
    return {
        "first_affected_round": u,
        "cut_vehicle_low_at": u + 1,
        "cut_vehicle_low_ok": levels[u + 1][scenario.cut_vehicle] == low,
        "all_low_at": u + 2,
        "all_low_ok": all(lv == low for lv in levels[u + 2].values()),
        "gaps_open_before_brake": all(
            (protocol_res.gap_at(brake_round, vid) or 0.0) > initial_gap
            for vid in range(2, scenario.n + 1)
        ),
        "min_gap": protocol_res.min_gap,
        "min_gap_positive": protocol_res.min_gap > 0,
        "baseline_tail_vehicle_level": [lv.to_json() for lv in tail],
        "baseline_tail_stays_initial": all(lv == scenario.initial_level for lv in tail),
        "baseline_min_gap": baseline_res.min_gap,
    }


def run_worst_case(scenario: ScenarioSpec) -> ScenarioResult:
    """Run the outage scenario with the protocol in the loop."""
    app = PlatoonApp(scenario)
    trace = run(scenario.sim_config(), app)
    return ScenarioResult(trace, app.world.rows, app.world.min_gap)


def run_baseline(scenario: ScenarioSpec) -> ScenarioResult:
    """Keep-last-known baseline without the protocol, same outage and brake.

    Round granularity: each round a vehicle hears every current datum, except
    the cut vehicle during the outage, which refreshes only its own slot and
    keeps the stale rest. A vehicle platoons at the minimum of its last-known
    levels, and drops to LOW (on-board ACC) only while it is deaf and has a
    predecessor to miss. The deaf vehicle's neighbors never notice anything.
    """
    world = World(scenario)
    vids = range(1, scenario.n + 1)
    last_known = [[world.datum(j) for j in vids] for _ in vids]
    for rnd in range(scenario.horizon_rounds):
        outage = scenario.outage_round <= rnd < scenario.outage_round + scenario.outage_rounds
        for vid, known in zip(vids, last_known):
            deaf = outage and vid == scenario.cut_vehicle
            if deaf:
                known[vid - 1] = world.datum(vid)
            else:
                known[:] = [world.datum(j) for j in vids]
            level = ServiceLevel.LOW if deaf and vid > 1 else min(d.los for d in known)
            world.command(rnd, vid, tuple(known), level)
        step_world(world, scenario.round_length)
    return ScenarioResult(None, world.rows, world.min_gap)


def kinematics_rows(rows: list[KinematicsRow]) -> list[dict]:
    """CSV rows: x, v and gap to 6 decimals, an empty gap for the leader, the level's name."""
    return [{"round": row.round, "vehicle": row.vehicle, "x": f"{row.x:.6f}",
             "v": f"{row.v:.6f}", "gap": "" if row.gap is None else f"{row.gap:.6f}",
             "level": row.level.to_json()}
            for row in rows]
