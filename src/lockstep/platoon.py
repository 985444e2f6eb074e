"""Cooperative platooning on top of the round protocol, with an ACC fallback.

Vehicles gossip their position, velocity, and the highest service level their
sensing currently supports. The shared decision is the minimum of those
levels, so the whole platoon always operates at a level every member can
meet. A default (failed-round) decision maps to the lowest level: autonomous
ACC on on-board sensing with the widest headway and the loosest acceleration
bound. Dynamics are a deliberately small 1-D kinematic chain, stepped once
per round.

Includes the three-vehicle worst-case outage scenario (the middle vehicle
stops receiving while the leader later brakes) in two flavors: running the
protocol, and a keep-last-known baseline that shows the tail vehicle
happily platooning through the outage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from enum import IntEnum
from typing import Optional

from .protocol import DEFAULT, ConfigError, Datum, ProtocolConfig, RoundOutput, is_default
from .sim import (
    App,
    DropRule,
    ScheduleLoss,
    SimConfig,
    Trace,
    run,
)


class ServiceLevel(IntEnum):
    """Total order of operating modes; higher levels need better information."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3

    def to_json(self) -> str:
        return self.name.lower()

    @staticmethod
    def from_json(name: str) -> "ServiceLevel":
        return ServiceLevel[name.upper()]


@dataclass(frozen=True)
class LevelParams:
    """Operating envelope of one service level.

    ``headway`` is the target gap to the predecessor; ``accel_bound`` the
    symmetric acceleration limit; the error bounds describe the information
    quality the level requires (None = unbounded / not required).
    """

    headway: float
    accel_bound: float
    position_error: Optional[float]
    velocity_error: Optional[float]


LevelTable = dict[ServiceLevel, LevelParams]


def default_level_table() -> LevelTable:
    return {
        ServiceLevel.HIGH: LevelParams(headway=5.0, accel_bound=2.0,
                                       position_error=0.5, velocity_error=0.5),
        ServiceLevel.MEDIUM: LevelParams(headway=10.0, accel_bound=3.0,
                                         position_error=None, velocity_error=0.5),
        ServiceLevel.LOW: LevelParams(headway=20.0, accel_bound=5.0,
                                      position_error=None, velocity_error=None),
    }


def validate_level_table(table: LevelTable) -> None:
    hi, med, lo = table[ServiceLevel.HIGH], table[ServiceLevel.MEDIUM], table[ServiceLevel.LOW]
    if not hi.headway < med.headway < lo.headway:
        raise ConfigError("headways must grow as the level drops")
    if not hi.accel_bound < med.accel_bound < lo.accel_bound:
        raise ConfigError("acceleration bounds must nest upward as the level drops")


def level_table_to_json(table: LevelTable) -> dict:
    return {level.to_json(): asdict(params) for level, params in sorted(table.items())}


def level_table_from_json(d: dict) -> LevelTable:
    return {
        ServiceLevel.from_json(name): LevelParams(
            headway=p["headway"],
            accel_bound=p["accel_bound"],
            position_error=p.get("position_error"),
            velocity_error=p.get("velocity_error"),
        )
        for name, p in d.items()
    }


@dataclass(frozen=True)
class PlatoonDatum:
    """One vehicle's gossip payload: its supportable level and kinematic state."""

    los: ServiceLevel
    x: float
    v: float

    def to_json(self) -> dict:
        return {"los": self.los.to_json(), "x": self.x, "v": self.v}


def min_level_decide(s: tuple) -> Datum:
    """Shared decision over bare ServiceLevel payloads: the minimum, absorbing DEFAULT."""
    if any(map(is_default, s)):
        return DEFAULT
    return min(s)


def platoon_decide(s: tuple) -> Datum:
    """Shared decision over PlatoonDatum payloads: the minimum supportable level."""
    if any(map(is_default, s)):
        return DEFAULT
    return min(d.los for d in s)


# ---------------------------------------------------------------------------
# World model
# ---------------------------------------------------------------------------

@dataclass
class VehicleBody:
    vid: int
    x: float
    v: float
    predecessor: Optional[int]  # None for the leader
    accel: float = 0.0


@dataclass
class World:
    """1-D kinematic platoon: leader in front (largest x), followers behind."""

    bodies: list[VehicleBody]
    table: LevelTable
    cruise_speed: float
    gap_gain: float = 0.3       # accel per meter of gap error
    speed_gain: float = 2.0     # accel per m/s of relative speed
    brake_start: Optional[int] = None  # global µs; leader decelerates from here on
    brake_decel: float = 0.0
    time: int = 0               # global µs, advanced by step()
    min_gap: float = field(default=float("inf"))

    def body(self, vid: int) -> VehicleBody:
        return self.bodies[vid - 1]

    def gap_behind_predecessor(self, vid: int) -> Optional[float]:
        body = self.body(vid)
        if body.predecessor is None:
            return None
        return self.body(body.predecessor).x - body.x

    def record_gaps(self) -> None:
        for body in self.bodies:
            if body.predecessor is not None:
                self.min_gap = min(self.min_gap, self.gap_behind_predecessor(body.vid))


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
    level = effective_level(decision)
    params = world.table[level]
    body = world.body(vid)
    bound = params.accel_bound
    if body.predecessor is None:
        if world.brake_start is not None and world.time >= world.brake_start:
            a = -world.brake_decel
        else:
            a = world.speed_gain * (world.cruise_speed - body.v)
        return max(-bound, min(bound, a))

    pred = body.predecessor
    shared = None
    if level > ServiceLevel.LOW and s:
        pd, sd = s[pred - 1], s[vid - 1]
        if not is_default(pd) and not is_default(sd):
            shared = (pd.x - sd.x, pd.v - sd.v)
    if shared is not None:
        gap, dv = shared
    else:
        gap = world.body(pred).x - body.x
        dv = world.body(pred).v - body.v
    a = world.gap_gain * (gap - params.headway) + world.speed_gain * dv
    return max(-bound, min(bound, a))


def step_world(world: World, dt_us: int) -> None:
    """Advance every vehicle by dt: v += a*dt (floored at 0), then x += v*dt."""
    dt = dt_us / 1e6
    for body in world.bodies:
        body.v = max(0.0, body.v + body.accel * dt)
        body.x += body.v * dt
    world.time += dt_us
    world.record_gaps()


# ---------------------------------------------------------------------------
# Worst-case outage scenario
# ---------------------------------------------------------------------------

# The numeric field annotations of ``ScenarioSpec`` and the types each accepts.
_NUMBER_KINDS = {"int": (int,), "float": (int, float)}


@dataclass(frozen=True)
class ScenarioSpec:
    """Three-vehicle platoon outage: the middle vehicle goes deaf, the leader brakes.

    From round ``outage_round`` every transmission toward the cut vehicle is
    dropped for ``outage_rounds`` rounds (its own messages still flow, so the
    others keep relaying its data). The leader starts braking
    ``brake_after_rounds`` rounds into the outage, by round ``horizon_rounds``;
    both spans must be at least two rounds for the fallback to develop.
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
    # Level envelopes as sorted (level, params) pairs; tuples keep the spec frozen.
    levels: tuple = tuple(sorted(default_level_table().items()))

    def __post_init__(self) -> None:
        for f in fields(self):
            kinds = _NUMBER_KINDS.get(f.type)
            value = getattr(self, f.name)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise ConfigError(f"scenario field {f.name!r} must be {f.type}, got {value!r}")
        if self.n < 2:
            raise ConfigError("a platoon needs at least two vehicles")
        if not 1 <= self.cut_vehicle <= self.n:
            raise ConfigError("cut vehicle outside the platoon")
        if self.brake_after_rounds < 2 or self.outage_rounds < 2:
            raise ConfigError("outage and brake offsets must each span at least two rounds")
        if self.brake_after_rounds >= self.outage_rounds:
            raise ConfigError("the brake must land inside the outage")
        if not 0 <= self.outage_round <= self.horizon_rounds - self.brake_after_rounds:
            raise ConfigError(f"outage_round must be in 0..{self.horizon_rounds - self.brake_after_rounds}"
                              f" so the brake lands by the horizon, got {self.outage_round}")
        self.sim_config()  # the timing a run would reject
        validate_level_table(self.level_table)

    @property
    def level_table(self) -> LevelTable:
        return dict(self.levels)

    @property
    def outage_start(self) -> int:
        return self.outage_round * self.round_length

    @property
    def outage_end(self) -> int:
        return (self.outage_round + self.outage_rounds) * self.round_length

    @property
    def brake_time(self) -> int:
        return (self.outage_round + self.brake_after_rounds) * self.round_length

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(self.n, self.round_length, self.sync_bound,
                              self.maximum_delay, self.gossip_interval)

    def sim_config(self) -> SimConfig:
        # Cutting every reception of the target vehicle is what the outage
        # means at message level: with gossip relaying, dropping single links
        # would be healed by the other members within the round.
        schedule = ScheduleLoss([
            DropRule(t0=self.outage_start, t1=self.outage_end - 1,
                     receiver=self.cut_vehicle),
        ])
        return SimConfig(
            protocol=self.protocol_config(),
            offsets=(0,) * self.n,
            loss=schedule,
            duration=self.horizon_rounds * self.round_length,
            seed=self.seed,
        )

    def build_world(self) -> World:
        table = self.level_table
        headway = table[self.initial_level].headway
        bodies = [
            VehicleBody(vid=vid, x=-headway * (vid - 1), v=self.cruise_speed,
                        predecessor=None if vid == 1 else vid - 1)
            for vid in range(1, self.n + 1)
        ]
        return World(bodies=bodies, table=table, cruise_speed=self.cruise_speed,
                     gap_gain=self.gap_gain, speed_gain=self.speed_gain,
                     brake_start=self.brake_time, brake_decel=self.brake_decel)

    def to_json(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "initial_level": self.initial_level.to_json(),
                "levels": level_table_to_json(self.level_table)}

    @staticmethod
    def from_json(d: dict) -> "ScenarioSpec":
        if not isinstance(d, dict):
            raise ConfigError(f"a scenario must be a JSON object, got {d!r}")
        try:
            return ScenarioSpec(**dict(
                d, initial_level=ServiceLevel.from_json(d["initial_level"]),
                levels=tuple(sorted(level_table_from_json(d["levels"]).items()))))
        except (AttributeError, KeyError, TypeError) as exc:  # missing, unknown or mistyped
            raise ConfigError(f"malformed scenario: {type(exc).__name__}: {exc}") from None


@dataclass(frozen=True)
class KinematicsRow:
    round: int
    vehicle: int
    x: float
    v: float
    gap: Optional[float]
    level: ServiceLevel


class PlatoonApp(App):
    """Protocol application driving the kinematic world.

    On every round boundary the world steps forward with the accelerations
    decided at the previous boundary (the app tick runs before the vehicle
    ticks at the same instant, so vehicles read fresh positions). Each round
    output turns into an acceleration command via ``control_accel``.
    """

    def __init__(self, scenario: ScenarioSpec) -> None:
        self.scenario = scenario
        self.world = scenario.build_world()
        self.rows: list[KinematicsRow] = []
        self.levels: dict[int, dict[int, ServiceLevel]] = {}

    def read_state(self, vid: int) -> PlatoonDatum:
        body = self.world.body(vid)
        return PlatoonDatum(self.scenario.initial_level, body.x, body.v)

    def decide(self, s: tuple) -> Datum:
        return platoon_decide(s)

    def app_tick_times(self):
        rl = self.scenario.round_length
        return range(rl, self.scenario.horizon_rounds * rl + 1, rl)

    def on_app_tick(self, t: int) -> None:
        step_world(self.world, self.scenario.round_length)

    def on_output(self, vid: int, output: RoundOutput, t: int) -> None:
        body = self.world.body(vid)
        body.accel = control_accel(self.world, vid, output.s, output.decision)
        level = effective_level(output.decision)
        self.levels.setdefault(output.round, {})[vid] = level
        self.rows.append(KinematicsRow(output.round, vid, body.x, body.v,
                                       self.world.gap_behind_predecessor(vid), level))

    def spec(self) -> dict:
        return {"kind": "platoon-worst-case", "scenario": self.scenario.to_json()}


class LevelApp(App):
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

    def spec(self) -> dict:
        return {"kind": "level", "level": self.level.to_json()}


def build_app(spec: dict) -> App:
    """Rebuild a recorded application from its ``App.spec``, for replay."""
    kind = spec.get("kind")
    try:
        if kind == "level":
            return LevelApp(ServiceLevel.from_json(spec["level"]))
        if kind == "platoon-worst-case":
            return PlatoonApp(ScenarioSpec.from_json(spec["scenario"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind!r} app spec: {type(exc).__name__}: {exc}") from None
    raise ConfigError(f"no app builder for kind {kind!r}")


@dataclass
class ScenarioResult:
    trace: Optional[Trace]
    rows: list[KinematicsRow]
    levels: dict[int, dict[int, ServiceLevel]]
    min_gap: float

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
    brake. The baseline's tail vehicle is read over the outage rounds
    u .. u+outage_rounds-1, the rounds ``run_baseline`` cuts.
    """
    u = scenario.outage_round
    low = ServiceLevel.LOW
    brake_round = u + scenario.brake_after_rounds
    initial_gap = scenario.level_table[scenario.initial_level].headway
    tail = [baseline_res.levels[r][scenario.n]
            for r in range(u, u + scenario.outage_rounds) if r in baseline_res.levels]
    return {
        "first_affected_round": u,
        "cut_vehicle_low_at": u + 1,
        "cut_vehicle_low_ok": protocol_res.levels[u + 1][scenario.cut_vehicle] == low,
        "all_low_at": u + 2,
        "all_low_ok": all(lv == low for lv in protocol_res.levels[u + 2].values()),
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
    return ScenarioResult(trace, app.rows, app.levels, app.world.min_gap)


def run_baseline(scenario: ScenarioSpec) -> ScenarioResult:
    """Keep-last-known baseline without the protocol, same outage and brake.

    Round granularity: each round a vehicle refreshes the entries it heard
    and keeps stale ones. It platoons at the minimum of the last-known
    levels, dropping to LOW (on-board ACC) only while its own predecessor's
    message is missing. The deaf vehicle's neighbors never notice anything.
    """
    scenario_rounds = scenario.horizon_rounds
    world = scenario.build_world()
    n = scenario.n
    last_known = {
        vid: {j: PlatoonDatum(scenario.initial_level, world.body(j).x, world.body(j).v)
              for j in range(1, n + 1)}
        for vid in range(1, n + 1)
    }
    rows: list[KinematicsRow] = []
    levels: dict[int, dict[int, ServiceLevel]] = {}

    for rnd in range(scenario_rounds):
        outage = scenario.outage_round <= rnd < scenario.outage_round + scenario.outage_rounds
        snapshot = {j: PlatoonDatum(scenario.initial_level, world.body(j).x, world.body(j).v)
                    for j in range(1, n + 1)}
        for vid in range(1, n + 1):
            missed_pred = False
            for j in range(1, n + 1):
                cut = outage and vid == scenario.cut_vehicle and j != vid
                if cut:
                    if j == world.body(vid).predecessor:
                        missed_pred = True
                else:
                    last_known[vid][j] = snapshot[j]
            if missed_pred:
                level = ServiceLevel.LOW
            else:
                level = min(d.los for d in last_known[vid].values())
            s = tuple(last_known[vid][j] for j in range(1, n + 1))
            decision = DEFAULT if level == ServiceLevel.LOW else level
            body = world.body(vid)
            body.accel = control_accel(world, vid, s, decision)
            levels.setdefault(rnd, {})[vid] = level
            rows.append(KinematicsRow(rnd, vid, body.x, body.v,
                                      world.gap_behind_predecessor(vid), level))
        step_world(world, scenario.round_length)

    return ScenarioResult(None, rows, levels, world.min_gap)


def write_kinematics_csv(path, rows: list[KinematicsRow]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "vehicle", "x", "v", "gap", "level"])
        for row in rows:
            writer.writerow([row.round, row.vehicle, f"{row.x:.6f}", f"{row.v:.6f}",
                             "" if row.gap is None else f"{row.gap:.6f}",
                             row.level.to_json()])
