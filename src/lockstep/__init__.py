"""Round-synchronous cooperation with bounded disagreement.

A fleet agrees each round on a shared value gossiped over an unreliable
timed network; any member that misses a message pulls the whole group onto a
default fallback value within one round. The package bundles the protocol
state machine, a deterministic discrete-event simulator with replayable
traces, trace checkers for the stability properties, a brute-force
round-granularity verifier, and a vehicle-platooning application of the
whole stack.
"""

from .protocol import (
    DEFAULT,
    ConfigError,
    Datum,
    DecideContractError,
    GossipMessage,
    ProtocolConfig,
    RoundOutput,
    VehicleProtocol,
    in_send_window,
    is_default,
)
from .sim import (
    App,
    BernoulliLoss,
    CompositeLoss,
    DropRule,
    FixedDelay,
    ReplayMismatch,
    ScheduleLoss,
    SimConfig,
    Trace,
    UniformDelay,
    load_schedule,
    replay,
    run,
    sample_offsets,
    simulate,
)
from .analysis import (
    AnalysisError,
    PropertyReport,
    packet_drop_rate,
    reliability,
    run_all_checks,
)
from .oracle import (
    abstract_round,
    enumerate_and_verify,
    run_abstract,
    sample_and_verify,
)
from .platoon import (
    LevelApp,
    PlatoonDatum,
    ScenarioSpec,
    ServiceLevel,
    min_level_decide,
    platoon_decide,
    run_baseline,
    run_worst_case,
)

__version__ = "0.1.0"
