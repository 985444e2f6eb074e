"""Command-line driver: single runs, sweeps, brute-force verification, scenario.

Every command is a pure function of its flags and input files (all
randomness is seeded), writes artifacts rather than dashboards, and exits
0 on success, 1 when a property check or verification fails, 2 on usage
errors. Durations on the command line are milliseconds or seconds as named;
everything internal is integer microseconds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import analysis, oracle
from .platoon import (
    SCENARIO_CHECKS,
    LevelApp,
    ScenarioSpec,
    ServiceLevel,
    min_level_decide,
    run_baseline,
    run_worst_case,
    scenario_facts,
    write_kinematics_csv,
)
from .protocol import ConfigError, ProtocolConfig
from .sim import (
    BernoulliLoss,
    CompositeLoss,
    LossModel,
    ReplayMismatch,
    SimConfig,
    load_schedule,
    replay,
    run,
    sample_offsets,
    simulate,
)

# Per-fleet-size packet drop rates that calibrate the Bernoulli loss model
# to a realistic 802.11p-class radio environment.
TABLE1_DROP_RATES = {
    2: 0.1605357,
    3: 0.1436347,
    4: 0.159418,
    5: 0.141237,
    6: 0.1426173,
    7: 0.138037,
    8: 0.1713623,
}

OUT_DIR_ENV = "LOCKSTEP_OUT"


def out_dir(args) -> Path:
    """Create the output directory; commands call it before any simulation."""
    d = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def parse_loss(text: str) -> LossModel:
    kind, _, rest = text.partition(":")
    try:
        if kind == "bernoulli":
            return BernoulliLoss(float(rest))
        if kind == "schedule":
            return load_schedule(rest)
        if kind == "composite":
            p, _, path = rest.partition(",")
            return CompositeLoss(float(p), load_schedule(path))
    except (KeyError, OSError, TypeError, ValueError) as exc:  # not a number, or not a schedule
        raise ConfigError(f"bad loss spec {text!r}: {exc}") from None
    raise ConfigError(f"unknown loss spec {text!r} (bernoulli:P | schedule:FILE | composite:P,FILE)")


def build_sim_config(n: int, round_ms: int, sync_ms: int, delay_ms: int,
                     gossip_ms: int, loss: LossModel, seed: int,
                     duration_s: int) -> SimConfig:
    """A run of the whole rounds that fit in ``duration_s`` seconds."""
    protocol = ProtocolConfig(  # checks round_ms before it divides
        n=n,
        round_length=round_ms * 1000,
        sync_bound=sync_ms * 1000,
        maximum_delay=delay_ms * 1000,
        gossip_interval=gossip_ms * 1000,
    )
    rounds = (duration_s * 1000) // round_ms
    if rounds < 1:
        raise ConfigError(f"a {duration_s} s run holds no {round_ms} ms round")
    return SimConfig(
        protocol=protocol,
        offsets=sample_offsets(seed, n, protocol.sync_bound),
        loss=loss,
        duration=protocol.round_length * rounds,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Grid of reliability experiments; the drop rate defaults to the calibrated table."""

    ns: tuple[int, ...]
    round_ms: tuple[int, ...]
    seeds: tuple[int, ...]
    duration_s: int = 360
    sync_ms: int = 5
    delay_ms: int = 100
    gossip_ms: int = 50
    drop_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.ns and self.round_ms and self.seeds):
            raise ConfigError("sweep axes must be non-empty")
        if min(self.ns) < 2:  # every row reports a drop rate, which needs transmissions
            raise ConfigError(f"sweep fleet sizes must be >= 2, got {min(self.ns)}")
        self.cells()  # every cell is checked before the first one runs

    def cells(self) -> list[SimConfig]:
        return [
            build_sim_config(n, rl, self.sync_ms, self.delay_ms, self.gossip_ms,
                             BernoulliLoss(self.drop_rate if self.drop_rate is not None
                                           else TABLE1_DROP_RATES.get(n, 0.15)),
                             seed, self.duration_s)
            for n in self.ns
            for rl in self.round_ms
            for seed in self.seeds
        ]


def _sweep_cell(config: SimConfig) -> dict:
    n = config.protocol.n
    # The events are read as they are made: a cell holds no trace.
    view = analysis.round_view(n, simulate(config, LevelApp(ServiceLevel.HIGH)))
    reports = analysis.run_all_checks(view)
    return {
        "n": n,
        "round_ms": config.protocol.round_length // 1000,
        "loss": f"bernoulli:{config.loss.p}",
        "seed": config.seed,
        "reliability": analysis.reliability(view, ServiceLevel.HIGH),
        "drop_rate": analysis.packet_drop_rate(view),
        "p1": reports[0].passed,
        "p2": reports[1].passed,
        "p3": reports[2].passed,
    }


def run_sweep(spec: SweepSpec, processes: Optional[int] = None) -> list[dict]:
    """Run every sweep cell; cells are independent seeded simulations."""
    cells = spec.cells()
    if processes is None:
        processes = os.cpu_count() or 1
    processes = min(processes, len(cells))  # a worker per cell at most
    if processes <= 1:
        return [_sweep_cell(c) for c in cells]
    with multiprocessing.get_context("fork").Pool(processes) as pool:
        return pool.map(_sweep_cell, cells, chunksize=1)


def aggregate_sweep(rows: list[dict]) -> list[dict]:
    """Mean reliability and drop rate per (n, round_ms) cell."""
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        cells.setdefault((row["n"], row["round_ms"]), []).append(row)
    out = []
    for (n, rl), group in sorted(cells.items()):
        out.append({
            "n": n,
            "round_ms": rl,
            "mean_reliability": sum(r["reliability"] for r in group) / len(group),
            "mean_drop_rate": sum(r["drop_rate"] for r in group) / len(group),
            "seeds": len(group),
        })
    return out


def write_csv(path: Path, rows: list[dict], columns: Sequence[str]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    loss = parse_loss(args.loss)
    config = build_sim_config(args.n, args.round_ms, args.sync_ms, args.delay_ms,
                              args.gossip_ms, loss, args.seed, args.duration_s)
    level = ServiceLevel.from_json(args.level)
    directory = out_dir(args)
    trace_path = Path(args.trace_file) if args.trace_file else directory / "trace.jsonl"
    open(trace_path, "a").close()  # a trace path that cannot be written fails before the run
    trace = run(config, LevelApp(level))
    view = analysis.round_view(args.n, trace.events)
    reports = analysis.run_all_checks(view)
    trace.write(trace_path)
    try:
        drop_rate = analysis.packet_drop_rate(view)
    except analysis.AnalysisError:  # no transmissions: a fleet of one
        drop_rate = None
    report = {
        "rounds": view.rounds,
        "reliability": analysis.reliability(view, level),
        "drop_rate": drop_rate,
        "checks": [r.to_json() for r in reports],
    }
    report_path = directory / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    ok = all(r.passed for r in reports)
    print(f"trace: {trace_path}")
    print(f"report: {report_path}")
    for r in reports:
        print(f"{r.property_id}: {'pass' if r.passed else 'FAIL'}")
    print(f"reliability: {report['reliability']:.4f}")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    if args.processes is not None and args.processes < 1:
        raise ConfigError(f"--processes must be >= 1, got {args.processes}")
    spec = SweepSpec(
        ns=tuple(args.n_list),
        round_ms=tuple(args.round_ms_list),
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        duration_s=args.duration_s,
        sync_ms=args.sync_ms,
        delay_ms=args.delay_ms,
        gossip_ms=args.gossip_ms,
        drop_rate=args.drop_rate,
    )
    directory = out_dir(args)
    rows = run_sweep(spec, processes=args.processes)
    results = directory / "sweep.csv"
    write_csv(results, rows,
              ["n", "round_ms", "loss", "seed", "reliability", "drop_rate", "p1", "p2", "p3"])
    agg = aggregate_sweep(rows)
    plot = directory / "sweep_plot.csv"
    write_csv(plot, agg, ["n", "round_ms", "mean_reliability", "mean_drop_rate", "seeds"])
    print(f"results: {results}")
    print(f"plot data: {plot}")
    for row in agg:
        print(f"n={row['n']} round={row['round_ms']}ms "
              f"reliability={row['mean_reliability']:.4f} drop={row['mean_drop_rate']:.4f}")
    return 0 if all(r["p1"] and r["p2"] and r["p3"] for r in rows) else 1


def cmd_verify(args) -> int:
    mutate = args.mutate == "drop-default-write"
    if args.trials is not None:
        report = oracle.sample_and_verify(args.n, args.rounds, args.trials, args.seed,
                                          min_level_decide,
                                          read_state=(ServiceLevel.HIGH,) * args.n,
                                          drop_default_write=mutate)
    else:
        report = oracle.enumerate_and_verify(args.n, args.rounds, min_level_decide,
                                             read_state=(ServiceLevel.HIGH,) * args.n,
                                             drop_default_write=mutate)
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.report_file:  # written first: a report that fails to write is not printed
        Path(args.report_file).write_text(text + "\n")
    print(text)
    return 0 if report.passed else 1


def cmd_scenario(args) -> int:
    if args.scenario_json:
        try:
            spec = json.loads(Path(args.scenario_json).read_text())
        except (OSError, ValueError) as exc:  # unreadable, not text, or not JSON
            raise ConfigError(f"cannot read scenario {args.scenario_json}: {exc}") from None
        scenario = ScenarioSpec.from_json(spec)
    else:
        scenario = ScenarioSpec(
            round_length=args.round_ms * 1000,
            outage_round=args.outage_round,
            outage_rounds=args.outage_rounds,
            brake_after_rounds=args.brake_after_rounds,
            seed=args.seed,
        )
    directory = out_dir(args)
    protocol_res = run_worst_case(scenario)
    baseline_res = run_baseline(scenario)

    protocol_res.trace.write(directory / "scenario_trace.jsonl")
    write_kinematics_csv(directory / "scenario_protocol.csv", protocol_res.rows)
    write_kinematics_csv(directory / "scenario_baseline.csv", baseline_res.rows)
    (directory / "scenario.json").write_text(
        json.dumps(scenario.to_json(), indent=2, sort_keys=True) + "\n")

    facts = scenario_facts(scenario, protocol_res, baseline_res)
    (directory / "scenario_report.json").write_text(
        json.dumps(facts, indent=2, sort_keys=True) + "\n")
    for key in SCENARIO_CHECKS:
        print(f"{key}: {'pass' if facts[key] else 'FAIL'}")
    print(f"artifacts in {directory}")
    return 0 if all(facts[key] for key in SCENARIO_CHECKS) else 1


def cmd_replay(args) -> int:
    try:
        replay(args.trace)
    except ReplayMismatch as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{args.trace}: replay identical")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockstep",
        description="Round-synchronous cooperation protocol: simulate, verify, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_timing(p):
        p.add_argument("--sync-ms", type=int, default=5, help="clock sync bound (ms)")
        p.add_argument("--delay-ms", type=int, default=100, help="maximum message delay (ms)")
        p.add_argument("--gossip-ms", type=int, default=50, help="gossip retransmit interval (ms)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")

    p_run = sub.add_parser("run", help="run one simulation and check its trace")
    common_timing(p_run)
    p_run.add_argument("--round-ms", type=int, default=160, help="round length (ms)")
    p_run.add_argument("--n", type=int, default=4, help="number of vehicles")
    p_run.add_argument("--loss", default="bernoulli:0.15",
                       help="bernoulli:P | schedule:FILE | composite:P,FILE")
    p_run.add_argument("--duration-s", type=int, default=360, help="simulated seconds")
    p_run.add_argument("--level", default="high", choices=["low", "medium", "high"],
                       help="level every vehicle reports")
    p_run.add_argument("--trace-file", help="trace output path (default OUT/trace.jsonl)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="reliability sweep over fleet size and round length")
    common_timing(p_sweep)
    p_sweep.add_argument("--n-list", type=_int_list, default=list(range(2, 9)))
    p_sweep.add_argument("--round-ms-list", type=_int_list, default=[160, 260, 360])
    p_sweep.add_argument("--seeds", type=int, default=5, help="seeds per cell")
    p_sweep.add_argument("--duration-s", type=int, default=360)
    p_sweep.add_argument("--drop-rate", type=float, default=None,
                         help="override the calibrated per-n drop rates")
    p_sweep.add_argument("--processes", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="brute-force check of the round-granularity model")
    p_verify.add_argument("--n", type=int, default=3)
    p_verify.add_argument("--rounds", type=int, default=3)
    p_verify.add_argument("--trials", type=int, default=None,
                          help="sample this many random sequences instead of enumerating")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--mutate", choices=["drop-default-write"], default=None,
                          help="inject a protocol bug to confirm the verifier catches it")
    p_verify.add_argument("--report-file")
    p_verify.set_defaults(func=cmd_verify)

    p_scen = sub.add_parser("scenario", help="three-vehicle worst-case outage, protocol vs baseline")
    p_scen.add_argument("--round-ms", type=int, default=ScenarioSpec.round_length // 1000)
    p_scen.add_argument("--outage-round", type=int, default=ScenarioSpec.outage_round)
    p_scen.add_argument("--outage-rounds", type=int, default=ScenarioSpec.outage_rounds)
    p_scen.add_argument("--brake-after-rounds", type=int, default=ScenarioSpec.brake_after_rounds)
    p_scen.add_argument("--seed", type=int, default=ScenarioSpec.seed)
    p_scen.add_argument("--scenario-json", help="load the full scenario from a JSON file")
    p_scen.add_argument("--out")
    p_scen.set_defaults(func=cmd_scenario)

    p_replay = sub.add_parser("replay", help="re-run a trace file and verify bit-identical output")
    p_replay.add_argument("trace")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader left early: not bad input, and nothing more to say
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit cannot raise
        return 1
    except (ConfigError, OSError) as exc:  # bad input, or a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
