"""Command-line driver: single runs, sweeps, brute-force verification, scenario.

Every command is a pure function of its flags and input files (all
randomness is seeded), writes artifacts rather than dashboards, and exits
0 on success, 1 when a property check or verification fails, 2 on usage
errors. Durations on the command line are milliseconds or seconds as named;
everything internal is integer microseconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import analysis, oracle
from .platoon import (
    SCENARIO_CHECKS,
    LevelApp,
    ScenarioSpec,
    ServiceLevel,
    kinematics_rows,
    level_from_json,
    min_level_decide,
    run_baseline,
    run_worst_case,
    scenario_facts,
)
from .protocol import ConfigError, ProtocolConfig, read_json
from .sim import (
    MAX_EVENTS,
    MAX_JOURNEY_EVENTS,
    BernoulliLoss,
    CompositeLoss,
    LossModel,
    ReplayMismatch,
    SimConfig,
    check_events,
    load_schedule,
    record,
    replay,
    round_journeys,
    sample_offsets,
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


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{text!r} is not a number") from None


def parse_loss(text: str) -> LossModel:
    kind, _, rest = text.partition(":")
    try:
        if kind == "bernoulli":
            return BernoulliLoss(_number(rest))
        if kind == "schedule":
            return load_schedule(rest)
        if kind == "composite":
            p, _, path = rest.partition(",")
            return CompositeLoss(_number(p), load_schedule(path))
    except (ConfigError, OSError) as exc:  # not a number, a readable file or a schedule
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

# The most cells a sweep grid may hold, all built before the first runs:
# 100,000 took 74 MB and 3.6 s to build (2 shared cores); each row adds 0.3 KB.
MAX_SWEEP_CELLS = 100_000


def sweep_cells(ns: Sequence[int], round_ms: Sequence[int], seeds: Sequence[int],
                duration_s: int = 360, sync_ms: int = 5, delay_ms: int = 100,
                gossip_ms: int = 50, drop_rate: Optional[float] = None) -> list[SimConfig]:
    """Every cell of the grid, each checked before any runs; drop rates default to the table."""
    if not (ns and round_ms and seeds):
        raise ConfigError("sweep axes must be non-empty")
    if (cells := len(ns) * len(round_ms) * len(seeds)) > MAX_SWEEP_CELLS:
        raise ConfigError(f"a sweep grid holds at most {MAX_SWEEP_CELLS} cells, "
                          f"got {len(ns)} x {len(round_ms)} x {len(seeds)} = {cells}")
    if min(ns) < 2:  # every row reports a drop rate, which needs transmissions
        raise ConfigError(f"sweep fleet sizes must be >= 2, got {min(ns)}")
    return [
        check_events(build_sim_config(n, rl, sync_ms, delay_ms, gossip_ms, BernoulliLoss(
            TABLE1_DROP_RATES.get(n, 0.15) if drop_rate is None else drop_rate), seed, duration_s),
            MAX_JOURNEY_EVENTS)
        for n in ns for rl in round_ms for seed in seeds
    ]


def _sweep_cell(config: SimConfig) -> dict:
    n = config.protocol.n
    # The round-level model on the simulator's own draws: no event loop runs,
    # and the decisions are the abstract model's over the completeness vectors.
    complete, delivers, drops = round_journeys(config)
    decisions = oracle.run_abstract(complete, min_level_decide, (ServiceLevel.HIGH,) * n)
    view = analysis.RoundView(n, len(complete), decisions, complete,
                              delivers=delivers, drops=drops)
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


def run_sweep(cells: list[SimConfig], processes: Optional[int] = None) -> list[dict]:
    """Run every sweep cell; cells are independent seeded simulations."""
    cpus = os.cpu_count() or 1
    # A worker per cell and per CPU at most: the cells are CPU-bound.
    processes = min(cpus if processes is None else processes, len(cells), cpus)
    if processes <= 1:
        return [_sweep_cell(c) for c in cells]
    import multiprocessing  # only a pool needs it
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


def write_csv(path: Path, rows: list[dict]) -> None:
    """The first row's keys as the header, then each row's values in order."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    loss = parse_loss(args.loss)
    config = build_sim_config(args.n, args.round_ms, args.sync_ms, args.delay_ms,
                              args.gossip_ms, loss, args.seed, args.duration_s)
    check_events(config, MAX_EVENTS)
    level = level_from_json("--level", args.level)
    directory = out_dir(args)
    trace_path = directory / "trace.jsonl"
    with open(trace_path, "w", newline="\n") as fh:  # a bad trace path fails before the run
        view = analysis.round_view(args.n, record(config, LevelApp(level), fh))
    reports = analysis.run_all_checks(view)
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
    cells = sweep_cells(args.n_list, args.round_ms_list, range(args.seed, args.seed + args.seeds),
                        args.duration_s, args.sync_ms, args.delay_ms, args.gossip_ms, args.drop_rate)
    directory = out_dir(args)
    rows = run_sweep(cells, processes=args.processes)
    results = directory / "sweep.csv"
    write_csv(results, rows)
    agg = aggregate_sweep(rows)
    plot = directory / "sweep_plot.csv"
    write_csv(plot, agg)
    print(f"results: {results}")
    print(f"plot data: {plot}")
    for row in agg:
        print(f"n={row['n']} round={row['round_ms']}ms "
              f"reliability={row['mean_reliability']:.4f} drop={row['mean_drop_rate']:.4f}")
    return 0 if all(r["p1"] and r["p2"] and r["p3"] for r in rows) else 1


def cmd_verify(args) -> int:
    oracle.check_size(args.n, args.rounds)  # before a state of n members is built
    mutate = args.mutate == "drop-default-write"
    read_state = (ServiceLevel.HIGH,) * args.n
    if args.trials is not None:
        report = oracle.sample_and_verify(args.n, args.rounds, args.trials, args.seed,
                                          min_level_decide, read_state, mutate)
    else:
        report = oracle.enumerate_and_verify(args.n, args.rounds, min_level_decide,
                                             read_state, mutate)
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.report_file:  # written first: a report that fails to write is not printed
        Path(args.report_file).write_text(text + "\n")
    print(text)
    return 0 if report.passed else 1


def cmd_scenario(args) -> int:
    scenario = ScenarioSpec()
    if args.scenario_json:
        with open(args.scenario_json, "rb") as fh:
            scenario = ScenarioSpec.from_json(read_json(f"cannot read scenario {fh.name}", fh.read))
    directory = out_dir(args)
    protocol_res = run_worst_case(scenario)
    baseline_res = run_baseline(scenario)

    protocol_res.trace.write(directory / "scenario_trace.jsonl")
    write_csv(directory / "scenario_protocol.csv", kinematics_rows(protocol_res.rows))
    write_csv(directory / "scenario_baseline.csv", kinematics_rows(baseline_res.rows))
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
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers separated by commas, got {text!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one line and exit 2, as for any bad input
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_run.add_argument("--level", default="high", help="level every vehicle reports")
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
    p_scen.add_argument("--scenario-json", help="load the full scenario from a JSON file")
    p_scen.add_argument("--out")
    p_scen.set_defaults(func=cmd_scenario)

    p_replay = sub.add_parser("replay", help="re-run a trace file and verify bit-identical output")
    p_replay.add_argument("trace")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The cyclic collector is paused for the whole call. No command makes
    # cyclic garbage that grows with its input: events, messages, vectors,
    # views and reports are tuples, lists and dataclasses, which reference
    # counting frees. Left on, the collector would rescan everything a command
    # holds, above all a scenario's events before its trace is written. For a
    # caller that had it on, the young generation (the parser's few hundred
    # cyclic objects) is collected before returning, not at the caller's next
    # allocation; tests/test_cli.py checks a command's cyclic garbage does not grow.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
            return code
        except BrokenPipeError:  # the reader left early: not bad input, and nothing more to say
            # The flush at exit cannot raise.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except (ConfigError, OSError) as exc:  # bad input, or a path that cannot be read or written
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if collecting:  # a caller that had the collector off keeps it off
            gc.collect(0)
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
