"""Acceptance suite: one test per criterion, each printing a pass line.

Heavy criteria parallelize across independent seeded simulations; every
expectation and tolerance is pinned here, not computed from the run.
"""

import multiprocessing
import random
import time

import pytest

from lockstep import oracle
from lockstep.analysis import run_all_checks
from lockstep.cli import aggregate_sweep, main, run_sweep, sweep_cells
from lockstep.platoon import (
    LevelApp,
    ScenarioSpec,
    ServiceLevel,
    min_level_decide,
    run_baseline,
    run_worst_case,
)
from lockstep.protocol import DEFAULT, ConfigError, ProtocolConfig
from lockstep.sim import BernoulliLoss, DropRule, ScheduleLoss, replay, run

from conftest import MS, make_sim_config, simulated_view

HIGH = ServiceLevel.HIGH
LOW = ServiceLevel.LOW
MEDIUM = ServiceLevel.MEDIUM
PROCESSES = 2


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


# ---------------------------------------------------------------------------
# 1. Exhaustive oracle verification
# ---------------------------------------------------------------------------

def test_criterion_1_exhaustive_oracle():
    started = time.monotonic()
    r2 = oracle.enumerate_and_verify(2, 3, min_level_decide, (HIGH, HIGH))
    assert r2.passed and r2.patterns_checked == 64
    r3 = oracle.enumerate_and_verify(3, 3, min_level_decide, (HIGH,) * 3)
    assert r3.passed and r3.patterns_checked == 262_144
    mutant = oracle.enumerate_and_verify(2, 3, min_level_decide, (HIGH, HIGH),
                                         drop_default_write=True)
    assert not mutant.passed and mutant.counterexample is not None
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _announce(1, f"64 + 262,144 patterns verified, mutant caught, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Oracle/simulator equivalence on adversarial schedules
# ---------------------------------------------------------------------------

def _random_schedule(rng, n, rounds):
    rules = []
    q = rng.choice([0.05, 0.1, 0.2, 0.3])
    for r in range(rounds):
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                if i != j and rng.random() < q:
                    rules.append(DropRule(round=r, sender=j, receiver=i))
    if rng.random() < 0.5:
        victim = rng.randrange(1, n + 1)
        rules.append(DropRule(round=rng.randrange(1, rounds), receiver=victim))
    return ScheduleLoss(rules)


def _equivalence_case(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    rounds = 20
    config = make_sim_config(n=n, rounds=rounds + 1, seed=seed,
                             loss=_random_schedule(rng, n, rounds))
    view = simulated_view(config, LevelApp(HIGH))
    expected = oracle.run_abstract(view.complete, min_level_decide, (HIGH,) * n)
    unstable = sum(1 for c in view.complete if not all(c))
    return view.decisions == expected, unstable


def test_criterion_2_oracle_simulator_equivalence():
    unstable_total = 0
    for seed in range(100, 200):
        ok, unstable = _equivalence_case(seed)
        assert ok, f"decision mismatch for schedule seed {seed}"
        unstable_total += unstable
    assert unstable_total > 100  # the schedules genuinely disturb the runs
    _announce(2, f"100 adversarial schedules ({unstable_total} unstable rounds), "
                 f"timed decisions == abstract model")


# ---------------------------------------------------------------------------
# 3. Bounded disagreement as a universal test
# ---------------------------------------------------------------------------

THEOREM_GRID = [(n, p) for n in range(2, 9) for p in (0.05, 0.15, 0.3, 0.5)]


def _theorem_cell(args):
    idx, seed = args
    n, p = THEOREM_GRID[idx % len(THEOREM_GRID)]
    config = make_sim_config(n=n, rounds=200, seed=seed, loss=BernoulliLoss(p))
    view = simulated_view(config, LevelApp(HIGH))
    reports = run_all_checks(view)
    stable = [all(c) for c in view.complete]
    isolated_checked = 0
    isolated_clean = True
    for u in range(1, view.rounds - 1):
        if (not stable[u] and stable[u - 1]
                and u + 2 < view.rounds and stable[u + 1] and stable[u + 2]
                and u + 3 <= view.rounds):
            isolated_checked += 1
            if any(d != HIGH for d in view.decisions[u + 3 - 1]):
                isolated_clean = False
    return all(r.passed for r in reports), isolated_checked, isolated_clean


def test_criterion_3_theorem_holds_over_seeded_runs():
    started = time.monotonic()
    cells = [(i, 10_000 + i) for i in range(1000)]
    with multiprocessing.get_context("fork").Pool(PROCESSES) as pool:
        results = pool.map(_theorem_cell, cells, chunksize=25)
    assert all(ok for ok, _, _ in results)
    assert all(clean for _, _, clean in results)
    isolated = sum(k for _, k, _ in results)
    assert isolated > 100  # the grid produces plenty of single-failure rounds
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _announce(3, f"1000 runs pass P1–P3; {isolated} isolated failures recover "
                 f"within two rounds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Reliability reproduction at desk scale
# ---------------------------------------------------------------------------

def test_criterion_4_reliability_sweep():
    started = time.monotonic()
    grid = sweep_cells(ns=tuple(range(2, 9)), round_ms=(160, 260, 360),
                       seeds=(1, 2, 3, 4, 5), duration_s=360)
    rows = run_sweep(grid, processes=PROCESSES)
    assert all(r["p1"] and r["p2"] and r["p3"] for r in rows)
    cells = {(a["n"], a["round_ms"]): a["mean_reliability"] for a in aggregate_sweep(rows)}
    for n in range(4, 9):
        for rl in (260, 360):
            assert cells[(n, rl)] >= 0.96, f"n={n} rl={rl}: {cells[(n, rl)]:.4f}"
    for n in range(2, 9):
        assert cells[(n, 260)] >= cells[(n, 160)] - 0.01
        assert cells[(n, 360)] >= cells[(n, 260)] - 0.01
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _announce(4, f"21-cell sweep: all high-service cells >= 0.96, reliability "
                 f"monotone in round length, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Scripted outage trace shape
# ---------------------------------------------------------------------------

def test_criterion_5_figure_trace_script():
    loss = ScheduleLoss([
        DropRule(round=20, receiver=1),
        DropRule(round=20, receiver=2),
    ])
    config = make_sim_config(n=4, rounds=25, seed=42, loss=loss)
    view = simulated_view(config, LevelApp(HIGH))
    script = {t: (HIGH,) * 4 for t in range(1, 25)}
    script[21] = (DEFAULT, DEFAULT, HIGH, HIGH)
    script[22] = (DEFAULT, DEFAULT, DEFAULT, DEFAULT)
    for t, want in script.items():
        got = view.decisions[t - 1]
        assert got == want, f"round {t}: {got} != {want}"
    _announce(5, "split at 21 only, uniform default at 22, highest level from 23")


# ---------------------------------------------------------------------------
# 6. Platoon worst case
# ---------------------------------------------------------------------------

def test_criterion_6_platoon_worst_case():
    spec = ScenarioSpec()
    res = run_worst_case(spec)
    u = spec.outage_round
    assert res.levels[u + 1][spec.cut_vehicle] == LOW
    assert all(lv == LOW for lv in res.levels[u + 2].values())
    brake_round = u + spec.brake_after_rounds
    initial_gap = ScenarioSpec().levels[spec.initial_level - 1].headway
    for vid in range(2, spec.n + 1):
        assert res.gap_at(brake_round, vid) > initial_gap
    assert res.min_gap > 0.0
    base = run_baseline(spec)
    for r in range(u, u + spec.outage_rounds):
        assert base.levels[r][spec.n] == MEDIUM
    _announce(6, f"fallback within one round of the first fallback, gaps open "
                 f"before the brake, min gap {res.min_gap:.2f} m; baseline tail "
                 f"vehicle never leaves medium")


# ---------------------------------------------------------------------------
# 7. Determinism and replay
# ---------------------------------------------------------------------------

def test_criterion_7_replay_determinism(tmp_path):
    config = make_sim_config(n=8, rounds=2250, seed=99, loss=BernoulliLoss(0.17))
    trace = run(config, LevelApp(HIGH))
    path = tmp_path / "big.jsonl"
    trace.write(path)
    started = time.monotonic()
    replay(path)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    flags = ["run", "--n", "4", "--duration-s", "10", "--seed", "12",
             "--loss", "bernoulli:0.2"]
    assert main(flags + ["--out", str(out_a)]) == 0
    assert main(flags + ["--out", str(out_b)]) == 0
    assert (out_a / "trace.jsonl").read_bytes() == (out_b / "trace.jsonl").read_bytes()
    _announce(7, f"360s/8-vehicle trace replays bit-identically in {elapsed:.1f}s; "
                 f"identical flags give identical files")


# ---------------------------------------------------------------------------
# 8. Config validation
# ---------------------------------------------------------------------------

def test_criterion_8_config_rejection(tmp_path, capsys):
    with pytest.raises(ConfigError):
        ProtocolConfig(4, 110 * MS, 5 * MS, 100 * MS, 5 * MS)
    ProtocolConfig(4, 110 * MS + 1, 5 * MS, 100 * MS, 1)  # strictly above the bound
    code = main(["run", "--round-ms", "110", "--delay-ms", "100", "--sync-ms", "5",
                 "--out", str(tmp_path)])
    assert code == 2
    capsys.readouterr()
    _announce(8, "round_length <= 2*sync_bound + maximum_delay rejected in library and CLI")
