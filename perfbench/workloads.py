"""The benchmark's workloads: the CLI commands of one pass and how each is checked.

Every workload drives ``lockstep.cli.main`` with the flags a user would type.
The benchmark seed reaches the program only as ``--seed``. Why each workload
was chosen, and which layers it loads or bypasses, is in ``BASELINE.md``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 1

# Sizes keep a pass short, so a 15 s run holds six to ten passes for its
# median, and the whole benchmark fits its time budget (BASELINE.md).
# Sampled verify trials: about a twentieth of the exhaustive 3x3 check.
VERIFY_TRIALS = 500
# The record trace covers 120 simulated seconds, a third of the 360 s
# acceptance run: 750 rounds of 8 vehicles, about 1.4 s per pass.
TRACE_DURATION_S = 120
# The sweep runs all 21 default cells at 60 simulated seconds instead of the
# CLI default 360: about 1.8 s per pass instead of 11 s.
SWEEP_DURATION_S = 60

Check = Callable[[Path, str], Optional[str]]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect_rc: int
    outputs: tuple[str, ...]  # files in the pass's output directory to digest
    check: Check  # (output directory, captured stdout) -> error or None


@dataclass(frozen=True)
class Workload:
    setup_repeats: int
    # (seed, setup output directory) -> commands that make the inputs
    setup: Callable[[int, Path], list[Command]]
    # (seed, pass output directory, setup output directory) -> commands timed
    commands: Callable[[int, Path, Path], list[Command]]


def _check_run_report(out: Path, stdout: str) -> Optional[str]:
    report = json.loads((out / "report.json").read_text())
    failed = [c["property"] for c in report["checks"] if not c["passed"]]
    return f"property checks failed: {failed}" if failed else None


def _check_replay(out: Path, stdout: str) -> Optional[str]:
    return None if stdout.rstrip().endswith("replay identical") else "replay not identical"


def _check_sweep(out: Path, stdout: str) -> Optional[str]:
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 21:
        return f"sweep has {len(rows)} cells, expected 21"
    bad = [(r["n"], r["round_ms"]) for r in rows
           if not r["p1"] == r["p2"] == r["p3"] == "True"]
    return f"property checks failed in cells {bad}" if bad else None


def _check_verify(name: str, patterns: int, passed: bool) -> Check:
    def check(out: Path, stdout: str) -> Optional[str]:
        report = json.loads((out / name).read_text())
        if report["passed"] != passed:
            return f"{name}: passed={report['passed']}, expected {passed}"
        if passed and report["patterns_checked"] != patterns:
            return f"{name}: {report['patterns_checked']} patterns, expected {patterns}"
        if not passed and "counterexample" not in report:
            return f"{name}: mutant reported without a counterexample"
        return None

    return check


def _record(seed: int, out: Path, check: Check) -> Command:
    return Command(
        ("run", "--n", "8", "--duration-s", str(TRACE_DURATION_S), "--round-ms", "160",
         "--loss", "bernoulli:0.17", "--seed", str(seed), "--out", str(out)),
        0, ("trace.jsonl", "report.json"), check)


def _verify(seed: int, out: Path) -> list[Command]:
    exhaustive, sampled, mutant = (
        "verify-exhaustive.json", "verify-sampled.json", "verify-mutant.json")
    return [
        Command(("verify", "--n", "3", "--rounds", "3", "--report-file", str(out / exhaustive)),
                0, (exhaustive,), _check_verify(exhaustive, 262_144, True)),
        Command(("verify", "--n", "8", "--rounds", "50", "--trials", str(VERIFY_TRIALS),
                 "--seed", str(seed), "--report-file", str(out / sampled)),
                0, (sampled,), _check_verify(sampled, VERIFY_TRIALS, True)),
        Command(("verify", "--n", "2", "--rounds", "3", "--mutate", "drop-default-write",
                 "--report-file", str(out / mutant)),
                1, (mutant,), _check_verify(mutant, 0, False)),
    ]


WORKLOADS: dict[str, Workload] = {
    "record": Workload(
        setup_repeats=9,
        setup=lambda seed, out: [],
        commands=lambda seed, out, inputs: [_record(seed, out, _check_run_report)],
    ),
    "replay": Workload(
        setup_repeats=3,
        setup=lambda seed, out: [_record(seed, out, _check_run_report)],
        commands=lambda seed, out, inputs: [
            Command(("replay", str(inputs / "trace.jsonl")), 0, (), _check_replay)],
    ),
    "sweep": Workload(
        setup_repeats=9,
        setup=lambda seed, out: [],
        commands=lambda seed, out, inputs: [
            Command(("sweep", "--seeds", "1", "--processes", "1",
                     "--duration-s", str(SWEEP_DURATION_S), "--seed", str(seed),
                     "--out", str(out)),
                    0, ("sweep.csv", "sweep_plot.csv"), _check_sweep)],
    ),
    "verify": Workload(
        setup_repeats=9,
        setup=lambda seed, out: [],
        commands=lambda seed, out, inputs: _verify(seed, out),
    ),
}

_TRACE = "578e8c02543e89adda4c7ce0501d72b4f20828ade456aa74605b84a1b0855c65"
_REPORT = "cd60dbebd4a4d6baae8b1f592a9cb00b62d860863c13a1395685f4b703c855c1"

# sha256 of every output at DEFAULT_SEED, taken when the benchmark was added.
# Speed work must not change a byte of them. Set-up outputs carry "setup/".
PINNED: dict[str, dict[str, str]] = {
    "record": {"trace.jsonl": _TRACE, "report.json": _REPORT},
    "replay": {"setup/trace.jsonl": _TRACE, "setup/report.json": _REPORT},
    "sweep": {
        "sweep.csv": "7f3dd2f30a7e2e011abb2afb768817d9c201fc10fec605467045d10eb4550c3e",
        "sweep_plot.csv": "3db521843d12f05402baa8be6c8ef7ad37b7cc5407ab6e1c916eb07d00c9308f",
    },
    "verify": {
        "verify-exhaustive.json": "f96653ed1017ddb225f3dea37e68f53e257230f4bc22104a28784e1df19d990f",
        "verify-sampled.json": "fb405b28b06395b0a3a6f6464ed7a9d9498b3c0240b3b591abda0a4051f4b678",
        "verify-mutant.json": "65631284badca4b3d5378770f14fdb508eeb39802fc7465035e4961e9a720117",
    },
}
