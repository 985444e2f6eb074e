"""lockstep benchmark: time the CLI end to end, or layer by layer with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload record --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``. Each set-up and each pass runs in
a fresh interpreter (``child.py``), so peak memory is that pass's alone.
Set-up (imports plus input generation) is repeated and reported as a median.
Passes repeat until ``--seconds`` have elapsed, and the end-to-end timings
are medians over them. With ``--trace 1`` untraced and traced passes
alternate: the traced ones give per-layer metrics (see ``tracer.py``) and
the ratio of the two medians is the tracing overhead.

Times are reported at a reference CPU speed. The host's CPUs are shared and
slow down by up to half for seconds at a time, which no median over passes
outvotes. So each step runs beside a low-priority probe on the same CPU
(``child.SpeedProbe``) that measures the CPU's current speed, and every
time is rescaled by REF_CHUNK_S / (the probe's seconds per chunk). The host
seconds are printed next to each rescaled figure.

Every command's exit code and outputs are checked, the sha256 of every output
is printed, and at the default seed it must equal the pinned digest. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. One attempted operation is
one CLI command; ``failed / attempted`` is the fail ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, PINNED, WORKLOADS  # noqa: E402

# A run must end within 180 s: no pass starts after LAST_START_S, and a
# step that overruns CHILD_TIMEOUT_S ends the run without a result.
CHILD_TIMEOUT_S = 60
LAST_START_S = 100
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

MIN_COVERAGE = 0.9

# CPU seconds per probe chunk (child.SpeedProbe) on a quiet host: 2-core
# Xeon, Python 3.11. A step's host seconds times REF_CHUNK_S / (its probe's
# seconds per chunk) are its seconds at that reference speed.
REF_CHUNK_S = 35e-6


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


class StepFailed(Exception):
    pass


def step(spec: dict) -> dict:
    """Run one child step to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise StepFailed(f"{spec['mode']} step exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


class Ledger:
    """Counts CLI commands attempted and failed, and checks output digests."""

    def __init__(self, workload: str, seed: int) -> None:
        self.pinned = PINNED.get(workload, {}) if seed == DEFAULT_SEED else None
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def account(self, commands: list[dict], prefix: str = "") -> None:
        for cmd in commands:
            self.attempted += 1
            problems = [cmd["error"]] if cmd["error"] else []
            for name, digest in cmd["digests"].items():
                key = prefix + name
                first = self.digests.setdefault(key, digest)
                if digest != first:
                    problems.append(f"{key} differs between passes")
                if self.pinned is not None and self.pinned.get(key) != digest:
                    problems.append(f"{key} sha256 {digest} != pinned {self.pinned.get(key)}")
            if problems:
                self.failures.append(f"{' '.join(cmd['argv'])}: {'; '.join(problems)}")


def median_layers(passes: list[dict], problems: list[str]) -> dict:
    """Per-layer metrics over traced passes; times at the reference speed."""
    layers = [p["layers"] for p in passes]
    out = {}
    for metric in layers[0]:
        values = [lay[metric] for lay in layers]
        if unit(metric) == "s":
            values = [v * REF_CHUNK_S / p["probe_chunk_s"] for v, p in zip(values, passes)]
        if unit(metric) in ("count", "bytes"):
            # Counts are exact: identical in every pass of one seed.
            if len(set(values)) != 1:
                problems.append(f"count {metric} differs between traced passes: {values}")
            out[metric] = values[0]
        else:
            out[metric] = statistics.median(values)
    for lay in layers:
        if lay["trace.coverage_ratio"] < MIN_COVERAGE:
            problems.append(f"spans cover only {lay['trace.coverage_ratio']:.3f} of a traced pass")
    return out


def summarize(label: str, steps: list[dict], key: str) -> float:
    """Print host and reference-speed seconds of ``key``; return the latter's median."""
    host = [s[key] for s in steps]
    ref = [s[key] * REF_CHUNK_S / s["probe_chunk_s"] for s in steps]
    print(f"  {label} host seconds: median {statistics.median(host):.4f} of "
          f"{[round(v, 4) for v in host]}")
    print(f"  {label} at reference speed: median {statistics.median(ref):.4f} of "
          f"{[round(v, 4) for v in ref]}")
    return statistics.median(ref)


def measure(args, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    ledger = Ledger(args.workload, args.seed)
    base = {"workload": args.workload, "seed": args.seed, "trace": False}

    step({**base, "mode": "warm", "out": str(work / "warm")})
    setups = []
    inputs = work / "setup"
    for _ in range(workload.setup_repeats):
        shutil.rmtree(inputs, ignore_errors=True)
        r = step({**base, "mode": "setup", "out": str(inputs)})
        ledger.account(r["commands"], prefix="setup/")
        setups.append(r)

    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = (elapsed >= args.seconds and len(untraced) >= MIN_PASSES
                if not args.trace else
                elapsed >= args.seconds and len(traced) >= MIN_TRACED_PASSES
                and len(untraced) >= MIN_TRACED_PASSES)
        if done or elapsed >= LAST_START_S:
            break
        traced_pass = bool(args.trace) and len(traced) < len(untraced)
        out = work / f"pass-{len(untraced) + len(traced)}"
        r = step({**base, "mode": "pass", "trace": traced_pass,
                  "out": str(out), "inputs": str(inputs)})
        shutil.rmtree(out, ignore_errors=True)
        ledger.account(r["commands"])
        (traced if traced_pass else untraced).append(r)

    print(f"workload {args.workload}, seed {args.seed}: {len(setups)} set-ups, "
          f"{len(untraced)} untraced and {len(traced)} traced passes in {elapsed:.1f} s")
    setup_s = summarize("setup_s", setups, "setup_s")
    wall_s = summarize("wall_s", untraced, "wall_s")
    for key, digest in sorted(ledger.digests.items()):
        print(f"  sha256 {key} {digest}")

    problems = list(ledger.failures)
    if args.trace:
        metrics = median_layers(traced, problems)
        metrics["tracing_overhead_ratio"] = summarize("traced wall_s", traced, "wall_s") / wall_s
        for line in traced[-1]["spans"]:
            print(f"  {line}")
    else:
        metrics = {
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "setup_s": setup_s,
        }
    for name, value in metrics.items():
        print(f"  {name} {value}")
    attempted = ledger.attempted
    failed = len(ledger.failures)
    print(f"  fail_ratio {failed / attempted} ({failed} of {attempted} commands)")
    for problem in problems:
        print(f"  FAIL {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def main() -> int:
    # Unwind on SIGTERM as on an error: the running step is killed and waited
    # for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lockstep" / "cli.py").is_file():
        print(f"error: no lockstep package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench-work"
    work = scratch / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        result = measure(args, work)
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
