"""One benchmark step in a fresh interpreter: a set-up or one pass of a workload.

A fresh process per step keeps ``ru_maxrss`` (a lifetime high-water mark) to
that step alone. Usage, from ``run.py``:

    python3 perfbench/child.py '{"mode": "pass", "workload": "record", "seed": 1,
                                 "out": DIR, "inputs": DIR, "trace": false}'

Modes: ``warm`` only imports the package (so byte-code compilation is not
timed), ``setup`` times the imports plus the workload's input generation,
``pass`` times the workload's commands. Every step runs on one CPU beside a
``SpeedProbe``. The last line of standard output is one JSON object with the
host timings, the probe's reading, output digests and any failed checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Command  # noqa: E402


def _probe_chunk() -> None:
    table: dict = {}
    for i in range(200):
        key = (i % 251, i % 7)
        table[key] = table.get(key, 0) + i


class SpeedProbe:
    """A low-priority process beside the step that measures its CPU's speed.

    A shared host's CPUs slow down by up to half and recover within seconds,
    as neighbours load the same cores. The probe runs on the step's CPU at
    nice 19, so it gets about 2% of that CPU in slices spread over the whole
    step, and times a fixed chunk of Python work in its own CPU time. Its
    seconds per chunk rise and fall with the step's own speed; ``run.py``
    divides the step's times by it.
    """

    def __init__(self) -> None:
        self._stop_r, self._stop_w = os.pipe()
        self._result_r, result_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._stop_w)
            os.close(self._result_r)
            self._run(result_w)
        os.close(self._stop_r)
        os.close(result_w)

    def _run(self, result_w: int) -> None:
        try:
            os.nice(19)
            os.set_blocking(self._stop_r, False)
            chunks = 0
            c0 = time.process_time()
            while True:
                _probe_chunk()
                chunks += 1
                try:
                    if os.read(self._stop_r, 1) == b"":
                        break  # stop() closed the pipe, or the step died
                except BlockingIOError:
                    continue
            os.write(result_w, repr((time.process_time() - c0) / chunks).encode())
        finally:
            os._exit(0)

    def stop(self) -> float:
        """End the probe, wait for it, and return its CPU seconds per chunk."""
        os.close(self._stop_w)
        with os.fdopen(self._result_r) as fh:
            text = fh.read()
        os.waitpid(self.pid, 0)
        return float(text)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_commands(main, commands: list[Command], out: Path) -> tuple[float, list[dict]]:
    """Run each command through ``main``; returns (seconds in main, per-command results)."""
    total = 0.0
    results = []
    for cmd in commands:
        captured = io.StringIO()
        crash = None
        with contextlib.redirect_stdout(captured):
            t0 = time.perf_counter()
            try:
                rc = main(list(cmd.argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            except Exception as exc:  # an uncaught error exits the real CLI with 1
                rc, crash = 1, f"{type(exc).__name__}: {exc}"
            total += time.perf_counter() - t0
        present = [name for name in cmd.outputs if (out / name).is_file()]
        if crash:
            error = crash
        elif rc != cmd.expect_rc:
            error = f"exit code {rc}, expected {cmd.expect_rc}"
        elif len(present) < len(cmd.outputs):
            error = f"missing outputs: {sorted(set(cmd.outputs) - set(present))}"
        else:
            try:
                error = cmd.check(out, captured.getvalue())
            except (ValueError, KeyError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        results.append({
            "argv": ["lockstep", *cmd.argv],
            "error": error,
            "digests": {name: sha256(out / name) for name in present},
        })
    return total, results


def run_step(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    import lockstep.cli
    import lockstep.platoon  # noqa: F401  (build_app imports it lazily on replay)
    import_s = time.perf_counter() - t0
    package = Path(lockstep.cli.__file__).resolve()
    if package.parent != (HERE.parent / "src" / "lockstep").resolve():
        raise SystemExit(f"imported lockstep from {package}, not from this checkout")

    if spec["mode"] == "setup":
        gen_s, commands = run_commands(lockstep.cli.main, workload.setup(seed, out), out)
        return {"setup_s": import_s + gen_s, "commands": commands}
    if spec["mode"] != "pass":
        return {}
    commands = workload.commands(seed, out, Path(spec["inputs"]))
    main_fn = lockstep.cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        main_fn = tracer.span("cli.command", main_fn)
    wall_s, results = run_commands(main_fn, commands, out)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": results,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        result["spans"] = tracer.span_lines()
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    # One CPU for the step and its probe (each CPU of a shared host slows
    # and recovers on its own). Where pinning is refused, both float.
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    try:
        result = run_step(spec)
    finally:
        chunk_s = probe.stop()
    result["probe_chunk_s"] = chunk_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
