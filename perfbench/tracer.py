"""Layer tracing from outside the program: wrap public functions, time them.

Nothing in ``lockstep`` knows about this module. ``install`` replaces the
public functions of each layer with timing wrappers, under every name a
caller looks them up by (``cli`` binds ``run``/``replay``/``min_level_decide``
at import, ``platoon`` binds ``run``), so the program runs unchanged apart
from the wrappers' own cost.

Two kinds of wrapper:

* hot call sites (called once per event or per pattern) are aggregated into
  a call count and a self time per name; no per-call record is kept;
* coarse calls (commands, ``sim.run``, ``replay``, the analysis and oracle
  entry points) each keep a full span: id, parent id, name, start, end and
  self time.

Self time is a call's duration minus the durations of the wrapped calls made
inside it. Work a wrapper does for the benchmark itself (counting the events
of a finished run) is timed separately as harness time and left out of every
layer. The wrappers' own bookkeeping, and the per-call counting in the receive
and encode wrappers, fall outside the timed calls and land in the caller's
self time: that is the tracing overhead, which ``run.py`` reports as the
ratio of traced to untraced pass time. Everything stays in memory until the
pass ends.
"""

from __future__ import annotations

import time
from collections import Counter

clock = time.perf_counter

# Per-layer metric each wrapped name's self time is reported under.
SELF_TIME_METRIC = {
    "cli.command": "cli.self_s",
    "protocol.on_tick": "protocol.on_tick_s",
    "protocol.on_gossip_receive": "protocol.on_gossip_receive_s",
    "sim.run": "sim.run_s",
    "sim.rng": "sim.rng_s",
    "sim.encode": "sim.encode_s",
    "sim.replay": "sim.replay_s",
    "analysis.round_view": "analysis.round_view_s",
    "analysis.checks": "analysis.checks_s",
    "analysis.metrics": "analysis.metrics_s",
    "oracle.run_abstract": "oracle.run_abstract_s",
    "oracle.check": "oracle.check_s",
    "oracle.enumerate": "oracle.enumerate_s",
    "oracle.sample": "oracle.sample_s",
    "platoon.decide": "platoon.decide_s",
    "platoon.read_state": "platoon.read_state_s",
}


class Tracer:
    def __init__(self) -> None:
        # Child-time accumulators of the open wrapped calls; the bottom slot
        # belongs to the harness, which is never itself a wrapped call.
        self.stack = [0.0]
        self.hot: dict[str, list] = {}  # name -> [calls, self seconds]
        self.spans: list[list] = []  # [id, parent, name, start, end, self seconds]
        self.current = None  # id of the innermost open span
        self.counts: Counter = Counter()
        self.harness_s = 0.0

    def hot_call(self, name, fn):
        stat = self.hot.setdefault(name, [0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stat[0] += 1
                stat[1] += dur - stack.pop()
                stack[-1] += dur

        return wrapper

    def span(self, name, fn, after=None):
        """Full span per call; ``after(result)`` runs as harness time."""
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            record = [len(spans), self.current, name, 0.0, 0.0, 0.0]
            spans.append(record)
            self.current = record[0]
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                record[3], record[4] = t0, t1
                record[5] = (t1 - t0) - stack.pop()
                stack[-1] += t1 - t0
                self.current = record[1]
            if after is not None:
                h0 = clock()
                after(result)
                h = clock() - h0
                self.harness_s += h
                stack[-1] += h
            return result

        return wrapper

    # The receive and encode wrappers repeat hot_call's timing inline rather
    # than calling a hot_call wrapper: one frame fewer per call keeps the
    # tracing overhead on a sweep near 1.5x instead of 1.75x.

    def receive_call(self, fn):
        """``on_gossip_receive`` plus the counts that say whether it was useful."""
        stat = self.hot.setdefault("protocol.on_gossip_receive", [0, 0.0])
        stack = self.stack
        counts = self.counts

        def wrapper(inst, msg):
            if msg.round != inst.my_round:
                counts["protocol.other_round_receives"] += 1
            before = inst.ack.count(True)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(inst, msg)
            finally:
                dur = clock() - t0
                stat[0] += 1
                stat[1] += dur - stack.pop()
                stack[-1] += dur
                if inst.ack.count(True) > before:
                    counts["protocol.useful_receives"] += 1

        return wrapper

    def encode_call(self, fn):
        """``event_to_json`` plus the bytes it produced (one newline per line)."""
        stat = self.hot.setdefault("sim.encode", [0, 0.0])
        stack = self.stack
        counts = self.counts

        def wrapper(ev):
            stack.append(0.0)
            t0 = clock()
            try:
                line = fn(ev)
            finally:
                dur = clock() - t0
                stat[0] += 1
                stat[1] += dur - stack.pop()
                stack[-1] += dur
            counts["sim.trace_bytes"] += len(line) + 1
            return line

        return wrapper

    def layer_metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of everything traced so far; ``pass_s`` is its wall time."""
        out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
        for name, (_, self_s) in self.hot.items():
            out[SELF_TIME_METRIC[name]] += self_s
        for _, _, name, _, _, self_s in self.spans:
            out[SELF_TIME_METRIC[name]] += self_s
        accounted = sum(out.values()) + self.harness_s

        def calls(name):
            return self.hot.get(name, (0, 0.0))[0]

        c = self.counts
        receives = calls("protocol.on_gossip_receive")
        out.update({
            "protocol.on_tick_calls": calls("protocol.on_tick"),
            "protocol.on_gossip_receive_calls": receives,
            "protocol.useful_receive_ratio":
                c["protocol.useful_receives"] / receives if receives else 0.0,
            "protocol.other_round_receives": c["protocol.other_round_receives"],
            "sim.events": sum(c[k] for k in ("sim.sends", "sim.delivers", "sim.drops", "sim.outputs")),
            "sim.sends": c["sim.sends"],
            "sim.delivers": c["sim.delivers"],
            "sim.drops": c["sim.drops"],
            "sim.outputs": c["sim.outputs"],
            "sim.transmissions": c["sim.delivers"] + c["sim.drops"],
            "sim.trace_bytes": c["sim.trace_bytes"],
            "oracle.sequences": calls("oracle.run_abstract"),
            "oracle.patterns_checked": c["oracle.patterns_checked"],
            "platoon.decide_calls": calls("platoon.decide"),
            "platoon.read_state_calls": calls("platoon.read_state"),
            "harness.self_s": self.harness_s,
            "trace.coverage_ratio": accounted / pass_s,
        })
        return out

    def span_lines(self) -> list[str]:
        return [
            f"span {sid} parent {'-' if parent is None else parent} {name} "
            f"{end - start:.6f}s self {self_s:.6f}s"
            for sid, parent, name, start, end, self_s in self.spans
        ]


_EVENT_COUNTER = {
    "SendEvent": "sim.sends",
    "DeliverEvent": "sim.delivers",
    "DropEvent": "sim.drops",
    "OutputEvent": "sim.outputs",
}


def install(t: Tracer) -> None:
    """Wrap every layer's public functions under each name callers use."""
    from lockstep import analysis, cli, oracle, platoon, protocol, sim

    def count_events(trace) -> None:
        for kind, k in Counter(type(ev).__name__ for ev in trace.events).items():
            t.counts[_EVENT_COUNTER[kind]] += k

    def count_patterns(report) -> None:
        t.counts["oracle.patterns_checked"] += report.patterns_checked

    vp = protocol.VehicleProtocol
    vp.on_tick = t.hot_call("protocol.on_tick", vp.on_tick)
    vp.on_gossip_receive = t.receive_call(vp.on_gossip_receive)

    # The delay and loss models the workloads use (uniform delay, Bernoulli loss).
    sim.UniformDelay.sample = t.hot_call("sim.rng", sim.UniformDelay.sample)
    sim.BernoulliLoss.decide = t.hot_call("sim.rng", sim.BernoulliLoss.decide)
    # Trace.lines is a generator that encodes after it returns, so encoding
    # is timed where each line is made.
    sim.event_to_json = t.encode_call(sim.event_to_json)
    sim.run = cli.run = platoon.run = t.span("sim.run", sim.run, after=count_events)
    sim.replay = cli.replay = t.span("sim.replay", sim.replay)

    analysis.round_view = t.span("analysis.round_view", analysis.round_view)
    analysis.run_all_checks = t.span("analysis.checks", analysis.run_all_checks)
    analysis.reliability = t.span("analysis.metrics", analysis.reliability)
    analysis.packet_drop_rate = t.span("analysis.metrics", analysis.packet_drop_rate)

    oracle.enumerate_and_verify = t.span("oracle.enumerate", oracle.enumerate_and_verify,
                                         after=count_patterns)
    oracle.sample_and_verify = t.span("oracle.sample", oracle.sample_and_verify,
                                      after=count_patterns)
    oracle.run_abstract = t.hot_call("oracle.run_abstract", oracle.run_abstract)
    oracle.check_decision_sequence = t.hot_call("oracle.check", oracle.check_decision_sequence)

    platoon.min_level_decide = cli.min_level_decide = t.hot_call(
        "platoon.decide", platoon.min_level_decide)
    platoon.LevelApp.read_state = t.hot_call("platoon.read_state", platoon.LevelApp.read_state)
