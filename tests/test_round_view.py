"""The one-pass round view against the trace readers it replaced.

``analysis.round_view`` reads any iterable of events once, from a trace or
straight from ``sim.simulate``, and keeps only each output's decision and
completeness (all of its ack snapshot) plus the delivered and dropped
counts. The references below are the earlier whole-trace ``round_view`` and
``Counter`` drop rate, kept as in ``test_rules.py``; the reference's ack
snapshots are reduced by ``all`` when compared. Every table and rate must
stay identical, and a trace the old reader rejected must still be rejected.
"""

from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings

from lockstep.analysis import AnalysisError, packet_drop_rate, round_view
from lockstep.platoon import LevelApp, ServiceLevel
from lockstep.protocol import RoundOutput
from lockstep.sim import (
    BernoulliLoss,
    CompositeLoss,
    DeliverEvent,
    DropEvent,
    DropRule,
    OutputEvent,
    ScheduleLoss,
    Trace,
    run,
    simulate,
)

from conftest import MS, ack_flags, ack_mask, adversaries, make_sim_config, synthetic_trace

HIGH = ServiceLevel.HIGH
RL = 160 * MS


# ---------------------------------------------------------------------------
# Reference: the whole-trace reader and the Counter drop rate
# ---------------------------------------------------------------------------

class ReferenceView(NamedTuple):
    n: int
    rounds: int
    decisions: list
    end_acks: list
    truncated_outputs: int


def reference_round_view(trace: Trace) -> ReferenceView:
    n = trace.config.protocol.n
    per_vehicle: list[dict[int, OutputEvent]] = [dict() for _ in range(n)]
    for ev in trace.events:
        if isinstance(ev, OutputEvent):
            per_vehicle[ev.vehicle - 1][ev.output.round] = ev
    tops = []
    for vid, outs in enumerate(per_vehicle, start=1):
        if not outs:
            tops.append(0)
            continue
        top = max(outs)
        if sorted(outs) != list(range(1, top + 1)):
            raise AnalysisError(f"vehicle {vid} has non-consecutive output rounds")
        tops.append(top)
    rounds = min(tops)
    truncated = sum(top - rounds for top in tops)
    decisions = [
        tuple(per_vehicle[i][t].output.decision for i in range(n))
        for t in range(1, rounds + 1)
    ]
    end_acks = [
        tuple(ack_flags(per_vehicle[i][r + 1].output.r, n) for i in range(n))
        for r in range(rounds)
    ]
    return ReferenceView(n=n, rounds=rounds, decisions=decisions,
                         end_acks=end_acks, truncated_outputs=truncated)


def reference_packet_drop_rate(trace: Trace) -> float:
    """Observed drop fraction over all point-to-point transmissions."""
    kinds = Counter(map(type, trace.events))
    drops, delivers = kinds[DropEvent], kinds[DeliverEvent]
    if drops + delivers == 0:
        raise AnalysisError("trace contains no transmissions")
    return drops / (drops + delivers)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def tables(view):
    return view.n, view.rounds, view.decisions, view.complete, view.truncated_outputs


def reference_tables(ref):
    complete = [tuple(map(all, acks)) for acks in ref.end_acks]
    return ref.n, ref.rounds, ref.decisions, complete, ref.truncated_outputs


def drop_rate_or_error(rate, source):
    try:
        return rate(source)
    except AnalysisError:
        return AnalysisError


def assert_same_view(trace, events):
    """``round_view`` over ``events``, read once, equals the references over ``trace``."""
    view = round_view(trace.config.protocol.n, iter(events))
    assert tables(view) == reference_tables(reference_round_view(trace))
    assert drop_rate_or_error(packet_drop_rate, view) == \
        drop_rate_or_error(reference_packet_drop_rate, trace)


def assert_simulated_view_matches(config):
    trace = run(config, LevelApp(HIGH))
    assert_same_view(trace, trace.events)
    assert_same_view(trace, simulate(config, LevelApp(HIGH)))


@pytest.mark.parametrize("n,seed,p", [
    (1, 1, 0.0),   # no transmissions: both drop rates raise
    (2, 2, 0.0),
    (3, 3, 0.17),
    (4, 4, 0.5),
    (5, 5, 1.0),   # every transmission dropped
    (8, 6, 0.17),
])
def test_one_pass_view_matches_reference_on_bernoulli_runs(n, seed, p):
    assert_simulated_view_matches(make_sim_config(n=n, rounds=30, seed=seed,
                                                  loss=BernoulliLoss(p)))


def test_one_pass_view_matches_reference_on_schedule_runs():
    rules = [DropRule(round=20, receiver=1), DropRule(round=20, receiver=2),
             DropRule(t0=5 * RL, t1=7 * RL, sender=3)]
    for loss in (ScheduleLoss(rules), CompositeLoss(0.2, ScheduleLoss(rules))):
        assert_simulated_view_matches(make_sim_config(n=4, rounds=25, seed=42, loss=loss))


@settings(max_examples=40, deadline=None)
@given(adversaries())
def test_one_pass_view_matches_reference_on_adversaries(config):
    assert_simulated_view_matches(config)


def test_one_pass_view_matches_reference_on_a_truncated_trace():
    trace = synthetic_trace([[HIGH, HIGH]] * 5)
    trace.events.append(OutputEvent(6 * RL, 1, RoundOutput(6, (HIGH, HIGH),
                                                           ack_mask((True, True)), HIGH)))
    assert_same_view(trace, trace.events)


def test_one_pass_view_rejects_a_gapped_trace_like_the_reference():
    trace = synthetic_trace([[HIGH, HIGH]] * 3)
    trace.events.append(OutputEvent(9 * RL, 1, RoundOutput(9, (HIGH, HIGH),
                                                           ack_mask((True, True)), HIGH)))
    with pytest.raises(AnalysisError, match="non-consecutive"):
        reference_round_view(trace)
    with pytest.raises(AnalysisError, match="non-consecutive"):
        round_view(2, iter(trace.events))


@pytest.mark.parametrize("late_round", [3, 2], ids=["repeat", "step-back"])
def test_one_pass_view_rejects_outputs_out_of_round_order(late_round):
    # The reference kept the last output of a repeated round and sorted the
    # rest; reading once, a vehicle's outputs must come in round order.
    trace = synthetic_trace([[HIGH, HIGH]] * 3)
    trace.events.append(OutputEvent(4 * RL, 1, RoundOutput(late_round, (HIGH, HIGH),
                                                           ack_mask((True, True)), HIGH)))
    reference_round_view(trace)
    with pytest.raises(AnalysisError, match="non-consecutive"):
        round_view(2, trace.events)


def test_one_pass_view_counts_transmissions():
    trace = run(make_sim_config(n=4, rounds=20, seed=11, loss=BernoulliLoss(0.3)),
                LevelApp(HIGH))
    kinds = Counter(map(type, trace.events))
    view = round_view(4, trace.events)
    assert (view.delivers, view.drops) == (kinds[DeliverEvent], kinds[DropEvent])
    assert view.drops > 0 and view.delivers > 0
