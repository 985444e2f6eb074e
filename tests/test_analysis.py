"""Tests for round completeness, the property checkers, and metrics.

Positive cases run the real simulator; negative controls are hand-built
traces that violate exactly one property, confirming each checker can fail.
"""

import pytest
from hypothesis import given, strategies as st

from lockstep import oracle
from lockstep.analysis import (
    AnalysisError,
    RoundView,
    packet_drop_rate,
    reliability,
    run_all_checks,
)
from lockstep.platoon import LevelApp, ServiceLevel
from lockstep.protocol import DEFAULT, RoundOutput, is_default
from lockstep.sim import BernoulliLoss, DropEvent, DropRule, OutputEvent, ScheduleLoss, run

from conftest import (MS, ack_mask, events_of, make_sim_config, simulated_view, synthetic_trace,
                      trace_view)

HIGH = ServiceLevel.HIGH
LOW = ServiceLevel.LOW
RL = 160 * MS
P1, P2, P3 = range(3)  # positions of the reports in run_all_checks


def run_high(config):
    return run(config, LevelApp(HIGH))


def view_high(config):
    return simulated_view(config, LevelApp(HIGH))


def synthetic_view(decisions_by_round, stable_rounds=None):
    return trace_view(synthetic_trace(decisions_by_round, stable_rounds))


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------

def test_failure_free_trace_all_stable():
    complete = view_high(make_sim_config(n=3, rounds=12)).complete
    assert len(complete) == 12
    assert all(c == (True,) * 3 for c in complete)


def test_cut_receiver_marks_exactly_that_vehicle_failed():
    loss = ScheduleLoss([DropRule(round=20, receiver=1)])
    config = make_sim_config(n=4, rounds=25, seed=2, loss=loss)
    complete = view_high(config).complete
    assert not all(complete[20])
    assert complete[20] == (False, True, True, True)
    assert all(all(c) for r, c in enumerate(complete) if r != 20)


def test_retransmission_repair_keeps_round_stable():
    loss = ScheduleLoss([DropRule(t0=20 * RL, t1=20 * RL + 5 * MS, sender=3, receiver=1)])
    config = make_sim_config(n=4, rounds=25, seed=3, offsets=(0, 0, 0, 0), loss=loss)
    trace = run_high(config)
    assert events_of(trace, DropEvent)  # the first copy really was lost
    assert all(all(c) for c in trace_view(trace).complete)


def test_truncated_vehicle_outputs_are_flagged():
    trace = synthetic_trace([[HIGH, HIGH]] * 5)
    trace.events.append(OutputEvent(6 * RL, 1, RoundOutput(6, (HIGH, HIGH),
                                                           ack_mask((True, True)), HIGH)))
    view = trace_view(trace)
    assert view.rounds == 5
    assert view.truncated_outputs == 1


def test_gapped_outputs_rejected():
    trace = synthetic_trace([[HIGH, HIGH]] * 3)
    trace.events.append(OutputEvent(9 * RL, 1, RoundOutput(9, (HIGH, HIGH),
                                                           ack_mask((True, True)), HIGH)))
    with pytest.raises(AnalysisError):
        trace_view(trace)


# ---------------------------------------------------------------------------
# Property checkers on real traces
# ---------------------------------------------------------------------------

def split_round_20_config(seed=4):
    loss = ScheduleLoss([
        DropRule(round=20, receiver=1),
        DropRule(round=20, receiver=2),
    ])
    return make_sim_config(n=4, rounds=25, seed=seed, loss=loss)


def test_round20_outage_passes_all_checkers():
    view = view_high(split_round_20_config())
    assert is_default(view.decisions[21 - 1][0]) and view.decisions[21 - 1][3] == HIGH
    assert all(is_default(d) for d in view.decisions[22 - 1])
    for report in run_all_checks(view):
        assert report.passed, report.property_id


def test_failure_free_checks_pass_vacuously():
    for report in run_all_checks(view_high(make_sim_config(n=3, rounds=15))):
        assert report.passed


def test_bounded_uncertainty_rejects_consecutive_disagreement():
    rows = [[HIGH, HIGH]] * 20
    rows.append([DEFAULT, HIGH])  # round 21
    rows.append([DEFAULT, HIGH])  # round 22: still split
    rows.append([HIGH, HIGH])
    stable = [r not in (19, 20, 21) for r in range(len(rows))]
    report = run_all_checks(synthetic_view(rows, stable))[P3]
    assert not report.passed
    assert report.counterexample.round == 22


def test_bounded_uncertainty_rejects_misplaced_disagreement():
    # Split at round 5 although every preceding round was stable.
    rows = [[HIGH, HIGH]] * 4 + [[DEFAULT, HIGH]] + [[HIGH, HIGH]] * 3
    report = run_all_checks(synthetic_view(rows))[P3]
    assert not report.passed
    assert report.counterexample.round == 5


def test_correction_window_enforced_on_persistent_failures():
    """Failures spanning rounds 10..15 force defaults on 12..16 (oracle cross-check)."""
    n = 3
    loss = ScheduleLoss([DropRule(round=r, receiver=1) for r in range(10, 16)])
    config = make_sim_config(n=n, rounds=20, seed=5, loss=loss)
    view = view_high(config)
    for t in range(12, 17):
        assert all(is_default(d) for d in view.decisions[t - 1])
    assert run_all_checks(view)[P2].passed
    expected = oracle.run_abstract(view.complete, LevelApp(HIGH).decide, (HIGH,) * n)
    assert view.decisions == expected


def test_correction_rejects_value_inside_window():
    rows = [[HIGH, HIGH]] * 9                      # rounds 1..9
    rows += [[DEFAULT, HIGH]]                      # round 10: uncertainty
    rows += [[DEFAULT, DEFAULT], [DEFAULT, HIGH]]  # rounds 11, 12: 12 violates
    rows += [[DEFAULT, DEFAULT], [HIGH, HIGH]]
    stable = [r not in (9, 10, 11) for r in range(len(rows))]
    report = run_all_checks(synthetic_view(rows, stable))[P2]
    assert not report.passed
    assert report.counterexample.round == 12


def test_certainty_recovery_interval():
    """Unstable [20,20] then stable: agreement from 22, values from 23 on."""
    view = view_high(split_round_20_config(seed=6))
    report = run_all_checks(view)[P1]
    assert report.passed
    for t in range(22, view.rounds + 1):
        row = view.decisions[t - 1]
        assert all(d == row[0] for d in row)
    for t in range(23, view.rounds + 1):
        assert all(not is_default(d) for d in view.decisions[t - 1])
    assert report.details["max_measured_prefix"] <= 2


def test_certainty_on_fully_stable_run():
    view = view_high(make_sim_config(n=2, rounds=10, seed=7))
    assert run_all_checks(view)[P1].passed
    for t in range(2, view.rounds + 1):
        assert all(not is_default(d) for d in view.decisions[t - 1])


def test_certainty_rejects_split_inside_stable_suffix():
    rows = [[HIGH, HIGH]] * 6 + [[HIGH, LOW]] + [[HIGH, HIGH]]
    report = run_all_checks(synthetic_view(rows))[P1]
    assert not report.passed


def test_certainty_rejects_lingering_default():
    rows = [[HIGH, HIGH]] * 5 + [[DEFAULT, DEFAULT]] * 3
    report = run_all_checks(synthetic_view(rows))[P1]
    assert not report.passed
    assert "default" in report.counterexample.note


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_reliability_failure_free_counts_startup_round():
    view = view_high(make_sim_config(n=2, rounds=100, seed=8))
    assert reliability(view, HIGH) == pytest.approx(99 / 100)


def test_reliability_total_loss_is_zero():
    view = view_high(make_sim_config(n=2, rounds=10, loss=BernoulliLoss(1.0)))
    assert reliability(view, HIGH) == 0.0


def test_reliability_needs_completed_rounds():
    config = make_sim_config(n=2, rounds=1)
    trace = run_high(config)
    trace.events = [ev for ev in trace.events if not isinstance(ev, OutputEvent)]
    with pytest.raises(AnalysisError):
        reliability(trace_view(trace), HIGH)


@st.composite
def decision_views(draw):
    """A view of up to 12 rounds, the one-round and zero-round views included,
    whose rows are all HIGH, all DEFAULT or mixed, DEFAULT among the levels."""
    n = draw(st.integers(min_value=1, max_value=5))
    mixed = st.tuples(*[st.sampled_from([HIGH, LOW, ServiceLevel.MEDIUM, DEFAULT])] * n)
    rows = draw(st.lists(st.just((HIGH,) * n) | st.just((DEFAULT,) * n) | mixed, max_size=12))
    return RoundView(n=n, decisions=rows, complete=[(True,) * n] * len(rows))


@given(decision_views())
def test_reliability_counts_the_rounds_every_vehicle_decided_highest(view):
    """``reliability`` counts whole rows equal to the all-``highest`` row; a
    vehicle-by-vehicle count over rounds 1 .. rounds - 1 gives the same float."""
    if view.rounds == 0:
        with pytest.raises(AnalysisError):
            reliability(view, HIGH)
        return
    good = sum(1 for t in range(1, view.rounds)
               if all(d == HIGH for d in view.decisions[t - 1]))
    assert reliability(view, HIGH) == good / view.rounds


def test_reliability_high_for_calibrated_mid_round_length():
    # Four vehicles, 260 ms rounds, calibrated loss: comfortably above 0.98.
    config = make_sim_config(n=4, round_ms=260, rounds=1384, seed=10,
                             loss=BernoulliLoss(0.159418))
    assert reliability(view_high(config), HIGH) >= 0.98


def test_drop_rate_matches_bernoulli_parameter():
    p = 0.1605357  # the two-vehicle calibration point
    config = make_sim_config(n=2, rounds=2250, seed=9, loss=BernoulliLoss(p))
    assert packet_drop_rate(view_high(config)) == pytest.approx(p, abs=0.01)


def test_drop_rate_zero_without_loss():
    assert packet_drop_rate(view_high(make_sim_config(n=2, rounds=5))) == 0.0


def test_drop_rate_requires_transmissions():
    trace = synthetic_trace([[HIGH, HIGH]] * 3)
    with pytest.raises(AnalysisError):
        packet_drop_rate(trace_view(trace))
