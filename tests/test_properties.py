"""Randomized end-to-end properties tying the simulator, checkers, and oracle together.

Whatever the loss model, seed, fleet size, and clock offsets, every trace the
harness produces must satisfy the three stability properties, its
per-round decisions must match the abstract model run on the observed
completeness vectors, every message must land in its receiver's round, and
every copy of a slot a receiver has acked must hold the datum it holds.
These are the universally quantified claims behind the acceptance criteria,
explored here with generated adversaries.
"""

from hypothesis import given, settings

from lockstep import oracle
from lockstep.analysis import run_all_checks
from lockstep.platoon import LevelApp, ServiceLevel, min_level_decide

from conftest import (
    acked_copies_agree,
    adversaries,
    drain_checked,
    in_own_round,
    simulated_view,
)

HIGH = ServiceLevel.HIGH


@settings(max_examples=60, deadline=None)
@given(adversaries())
def test_every_trace_satisfies_the_three_properties(config):
    view = simulated_view(config, LevelApp(HIGH))
    for report in run_all_checks(view):
        assert report.passed, (report.property_id, report.counterexample)


@settings(max_examples=60, deadline=None)
@given(adversaries())
def test_every_trace_matches_the_abstract_model(config):
    n = config.protocol.n
    view = simulated_view(config, LevelApp(HIGH))
    expected = oracle.run_abstract(view.complete, min_level_decide, (HIGH,) * n)
    assert view.decisions == expected


@settings(max_examples=60, deadline=None)
@given(adversaries())
def test_every_message_lands_in_its_receivers_round(config):
    drain_checked(config, LevelApp(HIGH), in_own_round)


@settings(max_examples=60, deadline=None)
@given(adversaries())
def test_acked_copies_of_a_slot_agree(config):
    drain_checked(config, LevelApp(HIGH), acked_copies_agree)
