"""The round-level journey model against the timed simulator it stands for.

A differential test: ``sim.round_journeys`` and ``analysis.round_view`` over
``sim.simulate`` read one configuration, and each cell's completeness
vectors, deliver count and drop count must be equal; the abstract model's
decisions over the vectors must equal the simulator's. ``sweep`` reads the
model alone, so the grid test below keeps the timed protocol checked at the
scale of acceptance criterion 4: the same 105 cells at 360 s, with P1-P3
on the simulator's own view.
"""

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from lockstep.analysis import run_all_checks
from lockstep.cli import sweep_cells
from lockstep.oracle import run_abstract
from lockstep.platoon import LevelApp, ServiceLevel, min_level_decide
from lockstep.protocol import ProtocolConfig
from lockstep.sim import (
    BernoulliLoss,
    CompositeLoss,
    DropRule,
    FixedDelay,
    ScheduleLoss,
    SimConfig,
    UniformDelay,
    round_journeys,
)

from conftest import PINNED_LEVEL_CONFIGS, make_sim_config, simulated_view

HIGH = ServiceLevel.HIGH
PROCESSES = 2


def _differences(config):
    """What the model and the simulator disagree on, by name; empty when they agree."""
    n = config.protocol.n
    view = simulated_view(config, LevelApp(HIGH))
    complete, delivers, drops = round_journeys(config)
    decisions = run_abstract(complete, min_level_decide, (HIGH,) * n)
    return [name for name, ok in (
        ("complete", complete == view.complete),
        ("delivers", delivers == view.delivers),
        ("drops", drops == view.drops),
        ("decisions", decisions == view.decisions),
        ("P1-P3", all(r.passed for r in run_all_checks(view))),
    ) if not ok]


@st.composite
def journey_configs(draw):
    """A short run with its timing drawn as well as its loss.

    The round length, ``sync_bound`` (0 included, where a boundary and a send
    share an instant and a send can fall on the horizon), ``maximum_delay``
    and ``gossip_interval`` are drawn in µs. The offsets spread within
    ``sync_bound`` above a common shift of up to ``round_length -
    sync_bound``, so the largest may be a whole round. A vehicle whose
    offset passes ``sync_bound`` makes none of its round-0 sends that fall
    before global 0, so round 0 is cut differently per vehicle, as the
    horizon cuts the last round. The duration need not be a multiple of the
    round. Delay is uniform or
    fixed; loss is Bernoulli, a schedule of round and time-span rules, or the
    two composed.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    sync = draw(st.sampled_from([0, 1]) | st.integers(min_value=0, max_value=20))
    max_delay = draw(st.integers(min_value=1, max_value=30))
    window = draw(st.integers(min_value=1, max_value=40))
    gossip = draw(st.integers(min_value=1, max_value=window))
    protocol = ProtocolConfig(n, 2 * sync + max_delay + window, sync, max_delay, gossip)
    rl = protocol.round_length
    rounds = draw(st.integers(min_value=1, max_value=15))
    duration = rounds * rl + draw(st.sampled_from([0]) | st.integers(min_value=0, max_value=rl - 1))
    shift = draw(st.sampled_from([0, rl - sync]) | st.integers(min_value=0, max_value=rl - sync))
    offsets = tuple(shift + o for o in draw(st.lists(st.integers(min_value=0, max_value=sync),
                                                     min_size=n, max_size=n)))
    if draw(st.booleans()):
        delay = UniformDelay()
    else:
        delay = FixedDelay(draw(st.integers(min_value=1, max_value=max_delay)))
    vehicle = st.one_of(st.none(), st.integers(min_value=1, max_value=n))
    rules = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if draw(st.booleans()):
            rules.append(DropRule(round=draw(st.integers(min_value=0, max_value=rounds)),
                                  sender=draw(vehicle), receiver=draw(vehicle)))
        else:
            t0 = draw(st.integers(min_value=0, max_value=duration))
            t1 = draw(st.integers(min_value=t0, max_value=t0 + 2 * rl))
            rules.append(DropRule(t0=t0, t1=t1, sender=draw(vehicle), receiver=draw(vehicle)))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    kind = draw(st.sampled_from(["bernoulli", "schedule", "composite"]))
    loss = {"bernoulli": BernoulliLoss(p), "schedule": ScheduleLoss(rules),
            "composite": CompositeLoss(p, ScheduleLoss(rules))}[kind]
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return SimConfig(protocol, offsets, loss, duration, seed, delay)


@settings(max_examples=150, deadline=None)
@given(journey_configs())
def test_model_matches_the_simulator_on_drawn_configs(config):
    """Covers ``UniformDelay`` and ``FixedDelay`` with ``BernoulliLoss``,
    ``ScheduleLoss`` (round and time-span rules) and ``CompositeLoss``.

    The model reads each round on its own, which holds because every copy of
    these models lands in the round it was sent in. A delay model with late
    copies, landing in a later round, would break that independence: the
    model would have to carry copies across rounds, or this test to leave such
    models out.
    """
    assert _differences(config) == []


@pytest.mark.parametrize("name", sorted(PINNED_LEVEL_CONFIGS))
def test_model_matches_the_simulator_on_pinned_configs(name):
    """The level runs whose trace bytes ``tests/test_sim.py`` pins. In
    copies-on-tick-instants every copy lands on a send instant of its
    receiver, so the model must file it before that send."""
    assert _differences(PINNED_LEVEL_CONFIGS[name]) == []


@pytest.mark.parametrize("n,rounds", [(16, 120), (32, 60)])
def test_model_matches_the_simulator_on_large_fleets(n, rounds):
    """Fleets past criterion 4's n = 8, inside ``MAX_EVENTS``. At 120 ms
    rounds the two sends are 10 ms apart, so a copy rarely lands before its
    relayer's next send, and complete and incomplete rounds both occur."""
    config = make_sim_config(n=n, rounds=rounds, seed=n, round_ms=120, gossip_ms=10,
                             loss=BernoulliLoss(0.15))
    assert _differences(config) == []


def _grid_cell(config):
    p = config.protocol
    return p.n, p.round_length, config.seed, _differences(config)


def test_model_matches_the_simulator_on_the_criterion_4_grid():
    grid = sweep_cells(ns=tuple(range(2, 9)), round_ms=(160, 260, 360),
                       seeds=(1, 2, 3, 4, 5), duration_s=360)
    with multiprocessing.get_context("spawn").Pool(PROCESSES) as pool:
        cells = pool.map(_grid_cell, grid, chunksize=1)
    assert len(cells) == 105
    assert [cell for cell in cells if cell[3]] == []
