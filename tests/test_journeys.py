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
import random

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
    DeliverEvent,
    DropEvent,
    DropRule,
    FixedDelay,
    ScheduleLoss,
    SendEvent,
    SimConfig,
    UniformDelay,
    round_journeys,
    simulate,
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
    two composed. The schedule is often empty and ``p`` may be an int, so the
    rounds decided before their last send meet every loss, the draw-free one too.
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
    for _ in range(draw(st.just(0) | st.integers(min_value=0, max_value=6))):
        if draw(st.booleans()):
            rules.append(DropRule(round=draw(st.integers(min_value=0, max_value=rounds)),
                                  sender=draw(vehicle), receiver=draw(vehicle)))
        else:
            t0 = draw(st.integers(min_value=0, max_value=duration))
            t1 = draw(st.integers(min_value=t0, max_value=t0 + 2 * rl))
            rules.append(DropRule(t0=t0, t1=t1, sender=draw(vehicle), receiver=draw(vehicle)))
    p = draw(st.sampled_from([0, 0.0, 0.05, 0.2, 0.5, 1.0, 1]))
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


# Four vehicles, 34 µs rounds with five sends 5 µs apart, and copies of up to
# 10 µs, so a copy may land after its receiver's next send. A draw drops a
# copy with 0.7, so some rounds fail. Each rule drops copies: two by round,
# one at vehicle 3's send instant 413 µs (round 12's second send, at offset
# 2) and one over a span of a round and a bit.
CASE_PROTOCOL = ProtocolConfig(4, 34, 2, 10, 5)
CASE_RULES = (DropRule(round=3, receiver=2), DropRule(round=8, sender=1, receiver=4),
              DropRule(t0=413, t1=413, sender=3), DropRule(t0=680, t1=720, receiver=1))
CASE_DELAYS = {"uniform": UniformDelay(), "fixed": FixedDelay(7)}
CASE_LOSSES = {"bernoulli": BernoulliLoss(0.7), "schedule": ScheduleLoss(CASE_RULES),
               "composite": CompositeLoss(0.7, ScheduleLoss(CASE_RULES))}


def _case(delay, loss):
    return SimConfig(CASE_PROTOCOL, (0, 1, 2, 1), CASE_LOSSES[loss], 30 * 34, 7,
                     CASE_DELAYS[delay])


@pytest.mark.parametrize("loss", sorted(CASE_LOSSES))
@pytest.mark.parametrize("delay", sorted(CASE_DELAYS))
def test_model_matches_the_simulator_on_each_delay_and_loss(delay, loss):
    """Each of the six delay x loss pairs on one fixed run, each loss's own
    causes dropping copies: every rule of the schedule and of the composite
    drops some, and the composite's draws drop others, so a model that skips
    the draw where a rule drops a copy, or draws the loss before the delay,
    reads other draws than ``simulate`` from then on."""
    config = _case(delay, loss)
    drops = [ev for ev in simulate(config, LevelApp(HIGH)) if type(ev) is DropEvent]
    assert {ev.cause for ev in drops} == ({"bernoulli", "schedule"} if loss == "composite" else {loss})
    if loss != "bernoulli":
        assert {rule for ev in drops if ev.cause == "schedule" for rule in CASE_RULES
                if rule.matches(ev.msg.round, ev.msg.sender, ev.receiver, ev.t)} == set(CASE_RULES)
    complete = round_journeys(config)[0]
    assert any(map(all, complete)) and not all(map(all, complete))
    assert _differences(config) == []


def _written_out_law(config, events):
    """The deliveries and drops that the models' methods give for a run's sends.

    Walks the ``SendEvent``s in order, each one's receivers ascending, and
    calls ``config.delay.sample`` and then ``config.loss.decide`` on
    ``random.Random(config.seed)``. A delivered copy arrives at its send time
    plus its delay; the deliveries are listed in the order ``simulate`` pops
    them (by time, then receiver, then send order) and the drops in send order.
    """
    rng = random.Random(config.seed)
    p = config.protocol
    delivers, drops = [], []
    for ev in events:
        if type(ev) is SendEvent:
            t, msg = ev
            for rcv in range(1, p.n + 1):
                if rcv != msg.sender:
                    delay = config.delay.sample(rng, p.maximum_delay)
                    cause = config.loss.decide(rng, msg.round, msg.sender, rcv, t)
                    if cause is None:
                        delivers.append(DeliverEvent(t + delay, rcv, msg))
                    else:
                        drops.append(DropEvent(t, rcv, msg, cause))
    delivers.sort(key=lambda ev: (ev.t, ev.receiver))
    return delivers, drops


@pytest.mark.parametrize("loss", sorted(CASE_LOSSES))
@pytest.mark.parametrize("delay", sorted(CASE_DELAYS))
def test_simulator_applies_the_law_the_models_write_out(delay, loss):
    """``simulate`` draws each copy inline; every delivery's time and message
    and every drop's cause is the one the models' methods give, so a copy
    whose rule and draw both drop it is the rule's, as ``CompositeLoss.decide``
    says."""
    config = _case(delay, loss)
    events = list(simulate(config, LevelApp(HIGH)))
    delivers, drops = _written_out_law(config, events)
    got = [ev for ev in events if type(ev) is DeliverEvent]
    assert got == delivers and all(a.msg is b.msg for a, b in zip(got, delivers))
    assert [ev for ev in events if type(ev) is DropEvent] == drops


def test_model_calls_no_delay_or_loss_model_but_the_rules(monkeypatch):
    """``round_journeys`` and ``simulate`` apply the models' law from their
    fields; per copy they call a schedule's ``decide``, which draws nothing,
    and no other model."""
    configs = [_case(delay, loss) for delay in CASE_DELAYS for loss in CASE_LOSSES]
    want = [round_journeys(config) for config in configs]
    want_events = [list(simulate(config, LevelApp(HIGH))) for config in configs]

    def called(*args):
        raise AssertionError("a delay or loss model was called")

    for model, method in ((UniformDelay, "sample"), (FixedDelay, "sample"),
                          (BernoulliLoss, "decide"), (CompositeLoss, "decide")):
        monkeypatch.setattr(model, method, called)
    assert [round_journeys(config) for config in configs] == want
    assert [list(simulate(config, LevelApp(HIGH))) for config in configs] == want_events


def _late_sends(config):
    """The sends made in a round once every vehicle's end-of-round ack mask is
    known to be full: each receiver's own bit and the ack masks of the copies
    delivered to it from the round's earlier sends, wherever those land, hold
    every member. By then the round is decided, so ``round_journeys`` only
    draws for their copies, unless the loss has rules."""
    n = config.protocol.n
    full = (1 << n) - 1
    events = list(simulate(config, LevelApp(HIGH)))
    receivers = {}
    for ev in events:
        if type(ev) is DeliverEvent:
            receivers.setdefault(id(ev.msg), []).append(ev.receiver)
    got = {}
    late = []
    for ev in events:
        if type(ev) is SendEvent:
            masks = got.setdefault(ev.msg.round, [1 << i for i in range(n)])
            if all(mask == full for mask in masks):
                late.append(ev)
            for rcv in receivers.get(id(ev.msg), ()):
                masks[rcv - 1] |= ev.msg.ack | 1 << (ev.msg.sender - 1)
    return late


class _CountedRandom(random.Random):
    """A ``random.Random`` that counts the draws of all its instances."""

    draws = 0

    def random(self):
        _CountedRandom.draws += 1
        return super().random()


def _draws(engine):
    _CountedRandom.draws = 0
    engine()
    return _CountedRandom.draws


# Copies from vehicle 1 to vehicle 2 are dropped all run long, so vehicle 2
# fills only through relays, and late sends of vehicle 1 still lose copies to it.
LATE_RULE = DropRule(t0=0, t1=30 * 34, sender=1, receiver=2)
DECIDED_CASES = {
    "int-p": (UniformDelay(), BernoulliLoss(0)),
    "no-rules-uniform": (UniformDelay(), ScheduleLoss(())),
    "no-rules-fixed": (FixedDelay(7), ScheduleLoss(())),
    "composite-no-rules": (UniformDelay(), CompositeLoss(0.2, ScheduleLoss(()))),
    "fixed-bernoulli": (FixedDelay(7), BernoulliLoss(0.2)),
    "rules-after-decision": (UniformDelay(), CompositeLoss(0.0, ScheduleLoss((LATE_RULE,)))),
    # Copies of 10 µs land two sends later, so a vehicle may fill only after its last send.
    "filled-after-last-send": (FixedDelay(10), BernoulliLoss(0.2)),
}


@pytest.mark.parametrize("name", sorted(DECIDED_CASES))
def test_model_matches_the_simulator_on_rounds_decided_early(name, monkeypatch):
    """Rounds whose end-of-round masks are all known to be full before their
    last send, under each kind of loss. An int ``p`` must count drops as a
    float does. Where rules drop copies after that, the model must still read
    each copy. Where a vehicle fills only through copies that land after its
    own last send, it never sends a full mask, yet the round is decided. A
    decided round's copies still take their draws, under a loss that draws
    nothing too, so both engines take the same draws; with no loss at all no
    output shows them, so they are counted."""
    delay, loss = DECIDED_CASES[name]
    config = SimConfig(CASE_PROTOCOL, (0, 1, 2, 1), loss, 30 * 34, 7, delay)
    late = _late_sends(config)
    assert late
    if name == "rules-after-decision":
        late = {(ev.t, ev.msg.sender) for ev in late}
        assert any((ev.t, ev.msg.sender) in late for ev in simulate(config, LevelApp(HIGH))
                   if type(ev) is DropEvent)
    if name == "filled-after-last-send":
        full = (1 << config.protocol.n) - 1
        sent_full = {(ev.msg.round, ev.msg.sender) for ev in simulate(config, LevelApp(HIGH))
                     if type(ev) is SendEvent and ev.msg.ack == full}
        assert any((ev.msg.round, vid) not in sent_full for ev in late
                   for vid in range(1, config.protocol.n + 1))
    assert _differences(config) == []

    monkeypatch.setattr(random, "Random", _CountedRandom)
    per_copy = isinstance(delay, UniformDelay) + (not isinstance(loss, ScheduleLoss))
    sim_draws = _draws(lambda: list(simulate(config, LevelApp(HIGH))))
    assert sim_draws == per_copy * sum(round_journeys(config)[1:])
    assert _draws(lambda: round_journeys(config)) == sim_draws


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
