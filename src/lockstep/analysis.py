"""Ground-truth trace analysis: period classification and property checking.

``round_view`` reads a run's events in one pass, from a recorded trace or
straight from ``sim.simulate``, and keeps an omniscient summary: each
vehicle's decision per round and whether it ended the round complete, plus
counts of delivered and dropped transmissions. Every checker and metric
reads that view. A vehicle is complete in a round when it ended it holding
every member's message: all of the ack snapshot it emits on entering the
next round. This is the completeness vector the abstract model in
``oracle`` reads. A round is *stable* when every vehicle is complete in it;
otherwise it is unstable. The three checkers decide no violation themselves:
they read the four rules of ``oracle.rule_violations``, as the abstract-model
verifier does. Disagreement is confined to single isolated rounds at the start
of unstable periods (P3: one-round-uncertainty and agreement), unstable periods
settle on the default value (P2: default-correction), and decisions agree
through recovery and are non-default after a two-round stable prefix (P1:
agreement and recovery, with no check of its own).

Conventions: the decision "at round t" is the one emitted on entering round
t (it is used during round t). Round 0 produces no decision. The trailing
round whose end is not visible in the trace is excluded and counted in
``RoundView.truncated_outputs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .oracle import rule_violations, split
from .protocol import Datum, is_default
from .sim import DeliverEvent, DropEvent, OutputEvent, TraceEvent


class AnalysisError(ValueError):
    """Raised for traces that cannot be classified (malformed or empty)."""


@dataclass(frozen=True)
class Period:
    """Maximal run of equally-classified rounds; kind is 'stable' or 'unstable'."""

    kind: str
    start: int
    end: int


@dataclass(frozen=True)
class CheckCounterexample:
    round: int
    decisions: tuple
    note: str

    def to_json(self) -> dict:
        return {
            "round": self.round,
            "decisions": [None if is_default(d) else repr(d) for d in self.decisions],
            "note": self.note,
        }


@dataclass
class PropertyReport:
    property_id: str
    passed: bool
    counterexample: Optional[CheckCounterexample] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        assert self.passed == (self.counterexample is None)

    def to_json(self) -> dict:
        out = {"property": self.property_id, "passed": self.passed}
        out.update(self.details)
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json()
        return out


@dataclass
class RoundView:
    """Per-round tables extracted from a run's events.

    ``decisions[t-1]`` is the n-vector entering round t, for t in 1..rounds.
    ``complete[r][i]`` says whether vehicle i+1 ended round r holding every
    member's message, for r in 0..rounds-1 (so there are ``rounds``
    completed rounds).
    ``delivers`` and ``drops`` count the run's point-to-point transmissions.
    """

    n: int
    rounds: int
    decisions: list[tuple]
    complete: list[tuple]
    truncated_outputs: int = 0
    delivers: int = 0
    drops: int = 0


def round_view(n: int, events: Iterable[TraceEvent]) -> RoundView:
    """Read a run's events once, keeping each output's decision and completeness.

    Each vehicle's outputs must come in round order 1, 2, 3, ...; a gap, a
    repeat or a step back raises ``AnalysisError``.
    """
    decided: list[list[Datum]] = [[] for _ in range(n)]
    complete: list[list[bool]] = [[] for _ in range(n)]
    delivers = drops = 0
    for ev in events:
        kind = type(ev)
        if kind is DeliverEvent:
            delivers += 1
        elif kind is DropEvent:
            drops += 1
        elif kind is OutputEvent:
            out, i = ev.output, ev.vehicle - 1
            if out.round != len(decided[i]) + 1:
                raise AnalysisError(f"vehicle {ev.vehicle} has non-consecutive output rounds")
            decided[i].append(out.decision)
            complete[i].append(all(out.r))
    rounds = min(map(len, decided))
    # zip stops at the vehicle with the fewest outputs; the others' extra
    # outputs are of rounds whose end the run did not reach for every vehicle.
    return RoundView(n=n, rounds=rounds, decisions=list(zip(*decided)),
                     complete=list(zip(*complete)),
                     truncated_outputs=sum(len(d) - rounds for d in decided),
                     delivers=delivers, drops=drops)


def maximal_periods(stable: Sequence[bool]) -> list[Period]:
    """Run-length encode per-round stable flags into maximal alternating periods."""
    periods: list[Period] = []
    for r, ok in enumerate(stable):
        kind = "stable" if ok else "unstable"
        if periods and periods[-1].kind == kind:
            periods[-1] = Period(kind, periods[-1].start, r)
        else:
            periods.append(Period(kind, r, r))
    return periods


def _bounded_uncertainty(view: RoundView, first: dict) -> PropertyReport:
    """Disagreement rounds are isolated and pinned to the start of unstable periods.

    The one-round-uncertainty and agreement rules of
    ``oracle.rule_violations``: fails at two consecutive rounds with split
    decisions, or at a split at any round other than r1+1 for a maximal
    unstable period starting at r1. Reports whichever starts first, the
    consecutive pair on a tie.
    """
    pid = "P3-bounded-uncertainty"
    u, a = first["one-round-uncertainty"], first["agreement"]
    if u is not None and (a is None or u <= a + 1):
        return PropertyReport(pid, False, CheckCounterexample(
            u, view.decisions[u - 1], "consecutive disagreement rounds"))
    if a is not None:
        return PropertyReport(pid, False, CheckCounterexample(
            a, view.decisions[a - 1],
            "disagreement not at the first round after an unstable period began"))
    split_rounds = [t for t, row in enumerate(view.decisions, start=1) if split(row)]
    return PropertyReport(pid, True, details={"disagreement_rounds": split_rounds})


def _disagreement_correction(view: RoundView, periods: list[Period],
                             first: dict) -> PropertyReport:
    """Every maximal unstable period [r1, r2] forces all-default decisions on [r1+2, r2+1].

    The default-correction rule of ``oracle.rule_violations``.
    """
    pid = "P2-correction"
    t = first["default-correction"]
    if t is None:
        return PropertyReport(pid, True)
    p = next(p for p in periods if p.start <= t - 1 <= p.end)
    return PropertyReport(pid, False, CheckCounterexample(
        t, view.decisions[t - 1],
        f"non-default decision inside correction span of [{p.start},{p.end}]"))


def _certainty(view: RoundView, periods: list[Period], first: dict) -> PropertyReport:
    """Agreement through recovery, and non-default decisions after a stable prefix.

    The agreement and recovery rules of ``oracle.rule_violations``: for each
    maximal unstable period [r1, r2] followed by a maximal stable period
    [r2+1, r3], decisions must agree on every round in [r1+2, r3+1], from
    round 1 in a run that starts stable; within every maximal stable period
    [a, b] they must be non-default on [a+2, b+1] (round 1 is exempt). On a
    pass only row a+1 may hold a DEFAULT, so ``max_measured_prefix`` is 0 or
    1. Assumes the application never reads a default state.
    """
    pid = "P1-certainty"
    t = first["agreement"]
    if t is not None:
        return PropertyReport(pid, False, CheckCounterexample(
            t, view.decisions[t - 1], "vehicles used different values inside a certainty span"))
    t = first["recovery"]
    if t is not None:
        p = next(p for p in periods if p.start <= t - 1 <= p.end)
        return PropertyReport(pid, False, CheckCounterexample(
            t, view.decisions[t - 1],
            f"default decision past the prefix of stable period [{p.start},{p.end}]"))
    max_prefix = any(any(map(is_default, view.decisions[p.start])) for p in periods
                     if p.kind == "stable" and p.start < view.rounds)
    return PropertyReport(pid, True, details={"max_measured_prefix": int(max_prefix)})


def run_all_checks(view: RoundView) -> list[PropertyReport]:
    """P1, P2 and P3, classifying the rounds and reading the rules once for all three."""
    stable = [all(c) for c in view.complete]
    periods = maximal_periods(stable)
    first = rule_violations(stable, view.decisions)
    return [
        _certainty(view, periods, first),
        _disagreement_correction(view, periods, first),
        _bounded_uncertainty(view, first),
    ]


def reliability(view: RoundView, highest: Datum) -> float:
    """Fraction of completed rounds in which every vehicle decided ``highest``.

    Round 0 completes without decisions, so a failure-free run scores
    (rounds - 1) / rounds.
    """
    if view.rounds == 0:
        raise AnalysisError("no completed rounds in trace")
    good = sum(
        1
        for t in range(1, view.rounds)
        if all(d == highest for d in view.decisions[t - 1])
    )
    return good / view.rounds


def packet_drop_rate(view: RoundView) -> float:
    """Observed drop fraction over all point-to-point transmissions."""
    if view.drops + view.delivers == 0:
        raise AnalysisError("trace contains no transmissions")
    return view.drops / (view.drops + view.delivers)
