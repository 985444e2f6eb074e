"""Ground-truth trace analysis: the round view, property checks and metrics.

``round_view`` reads a run's events in one pass, from a recorded trace or
straight from ``sim.simulate``, and keeps an omniscient summary: each
vehicle's decision per round and whether it ended the round complete, plus
counts of delivered and dropped transmissions. Every checker and metric
reads that view. A vehicle is complete in a round when it ended it holding
every member's message: when the ack mask it emits on entering the next
round is full, ``(1 << n) - 1``. This is the completeness vector the
abstract model in ``oracle`` reads. A round is *stable* when every vehicle
is complete in it; otherwise it is unstable. P1-P3 are read straight off the
four rules of ``oracle.rule_violations``, as the abstract-model verifier
reads them, with no period classification of their own (``run_all_checks``).

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
    member's message, for r in 0..rounds-1; ``rounds``, the number of
    completed rounds, is the length of both tables.
    ``delivers`` and ``drops`` count the run's point-to-point transmissions.
    """

    n: int
    decisions: list[tuple]
    complete: list[tuple]
    truncated_outputs: int = 0
    delivers: int = 0
    drops: int = 0

    @property
    def rounds(self) -> int:
        return len(self.complete)


def round_view(n: int, events: Iterable[TraceEvent]) -> RoundView:
    """Read a run's events once, keeping each output's decision and completeness.

    Each vehicle's outputs must come in round order 1, 2, 3, ...; a gap, a
    repeat or a step back raises ``AnalysisError``.
    """
    full = (1 << n) - 1
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
            complete[i].append(out.r == full)
    rounds = min(map(len, decided))
    # zip stops at the vehicle with the fewest outputs; the others' extra
    # outputs are of rounds whose end the run did not reach for every vehicle.
    return RoundView(n=n, decisions=list(zip(*decided)),
                     complete=list(zip(*complete)),
                     truncated_outputs=sum(len(d) - rounds for d in decided),
                     delivers=delivers, drops=drops)


def _period(stable: Sequence[bool], r: int) -> str:
    """The maximal run of rounds classified like round r, as "[start,end]"."""
    start = end = r
    while start > 0 and stable[start - 1] == stable[r]:
        start -= 1
    while end + 1 < len(stable) and stable[end + 1] == stable[r]:
        end += 1
    return f"[{start},{end}]"


def run_all_checks(view: RoundView) -> list[PropertyReport]:
    """P1, P2 and P3, read off one call of ``oracle.rule_violations``.

    No property decides a violation itself. A failure names the first row
    that breaks its rules, and where a rule reads one, the maximal period
    holding round t-1.

    - P1 certainty (agreement, then recovery): rows agree from r1+2 of each
      unstable period [r1, r2] through the stable period after it, and from
      row 1 in a run that starts stable; in each stable period [a, b], rows
      a+2 .. b+1 hold no DEFAULT (row 1 is exempt). On a pass only row a+1
      may hold a DEFAULT, so ``max_measured_prefix`` is 0 or 1. Assumes the
      application never reads a default state.
    - P2 correction (default-correction): each unstable period [r1, r2]
      forces all-DEFAULT rows r1+2 .. r2+1.
    - P3 bounded uncertainty (one-round-uncertainty and agreement): no two
      consecutive rows split, and only row r1+1 may; whichever breaks first
      is reported, the consecutive pair on a tie. A pass lists the split rows.
    """
    stable = [all(c) for c in view.complete]
    first = rule_violations(stable, view.decisions)

    def failed(pid: str, t: int, note: str) -> PropertyReport:
        return PropertyReport(pid, False, CheckCounterexample(t, view.decisions[t - 1], note))

    agreement, recovery = first["agreement"], first["recovery"]
    if agreement is not None:
        p1 = failed("P1-certainty", agreement,
                    "vehicles used different values inside a certainty span")
    elif recovery is not None:
        p1 = failed("P1-certainty", recovery, "default decision past the prefix of stable period "
                    + _period(stable, recovery - 1))
    else:
        prefix = any(ok and (r == 0 or not stable[r - 1]) and any(map(is_default, row))
                     for r, (ok, row) in enumerate(zip(stable, view.decisions)))
        p1 = PropertyReport("P1-certainty", True, details={"max_measured_prefix": int(prefix)})

    t = first["default-correction"]
    p2 = PropertyReport("P2-correction", True) if t is None else failed(
        "P2-correction", t,
        "non-default decision inside correction span of " + _period(stable, t - 1))

    u = first["one-round-uncertainty"]
    if u is not None and (agreement is None or u <= agreement + 1):
        p3 = failed("P3-bounded-uncertainty", u, "consecutive disagreement rounds")
    elif agreement is not None:
        p3 = failed("P3-bounded-uncertainty", agreement,
                    "disagreement not at the first round after an unstable period began")
    else:
        p3 = PropertyReport("P3-bounded-uncertainty", True, details={
            "disagreement_rounds": [t for t, row in enumerate(view.decisions, 1) if split(row)]})
    return [p1, p2, p3]


def reliability(view: RoundView, highest: Datum) -> float:
    """Fraction of completed rounds in which every vehicle decided ``highest``.

    Round 0 completes without decisions, so a failure-free run scores
    (rounds - 1) / rounds.
    """
    if view.rounds == 0:
        raise AnalysisError("no completed rounds in trace")
    return view.decisions[:view.rounds - 1].count((highest,) * view.n) / view.rounds


def packet_drop_rate(view: RoundView) -> float:
    """Observed drop fraction over all point-to-point transmissions."""
    if view.drops + view.delivers == 0:
        raise AnalysisError("trace contains no transmissions")
    return view.drops / (view.drops + view.delivers)
