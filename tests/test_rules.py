"""The shared bounded-disagreement rules against the two implementations they replaced.

``oracle.rule_violations`` serves both the trace checkers in ``analysis`` and
the abstract-model verifier. The references below are the earlier
period-and-span checkers, kept as in the literal enumerator of
``test_oracle.py``; the trace references read the view's per-round stable
flags and split them into maximal periods with their own run-length
encoding, so no reference reads the code under test. Every P1-P3 report
must stay identical, failures included. The oracle's verdict must too,
except that the fourth rule, recovery, is the stable-prefix check that only
the reference P1 made."""

from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from lockstep.analysis import (
    CheckCounterexample,
    PropertyReport,
    RoundView,
    run_all_checks,
)
from lockstep.oracle import RULES, check_decision_sequence, rule_violations
from lockstep.platoon import ServiceLevel
from lockstep.protocol import DEFAULT, is_default

HIGH = ServiceLevel.HIGH
LOW = ServiceLevel.LOW


# ---------------------------------------------------------------------------
# Reference: the oracle's period-and-span check
# ---------------------------------------------------------------------------

def _unstable_periods(stable):
    periods = []
    start = None
    for r, ok in enumerate(stable):
        if not ok and start is None:
            start = r
        elif ok and start is not None:
            periods.append((start, r - 1))
            start = None
    if start is not None:
        periods.append((start, len(stable) - 1))
    return periods


def reference_check_decision_sequence(stable, decisions):
    T = len(decisions)

    def row(t):
        return decisions[t - 1]

    def split(t):
        first = row(t)[0]
        return any(d != first for d in row(t)[1:])

    for t in range(1, T):
        if split(t) and split(t + 1):
            return ("one-round-uncertainty", t + 1)

    periods = _unstable_periods(stable)
    for r1, r2 in periods:
        for t in range(r1 + 2, min(r2 + 1, T) + 1):
            if any(not is_default(d) for d in row(t)):
                return ("default-correction", t)

    spans = []
    if not periods or periods[0][0] > 0:
        first_unstable = periods[0][0] if periods else len(stable)
        spans.append((1, first_unstable))
    for idx, (r1, r2) in enumerate(periods):
        r3 = periods[idx + 1][0] - 1 if idx + 1 < len(periods) else len(stable) - 1
        spans.append((r1 + 2, r3 + 1))
    for lo, hi in spans:
        for t in range(max(lo, 1), min(hi, T) + 1):
            if split(t):
                return ("agreement", t)
    return None


# ---------------------------------------------------------------------------
# Reference: the trace checkers' period-and-span checks
# ---------------------------------------------------------------------------

Period = namedtuple("Period", "kind start end")


def maximal_periods(stable):
    """Run-length encode per-round stable flags into maximal alternating periods."""
    periods = []
    for r, ok in enumerate(stable):
        kind = "stable" if ok else "unstable"
        if periods and periods[-1].kind == kind:
            periods[-1] = periods[-1]._replace(end=r)
        else:
            periods.append(Period(kind, r, r))
    return periods


def _split(row):
    first = row[0]
    return any(d != first for d in row[1:])


def stable_flags(view):
    return [all(c) for c in view.complete]


def reference_check_bounded_uncertainty(view):
    pid = "P3-bounded-uncertainty"
    stable = stable_flags(view)
    split_rounds = [t for t in range(1, view.rounds + 1) if _split(view.decisions[t - 1])]
    split_set = set(split_rounds)
    for t in split_rounds:
        if t + 1 in split_set:
            return PropertyReport(pid, False, CheckCounterexample(
                t + 1, view.decisions[t], "consecutive disagreement rounds"))
        starts_unstable = not stable[t - 1] and (t - 1 == 0 or stable[t - 2])
        if not starts_unstable:
            return PropertyReport(pid, False, CheckCounterexample(
                t, view.decisions[t - 1],
                "disagreement not at the first round after an unstable period began"))
    return PropertyReport(pid, True, details={"disagreement_rounds": split_rounds})


def reference_check_disagreement_correction(view):
    pid = "P2-correction"
    periods = maximal_periods(stable_flags(view))
    for p in periods:
        if p.kind != "unstable":
            continue
        for t in range(max(p.start + 2, 1), min(p.end + 1, view.rounds) + 1):
            row = view.decisions[t - 1]
            if any(not is_default(d) for d in row):
                return PropertyReport(pid, False, CheckCounterexample(
                    t, row, f"non-default decision inside correction span of [{p.start},{p.end}]"))
    return PropertyReport(pid, True)


def reference_check_certainty(view):
    pid = "P1-certainty"
    periods = maximal_periods(stable_flags(view))

    spans = []
    if periods and periods[0].kind == "stable":
        spans.append((1, periods[0].end + 1))
    for i, p in enumerate(periods):
        if p.kind != "unstable":
            continue
        r3 = periods[i + 1].end if i + 1 < len(periods) else p.end
        spans.append((p.start + 2, r3 + 1))
    for lo, hi in spans:
        for t in range(max(lo, 1), min(hi, view.rounds) + 1):
            row = view.decisions[t - 1]
            if _split(row):
                return PropertyReport(pid, False, CheckCounterexample(
                    t, row, "vehicles used different values inside a certainty span"))

    max_prefix = 0
    for p in periods:
        if p.kind != "stable":
            continue
        lo, hi = p.start + 1, min(p.end + 1, view.rounds)
        prefix = 0
        for t in range(lo, hi + 1):
            if all(not is_default(d) for d in view.decisions[t - 1]):
                break
            prefix += 1
        max_prefix = max(max_prefix, prefix)
        for t in range(max(p.start + 2, 2), hi + 1):
            row = view.decisions[t - 1]
            if any(is_default(d) for d in row):
                return PropertyReport(pid, False, CheckCounterexample(
                    t, row, f"default decision past the prefix of stable period [{p.start},{p.end}]"))
    return PropertyReport(pid, True, details={"max_measured_prefix": max_prefix})


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

REFERENCES = [
    reference_check_certainty,
    reference_check_disagreement_correction,
    reference_check_bounded_uncertainty,
]


def view_of(n, stable, decisions):
    """A round view whose stable flags are ``stable``: vehicle 1 is incomplete in unstable rounds."""
    complete = [(ok,) + (True,) * (n - 1) for ok in stable]
    return RoundView(n=n, decisions=list(decisions), complete=complete)


def assert_same_verdicts(n, stable, decisions):
    view = view_of(n, stable, decisions)
    got = check_decision_sequence(stable, decisions)
    want = reference_check_decision_sequence(stable, decisions)
    if want is None:
        # The replaced oracle check had no recovery rule. With the three
        # other rules holding, the reference P1 can fail only on its
        # stable-prefix check, and recovery must fail at the same round.
        p1 = reference_check_certainty(view)
        want = None if p1.passed else ("recovery", p1.counterexample.round)
    assert got == want
    assert stable_flags(view) == list(stable)
    assert [r.to_json() for r in run_all_checks(view)] == \
        [reference(view).to_json() for reference in REFERENCES]


VALUES = [DEFAULT, LOW, HIGH]


@st.composite
def runs(draw):
    """Stable flags plus decision rows; half the rows are uniform, so some runs pass."""
    n = draw(st.integers(min_value=1, max_value=4))
    rounds = draw(st.integers(min_value=0, max_value=8))
    stable = draw(st.lists(st.booleans(), min_size=rounds, max_size=rounds))
    decisions = []
    for _ in range(rounds):
        if draw(st.booleans()):
            decisions.append((draw(st.sampled_from(VALUES)),) * n)
        else:
            decisions.append(tuple(draw(st.lists(st.sampled_from(VALUES),
                                                 min_size=n, max_size=n))))
    return n, stable, decisions


@settings(max_examples=1000)
@given(runs())
def test_shared_rules_match_the_replaced_checkers(case):
    assert_same_verdicts(*case)


@pytest.mark.parametrize("n,stable,decisions", [
    (3, [], []),                                              # T = 0
    (2, [True], [(HIGH, HIGH)]),                              # T = 1, passing
    (2, [True], [(DEFAULT, HIGH)]),                           # T = 1, split in a stable run
    (2, [False], [(DEFAULT, HIGH)]),                          # starts unstable: r1+1 = 1 may split
    (2, [False, False, True], [(DEFAULT, HIGH), (DEFAULT, DEFAULT), (DEFAULT, HIGH)]),
    (2, [False, False, False], [(DEFAULT, HIGH), (DEFAULT, DEFAULT), (HIGH, HIGH)]),
    (1, [False, True, False, False], [(HIGH,), (DEFAULT,), (HIGH,), (HIGH,)]),  # n = 1
    (1, [True, True], [(DEFAULT,), (DEFAULT,)]),
    # Period edges, which the failure notes name. Recovery fails in [1,3],
    # which ends the run; correction fails in [0,1], the whole run; then
    # one-round periods at both ends, failing and passing.
    (2, [False, True, True, True],
     [(DEFAULT, HIGH), (DEFAULT, DEFAULT), (HIGH, HIGH), (DEFAULT, DEFAULT)]),
    (2, [False, False], [(HIGH, HIGH), (LOW, LOW)]),
    (2, [True, False, False, True],
     [(HIGH, HIGH), (DEFAULT, HIGH), (LOW, LOW), (DEFAULT, DEFAULT)]),
    (2, [False, True, False], [(DEFAULT, HIGH), (DEFAULT, DEFAULT), (DEFAULT, HIGH)]),
    (2, [False, False, True], [(DEFAULT, DEFAULT)] * 3),      # a last-round stable period's row
])
def test_shared_rules_edge_cases(n, stable, decisions):
    assert_same_verdicts(n, stable, decisions)


def test_rule_violations_reports_every_rule():
    # Unstable from round 0: row 1 may split, row 2 repeats the split
    # (uncertainty and agreement) and is not all DEFAULT (correction).
    # Rounds 3 and 4 are stable, so row 5 may not hold a DEFAULT (recovery).
    stable = [False, False, False, True, True]
    decisions = [(DEFAULT, HIGH), (DEFAULT, HIGH), (DEFAULT, DEFAULT), (DEFAULT, DEFAULT),
                 (DEFAULT, DEFAULT)]
    assert rule_violations(stable, decisions) == dict(zip(RULES, (2, 2, 2, 5)))
    assert check_decision_sequence(stable, decisions) == ("one-round-uncertainty", 2)
    assert rule_violations([True, True], [(HIGH, HIGH), (HIGH, HIGH)]) == dict.fromkeys(RULES)
    # A run that never recovers breaks recovery alone. Row 1 is startup and
    # may hold DEFAULT; row 2 follows two stable rounds.
    stable = [True, True, True]
    decisions = [(DEFAULT, DEFAULT), (DEFAULT, DEFAULT), (HIGH, HIGH)]
    want = dict.fromkeys(RULES)
    want["recovery"] = 2
    assert rule_violations(stable, decisions) == want
    assert check_decision_sequence(stable, decisions) == ("recovery", 2)
    assert rule_violations([True], [(DEFAULT, DEFAULT)]) == dict.fromkeys(RULES)


def test_recovery_tests_for_default_by_identity():
    # Every rule, like the protocol, tells DEFAULT by identity. A datum that
    # only compares equal to DEFAULT is not DEFAULT, so this split row after
    # two stable rounds breaks agreement but not recovery.
    class EqualsDefault:
        def __eq__(self, other):
            return other is DEFAULT

        __hash__ = object.__hash__

    stable = [True, True, True]
    decisions = [(HIGH, HIGH), (HIGH, HIGH), (HIGH, EqualsDefault())]
    assert EqualsDefault() == DEFAULT and DEFAULT in decisions[2]
    want = dict.fromkeys(RULES)
    want["agreement"] = 3
    assert rule_violations(stable, decisions) == want
