"""Round-granularity abstract model of the protocol with brute-force verification.

The timed machinery (windows, delays, retransmissions, relays) is collapsed
into one completeness vector per round: ``complete[i]`` says whether vehicle
i+1 ended the round holding every member's message, directly or relayed.
What a vehicle gossips next round is fully determined by that: its
application value after a complete round, DEFAULT after an incomplete one.
A round is stable when every vehicle is complete. This small model is the
ground truth the timed simulator is checked against.

A delivery matrix's entry [j][i] says whether vehicle i ended the round
holding j's message, so its vector is "column i all true", and every matrix
with the same vector gives the same decisions and verdict. Both verifiers
therefore search and store completeness vectors only. Matrices appear only
where a report is written (``VerificationReport.to_json``): each round of a
counterexample as the first matrix with its vector in literal order
(``_smallest_matrix``). The exhaustive check enumerates the 2^n completeness
vectors per round instead of the 2^(n(n-1)) matrices, in the order in which
the k-th vector's first matrix is literal matrix k, so a failure's literal
rank needs no matrix. It counts covered delivery patterns with their
multiplicity. Its size bound is n x rounds <= 18, so 3 vehicles x 6 rounds,
4 x 4 and 5 x 3 are all exhaustive.

The sampled check draws vectors, not links. Each unstable round draws its
own q, and each vehicle is complete with probability q, so every count of
complete vehicles is equally likely, and an unstable round splits the fleet
with probability (n - 1)/(n + 1), which grows with n (see ``sample_and_verify``).

The protocol absorbs DEFAULT (``checked_decide``), so the model holds no sent
vector: each verifier calls ``decide`` once, and all its sequences share one
memo of rows (``run_abstract``).

The four rules of the guarantee, ``RULES``, are implemented once, in
``rule_violations``; the trace checkers in ``analysis`` read the same
function, and the verifiers report the first broken rule in ``RULES`` order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .protocol import DEFAULT, MAX_MEMBERS, ConfigError, DecideFn, checked_decide, is_default

# E[j][i] == True iff vehicle i+1 effectively receives the round message of
# vehicle j+1. The diagonal is forced true (own slot is always present).
DeliveryMatrix = tuple[tuple[bool, ...], ...]

MAX_EXHAUSTIVE_BITS = 18

# The longest run either verifier takes, and the most delivery cells (n x n a
# round) a failing report may render: a failure at n=16 over 10,000 rounds
# peaks at 351 MB. At the bounds, failing `verify --mutate drop-default-write`
# runs peaked at 103-220 MB RSS in under 1.3 s (n = 2, 5, 8, 31; 2 shared cores).
MAX_VERIFY_ROUNDS = 50_000
MAX_REPORT_CELLS = 1_000_000

# The round mix of ``sample_and_verify``.
STABLE_ROUND_PROBABILITY = 0.5

_ROWS_SIZE = 1024  # a memo this full starts afresh: n=8's 256 rows take 0.06 MB, n=256 4.3 MB


def run_abstract(
    completes: Iterable[tuple[bool, ...]],
    decide: DecideFn,
    read_state: tuple,
    drop_default_write: bool = False,
    rows: Optional[dict] = None,
) -> list[tuple]:
    """Run the abstract model over a sequence of completeness vectors.

    The vectors describe rounds 0..T-1; the returned list holds the decision
    vectors entering rounds 1..T; round -1 counts as stable. After a stable
    round every vehicle holds read_state, so a complete vehicle decides the
    stable decision, ``checked_decide(decide, read_state)``, and an incomplete
    one DEFAULT. After an unstable round some slot holds DEFAULT, so every
    vehicle decides DEFAULT. ``drop_default_write`` is a deliberate mutant that
    skips writing DEFAULT into the own slot after a failure, so every round
    reads as if the one before it was stable; the verifiers must catch it.

    ``rows`` maps a vector to its row after a stable round. It keeps the
    stable vector's row when it starts afresh, so ``decide`` runs once a memo.
    One memo serves one model: the same ``decide``, ``read_state`` and
    ``drop_default_write``, with ``decide`` a pure function of its vector.
    """
    rows = {} if rows is None else rows
    n = len(read_state)
    stable = (True,) * n
    if stable not in rows:
        rows[stable] = (checked_decide(decide, read_state),) * n
    stable_row, fallback = rows[stable], (DEFAULT,) * n
    decisions = []
    after_stable = True
    for complete in completes:
        row = rows.get(complete) if after_stable else fallback
        if row is None:
            if len(rows) >= _ROWS_SIZE:
                rows.clear()
                rows[stable] = stable_row
            row = rows[complete] = tuple([stable_row[0] if ok else DEFAULT for ok in complete])
        decisions.append(row)
        after_stable = drop_default_write or all(complete)
    return decisions


@dataclass
class Counterexample:
    rule: str
    round: int
    completes: list[tuple[bool, ...]]
    decisions: list[tuple]


@dataclass
class VerificationReport:
    n: int
    rounds: int
    patterns_checked: int
    counterexample: Optional[Counterexample] = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "rounds": self.rounds,
            "patterns_checked": self.patterns_checked,
            "passed": self.passed,
        }
        out.update(self.details)
        if self.counterexample is not None:
            ce = self.counterexample
            out["counterexample"] = {
                "rule": ce.rule,
                "round": ce.round,
                "matrices": [[list(row) for row in _smallest_matrix(c)] for c in ce.completes],
                "decisions": [[repr(d) for d in row] for row in ce.decisions],
            }
        return out


RULES = ("one-round-uncertainty", "default-correction", "agreement", "recovery")


def split(row: tuple) -> bool:
    """True when the vehicles of one decision row do not all decide the same."""
    return row.count(row[0]) != len(row)


def rule_violations(
    stable: Sequence[bool], decisions: Sequence[tuple]
) -> dict[str, Optional[int]]:
    """The first round breaking each rule of the guarantee, or None per rule.

    ``stable[r]`` classifies round r (r = 0..T-1); ``decisions[t-1]`` is the
    vector entering round t (t = 1..T). Every rule is a check on row t that
    looks back at most two rounds, at the classes of rounds t-1 and t-2:

      one-round-uncertainty: rows t-1 and t are not both split;
      default-correction:    if rounds t-2 and t-1 are both unstable, row t
                             is all DEFAULT (for a maximal unstable period
                             [r1, r2] these are rows r1+2 .. r2+1);
      agreement:             row t is not split, unless round t-1 is unstable
                             and round t-2 is stable or before round 0 (row
                             r1+1, where a period starting at r1 may split);
      recovery:              if t >= 2 and rounds t-2 and t-1 are both
                             stable, row t holds no DEFAULT (rows a+2 .. b+1
                             of a maximal stable period [a, b]).

    Rounds before round 0 count as stable for the first three rules; row 1 is
    startup and exempt from recovery. The keys are ``RULES``, in order.
    """
    uncertainty = correction = agreement = recovery = None
    two_back = one_back = True
    split_before = False
    for t, row in enumerate(decisions, start=1):
        two_back, one_back = one_back, stable[t - 1]
        is_split = split(row)
        if is_split and split_before and uncertainty is None:
            uncertainty = t
        # A split row holds a datum that is not DEFAULT; any other row is row[0].
        if (not (one_back or two_back) and correction is None
                and (is_split or not is_default(row[0]))):
            correction = t
        if is_split and (one_back or not two_back) and agreement is None:
            agreement = t
        if (t > 1 and one_back and two_back and recovery is None
                and (any(map(is_default, row)) if is_split else is_default(row[0]))):
            recovery = t
        split_before = is_split
    return dict(zip(RULES, (uncertainty, correction, agreement, recovery)))


def check_decision_sequence(
    stable: Sequence[bool], decisions: Sequence[tuple]
) -> Optional[tuple[str, int]]:
    """The first rule of ``RULES`` that one run of the abstract model breaks.

    Returns (rule, round) with the round from ``rule_violations``, or None.
    """
    violations = rule_violations(stable, decisions).items()
    return next(((rule, rnd) for rule, rnd in violations if rnd is not None), None)


def _first_break(
    completes: Sequence[Sequence[bool]],
    decide: DecideFn,
    read_state: tuple,
    drop_default_write: bool,
    rows: dict,
) -> Optional[tuple[str, int, list[tuple]]]:
    """Run the model over one vector sequence: (rule, round, decisions) if it breaks a rule."""
    decisions = run_abstract(completes, decide, read_state, drop_default_write, rows)
    hit = check_decision_sequence([all(c) for c in completes], decisions)
    return None if hit is None else (*hit, decisions)


def check_size(n: int, rounds: int) -> None:
    if not (1 <= n <= MAX_MEMBERS and 1 <= rounds <= MAX_VERIFY_ROUNDS
            and n * n * rounds <= MAX_REPORT_CELLS):
        raise ConfigError(f"verification needs n in 1..{MAX_MEMBERS}, rounds in "
                          f"1..{MAX_VERIFY_ROUNDS} and n x n x rounds <= {MAX_REPORT_CELLS}, "
                          f"got n={n}, rounds={rounds}")


def _smallest_matrix(complete: Sequence[bool]) -> DeliveryMatrix:
    """The first delivery matrix with this completeness vector in literal order.

    The literal order is ``itertools.product((True, False))`` over the
    off-diagonal cells, row-major. The smallest matrix cuts, for each
    incomplete vehicle i, only the link of column i that comes last in that
    order: the one from the last vehicle, or from the one before it when i is
    the last.
    """
    n = len(complete)
    rows = [[True] * n for _ in range(n)]
    for i, ok in enumerate(complete):
        if not ok:
            rows[n - 1 if i < n - 1 else n - 2][i] = False
    return tuple(map(tuple, rows))


def enumerate_and_verify(
    n: int,
    rounds: int,
    decide: DecideFn,
    read_state: tuple,
    drop_default_write: bool = False,
) -> VerificationReport:
    """Check every delivery-pattern sequence of the given size; halt on a counterexample.

    Each completeness-vector sequence is checked once, through its smallest
    matrix sequence. On a pass ``patterns_checked`` counts every matrix
    sequence covered, 2^(n(n-1) x rounds). On a failure it is the rank of the
    first failing matrix sequence in literal order, plus one: failure depends
    only on the vector sequence, so that sequence is the per-round smallest
    matrices of the first failing vector sequence.

    The vectors of a round are enumerated with vehicle n's bit leading, so
    the k-th one's ``_smallest_matrix`` has literal index exactly k: it cuts
    vehicle n's link in row n-1 and every other vehicle's in row n, the last
    n off-diagonal cells. A sequence's rank reads its k's as digits.
    """
    check_size(n, rounds)
    # One completeness bit per vehicle and round; a lone vehicle has no links,
    # so its only vector is the complete one.
    bits = (n if n > 1 else 0) * rounds
    if bits > MAX_EXHAUSTIVE_BITS:
        raise ConfigError(
            f"exhaustive search over n x rounds = {bits} completeness bits exceeds "
            f"the bound {MAX_EXHAUSTIVE_BITS}; use sampling (--trials)"
        )
    cell_bits = n * (n - 1)
    vectors = ([(*rest, last) for last, *rest in itertools.product((True, False), repeat=n)]
               if n > 1 else [(True,)])
    rows: dict = {}
    for completes in itertools.product(vectors, repeat=rounds):
        hit = _first_break(completes, decide, read_state, drop_default_write, rows)
        if hit is not None:
            rule, rnd, decisions = hit
            rank = 0
            for c in completes:
                rank = (rank << cell_bits) | vectors.index(c)
            ce = Counterexample(rule, rnd, list(completes), decisions)
            return VerificationReport(n, rounds, rank + 1, ce, {"mode": "exhaustive"})
    return VerificationReport(n, rounds, 1 << (cell_bits * rounds), None, {"mode": "exhaustive"})


def sample_and_verify(
    n: int,
    rounds: int,
    trials: int,
    seed: int,
    decide: DecideFn,
    read_state: tuple,
    drop_default_write: bool = False,
) -> VerificationReport:
    """Randomized variant for fleets too large to enumerate; reproducible by seed.

    Per round, one ``draw() < STABLE_ROUND_PROBABILITY`` draws a stable
    round (every round, for a lone vehicle); otherwise the round draws q uniform in [0, 1), and each vehicle is
    complete on its own ``draw() < q``. The count of complete vehicles is then
    uniform on 0..n (a Beta(1, 1) mixture of binomials), so an unstable round
    splits the fleet with probability (n - 1)/(n + 1) at every n: the
    agreement and one-round-uncertainty rules are exercised in large fleets
    too. The mix produces runs that alternate between stable and unstable
    periods. A failing report renders each round as its vector's
    ``_smallest_matrix``.

    A passing report holds nothing drawn, so it reads the same under any law
    of the draws; a failing report's trial and matrices follow this one.
    """
    check_size(n, rounds)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    draw = random.Random(seed).random
    stable = (True,) * n
    # A lone vehicle has no links to lose: its every round is stable.
    stable_probability = STABLE_ROUND_PROBABILITY if n > 1 else 1.0
    rows: dict = {}
    for trial in range(trials):
        # An unstable round's q is drawn before its n vehicle draws.
        completes = [
            stable if draw() < stable_probability
            else tuple([draw() < q for q in (draw(),) for _ in range(n)])
            for _ in range(rounds)
        ]
        hit = _first_break(completes, decide, read_state, drop_default_write, rows)
        if hit is not None:
            rule, rnd, decisions = hit
            return VerificationReport(
                n, rounds, trial + 1, Counterexample(rule, rnd, completes, decisions),
                {"mode": "sampled", "seed": seed, "trial": trial},
            )
    return VerificationReport(n, rounds, trials, None, {"mode": "sampled", "seed": seed})
