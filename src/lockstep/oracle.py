"""Round-granularity abstract model of the protocol with brute-force verification.

The timed machinery (windows, delays, retransmissions, relays) is collapsed
into one effective-delivery matrix per round: entry [j][i] says whether
vehicle i ended the round holding j's message, directly or relayed. What a
vehicle gossips next round is fully determined by that: its application value
after a complete round, DEFAULT after an incomplete one. This small model is
the ground truth the timed simulator is checked against.

A round reads its matrix only through the completeness vector (vehicle i is
complete when column i is all true), and stability is "every vehicle
complete", so every matrix with the same vector gives the same decisions and
verdict. The exhaustive check therefore enumerates the 2^n completeness
vectors per round instead of the 2^(n(n-1)) matrices, and counts covered
delivery patterns with their multiplicity. Its size bound is n x rounds <= 18,
so 3 vehicles x 6 rounds, 4 x 4 and 5 x 3 are all exhaustive.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .protocol import DEFAULT, ConfigError, Datum, DecideFn, checked_decide, is_default

# E[j][i] == True iff vehicle i+1 effectively receives the round message of
# vehicle j+1. The diagonal is forced true (own slot is always present).
DeliveryMatrix = tuple[tuple[bool, ...], ...]

MAX_EXHAUSTIVE_BITS = 18


def full_matrix(n: int) -> DeliveryMatrix:
    return tuple((True,) * n for _ in range(n))


def matrix_from_missing(n: int, missing: Sequence[tuple[int, int]]) -> DeliveryMatrix:
    """Build a delivery matrix with the given (sender, receiver) id pairs cut."""
    rows = [[True] * n for _ in range(n)]
    for j, i in missing:
        if j == i:
            raise ValueError("diagonal entries are forced true")
        rows[j - 1][i - 1] = False
    return tuple(tuple(row) for row in rows)


def abstract_round(
    sent: tuple,
    matrix: DeliveryMatrix,
    decide: DecideFn,
    read_state: tuple,
    drop_default_write: bool = False,
) -> tuple[tuple, tuple]:
    """One protocol round at effective-delivery granularity.

    ``sent`` is what each vehicle gossiped this round; ``read_state`` is what
    each would gossip next round after a complete one. Returns
    (decisions, next_sent). ``drop_default_write`` is a deliberate mutant that
    skips writing DEFAULT into the own slot after a failure; it exists to show
    the verifier catches the resulting consecutive disagreements.
    """
    n = len(sent)
    complete = tuple(all(matrix[j][i] for j in range(n)) for i in range(n))
    full_decision: Datum = None
    decisions = []
    next_sent = []
    for i in range(n):
        if complete[i]:
            if full_decision is None:
                # Every complete vehicle holds the same vector: all of `sent`.
                full_decision = checked_decide(decide, sent)
            decisions.append(full_decision)
            next_sent.append(read_state[i])
        else:
            decisions.append(DEFAULT)
            next_sent.append(read_state[i] if drop_default_write else DEFAULT)
    return tuple(decisions), tuple(next_sent)


def run_abstract(
    n: int,
    matrices: Sequence[DeliveryMatrix],
    decide: DecideFn,
    read_state: Optional[tuple] = None,
    drop_default_write: bool = False,
) -> list[tuple]:
    """Run the abstract model over a matrix sequence.

    Matrices describe rounds 0..T-1; the returned list holds the decision
    vectors entering rounds 1..T. Initially every vehicle gossips its
    read_state value, mirroring a freshly initialized instance.
    """
    if read_state is None:
        read_state = tuple("value" for _ in range(n))
    sent = read_state
    decisions = []
    for matrix in matrices:
        row, sent = abstract_round(sent, matrix, decide, read_state, drop_default_write)
        decisions.append(row)
    return decisions


@dataclass
class Counterexample:
    rule: str
    round: int
    matrices: list[DeliveryMatrix]
    decisions: list[tuple]

    def describe(self) -> str:
        return f"{self.rule} violated at round {self.round}"


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
                "matrices": [[list(row) for row in m] for m in ce.matrices],
                "decisions": [[repr(d) for d in row] for row in ce.decisions],
            }
        return out


def _unstable_periods(stable: Sequence[bool]) -> list[tuple[int, int]]:
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


def check_decision_sequence(
    stable: Sequence[bool], decisions: Sequence[tuple]
) -> Optional[tuple[str, int]]:
    """Check the bounded-disagreement rules on one run of the abstract model.

    ``stable[r]`` classifies round r (r = 0..T-1); ``decisions[t-1]`` is the
    vector entering round t (t = 1..T). Returns (rule, round) for the first
    violation, or None. The rules, for every maximal unstable period [r1, r2]
    and any directly following maximal stable period [r2+1, r3]:

      one-round-uncertainty: no two consecutive rounds with split decisions;
      default-correction:    all-DEFAULT decisions on [r1+2, r2+1];
      agreement:             identical decisions on [r1+2, r3+1], and on
                             [1, r3+1] for a run that starts stable.
    """
    T = len(decisions)

    def row(t: int) -> tuple:
        return decisions[t - 1]

    def split(t: int) -> bool:
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

    # Agreement intervals: a leading stable prefix acts like the tail of a
    # recovered period; each unstable period covers up to the end of the
    # stable period that follows it (or the horizon).
    spans = []
    if not periods or periods[0][0] > 0:
        first_unstable = periods[0][0] if periods else len(stable)
        spans.append((1, first_unstable))  # decisions 1..r3+1 with r3 = first_unstable-1
    for idx, (r1, r2) in enumerate(periods):
        r3 = periods[idx + 1][0] - 1 if idx + 1 < len(periods) else len(stable) - 1
        spans.append((r1 + 2, r3 + 1))
    for lo, hi in spans:
        for t in range(max(lo, 1), min(hi, T) + 1):
            if split(t):
                return ("agreement", t)
    return None


def _stability(matrices: Sequence[DeliveryMatrix]) -> list[bool]:
    return [all(all(row) for row in m) for m in matrices]


def verify_sequence(
    n: int,
    matrices: Sequence[DeliveryMatrix],
    decide: DecideFn,
    read_state: Optional[tuple] = None,
    drop_default_write: bool = False,
) -> Optional[Counterexample]:
    decisions = run_abstract(n, matrices, decide, read_state, drop_default_write)
    hit = check_decision_sequence(_stability(matrices), decisions)
    if hit is None:
        return None
    rule, rnd = hit
    return Counterexample(rule, rnd, list(matrices), decisions)


def _class_representatives(n: int) -> list[tuple[int, DeliveryMatrix]]:
    """One delivery matrix per realizable completeness vector, with its literal index.

    The literal order is ``itertools.product((True, False))`` over the
    off-diagonal cells, row-major; a matrix's index is its rank in it. The
    smallest matrix of a class cuts, for each incomplete vehicle i, only the
    link of column i that comes last in that order. Sorted by index.
    """
    offdiag = [(j, i) for j in range(n) for i in range(n) if j != i]
    last_cell: dict[int, int] = {}
    for k, (_, i) in enumerate(offdiag):
        last_cell[i] = k
    # A vehicle without links (n == 1) is always complete.
    choices = [(None, last_cell[i]) if i in last_cell else (None,) for i in range(n)]
    reps = []
    for cuts in itertools.product(*choices):
        rows = [[True] * n for _ in range(n)]
        index = 0
        for k in cuts:
            if k is not None:
                j, i = offdiag[k]
                rows[j][i] = False
                index |= 1 << (len(offdiag) - 1 - k)
        reps.append((index, tuple(tuple(row) for row in rows)))
    reps.sort()
    return reps


def enumerate_and_verify(
    n: int,
    rounds: int,
    decide: DecideFn,
    read_state: Optional[tuple] = None,
    drop_default_write: bool = False,
) -> VerificationReport:
    """Check every delivery-pattern sequence of the given size; halt on a counterexample.

    Each completeness-vector sequence is checked once, through its smallest
    matrix sequence. On a pass ``patterns_checked`` counts every matrix
    sequence covered, 2^(n(n-1) x rounds). On a failure it is the rank of the
    first failing matrix sequence in literal order, plus one: failure depends
    only on the class sequence, so that sequence is the per-round smallest
    representatives of the first failing class sequence.
    """
    # One completeness bit per vehicle and round; a lone vehicle has no links,
    # so its only class is the complete one.
    bits = (n if n > 1 else 0) * rounds
    if bits > MAX_EXHAUSTIVE_BITS:
        raise ConfigError(
            f"exhaustive search over n x rounds = {bits} completeness bits exceeds "
            f"the bound {MAX_EXHAUSTIVE_BITS}; use sampling (--trials)"
        )
    cell_bits = n * (n - 1)
    per_round = _class_representatives(n)
    for seq in itertools.product(per_round, repeat=rounds):
        ce = verify_sequence(n, [m for _, m in seq], decide, read_state, drop_default_write)
        if ce is not None:
            rank = 0
            for index, _ in seq:
                rank = (rank << cell_bits) | index
            return VerificationReport(n, rounds, rank + 1, ce, {"mode": "exhaustive"})
    return VerificationReport(n, rounds, 1 << (cell_bits * rounds), None, {"mode": "exhaustive"})


def sample_matrix(rng: random.Random, n: int, link_up_probability: float) -> DeliveryMatrix:
    rows = []
    for j in range(n):
        row = tuple(
            True if i == j else rng.random() < link_up_probability for i in range(n)
        )
        rows.append(row)
    return tuple(rows)


def sample_and_verify(
    n: int,
    rounds: int,
    trials: int,
    seed: int,
    decide: DecideFn,
    read_state: Optional[tuple] = None,
    drop_default_write: bool = False,
    stable_round_probability: float = 0.5,
    link_up_probability: float = 0.8,
) -> VerificationReport:
    """Randomized variant for fleets too large to enumerate; reproducible by seed.

    Per round, with probability ``stable_round_probability`` the matrix is
    all-true; otherwise each off-diagonal link is up independently. The mix
    produces runs that alternate between stable and unstable periods.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    complete = full_matrix(n)
    for trial in range(trials):
        seq = [
            complete
            if rng.random() < stable_round_probability
            else sample_matrix(rng, n, link_up_probability)
            for _ in range(rounds)
        ]
        ce = verify_sequence(n, seq, decide, read_state, drop_default_write)
        if ce is not None:
            return VerificationReport(
                n, rounds, trial + 1, ce, {"mode": "sampled", "seed": seed, "trial": trial}
            )
    return VerificationReport(n, rounds, trials, None, {"mode": "sampled", "seed": seed})
