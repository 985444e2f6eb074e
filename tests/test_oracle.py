"""Tests for the round-granularity abstract model and its brute-force verifier."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lockstep import oracle
from lockstep.oracle import (
    MAX_EXHAUSTIVE_BITS,
    Counterexample,
    VerificationReport,
    check_decision_sequence,
    enumerate_and_verify,
    run_abstract,
    sample_and_verify,
)
from lockstep.platoon import ServiceLevel, min_level_decide
from lockstep.protocol import (
    DEFAULT,
    ConfigError,
    Datum,
    checked_decide,
    is_default,
)

HIGH = ServiceLevel.HIGH


def high_state(n):
    return (HIGH,) * n


def keep_high(s):
    """A decide that never looks at its vector, so it does not absorb DEFAULT itself."""
    return HIGH


def full_matrix(n):
    return tuple((True,) * n for _ in range(n))


def matrix_from_missing(n, missing):
    """Build a delivery matrix with the given (sender, receiver) id pairs cut."""
    rows = [[True] * n for _ in range(n)]
    for j, i in missing:
        if j == i:
            raise ValueError("diagonal entries are forced true")
        rows[j - 1][i - 1] = False
    return tuple(tuple(row) for row in rows)


def completeness(matrix):
    """Which vehicles ended the round holding every message: column i all true."""
    return tuple(map(all, zip(*matrix)))


def test_run_abstract_all_delivered():
    full = completeness(full_matrix(3))
    decisions = run_abstract([full, full], min_level_decide, high_state(3))
    assert decisions == [(HIGH, HIGH, HIGH)] * 2  # and the round after still sends HIGH
    # A call without a memo starts its own: another read state decides afresh.
    low = (ServiceLevel.LOW,) * 3
    assert run_abstract([full], min_level_decide, low) == [low]


def test_run_abstract_single_missing_link_splits_once():
    e = matrix_from_missing(2, [(2, 1)])  # vehicle 1 misses vehicle 2
    (decisions,) = run_abstract([completeness(e)], min_level_decide, high_state(2))
    assert is_default(decisions[0]) and decisions[1] == HIGH


def test_run_abstract_flushes_default_next_round():
    incomplete = completeness(matrix_from_missing(2, [(2, 1)]))
    full = completeness(full_matrix(2))
    _, decisions, after = run_abstract([incomplete, full, full], min_level_decide, high_state(2))
    assert all(is_default(d) for d in decisions)  # everyone sees the gossiped default
    assert after == (HIGH, HIGH)  # and the round after it sends HIGH again


def test_run_abstract_recovery_timeline():
    n = 2
    matrices = [full_matrix(n), matrix_from_missing(n, [(2, 1)]), full_matrix(n), full_matrix(n)]
    decisions = run_abstract(map(completeness, matrices), min_level_decide, high_state(n))
    assert decisions[0] == (HIGH, HIGH)
    assert is_default(decisions[1][0]) and decisions[1][1] == HIGH
    assert all(is_default(d) for d in decisions[2])
    assert decisions[3] == (HIGH, HIGH)


def test_enumerate_n2_all_patterns_pass():
    report = enumerate_and_verify(2, 3, min_level_decide, high_state(2))
    assert report.passed
    assert report.patterns_checked == 64


def test_enumerate_3x4_passes_with_multiplicity():
    report = enumerate_and_verify(3, 4, min_level_decide, high_state(3))
    assert report.passed
    assert report.patterns_checked == 2**24


def test_enumerate_rejects_oversized_space():
    assert 3 * 7 > MAX_EXHAUSTIVE_BITS
    with pytest.raises(ConfigError):
        enumerate_and_verify(3, 7, min_level_decide, high_state(3))


def all_matrices(n):
    """Every delivery matrix over n vehicles (diagonal forced true), in literal order."""
    offdiag = [(j, i) for j in range(n) for i in range(n) if j != i]
    out = []
    for bits in itertools.product((True, False), repeat=len(offdiag)):
        rows = [[True] * n for _ in range(n)]
        for (j, i), present in zip(offdiag, bits):
            rows[j][i] = present
        out.append(tuple(tuple(row) for row in rows))
    return out


def literal_enumerate_and_verify(n, rounds, decide, read_state, drop_default_write=False):
    """Reference: check every matrix sequence one by one, in literal order.

    Returns the report's JSON, its counterexample rendered from the failing
    matrix sequence itself.
    """
    checked = 0
    for seq in itertools.product(all_matrices(n), repeat=rounds):
        checked += 1
        ce = reference_verify_sequence(n, seq, decide, read_state, drop_default_write)
        if ce is not None:
            return literal_json(VerificationReport(n, rounds, checked, ce, {"mode": "exhaustive"}),
                                seq)
    return VerificationReport(n, rounds, checked, None, {"mode": "exhaustive"}).to_json()


@pytest.mark.parametrize("mutant", [False, True])
@pytest.mark.parametrize("n,rounds", [(1, 3), (2, 1), (2, 2), (2, 3), (2, 4),
                                      (3, 1), (3, 2), (3, 3)])
def test_enumerate_matches_literal_enumeration(n, rounds, mutant):
    """The completeness-vector quotient reports exactly what matrix enumeration does."""
    got = enumerate_and_verify(n, rounds, min_level_decide, high_state(n),
                               drop_default_write=mutant)
    want = literal_enumerate_and_verify(n, rounds, min_level_decide, high_state(n),
                                        drop_default_write=mutant)
    assert got.to_json() == want


def test_mutant_without_default_write_is_caught():
    report = enumerate_and_verify(2, 3, min_level_decide, high_state(2),
                                  drop_default_write=True)
    assert not report.passed
    assert isinstance(report.counterexample, Counterexample)
    assert report.counterexample.rule == "one-round-uncertainty"


def test_all_false_matrices_stay_uniformly_default():
    n = 4
    dead = tuple(tuple(i == j for i in range(n)) for j in range(n))
    assert reference_verify_sequence(n, [dead] * 5, min_level_decide, high_state(n)) is None
    decisions = run_abstract([completeness(dead)] * 5, min_level_decide, high_state(n))
    for row in decisions:
        assert all(is_default(d) for d in row)


def test_sampled_verification_reproducible():
    a = sample_and_verify(8, 50, 300, seed=11, decide=min_level_decide,
                          read_state=high_state(8))
    b = sample_and_verify(8, 50, 300, seed=11, decide=min_level_decide,
                          read_state=high_state(8))
    assert a.passed and b.passed
    assert a.to_json() == b.to_json()


def test_sampled_verification_catches_mutant():
    report = sample_and_verify(4, 20, 500, seed=5, decide=min_level_decide,
                               read_state=high_state(4), drop_default_write=True)
    assert not report.passed


def sticky_round(sent, complete, decide, read_state, drop_default_write=False):
    """A model in which a vehicle that has gossiped DEFAULT keeps gossiping it."""
    decision = checked_decide(decide, sent) if any(complete) else DEFAULT
    return (tuple(decision if ok else DEFAULT for ok in complete),
            tuple(DEFAULT if is_default(old) or not (ok or drop_default_write) else r
                  for old, r, ok in zip(sent, read_state, complete)))


def sticky_run(completes, decide, read_state, drop_default_write=False, rows=None):
    """``run_abstract`` for the model of ``sticky_round``, a fold of it with no memo.

    Its next sent vector depends on the one before, so no memo keyed by the
    completeness vector alone could serve it: it stands in for the whole run.
    """
    sent, decisions = read_state, []
    for complete in completes:
        row, sent = sticky_round(sent, complete, decide, read_state, drop_default_write)
        decisions.append(row)
    return decisions


def test_a_model_that_never_recovers_is_caught(monkeypatch):
    """A vehicle that has gossiped DEFAULT keeps gossiping it: no rule but recovery breaks."""
    monkeypatch.setattr(oracle, "run_abstract", sticky_run)
    report = enumerate_and_verify(2, 3, min_level_decide, high_state(2))
    assert not report.passed
    assert (report.counterexample.rule, report.counterexample.round) == ("recovery", 3)
    assert report.patterns_checked == 17
    report = sample_and_verify(8, 50, 500, seed=1, decide=min_level_decide,
                               read_state=high_state(8))
    assert not report.passed
    assert report.counterexample.rule == "recovery"


@st.composite
def matrix_pairs(draw):
    """A random matrix sequence plus a pointwise superset of it."""
    n = draw(st.integers(min_value=2, max_value=4))
    rounds = draw(st.integers(min_value=1, max_value=4))
    seqs = []
    sups = []
    for _ in range(rounds):
        base = []
        sup = []
        for j in range(n):
            row_b, row_s = [], []
            for i in range(n):
                if i == j:
                    row_b.append(True)
                    row_s.append(True)
                else:
                    b = draw(st.booleans())
                    row_b.append(b)
                    row_s.append(b or draw(st.booleans()))
            base.append(tuple(row_b))
            sup.append(tuple(row_s))
        seqs.append(tuple(base))
        sups.append(tuple(sup))
    return n, seqs, sups


@settings(max_examples=200)
@given(matrix_pairs())
def test_relay_monotonicity(case):
    """More delivery never flips a decided value, only resolves defaults."""
    n, base, sup = case
    d_base = run_abstract(map(completeness, base), min_level_decide, high_state(n))
    d_sup = run_abstract(map(completeness, sup), min_level_decide, high_state(n))
    for row_b, row_s in zip(d_base, d_sup):
        for b, s in zip(row_b, row_s):
            if not is_default(b):
                assert b == s


# ---------------------------------------------------------------------------
# Reference: the model over delivery matrices
# ---------------------------------------------------------------------------

# The matrix-form round and run that the completeness-vector model replaced,
# kept verbatim but for the default read state and the round's name.

def reference_matrix_round(
    sent: tuple,
    matrix,
    decide,
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


def reference_run_abstract(n, matrices, decide, read_state, drop_default_write=False):
    sent = read_state
    decisions = []
    for matrix in matrices:
        row, sent = reference_matrix_round(sent, matrix, decide, read_state,
                                           drop_default_write)
        decisions.append(row)
    return decisions


LEVELS = st.sampled_from([DEFAULT, ServiceLevel.LOW, ServiceLevel.MEDIUM, HIGH])


def random_matrix(draw, n):
    """A delivery matrix with each off-diagonal link up three times in four."""
    return tuple(tuple(i == j or draw(st.integers(min_value=0, max_value=3)) > 0
                       for i in range(n)) for j in range(n))


# Decides the models must agree on: the minimum, the maximum and one that never
# looks at its vector. None tests for DEFAULT: only the protocol's absorption
# keeps a view that holds it from deciding a value.
DECIDES = st.sampled_from([min_level_decide, keep_high, max])


@st.composite
def model_runs(draw):
    """Matrix sequences (three links in four up), a read state that may hold
    DEFAULT, a mutant flag and a decide."""
    n = draw(st.integers(min_value=1, max_value=5))
    rounds = draw(st.integers(min_value=0, max_value=5))
    matrices = [random_matrix(draw, n) for _ in range(rounds)]
    read_state = tuple(draw(st.lists(LEVELS, min_size=n, max_size=n)))
    return n, matrices, read_state, draw(st.booleans()), draw(DECIDES)


@settings(max_examples=500)
@given(model_runs())
def test_completeness_model_matches_the_matrix_model(case):
    n, matrices, read_state, mutant, decide = case
    assert run_abstract(map(completeness, matrices), decide, read_state, mutant) == \
        reference_run_abstract(n, matrices, decide, read_state, mutant)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_completeness_reads_columns(n):
    """Cutting only the link j -> i marks exactly vehicle i incomplete."""
    assert completeness(full_matrix(n)) == (True,) * n
    for j, i in itertools.permutations(range(1, n + 1), 2):
        want = tuple(v != i for v in range(1, n + 1))
        assert completeness(matrix_from_missing(n, [(j, i)])) == want


# ---------------------------------------------------------------------------
# Reference: the sampler over completeness vectors
# ---------------------------------------------------------------------------

# The sampler written out literally: per round a stable draw, then, for an
# unstable round, one completeness draw per vehicle; a trial is checked
# through delivery matrices, each round's the first in literal order with
# its vector, and a failing report shows those matrices. A passing sampled
# report holds no matrices, so only a comparison with it pins the random
# stream.

def reference_sample_vectors(rng, n, rounds):
    vectors = []
    for _ in range(rounds):
        if rng.random() < oracle.STABLE_ROUND_PROBABILITY or n == 1:
            vectors.append((True,) * n)
        else:
            q = rng.random()
            vectors.append(tuple(rng.random() < q for _ in range(n)))
    return vectors


def reference_smallest_matrix(complete):
    """Cut, for each incomplete vehicle, its link from the highest other id."""
    n = len(complete)
    ids = range(1, n + 1)
    return matrix_from_missing(
        n, [(max(j for j in ids if j != i), i) for i, ok in zip(ids, complete) if not ok])


def reference_verify_sequence(n, matrices, decide, read_state, drop_default_write=False):
    completes = [completeness(m) for m in matrices]
    decisions = oracle.run_abstract(completes, decide, read_state, drop_default_write)
    hit = check_decision_sequence([all(c) for c in completes], decisions)
    if hit is None:
        return None
    rule, rnd = hit
    return Counterexample(rule, rnd, completes, decisions)


def literal_json(report, matrices):
    """``report.to_json()`` with its counterexample's rounds rendered as ``matrices``."""
    out = report.to_json()
    out["counterexample"]["matrices"] = [[list(row) for row in m] for m in matrices]
    return out


def reference_sample_and_verify(n, rounds, trials, seed, decide, read_state,
                                drop_default_write=False):
    """The report and, for a failure, the failing trial's matrix sequence (else None)."""
    rng = random.Random(seed)
    for trial in range(trials):
        seq = [reference_smallest_matrix(c) for c in reference_sample_vectors(rng, n, rounds)]
        ce = reference_verify_sequence(n, seq, decide, read_state, drop_default_write)
        if ce is not None:
            return VerificationReport(
                n, rounds, trial + 1, ce, {"mode": "sampled", "seed": seed, "trial": trial}
            ), seq
    return VerificationReport(n, rounds, trials, None, {"mode": "sampled", "seed": seed}), None


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=50), st.integers(), st.booleans())
def test_sampler_matches_the_matrix_sampler(n, rounds, trials, seed, mutant):
    args = (n, rounds, trials, seed, min_level_decide, high_state(n), mutant)
    want, matrices = reference_sample_and_verify(*args)
    want = want.to_json() if want.passed else literal_json(want, matrices)
    assert sample_and_verify(*args).to_json() == want


@pytest.mark.parametrize("n,rounds,seed,model", [(8, 50, 1, "never-recovers"),
                                                 (4, 20, 5, "mutant")])
def test_sampled_counterexample_matches_the_matrix_sampler(monkeypatch, n, rounds, seed, model):
    if model == "never-recovers":
        monkeypatch.setattr(oracle, "run_abstract", sticky_run)
    args = (n, rounds, 500, seed, min_level_decide, high_state(n), model == "mutant")
    got = sample_and_verify(*args)
    want, matrices = reference_sample_and_verify(*args)
    assert not want.passed
    assert got.details["trial"] == want.details["trial"]
    ce, ref = got.counterexample, want.counterexample
    assert (ce.rule, ce.round, ce.completes) == (ref.rule, ref.round, ref.completes)
    assert got.to_json() == literal_json(want, matrices)


@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_unstable_rounds_draw_every_count_of_complete_vehicles_alike(monkeypatch, n):
    """The sampler's rounds: half stable, the rest with q uniform and each
    vehicle complete below q. An unstable round's count of complete vehicles
    is uniform on 0..n, so it splits the fleet with probability
    (n - 1)/(n + 1) at every fleet size. (With each link up with 0.8, an
    unstable round at n = 32 had any complete vehicle with 0.03.)
    """
    seen = []
    monkeypatch.setattr(oracle, "_first_break", lambda completes, *rest: seen.extend(completes))
    assert sample_and_verify(n, 10, 400, n, min_level_decide, high_state(n)).passed
    counts = [sum(c) for c in seen]
    below = itertools.accumulate(counts.count(c) for c in range(n + 1))
    law = [0.5 * (c + 1) / (n + 1) for c in range(n)] + [1.0]
    assert max(abs(k / len(seen) - want) for k, want in zip(below, law)) < 0.03
    splits = sum(0 < c < n for c in counts)
    assert abs(splits / len(seen) - 0.5 * (n - 1) / (n + 1)) < 0.03


@pytest.mark.parametrize("model", ["mutant", "never-recovers"])
@pytest.mark.parametrize("n,rounds", [(2, 20), (8, 20), (16, 20), (32, 20), (64, 20),
                                      (128, 20), (256, 15)])
def test_sampled_verify_catches_both_models_at_every_fleet_size(monkeypatch, n, rounds, model):
    """200 trials catch the skipped DEFAULT write and the never-recovering
    model at each size. n = 256 runs 15 rounds, since ``check_size`` refuses
    256 x 256 x 20 cells. When each link was up with 0.8, the mutant passed
    2,000 trials at n = 64."""
    if model == "never-recovers":
        monkeypatch.setattr(oracle, "run_abstract", sticky_run)
    report = sample_and_verify(n, rounds, 200, 1, min_level_decide, high_state(n),
                               drop_default_write=model == "mutant")
    assert not report.passed


def test_large_fleet_counterexample_is_cheap_and_well_formed(monkeypatch):
    """A failure at n=24 stores its vectors, builds no matrix and never enumerates 2^24 vectors.

    Only rendering the report builds matrices, one per round.
    """
    n, rounds, trials, seed = 24, 50, 500, 1

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the sampler enumerated the completeness vectors")

    built = []

    def counted_matrix(complete):
        built.append(complete)
        return smallest_matrix(complete)

    smallest_matrix = oracle._smallest_matrix
    monkeypatch.setattr(oracle, "run_abstract", sticky_run)
    monkeypatch.setattr(itertools, "product", no_enumeration)
    monkeypatch.setattr(oracle, "_smallest_matrix", counted_matrix)
    t0 = time.perf_counter()
    report = sample_and_verify(n, rounds, trials, seed, min_level_decide, high_state(n))
    assert time.perf_counter() - t0 < 0.5
    assert built == []
    assert not report.passed
    assert report.counterexample.rule == "recovery"
    rng = random.Random(seed)
    for _ in range(report.details["trial"] + 1):
        vectors = reference_sample_vectors(rng, n, rounds)
    assert report.counterexample.completes == vectors
    assert not all(map(all, vectors))
    matrices = report.to_json()["counterexample"]["matrices"]
    assert built == vectors
    assert [completeness(m) for m in matrices] == vectors


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_smallest_matrix_is_the_class_representative(monkeypatch, n):
    """The exhaustive check's k-th vector of a round renders as literal matrix k.

    That matrix is the first with its vector, so a failing sequence's literal
    rank reads straight off the vectors' k's.
    """
    seen = []
    monkeypatch.setattr(oracle, "_first_break",
                        lambda completes, *rest: seen.append(completes[0]))
    assert enumerate_and_verify(n, 1, min_level_decide, high_state(n)).passed
    matrices = all_matrices(n)
    assert sorted(seen) == sorted(set(map(completeness, matrices)))  # each vector once
    for k, complete in enumerate(seen):
        assert oracle._smallest_matrix(complete) == matrices[k]
        assert matrices[k] == next(m for m in matrices if completeness(m) == complete)


# ---------------------------------------------------------------------------
# The row memo
# ---------------------------------------------------------------------------

@st.composite
def shared_memo_runs(draw):
    """Several matrix sequences of one model: one size, read state, mutant and decide."""
    n = draw(st.integers(min_value=1, max_value=5))
    runs = [[random_matrix(draw, n) for _ in range(draw(st.integers(min_value=0, max_value=5)))]
            for _ in range(draw(st.integers(min_value=1, max_value=8)))]
    read_state = tuple(draw(st.lists(LEVELS, min_size=n, max_size=n)))
    return n, runs, read_state, draw(st.booleans()), draw(DECIDES)


@settings(max_examples=300)
@given(shared_memo_runs())
def test_a_shared_table_matches_the_matrix_model(case):
    """One row memo serves every sequence of a model, and holds only rows of
    vectors it has met after a stable round."""
    n, runs, read_state, mutant, decide = case
    rows = {}
    for matrices in runs:
        got = run_abstract(map(completeness, matrices), decide, read_state, mutant, rows)
        assert got == reference_run_abstract(n, matrices, decide, read_state, mutant)
        stable_decision = checked_decide(decide, read_state)
        for complete, row in rows.items():
            assert row == tuple(stable_decision if ok else DEFAULT for ok in complete)


def test_a_full_table_starts_afresh_and_still_matches():
    """At n=11 the vectors met after a stable round are more than the row memo
    holds, so it fills and starts afresh, and ``decide`` still runs once."""
    n = 11
    read_state = (HIGH, ServiceLevel.LOW, HIGH, ServiceLevel.MEDIUM, HIGH, HIGH) + high_state(5)
    stable = (True,) * n
    rng = random.Random(3)
    calls = []

    def decide(s):
        calls.append(s)
        return min_level_decide(s)

    rows, met, sizes = {}, set(), []
    for _ in range(400):
        # Each drawn vector follows a stable round, and each stable one an unstable round.
        vectors = [v for _ in range(4) for v in (tuple(rng.random() < 0.5 for _ in range(n)),
                                                 stable)]
        matrices = [oracle._smallest_matrix(v) for v in vectors]
        want = reference_run_abstract(n, matrices, min_level_decide, read_state)
        assert run_abstract(vectors, decide, read_state, False, rows) == want
        met.update(vectors)
        sizes.append(len(rows))
    assert len(met) > oracle._ROWS_SIZE
    assert max(sizes) <= oracle._ROWS_SIZE
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the memo started afresh
    assert calls == [read_state]


def test_a_decide_that_keeps_its_value_still_falls_back():
    """After an unstable round every row is DEFAULT, whatever ``decide``
    returns, from a fresh memo and from a filled one."""
    rows = {}
    split, stable = (True, False, True), (True,) * 3
    for _ in range(2):
        got = run_abstract([split, split, stable, stable], keep_high, high_state(3), False, rows)
        assert got == [(HIGH, DEFAULT, HIGH), (DEFAULT,) * 3, (DEFAULT,) * 3, (HIGH,) * 3]
    assert rows == {stable: (HIGH,) * 3, split: (HIGH, DEFAULT, HIGH)}


def test_a_decide_that_keeps_its_value_verifies_like_min_level_decide():
    """The protocol absorbs DEFAULT, so a decide that does not gives the same reports."""
    for verify in (lambda decide: enumerate_and_verify(3, 3, decide, high_state(3)),
                   lambda decide: sample_and_verify(8, 50, 500, 1, decide, high_state(8)),
                   lambda decide: enumerate_and_verify(2, 3, decide, high_state(2),
                                                       drop_default_write=True)):
        assert verify(keep_high).to_json() == verify(min_level_decide).to_json()


def test_each_verification_computes_few_transitions():
    """``decide`` runs exactly once per verification: for the stable decision."""
    calls = []

    def decide(s):
        calls.append(s)
        return min_level_decide(s)

    assert sample_and_verify(8, 50, 500, 1, decide, high_state(8)).passed
    assert calls == [high_state(8)]  # 25,000 rounds, 256 vectors
    calls.clear()
    assert enumerate_and_verify(3, 3, decide, high_state(3)).passed
    assert calls == [high_state(3)]  # 512 sequences of 3 rounds, 8 vectors
    calls.clear()
    assert not enumerate_and_verify(2, 3, decide, high_state(2), drop_default_write=True).passed
    assert calls == [high_state(2)]


def test_a_sampled_verification_holds_little_memory():
    """A row memo of at most 2^8 entries: measured in a fresh interpreter, as ``verify`` runs."""
    code = ("import tracemalloc; from lockstep import oracle; "
            "from lockstep.platoon import ServiceLevel, min_level_decide; "
            "tracemalloc.start(); "
            "report = oracle.sample_and_verify(8, 50, 500, 1, min_level_decide, "
            "(ServiceLevel.HIGH,) * 8); "
            "print(report.passed, tracemalloc.get_traced_memory()[1])")
    src = Path(oracle.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    passed, peak = out.stdout.split()
    assert passed == "True"
    assert int(peak) < 300_000  # 200 KB measured under Python 3.11
