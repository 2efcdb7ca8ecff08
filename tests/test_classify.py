"""Classifier tests: case labels, GHZ-window checks, witness, one-norm audit."""

import math
from concurrent.futures import Future

import numpy as np
import pytest

from qcohere import classify
from qcohere.classify import (
    BOUNDARY,
    CASE_I_GHZ,
    CASE_I_W,
    CASE_II_GHZ,
    CASE_II_W,
    READING_A,
    READING_B,
    HypothesisError,
    coherence_difference,
    coherence_monogamy_check,
    coherence_product_check,
    concurrence_sum_check,
    discriminate,
    observable_closed_forms,
    observables_expectations,
    one_norm_bound_audit,
    one_norm_margins,
    parameter_witness,
)
from qcohere.measures import OutOfFamilyError
from qcohere.states import CanonicalThreeQubit, EnsembleSpec, canonical_sample, werner_state

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)

POINT_A = CanonicalThreeQubit(0.3, 0.2, 0.25, 0.35, math.sqrt(0.685))
POINT_B = CanonicalThreeQubit(0.6, 0.2, 0.3, 0.5, math.sqrt(0.26))
GHZ = CanonicalThreeQubit(S2, 0.0, 0.0, 0.0, S2)
W_MEMBER = CanonicalThreeQubit(S3, 0.0, S3, S3, 0.0)


def w_class_sample(seed, index):
    """Test-side W-slice sampler: flat Dirichlet over the first four squared amplitudes."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    w = rng.standard_exponential(4)
    lam = np.sqrt(w / w.sum())
    return CanonicalThreeQubit(*(float(x) for x in lam), 0.0, theta=0.0)


def test_coherence_difference_examples():
    diff, factors = coherence_difference(POINT_B)
    assert diff == pytest.approx(0.116039, abs=1e-6)
    assert factors[0] == pytest.approx(0.2, abs=1e-12)
    assert factors[1] == pytest.approx(0.290098, abs=1e-6)

    diff, factors = coherence_difference(POINT_A)
    assert diff == pytest.approx(-0.065529, abs=1e-6)
    assert factors[0] == pytest.approx(0.10, abs=1e-12)
    assert factors[1] == pytest.approx(-0.327647, abs=1e-6)

    diff, _ = coherence_difference(W_MEMBER)
    assert diff == pytest.approx(0.0, abs=1e-15)

    with pytest.raises(OutOfFamilyError):
        coherence_difference(CanonicalThreeQubit(*POINT_A.lambdas(), theta=0.1))


def test_difference_factorization_identity_on_samples():
    for k in range(2000):
        p = canonical_sample(47, k, "zero")
        diff, (f1, f2) = coherence_difference(p)
        assert abs(diff - 2.0 * f1 * f2) <= 1e-10


def test_discriminate_ghz_witness_point():
    report = discriminate(POINT_A)
    assert report.case_label == CASE_I_GHZ
    assert report.coherence_difference == pytest.approx(-0.065529, abs=1e-6)
    assert report.tangle == pytest.approx(0.2466, abs=1e-10)


def test_discriminate_is_one_directional():
    # tangle 0.3744 > 0, yet the sign pattern stays W-consistent: the
    # criterion witnesses GHZ membership, never refutes it
    report = discriminate(POINT_B)
    assert report.case_label == CASE_I_W
    assert report.tangle == pytest.approx(0.3744, abs=1e-12)


def test_discriminate_case_ii_labels():
    assert discriminate(
        CanonicalThreeQubit(0.6, 0.2, 0.5, 0.3, math.sqrt(0.26))
    ).case_label == CASE_II_W
    assert discriminate(
        CanonicalThreeQubit(0.3, 0.2, 0.35, 0.25, math.sqrt(0.685))
    ).case_label == CASE_II_GHZ


def test_discriminate_boundary_on_equal_factors():
    assert discriminate(W_MEMBER).case_label == BOUNDARY
    assert discriminate(GHZ).case_label == BOUNDARY


def test_w_class_points_are_never_ghz_witnesses():
    for k in range(2000):
        label = discriminate(w_class_sample(53, k)).case_label
        assert label in (CASE_I_W, CASE_II_W, BOUNDARY)
        assert "GHZ" not in label


def test_monogamy_margin_examples():
    assert coherence_monogamy_check(GHZ) == 0.0
    assert coherence_monogamy_check(POINT_B) == pytest.approx(3.209015, abs=1e-5)
    # lambda1 = 0 kills coh_a, so the margin is a plain sum of squares
    for k in range(200):
        p = canonical_sample(59, k, "zero")
        q = CanonicalThreeQubit(*_zero_lambda1(p))
        assert coherence_monogamy_check(q) >= 0.0


def _zero_lambda1(p):
    lam = list(p.lambdas())
    norm = math.sqrt(sum(v * v for v in lam) - lam[1] * lam[1])
    lam[1] = 0.0
    return [v / norm for v in lam]


def test_concurrence_sum_check_example():
    record = concurrence_sum_check(POINT_A)
    assert record.lhs == pytest.approx(0.36, abs=1e-12)
    assert record.rhs == pytest.approx(1.898706, abs=1e-6)
    assert record.holds
    assert record.coh_ab == pytest.approx(0.883824, abs=1e-6)
    assert record.coh_ac == pytest.approx(0.949353, abs=1e-6)
    assert record.ordering_holds


def test_checks_reject_points_outside_the_window():
    with pytest.raises(HypothesisError, match="lambda0 \\+ lambda1 - lambda4"):
        concurrence_sum_check(POINT_B)
    with pytest.raises(HypothesisError, match="lambda4 > 0"):
        coherence_product_check(W_MEMBER)
    with pytest.raises(HypothesisError, match="lambda0 > 0"):
        concurrence_sum_check(CanonicalThreeQubit(0.0, 0.2, 0.25, 0.35, math.sqrt(0.775)))
    with pytest.raises(OutOfFamilyError):
        concurrence_sum_check(CanonicalThreeQubit(*POINT_A.lambdas(), theta=0.2))


def test_ghz_window_predicate_is_the_checks_hypothesis():
    assert classify.in_ghz_window(POINT_A)
    for p in (POINT_B, W_MEMBER, GHZ, CanonicalThreeQubit(0.0, 0.2, 0.25, 0.35, math.sqrt(0.775))):
        assert not classify.in_ghz_window(p)
    for k in range(300):
        p = canonical_sample(71, k, "zero")
        try:
            concurrence_sum_check(p)
            coherence_product_check(p)
            accepted = True
        except HypothesisError:
            accepted = False
        assert classify.in_ghz_window(p) == accepted


def test_coherence_product_check_reports_expansion_mismatch():
    record = coherence_product_check(POINT_A)
    assert record.holds
    assert record.coh_a == pytest.approx(0.12, abs=1e-12)
    assert record.coh_ac == pytest.approx(0.949353, abs=1e-6)
    # hand expansion: 4(0.3)(0.2)(0.25)(0.5) + 4(0.35)(0.5)(0.185)
    assert record.product_minus_square_expansion == pytest.approx(0.1595, abs=1e-10)
    assert record.product_minus_square_direct == pytest.approx(0.824661, abs=1e-6)
    assert not record.expansion_matches
    assert record.product_minus_square_expansion >= 0.0
    assert record.product_minus_square_direct >= 0.0


def test_coherence_product_expansion_vanishes_without_cross_terms():
    # lambda1 = lambda3 = 0 zeroes every expansion term while the direct
    # product stays positive, so the mismatch flag must fire
    p = CanonicalThreeQubit(0.3, 0.0, 0.4, 0.0, math.sqrt(0.75))
    record = coherence_product_check(p)
    assert record.product_minus_square_expansion == 0.0
    assert record.product_minus_square_direct > 0.0
    assert not record.expansion_matches


def test_observables_ghz():
    triple = observables_expectations(GHZ)
    assert triple.exp_o == pytest.approx(2.0, abs=1e-12)
    assert triple.exp_o1 == pytest.approx(0.0, abs=1e-12)
    assert triple.exp_o2 == pytest.approx(1.0, abs=1e-12)
    assert triple.witness_holds


def test_observables_regression_point():
    # 4 l0 l4 = 1.2 sqrt(0.685)
    triple = observables_expectations(POINT_A)
    assert triple.exp_o == pytest.approx(0.993177, abs=1e-6)
    assert triple.exp_o1 == pytest.approx(0.24, abs=1e-12)
    assert triple.exp_o2 == pytest.approx(0.18, abs=1e-12)
    assert triple.witness_holds
    assert observable_closed_forms(POINT_A) == pytest.approx(
        (triple.exp_o, triple.exp_o1, triple.exp_o2), abs=1e-12
    )


def test_observables_basis_point_fails_witness():
    triple = observables_expectations(CanonicalThreeQubit(1.0, 0.0, 0.0, 0.0, 0.0))
    assert (triple.exp_o, triple.exp_o1, triple.exp_o2) == (0.0, 0.0, 2.0)
    assert not triple.witness_holds


def test_observables_match_closed_forms_on_samples():
    for k in range(1000):
        p = canonical_sample(61, k, "zero")
        triple = observables_expectations(p)
        closed = observable_closed_forms(p)
        assert triple.exp_o == pytest.approx(closed[0], abs=1e-10)
        assert triple.exp_o1 == pytest.approx(closed[1], abs=1e-10)
        assert triple.exp_o2 == pytest.approx(closed[2], abs=1e-10)


def test_observables_exp_o_is_phase_independent():
    for theta in (0.4, 2.0):
        p = CanonicalThreeQubit(*POINT_A.lambdas(), theta=theta)
        triple = observables_expectations(p)
        assert triple.exp_o == pytest.approx(4.0 * p.lambda0 * p.lambda4, abs=1e-12)
        assert triple.exp_o2 == pytest.approx(2.0 * p.lambda0**2, abs=1e-12)


def test_parameter_witness():
    record = parameter_witness(POINT_A)
    assert record.lambda_margin == pytest.approx(-0.327647, abs=1e-6)
    assert record.witness_implication_ok
    assert record.observables.witness_holds

    vacuous = parameter_witness(GHZ)
    assert vacuous.lambda_margin == pytest.approx(0.0, abs=1e-12)
    assert vacuous.witness_implication_ok

    with pytest.raises(HypothesisError, match="lambda0"):
        parameter_witness(CanonicalThreeQubit(0.0, S2, 0.0, 0.0, S2))


def test_parameter_witness_holds_on_samples():
    for k in range(2000):
        p = canonical_sample(67, k, "zero")
        assert parameter_witness(p).witness_implication_ok


def test_one_norm_margins_werner():
    n1, c_a, margin_a, margin_b = one_norm_margins(werner_state(0.9))
    assert n1 == pytest.approx(0.925, abs=1e-12)
    assert c_a == pytest.approx(0.9, abs=1e-12)
    assert margin_a > 0.0  # reading A violated on an entangled state
    assert margin_b < 0.0  # reading B holds here


def test_one_norm_margins_maximally_mixed():
    n1, c_a, margin_a, margin_b = one_norm_margins(
        werner_state(0.0)
    )
    assert n1 == pytest.approx(0.25, abs=1e-15)
    assert c_a == 0.0
    assert margin_a > 0.0 and margin_b > 0.0  # both readings violated, state separable


def test_one_norm_bound_audit_records():
    spec = EnsembleSpec(kind="haar-pure", seed=3, count=400)
    record_a, record_b = one_norm_bound_audit(spec)
    assert record_a.reading == READING_A
    assert record_b.reading == READING_B
    for record in (record_a, record_b):
        assert (record.worst_case is not None) == (record.violations_found > 0)
        assert 0 <= record.entangled_violations <= record.violations_found
    # Haar-pure states near the computational basis violate reading A
    assert record_a.violations_found > 0
    worst = record_a.worst_case
    n1, c_a, margin_a, _ = one_norm_margins(worst.state)
    assert margin_a == pytest.approx(worst.margin, abs=1e-12)


class InlineExecutor:
    """Stands in for the process pool: runs each chunk when it is submitted."""

    def __init__(self, workers):
        self.workers = workers
        self.submitted = []

    def submit(self, fn, job):
        self.submitted.append(job)
        future = Future()
        future.set_result(fn(job))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def pools(monkeypatch):
    """Every pool the engine starts, each an InlineExecutor; no process is started."""
    started = []

    def start(workers):
        started.append(InlineExecutor(workers))
        return started[-1]

    monkeypatch.setattr(classify, "_process_pool", start)
    return started


def test_pool_holds_a_bounded_window_of_chunks(monkeypatch, pools):
    monkeypatch.setattr(classify, "CHUNK_SIZE", 4)
    monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
    spec = EnsembleSpec(kind="haar-pure", seed=3, count=100)
    inline = list(classify.scatter(spec, classify.Tally(), workers=1))
    assert pools == []  # the 1-worker path starts no pool

    unconsumed, pooled = [], []
    for k, pair in enumerate(classify.scatter(spec, classify.Tally(), workers=2)):
        # chunks submitted minus chunks whose every state has been consumed
        unconsumed.append(len(pools[0].submitted) - k // 4)
        pooled.append(pair)
    assert max(unconsumed) == classify.WINDOW_PER_WORKER * 2
    assert len(pools) == 1 and len(pools[0].submitted) == 25
    assert pooled == inline


@pytest.mark.parametrize(
    "workers, count, cpus, started",
    [
        (5000, 300, 2, [2]),  # the CPUs this process may use
        (5000, 10, 64, [3]),  # one process per chunk of 4 states
        (3, 300, 64, [3]),  # the worker count asked for
        (5000, 4, 64, []),  # one chunk is evaluated inline
    ],
)
def test_pool_starts_at_most_one_process_per_chunk_and_cpu(
    monkeypatch, pools, workers, count, cpus, started
):
    monkeypatch.setattr(classify, "CHUNK_SIZE", 4)
    monkeypatch.setattr(classify, "_cpu_count", lambda: cpus)
    spec = EnsembleSpec(kind="haar-pure", seed=3, count=count)
    pairs = list(classify.scatter(spec, classify.Tally(), workers=workers))
    assert len(pairs) == count
    assert [pool.workers for pool in pools] == started


def test_tally_keeps_the_earliest_extreme():
    # ties inside a chunk and across chunks both go to the earliest index
    margins = np.array([0.5, -1.0, 2.0, -1.0, 2.0])
    for cuts in ((0, 5), (0, 2, 5), (0, 1, 2, 3, 4, 5), (0, 3, 5)):
        low = classify.Tally()
        high = classify.Tally(highest=True)
        for lo, hi in zip(cuts, cuts[1:]):
            chunk = margins[lo:hi]
            low.fold(lo, chunk, chunk < 0.0)
            high.fold(lo, chunk, chunk > 1.0)
        assert (low.violations, low.margin, low.index) == (2, -1.0, 1), cuts
        assert (high.violations, high.margin, high.index) == (2, 2.0, 2), cuts
