"""Classifier tests: case labels, GHZ-window checks, witness, one-norm audit."""

import itertools
import math
import os
import time

import numpy as np
import pytest

from qcohere import classify, measures
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
)
from qcohere.states import (
    CanonicalThreeQubit,
    EnsembleSpec,
    OutOfFamilyError,
    StateError,
    canonical_amplitudes,
    canonical_sample,
    werner_state,
)

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


def test_ghz_sign_at_lambda0_zero_is_boundary():
    # lambda0 = 0 makes the state A|BC biseparable, so its GHZ sign certifies nothing
    p = CanonicalThreeQubit(0.0, 0.3, 0.2, 0.4, math.sqrt(0.71))
    _, (f_32, f_014) = coherence_difference(p)
    assert f_32 > 0.0 and f_014 < 0.0
    report = discriminate(p)
    assert report.case_label == BOUNDARY
    assert report.tangle == 0.0


def test_ghz_witnesses_of_the_sweep_grid_have_positive_tangle():
    witnesses = 0
    for columns, _ in classify.sweep(classify.sweep_grid(29), 29):
        ghz = np.isin(columns["case_label"], (CASE_I_GHZ, CASE_II_GHZ))
        assert np.all(columns["tangle"][ghz] > 0.0)
        witnesses += int(np.count_nonzero(ghz))
    # 6568 rows carry the GHZ sign; the 2240 of them at lambda0 = 0 are boundary
    assert witnesses == 6568 - 2240


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


def _dense_observables(p):
    """<O>, <O1>, <O2> by the dense double contraction: the reference of the gather."""
    psi = canonical_amplitudes(p)
    o_psi = np.einsum("kij,...j->...ki", classify._OBSERVABLES, psi)
    values = np.einsum("...i,...ki->...k", psi.conj(), o_psi).real
    return tuple(values[..., i] for i in range(3))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, "uniform"])
def test_observables_are_the_dense_products_bit_for_bit(theta):
    rng = np.random.default_rng(24)
    if theta == "uniform":
        theta = float(rng.uniform(0.0, math.pi))
    # exact zero amplitudes: the grids hold every pattern of zeros, with
    # lambda0 = 0 and lambda2 = 0 among them
    grid = classify.sweep_grid(6)
    stacks = [np.sqrt(grid / 6.0), np.sqrt(rng.dirichlet(np.ones(5), size=160))]
    zeroed = stacks[1].copy()
    zeroed[::2, 0] = 0.0
    zeroed[1::2, 2] = 0.0
    stacks.append(zeroed / np.linalg.norm(zeroed, axis=1, keepdims=True))
    assert (stacks[0][:, 0] == 0.0).any() and (stacks[0][:, 2] == 0.0).any()
    for lam in stacks:
        stack = CanonicalThreeQubit(*lam.T, theta=theta)
        triple = observables_expectations(stack)
        dense = _dense_observables(stack)
        for got, want in zip(triple[:3], dense):
            assert np.array_equal(_bits(got), _bits(want)), theta
        assert np.array_equal(triple.witness_holds, dense[0] > dense[1] + dense[2])
    for lam in (POINT_A.lambdas(), (1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.6, 0.0, 0.0, 0.8),
                (0.6, 0.0, 0.0, 0.0, 0.8), (0.3, 0.2, 0.0, 0.35, math.sqrt(0.7475))):
        p = CanonicalThreeQubit(*lam, theta=theta)
        triple = observables_expectations(p)
        assert all(isinstance(value, float) for value in triple[:3])
        assert _bits(triple[:3]).tolist() == _bits(_dense_observables(p)).tolist(), lam


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


@pytest.fixture
def forks(monkeypatch):
    """One entry per worker the engine forks, each the number of read ends it inherited."""
    started = []
    start = classify._start_worker

    def counting(results, inherited):
        started.append(len(inherited))
        return start(results, inherited)

    monkeypatch.setattr(classify, "_start_worker", counting)
    return started


def _scatter_chunks(spec, workers):
    return [(conc.tolist(), coh.tolist()) for conc, coh in
            classify.scatter(spec, classify.Tally(), workers=workers)]


@pytest.mark.usefixtures("deadline")
def test_forked_chunks_are_the_inline_chunks(monkeypatch, forks):
    monkeypatch.setattr(classify, "CHUNK_SIZE", 4)
    monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
    spec = EnsembleSpec(kind="haar-pure", seed=3, count=100)
    inline = _scatter_chunks(spec, workers=1)
    assert forks == []  # the 1-worker path forks nothing
    assert _scatter_chunks(spec, workers=2) == inline
    assert forks == [0, 1]  # the second worker closes the first one's read end
    with pytest.raises(ChildProcessError):  # both were reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "workers, count, cpus, started",
    [
        (5000, 300, 2, 2),  # the CPUs this process may use
        (5000, 10, 64, 3),  # one worker per chunk of 4 states
        (3, 300, 64, 3),  # the worker count asked for
        (5000, 4, 64, 0),  # one chunk is evaluated inline
    ],
)
def test_engine_forks_at_most_one_worker_per_chunk_and_cpu(
    monkeypatch, forks, workers, count, cpus, started
):
    monkeypatch.setattr(classify, "CHUNK_SIZE", 4)
    monkeypatch.setattr(classify, "_cpu_count", lambda: cpus)
    spec = EnsembleSpec(kind="haar-pure", seed=3, count=count)
    chunks = _scatter_chunks(spec, workers=workers)
    assert sum(len(conc) for conc, _ in chunks) == count
    assert len(forks) == started


@pytest.mark.usefixtures("deadline")
def test_chunks_come_back_in_index_order_when_a_worker_lags(monkeypatch):
    draw = classify.ensemble_chunk

    def slow_first_chunk(kind, seed, lo, hi, rank):
        if lo == 0:  # worker 0's first chunk: worker 1 runs ahead meanwhile
            time.sleep(0.3)
        return draw(kind, seed, lo, hi, rank)

    def source(lo, hi):  # looked up on each call, so the patch below takes effect
        return classify.ensemble_chunk(spec.kind, spec.seed, lo, hi, spec.rank)

    def chunks(workers):
        pairs = classify._map_chunks(spec.count, source, classify._scatter_chunk, workers)
        return [(lo, conc.tolist(), coh.tolist()) for lo, (conc, coh) in pairs]

    monkeypatch.setattr(classify, "CHUNK_SIZE", 4)
    monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
    spec = EnsembleSpec(kind="ginibre", seed=5, count=40)
    inline = chunks(workers=1)
    monkeypatch.setattr(classify, "ensemble_chunk", slow_first_chunk)
    forked = chunks(workers=2)
    assert [lo for lo, _, _ in forked] == list(range(0, 40, 4))
    assert forked == inline


class _NeedsTwoArguments(Exception):
    """Pickles, but does not unpickle: its constructor wants two arguments."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.usefixtures("deadline")
def test_a_worker_sends_an_exception_that_does_not_round_trip_as_its_text(monkeypatch):
    def fail(kind, seed, lo, hi, rank):
        raise _NeedsTwoArguments("bad draw", lo)

    monkeypatch.setattr(classify, "CHUNK_SIZE", 4)
    monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
    monkeypatch.setattr(classify, "ensemble_chunk", fail)
    spec = EnsembleSpec(kind="haar-pure", seed=3, count=20)
    with pytest.raises(RuntimeError, match=r"^_NeedsTwoArguments: bad draw at 0$"):
        _scatter_chunks(spec, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("deadline")
def test_a_worker_that_exits_nonzero_after_a_full_pass_fails_the_pass(monkeypatch):
    start = classify._start_worker

    def then_interrupt(results):
        yield from results
        # not an Exception, so nothing is sent: the worker leaves through os._exit(1)
        raise KeyboardInterrupt

    monkeypatch.setattr(
        classify, "_start_worker", lambda results, inherited: start(then_interrupt(results), inherited)
    )
    monkeypatch.setattr(classify, "CHUNK_SIZE", 4)
    monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
    spec = EnsembleSpec(kind="haar-pure", seed=3, count=20)
    with pytest.raises(RuntimeError, match=r"exit codes \[1, 1\] after 5/5 chunks"):
        _scatter_chunks(spec, workers=2)


@pytest.mark.usefixtures("deadline")
def test_closing_the_scatter_early_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
    # 40 chunks of 256 states: the workers are still evaluating, or blocked on
    # a full pipe, when the first chunk arrives
    spec = EnsembleSpec(kind="ginibre", seed=5, count=40 * classify.CHUNK_SIZE)
    chunks = classify.scatter(spec, classify.Tally(), workers=2)
    next(chunks)
    chunks.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def _stack_corpus():
    """Zero-phase points: samples, the named points, boundaries and lambda0 = 0."""
    points = [canonical_sample(83, k, "zero") for k in range(300)]
    points += [POINT_A, POINT_B, GHZ, W_MEMBER, CanonicalThreeQubit(1.0, 0.0, 0.0, 0.0, 0.0)]
    points += [CanonicalThreeQubit(0.0, 0.2, 0.25, 0.35, math.sqrt(0.775))]
    points += [CanonicalThreeQubit(0.5, 0.5, 0.5, 0.5, 0.0)]
    return points, CanonicalThreeQubit(*np.array([p.lambdas() for p in points]).T)


def test_closed_forms_on_a_stack_are_the_per_point_values():
    points, stack = _stack_corpus()
    c_ab, c_ac = measures.partial_concurrences_analytic(stack)
    cohs = measures.reduced_coherences_analytic(stack)
    tangle = measures.tangle_analytic(stack)
    diff, factors = coherence_difference(stack)
    report = discriminate(stack)
    margin = coherence_monogamy_check(stack)
    window = classify.in_ghz_window(stack)
    triple = observables_expectations(stack)
    for k, p in enumerate(points):
        assert (c_ab[k], c_ac[k]) == measures.partial_concurrences_analytic(p)
        assert tuple(c[k] for c in cohs) == measures.reduced_coherences_analytic(p)
        assert tangle[k] == measures.tangle_analytic(p)
        assert (diff[k], factors[0][k], factors[1][k]) == (
            coherence_difference(p)[0],
            *coherence_difference(p)[1],
        )
        one = discriminate(p)
        assert isinstance(one.case_label, str)
        assert report.case_label[k] == one.case_label
        assert report.measures.coh_ab[k] == one.measures.coh_ab
        assert margin[k] == coherence_monogamy_check(p)
        assert isinstance(classify.in_ghz_window(p), bool)
        assert window[k] == classify.in_ghz_window(p)
        one_triple = observables_expectations(p)
        assert isinstance(one_triple.exp_o, float)
        assert (triple.exp_o[k], triple.exp_o1[k], triple.exp_o2[k], triple.witness_holds[k]) == (
            one_triple.exp_o,
            one_triple.exp_o1,
            one_triple.exp_o2,
            one_triple.witness_holds,
        )
    assert 0 < window.sum() < len(points)
    inside = [p for p, w in zip(points, window) if w]
    sums, products = concurrence_sum_check(stack[window]), coherence_product_check(stack[window])
    for k, p in enumerate(inside):
        assert (sums.lhs[k], sums.rhs[k], sums.holds[k]) == (
            concurrence_sum_check(p).lhs,
            concurrence_sum_check(p).rhs,
            concurrence_sum_check(p).holds,
        )
        assert products.holds[k] == coherence_product_check(p).holds
        assert products.expansion_matches[k] == coherence_product_check(p).expansion_matches


def test_stack_errors_name_the_point():
    ok = [POINT_A.lambdas()] * 4
    with pytest.raises(StateError, match="^point 2: lambda1 must be a non-negative real, got -0.1"):
        lam = np.array(ok)
        lam[2, 1] = -0.1
        CanonicalThreeQubit(*lam.T)
    with pytest.raises(StateError, match="^point 3: lambda4 must be"):
        lam = np.array(ok)
        lam[3, 4] = np.nan
        CanonicalThreeQubit(*lam.T)
    with pytest.raises(StateError, match="^point 1: squared amplitudes must sum to 1"):
        lam = np.array(ok)
        lam[1, 0] = 0.31
        CanonicalThreeQubit(*lam.T)
    with pytest.raises(StateError, match="five floats or five"):
        CanonicalThreeQubit(*np.array(ok).T[:4], np.ones(3))
    with pytest.raises(StateError, match="one phase"):
        CanonicalThreeQubit(*np.array(ok).T, theta=np.zeros(4))
    def stack(*points):
        return CanonicalThreeQubit(*np.array(points).T)

    w_second = stack(POINT_A.lambdas(), W_MEMBER.lambdas())
    with pytest.raises(HypothesisError, match="^point 1: the concurrence-sum check needs lambda4"):
        concurrence_sum_check(w_second)
    with pytest.raises(HypothesisError, match="^point 1: the coherence-product check needs"):
        coherence_product_check(w_second)
    with pytest.raises(HypothesisError, match="^point 1: .* lambda4 < 0, got 0.0$"):
        concurrence_sum_check(stack(POINT_A.lambdas(), GHZ.lambdas()))
    # one point keeps its messages without a prefix
    with pytest.raises(HypothesisError, match="^the concurrence-sum check needs lambda4 > 0"):
        concurrence_sum_check(W_MEMBER)
    with pytest.raises(StateError, match="^lambda1 must be"):
        CanonicalThreeQubit(1.0, -0.1, 0.0, 0.0, 0.0)


def test_indexing_a_stack_gives_points_and_sub_stacks():
    points, stack = _stack_corpus()
    assert stack[3] == points[3]
    assert isinstance(stack[3].lambda0, float)
    sub = stack[np.array([5, 1])]
    assert [sub.lambda2[0], sub.lambda2[1]] == [points[5].lambda2, points[1].lambda2]
    assert stack[np.zeros(len(points), dtype=bool)].lambda0.shape == (0,)


@pytest.mark.parametrize(
    "fixes",
    [[], [("value", 4, 0.0)], [("tie", 2, 3)], [("value", 0, 0.5), ("tie", 1, 4)]],
    ids=["none", "lambda4=0", "lambda2=lambda3", "lambda0=0.5,lambda1=lambda4"],
)
def test_sweep_grid_is_the_filtered_lexicographic_grid(fixes):
    r = 8
    expected = [
        ks
        for ks in itertools.product(range(r + 1), repeat=5)
        if sum(ks) == r
        and all(
            ks[i] == ks[v] if kind == "tie" else abs(ks[i] / r - v * v) <= 1e-12
            for kind, i, v in fixes
        )
    ]
    assert expected
    grid = classify.sweep_grid(r, fixes)
    assert grid.dtype == np.int64 and grid.shape == (len(expected), 5)
    assert [tuple(row) for row in grid.tolist()] == expected


def test_sweep_walks_its_grid_in_chunks_through_the_engine(monkeypatch):
    engine, calls, sizes = classify._map_chunks, [], []

    def counting(count, draw, evaluate, workers):
        calls.append((count, workers))

        def sized(lo, hi):
            sizes.append(hi - lo)
            return draw(lo, hi)

        return engine(count, sized, evaluate, workers)

    monkeypatch.setattr(classify, "CHUNK_SIZE", 7)
    monkeypatch.setattr(classify, "_map_chunks", counting)
    r = 7
    grid = classify.sweep_grid(r)
    with pytest.raises(StateError, match="admit no grid points"):
        classify.sweep(grid[:0], r)
    assert calls == []
    chunks = list(classify.sweep(grid, r))
    assert calls == [(len(grid), 1)]
    assert len(chunks) == len(sizes) == math.ceil(len(grid) / 7) == 48
    assert sizes == [7] * 47 + [len(grid) - 7 * 47]
    # the chunks' columns, joined, are those of the whole grid as one stack
    whole, applies = classify.sweep_columns(CanonicalThreeQubit(*np.sqrt(grid.T / r), theta=0.0))
    for name, column in whole.items():
        joined = np.concatenate([columns[name] for columns, _ in chunks])
        assert joined.tobytes() == column.tobytes(), name
    for name, mask in applies.items():
        assert np.concatenate([a[name] for _, a in chunks]).tolist() == mask.tolist(), name
