"""Measure tests: worked examples, independent oracles, sampled identities.

The concurrence oracle here diagonalizes rho.rho~ directly with numpy's
general (non-Hermitian) solver, so it shares no code path with the
Hermitian route under test.
"""

import math

import numpy as np
import pytest

from qcohere import classify
from qcohere.measures import (
    CANONICAL_KEYS,
    MeasureError,
    bipartition_concurrence,
    canonical_measures_analytic,
    canonical_report,
    concurrence,
    inequality_chain,
    l1_coherence,
    partial_concurrences_analytic,
    reduced_coherences_analytic,
    spin_flip,
    tangle_analytic,
    tangle_residual,
)
from qcohere.states import (
    CanonicalThreeQubit,
    DensityMatrix,
    OutOfFamilyError,
    PureState,
    _haar_vectors,
    canonical_sample,
    canonical_state,
    ensemble_chunk,
    partial_trace,
    werner_state,
)

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)
BELL = PureState([S2, 0.0, 0.0, S2])

# regression points used across the suite
POINT_A = CanonicalThreeQubit(0.3, 0.2, 0.25, 0.35, math.sqrt(0.685))
POINT_B = CanonicalThreeQubit(0.6, 0.2, 0.3, 0.5, math.sqrt(0.26))

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
YY = np.kron(SIGMA_Y, SIGMA_Y)


def oracle_concurrence(m: np.ndarray) -> float:
    """Spin-flip concurrence via the non-Hermitian spectrum of rho.rho~."""
    ev = np.linalg.eigvals(m @ (YY @ m.conj() @ YY))
    r = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    return max(0.0, float(r[0] - r[1] - r[2] - r[3]))


def oracle_pure_concurrence(amp: np.ndarray) -> float:
    """Closed form 2|a00 a11 - a01 a10| for two-qubit pure states."""
    return 2.0 * abs(amp[0] * amp[3] - amp[1] * amp[2])


def test_l1_coherence_examples():
    assert l1_coherence(DensityMatrix(np.eye(4) / 4)) == 0.0
    assert l1_coherence(BELL.density()) == pytest.approx(1.0, abs=1e-12)
    # two off-diagonal entries of 0.45 each
    assert l1_coherence(werner_state(0.9)) == pytest.approx(0.9, abs=1e-12)


def test_spin_flip_fixed_points():
    bell = BELL.density()
    assert np.abs(spin_flip(bell) - bell.matrix).max() <= 1e-12
    mixed = DensityMatrix(np.eye(4) / 4)
    assert np.abs(spin_flip(mixed) - mixed.matrix).max() <= 1e-12


def test_spin_flip_moves_basis_projector():
    rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    assert np.abs(spin_flip(rho) - np.diag([0.0, 0.0, 0.0, 1.0])).max() <= 1e-14
    with pytest.raises(MeasureError, match="dim 8"):
        spin_flip(canonical_state(POINT_A).density())


def test_concurrence_bell():
    assert concurrence(BELL.density()) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_product_state_is_zero():
    for a, b in zip(_haar_vectors(2, 0, 50, 2), _haar_vectors(3, 0, 50, 2)):
        rho = PureState(np.kron(a, b)).density()
        assert concurrence(rho) <= 1e-8


def test_concurrence_werner():
    # (3p - 1)/2 at p = 0.9
    assert concurrence(werner_state(0.9)) == pytest.approx(0.85, abs=1e-10)
    assert oracle_concurrence(werner_state(0.9).matrix) == pytest.approx(0.85, abs=1e-8)


def test_concurrence_agrees_with_general_solver_oracle():
    rho = ensemble_chunk("ginibre", 17, 0, 300, 4, 4)
    for value, m in zip(concurrence(rho), rho.matrix):
        assert value == pytest.approx(oracle_concurrence(m), abs=1e-8)


def haar_unitaries(rng, n: int, d: int) -> np.ndarray:
    """(n, d, d) Haar unitaries: QR of complex Ginibre matrices, R's diagonal phases removed."""
    q, r = np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]


@pytest.mark.parametrize("rank", [2, 4])
def test_concurrence_is_local_unitary_invariant(rank):
    rho = ensemble_chunk("ginibre", 41, 0, 256, 4, rank)
    rng = np.random.default_rng(2105)
    u = np.einsum("nab,ncd->nacbd", haar_unitaries(rng, 256, 2), haar_unitaries(rng, 256, 2))
    u = u.reshape(256, 4, 4)
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().swapaxes(-1, -2))
    before, after = concurrence(rho), concurrence(rotated)
    assert np.count_nonzero(before > 0.0) >= 32
    assert np.abs(after - before).max() <= 1e-12


def test_concurrence_agrees_with_pure_closed_form():
    for amplitudes in _haar_vectors(23, 0, 300, 4):
        psi = PureState(amplitudes)
        assert concurrence(psi.density()) == pytest.approx(
            oracle_pure_concurrence(psi.amplitudes), abs=1e-8
        )


def test_measure_report_fields():
    rho = werner_state(0.9)
    assert l1_coherence(rho) == pytest.approx(0.9, abs=1e-12)
    assert concurrence(rho) == pytest.approx(0.85, abs=1e-10)
    assert rho.purity() == pytest.approx(0.9 * 0.9 + (1 - 0.81) / 4, abs=1e-12)


def test_chain_bell_saturates():
    rep = inequality_chain(BELL.density())
    assert rep.concurrence == pytest.approx(1.0, abs=1e-10)
    assert rep.l1_coherence == pytest.approx(1.0, abs=1e-12)
    assert rep.sqrt_lambda_max == pytest.approx(1.0, abs=1e-10)
    assert abs(rep.end_to_end.margin) <= 1e-10
    assert rep.end_to_end.holds
    assert rep.candidate_one_norms["induced_one"] == pytest.approx(1.0, abs=1e-10)


def test_chain_reports_failing_literal_reading():
    rep = inequality_chain(DensityMatrix(np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)))
    literal = rep.link_verdicts["smax_le_trace_of_square"]
    assert not literal.holds
    assert literal.margin == pytest.approx(-0.125, abs=1e-10)
    root = rep.link_verdicts["smax_le_frobenius"]
    assert root.holds
    assert root.margin == pytest.approx(math.sqrt(0.375) - 0.5, abs=1e-10)


def test_chain_maximally_mixed():
    rep = inequality_chain(DensityMatrix(np.eye(4) / 4))
    assert rep.concurrence == 0.0
    assert rep.l1_coherence == 0.0
    assert rep.end_to_end.holds
    assert abs(rep.end_to_end.margin) <= 1e-12
    # the trace-norm reading of the one-norm bound fails on incoherent states
    assert not rep.link_verdicts["trace_norm_le_l1_coherence"].holds


def test_chain_end_to_end_on_samples():
    assert inequality_chain(ensemble_chunk("ginibre", 29, 0, 1000, 4, 4)).end_to_end.holds.all()
    assert inequality_chain(ensemble_chunk("haar-pure", 31, 0, 1000, 4, 4)).end_to_end.holds.all()


def test_partial_concurrences_examples():
    assert partial_concurrences_analytic(
        CanonicalThreeQubit(S3, 0.0, S3, S3, 0.0)
    ) == pytest.approx((2.0 / 3.0, 2.0 / 3.0), abs=1e-12)
    assert partial_concurrences_analytic(
        CanonicalThreeQubit(S2, 0.0, 0.0, 0.0, S2)
    ) == (0.0, 0.0)
    assert partial_concurrences_analytic(POINT_B) == pytest.approx((0.6, 0.36), abs=1e-12)
    with pytest.raises(OutOfFamilyError):
        partial_concurrences_analytic(
            CanonicalThreeQubit(*POINT_B.lambdas(), theta=0.3)
        )


def test_reduced_coherences_examples():
    assert reduced_coherences_analytic(
        CanonicalThreeQubit(S2, 0.0, 0.0, 0.0, S2)
    ) == (0.0, 0.0, 0.0)
    assert reduced_coherences_analytic(POINT_B) == pytest.approx(
        (1.345941, 1.229902, 0.24), abs=1e-6
    )
    assert reduced_coherences_analytic(POINT_A) == pytest.approx(
        (0.883824, 0.949353, 0.12), abs=1e-6
    )


def test_closed_forms_match_matrix_route_on_samples():
    for k in range(1000):
        p = canonical_sample(41, k, "zero")
        rho = canonical_state(p).density()
        c_ab, c_ac = partial_concurrences_analytic(p)
        assert concurrence(partial_trace(rho, (2, 2, 2), (0, 1))) == pytest.approx(
            c_ab, abs=1e-8
        )
        assert concurrence(partial_trace(rho, (2, 2, 2), (0, 2))) == pytest.approx(
            c_ac, abs=1e-8
        )
        coh = reduced_coherences_analytic(p)
        assert l1_coherence(partial_trace(rho, (2, 2, 2), (0, 1))) == pytest.approx(
            coh[0], abs=1e-10
        )
        assert l1_coherence(partial_trace(rho, (2, 2, 2), (0, 2))) == pytest.approx(
            coh[1], abs=1e-10
        )
        assert l1_coherence(partial_trace(rho, (2, 2, 2), (0,))) == pytest.approx(
            coh[2], abs=1e-10
        )


def test_bipartition_concurrence_examples():
    assert bipartition_concurrence(canonical_state(CanonicalThreeQubit(1, 0, 0, 0, 0))) == 0.0
    assert bipartition_concurrence(
        canonical_state(CanonicalThreeQubit(S2, 0.0, 0.0, 0.0, S2))
    ) == pytest.approx(1.0, abs=1e-12)
    # rho_A = diag(1/3, 2/3) so the value is 2 sqrt(2)/3
    assert bipartition_concurrence(
        canonical_state(CanonicalThreeQubit(S3, 0.0, S3, S3, 0.0))
    ) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)


def test_tangle_examples():
    assert tangle_residual(
        canonical_state(CanonicalThreeQubit(S2, 0.0, 0.0, 0.0, S2))
    ) == pytest.approx(1.0, abs=1e-10)
    # the three-tangle vanishes on the W slice
    assert tangle_residual(
        canonical_state(CanonicalThreeQubit(S3, 0.0, S3, S3, 0.0))
    ) <= 1e-8
    assert tangle_residual(canonical_state(POINT_B)) == pytest.approx(0.3744, abs=1e-8)
    assert tangle_analytic(POINT_B) == pytest.approx(0.3744, abs=1e-12)
    assert tangle_analytic(CanonicalThreeQubit(S2, 0.0, 0.0, 0.0, S2)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert tangle_analytic(CanonicalThreeQubit(S3, 0.0, S3, S3, 0.0)) == 0.0


def test_tangle_residual_matches_closed_form_for_any_phase():
    for k in range(500):
        p = canonical_sample(43, k, "uniform")
        assert tangle_residual(canonical_state(p)) == pytest.approx(
            tangle_analytic(p), abs=1e-8
        )


def test_canonical_measures_routes_agree():
    analytic = canonical_measures_analytic(POINT_A)
    report = canonical_report(POINT_A)
    for field in CANONICAL_KEYS:
        assert report["matrix"][field] == pytest.approx(getattr(analytic, field), abs=1e-8)
        assert report["analytic"][field] == getattr(analytic, field)
        assert report["residuals"][field] <= 1e-8


def test_l1_coherence_is_basis_dependent():
    # a Hadamard on one qubit moves the Bell state's coherence from 1 to 3
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    u = np.kron(h, np.eye(2))
    bell = BELL.density()
    rotated = DensityMatrix(u @ bell.matrix @ u.conj().T)
    assert abs(l1_coherence(rotated) - l1_coherence(bell)) > 1.0


def test_tangle_rejects_wrong_dimension():
    with pytest.raises(MeasureError):
        tangle_residual(BELL)


# --- solve-count guards: each spectrum is computed once per state -----------


def test_chain_takes_two_solves_with_validation(solves):
    # the state's own spectrum (its PSD validation) and the spin-flip product
    for k in range(5):
        solves.clear()
        inequality_chain(classify.ensemble_state("ginibre", 29, k, 4, 4))
        assert len(solves) == 2


def test_pure_one_norm_margins_take_no_solve(solves):
    checked = 0
    for k in range(20):
        solves.clear()
        rho = classify.ensemble_state("haar-pure", 3, k, 4, 4)
        _, _, margin_a, _ = classify.one_norm_margins(rho)
        if margin_a <= classify.AUDIT_TOL:
            assert solves == []
            checked += 1
    assert checked > 0


def test_canonical_measures_matrix_skips_the_eight_dim_solve(solves):
    canonical_report(POINT_A)
    assert solves and all(shape == (4, 4) for shape in solves)
