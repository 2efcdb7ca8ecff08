"""Measure tests: worked examples, independent oracles, sampled identities.

Two concurrence oracles share no code with the route under test: one
diagonalizes rho.rho~ directly with numpy's general (non-Hermitian)
solver, the other takes the tau matrix T = V^T (sigma_y x sigma_y) V from
numpy's ``eigh`` of rho and its singular values from numpy's ``svd``.
"""

import math

import numpy as np
import pytest

from qcohere import classify, measures
from qcohere.linalg import pivoted_cholesky
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
    tangle_analytic,
    tangle_residual,
)
from qcohere.states import (
    CanonicalThreeQubit,
    DensityMatrix,
    OutOfFamilyError,
    PureState,
    StateError,
    _haar_vectors,
    canonical_amplitudes,
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


def oracle_tau_concurrence(m: np.ndarray) -> float:
    """Wootters concurrence from numpy alone: V = U diag(sqrt(w)), lambda_i = svd(V^T YY V)."""
    w, u = np.linalg.eigh(m)
    v = u * np.sqrt(np.clip(w, 0.0, None))
    s = np.linalg.svd(v.T @ YY @ v, compute_uv=False)
    return max(0.0, float(s[0] - s[1:].sum()))


def oracle_pure_concurrence(amp: np.ndarray) -> float:
    """Closed form 2|a00 a11 - a01 a10| for two-qubit pure states."""
    return 2.0 * abs(amp[0] * amp[3] - amp[1] * amp[2])


def test_l1_coherence_examples():
    assert l1_coherence(DensityMatrix(np.eye(4) / 4)) == 0.0
    assert l1_coherence(BELL.density()) == pytest.approx(1.0, abs=1e-12)
    # two off-diagonal entries of 0.45 each
    assert l1_coherence(werner_state(0.9)) == pytest.approx(0.9, abs=1e-12)


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
    rho = ensemble_chunk("ginibre", 17, 0, 300, 4)
    for value, m in zip(concurrence(rho), rho.matrix):
        assert value == pytest.approx(oracle_concurrence(m), abs=1e-8)


def haar_unitaries(rng, n: int, d: int) -> np.ndarray:
    """(n, d, d) Haar unitaries: QR of complex Ginibre matrices, R's diagonal phases removed."""
    q, r = np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]


@pytest.mark.parametrize("rank", [2, 4])
def test_concurrence_is_local_unitary_invariant(rank):
    rho = ensemble_chunk("ginibre", 41, 0, 256, rank)
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
        closed = oracle_pure_concurrence(psi.amplitudes)
        assert abs(concurrence(psi.density()) - closed) <= 1e-14
        assert abs(concurrence(DensityMatrix(psi.density().matrix)) - closed) <= 1e-14
    chunk = ensemble_chunk("haar-pure", 23, 0, 300, None)
    closed = [oracle_pure_concurrence(v) for v in chunk.factor[:, :, 0]]
    assert np.abs(concurrence(chunk) - closed).max() <= 1e-14


def _factor_state(v: np.ndarray) -> DensityMatrix:
    """The state V V^H built with its factor V, as the package's constructions build theirs."""
    return DensityMatrix._lazy(v @ v.conj().swapaxes(-1, -2), factor=v)


def _tau_corpus() -> dict:
    """Named states (one, or a stack) that carry the factor they were built from."""
    rng = np.random.default_rng(2245)
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) * S2
    corpus = {f"bell-{k}": PureState(b).density() for k, b in enumerate(bell)}
    a, b = _haar_vectors(2, 0, 20, 2), _haar_vectors(3, 0, 20, 2)
    corpus["product"] = _factor_state(np.einsum("na,nb->nab", a, b).reshape(20, 4, 1))
    for p in (1.0 / 3.0, 0.9, 1.0):
        # Werner states in the Bell basis: weight (1 + 3p)/4 on phi+, (1 - p)/4 elsewhere
        w = np.array([(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3)
        corpus[f"werner-{p:.3g}"] = _factor_state(bell.T.astype(complex) * np.sqrt(w))
    diagonal = np.abs(rng.standard_normal((20, 4)))
    diagonal[:5, 2:] = 0.0
    diagonal /= diagonal.sum(axis=1, keepdims=True)
    corpus["diagonal"] = _factor_state(np.sqrt(diagonal)[:, None, :] * np.eye(4))
    for rank in (1, 2, 3, 4):
        corpus[f"ginibre-rank-{rank}"] = ensemble_chunk("ginibre", 61, 0, 200, rank)
    q, _ = np.linalg.qr(rng.standard_normal((20, 4, 4)) + 1j * rng.standard_normal((20, 4, 4)))
    w = np.array([0.25 + 1e-9, 0.25 - 1e-9, 0.25 + 1e-12, 0.25 - 1e-12])
    corpus["near-degenerate"] = _factor_state(q * np.sqrt(w))
    for k in range(200):
        psi = canonical_state(canonical_sample(2245, k, "uniform")).density()
        for keep in ((0, 1), (0, 2)):
            corpus[f"canonical-{k}-{keep}"] = partial_trace(psi, (2, 2, 2), keep)
    return corpus


def test_concurrence_matches_the_tau_oracle_on_the_hard_corpus():
    # each state with the factor it was built from; again from the public
    # constructor, which carries none and takes a pivoted Cholesky of the
    # matrix; and from the Cholesky of the matrix scaled by 1e-8, scaled back
    def frobenius(a):
        return np.linalg.norm(a, axis=(-2, -1))

    for name, rho in _tau_corpus().items():
        assert rho._factor is not None, name
        oracle = [oracle_tau_concurrence(m) for m in rho.matrix.reshape(-1, 4, 4)]
        bare = DensityMatrix(rho.matrix)
        assert bare._factor is None, name
        small = 1e-8 * rho.matrix
        for m, v in ((rho.matrix, bare.factor), (small, pivoted_cholesky(small))):
            residual = frobenius(v @ v.conj().swapaxes(-1, -2) - m)
            assert np.all(residual <= 1e-14 * frobenius(m)), name
        rescaled = DensityMatrix._lazy(rho.matrix, factor=1e4 * pivoted_cholesky(small))
        for state in (rho, bare, rescaled):
            assert np.abs(np.reshape(concurrence(state), -1) - oracle).max() <= 1e-12, name


def test_tau_is_the_dense_spin_flip_product_bit_for_bit():
    # the signed column reversal against V^T @ YY @ V: Ginibre factors of
    # every rank, the same states through the pivoted Cholesky, and the 4 x 2
    # factors of three-qubit reductions, whose exact zeros keep their signs
    def dense(v):
        return v.swapaxes(-1, -2) @ YY @ v

    factors = []
    for rank in range(1, 5):
        chunk = ensemble_chunk("ginibre", 2245, 0, 512, rank)
        factors += [chunk.factor, DensityMatrix(chunk.matrix).factor]
    factors.append(ensemble_chunk("haar-pure", 2245, 0, 512, None).factor)
    for k in range(100):
        for mode in ("zero", "uniform"):
            factors.append(measures._reductions(canonical_state(canonical_sample(2245, k, mode)))[0].factor)
    for p in (POINT_A, POINT_B, CanonicalThreeQubit(S3, 0.0, S3, S3, 0.0)):
        factors.append(measures._reductions(canonical_state(p))[0].factor)
    for v in factors:
        assert measures._tau(v).tobytes() == dense(v).tobytes()


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
    literal = rep.links["smax_le_trace_of_square"]
    assert not literal.holds
    assert literal.margin == pytest.approx(-0.125, abs=1e-10)
    root = rep.links["smax_le_frobenius"]
    assert root.holds
    assert root.margin == pytest.approx(math.sqrt(0.375) - 0.5, abs=1e-10)


def test_chain_maximally_mixed():
    rep = inequality_chain(DensityMatrix(np.eye(4) / 4))
    assert rep.concurrence == 0.0
    assert rep.l1_coherence == 0.0
    assert rep.end_to_end.holds
    assert abs(rep.end_to_end.margin) <= 1e-12
    # the trace-norm reading of the one-norm bound fails on incoherent states
    assert not rep.links["trace_norm_le_l1_coherence"].holds


def test_chain_end_to_end_on_samples():
    assert inequality_chain(ensemble_chunk("ginibre", 29, 0, 1000, 4)).end_to_end.holds.all()
    assert inequality_chain(ensemble_chunk("haar-pure", 31, 0, 1000, None)).end_to_end.holds.all()


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


def test_three_qubit_route_is_local_unitary_invariant_on_dense_states():
    # U_A (x) U_B (x) U_C mixes the five canonical amplitudes into all eight
    # and changes neither the concurrences nor the tangle: the closed forms
    # of the canonical point hold for the rotated state too, at any phase.
    # C_AB and C_AC are lambda_1 - lambda_2 of a 2 x 2 tau matrix T, read off
    # the spectrum of T^H T; that squares lambda_2, so its error grows like
    # eps lambda_1^2 / lambda_2.  At tangles near 1e-4 the C_AB error reaches
    # 1.1e-13 at this unitary seed (1.7e-13 at others), so C_AB alone is held
    # to 1e-12; the A|BC concurrence, C_AC and the tangle meet 1e-13 (5e-15,
    # 1.4e-14 and 6.4e-14 here)
    rng = np.random.default_rng(1403)
    u_a, u_b, u_c = (haar_unitaries(rng, 1000, 2) for _ in range(3))
    worst = np.zeros(4)
    for k in range(1000):
        p = canonical_sample(11, k, "uniform")
        a = canonical_amplitudes(p).reshape(2, 2, 2)
        psi = PureState(np.einsum("ai,bj,ck,ijk->abc", u_a[k], u_b[k], u_c[k], a).ravel())
        assert np.count_nonzero(psi.amplitudes) == 8
        rho = psi.density()
        l0, _, l2, l3, l4 = p.lambdas()
        errors = (
            bipartition_concurrence(psi) - 2.0 * l0 * math.sqrt(l2 * l2 + l3 * l3 + l4 * l4),
            concurrence(partial_trace(rho, (2, 2, 2), (0, 2))) - 2.0 * l0 * l2,
            tangle_residual(psi) - 4.0 * l0 * l0 * l4 * l4,
            concurrence(partial_trace(rho, (2, 2, 2), (0, 1))) - 2.0 * l0 * l3,
        )
        worst = np.maximum(worst, np.abs(errors))
    assert worst[:3].max() <= 1e-13
    assert worst[3] <= 1e-12


def hyperdeterminant(psi: np.ndarray) -> np.ndarray:
    """Cayley's hyperdeterminant of (N, 8) amplitudes a_ijk, basis |q_A q_B q_C>.

    The tangle is 4 |Hdet| (Coffman, Kundu & Wootters, PRA 61, 052306 (2000)).
    """
    a = psi.reshape(-1, 2, 2, 2)
    # the products a_ijk a_(1-i)(1-j)(1-k) of the four antipodal pairs
    corners = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    d = [a[:, i, j, k] * a[:, 1 - i, 1 - j, 1 - k] for i, j, k in corners]
    squares = sum(x * x for x in d)
    cross = sum(d[m] * d[n] for m in range(4) for n in range(m + 1, 4))
    even = a[:, 0, 0, 0] * a[:, 0, 1, 1] * a[:, 1, 0, 1] * a[:, 1, 1, 0]
    odd = a[:, 1, 1, 1] * a[:, 1, 0, 0] * a[:, 0, 1, 0] * a[:, 0, 0, 1]
    return squares - 2.0 * cross + 4.0 * (even + odd)


def test_tangle_residual_is_four_times_the_hyperdeterminant_on_haar_states():
    ghz, w = np.zeros((2, 8))
    ghz[[0, 7]] = S2
    w[[1, 2, 4]] = S3
    assert 4.0 * abs(hyperdeterminant(np.stack([ghz, w]))) == pytest.approx([1.0, 0.0], abs=1e-15)
    rng = np.random.default_rng(2000)
    psi = rng.standard_normal((1000, 8)) + 1j * rng.standard_normal((1000, 8))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    oracle = 4.0 * abs(hyperdeterminant(psi))
    residuals = np.array([tangle_residual(PureState(v)) for v in psi])
    assert np.count_nonzero(oracle > 0.1) >= 500
    assert np.abs(residuals - oracle).max() <= 1e-13


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
        inequality_chain(classify.ensemble_state("ginibre", 29, k, 4))
        assert len(solves) == 2


def test_pure_one_norm_margins_take_no_solve(solves):
    checked = 0
    for k in range(20):
        solves.clear()
        rho = classify.ensemble_state("haar-pure", 3, k, None)
        _, _, margin_a, _ = classify.one_norm_margins(rho)
        if margin_a <= classify.AUDIT_TOL:
            assert solves == []
            checked += 1
    assert checked > 0


def test_canonical_measures_matrix_skips_the_eight_dim_solve(solves):
    # the AB and AC reductions carry 4 x 2 factors: one stack of two 2 x 2 solves
    for route in (canonical_report, lambda p: tangle_residual(canonical_state(p))):
        solves.clear()
        route(POINT_A)
        assert solves == [(2, 2), (2, 2)]


def test_canonical_points_check_the_tolerance_of_their_pure_state():
    # a point refused by the pure state it becomes is refused when it is made
    far = math.sqrt(0.5 + 5e-11)
    with pytest.raises(StateError, match="deviation 5.000e-11, tolerance 1.0e-12"):
        CanonicalThreeQubit(far, 0.0, 0.0, 0.0, S2)
    zeros = np.zeros(2)
    with pytest.raises(StateError, match="^point 1: .* tolerance 1.0e-12"):
        CanonicalThreeQubit(np.array([S2, far]), zeros, zeros, zeros, np.array([S2, S2]))
    # and a point accepted within it goes through every matrix route
    near = CanonicalThreeQubit(math.sqrt(0.5 + 5e-13), 0.0, 0.0, 0.0, S2)
    assert canonical_state(near).dim == 8
    assert canonical_report(near)["matrix"]["tangle"] == pytest.approx(1.0, abs=1e-10)
    assert tangle_residual(canonical_state(near)) == pytest.approx(1.0, abs=1e-10)


def test_pure_state_concurrence_takes_no_solve(solves):
    concurrence(BELL.density())
    assert solves == []
