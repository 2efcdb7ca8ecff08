"""Kernel tests: examples with hand-derived values plus randomized properties.

numpy.linalg only ever appears on the oracle side, so the one-sided Jacobi
solver and the kernels built on it (the spectrum that ``DensityMatrix``
caches, the norms the inequality chain reads off that spectrum) are checked
against an independent route.
"""

import math

import numpy as np
import pytest

from qcohere import linalg, measures
from qcohere.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    ConvergenceError,
    NotPsdError,
    induced_one_norm,
    pivoted_cholesky,
    singular_values,
)
from qcohere.measures import concurrence, inequality_chain
from qcohere.states import DensityMatrix, StateError

RNG = np.random.default_rng(1905)

# the spin-flip operator sigma_y x sigma_y as a dense oracle
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
YY = np.kron(SIGMA_Y, SIGMA_Y)


def random_hermitian(dim, rng=RNG):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


def random_density(dim, rng=RNG):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def werner_matrix(p):
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    return p * bell + (1 - p) * np.eye(4) / 4


def test_pauli_constants():
    for sigma in (SIGMA_X, SIGMA_Z):
        assert np.allclose(sigma @ sigma, IDENTITY_2)
        assert np.allclose(sigma, sigma.conj().T)


def test_kron_sigma_y_pair():
    # hand expansion of the full 4x4 product: the anti-diagonal -1, 1, 1, -1
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = -1
    expected[1, 2] = expected[2, 1] = 1
    assert np.array_equal(YY, expected)
    # the tau matrix applies its anti-diagonal signs to the rows of V, so with
    # V = I it gives the operator itself
    assert np.array_equal(measures._tau(np.eye(4, dtype=complex)), YY)


def _moduli(h: np.ndarray) -> np.ndarray:
    """Descending |eigenvalues| of Hermitian h from numpy: its singular values."""
    return np.sort(np.abs(np.linalg.eigvalsh(h)), axis=-1)[..., ::-1]


def test_eigen_diagonal():
    m = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    assert np.allclose(singular_values(m), [0.4, 0.3, 0.2, 0.1], atol=1e-14)
    assert np.allclose(DensityMatrix(m).eigenvalues, [0.1, 0.2, 0.3, 0.4], atol=1e-14)


def test_eigen_sigma_x():
    assert np.allclose(singular_values(SIGMA_X), [1.0, 1.0], atol=1e-12)


def test_eigen_bell_projector():
    w = DensityMatrix(werner_matrix(1.0)).eigenvalues
    assert np.allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-10)


def test_eigen_properties_on_random_stacks():
    # 10^4 random Hermitian G + G^H across the dimensions in actual use, one
    # stack per dimension; every bound holds for every matrix of the stack
    for dim, count in ((2, 5000), (4, 4000), (8, 1000)):
        h = np.stack([random_hermitian(dim) for _ in range(count)])
        s = singular_values(h)
        assert s.shape == (count, dim)
        assert np.all(np.diff(s, axis=-1) <= 0.0)
        # independent oracle for the singular values
        assert np.abs(s - _moduli(h)).max() <= 1e-10


def test_eigen_raises_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="1 sweeps"):
        singular_values(random_hermitian(4))


def test_eigen_raises_when_one_matrix_of_a_stack_runs_out(monkeypatch):
    # six diagonal matrices have orthogonal columns and rotate nothing; the seventh cannot
    stack = np.stack([np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)] * 6 + [random_hermitian(4)])
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="1 sweeps: 1 of 7 matrices unconverged"):
        singular_values(stack)
    with pytest.raises(ConvergenceError, match="1 of 1 matrices"):
        singular_values(stack[6:])
    singular_values(stack[:6])


def _rotated_sizes(monkeypatch) -> list:
    """Record the stack size of every Jacobi round from here on."""
    sizes, rotate = [], linalg._rotate
    monkeypatch.setattr(linalg, "_rotate", lambda w, *args: sizes.append(w.shape[-1]) or rotate(w, *args))
    return sizes


def test_stragglers_are_swept_alone_with_the_same_bits(monkeypatch):
    # fifteen diagonal matrices rotate nothing in the first sweep, so the
    # sixteenth is swept alone from the second; sixty 2x2 blocks are done
    # once their one pair has rotated and the other pairs are found
    # orthogonal, so from the third sweep the four random matrices are alone
    rng = np.random.default_rng(1611)
    diagonal = [np.diag(rng.standard_normal(4)).astype(complex) for _ in range(15)]
    one = np.stack(diagonal + [random_hermitian(4, rng)])[rng.permutation(16)]
    blocks = np.stack([np.diag(rng.standard_normal(4)).astype(complex) for _ in range(60)])
    blocks[:, 0, 1] = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    blocks[:, 1, 0] = blocks[:, 0, 1].conj()
    four = np.concatenate([blocks, [random_hermitian(4, rng) for _ in range(4)]])[rng.permutation(64)]
    for stack, first, later in ((one, 16, 1), (four, 64, 4)):
        sizes = _rotated_sizes(monkeypatch)
        whole = singular_values(stack)
        # a sweep of a 4x4 stack is three rounds
        assert sizes[:3] == [first] * 3 and max(sizes[6:]) <= later, sizes
        monkeypatch.undo()
        for k, m in enumerate(stack):
            assert _bits(singular_values(m)) == _bits(whole[k]), k
    # the straggler runs out of sweeps; the error counts over the whole stack
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="1 sweeps: 1 of 16 matrices unconverged"):
        singular_values(one)


def test_eigen_stack_errors_name_the_matrix():
    with pytest.raises(NotPsdError, match="-2.000e-01") as caught:
        linalg.clamp_psd_eigenvalues(np.array([[0.0, 1.0], [-0.2, 1.2], [-0.3, 1.3]]))
    assert caught.value.index == 1


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPsdError, match="-1.0"):
        linalg.clamp_psd_eigenvalues(np.array([-1.0, 1.0]))
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(StateError, match="-5.000e-01"):
        DensityMatrix(bad)
    # a lazily solved state passes the eager checks and fails on first use:
    # its concurrence needs a factor, which it takes only after the PSD check
    lazy = DensityMatrix._lazy(bad)
    with pytest.raises(StateError, match="-5.000e-01"):
        concurrence(lazy)


def test_singular_values_identity():
    w = DensityMatrix(np.eye(4) / 4).eigenvalues
    assert np.abs(w[::-1] - np.linalg.svd(np.eye(4) / 4, compute_uv=False)).max() <= 1e-12


def test_singular_values_of_psd_equal_eigenvalues():
    # the fact the chain relies on to take every norm from the cached spectrum
    for _ in range(50):
        rho = random_density(4)
        s = np.linalg.svd(rho, compute_uv=False)
        assert np.abs(DensityMatrix(rho).eigenvalues[::-1] - s).max() <= 1e-12


def test_singular_values_unitary_invariance():
    # the spin flip is a unitary conjugation of rho*, so it keeps rho's
    # singular values; so does any other unitary conjugation
    for _ in range(50):
        rho = DensityMatrix(random_density(4))
        w = rho.eigenvalues[::-1]
        flip = YY @ rho.matrix.conj() @ YY
        assert np.abs(np.linalg.svd(flip, compute_uv=False) - w).max() <= 1e-12
        u, _ = np.linalg.qr(RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))
        moved = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert np.abs(moved.eigenvalues[::-1] - w).max() <= 1e-12


def test_pivoted_cholesky_examples():
    # a diagonal matrix takes its largest entry first, the first of equal
    # ones next, and stops at its rank with a zero column
    v = pivoted_cholesky(np.diag([0.25, 0.5, 0.0, 0.25]).astype(complex))
    expected = np.zeros((4, 4))
    # column p over sqrt(d_p): 0.5 / sqrt(0.5) is one ulp below sqrt(0.5)
    expected[1, 0], expected[0, 1], expected[3, 2] = 0.5 / math.sqrt(0.5), 0.5, 0.5
    assert np.array_equal(v, expected)
    # the Bell projector has rank one: one column, the rest exactly zero
    v = pivoted_cholesky(werner_matrix(1.0))
    assert np.count_nonzero(v[:, 1:]) == 0
    assert np.abs(v @ v.conj().T - werner_matrix(1.0)).max() <= 1e-15
    assert np.array_equal(pivoted_cholesky(np.zeros((3, 2, 2))), np.zeros((3, 2, 2)))
    # a complex 2 x 2 of rank 2: lower triangular, pivoting on row 0 first
    m = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    v = pivoted_cholesky(m)
    assert v[0, 1] == 0.0
    assert np.abs(v @ v.conj().T - m).max() <= 2e-16


def test_induced_one_norm():
    assert induced_one_norm(np.eye(4)) == 1.0
    assert induced_one_norm(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-15)
    # hand column sums: 0.475 + 0.45 in the outer columns
    assert induced_one_norm(werner_matrix(0.9)) == pytest.approx(0.925, abs=1e-12)


def test_spectrum_without_a_factor_comes_from_the_shifted_cholesky():
    # rho + ||rho||_F I is PSD for any Hermitian rho, so its factor's squared
    # singular values, shifted back, give every eigenvalue, negative ones too,
    # to an absolute error near u ||rho||_F
    w = DensityMatrix(werner_matrix(0.3)).eigenvalues
    assert np.abs(w - np.linalg.eigvalsh(werner_matrix(0.3))).max() <= 1e-15
    refused = {"-1.000e-09": [0.5, 0.5 + 1e-9, 0.0, -1e-9], "-5.000e-01": [1.5, 0.0, 0.0, -0.5]}
    for named, diagonal in refused.items():
        with pytest.raises(StateError, match=f"eigenvalue {named} is below -1.0e-10"):
            DensityMatrix(np.diag(diagonal).astype(complex))
    # an eigenvalue within the PSD clamp is accepted as zero
    w = DensityMatrix(np.diag([0.5, 0.5 + 1e-11, 0.0, -1e-11]).astype(complex)).eigenvalues
    assert np.abs(w - [0.0, 0.0, 0.5, 0.5 + 1e-11]).max() <= 1e-15


def test_pivoted_cholesky_stops_at_1e_13_of_the_trace():
    # pivots at 2x and at 0.5x of 1e-13 times the trace: the first is taken,
    # the second is not, and its column stays zero
    m = np.diag([0.5, 0.5, 2e-13, 0.5e-13]).astype(complex)
    v = pivoted_cholesky(m)
    assert v[2, 2] == 2e-13 / math.sqrt(2e-13)
    assert np.count_nonzero(v[:, 3]) == 0
    assert np.abs(v @ v.conj().T - m).max() == 0.5e-13


# --- the norms that the inequality chain reads off the cached spectrum -------


def chain_norms(rho: DensityMatrix) -> dict:
    """Recover each chain norm from the report's values and link margins."""
    rep = inequality_chain(rho)
    m = {name: v.margin for name, v in rep.links.items()}
    trace_norm = rep.candidate_one_norms["trace_norm"]
    frobenius = trace_norm - m["frobenius_le_trace_norm"]
    smax = frobenius - m["smax_le_frobenius"]
    return {
        "smax": smax,
        "smax_flip": 1.0 - m["smax_flip_le_one"],
        "trace_norm": trace_norm,
        "frobenius": frobenius,
        "trace_of_square": smax + m["smax_le_trace_of_square"],
        "induced_one": rep.candidate_one_norms["induced_one"],
    }


def numpy_norms(m: np.ndarray) -> dict:
    s = np.linalg.svd(m, compute_uv=False)
    s_flip = np.linalg.svd(YY @ m.conj() @ YY, compute_uv=False)
    w = np.linalg.eigvalsh(m)
    return {
        "smax": s[0],
        "smax_flip": s_flip[0],
        "trace_norm": s.sum(),
        "frobenius": math.sqrt((s * s).sum()),
        "trace_of_square": (w * w).sum(),
    }


def test_norm_candidates_identity():
    nc = chain_norms(DensityMatrix(np.eye(4) / 4))
    assert nc["trace_norm"] == pytest.approx(1.0, abs=1e-12)
    assert nc["frobenius"] == pytest.approx(0.5, abs=1e-12)
    assert nc["trace_of_square"] == pytest.approx(0.25, abs=1e-12)
    assert nc["induced_one"] == pytest.approx(0.25, abs=1e-12)
    assert nc["smax"] == pytest.approx(0.25, abs=1e-12)
    assert nc["smax_flip"] == pytest.approx(0.25, abs=1e-12)


def test_norm_candidates_density_trace_norm_is_one():
    for _ in range(100):
        nc = chain_norms(DensityMatrix(random_density(4)))
        assert nc["trace_norm"] == pytest.approx(1.0, abs=1e-12)


def test_norm_candidates_orders_readings_differently():
    # max_singular > trace_of_square here even though max_singular <= frobenius:
    # the two readings of the "2-norm" are not interchangeable
    m = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    nc = chain_norms(DensityMatrix(m))
    assert nc["trace_of_square"] == pytest.approx(0.375, abs=1e-12)
    assert nc["smax"] == pytest.approx(0.5, abs=1e-12)
    assert nc["smax"] > nc["trace_of_square"]
    assert nc["smax"] < nc["frobenius"]
    assert nc["frobenius"] == pytest.approx(math.sqrt(0.375), abs=1e-12)
    oracle = numpy_norms(m)
    assert oracle["smax"] > oracle["trace_of_square"]


def _near_degenerate() -> np.ndarray:
    # eigenvalues 0.4 and 0.4 - 1e-14 in a seeded random basis
    g = np.random.default_rng(14).standard_normal((4, 4))
    u, _ = np.linalg.qr(g + 1j * np.random.default_rng(15).standard_normal((4, 4)))
    w = np.array([0.4, 0.4 - 1e-14, 0.15, 0.05 + 1e-14])
    m = (u * w) @ u.conj().T
    return 0.5 * (m + m.conj().T)


HARD_INPUTS = {
    "bell-projector": werner_matrix(1.0),
    "maximally-mixed": np.eye(4, dtype=complex) / 4,
    "diag-half-quarter-quarter-zero": np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex),
    "gap-1e-14": _near_degenerate(),
}


@pytest.mark.parametrize("name", sorted(HARD_INPUTS))
def test_chain_norms_match_numpy_oracle_on_hard_inputs(name):
    m = HARD_INPUTS[name]
    nc = chain_norms(DensityMatrix(m))
    for key, value in numpy_norms(m).items():
        assert abs(nc[key] - value) <= 1e-12, (name, key, nc[key], value)


def test_chain_norms_match_numpy_oracle_on_ginibre():
    for _ in range(200):
        m = random_density(4)
        nc = chain_norms(DensityMatrix(m))
        for key, value in numpy_norms(m).items():
            assert abs(nc[key] - value) <= 1e-12, (key, nc[key], value)


# --- oracle corpus: stacks with hard spectra against numpy.linalg.eigvalsh ----


def _unitaries(rng, count, dim):
    """Seeded random unitaries: Q of a complex Gaussian QR, phases fixed by R."""
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _corpus(dim):
    """Named (stack of Hermitian matrices, spectrum scale) with hard spectra."""
    rng = np.random.default_rng(4000 + dim)
    base = np.linspace(-1.0, 1.0, dim)
    spectra = {
        "generic": (rng.standard_normal((200, dim)), 1.0),
        "exact-degenerate": (np.tile(np.repeat([0.3, -0.7], [dim // 2, dim - dim // 2]), (50, 1)), 1.0),
        "identity": (np.ones((5, dim)), 1.0),
        "zero": (np.zeros((5, dim)), 1.0),
    }
    for gap in (1e-8, 1e-11, 1e-14):
        w = np.tile(base, (50, 1))
        w[:, 1] = w[:, 0] + gap
        spectra[f"gap-{gap:g}"] = (w, 1.0)
    for rank in range(dim):
        w = np.abs(rng.standard_normal((50, dim)))
        w[:, rank:] = 0.0
        spectra[f"rank-{rank}"] = (w, 1.0)
    for scale in (1e8, 1e-8):
        spectra[f"scaled-{scale:g}"] = (rng.standard_normal((100, dim)) * scale, scale)
    corpus = {}
    for name, (w, scale) in spectra.items():
        u = _unitaries(rng, len(w), dim)
        m = (u * w[:, None, :]) @ u.conj().swapaxes(-1, -2)
        corpus[name] = (0.5 * (m + m.conj().swapaxes(-1, -2)), scale)
    # the diagonal and the basis-aligned cases exercise exact zeros
    corpus["diagonal"] = (np.stack([np.diag(w).astype(complex) for w in spectra["generic"][0]]), 1.0)
    return corpus


@pytest.mark.parametrize("dim", (2, 4, 8))
def test_solver_matches_eigvalsh_on_hard_stacks(dim):
    # a Hermitian matrix's singular values are its |eigenvalues|; absolute
    # bounds below scale 1; test_solver_is_accurate_relative_to_a_small_scale
    # holds the 1e-8 stacks to their scale
    for name, (m, scale) in _corpus(dim).items():
        s = singular_values(m)
        bound = 1e-13 * max(1.0, scale)
        assert np.abs(s - _moduli(m)).max() <= bound, name
        assert np.all(np.diff(s, axis=-1) <= 0.0), name


def _bits(a: np.ndarray) -> bytes:
    # compares signed zeros and NaN payloads too, unlike array_equal
    return np.ascontiguousarray(a).tobytes()


def _signed_zeros(rng, count):
    """Diagonal and block-diagonal 4x4 matrices whose zeros are -0.0, imaginary parts included.

    A diagonal one rotates no pair, and beside a slower matrix it gets
    identity rotations in the first sweep.
    """
    m = np.full((count, 4, 4), complex(-0.0, -0.0))
    diagonal = np.arange(4)
    w = rng.standard_normal((count, 4))
    w[rng.random((count, 4)) < 0.5] = -0.0
    m.real[:, diagonal, diagonal] = w
    # every third one gets a Hermitian 2x2 block on indices 0 and 1
    b = rng.standard_normal((count, 3))
    m[::3, 0, 0], m[::3, 1, 1] = b[::3, 0], b[::3, 1]
    m[::3, 0, 1] = b[::3, 2] + 0.5j
    m[::3, 1, 0] = b[::3, 2] - 0.5j
    return m


def test_results_are_bit_identical_for_any_batch_size():
    # random matrices interleaved with degenerate, rank-deficient, diagonal and
    # signed-zero ones, so converged matrices sit beside active ones; the
    # Cholesky factor takes the PSD part of the same corpus, and the spectrum
    # of a state without a factor takes it with unit trace
    rng = np.random.default_rng(4096)
    corpus = _corpus(4)
    hard = np.concatenate([m for m, _ in corpus.values()] + [_signed_zeros(rng, 300)])
    g = rng.standard_normal((4096 - len(hard), 4, 4)) + 1j * rng.standard_normal((4096 - len(hard), 4, 4))
    m = np.concatenate([g + g.conj().swapaxes(-1, -2), hard])[rng.permutation(4096)]
    psd = np.concatenate(
        [g @ g.conj().swapaxes(-1, -2)]
        + [a for name, (a, _) in corpus.items() if name.startswith(("rank-", "identity", "zero"))]
    )
    psd = psd[rng.permutation(len(psd))]
    trace = np.trace(psd, axis1=-2, axis2=-1).real
    unit = psd[trace > 0.0] / trace[trace > 0.0, None, None]

    def spectrum(a):
        return DensityMatrix(a).eigenvalues

    for solve, stack in ((singular_values, m), (pivoted_cholesky, psd), (spectrum, unit)):
        whole = solve(stack)
        for lo in range(0, len(stack), 7):
            assert _bits(solve(stack[lo : lo + 7])) == _bits(whole[lo : lo + 7]), (solve, lo)
        for k in range(0, len(stack), 13):
            assert _bits(solve(stack[k])) == _bits(whole[k]), (solve, k)


@pytest.mark.parametrize("dim", (4, 8))
def test_solver_is_accurate_relative_to_a_small_scale(dim):
    # the convergence test is relative to each column pair's norms, so a
    # matrix whose norm is 1e-8 is solved to the same relative accuracy
    scale = 1e-8
    rng = np.random.default_rng(7100 + dim)
    g = rng.standard_normal((200, dim, dim)) + 1j * rng.standard_normal((200, dim, dim))
    m = g + g.conj().swapaxes(-1, -2)
    m *= scale / np.linalg.norm(m, axis=(-2, -1))[:, None, None]
    assert np.abs(singular_values(m) - _moduli(m)).max() <= 1e-14 * scale
