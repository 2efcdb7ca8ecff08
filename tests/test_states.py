"""State construction, reduction, sampling and file-format tests."""

import json
import math

import numpy as np
import pytest

from qcohere import states
from qcohere.classify import ensemble_state
from qcohere.measures import concurrence
from qcohere.states import (
    MAX_SEED,
    TWO_QUBIT_DIM,
    CanonicalThreeQubit,
    DensityMatrix,
    EnsembleSpec,
    PureState,
    SeedingError,
    StateError,
    _haar_vectors,
    canonical_sample,
    canonical_state,
    density_matrix_from_json_dict,
    ensemble_chunk,
    partial_trace,
    read_density_matrix,
    sample_rng,
    werner_state,
)

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)
BELL = PureState([S2, 0.0, 0.0, S2])


def test_pure_to_density_basis_state():
    rho = PureState([1.0, 0.0, 0.0, 0.0]).density()
    assert np.array_equal(rho.matrix, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))


def test_pure_to_density_bell():
    rho = BELL.density()
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.abs(rho.matrix - expected).max() <= 1e-15


def test_pure_density_purity_is_one():
    for amplitudes in _haar_vectors(11, 0, 1000, 4):
        rho = PureState(amplitudes).density()
        assert abs(rho.purity() - 1.0) <= 1e-12


def test_pure_state_rejects_unnormalized():
    with pytest.raises(StateError, match="deviates"):
        PureState([1.0, 1.0])
    with pytest.raises(StateError, match="power of two"):
        PureState([1.0, 0.0, 0.0])


def test_density_matrix_rejects_bad_input():
    with pytest.raises(StateError, match="Hermitian"):
        DensityMatrix([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(StateError, match="trace"):
        DensityMatrix(np.eye(4))
    with pytest.raises(StateError, match="positive semidefinite"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_partial_trace_product_state():
    sigma = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), sigma))
    reduced = partial_trace(rho, (2, 2), (1,))
    assert np.abs(reduced.matrix - sigma).max() <= 1e-14


def test_partial_trace_ghz_to_pair():
    p = CanonicalThreeQubit(S2, 0.0, 0.0, 0.0, S2)
    rho = canonical_state(p).density()
    ab = partial_trace(rho, (2, 2, 2), (0, 1))
    assert np.abs(ab.matrix - np.diag([0.5, 0.0, 0.0, 0.5])).max() <= 1e-14


def test_partial_trace_bell_to_single_qubit():
    rho = BELL.density()
    single = partial_trace(rho, (2, 2), (0,))
    assert np.abs(single.matrix - np.eye(2) / 2).max() <= 1e-14


def test_partial_trace_preserves_trace_and_hermiticity():
    for amplitudes in _haar_vectors(3, 0, 200, 8):
        rho = PureState(amplitudes).density()
        for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            red = partial_trace(rho, (2, 2, 2), keep)
            assert abs(complex(np.trace(red.matrix)) - 1.0) <= 1e-12
            assert np.abs(red.matrix - red.matrix.conj().T).max() <= 1e-12


def test_factors_reproduce_their_states():
    # rho = V V^H for every factor a state is built with or carries
    def assert_factor(rho, shape):
        v = rho.factor
        assert v.shape == shape
        assert np.abs(v @ v.conj().swapaxes(-1, -2) - rho.matrix).max() <= 1e-15

    for kind, rank in (("haar-pure", 4), ("ginibre", 1), ("ginibre", 3), ("ginibre", 4)):
        chunk = ensemble_chunk(kind, 19, 0, 50, rank)
        cols = 1 if kind == "haar-pure" else rank
        assert_factor(chunk, (50, 4, cols))
        assert_factor(chunk[7], (4, cols))
        assert_factor(chunk[np.arange(3, 9)], (6, 4, cols))
    for amplitudes in _haar_vectors(3, 0, 20, 8):
        rho = PureState(amplitudes).density()
        assert_factor(rho, (8, 1))
        for keep in ((0, 1), (0, 2), (1, 2)):
            assert_factor(partial_trace(rho, (2, 2, 2), keep), (4, 2))
        # a factor wider than it is tall (2 x 4 here) is not carried; the
        # reduction takes a pivoted Cholesky of its own matrix
        single = partial_trace(rho, (2, 2, 2), (0,))
        assert single._factor is None
        assert_factor(single, (2, 2))
    # states built from a bare matrix take a pivoted Cholesky of it
    assert_factor(werner_state(0.9), (4, 4))


def test_partial_trace_rejects_bad_arguments():
    rho = BELL.density()
    with pytest.raises(StateError, match="multiply"):
        partial_trace(rho, (2, 4), (0,))
    with pytest.raises(StateError, match="proper subset"):
        partial_trace(rho, (2, 2), ())
    with pytest.raises(StateError, match="proper subset"):
        partial_trace(rho, (2, 2), (0, 1))
    with pytest.raises(StateError, match="out of range"):
        partial_trace(rho, (2, 2), (3,))
    with pytest.raises(StateError, match=r"stack of shape \(3, 4, 4\)"):
        partial_trace(ensemble_chunk("ginibre", 1, 0, 3, 4), (2, 2), (0,))


def test_canonical_state_basis_point():
    psi = canonical_state(CanonicalThreeQubit(1.0, 0.0, 0.0, 0.0, 0.0))
    assert np.array_equal(psi.amplitudes, np.eye(8, dtype=complex)[0])


def test_canonical_state_ghz_point():
    psi = canonical_state(CanonicalThreeQubit(S2, 0.0, 0.0, 0.0, S2))
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = S2
    assert np.abs(psi.amplitudes - expected).max() <= 1e-15


def test_canonical_state_w_point():
    psi = canonical_state(CanonicalThreeQubit(S3, 0.0, S3, S3, 0.0))
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[5] = expected[6] = S3
    assert np.abs(psi.amplitudes - expected).max() <= 1e-15


def test_canonical_state_unsupported_amplitudes_are_exact_zero():
    for k in range(50):
        psi = canonical_state(canonical_sample(21, k, "uniform"))
        assert psi.amplitudes[1] == 0.0
        assert psi.amplitudes[2] == 0.0
        assert psi.amplitudes[3] == 0.0


def test_canonical_reduction_matches_hand_pattern():
    # rho_AB off-diagonal moduli are {l0 l1, l0 l3, |l1 l3 e^{i theta} + l2 l4|},
    # and the |01> row/column is empty
    for theta in (0.0, 1.2):
        for k in range(50):
            base = canonical_sample(77, k, "zero")
            p = CanonicalThreeQubit(*base.lambdas(), theta=theta)
            rho = canonical_state(p).density()
            ab = partial_trace(rho, (2, 2, 2), (0, 1)).matrix
            l0, l1, l2, l3, l4 = p.lambdas()
            cross = abs(l1 * l3 * complex(math.cos(theta), math.sin(theta)) + l2 * l4)
            assert abs(abs(ab[0, 2]) - l0 * l1) <= 1e-12
            assert abs(abs(ab[0, 3]) - l0 * l3) <= 1e-12
            assert abs(abs(ab[2, 3]) - cross) <= 1e-12
            assert np.abs(ab[1, :]).max() <= 1e-15
            assert np.abs(ab[:, 1]).max() <= 1e-15


def test_canonical_invariant_violations_name_the_field():
    with pytest.raises(StateError, match="lambda1"):
        CanonicalThreeQubit(1.0, -0.1, 0.0, 0.0, 0.0)
    with pytest.raises(StateError, match="theta"):
        CanonicalThreeQubit(1.0, 0.0, 0.0, 0.0, 0.0, theta=4.0)
    with pytest.raises(StateError, match="sum to 1"):
        CanonicalThreeQubit(1.0, 0.5, 0.0, 0.0, 0.0)


def test_sampling_is_deterministic_per_index():
    a = _haar_vectors(42, 0, 1, 4)
    b = _haar_vectors(42, 0, 1, 4)
    assert np.array_equal(a, b)
    g1 = ensemble_state("ginibre", 7, 5, 4).matrix
    g2 = ensemble_state("ginibre", 7, 5, 4).matrix
    assert np.array_equal(g1, g2)
    c1 = canonical_sample(9, 3, "uniform")
    c2 = canonical_sample(9, 3, "uniform")
    assert c1 == c2


def test_chunk_rows_are_the_states_drawn_one_by_one():
    for kind, rank in (("ginibre", 4), ("ginibre", 2), ("haar-pure", 4)):
        chunk = ensemble_chunk(kind, 11, 5, 25, rank)
        assert chunk.matrix.shape == (20, 4, 4)
        assert list(chunk.indices) == list(range(5, 25))
        for k in range(5, 25):
            one = ensemble_state(kind, 11, k, rank)
            assert chunk.matrix[k - 5].tobytes() == one.matrix.tobytes(), (kind, k)
            assert chunk[k - 5].matrix.tobytes() == one.matrix.tobytes(), (kind, k)


def test_one_normal_call_per_state_draws_the_two_call_bits():
    # the frozen contract: real parts, then imaginary parts, from sample k's generator
    for k in range(20):
        rng = sample_rng(11, k)
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        m = g @ g.conj().T
        m /= np.trace(m).real
        assert (0.5 * (m + m.conj().T)).tobytes() == (
            ensemble_state("ginibre", 11, k, 2).matrix.tobytes()
        )
        rng = sample_rng(11, k)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= math.sqrt(float((v.real * v.real + v.imag * v.imag).sum()))
        assert v.tobytes() == _haar_vectors(11, k, k + 1, 4)[0].tobytes()


def _rows_one_generator_each(seed, lo, hi, size):
    """The reference draw: one ``sample_rng`` per sample."""
    z = np.empty((hi - lo, 2 * size))
    for row, k in zip(z, range(lo, hi)):
        sample_rng(seed, k).standard_normal(out=row)
    return z[:, :size] + 1j * z[:, size:]


# the edge cases of numpy's split of the entropy into 32-bit words: seeds of
# one and two words, indices of one and two words, and a chunk that straddles
# 2**32; the indices 0, 1, 2**32-1, 2**32 and 10**6 sit past the first row.
# The one-row chunks, as worst-case redraws take them, sit on each side of
# 2**32: the first has no two-word index, the second nothing else.
CORPUS_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
CORPUS_CHUNKS = (
    (0, 3),
    (2**32 - 2, 2**32 + 2),
    (10**6 - 1, 10**6 + 2),
    (2**32 - 1, 2**32),
    (2**32, 2**32 + 1),
)
CORPUS_KINDS = (("haar-pure", 4), ("ginibre", 2), ("ginibre", 4))  # rows of 4, 8 and 16


def test_chunk_rows_match_one_generator_per_sample_byte_for_byte(monkeypatch):
    for seed in CORPUS_SEEDS:
        for lo, hi in CORPUS_CHUNKS:
            for kind, rank in CORPUS_KINDS:
                chunk = ensemble_chunk(kind, seed, lo, hi, rank).matrix
                with monkeypatch.context() as m:
                    m.setattr(states, "_gaussian_rows", _rows_one_generator_each)
                    reference = ensemble_chunk(kind, seed, lo, hi, rank).matrix
                assert chunk.tobytes() == reference.tobytes(), (seed, lo, kind, rank)
            for k, row in zip(range(lo, hi), states._pcg64_states(seed, lo, hi)):
                assert row.tolist() == _frozen_words(seed, k), (seed, k)


def _frozen_words(seed, k):
    """Sample k's PCG64 words [state_lo, state_hi, inc_lo, inc_hi], read through numpy's dict."""
    frozen = sample_rng(seed, k).bit_generator.state["state"]
    return [w >> shift & (2**64 - 1) for w in (frozen["state"], frozen["inc"]) for shift in (0, 64)]


def test_limb_arithmetic_matches_the_frozen_generator_across_word_boundaries():
    # the 128-bit LCG runs on uint64 limbs: the chunks cover the first
    # indices, the index that grows a second word, and the last indices
    seeds = CORPUS_SEEDS + tuple(int(s) for s in np.random.default_rng(13).integers(
        2**64, size=3, dtype=np.uint64))
    for seed in seeds:
        for lo, hi in ((0, 1024), (2**32 - 512, 2**32 + 512), (2**64 - 1024, 2**64)):
            rows = states._pcg64_states(seed, lo, hi)
            assert rows.dtype == np.uint64 and rows.shape == (hi - lo, 4)
            expected = [_frozen_words(seed, k) for k in range(lo, hi)]
            assert rows.tolist() == expected, (seed, lo)


def test_chunk_checks_seed_and_index_before_hashing(monkeypatch):
    def no_hashing(*args):
        raise AssertionError("hashed before the argument checks")

    monkeypatch.setattr(states, "_pcg64_states", no_hashing)
    for kind, rank in (("haar-pure", 4), ("ginibre", 4)):
        with pytest.raises(StateError, match="sample index must be non-negative, got -1"):
            ensemble_chunk(kind, 3, -1, 2, rank)
        with pytest.raises(StateError, match="seed must be a 64-bit unsigned integer"):
            ensemble_chunk(kind, MAX_SEED + 1, 0, 2, rank)
        with pytest.raises(StateError, match="seed must be a 64-bit unsigned integer"):
            ensemble_chunk(kind, -1, 0, 2, rank)
        with pytest.raises(StateError, match=r"sample index must be below 2\*\*64"):
            ensemble_chunk(kind, 3, 2**64 - 1, 2**64 + 1, rank)


def test_chunk_seeding_that_disagrees_with_the_frozen_generator_fails(monkeypatch):
    replica = states._pcg64_states

    def one_bit_off(seed, lo, hi):
        rows = replica(seed, lo, hi)
        rows[0, 1] ^= np.uint64(1 << 13)  # bit 77 of the first sample's state
        return rows

    monkeypatch.setattr(states, "_pcg64_states", one_bit_off)
    for kind, rank in (("haar-pure", 4), ("ginibre", 2)):
        with pytest.raises(SeedingError, match="sample 5 .seed 11"):
            ensemble_chunk(kind, 11, 5, 25, rank)


def test_chunk_seeding_that_spares_the_first_row_fails_at_the_last(monkeypatch):
    replica = states._pcg64_states

    def last_bit_off(seed, lo, hi):
        rows = replica(seed, lo, hi)
        rows[-1, 1] ^= np.uint64(1 << 13)
        return rows

    monkeypatch.setattr(states, "_pcg64_states", last_bit_off)
    for lo, hi in ((5, 25), (2**32 - 2, 2**32 + 2)):
        for kind, rank in (("haar-pure", 4), ("ginibre", 2)):
            with pytest.raises(SeedingError, match=f"sample {hi - 1} .seed 11.*own draw"):
                ensemble_chunk(kind, 11, lo, hi, rank)


def test_a_generator_holding_the_high_limbs_first_is_written_in_its_order(monkeypatch):
    # the order of numpy's two-limb 128-bit type and of big-endian hosts,
    # seen from this build: the chunk's rows hold the high limbs first
    replica = states._pcg64_states
    monkeypatch.setattr(states, "_pcg64_states", lambda *a: replica(*a)[:, [1, 0, 3, 2]])
    for lo, hi in ((5, 25), (2**32 - 2, 2**32 + 2)):
        for kind, rank in (("haar-pure", 4), ("ginibre", 2)):
            chunk = ensemble_chunk(kind, 11, lo, hi, rank).matrix
            with monkeypatch.context() as m:
                m.setattr(states, "_gaussian_rows", _rows_one_generator_each)
                reference = ensemble_chunk(kind, 11, lo, hi, rank).matrix
            assert chunk.tobytes() == reference.tobytes(), (lo, kind)


@pytest.mark.parametrize("order", [[2, 3, 0, 1], [0, 3, 2, 1]], ids=["inc-first", "limbs-crossed"])
def test_layout_guard_refuses_before_any_write_or_draw(monkeypatch, order):
    replica = states._pcg64_states
    built = []

    def recorded_rng(seed, index):
        built.append(sample_rng(seed, index))
        return built[-1]

    monkeypatch.setattr(states, "sample_rng", recorded_rng)
    monkeypatch.setattr(states, "_pcg64_states", lambda *a: replica(*a)[:, order])
    with pytest.raises(SeedingError, match="sample 5 .seed 11.*not the chunk's first row"):
        ensemble_chunk("haar-pure", 11, 5, 25, 4)
    # the one generator built was neither written nor drawn from
    assert len(built) == 1
    assert built[0].bit_generator.state == sample_rng(11, 5).bit_generator.state


def test_writes_that_miss_the_live_generator_fail_at_the_first_row(monkeypatch):
    guard = states._generator_words

    def detached(*args):
        words, rows = guard(*args)
        return words.copy(), rows

    monkeypatch.setattr(states, "_generator_words", detached)
    for lo, hi in ((5, 6), (5, 25)):
        with pytest.raises(SeedingError, match="sample 5 .seed 11.*own draw"):
            ensemble_chunk("haar-pure", 11, lo, hi, 4)


def test_pointer_guard_refuses_a_bit_generator_without_the_pcg64_pointer():
    # these keep their words inline, so the first field is no pointer into the object
    rows = states._pcg64_states(11, 5, 6)
    for bit_generator in (np.random.SFC64(11), np.random.MT19937(11)):
        with pytest.raises(SeedingError, match="lie outside the bit generator"):
            states._generator_words(bit_generator, rows, 11, 5)
    bit_generator = sample_rng(11, 5).bit_generator  # the view aliases its memory
    words, held = states._generator_words(bit_generator, rows, 11, 5)
    assert words.tolist() == held[0].tolist() == _frozen_words(11, 5)


def test_stack_errors_name_the_sample():
    good = np.eye(4, dtype=complex) / 4
    stack = np.stack([good] * 4)
    stack[2, 0, 1] = 0.3
    with pytest.raises(StateError, match="sample 12: not Hermitian"):
        DensityMatrix._lazy(stack, np.arange(10, 14))
    stack = np.stack([good] * 4)
    stack[3] *= 2.0
    with pytest.raises(StateError, match="sample 3: trace deviates from 1 by 1.000e"):
        DensityMatrix(stack)
    stack = np.stack([good] * 4)
    stack[1] = np.diag([1.5, -0.5, 0.0, 0.0])
    lazy = DensityMatrix._lazy(stack, np.arange(7, 11))
    with pytest.raises(StateError, match="sample 8: density matrix is not positive"):
        concurrence(lazy)
    # one state of a stack keeps its sample index
    with pytest.raises(StateError, match="sample 8: density matrix is not positive"):
        lazy[1].eigenvalues
    with pytest.raises(StateError, match="^density matrix is not positive"):
        DensityMatrix(stack[1])


def test_haar_reduced_purity_matches_oracle_band():
    # Monte Carlo oracle at 10^6 samples gives 0.7999 (analytic 4/5) for the
    # single-qubit reduction of a Haar two-qubit pure state
    n = 100_000
    rho = ensemble_chunk("haar-pure", 42, 0, n, 4).matrix.reshape(n, 2, 2, 2, 2)
    ra = np.einsum("kajbj->kab", rho)
    total = float(np.trace(ra @ ra, axis1=-2, axis2=-1).real.sum())
    assert 0.79 <= total / n <= 0.81


def test_ginibre_invariants_and_rank_one_purity():
    rho = ensemble_chunk("ginibre", 5, 0, 200, 2)
    assert rho.dim == 4
    assert np.abs(np.trace(rho.matrix, axis1=-2, axis2=-1) - 1.0).max() <= 1e-12
    assert np.abs(ensemble_chunk("ginibre", 5, 0, 200, 1).purity() - 1.0).max() <= 1e-10


def test_ensemble_spec_resolves_and_checks_the_rank():
    # the spec owns the rank range; a chunk takes the rank of a checked spec
    full = EnsembleSpec("ginibre", seed=1, count=10)
    assert full.rank == TWO_QUBIT_DIM == 4
    assert full.describe() == "ginibre(dim=4,rank=4)"
    assert EnsembleSpec("ginibre", seed=1, count=10, rank=3).describe() == "ginibre(dim=4,rank=3)"
    pure = EnsembleSpec("haar-pure", seed=1, count=10)
    assert pure.rank is None
    assert pure.describe() == "haar-pure(dim=4)"
    with pytest.raises(StateError, match="^rank applies to the ginibre ensemble only$"):
        EnsembleSpec("haar-pure", seed=1, count=10, rank=4)
    for rank in (0, 5):
        with pytest.raises(StateError, match=rf"^rank must lie in \[1, 4\], got {rank}$"):
            EnsembleSpec("ginibre", seed=1, count=10, rank=rank)


def test_ginibre_purity_matches_oracle_band():
    # Monte Carlo oracle at 10^6 samples gives 0.47057 (analytic 8/17) for
    # the full-rank dim-4 ensemble
    n = 100_000
    total = float(ensemble_chunk("ginibre", 7, 0, n, 4).purity().sum())
    assert 0.4606 <= total / n <= 0.4806


def test_canonical_samples_are_normalized_and_theta_respects_mode():
    for k in range(200):
        p = canonical_sample(31, k, "zero")
        assert abs(sum(v * v for v in p.lambdas()) - 1.0) <= 1e-12
        assert p.theta == 0.0
    thetas = [canonical_sample(31, k, "uniform").theta for k in range(200)]
    assert all(0.0 <= t <= math.pi for t in thetas)
    assert max(thetas) > 1.0  # actually spread over the interval


def test_canonical_lambda0_squared_mean():
    # flat Dirichlet marginal mean of each squared amplitude is 1/5
    total = 0.0
    n = 100_000
    for k in range(n):
        p = canonical_sample(5, k, "zero")
        total += p.lambda0 * p.lambda0
    assert 0.195 <= total / n <= 0.205


def test_werner_state_values():
    w = werner_state(0.9)
    assert abs(w.matrix[0, 3].real - 0.45) <= 1e-15
    assert abs(w.matrix[1, 1].real - 0.025) <= 1e-15
    with pytest.raises(StateError):
        werner_state(1.5)


def test_density_matrix_json_round_trip(tmp_path):
    rho = werner_state(0.9)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(rho.to_json_dict()))
    back = read_density_matrix(path)
    assert np.array_equal(back.matrix, rho.matrix)
    obj = json.loads(path.read_text())
    assert set(obj) == {"dim", "re", "im"}
    assert len(obj["re"]) == 16


def test_density_matrix_reader_reports_residuals(tmp_path):
    good = werner_state(0.5).to_json_dict()

    bad_trace = dict(good)
    bad_trace["re"] = [2.0 * x for x in good["re"]]
    with pytest.raises(StateError, match="trace deviation"):
        density_matrix_from_json_dict(bad_trace)

    bad_herm = dict(good)
    re = list(good["re"])
    re[1] += 0.3
    bad_herm["re"] = re
    with pytest.raises(StateError, match="hermiticity residual"):
        density_matrix_from_json_dict(bad_herm)

    bad_psd = {"dim": 2, "re": [1.2, 0.0, 0.0, -0.2], "im": [0.0, 0.0, 0.0, 0.0]}
    with pytest.raises(StateError, match="eigenvalue"):
        density_matrix_from_json_dict(bad_psd)

    # a Hermitian matrix failing both trace and positivity reports both
    bad_both = {"dim": 2, "re": [2.0, 0.0, 0.0, -0.5], "im": [0.0, 0.0, 0.0, 0.0]}
    with pytest.raises(
        StateError, match="trace deviation 5.000e-01, minimum eigenvalue -5.000e-01"
    ):
        density_matrix_from_json_dict(bad_both)

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(StateError, match="not valid JSON"):
        read_density_matrix(path)


def test_density_matrix_reader_solves_once(solves):
    obj = werner_state(0.9).to_json_dict()
    solves.clear()
    rho = density_matrix_from_json_dict(obj)
    assert len(solves) == 1
    # the factor is a Cholesky of the matrix, taken after the PSD check on
    # the spectrum the reader solved: the concurrence adds the 4x4 tau
    # product and nothing else
    concurrence(rho)
    assert solves == [(4, 4), (4, 4)]
