"""Qubit state construction, validation, reduction and seeded sampling.

Conventions fixed here and used everywhere else:

* Computational basis labels read |q_A q_B q_C ...> with subsystem A as
  the most significant bit, so for three qubits index 4 is |100> and
  index 7 is |111>.  This is what makes "reduce to AB" and "reduce to
  AC" unambiguous.
* Every sampler is indexed: sample k of a run is drawn from its own
  generator seeded by ``SeedSequence(entropy=seed, spawn_key=(k,))``,
  so the k-th state is bit-identical no matter how the index range is
  split across workers.  The generator choice (PCG64 behind
  ``numpy.random.default_rng``) is frozen; outputs record it as
  ``GENERATOR_NAME``.  ``sample_rng`` builds that generator for one
  sample; an ensemble chunk writes each sample's state into one generator
  in turn, and checks its first and last samples against ``sample_rng``.
* An ensemble state is ``V V^H``, ``V`` the 4 x r reshape of a Haar unit
  vector: a rank-r Ginibre state, and at r = 1 a Haar pure state.
"""

import ctypes
import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

GENERATOR_NAME = "numpy-pcg64-seedseq(seed,index)"

LAMBDA_NAMES = ("lambda0", "lambda1", "lambda2", "lambda3", "lambda4")

MAX_SEED = 2**64 - 1

# The dimension of every ensemble state: the concurrence takes two qubits only.
TWO_QUBIT_DIM = 4


class StateError(ValueError):
    """A state fails one of its construction invariants."""


class OutOfFamilyError(StateError):
    """A zero-phase closed form or check was asked for off the zero-phase slice."""


class SeedingError(RuntimeError):
    """A chunk's generator states disagree with the frozen per-sample generator."""


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """The frozen per-sample generator: PCG64 keyed by (seed, index)."""
    if not 0 <= seed <= MAX_SEED:
        raise StateError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if index < 0:
        raise StateError(f"sample index must be non-negative, got {index}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


class DensityMatrix:
    """Validated density operator: Hermitian, unit trace, PSD within tolerance.

    ``matrix`` is one d x d operator or an (N, d, d) stack of them, such as a
    chunk of an ensemble; every check and the spectrum then run once over
    the whole stack, and an error names the sample that failed.  Indexing a
    stack gives one state, or a sub-stack for an index array, through
    ``_lazy``: its checks run again, and its spectrum waits for first use.

    The public constructor validates eagerly: the finite, Hermiticity and
    trace checks, then, once every state is finite and Hermitian, one Jacobi
    solve whose eigenvalues are checked for positivity and kept, so
    consumers (the chain norms, the factor) never repeat it.  A refused
    state's ``StateError`` names every residual of the first failing state,
    joined by "; ".  States that are PSD by construction (pure-state
    projectors, Ginibre draws, partial traces) come from ``_lazy``: the same
    finite, Hermiticity and trace checks run at once, and the solve, with
    its PSD clamp and ``StateError``, runs on first use of the spectrum.
    Such a state usually knows a factor ``V`` with ``rho = V V^H`` from the
    way it was built; see ``factor``.
    """

    HERMITIAN_TOL = 1e-10
    TRACE_TOL = 1e-10

    def __init__(self, matrix):
        self._check(matrix, solve=True)

    @classmethod
    def _lazy(cls, matrix, indices=None, factor=None) -> "DensityMatrix":
        """A checked state whose spectrum waits for first use.

        ``indices`` are the sample indices of a stack's states (a stack
        without them numbers its states from 0), or the one sample index of
        a single state; errors name them.  ``factor`` is a d x r matrix
        ``V`` with ``matrix = V V^H`` (an (N, d, r) stack for a stack), or
        None.
        """
        rho = cls.__new__(cls)
        rho._check(matrix, indices)
        rho._factor = factor
        return rho

    def _check(self, matrix, indices=None, solve=False):
        """Take ``matrix``; with ``solve``, positivity joins once every state is Hermitian."""
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise StateError(f"density matrix must be square, got shape {m.shape}")
        if m.ndim == 3 and indices is None:
            indices = np.arange(m.shape[0])
        self.matrix = m
        self.dim = m.shape[-1]
        self.indices = indices
        self._factor = None
        self._eigenvalues = None
        with np.errstate(invalid="ignore"):  # inf - inf: a non-finite state's residuals are NaN
            herm = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
            trace_dev = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
        # one row per residual, one column per state; the last row is positivity
        failed = np.array([
            ~np.isfinite(m).all(axis=(-2, -1)),
            herm > self.HERMITIAN_TOL,
            trace_dev > self.TRACE_TOL,
            np.zeros(herm.shape, dtype=bool),
        ]).reshape(4, -1)
        not_psd = None
        if solve and not failed[:2].any():
            try:
                self._spectrum()
            except StateError as exc:
                not_psd = exc.__cause__  # the clamp's NotPsdError, with its stack position
                failed[3, not_psd.index or 0] = True
        if failed.any():
            k = linalg._first(failed.any(axis=0))
            residuals = (
                "density matrix contains non-finite entries",
                f"not Hermitian: max |M - M^H| entry is {herm.flat[k]:.3e},"
                f" tolerance {self.HERMITIAN_TOL:.1e}",
                f"trace deviates from 1 by {trace_dev.flat[k]:.3e}, tolerance {self.TRACE_TOL:.1e}",
                str(not_psd),
            )
            raise StateError(
                self._sample(k) + "; ".join(r for r, bad in zip(residuals, failed[:, k]) if bad)
            )

    def _sample(self, k) -> str:
        """Error prefix naming the sample at stack position ``k``, if it has an index."""
        if self.indices is None:
            return ""
        index = self.indices if self.matrix.ndim == 2 else self.indices[k]
        return f"sample {index}: "

    def _spectrum(self) -> np.ndarray:
        if self._eigenvalues is None:
            w = linalg.hermitian_eigen(self.matrix)
            try:
                self._eigenvalues = linalg.clamp_psd_eigenvalues(w, context="density matrix")
            except linalg.NotPsdError as exc:
                raise StateError(self._sample(exc.index) + str(exc)) from exc
        return self._eigenvalues

    def __getitem__(self, k) -> "DensityMatrix":
        """State ``k`` of a stack, or the sub-stack at an index array or mask."""
        if self.matrix.ndim == 2:
            raise StateError(f"a single {self.dim} x {self.dim} state has no states to index")
        factor = None if self._factor is None else self._factor[k]
        return DensityMatrix._lazy(self.matrix[k], self.indices[k], factor)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum, tiny negatives already clamped to zero."""
        return self._spectrum()

    @property
    def factor(self) -> np.ndarray:
        """A d x r matrix ``V`` with ``rho = V V^H``; (N, d, r) for a stack.

        The factor the state was built from, where it has one (the state vector
        of a pure state, the reshaped Haar vector of an ensemble state, and what
        a partial trace carries over); otherwise a pivoted Cholesky of
        ``matrix`` (``linalg.pivoted_cholesky``), d x d with a zero column
        per missing rank.  That is taken only once the spectrum, solved for
        it if it is not yet known, has passed the PSD check.
        """
        if self._factor is not None:
            return self._factor
        self._spectrum()
        return linalg.pivoted_cholesky(self.matrix)

    def purity(self):
        """Tr(rho^2) = sum of |rho_ij|^2 for Hermitian rho: a float, or one per state of a stack."""
        m = self.matrix
        return per_state((m.real * m.real + m.imag * m.imag).sum(axis=(-2, -1)))

    def to_json_dict(self) -> dict:
        """The file format of ``read_density_matrix``; a stack has none and is refused."""
        if self.matrix.ndim == 3:
            raise StateError(f"a density-matrix file holds one state, got a stack of {len(self.matrix)}")
        return {
            "dim": int(self.dim),
            "re": [float(x) for x in self.matrix.real.ravel()],
            "im": [float(x) for x in self.matrix.imag.ravel()],
        }

    def __repr__(self):
        if self.matrix.ndim == 3:
            return f"DensityMatrix(dim={self.dim}, count={len(self.matrix)})"
        return f"DensityMatrix(dim={self.dim})"


def per_state(values):
    """A Python scalar for a single state's or point's 0-d result, the array itself for a stack."""
    return np.asarray(values).item() if np.ndim(values) == 0 else values


class PureState:
    """Normalized state vector over a power-of-two dimensional space."""

    NORM_TOL = 1e-12

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=np.complex128)
        if v.ndim != 1 or v.size == 0:
            raise StateError(f"amplitudes must be a 1-d sequence, got shape {v.shape}")
        if v.size & (v.size - 1):
            raise StateError(f"dimension must be a power of two, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise StateError("amplitudes contain non-finite entries")
        dev = abs(float((v.real * v.real + v.imag * v.imag).sum()) - 1.0)
        if dev > self.NORM_TOL:
            raise StateError(
                f"state is not normalized: squared-modulus sum deviates"
                f" from 1 by {dev:.3e}, tolerance {self.NORM_TOL:.1e}"
            )
        self.amplitudes = v
        self.dim = v.size

    def density(self) -> DensityMatrix:
        v = self.amplitudes
        return DensityMatrix._lazy(np.outer(v, v.conj()), factor=v[:, None])

    def __repr__(self):
        return f"PureState(dim={self.dim})"


def partial_trace(rho: DensityMatrix, qubit_dims, keep) -> DensityMatrix:
    """Reduce the single state ``rho`` to the subsystems in ``keep`` (original order kept).

    ``qubit_dims`` lists the local dimension of every subsystem in order;
    their product must equal ``rho.dim``.  ``keep`` must be a non-empty
    proper subset of subsystem indices.  A factor ``V`` that ``rho`` was
    built from is carried over with the traced subsystems folded into its
    columns, while it has no more columns than rows: the AB reduction of a
    three-qubit pure state gets a 4 x 2 factor.
    """
    if rho.matrix.ndim != 2:
        raise StateError(f"partial trace takes one state, got a stack of shape {rho.matrix.shape}")
    dims = tuple(int(d) for d in qubit_dims)
    if any(d < 1 for d in dims):
        raise StateError(f"subsystem dimensions must be positive, got {dims}")
    if math.prod(dims) != rho.dim:
        raise StateError(
            f"subsystem dimensions {dims} multiply to {math.prod(dims)},"
            f" but the state has dimension {rho.dim}"
        )
    keep_idx = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= len(dims) for i in keep_idx):
        raise StateError(f"keep indices {keep_idx} out of range for {len(dims)} subsystems")
    if not keep_idx or len(keep_idx) == len(dims):
        raise StateError("keep must be a non-empty proper subset of subsystems")
    arr = rho.matrix.reshape(dims + dims)
    current = list(dims)
    traced = sorted(set(range(len(dims))) - set(keep_idx), reverse=True)
    for t in traced:
        arr = np.trace(arr, axis1=t, axis2=t + len(current))
        current.pop(t)
    d_out = math.prod(current)
    factor = rho._factor
    if factor is not None:
        # Tr_B(V V^H) = sum_b V_b V_b^H: the rows of each traced value b become
        # columns of their own
        folded = factor.reshape(dims + factor.shape[-1:]).transpose(keep_idx + traced + [len(dims)])
        factor = folded.reshape(d_out, -1)
        if factor.shape[1] > d_out:
            factor = None
    # a partial trace of a PSD operator is PSD
    return DensityMatrix._lazy(arr.reshape(d_out, d_out), factor=factor)


@dataclass(frozen=True)
class CanonicalThreeQubit:
    """Five-amplitude, one-phase canonical parametrization of a pure three-qubit state.

    Amplitudes sit on |000>, |100> (with the phase), |101>, |110> and
    |111>; the squared amplitudes sum to one.  Each amplitude is a float
    for one point, or an (N,) array for a stack of N points that share
    one phase; the checks then run per point, an error names the first
    point that fails, and indexing gives one point or a sub-stack.
    """

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    theta: float = 0.0

    def __post_init__(self):
        shapes = sorted({np.shape(v) for v in self.lambdas()})
        if len(shapes) != 1 or len(shapes[0]) > 1:
            raise StateError(f"amplitudes must be five floats or five (N,) arrays, got {shapes}")
        if shapes[0]:
            for name in LAMBDA_NAMES:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if np.ndim(self.theta) != 0:
            raise StateError(f"theta must be one phase, got shape {np.shape(self.theta)}")
        # the five amplitudes as one (5,) or (5, N) array: the first failing
        # amplitude is named, then its first failing point
        lam = np.array(self.lambdas(), dtype=np.float64)
        bad = ~(np.isfinite(lam) & (lam >= 0.0))
        if bad.any():
            i = linalg._first(bad.reshape(5, -1).any(axis=1))
            prefix, value = _point(getattr(self, LAMBDA_NAMES[i]), linalg._first(bad[i]))
            raise StateError(f"{prefix}{LAMBDA_NAMES[i]} must be a non-negative real, got {value}")
        if not 0.0 <= self.theta <= math.pi:
            raise StateError(f"theta must lie in [0, pi], got {self.theta}")
        # the pure state's tolerance: every point accepted here builds its state
        dev = abs((lam * lam).sum(axis=0) - 1.0)
        k = linalg._first(dev > PureState.NORM_TOL)
        if k is not None:
            prefix, bad = _point(dev, k)
            raise StateError(
                f"{prefix}squared amplitudes must sum to 1: deviation {bad:.3e},"
                f" tolerance {PureState.NORM_TOL:.1e}"
            )

    def __getitem__(self, k) -> "CanonicalThreeQubit":
        """Point ``k`` of a stack, or the sub-stack at an index array or mask."""
        if np.ndim(self.lambda0) == 0:
            raise StateError("a single canonical point has no points to index")
        return CanonicalThreeQubit(*(per_state(v[k]) for v in self.lambdas()), theta=self.theta)

    def lambdas(self) -> tuple:
        return (self.lambda0, self.lambda1, self.lambda2, self.lambda3, self.lambda4)

    def to_json_dict(self) -> dict:
        return {"lambdas": list(self.lambdas()), "theta": self.theta}


def require_zero_phase(p: CanonicalThreeQubit, what: str):
    """The one precondition of every zero-phase closed form and check."""
    if p.theta != 0.0:
        raise OutOfFamilyError(f"{what} is defined on the zero-phase slice, got theta={p.theta}")


def _point(values, k) -> tuple:
    """Error prefix and value of entry ``k`` of a per-point quantity.

    For a stack that is ``("point k: ", values[k])``; one point has no prefix.
    """
    if np.ndim(values) == 0:
        return "", values
    return f"point {k}: ", values[k]


def canonical_amplitudes(p: CanonicalThreeQubit) -> np.ndarray:
    """Amplitude vector of the canonical form, basis |q_A q_B q_C>; (N, 8) for a stack."""
    amp = np.zeros(np.shape(p.lambda0) + (8,), dtype=np.complex128)
    amp[..., 0] = p.lambda0
    amp[..., 4] = p.lambda1 * complex(math.cos(p.theta), math.sin(p.theta))
    amp[..., 5] = p.lambda2
    amp[..., 6] = p.lambda3
    amp[..., 7] = p.lambda4
    return amp


def canonical_state(p: CanonicalThreeQubit) -> PureState:
    """The canonical form of one point as a validated pure state."""
    return PureState(canonical_amplitudes(p))


@dataclass(frozen=True)
class EnsembleSpec:
    """A reproducible random-state ensemble: kind, seed, size and (Ginibre) rank.

    A Ginibre ensemble without a rank takes the full rank ``TWO_QUBIT_DIM``;
    a Haar ensemble takes no rank.
    """

    kind: str
    seed: int
    count: int
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in ("haar-pure", "ginibre"):
            raise StateError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "haar-pure" and self.rank is not None:
            raise StateError("rank applies to the ginibre ensemble only")
        if not 0 <= self.seed <= MAX_SEED:
            raise StateError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.count < 1:
            raise StateError(f"count must be at least 1, got {self.count}")
        if self.kind == "ginibre":
            rank = TWO_QUBIT_DIM if self.rank is None else self.rank
            if not 1 <= rank <= TWO_QUBIT_DIM:
                raise StateError(f"rank must lie in [1, {TWO_QUBIT_DIM}], got {rank}")
            object.__setattr__(self, "rank", rank)

    def describe(self) -> str:
        if self.kind == "ginibre":
            return f"ginibre(dim={TWO_QUBIT_DIM},rank={self.rank})"
        return f"haar-pure(dim={TWO_QUBIT_DIM})"


# --- chunk seeding ------------------------------------------------------------
#
# Building ``sample_rng(seed, k)`` costs about 20 us, most of an ensemble
# state, but what it computes is cheap arithmetic: numpy's SeedSequence
# mixes the entropy words into a pool of four uint32 words with O'Neill's
# seed_seq hash, draws PCG64's 128-bit seed and stream from the pool, and
# PCG64 takes two steps of its LCG (pcg64_srandom_r; O'Neill, "PCG: A Family
# of Simple Fast Space-Efficient Statistically Good Algorithms for Random
# Number Generation", 2014).  A chunk takes the seed's pool from
# ``SeedSequence(seed)``, mixes each index word into all four pool words as
# one (4, N) uint32 array, and steps the LCG on arrays of uint64 limbs.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# the PCG64 multiplier as uint64 limbs, and its low limb as 32-bit halves
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LOW32, _MULT_LO_HI, _MULT_LO_LO = np.uint64(_MASK32), np.uint64(0x4385DF64), np.uint64(0x9FCCF645)


def _hashmix_rows(values: np.ndarray, const: int, rows: int, mult: int = _MULT_A) -> tuple:
    """``rows`` successive seed_seq hashes of uint32 ``values`` as (rows, N), and the next constant.

    Row i hashes ``values`` (one (N,) array for every row, or a (rows, N) array) with the
    i-th constant.  The constants depend only on the call order, so they are one column.
    """
    consts = [const]
    for _ in range(rows):
        consts.append(consts[-1] * mult & _MASK32)
    c = np.array(consts, dtype=np.uint32)[:, None]
    h = (values ^ c[:-1]) * c[1:]
    return h ^ h >> 16, consts[-1]


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _pcg64_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """The PCG64 words ``sample_rng(seed, k)`` starts from, one uint64 row per sample lo..hi-1.

    A row is in the order the generator holds it: state_lo, state_hi, inc_lo, inc_hi.
    """
    # SeedSequence(seed) fills its pool as sample_rng's does, the seed's words
    # zero-padded to the pool size and each pool word hashed into the others:
    # 16 hashes in all
    const = _INIT_A * _MULT_A**16 & _MASK32
    # then each index word is mixed into every pool word: an index below
    # 2**32 is one word, and the indices from 2**32 on, a tail of the chunk,
    # are two
    k = np.arange(lo, hi, dtype=np.uint64)
    pools = np.random.SeedSequence(seed).pool[:, None].repeat(hi - lo, axis=1)
    for tail, words in ((0, k), (max(0, 2**32 - lo), k >> 32)):
        h, const = _hashmix_rows((words[tail:] & _MASK32).astype(np.uint32), const, 4)
        pools[:, tail:] = _mix(pools[:, tail:], h)
    # generate_state(4, uint64): eight hashed pool words, little-endian pairs
    out = _hashmix_rows(np.tile(pools, (2, 1)), _INIT_B, 8, _MULT_B)[0].astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = out[0::2] | out[1::2] << 32
    # pcg64_srandom_r: inc = stream << 1 | 1; step; state += seed; step.  A
    # limb sum carries where its low limb wraps below an addend
    inc_lo, inc_hi = seq_lo << 1 | 1, seq_hi << 1 | seq_lo >> 63
    s_lo = inc_lo + seed_lo
    s_hi = inc_hi + seed_hi + (s_lo < seed_lo)
    # the high limb of s_lo * _MULT_LO, from products of 32-bit halves
    a0, a1 = s_lo & _LOW32, s_lo >> 32
    p00, p01, p10 = a0 * _MULT_LO_LO, a0 * _MULT_LO_HI, a1 * _MULT_LO_LO
    mid = (p00 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry_hi = a1 * _MULT_LO_HI + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    state_lo = s_lo * _MULT_LO + inc_lo
    state_hi = carry_hi + s_lo * _MULT_HI + s_hi * _MULT_LO + inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _seeding_error(seed: int, k: int, what: str) -> SeedingError:
    where = f"at sample {k} (seed {seed}, numpy {np.__version__})"
    return SeedingError(f"chunk seeding disagrees with the frozen generator {where}: {what}")


def _generator_words(bit_generator, seeded: np.ndarray, seed: int, k: int) -> tuple:
    """A writable view of sample k's fresh PCG64 words, and ``seeded`` in their order.

    The pointer at ``ctypes.state_address`` must lie within 64 bytes after it, inside the bit
    generator, and point at row 0's words, low or high limbs first (numpy's two-limb 128-bit
    type, big-endian hosts); else ``SeedingError``.  The view must not outlive the generator.
    """
    address = bit_generator.ctypes.state_address
    pointer = ctypes.c_void_p.from_address(address).value or 0
    end = min(address + 64, id(bit_generator) + type(bit_generator).__basicsize__)
    if not id(bit_generator) <= address < pointer <= end - 32:
        raise _seeding_error(seed, k, "the PCG64 words lie outside the bit generator")
    words = (ctypes.c_uint64 * 4).from_address(pointer)
    for rows in (seeded[:, order] for order in (slice(None), [1, 0, 3, 2])):
        if list(words) == rows[0].tolist():
            return np.frombuffer(words, dtype=np.uint64), rows
    raise _seeding_error(seed, k, "the generator's PCG64 words are not the chunk's first row")


def _gaussian_rows(seed: int, lo: int, hi: int, size: int) -> np.ndarray:
    """Complex Gaussian vectors of length ``size`` for samples lo..hi-1, one row each.

    Sample k's generator fills the real parts and then the imaginary parts with one
    ``standard_normal(2 * size)`` call.  One generator draws every row, its PCG64 words set
    to each row of ``_pcg64_states`` in turn; the first and last rows must match ``sample_rng``.
    """
    # sample_rng checks the seed and the first index before anything is hashed
    rng = sample_rng(seed, lo)
    if not lo <= hi - 1 <= MAX_SEED:
        raise StateError(f"sample index must be below 2**64 and at least {lo}, got {hi - 1}")
    words, seeded = _generator_words(rng.bit_generator, _pcg64_states(seed, lo, hi), seed, lo)
    first = rng.standard_normal(2 * size)  # the last row's check misses faults confined to row 0
    last = sample_rng(seed, hi - 1).standard_normal(2 * size)
    z = np.empty((hi - lo, 2 * size))
    for row, state in zip(z, seeded):
        words[:] = state
        rng.standard_normal(out=row)
    for k, oracle in ((lo, first), (hi - 1, last)):
        if z[k - lo].tobytes() != oracle.tobytes():
            raise _seeding_error(seed, k, "its row differs from the generator's own draw")
    return z[:, :size] + 1j * z[:, size:]


def _haar_vectors(seed: int, lo: int, hi: int, dim: int) -> np.ndarray:
    v = _gaussian_rows(seed, lo, hi, dim)
    v /= np.sqrt((v.real * v.real + v.imag * v.imag).sum(axis=1))[:, None]
    return v


def ensemble_chunk(kind: str, seed: int, lo: int, hi: int, rank: int) -> DensityMatrix:
    """States lo..hi-1 of the named ensemble as one lazily solved (hi - lo, 4, 4) stack.

    State k is ``V V^H`` for the factor ``V`` it carries, the 4 x r reshape of sample
    k's Haar unit vector: ``G / ||G||_F`` for a rank-r Ginibre draw G (Zyczkowski &
    Sommers, J. Phys. A 34, 7111 (2001)), the state vector for ``haar-pure``, r = 1.
    Row k - lo is bit for bit sample k's own state.  PSD by construction, the stack is
    checked for Hermiticity and trace now and solved on first use of the spectrum.
    An ``EnsembleSpec`` checks ``kind`` and ``rank``.
    """
    r = 1 if kind == "haar-pure" else rank
    v = _haar_vectors(seed, lo, hi, TWO_QUBIT_DIM * r).reshape(-1, TWO_QUBIT_DIM, r)
    m = (v[:, :, None, :] * v.conj()[:, None, :, :]).sum(axis=-1)
    return DensityMatrix._lazy(m, np.arange(lo, hi), v)


def canonical_sample(seed: int, index: int, theta_mode: str = "zero") -> CanonicalThreeQubit:
    """Sample k of the canonical family: squared amplitudes flat on the 4-simplex.

    The flat Dirichlet draw goes through normalized exponentials; theta is
    either pinned to zero or uniform on [0, pi].
    """
    if theta_mode not in ("zero", "uniform"):
        raise StateError(f"theta_mode must be 'zero' or 'uniform', got {theta_mode!r}")
    rng = sample_rng(seed, index)
    e = rng.standard_exponential(5)
    w = e / e.sum()
    lam = np.sqrt(w)
    theta = 0.0 if theta_mode == "zero" else float(rng.uniform(0.0, math.pi))
    return CanonicalThreeQubit(*(float(x) for x in lam), theta=theta)


def werner_state(p: float) -> DensityMatrix:
    """Bell state mixed with white noise: p |phi+><phi+| + (1-p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise StateError(f"mixing weight must lie in [0, 1], got {p}")
    bell = np.zeros((4, 4), dtype=np.complex128)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    return DensityMatrix(p * bell + (1.0 - p) * np.eye(4) / 4.0)


# --- amplitude-list text format --------------------------------------------
#
# A canonical point given as text is a comma-separated list of its
# amplitudes: five values, or four whose fifth is completed from
# normalization (also asked for by ``auto`` as the fifth value).


def parse_lambdas(text: str, theta: float = 0.0) -> CanonicalThreeQubit:
    """The canonical point that an amplitude list names.

    Four values, or ``auto`` as the fifth, complete lambda4 from
    normalization; five numbers are taken as given.  Squared amplitudes
    that sum to 1 within 1e-8 are renormalized exactly.
    """
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) not in (4, 5):
        raise StateError(f"amplitude list needs 4 or 5 comma-separated values, got {len(parts)}")
    if len(parts) == 5 and parts[4] == "auto":
        parts = parts[:4]
    try:
        values = [float(piece) for piece in parts]
    except ValueError as exc:
        raise StateError(f"amplitude list contains a non-numeric value: {exc}") from exc
    if any(v < 0.0 for v in values):
        raise StateError(f"amplitudes must be non-negative, got {values}")
    if len(values) == 4:
        radicand = 1.0 - sum(v * v for v in values)
        if radicand < -1e-8:
            raise StateError(
                f"cannot complete lambda4: squared amplitudes already sum to {1.0 - radicand:.12f}"
            )
        values.append(math.sqrt(max(radicand, 0.0)))
    total = sum(v * v for v in values)
    deviation = abs(total - 1.0)
    if deviation > 1e-8:
        raise StateError(f"squared amplitudes must sum to 1 within 1e-8, deviation {deviation:.3e}")
    scale = math.sqrt(total)
    return CanonicalThreeQubit(*(v / scale for v in values), theta=theta)


# --- density-matrix file format -------------------------------------------
#
# A density matrix on disk is a JSON object {"dim": d, "re": [...],
# "im": [...]} with an integer d and row-major real and imaginary parts:
# arrays of d*d JSON numbers.


def density_matrix_from_json_dict(obj) -> DensityMatrix:
    """Read the JSON wire format; ``DensityMatrix`` then checks the state it holds."""
    if not isinstance(obj, dict):
        raise StateError("density-matrix JSON must be an object")
    try:
        dim, parts = obj["dim"], (obj["re"], obj["im"])
    except KeyError as exc:
        raise StateError(f"density-matrix JSON is missing the key {exc}") from exc
    if type(dim) is not int:  # a JSON integer: no float, string or bool
        raise StateError(f"density-matrix JSON needs an integer dim, got {dim!r}")
    if dim < 1 or any(type(p) is not list or len(p) != dim * dim for p in parts):
        lengths = [len(p) if type(p) is list else type(p).__name__ for p in parts]
        raise StateError(
            f"density-matrix JSON needs re/im arrays of length dim^2={dim * dim}, got {lengths}"
        )
    for x in parts[0] + parts[1]:
        if type(x) not in (int, float):  # a JSON number: no string, bool or null
            raise StateError(f"density-matrix JSON needs numbers in re/im, got {x!r}")
    try:
        re, im = np.array(parts, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise StateError(f"density-matrix JSON holds a number too large: {exc}") from exc
    return DensityMatrix((re + 1j * im).reshape(dim, dim))


def read_density_matrix(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StateError(f"density-matrix file is not valid JSON: {exc}") from exc
    return density_matrix_from_json_dict(obj)
