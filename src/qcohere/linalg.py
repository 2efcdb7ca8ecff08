"""Dense complex linear algebra for small operators (dimension <= 8).

All routines work on plain ``numpy`` arrays of ``complex128``, either one
matrix or an ``(N, n, n)`` stack of them; a function given a stack returns
one result per matrix.  The eigensolver is a cyclic Jacobi iteration for
Hermitian matrices, vectorised over the stack, so an ensemble chunk costs
one call and a single matrix is a stack of one.  Nothing here depends on an
external eigenvalue backend, and each matrix's result is bit-identical
whatever stack it was solved in, signed zeros included.
"""

import functools
from dataclasses import dataclass

import numpy as np

# Jacobi sweeps stop once no off-diagonal modulus exceeds this times the
# matrix's Frobenius norm, so the accuracy is the same at every scale.  A
# matrix still above it after MAX_SWEEPS full sweeps raises ConvergenceError:
# 4x4 inputs converge in a handful of sweeps, so hitting the cap is a fault.
OFF_DIAGONAL_TARGET = 1e-13
MAX_SWEEPS = 100

# The solver and the density-matrix checks refuse an entry of A - A^H above this.
HERMITIAN_TOL = 1e-10

# Eigenvalues in [-PSD_CLAMP, 0) are rounding noise and are treated as
# exact zeros wherever positive semidefiniteness is consumed.  Anything
# below -PSD_CLAMP is a hard error: it signals a wrongly built operator,
# not floating-point dust.
PSD_CLAMP = 1e-10

# Spectrum entries below RESOLUTION_FLOOR relative to the largest one
# are beneath the solver's resolution.  Square roots amplify that noise
# (1e-16 becomes 1e-8), so PSD consumers floor such entries to exact zero.
RESOLUTION_FLOOR = 1e-13


class LinalgError(ValueError):
    """Base error for invalid matrix inputs."""


class DimensionError(LinalgError):
    """Shapes do not allow the requested operation."""


class NotHermitianError(LinalgError):
    """Input fails the Hermiticity check."""


class NotPsdError(LinalgError):
    """Input has an eigenvalue below the PSD tolerance.

    ``index`` is the position of the offending spectrum in a stack, or None
    for a single one.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ConvergenceError(RuntimeError):
    """The Jacobi iteration did not converge within MAX_SWEEPS sweeps."""


IDENTITY_2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _as_matrices(a) -> np.ndarray:
    """One matrix or an (N, rows, cols) stack, as finite complex128."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3):
        raise DimensionError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise LinalgError("matrix contains non-finite entries")
    return m


def _first(flags: np.ndarray):
    """Position of the first true entry of a 0-d or 1-d mask, or None."""
    if not np.asarray(flags).any():
        return None
    return int(np.flatnonzero(flags)[0])


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Ascending real eigenvalues and the matching orthonormal eigenvector columns.

    For a stack the arrays carry the stack axis first: ``(N, n)`` and
    ``(N, n, n)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _indexer(seq):
    """``seq`` as a slice when it is an arithmetic progression, else as an index array.

    A slice makes a view, which costs a fraction of a gather; on a stack of
    one that overhead is most of the work.
    """
    step = seq[1] - seq[0] if len(seq) > 1 else 1
    if step and all(b - a == step for a, b in zip(seq, seq[1:])):
        stop = seq[-1] + step
        return slice(seq[0], stop if stop >= 0 else None, step)
    return np.array(seq, dtype=np.intp)


@dataclass(frozen=True)
class _Round:
    """Disjoint pairs (p, q) that cover every index once, rotated together.

    ``partner``, ``slot`` and ``sign`` are per index: its pair partner, the
    position of its pair, and +1 for a p or -1 for a q.  ``pq``, ``qp``,
    ``pp`` and ``qq`` index the matrix flattened to n*n entries.
    """

    partner: object
    slot: np.ndarray
    sign: np.ndarray
    pq: object
    qp: object
    pp: object
    qq: object


@functools.cache
def _pair_rounds(n: int) -> tuple:
    """The n - 1 rounds of a sweep for even n, each pair in exactly one of them.

    This is the round-robin ordering (Golub & Van Loan, *Matrix
    Computations*, section 8.5): index 0 stays put while the others turn one
    place per round.
    """
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = sorted((min(a, b), max(a, b)) for a, b in zip(ring[: n // 2], ring[::-1]))
        ring = [ring[0], ring[-1], *ring[1:-1]]
        partner, slot, sign = [0] * n, [0] * n, [0.0] * n
        for i, (a, b) in enumerate(pairs):
            partner[a], partner[b] = b, a
            slot[a] = slot[b] = i
            sign[a], sign[b] = 1.0, -1.0
        rounds.append(
            _Round(
                partner=_indexer(partner),
                slot=np.array(slot, dtype=np.intp),
                sign=np.array(sign)[:, None],
                pq=_indexer([a * n + b for a, b in pairs]),
                qp=_indexer([b * n + a for a, b in pairs]),
                pp=_indexer([a * (n + 1) for a, _ in pairs]),
                qq=_indexer([b * (n + 1) for _, b in pairs]),
            )
        )
    return tuple(rounds)


@functools.cache
def _upper_triangle(n: int) -> np.ndarray:
    """Positions of the entries above the diagonal in an n x n matrix flattened to n*n."""
    rows, cols = np.triu_indices(n, 1)
    return rows * n + cols


# sigma times a complex z is re*z + im*(-z.imag, z.real): im carries these signs
_IM_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def _rotate(w: np.ndarray, n: int, r: _Round, target: np.ndarray) -> np.ndarray:
    """One round of Jacobi rotations applied to every matrix of the stack ``w``.

    ``w`` has shape (2, 2n, n, N): real and imaginary parts, the matrix in
    rows :n and the accumulated unitary in rows n:, and the stack axis last.
    ``target`` (N,) is each matrix's convergence target.  Each pair (p, q)
    with |a_pq| above its matrix's target gets the unitary U = [[c, -sigma],
    [conj(sigma), c]] on rows and columns p, q, with tau = (a_pp - a_qq) /
    2|a_pq|, t = sign(tau) / (|tau| + sqrt(1 + tau^2)), c = 1 / sqrt(1 +
    t^2) and sigma = t c a_pq / |a_pq|; then A <- U^H A U annihilates a_pq,
    and V <- V U.  Smaller pairs get the identity (t = 0), so every matrix
    follows its own trajectory whatever the rest of the stack does.  Only
    + - * / and sqrt are used, each correctly rounded elementwise, which is
    what makes a matrix's result independent of the stack it sits in.
    Returns the rotated stack.
    """
    flat = w[:, :n].reshape(2, n * n, -1)
    apq = flat[:, r.pq]
    g = np.sqrt((apq * apq).sum(axis=0))
    active = g > target
    g = np.where(active, g, 1.0)
    tau = (flat[0, r.pp] - flat[0, r.qq]) / (g + g)
    t = active / (tau + np.copysign(np.sqrt(1.0 + tau * tau), tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    sigma = (t * c) * (apq / g)
    # per index: c, +-re(sigma) and im(sigma) of its pair, so that each
    # update below is one expression over all columns or rows at once
    c = c[r.slot]
    re = sigma[0][r.slot] * r.sign
    im = (sigma[1] * _IM_SIGNS)[:, r.slot]
    # columns of A and V: x <- c x + conj(sigma) y, y <- c y - sigma x
    y = w[:, :, r.partner]
    w = c * w + re * y + im[:, None] * y[::-1]
    # rows of A: x <- c x + sigma y, y <- c y - conj(sigma) x
    a = w[:, :n]
    y = a[:, r.partner]
    a[...] = c[:, None] * a + re[:, None] * y - im[:, :, None] * y[::-1]
    # the rotated pairs are zero by construction; store them exactly
    inactive = ~active
    flat = a.reshape(2, n * n, -1)
    flat[:, r.pq] *= inactive
    flat[:, r.qp] *= inactive
    return w


def _jacobi_stack(m: np.ndarray):
    """Cyclic Jacobi diagonalisation of an (N, n, n) Hermitian stack.

    Returns (diagonals (N, n), unitaries (N, n, n)) unsorted.  An odd n is
    padded with a zero row and column, whose pairs are never rotated.  The
    sweeps stop once no matrix has an off-diagonal modulus above its target,
    OFF_DIAGONAL_TARGET times its Frobenius norm; ConvergenceError is raised
    if one still has after MAX_SWEEPS sweeps.  Every matrix runs to the last
    sweep: a converged one gets identity rotations, which keep its values
    but may turn a -0.0 into +0.0, so the eigenvalues' zeros are made +0.0.
    """
    count, n = m.shape[0], m.shape[-1]
    # each matrix's squares are summed along one contiguous row of n*n, so
    # its target does not depend on the stack it sits in
    squares = (m.real * m.real + m.imag * m.imag).reshape(count, n * n)
    target = OFF_DIAGONAL_TARGET * np.sqrt(squares.sum(axis=1))
    size = n + n % 2
    w = np.zeros((2, 2 * size, size, count))
    w[0, :n, :n] = m.real.transpose(1, 2, 0)
    w[1, :n, :n] = m.imag.transpose(1, 2, 0)
    w[0, size:] = np.eye(size)[..., None]
    upper = _upper_triangle(size)
    for sweep in range(MAX_SWEEPS + 1):
        off = w[:, :size].reshape(2, size * size, -1)[:, upper]
        off = np.sqrt((off * off).sum(axis=0)).max(axis=0, initial=0.0)
        unconverged = off > target
        if not unconverged.any():
            break
        if sweep == MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps:"
                f" {np.count_nonzero(unconverged)} of {count} matrices unconverged, largest"
                f" off-diagonal modulus {off.max():.3e}, target {OFF_DIAGONAL_TARGET:.1e} x Frobenius norm"
            )
        for r in _pair_rounds(size):
            w = _rotate(w, size, r, target)
    diagonal = np.arange(n)
    values = w[0, diagonal, diagonal].T + 0.0
    vectors = (w[0, size : size + n, :n] + 1j * w[1, size : size + n, :n]).transpose(2, 0, 1)
    return values, vectors


def hermitian_eigen(a) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix or an (N, n, n) stack of them.

    The stack is solved in one vectorised cyclic Jacobi pass; a single
    matrix is a stack of one; a matrix with an entry of A - A^H above
    HERMITIAN_TOL is refused.  Eigenvalues come back ascending; ties keep
    first-computed order (stable sort, no physical meaning attaches to order
    among equals).
    """
    m = _as_matrices(a)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {m.shape}")
    stack = m.reshape((-1,) + m.shape[-2:])
    if stack.size:
        residual = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        k = _first(residual > HERMITIAN_TOL)
        if k is not None:
            which = "matrix" if m.ndim == 2 else f"matrix {k} of the stack"
            raise NotHermitianError(
                f"{which} is not Hermitian: max |A - A^H| entry is {residual[k]:.3e},"
                f" tolerance {HERMITIAN_TOL:.1e}"
            )
    values, vectors = _jacobi_stack(stack)
    order = np.argsort(values, axis=-1, kind="stable")
    rows = np.arange(len(order))[:, None]
    values = values[rows, order]
    vectors = vectors.swapaxes(-1, -2)[rows, order].swapaxes(-1, -2)
    if m.ndim == 2:
        values, vectors = values[0], vectors[0]
    return HermitianEigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def clamp_psd_eigenvalues(w: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Zero out eigenvalues in [-PSD_CLAMP, 0); reject anything lower.

    ``w`` is one spectrum or a stack of them along the first axis; the error
    reports the first offending spectrum and carries its position.
    """
    lowest = w.min(axis=-1)
    k = _first(lowest < -PSD_CLAMP)
    if k is not None:
        raise NotPsdError(
            f"{context} is not positive semidefinite:"
            f" eigenvalue {lowest.flat[k]:.3e} is below -{PSD_CLAMP:.1e}",
            index=None if w.ndim == 1 else k,
        )
    return np.maximum(w, 0.0)


def spectral_floor(w: np.ndarray) -> np.ndarray:
    """Zero out non-negative spectrum entries below the solver resolution.

    Works on one spectrum or a stack of them (last axis); a spectrum with no
    positive entry becomes all zeros.
    """
    wmax = w.max(axis=-1, keepdims=True, initial=0.0)
    return np.where(w < wmax * RESOLUTION_FLOOR, 0.0, w)


def induced_one_norm(a):
    """Maximum over columns of the sum of entry moduli, per matrix of a stack."""
    norms = np.abs(_as_matrices(a)).sum(axis=-2).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms
