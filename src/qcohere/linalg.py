"""Dense complex linear algebra for small operators (dimension <= 8).

All routines work on plain ``numpy`` arrays of ``complex128``, either one
matrix or an ``(N, n, n)`` stack of them; a function given a stack returns
one result per matrix.  They are kernels that check nothing: every caller
hands them a matrix that ``states.DensityMatrix`` has checked, or one that
is exactly Hermitian by construction.  The eigensolver is a cyclic Jacobi
iteration for Hermitian matrices, vectorised over the stack, so an ensemble
chunk costs one call and a single matrix is a stack of one.  It computes
eigenvalues only: nothing in the package reads an eigenvector.  A positive
semidefinite matrix gets a factor V with A = V V^H from a pivoted Cholesky
instead.  Nothing here depends on an external eigenvalue backend, and each
matrix's result is bit-identical whatever stack it was computed in, signed
zeros included.
"""

import functools
from typing import NamedTuple

import numpy as np

# Jacobi sweeps stop once no off-diagonal modulus exceeds this times the
# matrix's Frobenius norm, so the accuracy is the same at every scale.  A
# matrix still above it after MAX_SWEEPS full sweeps raises ConvergenceError:
# 4x4 inputs converge in a handful of sweeps, so hitting the cap is a fault.
OFF_DIAGONAL_TARGET = 1e-13
MAX_SWEEPS = 100

# Eigenvalues in [-PSD_CLAMP, 0) are rounding noise and are treated as
# exact zeros wherever positive semidefiniteness is consumed.  Anything
# below -PSD_CLAMP is a hard error: it signals a wrongly built operator,
# not floating-point dust.
PSD_CLAMP = 1e-10

# Spectrum entries below RESOLUTION_FLOOR relative to the largest one
# are beneath the solver's resolution.  Square roots amplify that noise
# (1e-16 becomes 1e-8), so PSD consumers floor such entries to exact zero.
RESOLUTION_FLOOR = 1e-13


class NotPsdError(ValueError):
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
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _first(flags: np.ndarray):
    """Position of the first true entry of a 0-d or 1-d mask, or None."""
    if not np.asarray(flags).any():
        return None
    return int(np.flatnonzero(flags)[0])


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


class _Round(NamedTuple):
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
def _upper_triangle(n: int):
    """Positions of the entries above the diagonal in an n x n matrix flattened to n*n."""
    return _indexer([row * n + col for row in range(n) for col in range(row + 1, n)])


# sigma times a complex z is re*z + im*(-z.imag, z.real): im carries these signs
_IM_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def _rotate(w: np.ndarray, n: int, r: _Round, target: np.ndarray, gathered, product, out) -> None:
    """One round of Jacobi rotations applied in place to every matrix of the stack ``w``.

    ``w`` has shape (2, n, n, N): the real and imaginary parts of the
    matrices, with the stack axis last.  ``target`` (N,) is each matrix's
    convergence target.  Each pair (p, q) with |a_pq| above its matrix's
    target gets the unitary U = [[c, -sigma], [conj(sigma), c]] on rows and
    columns p, q, with tau = (a_pp - a_qq) / 2|a_pq|, t = sign(tau) / (|tau|
    + sqrt(1 + tau^2)), c = 1 / sqrt(1 + t^2) and sigma = t c a_pq / |a_pq|;
    then A <- U^H A U annihilates a_pq.  U itself is not kept.  Smaller
    pairs get the identity (t = 0), so every matrix follows its own
    trajectory whatever the rest of the stack does.  Only + - * / and sqrt
    are used, each correctly rounded elementwise, which is what makes a
    matrix's result independent of the stack it sits in.

    ``gathered``, ``product`` and ``out`` are work buffers of ``w``'s shape:
    the partners of an index round, one product and the column update, which
    the row update reads back into ``w``.
    """
    flat = w.reshape(2, n * n, -1)
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
    # columns: x <- c x + conj(sigma) y, y <- c y - sigma x
    # a slice round reads its partners through a view; an index round gathers
    # them (its indices are in range: clip only skips take's buffered check)
    view = isinstance(r.partner, slice)
    y = w[:, :, r.partner] if view else np.take(w, r.partner, 2, gathered, "clip")
    np.multiply(c, w, out=out)
    out += np.multiply(re, y, out=product)
    out += np.multiply(im[:, None], y[::-1], out=product)
    # rows: x <- c x + sigma y, y <- c y - conj(sigma) x
    y = out[:, r.partner] if view else np.take(out, r.partner, 1, gathered, "clip")
    np.multiply(c[:, None], out, out=w)
    w += np.multiply(re[:, None], y, out=product)
    w -= np.multiply(im[:, :, None], y[::-1], out=product)
    # the rotated pairs are zero by construction; store them exactly
    inactive = ~active
    flat[:, r.pq] *= inactive
    flat[:, r.qp] *= inactive


# Once at most 1/_STRAGGLER_SHARE of a stack is unconverged at a sweep's
# start, the rest of the solve sweeps those matrices alone.
_STRAGGLER_SHARE = 8


def _jacobi_stack(m: np.ndarray) -> np.ndarray:
    """Cyclic Jacobi eigenvalues of an (N, n, n) Hermitian stack, unsorted, as (N, n).

    The work array is (2, n, n, N): real and imaginary parts of the matrices
    alone, since no eigenvector is accumulated.  An odd n is padded with a
    zero row and column, whose pairs are never rotated.  The sweeps stop
    once no matrix has an off-diagonal modulus above its target,
    OFF_DIAGONAL_TARGET times its Frobenius norm; ConvergenceError is raised
    if one still has after MAX_SWEEPS sweeps.  The rotations write into
    three work buffers of the stack's size, allocated once per solve.  At
    the first sweep where at most 1/_STRAGGLER_SHARE of the stack is still
    unconverged, those matrices are copied out and swept alone, then copied
    back.  Every other matrix of the swept stack runs to its last sweep: a
    converged one gets identity rotations, which keep its values but may
    turn a -0.0 into +0.0, so the eigenvalues' zeros are made +0.0.
    """
    count, n = m.shape[0], m.shape[-1]
    # each matrix's squares are summed along one contiguous row of n*n, so
    # its target does not depend on the stack it sits in
    squares = (m.real * m.real + m.imag * m.imag).reshape(count, n * n)
    target = OFF_DIAGONAL_TARGET * np.sqrt(squares.sum(axis=1))
    size = n + n % 2
    w = np.zeros((2, size, size, count))
    w[0, :n, :n] = m.real.transpose(1, 2, 0)
    w[1, :n, :n] = m.imag.transpose(1, 2, 0)
    whole, rows = w, None
    buffers = np.empty((3,) + w.shape)
    upper = _upper_triangle(size)
    for sweep in range(MAX_SWEEPS + 1):
        off = w.reshape(2, size * size, -1)[:, upper]
        off = np.sqrt((off * off).sum(axis=0)).max(axis=0, initial=0.0)
        unconverged = off > target
        left = np.count_nonzero(unconverged)
        if not left:
            break
        if sweep == MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps:"
                f" {left} of {count} matrices unconverged, the largest off-diagonal modulus"
                f" among them {off[unconverged].max():.3e}, target {OFF_DIAGONAL_TARGET:.1e} x Frobenius norm"
            )
        if rows is None and _STRAGGLER_SHARE * left <= count:
            # a converged matrix only gets identity rotations from here on
            rows = np.flatnonzero(unconverged)
            w, target = np.take(w, rows, axis=3), target[rows]
            buffers = np.empty((3,) + w.shape)
        for r in _pair_rounds(size):
            _rotate(w, size, r, target, *buffers)
    if rows is not None:
        whole[..., rows] = w
    return whole[0].diagonal()[:, :n] + 0.0


def hermitian_eigen(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, (n,), or of an (N, n, n) stack, (N, n).

    The stack is solved in one vectorised cyclic Jacobi pass; a single
    matrix is a stack of one.  No eigenvectors are computed.  The input must
    be finite, square and Hermitian within ``DensityMatrix.HERMITIAN_TOL``.
    """
    values = np.sort(_jacobi_stack(a.reshape((-1,) + a.shape[-2:])), axis=-1)
    return values[0] if a.ndim == 2 else values


def pivoted_cholesky(a) -> np.ndarray:
    """A factor V with A = V V^H of a PSD matrix, (n, n), or of an (N, n, n) stack.

    Outer-product Cholesky with complete pivoting (Higham, "Analysis of the
    Cholesky decomposition of a semi-definite matrix", 1990), vectorised
    over the stack.  Step k takes each matrix's largest remaining diagonal
    entry d_p as its pivot: column k of V is column p over sqrt(d_p), whose
    outer product is subtracted, and row and column p are zeroed.  A matrix
    stops, its remaining columns zero, once d_p is below RESOLUTION_FLOOR
    times its trace.  Only + - * / and sqrt on real and imaginary parts are
    used, so a matrix's factor does not depend on its stack.  The input is
    not checked; ``DensityMatrix.factor`` checks its positivity first.
    """
    stack = a.reshape((-1,) + a.shape[-2:])
    n = stack.shape[-1]
    re, im = stack.real.copy(), stack.imag.copy()
    diagonal, rows = np.arange(n), np.arange(len(stack))
    # a zero matrix, of trace 0, stops at once
    floor = RESOLUTION_FLOOR * np.maximum(re[:, diagonal, diagonal].sum(axis=-1), 0.0)
    v = np.zeros(stack.shape, dtype=np.complex128)
    for k in range(n):
        p = re[:, diagonal, diagonal].argmax(axis=-1)
        active = re[rows, p, p] > floor
        s = np.sqrt(np.where(active, re[rows, p, p], 1.0))[:, None]
        l_re = np.where(active[:, None], re[rows, :, p] / s, 0.0)
        l_im = np.where(active[:, None], im[rows, :, p] / s, 0.0)
        v.real[:, :, k], v.imag[:, :, k] = l_re, l_im
        # A <- A - l l^H, with (l l^H)_ij = l_i conj(l_j)
        re -= l_re[:, :, None] * l_re[:, None, :] + l_im[:, :, None] * l_im[:, None, :]
        im -= l_im[:, :, None] * l_re[:, None, :] - l_re[:, :, None] * l_im[:, None, :]
        re[rows, p], re[rows, :, p], im[rows, p], im[rows, :, p] = 0.0, 0.0, 0.0, 0.0
    return v[0] if a.ndim == 2 else v


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
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms
