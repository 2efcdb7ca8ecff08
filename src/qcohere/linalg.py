"""Dense complex linear algebra for small operators (dimension <= 8).

The kernels take one ``complex128`` matrix or an (N, m, n) stack, and give
one result per matrix, bit-identical whatever stack it was computed in.
They check nothing: their input comes from a state ``DensityMatrix`` has
checked.  The one solver is a one-sided Jacobi iteration that returns
singular values.  It forms no product such as A^H A, so a small singular
value keeps an absolute error near u ||A|| (u = 2^-53) instead of being
squared into the noise.  A state's spectrum is the squared singular values
of a factor V with rho = V V^H; ``pivoted_cholesky`` gives one.
"""

import functools

import numpy as np

# A column pair x, y is orthogonal once |x^H y| is at most this times
# |x| |y|, near the rounding of x^H y itself, at every scale.  A solve still
# unconverged after MAX_SWEEPS sweeps raises ConvergenceError: 4x4 inputs
# converge in a handful, so hitting the cap is a fault.
OFF_DIAGONAL_TARGET = 1e-15
MAX_SWEEPS = 100

# Eigenvalues in [-PSD_CLAMP, 0) are rounding noise, taken as exact zeros;
# anything lower signals a wrongly built operator, and is an error.
PSD_CLAMP = 1e-10

# A pivoted Cholesky stops at pivots below this times the trace: rounding noise.
RESOLUTION_FLOOR = 1e-13


class NotPsdError(ValueError):
    """An eigenvalue is below -PSD_CLAMP; ``index`` is its spectrum's position in a stack, or None."""

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


@functools.cache
def _column_orders(n: int) -> tuple:
    """The rounds of a sweep over n columns, as orders to store the columns in.

    A round of k pairs pairs positions j and k + j of its order, so each
    side of its pairs is a contiguous block.  Round-robin ordering (Golub &
    Van Loan, *Matrix Computations*, 8.5): each pair is in one round; an odd
    n turns with a phantom index n.  Returns the last round's order, which
    a solve starts from, and for each round its order's positions in the
    previous round's.
    """
    ring, orders = list(range(n + n % 2)), []
    for _ in range(len(ring) - 1):
        pairs = [(a, b) for a, b in zip(ring[: len(ring) // 2], ring[::-1]) if max(a, b) < n]
        ring = [ring[0], ring[-1], *ring[1:-1]]
        if pairs:
            order = [a for a, _ in pairs] + [b for _, b in pairs]
            orders.append(order + [c for c in range(n) if c not in order])
    moves = tuple(np.array([a.index(c) for c in b]) for a, b in zip(orders[-1:] + orders, orders))
    return (orders[-1] if orders else list(range(n))), moves


def _fold(a: np.ndarray) -> np.ndarray:
    """The sum over ``a``'s first axis, in an order that numpy's reductions, which
    follow the array's shape, would not keep for every stack."""
    while len(a) > 1:
        head = a[: len(a) // 2] + a[len(a) // 2 : len(a) // 2 * 2]
        if len(a) % 2:
            head[0] += a[-1]
        a = head
    return a[0]


# the planes of -i y are (y_im, -y_re): summed against x's planes they give Im(x^H y)
_SWAP_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def _rotate(w: np.ndarray, alive: np.ndarray, work: np.ndarray) -> np.ndarray:
    """One round of one-sided Jacobi rotations, in place; returns which matrices rotated.

    ``w`` is (n, 2, m, N): the columns of N m x n matrices as real and
    imaginary planes; column j pairs with column k + j.  With gamma = x^H y,
    alpha = |x|^2, beta = |y|^2, a pair of an ``alive`` matrix with |gamma|
    > OFF_DIAGONAL_TARGET sqrt(alpha) sqrt(beta) turns y by gamma's phase,
    y' = y conj(gamma) / |gamma|, and takes the real rotation that makes the
    columns orthogonal: zeta = (beta - alpha) / 2|gamma|, t = sign(zeta) /
    (|zeta| + sqrt(1 + zeta^2)), c = 1 / sqrt(1 + t^2), s = c t,
    x <- c x - s y', y <- s x + c y' (Demmel & Veselic, SIAM J. Matrix Anal.
    Appl. 13(4), 1992).  Other pairs get the identity, the sums go in a
    fixed order, and only elementwise + - * / and sqrt are used, so a matrix
    follows its own trajectory whatever its stack.  ``work`` is (7, k, 2, m, N).
    """
    k = len(work[0])
    x, y = w[:k], w[k : 2 * k]
    products, z, y_turned, term = work[:4], work[4], work[5], work[6]
    np.multiply(y[:, ::-1], _SWAP_SIGNS, out=z)
    for j, (a, b) in enumerate(((x, x), (y, y), (x, y), (x, z))):
        np.multiply(a, b, out=products[j])
    alpha, beta, g_re, g_im = _fold(products.reshape(4, k, -1, w.shape[-1]).transpose(2, 0, 1, 3))
    g = np.sqrt(g_re * g_re + g_im * g_im)
    # sqrt(alpha) sqrt(beta) does not underflow where alpha beta would
    active = (g > OFF_DIAGONAL_TARGET * (np.sqrt(alpha) * np.sqrt(beta))) & alive
    g = np.where(active, g, 1.0)
    zeta = (beta - alpha) / (g + g)
    t = active / (zeta + np.copysign(np.sqrt(1.0 + zeta * zeta), zeta))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s, c = (c * t)[:, None, None], c[:, None, None]
    # y' = (g_re y + g_im z) / g; an inactive pair keeps y
    np.multiply(np.where(active, g_re / g, 1.0)[:, None, None], y, out=y_turned)
    y_turned += np.multiply((g_im / g * active)[:, None, None], z, out=term)
    np.multiply(s, x, out=y)
    y += np.multiply(c, y_turned, out=term)
    x *= c
    x -= np.multiply(s, y_turned, out=term)
    return active.any(axis=0)


def singular_values(a) -> np.ndarray:
    """Descending singular values of an m x n matrix, (n,), or of an (N, m, n) stack, (N, n).

    One-sided (Hestenes) Jacobi, the stack swept at once: column pairs are
    rotated until they are orthogonal, and the values are the column norms.
    A rotation leaves its pair orthogonal, so a matrix has converged once
    the rounds since its last rotation have rotated none of its other
    pairs; it then rotates nothing more, and once a quarter of the stack
    has converged, their values are taken and the rest goes on alone.
    Raises ConvergenceError after MAX_SWEEPS sweeps.  The input must be
    finite; it is not checked.
    """
    stack = a.reshape((-1,) + a.shape[-2:])
    count, m, n = stack.shape
    order, rounds = _column_orders(n)
    w = np.empty((n, 2, m, count))
    for plane, part in enumerate((stack.real, stack.imag)):
        np.take(part.transpose(2, 1, 0), order, axis=0, out=w[:, plane])
    norms, live, work = np.empty((n, count)), np.arange(count), np.empty((7, n // 2, 2, m, count))
    # rounds in a row that each matrix has left with its pairs orthogonal
    quiet = np.zeros(count, dtype=np.intp)
    for step in range(MAX_SWEEPS * len(rounds) + 1):
        alive = quiet < len(rounds)
        if 4 * np.count_nonzero(~alive) >= len(live):
            done = w[..., ~alive].reshape(n, 2 * m, -1)
            norms[:, live[~alive]] = np.sqrt(_fold((done * done).transpose(1, 0, 2)))
            live, w, quiet, alive = live[alive], w[..., alive], quiet[alive], alive[alive]
            work = work[..., : len(live)]
            if not len(live):
                break
        if step == MAX_SWEEPS * len(rounds):
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps: {np.count_nonzero(alive)}"
                f" of {count} matrices unconverged at target |x^H y| <= {OFF_DIAGONAL_TARGET:.1e} |x| |y|"
            )
        if len(rounds) > 1:
            w = w[rounds[step % len(rounds)]]
        quiet = np.where(_rotate(w, alive, work), 1, quiet + 1)
    values = np.sort(norms.T, axis=-1)[:, ::-1]
    return values[0] if a.ndim == 2 else values


def pivoted_cholesky(a) -> np.ndarray:
    """A factor V with A = V V^H of a PSD matrix, (n, n), or of an (N, n, n) stack.

    Outer-product Cholesky with complete pivoting (Higham, 1990), vectorised
    over the stack: step k takes the largest remaining diagonal entry d_p,
    column k of V is column p over sqrt(d_p), its outer product is
    subtracted, and row and column p are zeroed.  A matrix stops, its other
    columns zero, once d_p is below RESOLUTION_FLOOR times its trace.  Only
    + - * / and sqrt are used, on the real and imaginary parts.
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


def induced_one_norm(a):
    """Maximum over columns of the sum of entry moduli, per matrix of a stack."""
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms
