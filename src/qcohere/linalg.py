"""Dense complex linear algebra for small operators (dimension <= 8).

All routines work on plain ``numpy`` arrays of ``complex128``.  The
eigensolver is a cyclic Jacobi iteration specialised for Hermitian
matrices; at these sizes robustness and bitwise reproducibility matter
more than asymptotic speed, so nothing here depends on an external
eigenvalue backend.
"""

import math
from dataclasses import dataclass

import numpy as np

# Jacobi sweeps stop once every off-diagonal modulus is below this.  A
# matrix still above it after MAX_SWEEPS full sweeps raises ConvergenceError:
# 4x4 inputs converge in a handful of sweeps, so hitting the cap is a fault.
OFF_DIAGONAL_TARGET = 1e-13
MAX_SWEEPS = 100

# Eigenvalues in [-PSD_CLAMP, 0) are rounding noise and are treated as
# exact zeros wherever positive semidefiniteness is consumed.  Anything
# below -PSD_CLAMP is a hard error: it signals a wrongly built operator,
# not floating-point dust.
PSD_CLAMP = 1e-10

# Spectrum entries below OFF_DIAGONAL_TARGET relative to the largest one
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
    """Input has an eigenvalue below the PSD tolerance."""


class ConvergenceError(RuntimeError):
    """The Jacobi iteration did not converge within MAX_SWEEPS sweeps."""


IDENTITY_2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class PauliSet:
    """The single-qubit operator basis used to build composite observables."""

    identity: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_z: np.ndarray


PAULI = PauliSet(IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise LinalgError("matrix contains non-finite entries")
    return m


def _as_square(a) -> np.ndarray:
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Ascending real eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _jacobi(m: np.ndarray):
    """Cyclic Jacobi diagonalisation of a Hermitian matrix.

    Works on nested Python lists: for the 2/4/8-dimensional operators
    handled here, scalar loops beat vectorised updates by a wide margin.
    Returns (diagonal entries, accumulated unitary) unsorted; raises
    ConvergenceError when MAX_SWEEPS sweeps leave an off-diagonal entry
    above OFF_DIAGONAL_TARGET.
    """
    n = m.shape[0]
    a = [list(row) for row in m.tolist()]
    v = [[1.0 + 0.0j if i == j else 0.0j for j in range(n)] for i in range(n)]
    for sweep in range(MAX_SWEEPS + 1):
        off = 0.0
        for p in range(n - 1):
            row = a[p]
            for q in range(p + 1, n):
                g = abs(row[q])
                if g > off:
                    off = g
        if off < OFF_DIAGONAL_TARGET:
            break
        if sweep == MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps:"
                f" largest off-diagonal modulus {off:.3e},"
                f" target {OFF_DIAGONAL_TARGET:.1e}"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                g = abs(apq)
                if g < OFF_DIAGONAL_TARGET:
                    continue
                phase = apq / g
                pbar = phase.conjugate()
                app = a[p][p].real
                aqq = a[q][q].real
                th = 0.5 * math.atan2(2.0 * g, app - aqq)
                c = math.cos(th)
                s = math.sin(th)
                spb = s * pbar
                cpb = c * pbar
                # A <- A.U with the unitary U supported on rows/cols p, q
                for i in range(n):
                    ai = a[i]
                    aip = ai[p]
                    aiq = ai[q]
                    ai[p] = c * aip + spb * aiq
                    ai[q] = cpb * aiq - s * aip
                # A <- U^H.A
                sph = s * phase
                cph = c * phase
                ap = a[p]
                aq = a[q]
                for j in range(n):
                    bpj = ap[j]
                    bqj = aq[j]
                    ap[j] = c * bpj + sph * bqj
                    aq[j] = cph * bqj - s * bpj
                ap[q] = 0.0j
                aq[p] = 0.0j
                # V <- V.U
                for i in range(n):
                    vi = v[i]
                    vip = vi[p]
                    viq = vi[q]
                    vi[p] = c * vip + spb * viq
                    vi[q] = cpb * viq - s * vip
    return [a[i][i].real for i in range(n)], v


def hermitian_eigen(a, tol: float = 1e-10) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix via cyclic Jacobi rotations.

    Eigenvalues come back ascending; ties keep first-computed order
    (stable sort, no physical meaning attaches to order among equals).
    """
    m = _as_square(a)
    residual = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if residual > tol:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |A - A^H| entry is {residual:.3e},"
            f" tolerance {tol:.1e}"
        )
    diag, vecs = _jacobi(m)
    order = sorted(range(len(diag)), key=diag.__getitem__)
    w = np.array([diag[i] for i in order], dtype=np.float64)
    v = np.array(vecs, dtype=np.complex128)[:, order]
    return HermitianEigenDecomposition(eigenvalues=w, eigenvectors=v)


def clamp_psd_eigenvalues(w: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Zero out eigenvalues in [-PSD_CLAMP, 0); reject anything lower."""
    wmin = float(w.min())
    if wmin < -PSD_CLAMP:
        raise NotPsdError(
            f"{context} is not positive semidefinite:"
            f" eigenvalue {wmin:.3e} is below -{PSD_CLAMP:.1e}"
        )
    return np.maximum(w, 0.0)


def spectral_floor(w: np.ndarray) -> np.ndarray:
    """Zero out non-negative spectrum entries below the solver resolution."""
    wmax = float(w.max(initial=0.0))
    if wmax <= 0.0:
        return np.zeros_like(w)
    out = w.copy()
    out[out < wmax * RESOLUTION_FLOOR] = 0.0
    return out


def induced_one_norm(a) -> float:
    """Maximum over columns of the sum of entry moduli."""
    m = _as_matrix(a)
    return float(np.abs(m).sum(axis=0).max())
