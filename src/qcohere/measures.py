"""Coherence, concurrence and tangle evaluators.

The two-qubit measures and the inequality chain take a ``DensityMatrix``
holding one state or an (N, 4, 4) stack: a state gives floats, a stack one
value per state, computed once over the whole stack.

The concurrence never forms sqrt(rho).  For a state rho = V V^H with a d x r
factor V (``DensityMatrix.factor``) the Wootters lambda_i are the singular
values of the r x r complex-symmetric tau matrix T = V^T (sigma_y x sigma_y) V
(Wootters, PRL 80, 2245 (1998)).  They come from one solve of T^H T for the
whole stack: r x r for an ensemble state, whose V is the 4 x r reshape of a Haar unit
vector, and 2 x 2 for the reductions of a three-qubit pure state.  A pure state (r = 1)
needs no solve: C = |psi^T (sigma_y x sigma_y) psi| (Hill & Wootters, PRL 78, 5022 (1997)).

Two routes exist for the canonical three-qubit family: closed forms in
the amplitudes (valid on the zero-phase slice, except the tangle which
holds for any phase) and a matrix route that builds the state, reduces
it and evaluates the general definitions.  The two are kept independent
so each can audit the other.  The closed forms are plain arithmetic on
the amplitudes, so they give floats for one point and arrays for a
stack of points.
"""

import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import linalg
from .states import (
    CanonicalThreeQubit,
    DensityMatrix,
    PureState,
    _point,
    canonical_state,
    partial_trace,
    per_state,
    require_zero_phase,
)

# Slack applied to every inequality verdict in the chain report, and the
# band inside which a slightly negative tangle residual is treated as zero.
LINK_TOL = 1e-9
TANGLE_CLAMP = 1e-8

# The chain's end-to-end link, C <= C_l1: the paper's Theorem 1.
END_TO_END_LINK = "concurrence_le_l1_coherence"


class MeasureError(ValueError):
    pass


class NumericalInconsistencyError(RuntimeError):
    """Two routes to the same quantity disagree beyond their noise band: a fault, not an input."""


def l1_coherence(rho: DensityMatrix):
    """Sum of |rho_ij| over all ordered pairs i != j (each unordered pair counts twice)."""
    m = rho.matrix
    diagonal = np.abs(np.diagonal(m, axis1=-2, axis2=-1)).sum(axis=-1)
    return per_state(np.abs(m).sum(axis=(-2, -1)) - diagonal)


def _tau(v: np.ndarray) -> np.ndarray:
    """T = V^T (sigma_y x sigma_y) V for a 4 x r factor V, or an (N, 4, r) stack.

    sigma_y x sigma_y is the anti-diagonal -1, 1, 1, -1: V^T's columns reversed
    and signed.  The + 0.0 turns -0.0 into +0.0, so T has the dense product's bits.
    """
    return (v.swapaxes(-1, -2)[..., ::-1] * np.array([-1.0, 1.0, 1.0, -1.0]) + 0.0) @ v


def _spin_flip_roots(rho: DensityMatrix) -> np.ndarray:
    """The four descending square roots of the eigenvalues of rho.rho~.

    For ``rho = V V^H`` with V d x r (``rho.factor``) they are the singular
    values of the r x r complex-symmetric matrix T = V^T (sigma_y x sigma_y) V,
    the tau matrix of Wootters, PRL 80, 2245 (1998), padded with zeros
    when r < 4.  They come from the Hermitian spectrum of T^H T; a rank-1
    T is its own singular value, |psi^T (sigma_y x sigma_y) psi| for a pure
    state (Hill & Wootters, PRL 78, 5022 (1997)), and needs no solve.
    """
    t = _tau(rho.factor)
    if t.shape[-1] == 1:
        roots = np.abs(t[..., 0])
    else:
        m = t.conj().swapaxes(-1, -2) @ t
        m = 0.5 * (m + m.conj().swapaxes(-1, -2))
        w = linalg.hermitian_eigen(m)
        w = linalg.clamp_psd_eigenvalues(w, context="spin-flip product spectrum")
        roots = np.sqrt(linalg.spectral_floor(w))[..., ::-1]
    pad = np.zeros(roots.shape[:-1] + (4 - roots.shape[-1],))
    return np.concatenate([roots, pad], axis=-1)


def _wootters(roots: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3])


def concurrence(rho: DensityMatrix):
    """Two-qubit concurrence lambda_1 - lambda_2 - lambda_3 - lambda_4, floored at 0 (Wootters)."""
    if rho.dim != 4:
        raise MeasureError(f"concurrence is defined for two qubits (dim 4), got dim {rho.dim}")
    return per_state(_wootters(_spin_flip_roots(rho)))


class LinkVerdict(NamedTuple):
    """A link's margin and whether it holds: scalars, or arrays over a stack."""

    holds: bool
    margin: float


def _verdict(margin) -> LinkVerdict:
    return LinkVerdict(holds=margin >= -LINK_TOL, margin=margin)


class ChainReport(NamedTuple):
    """Every quantity in the concurrence-vs-coherence inequality chain.

    Intermediate links are reported, never asserted: the literal
    trace-of-square reading of the middle bound fails on easy diagonal
    states and the one-norm bound has two inequivalent readings, so each
    link carries its own margin and the chain is judged end to end.
    """

    concurrence: float
    sqrt_lambda_max: float
    smax_product: float
    frobenius_product: float
    trace_sq_product: float
    candidate_one_norms: dict
    l1_coherence: float
    links: dict

    @property
    def end_to_end(self) -> LinkVerdict:
        return self.links[END_TO_END_LINK]


def inequality_chain(rho: DensityMatrix) -> ChainReport:
    """Evaluate the full chain of bounds linking concurrence to l1-coherence.

    Only the tau product T^H T needs a solve of its own; the spectral norms
    are read off the spectrum ``w`` that ``rho`` already caches, and Tr(rho^2),
    the induced one-norm and the l1-coherence off the entries.  For a stack
    every value and margin is an array over its states.  For PSD ``rho`` the
    singular values are the eigenvalues, so ``smax = lambda_max``,
    ``trace_norm = sum(w)`` and ``frobenius = sqrt(sum(w^2))``.  The spin
    flip ``(sigma_y x sigma_y) rho* (sigma_y x sigma_y)`` is a unitary
    conjugation of ``rho*``, whose spectrum is that of ``rho``, so
    ``smax_flip = smax`` (Wootters, PRL 80, 2245 (1998)).
    """
    if rho.dim != 4:
        raise MeasureError(f"the inequality chain is defined for dim 4, got dim {rho.dim}")
    roots = _spin_flip_roots(rho)
    conc = per_state(_wootters(roots))
    sqrt_lmax = per_state(roots[..., 0])
    w = rho.eigenvalues
    smax = smax_flip = per_state(w[..., -1])
    trace_norm = per_state(w.sum(axis=-1))
    frobenius = per_state(np.sqrt((w * w).sum(axis=-1)))
    trace_of_square = rho.purity()
    induced_one = linalg.induced_one_norm(rho.matrix)
    l1 = l1_coherence(rho)
    smax_product = smax * smax_flip
    frobenius_product = frobenius * smax_flip
    trace_sq_product = trace_of_square * smax_flip
    links = {
        "concurrence_le_sqrt_lambda_max": _verdict(sqrt_lmax - conc),
        "sqrt_lambda_max_le_smax_product": _verdict(smax_product - sqrt_lmax),
        "smax_le_trace_of_square": _verdict(trace_of_square - smax),
        "smax_le_frobenius": _verdict(frobenius - smax),
        "frobenius_le_trace_norm": _verdict(trace_norm - frobenius),
        "concurrence_le_trace_sq_product": _verdict(trace_sq_product - conc),
        "concurrence_le_frobenius_product": _verdict(frobenius_product - conc),
        "trace_norm_le_l1_coherence": _verdict(l1 - trace_norm),
        "induced_one_le_l1_coherence": _verdict(l1 - induced_one),
        "smax_flip_le_one": _verdict(1.0 - smax_flip),
        "concurrence_le_l1_times_smax_flip": _verdict(l1 * smax_flip - conc),
        END_TO_END_LINK: _verdict(l1 - conc),
    }
    return ChainReport(
        concurrence=conc,
        sqrt_lambda_max=sqrt_lmax,
        smax_product=smax_product,
        frobenius_product=frobenius_product,
        trace_sq_product=trace_sq_product,
        candidate_one_norms={
            "trace_norm": trace_norm,
            "induced_one": induced_one,
        },
        l1_coherence=l1,
        links=links,
    )


# --- canonical three-qubit closed forms -------------------------------------


def partial_concurrences_analytic(p: CanonicalThreeQubit) -> tuple:
    """(C_AB, C_AC) = (2 l0 l3, 2 l0 l2) on the zero-phase slice."""
    require_zero_phase(p, "the partial concurrence")
    return 2.0 * p.lambda0 * p.lambda3, 2.0 * p.lambda0 * p.lambda2


def reduced_coherences_analytic(p: CanonicalThreeQubit) -> tuple:
    """l1-coherences of the AB, AC and A reductions on the zero-phase slice."""
    require_zero_phase(p, "the reduced coherence")
    l0, l1_, l2, l3, l4 = p.lambdas()
    coh_ab = 2.0 * (l0 * l1_ + l0 * l3 + l1_ * l3 + l2 * l4)
    coh_ac = 2.0 * (l0 * l1_ + l0 * l2 + l1_ * l2 + l3 * l4)
    coh_a = 2.0 * l0 * l1_
    return coh_ab, coh_ac, coh_a


def tangle_analytic(p: CanonicalThreeQubit) -> float:
    """Three-tangle of the canonical family, 4 l0^2 l4^2, valid for any phase."""
    return 4.0 * p.lambda0 * p.lambda0 * p.lambda4 * p.lambda4


def _reductions(psi: PureState) -> tuple:
    """The AB and AC reductions of a three-qubit pure state as one stack, and its A reduction.

    All three come from one projector.  The stack carries the 4 x 2 factors
    of its two states: both partial concurrences take two 2 x 2 solves.
    """
    if psi.dim != 8:
        raise MeasureError(f"expected a three-qubit pure state, got dim {psi.dim}")
    rho = psi.density()
    ab, ac, a = (partial_trace(rho, (2, 2, 2), keep) for keep in ((0, 1), (0, 2), (0,)))
    factors = np.stack([ab.factor, ac.factor])
    return DensityMatrix._lazy(np.stack([ab.matrix, ac.matrix]), factor=factors), a


def _cut_concurrence(rho_a: DensityMatrix) -> float:
    """A|(BC) concurrence 2 sqrt(det rho_A) of a three-qubit pure state."""
    a = rho_a.matrix
    det = float((a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real)
    return 2.0 * math.sqrt(max(det, 0.0))


def bipartition_concurrence(psi: PureState) -> float:
    """Concurrence across the A|(BC) cut of a three-qubit pure state."""
    if psi.dim != 8:
        raise MeasureError(f"expected a three-qubit pure state, got dim {psi.dim}")
    return _cut_concurrence(partial_trace(psi.density(), (2, 2, 2), (0,)))


def _ckw_margin(c_cut, c_ab, c_ac):
    """C_A(BC)^2 - C_AB^2 - C_AC^2 (Coffman-Kundu-Wootters) of a three-qubit pure state."""
    return c_cut * c_cut - c_ab * c_ab - c_ac * c_ac


def _monogamy_margin(coh_ab, coh_ac, coh_a):
    """coh_ab^2 + coh_ac^2 - 2 coh_a^2 from the AB, AC and A coherences."""
    return coh_ab * coh_ab + coh_ac * coh_ac - 2.0 * coh_a * coh_a


def _tangle(c_cut: float, c_ab: float, c_ac: float) -> float:
    """The CKW margin of a three-qubit pure state, which is its tangle.

    Values in [-TANGLE_CLAMP, 0) are rounding noise and collapse to zero;
    lower values mean an inconsistent construction.
    """
    t = _ckw_margin(c_cut, c_ab, c_ac)
    if t < -TANGLE_CLAMP:
        raise NumericalInconsistencyError(
            f"tangle residual {t:.3e} is below -{TANGLE_CLAMP:.1e}"
        )
    return max(t, 0.0)


def tangle_residual(psi: PureState) -> float:
    """Residual three-way entanglement C_A(BC)^2 - C_AB^2 - C_AC^2.

    Both partial concurrences come from one stack of the tau matrices of
    the numerically reduced states, whose factors are the state vector
    folded to 4 x 2.
    """
    pair, rho_a = _reductions(psi)
    return _tangle(_cut_concurrence(rho_a), *concurrence(pair).tolist())


@dataclass(frozen=True)
class CanonicalMeasures:
    """Partial concurrences, reduced coherences and tangle of one canonical point.

    For a stack of points every field is an (N,) array.
    """

    c_ab: float
    c_ac: float
    coh_ab: float
    coh_ac: float
    coh_a: float
    tangle: float

    def __post_init__(self):
        for name in CANONICAL_KEYS:
            value = getattr(self, name)
            k = linalg._first(value < 0.0)
            if k is not None:
                prefix, bad = _point(value, k)
                raise MeasureError(f"{prefix}{name} must be non-negative, got {bad}")
        k = linalg._first(self.tangle > 1.0 + 1e-10)
        if k is not None:
            prefix, bad = _point(self.tangle, k)
            raise MeasureError(f"{prefix}tangle exceeds 1: {bad}")

    def to_json_dict(self) -> dict:
        return asdict(self)


# The six canonical measures, in their serialized order.
CANONICAL_KEYS = tuple(f.name for f in fields(CanonicalMeasures))


def canonical_measures_analytic(p: CanonicalThreeQubit) -> CanonicalMeasures:
    """Closed-form canonical measures (zero-phase slice)."""
    c_ab, c_ac = partial_concurrences_analytic(p)
    coh_ab, coh_ac, coh_a = reduced_coherences_analytic(p)
    return CanonicalMeasures(c_ab, c_ac, coh_ab, coh_ac, coh_a, tangle_analytic(p))


def canonical_report(p: CanonicalThreeQubit) -> dict:
    """One canonical point by both routes, with their residuals, as a JSON object.

    ``matrix`` holds the six measures from the matrix route (any phase) and,
    beside them, the A|(BC) concurrence, the CKW and coherence-monogamy
    margins and the purities of the reductions, all from one projector and
    one set of reductions.  ``analytic`` holds the closed forms; off the
    zero-phase slice only the tangle has one, and the other five are None.
    ``residuals`` holds |analytic - matrix| for every closed form there is.
    """
    pair, rho_a = _reductions(canonical_state(p))
    c_ab, c_ac = concurrence(pair).tolist()
    coh_ab, coh_ac = l1_coherence(pair).tolist()
    cut = _cut_concurrence(rho_a)
    m = CanonicalMeasures(c_ab, c_ac, coh_ab, coh_ac, l1_coherence(rho_a), _tangle(cut, c_ab, c_ac))
    matrix = {
        **m.to_json_dict(),
        "bipartition_concurrence": cut,
        "ckw_margin": _ckw_margin(cut, m.c_ab, m.c_ac),
        "monogamy_margin": _monogamy_margin(m.coh_ab, m.coh_ac, m.coh_a),
        "purity_ab": pair[0].purity(),
        "purity_ac": pair[1].purity(),
        "purity_a": rho_a.purity(),
    }
    if p.theta == 0.0:
        analytic = canonical_measures_analytic(p).to_json_dict()
    else:
        analytic = dict.fromkeys(CANONICAL_KEYS)
        analytic["tangle"] = tangle_analytic(p)
    return {
        "params": p.to_json_dict(),
        "matrix": matrix,
        "analytic": analytic,
        "residuals": {
            key: abs(analytic[key] - matrix[key])
            for key in CANONICAL_KEYS
            if analytic[key] is not None
        },
    }
