"""GHZ/W discrimination from the coherence difference, plus the audits.

The discrimination criterion is one-directional.  On the zero-phase
canonical slice the coherence difference factors as
``2 (l3 - l2)(l0 + l1 - l4)``; a sign of the difference that no W-class
point (l4 = 0) can produce therefore certifies GHZ-class entanglement,
while the W-consistent sign certifies nothing.  Reports carry the tangle
so callers can see when a W-consistent label coexists with genuine
three-way entanglement.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, measures
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Z
from .measures import (
    CanonicalMeasures,
    OutOfFamilyError,
    canonical_measures_analytic,
    concurrence,
    l1_coherence,
    reduced_coherences_analytic,
)
from .states import (
    CanonicalThreeQubit,
    DensityMatrix,
    EnsembleSpec,
    canonical_state,
    ginibre_density,
    haar_pure_state,
    pure_to_density,
)

# Case labels emitted by discriminate(); these strings are part of the
# serialized report format and stay stable.
CASE_I_W = "CaseI-W-consistent"
CASE_I_GHZ = "CaseI-GHZ-witness"
CASE_II_W = "CaseII-W-consistent"
CASE_II_GHZ = "CaseII-GHZ-witness"
BOUNDARY = "boundary"

# A factor this close to zero has no trustworthy sign, so the point is
# labeled 'boundary' instead of being forced into a case.
BOUNDARY_TOL = 1e-12

# A one-norm excess must clear this slack before it counts as a violation.
AUDIT_TOL = 1e-12

# Witness observables on three qubits.
OBS_O = 2.0 * np.kron(np.kron(SIGMA_X, SIGMA_X), SIGMA_X)
OBS_O1 = 2.0 * np.kron(np.kron(SIGMA_X, SIGMA_Z), SIGMA_Z)
OBS_O2 = 0.25 * np.kron(
    np.kron(IDENTITY_2 + SIGMA_Z, IDENTITY_2 + SIGMA_Z), IDENTITY_2 + SIGMA_Z
)


class HypothesisError(ValueError):
    """A check was invoked on a point outside its hypothesis window."""


def _require_theta_zero(p: CanonicalThreeQubit, what: str):
    if p.theta != 0.0:
        raise OutOfFamilyError(f"{what} is defined on the zero-phase slice, got theta={p.theta}")


def coherence_difference(p: CanonicalThreeQubit):
    """Difference coh_ab - coh_ac and its factors (l3 - l2, l0 + l1 - l4)."""
    _require_theta_zero(p, "the coherence difference")
    coh_ab, coh_ac, _ = reduced_coherences_analytic(p)
    factors = (p.lambda3 - p.lambda2, p.lambda0 + p.lambda1 - p.lambda4)
    return coh_ab - coh_ac, factors


@dataclass(frozen=True)
class ClassificationReport:
    params: CanonicalThreeQubit
    measures: CanonicalMeasures
    coherence_difference: float
    factored_difference: tuple
    case_label: str
    tangle: float

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "lambdas": list(self.params.lambdas()),
                "theta": self.params.theta,
            },
            "measures": self.measures.to_json_dict(),
            "coherence_difference": self.coherence_difference,
            "factored_difference": list(self.factored_difference),
            "case_label": self.case_label,
            "tangle": self.tangle,
        }


def discriminate(p: CanonicalThreeQubit) -> ClassificationReport:
    """Label a zero-phase canonical point by the sign pattern of the coherence difference.

    Case I is l3 > l2, Case II is l3 < l2.  Within a case, the sign that
    every W-class point shares is 'W-consistent'; the opposite sign is a
    GHZ witness.  Exact zeros of either factor give 'boundary'.
    """
    _require_theta_zero(p, "discrimination")
    m = canonical_measures_analytic(p)
    diff, factors = coherence_difference(p)
    f_32, f_014 = factors
    if abs(f_32) <= BOUNDARY_TOL or abs(f_014) <= BOUNDARY_TOL:
        label = BOUNDARY
    elif f_32 > 0.0:
        label = CASE_I_GHZ if diff < 0.0 else CASE_I_W
    else:
        label = CASE_II_GHZ if diff >= 0.0 else CASE_II_W
    return ClassificationReport(
        params=p,
        measures=m,
        coherence_difference=diff,
        factored_difference=factors,
        case_label=label,
        tangle=m.tangle,
    )


def coherence_monogamy_check(p: CanonicalThreeQubit) -> float:
    """Margin coh_ab^2 + coh_ac^2 - 2 coh_a^2; non-negative on the whole slice."""
    coh_ab, coh_ac, coh_a = reduced_coherences_analytic(p)
    return coh_ab * coh_ab + coh_ac * coh_ac - 2.0 * coh_a * coh_a


def _require_ghz_window(p: CanonicalThreeQubit, what: str):
    _require_theta_zero(p, what)
    if p.lambda0 <= 0.0:
        raise HypothesisError(f"{what} needs lambda0 > 0, got lambda0={p.lambda0}")
    if p.lambda4 <= 0.0:
        raise HypothesisError(f"{what} needs lambda4 > 0, got lambda4={p.lambda4}")
    margin = p.lambda0 + p.lambda1 - p.lambda4
    if margin >= 0.0:
        raise HypothesisError(
            f"{what} needs lambda0 + lambda1 - lambda4 < 0, got {margin}"
        )


@dataclass(frozen=True)
class ConcurrenceSumCheck:
    """C_AB + C_AC against twice the AC coherence, on the GHZ window."""

    lhs: float
    rhs: float
    holds: bool
    coh_ab: float
    coh_ac: float
    ordering_holds: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "coh_ab": self.coh_ab,
            "coh_ac": self.coh_ac,
            "ordering_holds": self.ordering_holds,
        }


def concurrence_sum_check(p: CanonicalThreeQubit) -> ConcurrenceSumCheck:
    """Check C_AB + C_AC < 2 coh_ac for points with l0 > 0, l4 > 0 and l0 + l1 < l4.

    ``ordering_holds`` reports the intermediate step coh_ab < coh_ac used
    in the derivation; it is reported, not required, because the factored
    difference can invert it when l3 < l2.
    """
    _require_ghz_window(p, "the concurrence-sum check")
    c_ab, c_ac = measures.partial_concurrences_analytic(p)
    coh_ab, coh_ac, _ = reduced_coherences_analytic(p)
    lhs = c_ab + c_ac
    rhs = 2.0 * coh_ac
    return ConcurrenceSumCheck(
        lhs=lhs,
        rhs=rhs,
        holds=lhs < rhs,
        coh_ab=coh_ab,
        coh_ac=coh_ac,
        ordering_holds=coh_ab < coh_ac,
    )


@dataclass(frozen=True)
class CoherenceProductCheck:
    """coh_a against coh_ac, with both routes to coh_ab*coh_ac - coh_a^2.

    ``product_minus_square_expansion`` is the partially expanded form
    4 l0 l1 l2 (l0+l1) + 4 l3 (l0+l1)(l0 l1 + l0 l2 + l1 l2).  It drops
    cross terms, so it generally undershoots the direct product; both
    values are carried and ``expansion_matches`` records whether they
    happen to agree.  Both are non-negative for non-negative amplitudes,
    which is all the sign conclusion needs.
    """

    coh_a: float
    coh_ac: float
    product_minus_square_direct: float
    product_minus_square_expansion: float
    expansion_matches: bool
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "coh_a": self.coh_a,
            "coh_ac": self.coh_ac,
            "product_minus_square_direct": self.product_minus_square_direct,
            "product_minus_square_expansion": self.product_minus_square_expansion,
            "expansion_matches": self.expansion_matches,
            "holds": self.holds,
        }


def coherence_product_check(p: CanonicalThreeQubit) -> CoherenceProductCheck:
    """Check coh_a < coh_ac on the same window as the concurrence-sum check."""
    _require_ghz_window(p, "the coherence-product check")
    l0, l1_, l2, l3, _ = p.lambdas()
    coh_ab, coh_ac, coh_a = reduced_coherences_analytic(p)
    direct = coh_ab * coh_ac - coh_a * coh_a
    expansion = 4.0 * l0 * l1_ * l2 * (l0 + l1_) + 4.0 * l3 * (l0 + l1_) * (
        l0 * l1_ + l0 * l2 + l1_ * l2
    )
    return CoherenceProductCheck(
        coh_a=coh_a,
        coh_ac=coh_ac,
        product_minus_square_direct=direct,
        product_minus_square_expansion=expansion,
        expansion_matches=abs(direct - expansion) <= 1e-10,
        holds=coh_a < coh_ac,
    )


@dataclass(frozen=True)
class ObservableTriple:
    """Expectations of the three witness observables and the witness verdict."""

    exp_o: float
    exp_o1: float
    exp_o2: float
    witness_holds: bool

    def to_json_dict(self) -> dict:
        return {
            "exp_o": self.exp_o,
            "exp_o1": self.exp_o1,
            "exp_o2": self.exp_o2,
            "witness_holds": self.witness_holds,
        }


def observables_expectations(p: CanonicalThreeQubit) -> ObservableTriple:
    """Matrix-route expectations <O>, <O1>, <O2>; valid for any phase."""
    psi = canonical_state(p).amplitudes
    exp_o = float(np.vdot(psi, OBS_O @ psi).real)
    exp_o1 = float(np.vdot(psi, OBS_O1 @ psi).real)
    exp_o2 = float(np.vdot(psi, OBS_O2 @ psi).real)
    return ObservableTriple(
        exp_o=exp_o,
        exp_o1=exp_o1,
        exp_o2=exp_o2,
        witness_holds=exp_o > exp_o1 + exp_o2,
    )


def observable_closed_forms(p: CanonicalThreeQubit) -> tuple:
    """(4 l0 l4, 4 l0 l1, 2 l0^2): the zero-phase values of the three expectations."""
    _require_theta_zero(p, "the observable closed forms")
    return (
        4.0 * p.lambda0 * p.lambda4,
        4.0 * p.lambda0 * p.lambda1,
        2.0 * p.lambda0 * p.lambda0,
    )


@dataclass(frozen=True)
class ParameterWitness:
    """One-directional link from the amplitude margin to the observable witness.

    Only ``lambda_margin < 0  =>  witness_holds`` is checked; the converse
    is false in general because the witness inequality compares rescaled
    expectations.
    """

    lambda_margin: float
    witness_implication_ok: bool
    observables: ObservableTriple

    def to_json_dict(self) -> dict:
        return {
            "lambda_margin": self.lambda_margin,
            "witness_implication_ok": self.witness_implication_ok,
            "observables": self.observables.to_json_dict(),
        }


def parameter_witness(p: CanonicalThreeQubit) -> ParameterWitness:
    if p.lambda0 <= 0.0:
        raise HypothesisError(f"the parameter witness needs lambda0 > 0, got {p.lambda0}")
    triple = observables_expectations(p)
    margin = p.lambda0 + p.lambda1 - p.lambda4
    ok = margin >= 0.0 or triple.witness_holds
    return ParameterWitness(
        lambda_margin=margin,
        witness_implication_ok=ok,
        observables=triple,
    )


# --- one-norm bound audit ----------------------------------------------------
#
# The bound under audit says the induced column 1-norm of a two-qubit state
# never exceeds its l1-coherence.  Two summation conventions for the
# coherence are in circulation; the audit evaluates both:
#   reading A: sum over ordered pairs i != j (the convention used everywhere
#              else in this package), and
#   reading B: twice that sum.
# Reading A admits counterexamples (werner_state(0.9) is one, and it is
# entangled), so violations are counted and the worst case is kept rather
# than asserted away.

READING_A = "A"
READING_B = "B"


@dataclass(frozen=True)
class WorstCase:
    margin: float
    sample_index: int
    state: DensityMatrix


@dataclass(frozen=True)
class AuditRecord:
    reading: str
    violations_found: int
    entangled_violations: int
    worst_case: WorstCase | None

    def to_json_dict(self, state_file: str | None = None) -> dict:
        worst = None
        if self.worst_case is not None:
            worst = {
                "margin": self.worst_case.margin,
                "sample_index": self.worst_case.sample_index,
            }
            if state_file is None:
                worst["state"] = self.worst_case.state.to_json_dict()
            else:
                worst["state_file"] = state_file
        return {
            "reading": self.reading,
            "violations_found": self.violations_found,
            "entangled_violations": self.entangled_violations,
            "worst_case": worst,
        }


def one_norm_margins(rho: DensityMatrix) -> tuple:
    """(induced 1-norm, reading-A coherence, margin under A, margin under B)."""
    n1 = linalg.induced_one_norm(rho.matrix)
    c_a = l1_coherence(rho)
    return n1, c_a, n1 - c_a, n1 - 2.0 * c_a


def ensemble_state(kind: str, seed: int, index: int, dim: int, rank: int) -> DensityMatrix:
    """State ``index`` of the named ensemble, as a density matrix."""
    if kind == "haar-pure":
        return pure_to_density(haar_pure_state(seed, index, dim))
    if kind == "ginibre":
        return ginibre_density(seed, index, dim, rank)
    raise ValueError(f"unknown ensemble kind {kind!r}")


def one_norm_bound_audit(spec: EnsembleSpec, dim: int = 4) -> tuple:
    """Audit the one-norm bound over an ensemble; returns (reading A, reading B) records."""
    rank = spec.rank if spec.rank is not None else dim
    counts = {READING_A: 0, READING_B: 0}
    entangled = {READING_A: 0, READING_B: 0}
    worst = {READING_A: None, READING_B: None}
    for k in range(spec.count):
        rho = ensemble_state(spec.kind, spec.seed, k, dim, rank)
        _, _, margin_a, margin_b = one_norm_margins(rho)
        is_entangled = None
        for reading, margin in ((READING_A, margin_a), (READING_B, margin_b)):
            if margin <= AUDIT_TOL:
                continue
            counts[reading] += 1
            if is_entangled is None:
                is_entangled = concurrence(rho) > 0.0
            if is_entangled:
                entangled[reading] += 1
            best = worst[reading]
            if best is None or margin > best.margin:
                worst[reading] = WorstCase(margin=margin, sample_index=k, state=rho)
    return (
        AuditRecord(READING_A, counts[READING_A], entangled[READING_A], worst[READING_A]),
        AuditRecord(READING_B, counts[READING_B], entangled[READING_B], worst[READING_B]),
    )
