"""Coherence and entanglement measures for two- and three-qubit states."""

__version__ = "0.1.0"

from .classify import (
    AuditRecord,
    ClassificationReport,
    CoherenceProductCheck,
    ConcurrenceSumCheck,
    LinkRecord,
    ObservableTriple,
    ParameterWitness,
    chain_audit,
    coherence_difference,
    coherence_monogamy_check,
    coherence_product_check,
    concurrence_sum_check,
    discriminate,
    observable_closed_forms,
    observables_expectations,
    one_norm_bound_audit,
    parameter_witness,
)
from .linalg import (
    ConvergenceError,
    hermitian_eigen,
    induced_one_norm,
)
from .measures import (
    CanonicalMeasures,
    ChainReport,
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
from .states import (
    CanonicalThreeQubit,
    DensityMatrix,
    EnsembleSpec,
    PureState,
    canonical_sample,
    canonical_state,
    partial_trace,
    read_density_matrix,
    werner_state,
)
