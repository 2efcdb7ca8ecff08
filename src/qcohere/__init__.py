"""Coherence and entanglement measures for two- and three-qubit states.

Each root export loads its module on first use (PEP 562), so ``import
qcohere`` alone imports no numpy and leaves the caller's environment and
BLAS threading as they were.
"""

import importlib

__version__ = "0.1.0"

# every root export and the module that defines it
_EXPORTS = {
    "AuditRecord": "classify",
    "ClassificationReport": "classify",
    "CoherenceProductCheck": "classify",
    "ConcurrenceSumCheck": "classify",
    "LinkRecord": "classify",
    "ObservableTriple": "classify",
    "chain_audit": "classify",
    "coherence_difference": "classify",
    "coherence_monogamy_check": "classify",
    "coherence_product_check": "classify",
    "concurrence_sum_check": "classify",
    "discriminate": "classify",
    "observable_closed_forms": "classify",
    "observables_expectations": "classify",
    "one_norm_bound_audit": "classify",
    "ConvergenceError": "linalg",
    "CanonicalMeasures": "measures",
    "ChainReport": "measures",
    "bipartition_concurrence": "measures",
    "canonical_measures_analytic": "measures",
    "canonical_report": "measures",
    "concurrence": "measures",
    "inequality_chain": "measures",
    "l1_coherence": "measures",
    "partial_concurrences_analytic": "measures",
    "reduced_coherences_analytic": "measures",
    "tangle_analytic": "measures",
    "tangle_residual": "measures",
    "CanonicalThreeQubit": "states",
    "DensityMatrix": "states",
    "EnsembleSpec": "states",
    "PureState": "states",
    "canonical_sample": "states",
    "canonical_state": "states",
    "partial_trace": "states",
    "read_density_matrix": "states",
    "werner_state": "states",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
