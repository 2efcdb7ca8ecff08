"""GHZ/W discrimination from the coherence difference, plus the audits.

The discrimination criterion is one-directional.  On the zero-phase
canonical slice the coherence difference factors as
``2 (l3 - l2)(l0 + l1 - l4)``; a sign of the difference that no W-class
point (l4 = 0) can produce therefore certifies GHZ-class entanglement
wherever l0 > 0, while the W-consistent sign certifies nothing.  Reports
carry the tangle so callers can see when a W-consistent label coexists with
genuine three-way entanglement.

The closed forms, checks and observables take one point or a stack of
points (``CanonicalThreeQubit`` with (N,) amplitude arrays): the same
arithmetic gives floats for the one and arrays for the other, and a
check that fails names the first failing point of a stack.
``sweep_columns`` evaluates each chunk of the sweep grid that way, for ``sweep``.
"""

import os
import pickle
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from . import linalg, measures
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Z
from .measures import (
    CanonicalMeasures,
    canonical_measures_analytic,
    concurrence,
    l1_coherence,
    reduced_coherences_analytic,
)
from .states import (
    LAMBDA_NAMES,
    CanonicalThreeQubit,
    DensityMatrix,
    EnsembleSpec,
    StateError,
    _point,
    canonical_amplitudes,
    ensemble_chunk,
    per_state,
    require_zero_phase,
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
_OBSERVABLES = np.stack([OBS_O, OBS_O1, OBS_O2]).astype(np.complex128)

# Each row of each observable holds at most one nonzero entry, so two (3, 8)
# tables, its column and its value, cover every nonzero entry; a row of zeros
# takes column 0 and value 0.
_OBS_COLUMNS = abs(_OBSERVABLES).argmax(axis=2)
_OBS_VALUES = np.take_along_axis(_OBSERVABLES, _OBS_COLUMNS[..., None], axis=2)[..., 0]
assert (np.count_nonzero(_OBSERVABLES, axis=2) <= 1).all(), "a row has two nonzero entries"


class HypothesisError(ValueError):
    """A check was invoked on a point outside its hypothesis window."""


def _window_margin(p: CanonicalThreeQubit):
    """lambda0 + lambda1 - lambda4: the GHZ-window and witness-implication margin."""
    return p.lambda0 + p.lambda1 - p.lambda4


def coherence_difference(p: CanonicalThreeQubit):
    """Difference coh_ab - coh_ac and its factors (l3 - l2, l0 + l1 - l4)."""
    require_zero_phase(p, "the coherence difference")
    coh_ab, coh_ac, _ = reduced_coherences_analytic(p)
    factors = (p.lambda3 - p.lambda2, _window_margin(p))
    return coh_ab - coh_ac, factors


class ClassificationReport(NamedTuple):
    """The label of one point; for a stack every field but ``params`` is an (N,) array."""

    params: CanonicalThreeQubit
    measures: CanonicalMeasures
    coherence_difference: float
    factored_difference: tuple
    case_label: str
    tangle: float


def discriminate(p: CanonicalThreeQubit) -> ClassificationReport:
    """Label a zero-phase canonical point by the sign pattern of the coherence difference.

    Case I is l3 > l2, Case II is l3 < l2.  Within a case, the sign that
    every W-class point shares is 'W-consistent'; the opposite sign is a
    GHZ witness.  Exact zeros of either factor give 'boundary', and so does
    the GHZ sign at lambda0 <= BOUNDARY_TOL: lambda0 = 0 is A|BC biseparable.
    """
    require_zero_phase(p, "discrimination")
    m = canonical_measures_analytic(p)
    diff, factors = coherence_difference(p)
    f_32, f_014 = factors
    ghz_sign = (f_32 > 0.0) == (diff < 0.0)
    label = np.where(
        (abs(f_32) <= BOUNDARY_TOL) | (abs(f_014) <= BOUNDARY_TOL)
        | (ghz_sign & (p.lambda0 <= BOUNDARY_TOL)),
        BOUNDARY,
        np.where(
            f_32 > 0.0,
            np.where(diff < 0.0, CASE_I_GHZ, CASE_I_W),
            np.where(diff >= 0.0, CASE_II_GHZ, CASE_II_W),
        ),
    )
    return ClassificationReport(
        params=p,
        measures=m,
        coherence_difference=diff,
        factored_difference=factors,
        case_label=per_state(label),
        tangle=m.tangle,
    )


def coherence_monogamy_check(p: CanonicalThreeQubit):
    """Margin coh_ab^2 + coh_ac^2 - 2 coh_a^2; non-negative on the whole slice."""
    require_zero_phase(p, "the coherence-monogamy check")
    return measures._monogamy_margin(*reduced_coherences_analytic(p))


def in_ghz_window(p: CanonicalThreeQubit):
    """Whether lambda0 > 0, lambda4 > 0 and lambda0 + lambda1 < lambda4.

    This is the window on which the concurrence-sum and coherence-product
    checks are stated.  A bool for one point, a mask for a stack.
    """
    return (p.lambda0 > 0.0) & (p.lambda4 > 0.0) & (_window_margin(p) < 0.0)


def _require_ghz_window(p: CanonicalThreeQubit, what: str):
    require_zero_phase(p, what)
    k = linalg._first(np.logical_not(in_ghz_window(p)))
    if k is None:
        return
    prefix, _ = _point(p.lambda0, k)
    q = p[k] if prefix else p
    if q.lambda0 <= 0.0:
        raise HypothesisError(f"{prefix}{what} needs lambda0 > 0, got lambda0={q.lambda0}")
    if q.lambda4 <= 0.0:
        raise HypothesisError(f"{prefix}{what} needs lambda4 > 0, got lambda4={q.lambda4}")
    raise HypothesisError(
        f"{prefix}{what} needs lambda0 + lambda1 - lambda4 < 0, got {_window_margin(q)}"
    )


class ConcurrenceSumCheck(NamedTuple):
    """C_AB + C_AC against twice the AC coherence, on the GHZ window."""

    lhs: float
    rhs: float
    holds: bool


def concurrence_sum_check(p: CanonicalThreeQubit) -> ConcurrenceSumCheck:
    """Check C_AB + C_AC < 2 coh_ac for points with l0 > 0, l4 > 0 and l0 + l1 < l4."""
    _require_ghz_window(p, "the concurrence-sum check")
    c_ab, c_ac = measures.partial_concurrences_analytic(p)
    _, coh_ac, _ = reduced_coherences_analytic(p)
    lhs, rhs = c_ab + c_ac, 2.0 * coh_ac
    return ConcurrenceSumCheck(lhs=lhs, rhs=rhs, holds=lhs < rhs)


class CoherenceProductCheck(NamedTuple):
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


class ObservableTriple(NamedTuple):
    """Expectations of the three witness observables and the witness verdict."""

    exp_o: float
    exp_o1: float
    exp_o2: float
    witness_holds: bool


def observables_expectations(p: CanonicalThreeQubit) -> ObservableTriple:
    """Matrix-route expectations <O>, <O1>, <O2>; valid for any phase.

    All three come from the stacked observables, for one point or a whole
    stack.  Each row of an observable has one nonzero entry, so ``O psi`` is
    that entry times one gathered amplitude: the dense product's bits, with
    no sum over zeros and no BLAS call.
    """
    psi = canonical_amplitudes(p)
    o_psi = psi[..., _OBS_COLUMNS]
    o_psi *= _OBS_VALUES
    values = np.einsum("...i,...ki->...k", psi.conj(), o_psi).real
    exp_o, exp_o1, exp_o2 = (per_state(values[..., i]) for i in range(3))
    return ObservableTriple(
        exp_o=exp_o,
        exp_o1=exp_o1,
        exp_o2=exp_o2,
        witness_holds=exp_o > exp_o1 + exp_o2,
    )


def observable_closed_forms(p: CanonicalThreeQubit) -> tuple:
    """(4 l0 l4, 4 l0 l1, 2 l0^2): the zero-phase values of the three expectations."""
    require_zero_phase(p, "the observable closed forms")
    return (
        4.0 * p.lambda0 * p.lambda4,
        4.0 * p.lambda0 * p.lambda1,
        2.0 * p.lambda0 * p.lambda0,
    )


# --- sweep -------------------------------------------------------------------

SWEEP_COLUMNS = (
    *LAMBDA_NAMES, "theta",
    "c_ab", "c_ac", "coh_ab", "coh_ac", "coh_a", "tangle",
    "coherence_difference", "factor_l3_minus_l2", "factor_l0_plus_l1_minus_l4", "case_label",
    "monogamy_margin",
    "sum_check_applicable", "sum_check_lhs", "sum_check_rhs", "sum_check_holds",
    "product_check_holds",
    "exp_o", "exp_o1", "exp_o2", "witness_holds", "witness_implication_ok",
)


def sweep_grid(resolution: int, fixes=()) -> np.ndarray:
    """The squared-amplitude grid k_i / resolution in lexicographic order.

    ``fixes`` holds constraints ``("tie", i, j)`` (k_i = k_j) and
    ``("value", i, v)`` (k_i / resolution = v^2 within 1e-12).  Returns the
    (M, 5) int64 array of the points (k0, ..., k4) that meet them.
    """
    r = resolution
    # pairs (a, b) with a + b <= r in lexicographic order: the grid is each
    # (k0, k1) row of ``fits`` beside each (k2, k3) column that fits, read one
    # grid column at a time, so no index array as long as the grid is built
    pairs = np.argwhere(np.add.outer(np.arange(r + 1), np.arange(r + 1)) <= r)
    sums = pairs.sum(axis=1)
    fits = sums[:, None] <= r - sums
    ks = np.empty((np.count_nonzero(fits), 5), dtype=np.int64)
    for i, k in enumerate((pairs[:, :1], pairs[:, 1:], pairs[:, 0], pairs[:, 1])):
        ks[:, i] = np.broadcast_to(k, fits.shape)[fits]
    np.subtract(r, ks[:, :4].sum(axis=1), out=ks[:, 4])
    for kind, i, target in fixes:
        if kind == "tie":
            ks = ks[ks[:, i] == ks[:, target]]
        else:
            ks = ks[abs(ks[:, i] / r - target * target) <= 1e-12]
    return ks


def _spread(where: np.ndarray, values) -> np.ndarray:
    """``values``, given for the points of ``where``, placed at those points of the stack."""
    values = np.asarray(values)
    out = np.zeros(where.shape, dtype=values.dtype)
    out[where] = values
    return out


def sweep_columns(p: CanonicalThreeQubit) -> tuple:
    """The sweep's columns for a stack of zero-phase points, and where they apply.

    Returns ``(columns, applies)``: ``columns`` maps each name of
    SWEEP_COLUMNS, in order, to an (N,) array.  The window checks apply
    inside the GHZ window and the witness implication where lambda0 > 0;
    ``applies`` maps those columns to their (N,) masks, and their cells
    elsewhere carry no value.  The observables are evaluated once per point.
    """
    report = discriminate(p)
    m = report.measures
    triple = observables_expectations(p)
    window = in_ghz_window(p)
    inside = p[window]
    sum_check = concurrence_sum_check(inside)
    product_check = coherence_product_check(inside)
    values = (
        *p.lambdas(),
        np.full(p.lambda0.shape, p.theta),
        m.c_ab, m.c_ac, m.coh_ab, m.coh_ac, m.coh_a, m.tangle,
        report.coherence_difference, *report.factored_difference, report.case_label,
        coherence_monogamy_check(p),
        window,
        _spread(window, sum_check.lhs),
        _spread(window, sum_check.rhs),
        _spread(window, sum_check.holds),
        _spread(window, product_check.holds),
        triple.exp_o, triple.exp_o1, triple.exp_o2, triple.witness_holds,
        (_window_margin(p) >= 0.0) | triple.witness_holds,
    )
    applies = dict.fromkeys(
        ("sum_check_lhs", "sum_check_rhs", "sum_check_holds", "product_check_holds"), window
    )
    applies["witness_implication_ok"] = p.lambda0 > 0.0
    return dict(zip(SWEEP_COLUMNS, values, strict=True)), applies


def sweep(grid: np.ndarray, resolution: int):
    """The ``sweep_columns`` of each chunk of a ``sweep_grid``, evaluated as they are consumed.

    An empty grid raises ``StateError`` here, before any chunk is evaluated.
    """
    if not len(grid):
        raise StateError("the requested constraints admit no grid points")

    def draw(lo, hi):  # lambda_i = sqrt(k_i / resolution)
        return CanonicalThreeQubit(*np.sqrt(grid[lo:hi].T / resolution), theta=0.0)

    return (columns for _, columns in _map_chunks(len(grid), draw, sweep_columns, 1))


# --- ensemble audits --------------------------------------------------------
#
# One engine serves every streamed command.  The indices 0..count-1 are cut
# into chunks of CHUNK_SIZE; a chunk source draws a chunk as one stack, such
# as (N, 4, 4) states, and a private evaluator computes its measures as
# arrays, inline at one worker, or at more in forked workers that take the
# chunks in turn.  The chunks come back in index order for the caller to fold
# or write, so the output is the same for any worker count and any chunk
# size, and memory does not grow with the count.
#
# The bound under the one-norm audit says the induced column 1-norm of a
# two-qubit state never exceeds its l1-coherence.  Two summation
# conventions for the coherence are in circulation; the audit evaluates both:
#   reading A: sum over ordered pairs i != j (the convention used everywhere
#              else in this package), and
#   reading B: twice that sum.
# Reading A admits counterexamples (werner_state(0.9) is one, and it is
# entangled), so violations are counted and the worst case is kept rather
# than asserted away.

READING_A = "A"
READING_B = "B"

CHUNK_SIZE = 512


class WorstCase(NamedTuple):
    margin: float
    sample_index: int
    state: DensityMatrix


class AuditRecord(NamedTuple):
    reading: str
    violations_found: int
    entangled_violations: int
    worst_case: WorstCase | None


class LinkRecord(NamedTuple):
    """One link of the inequality chain over an ensemble; ``worst_case`` only if it failed."""

    violations: int
    min_margin: float
    min_margin_index: int
    worst_case: WorstCase | None


def one_norm_margins(rho: DensityMatrix) -> tuple:
    """(induced 1-norm, reading-A coherence, margin under A, margin under B).

    Floats for one state, arrays over the states of a stack.
    """
    n1 = linalg.induced_one_norm(rho.matrix)
    c_a = l1_coherence(rho)
    return n1, c_a, n1 - c_a, n1 - 2.0 * c_a


def one_norm_report(rho: DensityMatrix) -> dict:
    """The one-norm bound on a single state under both readings, as a JSON object."""
    n1, c_a, margin_a, margin_b = one_norm_margins(rho)
    return {
        "induced_one_norm": n1,
        "l1_coherence_reading_a": c_a,
        "l1_coherence_reading_b": 2.0 * c_a,
        "margin_a": margin_a,
        "margin_b": margin_b,
        "violated_a": margin_a > AUDIT_TOL,
        "violated_b": margin_b > AUDIT_TOL,
        "concurrence": concurrence(rho),
    }


def ensemble_state(kind: str, seed: int, index: int, rank: int) -> DensityMatrix:
    """State ``index`` of the named ensemble: row 0 of the chunk that holds only it."""
    return ensemble_chunk(kind, seed, index, index + 1, rank)[0]


class Tally:
    """Violation count and extreme margin over an ensemble; ties keep the earliest index.

    ``highest`` keeps the largest margin (an excess), otherwise the smallest
    (a slack).
    """

    def __init__(self, highest: bool = False):
        self.highest = highest
        self.violations = 0
        self.margin: float | None = None
        self.index: int | None = None

    def fold(self, lo: int, margins: np.ndarray, violated: np.ndarray):
        """Fold in one chunk: the margins of states lo, lo + 1, ... and their verdicts.

        Chunks must come in index order.
        """
        self.violations += int(np.count_nonzero(violated))
        k = int(np.argmax(margins) if self.highest else np.argmin(margins))
        margin = float(margins[k])
        if self.margin is None or (margin > self.margin if self.highest else margin < self.margin):
            self.margin, self.index = margin, lo + k

    def worst_case(self, spec: EnsembleSpec) -> WorstCase | None:
        """The extreme state, redrawn by its index, if any state violated."""
        if not self.violations:
            return None
        state = ensemble_state(spec.kind, spec.seed, self.index, spec.rank)
        return WorstCase(margin=self.margin, sample_index=self.index, state=state)


def _evaluate_chunks(count: int, draw, evaluate, los):
    """(lo, ``evaluate(draw(lo, hi))``) for each chunk start lo in ``los``; hi stops at count."""
    for lo in los:
        yield lo, evaluate(draw(lo, min(lo + CHUNK_SIZE, count)))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _start_worker(results, inherited) -> tuple:
    """Fork a worker that sends ``results`` in turn: (read end of its pipe, its pid).

    It pickles (True, result) into the pipe for each, or (False, exception)
    and stops; a full pipe blocks it.  It closes the ``inherited`` read ends
    and leaves through ``os._exit``, so it runs no exit handler and flushes
    none of the output buffers it was forked with.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            for fd in (read, *inherited):
                os.close(fd)
            with open(write, "wb") as out:
                try:
                    for result in results:
                        out.write(pickle.dumps((True, result)))
                        out.flush()
                except Exception as exc:
                    try:  # an exception that does not round-trip is sent as its text
                        error = pickle.loads(pickle.dumps(exc))
                    except Exception:
                        error = RuntimeError(f"{type(exc).__name__}: {exc}")
                    out.write(pickle.dumps((False, error)))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    return os.fdopen(read, "rb"), pid


def _map_chunks(count: int, draw, evaluate, workers: int):
    """Yield (lo, ``evaluate(draw(lo, hi))``) for the chunks of items 0..count-1, in index order.

    At most one worker is forked per chunk and per usable CPU.  Worker w of
    W takes chunks w, w + W, ..., and chunk k is read from pipe k % W, so
    the pipes bound the chunks in flight.  Every worker is reaped however
    the pass ends; after a full pass each must have exited with status 0.
    """
    los = range(0, count, CHUNK_SIZE)
    workers = min(workers, len(los), _cpu_count())
    if workers <= 1 or not hasattr(os, "fork"):
        yield from _evaluate_chunks(count, draw, evaluate, los)
        return
    import signal  # here, so that no other run pays for loading it
    started, received = [], 0
    try:
        for w in range(workers):
            results = _evaluate_chunks(count, draw, evaluate, los[w::workers])
            started.append(_start_worker(results, [pipe.fileno() for pipe, _ in started]))
        for k in range(len(los)):
            try:
                ok, value = pickle.load(started[k % workers][0])
            except (EOFError, pickle.UnpicklingError):
                break  # that worker has ended; its exit code is reported below
            if not ok:
                raise value
            received += 1
            yield value
    finally:
        # a worker that has exited already keeps its status through the kill
        for pipe, pid in started:
            pipe.close()
            if received < len(los):
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for _, pid in started]
    if received < len(los) or any(codes):
        raise RuntimeError(f"ensemble worker exit codes {codes} after {received}/{len(los)} chunks")


def _map_ensemble(spec: EnsembleSpec, evaluate, workers: int):
    """``_map_chunks`` over ``spec``; each draw looks ``ensemble_chunk`` up, so wrappers see it."""
    def draw(lo, hi):
        return ensemble_chunk(spec.kind, spec.seed, lo, hi, spec.rank)

    return _map_chunks(spec.count, draw, evaluate, workers)


def _scatter_chunk(rho: DensityMatrix) -> tuple:
    return concurrence(rho), l1_coherence(rho)


def _chain_chunk(rho: DensityMatrix) -> dict:
    return measures.inequality_chain(rho).links


def _one_norm_chunk(rho: DensityMatrix) -> tuple:
    _, _, margin_a, margin_b = one_norm_margins(rho)
    # the concurrence of a mixed state costs a solve, so only violating
    # states pay for it, all of them in one stack
    violated = (margin_a > AUDIT_TOL) | (margin_b > AUDIT_TOL)
    entangled = np.zeros_like(violated)
    if violated.any():
        entangled[violated] = concurrence(rho[violated]) > 0.0
    return margin_a, margin_b, entangled


def scatter(spec: EnsembleSpec, tally: Tally, workers: int = 1):
    """Yield the (concurrence, l1-coherence) arrays of each chunk of ``spec``, in index order.

    Each margin ``C_l1 - C`` goes into ``tally`` with its verdict on
    ``C <= C_l1``, the end-to-end link's verdict in ``measures``.
    """
    for lo, (conc, coh) in _map_ensemble(spec, _scatter_chunk, workers):
        verdict = measures._verdict(coh - conc)
        tally.fold(lo, verdict.margin, ~verdict.holds)
        yield conc, coh


def chain_audit(spec: EnsembleSpec, workers: int = 1) -> dict:
    """Audit every link of the inequality chain over an ensemble; records by sorted link name."""
    tallies = defaultdict(Tally)
    for lo, verdicts in _map_ensemble(spec, _chain_chunk, workers):
        for name, verdict in verdicts.items():
            tallies[name].fold(lo, verdict.margin, ~verdict.holds)
    return {
        name: LinkRecord(t.violations, t.margin, t.index, t.worst_case(spec))
        for name, t in sorted(tallies.items())
    }


def one_norm_bound_audit(spec: EnsembleSpec, workers: int = 1) -> tuple:
    """Audit the one-norm bound over an ensemble; returns (reading A, reading B) records."""
    tallies = (Tally(highest=True), Tally(highest=True))
    entangled = [0, 0]
    for lo, (margin_a, margin_b, is_entangled) in _map_ensemble(spec, _one_norm_chunk, workers):
        for i, margin in enumerate((margin_a, margin_b)):
            violated = margin > AUDIT_TOL
            tallies[i].fold(lo, margin, violated)
            entangled[i] += int(np.count_nonzero(violated & is_entangled))
    return tuple(
        AuditRecord(reading, t.violations, count, t.worst_case(spec))
        for reading, t, count in zip((READING_A, READING_B), tallies, entangled)
    )
