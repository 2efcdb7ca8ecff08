"""Command-line interface: seeded experiments and single-state analysis.

Reproducibility contract: every output embeds a run header (tool
version, seed, ensemble, count, generator, UTC timestamp).  The header
carries the timestamp, so re-running a command with identical flags
reproduces the *data section* byte for byte: for CSV that is every
non-comment line, for JSON the ``data`` object.  Sampling commands fan
out across ``QCOHERE_WORKERS`` processes by sample index; because every
sample owns its generator, the output is identical for any worker count.

Exit codes: 0 success (and no violations where a violation count is the
tested claim); 1 claim violation found (``sample`` and the
``theorem1-chain`` audit target); 2 I/O failure; 64 usage error;
65 invalid state input; 70 internal numerical failure (the eigensolver
did not converge).
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

from . import __version__, classify, linalg, measures, states

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_BAD_STATE = 65
EXIT_SOFTWARE = 70

WORKERS_ENV = "QCOHERE_WORKERS"

LAMBDA_NAMES = ("lambda0", "lambda1", "lambda2", "lambda3", "lambda4")

_INPUT_ERRORS = (
    states.StateError,
    measures.MeasureError,
    classify.HypothesisError,
)


class _UsageError(Exception):
    pass


def _fmt(x) -> str:
    """Shortest decimal representation that round-trips the double exactly."""
    return repr(float(x))


def _run_header(command, seed=None, ensemble=None, count=None) -> dict:
    return {
        "tool": "qcohere",
        "version": __version__,
        "command": command,
        "seed": seed,
        "ensemble": ensemble,
        "count": count,
        "generator": states.GENERATOR_NAME if seed is not None else None,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _header_comments(header: dict) -> list:
    return [f"# {key}: {'none' if value is None else value}" for key, value in header.items()]


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_document(header: dict, data: dict) -> str:
    return json.dumps({"run_header": header, "data": data}, indent=2, sort_keys=True) + "\n"


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise _UsageError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if workers < 1:
        raise _UsageError(f"{WORKERS_ENV} must be at least 1, got {workers}")
    return workers


def _chunk_ranges(n: int, workers: int) -> list:
    size = n if workers <= 1 else max(256, math.ceil(n / (workers * 8)))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _map_chunks(fn, jobs, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# --- chunk workers (top level so they pickle) --------------------------------


def _scatter_chunk(job):
    kind, seed, dim, rank, lo, hi = job
    rows = []
    for k in range(lo, hi):
        rho = classify.ensemble_state(kind, seed, k, dim, rank)
        rows.append((measures.concurrence(rho), measures.l1_coherence(rho)))
    return rows


def _chain_chunk(job):
    kind, seed, dim, rank, lo, hi = job
    stats = {}
    for k in range(lo, hi):
        rho = classify.ensemble_state(kind, seed, k, dim, rank)
        report = measures.inequality_chain(rho)
        for name, verdict in report.link_verdicts.items():
            violations, best = stats.get(name, (0, None))
            if not verdict.holds:
                violations += 1
            if best is None or verdict.margin < best[0]:
                best = (verdict.margin, k)
            stats[name] = (violations, best)
    return stats


def _one_norm_chunk(job):
    kind, seed, dim, rank, lo, hi = job
    stats = {
        reading: {"violations": 0, "entangled": 0, "worst": None}
        for reading in (classify.READING_A, classify.READING_B)
    }
    for k in range(lo, hi):
        rho = classify.ensemble_state(kind, seed, k, dim, rank)
        _, _, margin_a, margin_b = classify.one_norm_margins(rho)
        entangled = None
        for reading, margin in ((classify.READING_A, margin_a), (classify.READING_B, margin_b)):
            if margin <= classify.AUDIT_TOL:
                continue
            rec = stats[reading]
            rec["violations"] += 1
            if entangled is None:
                entangled = measures.concurrence(rho) > 0.0
            if entangled:
                rec["entangled"] += 1
            if rec["worst"] is None or margin > rec["worst"][0]:
                rec["worst"] = (margin, k)
    return stats


# --- shared flag plumbing -----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n{self.format_usage()}")


def _add_ensemble_flags(sub):
    sub.add_argument("--n", type=int, default=100_000, help="number of sampled states")
    sub.add_argument(
        "--ensemble",
        choices=("pure", "ginibre"),
        default="ginibre",
        help="state ensemble: Haar-uniform pure states or Ginibre mixed states",
    )
    sub.add_argument("--rank", type=int, default=None, help="Ginibre rank (default: dimension)")
    sub.add_argument("--seed", type=int, default=0, help="64-bit unsigned master seed")


def _resolve_ensemble(args, dim: int = 4):
    kind = "haar-pure" if args.ensemble == "pure" else "ginibre"
    if kind == "haar-pure" and args.rank is not None:
        raise _UsageError("--rank applies to the ginibre ensemble only")
    rank = args.rank if args.rank is not None else dim
    if not 1 <= rank <= dim:
        raise _UsageError(f"--rank must lie in [1, {dim}], got {rank}")
    if args.n < 1:
        raise _UsageError(f"--n must be at least 1, got {args.n}")
    if not 0 <= args.seed <= states.MAX_SEED:
        raise _UsageError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
    spec = states.EnsembleSpec(kind=kind, seed=args.seed, count=args.n, rank=rank)
    return spec, spec.describe(dim)


def _parse_lambda_flags(lambdas_text: str, normalize_last: bool) -> list:
    parts = [piece.strip() for piece in lambdas_text.split(",")]
    if len(parts) == 5 and parts[4] == "auto":
        parts = parts[:4]
        normalize_last = True
    if len(parts) == 4:
        normalize_last = True
    elif len(parts) != 5:
        raise states.StateError(
            f"--lambdas needs 4 or 5 comma-separated values, got {len(parts)}"
        )
    try:
        values = [float(piece) for piece in parts]
    except ValueError as exc:
        raise states.StateError(f"--lambdas contains a non-numeric value: {exc}") from exc
    if any(v < 0.0 for v in values):
        raise states.StateError(f"amplitudes must be non-negative, got {values}")
    if normalize_last and len(values) == 5:
        values = values[:4]
    if normalize_last:
        radicand = 1.0 - sum(v * v for v in values)
        if radicand < -1e-8:
            raise states.StateError(
                f"cannot complete lambda4: squared amplitudes already sum to {1.0 - radicand:.12f}"
            )
        values.append(math.sqrt(max(radicand, 0.0)))
    total = sum(v * v for v in values)
    deviation = abs(total - 1.0)
    if deviation > 1e-8:
        raise states.StateError(
            f"squared amplitudes must sum to 1 within 1e-8, deviation {deviation:.3e}"
        )
    scale = math.sqrt(total)
    return [v / scale for v in values]


def _worst_case_json(state: states.DensityMatrix, margin: float, index: int, out_path, tag: str):
    """Embed the worst state, or write it next to ``out_path`` and reference it."""
    record = {"margin": margin, "sample_index": index}
    if out_path is None:
        record["state"] = state.to_json_dict()
    else:
        stem, _ = os.path.splitext(out_path)
        path = f"{stem}-worst-{tag}.json"
        states.write_density_matrix(path, state)
        record["state_file"] = os.path.basename(path)
    return record


# --- sample -------------------------------------------------------------------


def _cmd_sample(args) -> int:
    spec, descriptor = _resolve_ensemble(args)
    workers = _worker_count()
    jobs = [
        (spec.kind, spec.seed, 4, spec.rank, lo, hi)
        for lo, hi in _chunk_ranges(spec.count, workers)
    ]
    rows = [row for chunk in _map_chunks(_scatter_chunk, jobs, workers) for row in chunk]
    violations = 0
    min_margin, min_index = None, None
    for k, (conc, coh) in enumerate(rows):
        margin = coh - conc
        if margin < -1e-9:
            violations += 1
        if min_margin is None or margin < min_margin:
            min_margin, min_index = margin, k
    header = _run_header("sample", seed=spec.seed, ensemble=descriptor, count=spec.count)
    lines = _header_comments(header)
    lines.append("concurrence,l1_coherence")
    lines.extend(f"{_fmt(c)},{_fmt(h)}" for c, h in rows)
    csv_text = "\n".join(lines) + "\n"
    summary = _json_document(
        header,
        {
            "ensemble": descriptor,
            "count": spec.count,
            "violations": violations,
            "min_margin": min_margin,
            "min_margin_index": min_index,
            "csv_path": args.out,
        },
    )
    if args.out is None:
        sys.stdout.write(csv_text)
        sys.stderr.write(summary)
    else:
        _write_text(args.out, csv_text)
        sys.stdout.write(summary)
    return EXIT_VIOLATION if violations else EXIT_OK


# --- canonical ------------------------------------------------------------------


_CANONICAL_KEYS = ("c_ab", "c_ac", "coh_ab", "coh_ac", "coh_a", "tangle")


def _canonical_data(p: states.CanonicalThreeQubit) -> dict:
    psi = states.canonical_state(p)
    rho = states.pure_to_density(psi)
    rho_ab = states.partial_trace(rho, (2, 2, 2), (0, 1))
    rho_ac = states.partial_trace(rho, (2, 2, 2), (0, 2))
    rho_a = states.partial_trace(rho, (2, 2, 2), (0,))
    matrix = measures.canonical_measures_matrix(p)
    cut = measures.bipartition_concurrence(psi)
    matrix_block = matrix.to_json_dict()
    matrix_block.update(
        {
            "bipartition_concurrence": cut,
            "ckw_margin": cut * cut - matrix.c_ab**2 - matrix.c_ac**2,
            "monogamy_margin": matrix.coh_ab**2 + matrix.coh_ac**2 - 2.0 * matrix.coh_a**2,
            "purity_ab": rho_ab.purity(),
            "purity_ac": rho_ac.purity(),
            "purity_a": rho_a.purity(),
        }
    )
    if p.theta == 0.0:
        analytic_block = measures.canonical_measures_analytic(p).to_json_dict()
    else:
        analytic_block = {key: None for key in _CANONICAL_KEYS}
        analytic_block["tangle"] = measures.tangle_analytic(p)
    residuals = {
        key: abs(analytic_block[key] - matrix_block[key])
        for key in _CANONICAL_KEYS
        if analytic_block.get(key) is not None
    }
    return {
        "params": {"lambdas": list(p.lambdas()), "theta": p.theta},
        "matrix": matrix_block,
        "analytic": analytic_block,
        "residuals": residuals,
    }


def _canonical_csv(header: dict, data: dict) -> str:
    columns, values = [], []
    for i, name in enumerate(LAMBDA_NAMES):
        columns.append(name)
        values.append(_fmt(data["params"]["lambdas"][i]))
    columns.append("theta")
    values.append(_fmt(data["params"]["theta"]))
    for block in ("matrix", "analytic", "residuals"):
        for key, value in data[block].items():
            columns.append(f"{block}_{key}")
            values.append("" if value is None else _fmt(value))
    lines = _header_comments(header)
    lines.append(",".join(columns))
    lines.append(",".join(values))
    return "\n".join(lines) + "\n"


def _cmd_canonical(args) -> int:
    values = _parse_lambda_flags(args.lambdas, args.normalize_last)
    p = states.CanonicalThreeQubit(*values, theta=args.theta)
    data = _canonical_data(p)
    header = _run_header("canonical")
    text = (
        _canonical_csv(header, data)
        if args.format == "csv"
        else _json_document(header, data)
    )
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    return EXIT_OK


# --- classify -------------------------------------------------------------------


def _cmd_classify(args) -> int:
    if args.theta != 0.0:
        raise states.StateError(f"classification is defined at theta=0, got {args.theta}")
    values = _parse_lambda_flags(args.lambdas, args.normalize_last)
    report = classify.discriminate(states.CanonicalThreeQubit(*values, theta=0.0))
    sys.stdout.write(_json_document(_run_header("classify"), report.to_json_dict()))
    return EXIT_OK


# --- audit ----------------------------------------------------------------------


def _audit_state_file(args) -> int:
    rho = states.read_density_matrix(args.state_file)
    header = _run_header("audit")
    if args.target == "theorem1-chain":
        report = measures.inequality_chain(rho)
        data = {
            "target": args.target,
            "state_file": args.state_file,
            "chain": report.to_json_dict(),
        }
        code = EXIT_OK if report.end_to_end.holds else EXIT_VIOLATION
    else:
        n1, c_a, margin_a, margin_b = classify.one_norm_margins(rho)
        conc = measures.concurrence(rho)
        data = {
            "target": args.target,
            "state_file": args.state_file,
            "induced_one_norm": n1,
            "l1_coherence_reading_a": c_a,
            "l1_coherence_reading_b": 2.0 * c_a,
            "margin_a": margin_a,
            "margin_b": margin_b,
            "violated_a": margin_a > classify.AUDIT_TOL,
            "violated_b": margin_b > classify.AUDIT_TOL,
            "concurrence": conc,
            "entangled": conc > 0.0,
        }
        code = EXIT_OK
    text = _json_document(header, data)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    return code


def _merge_chain_stats(chunks: list) -> dict:
    merged = {}
    for stats in chunks:
        for name, (violations, best) in stats.items():
            old_v, old_best = merged.get(name, (0, None))
            if old_best is None or best[0] < old_best[0]:
                old_best = best
            merged[name] = (old_v + violations, old_best)
    return merged


def _audit_chain(args, spec, descriptor, workers) -> int:
    jobs = [
        (spec.kind, spec.seed, 4, spec.rank, lo, hi)
        for lo, hi in _chunk_ranges(spec.count, workers)
    ]
    merged = _merge_chain_stats(_map_chunks(_chain_chunk, jobs, workers))
    links = {}
    for name in sorted(merged):
        violations, (margin, index) = merged[name]
        entry = {
            "violations": violations,
            "min_margin": margin,
            "min_margin_index": index,
        }
        if violations > 0:
            worst = classify.ensemble_state(spec.kind, spec.seed, index, 4, spec.rank)
            entry["worst_case"] = _worst_case_json(worst, margin, index, args.out, name)
        links[name] = entry
    end_violations = links["concurrence_le_l1_coherence"]["violations"]
    header = _run_header("audit", seed=spec.seed, ensemble=descriptor, count=spec.count)
    data = {
        "target": args.target,
        "ensemble": descriptor,
        "count": spec.count,
        "links": links,
        "end_to_end_violations": end_violations,
    }
    text = _json_document(header, data)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    return EXIT_VIOLATION if end_violations else EXIT_OK


def _audit_one_norm(args, spec, descriptor, workers) -> int:
    jobs = [
        (spec.kind, spec.seed, 4, spec.rank, lo, hi)
        for lo, hi in _chunk_ranges(spec.count, workers)
    ]
    chunks = _map_chunks(_one_norm_chunk, jobs, workers)
    readings = {}
    for reading in (classify.READING_A, classify.READING_B):
        violations = sum(chunk[reading]["violations"] for chunk in chunks)
        entangled = sum(chunk[reading]["entangled"] for chunk in chunks)
        worst = None
        for chunk in chunks:
            candidate = chunk[reading]["worst"]
            if candidate is not None and (worst is None or candidate[0] > worst[0]):
                worst = candidate
        entry = {
            "reading": reading,
            "violations_found": violations,
            "entangled_violations": entangled,
            "worst_case": None,
        }
        if worst is not None:
            margin, index = worst
            state = classify.ensemble_state(spec.kind, spec.seed, index, 4, spec.rank)
            entry["worst_case"] = _worst_case_json(state, margin, index, args.out, reading)
        readings[reading] = entry
    # deterministic regression point: the bound under reading A fails here
    # while the state stays entangled, so the audit always has a witness
    werner = states.werner_state(0.9)
    n1, c_a, margin_a, margin_b = classify.one_norm_margins(werner)
    header = _run_header("audit", seed=spec.seed, ensemble=descriptor, count=spec.count)
    data = {
        "target": args.target,
        "ensemble": descriptor,
        "count": spec.count,
        "readings": readings,
        "werner_regression": {
            "mixing_weight": 0.9,
            "induced_one_norm": n1,
            "l1_coherence_reading_a": c_a,
            "l1_coherence_reading_b": 2.0 * c_a,
            "margin_a": margin_a,
            "margin_b": margin_b,
            "violated_a": margin_a > classify.AUDIT_TOL,
            "violated_b": margin_b > classify.AUDIT_TOL,
            "concurrence": measures.concurrence(werner),
        },
    }
    text = _json_document(header, data)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    return EXIT_OK


def _cmd_audit(args) -> int:
    if args.state_file is not None:
        return _audit_state_file(args)
    spec, descriptor = _resolve_ensemble(args)
    workers = _worker_count()
    if args.target == "theorem1-chain":
        return _audit_chain(args, spec, descriptor, workers)
    return _audit_one_norm(args, spec, descriptor, workers)


# --- sweep ----------------------------------------------------------------------


def _parse_fix(texts) -> list:
    fixes = []
    for text in texts or ():
        lhs, sep, rhs = text.partition("=")
        lhs = lhs.strip()
        rhs = rhs.strip()
        if not sep or lhs not in LAMBDA_NAMES:
            raise _UsageError(
                f"--fix needs the form lambdaI=VALUE or lambdaI=lambdaJ, got {text!r}"
            )
        if rhs in LAMBDA_NAMES:
            fixes.append(("tie", LAMBDA_NAMES.index(lhs), LAMBDA_NAMES.index(rhs)))
        else:
            try:
                value = float(rhs)
            except ValueError:
                raise _UsageError(f"--fix value must be a number or a lambda name, got {rhs!r}")
            if value < 0.0:
                raise _UsageError(f"--fix value must be non-negative, got {value}")
            fixes.append(("value", LAMBDA_NAMES.index(lhs), value))
    return fixes


def _grid_points(resolution: int, fixes: list):
    """Lexicographic squared-amplitude grid k_i / resolution, filtered by fixes."""
    r = resolution
    for k0 in range(r + 1):
        for k1 in range(r + 1 - k0):
            for k2 in range(r + 1 - k0 - k1):
                for k3 in range(r + 1 - k0 - k1 - k2):
                    ks = (k0, k1, k2, k3, r - k0 - k1 - k2 - k3)
                    ok = True
                    for fix in fixes:
                        if fix[0] == "tie":
                            if ks[fix[1]] != ks[fix[2]]:
                                ok = False
                                break
                        elif abs(ks[fix[1]] / r - fix[2] * fix[2]) > 1e-12:
                            ok = False
                            break
                    if ok:
                        yield ks


_SWEEP_COLUMNS = (
    "lambda0,lambda1,lambda2,lambda3,lambda4,theta,"
    "c_ab,c_ac,coh_ab,coh_ac,coh_a,tangle,"
    "coherence_difference,factor_l3_minus_l2,factor_l0_plus_l1_minus_l4,case_label,"
    "monogamy_margin,"
    "sum_check_applicable,sum_check_lhs,sum_check_rhs,sum_check_holds,"
    "product_check_holds,"
    "exp_o,exp_o1,exp_o2,witness_holds,witness_implication_ok"
)


def _sweep_row(ks, resolution: int) -> str:
    lam = [math.sqrt(k / resolution) for k in ks]
    p = states.CanonicalThreeQubit(*lam, theta=0.0)
    report = classify.discriminate(p)
    m = report.measures
    triple = classify.observables_expectations(p)
    cells = [_fmt(v) for v in lam]
    cells.append(_fmt(0.0))
    cells.extend(_fmt(v) for v in (m.c_ab, m.c_ac, m.coh_ab, m.coh_ac, m.coh_a, m.tangle))
    cells.append(_fmt(report.coherence_difference))
    cells.extend(_fmt(v) for v in report.factored_difference)
    cells.append(report.case_label)
    cells.append(_fmt(classify.coherence_monogamy_check(p)))
    applicable = p.lambda0 > 0.0 and p.lambda4 > 0.0 and p.lambda0 + p.lambda1 < p.lambda4
    if applicable:
        sum_check = classify.concurrence_sum_check(p)
        product_check = classify.coherence_product_check(p)
        cells.extend(
            (
                "true",
                _fmt(sum_check.lhs),
                _fmt(sum_check.rhs),
                "true" if sum_check.holds else "false",
                "true" if product_check.holds else "false",
            )
        )
    else:
        cells.extend(("false", "", "", "", ""))
    cells.extend(_fmt(v) for v in (triple.exp_o, triple.exp_o1, triple.exp_o2))
    cells.append("true" if triple.witness_holds else "false")
    if p.lambda0 > 0.0:
        witness = classify.parameter_witness(p)
        cells.append("true" if witness.witness_implication_ok else "false")
    else:
        cells.append("")
    return ",".join(cells)


def _cmd_sweep(args) -> int:
    if args.resolution < 2:
        raise _UsageError(f"--resolution must be at least 2, got {args.resolution}")
    fixes = _parse_fix(args.fix)
    rows = [_sweep_row(ks, args.resolution) for ks in _grid_points(args.resolution, fixes)]
    if not rows:
        raise states.StateError("the requested constraints admit no grid points")
    header = _run_header("sweep", count=len(rows))
    lines = _header_comments(header)
    lines.append(_SWEEP_COLUMNS)
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    return EXIT_OK


# --- parser / entry ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcohere",
        description="Coherence and entanglement measures for two- and three-qubit states.",
    )
    parser.add_argument("--version", action="version", version=f"qcohere {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sample = subs.add_parser(
        "sample",
        help="sample an ensemble and emit (concurrence, l1-coherence) pairs as CSV",
    )
    _add_ensemble_flags(sample)
    sample.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    sample.set_defaults(func=_cmd_sample)

    canonical = subs.add_parser(
        "canonical",
        help="evaluate one canonical three-qubit point, closed forms beside the matrix route",
    )
    canonical.add_argument(
        "--lambdas",
        required=True,
        help="comma-separated amplitudes: five values, or four plus --normalize-last (or 'auto')",
    )
    canonical.add_argument(
        "--normalize-last",
        action="store_true",
        help="complete the fifth amplitude from normalization",
    )
    canonical.add_argument("--theta", type=float, default=0.0, help="phase in [0, pi]")
    canonical.add_argument("--format", choices=("json", "csv"), default="json")
    canonical.add_argument("--out", default=None, help="output path (default: stdout)")
    canonical.set_defaults(func=_cmd_canonical)

    classify_cmd = subs.add_parser(
        "classify",
        help="label a zero-phase canonical point by the coherence-difference criterion",
    )
    classify_cmd.add_argument("--lambdas", required=True, help="as for 'canonical'")
    classify_cmd.add_argument("--normalize-last", action="store_true")
    classify_cmd.add_argument("--theta", type=float, default=0.0)
    classify_cmd.set_defaults(func=_cmd_classify)

    audit = subs.add_parser(
        "audit",
        help="audit the inequality chain or the one-norm bound over an ensemble or one state",
    )
    audit.add_argument(
        "--target",
        choices=("theorem1-chain", "appendix-a"),
        required=True,
        help="theorem1-chain: concurrence vs l1-coherence with every intermediate bound;"
        " appendix-a: induced one-norm vs l1-coherence under both summation readings",
    )
    _add_ensemble_flags(audit)
    audit.add_argument("--out", default=None, help="JSON output path (default: stdout)")
    audit.add_argument(
        "--state-file",
        default=None,
        help="audit a single density matrix (JSON file) instead of an ensemble",
    )
    audit.set_defaults(func=_cmd_audit)

    sweep = subs.add_parser(
        "sweep",
        help="deterministic grid over the squared-amplitude simplex at theta=0",
    )
    sweep.add_argument("--resolution", type=int, required=True, help="simplex subdivisions (>= 2)")
    sweep.add_argument(
        "--fix",
        action="append",
        default=None,
        help="constraint lambdaI=VALUE or lambdaI=lambdaJ; repeatable",
    )
    sweep.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"qcohere: error: {exc}\n")
        return EXIT_USAGE
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"qcohere: invalid state input: {exc}\n")
        return EXIT_BAD_STATE
    except OSError as exc:
        sys.stderr.write(f"qcohere: i/o error: {exc}\n")
        return EXIT_IO
    except linalg.ConvergenceError as exc:
        sys.stderr.write(f"qcohere: internal error: {exc}\n")
        return EXIT_SOFTWARE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
