"""Command-line interface: seeded experiments and single-state analysis.

Reproducibility contract: every output embeds a run header (tool
version, seed, ensemble, count, generator, worker count, numpy and Python
versions, UTC timestamp).  Only the header carries what may change from
run to run, so re-running a command with identical flags reproduces the
*data section* byte for byte: for CSV that is every non-comment line, for
JSON the ``data`` object.  Ensemble commands
evaluate their states in ``QCOHERE_WORKERS`` processes by sample index
and fold the results in index order (the engine lives in ``classify``);
because every sample owns its generator, the output is identical for any
worker count.  Rows stream to the output as they are folded.  Every
output goes through ``_output``: standard output, or a temporary file
beside the ``--out`` path that replaces it only when the command succeeds.

Exit codes: 0 success (and no violations where a violation count is the
tested claim); 1 claim violation found (``sample`` and the
``theorem1-chain`` audit target); 2 I/O failure; 64 usage error;
65 invalid state input; 70 internal failure (the eigensolver did not
converge, or chunk seeding disagrees with the frozen generator).
"""

import argparse
import contextlib
import json
import math
import os
import platform
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__, classify, linalg, measures, states

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_BAD_STATE = 65
EXIT_SOFTWARE = 70

WORKERS_ENV = "QCOHERE_WORKERS"

LAMBDA_NAMES = states.LAMBDA_NAMES

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


def _run_header(command, seed=None, ensemble=None, count=None, workers=None) -> dict:
    """Run metadata; ``workers`` is the requested worker count of an ensemble command."""
    return {
        "tool": "qcohere",
        "version": __version__,
        "command": command,
        "seed": seed,
        "ensemble": ensemble,
        "count": count,
        "generator": states.GENERATOR_NAME if seed is not None else None,
        "workers": workers,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _header_comments(header: dict) -> list:
    return [f"# {key}: {'none' if value is None else value}" for key, value in header.items()]


def _json_document(header: dict, data: dict) -> str:
    return json.dumps({"run_header": header, "data": data}, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _output(path):
    """Text stream for ``path``, or standard output when ``path`` is None.

    A file is written under a temporary name in the target's directory and
    moved onto ``path`` when the block completes; on any error the temporary
    file is deleted and ``path`` is left as it was.
    """
    if path is None:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".qcohere-", suffix=".tmp", dir=directory)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path, header: dict, columns: str, rows):
    with _output(path) as out:
        out.writelines(f"{line}\n" for line in _header_comments(header))
        out.write(columns + "\n")
        out.writelines(f"{row}\n" for row in rows)


def _write_json(path, header: dict, data: dict):
    with _output(path) as out:
        out.write(_json_document(header, data))


def _state_file(out_path, tag: str, worst) -> str | None:
    """Write the worst-case state beside ``out_path``; its file name, or None if not written."""
    if out_path is None or worst is None:
        return None
    stem, _ = os.path.splitext(out_path)
    path = f"{stem}-worst-{tag}.json"
    with _output(path) as out:
        out.write(json.dumps(worst.state.to_json_dict()) + "\n")
    return os.path.basename(path)


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


def _resolve_ensemble(args):
    kind = "haar-pure" if args.ensemble == "pure" else "ginibre"
    if kind == "haar-pure" and args.rank is not None:
        raise _UsageError("--rank applies to the ginibre ensemble only")
    dim = classify.TWO_QUBIT_DIM
    rank = args.rank if args.rank is not None else dim
    if not 1 <= rank <= dim:
        raise _UsageError(f"--rank must lie in [1, {dim}], got {rank}")
    if args.n < 1:
        raise _UsageError(f"--n must be at least 1, got {args.n}")
    if not 0 <= args.seed <= states.MAX_SEED:
        raise _UsageError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
    spec = states.EnsembleSpec(kind=kind, seed=args.seed, count=args.n, rank=rank)
    return spec, spec.describe(dim)


# --- sample -------------------------------------------------------------------


def _cmd_sample(args) -> int:
    spec, descriptor = _resolve_ensemble(args)
    tally = classify.Tally()
    workers = _worker_count()
    pairs = classify.scatter(spec, tally, workers=workers)
    header = _run_header(
        "sample", seed=spec.seed, ensemble=descriptor, count=spec.count, workers=workers
    )
    rows = (f"{_fmt(conc)},{_fmt(coh)}" for conc, coh in pairs)
    _write_csv(args.out, header, "concurrence,l1_coherence", rows)
    summary = _json_document(
        header,
        {
            "ensemble": descriptor,
            "count": spec.count,
            "violations": tally.violations,
            "min_margin": tally.margin,
            "min_margin_index": tally.index,
            "csv_path": args.out,
        },
    )
    # the summary takes whichever stream the rows left free
    (sys.stderr if args.out is None else sys.stdout).write(summary)
    return EXIT_VIOLATION if tally.violations else EXIT_OK


# --- canonical ------------------------------------------------------------------


def _canonical_row(data: dict) -> tuple:
    """(column line, value line) of the flat CSV form."""
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
    return ",".join(columns), ",".join(values)


def _cmd_canonical(args) -> int:
    p = states.parse_lambdas(args.lambdas, args.normalize_last, args.theta)
    data = measures.canonical_report(p)
    header = _run_header("canonical")
    if args.format == "csv":
        columns, row = _canonical_row(data)
        _write_csv(args.out, header, columns, [row])
    else:
        _write_json(args.out, header, data)
    return EXIT_OK


# --- classify -------------------------------------------------------------------


def _cmd_classify(args) -> int:
    p = states.parse_lambdas(args.lambdas, args.normalize_last, args.theta)
    report = classify.discriminate(p)
    _write_json(None, _run_header("classify"), report.to_json_dict())
    return EXIT_OK


# --- audit ----------------------------------------------------------------------


def _audit_state_file(args) -> int:
    rho = states.read_density_matrix(args.state_file)
    header = _run_header("audit")
    data = {"target": args.target, "state_file": args.state_file}
    code = EXIT_OK
    if args.target == "theorem1-chain":
        report = measures.inequality_chain(rho)
        data["chain"] = report.to_json_dict()
        if not report.end_to_end.holds:
            code = EXIT_VIOLATION
    else:
        data.update(classify.one_norm_report(rho))
        data["entangled"] = data["concurrence"] > 0.0
    _write_json(args.out, header, data)
    return code


def _cmd_audit(args) -> int:
    if args.state_file is not None:
        return _audit_state_file(args)
    spec, descriptor = _resolve_ensemble(args)
    workers = _worker_count()
    data = {"target": args.target, "ensemble": descriptor, "count": spec.count}
    code = EXIT_OK
    if args.target == "theorem1-chain":
        links = classify.chain_audit(spec, workers=workers)
        data["links"] = {
            name: link.to_json_dict(state_file=_state_file(args.out, name, link.worst_case))
            for name, link in links.items()
        }
        data["end_to_end_violations"] = links[measures.END_TO_END_LINK].violations
        if data["end_to_end_violations"]:
            code = EXIT_VIOLATION
    else:
        records = classify.one_norm_bound_audit(spec, workers=workers)
        data["readings"] = {
            record.reading: record.to_json_dict(
                state_file=_state_file(args.out, record.reading, record.worst_case)
            )
            for record in records
        }
        # deterministic regression point: the bound under reading A fails here
        # while the state stays entangled, so the audit always has a witness
        werner = classify.one_norm_report(states.werner_state(0.9))
        data["werner_regression"] = {"mixing_weight": 0.9, **werner}
    header = _run_header(
        "audit", seed=spec.seed, ensemble=descriptor, count=spec.count, workers=workers
    )
    _write_json(args.out, header, data)
    return code


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
            if not math.isfinite(value):
                raise _UsageError(f"--fix value must be finite, got {rhs!r}")
            if value < 0.0:
                raise _UsageError(f"--fix value must be non-negative, got {value}")
            fixes.append(("value", LAMBDA_NAMES.index(lhs), value))
    return fixes


def _cells(column, applies=None) -> list:
    """CSV cells of one sweep column; empty where ``applies`` is false."""
    values = column.tolist()
    if column.dtype == bool:
        cells = ["true" if v else "false" for v in values]
    elif column.dtype.kind == "f":
        cells = list(map(repr, values))  # Python floats already: this is _fmt
    else:
        cells = values
    if applies is not None:
        cells = [cell if a else "" for cell, a in zip(cells, applies.tolist())]
    return cells


def _sweep_rows(ks, roots, root_cells):
    """CSV rows of one chunk of integer grid points.

    The amplitudes take only the values sqrt(k / resolution), so their
    cells come from ``root_cells``, formatted once per run.
    """
    p = states.CanonicalThreeQubit(*roots[ks.T], theta=0.0)
    columns, applies = classify.sweep_columns(p)
    lambda_cells = dict(zip(LAMBDA_NAMES, root_cells[ks.T]))
    cells = [
        lambda_cells[name].tolist() if name in lambda_cells else _cells(column, applies.get(name))
        for name, column in columns.items()
    ]
    return map(",".join, zip(*cells))


def _cmd_sweep(args) -> int:
    r = args.resolution
    if r < 2:
        raise _UsageError(f"--resolution must be at least 2, got {r}")
    fixes = _parse_fix(args.fix)
    # the header carries the row count, so count the integer grid first
    count = sum(len(ks) for ks in classify.sweep_grid(r, fixes))
    if not count:
        raise states.StateError("the requested constraints admit no grid points")
    roots = np.array([math.sqrt(k / r) for k in range(r + 1)])
    root_cells = np.array([_fmt(v) for v in roots])
    rows = (
        row
        for ks in classify.sweep_grid(r, fixes)
        for row in _sweep_rows(ks, roots, root_cells)
    )
    columns = ",".join(classify.SWEEP_COLUMNS)
    _write_csv(args.out, _run_header("sweep", count=count), columns, rows)
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
    except (linalg.ConvergenceError, states.SeedingError) as exc:
        sys.stderr.write(f"qcohere: internal error: {exc}\n")
        return EXIT_SOFTWARE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
