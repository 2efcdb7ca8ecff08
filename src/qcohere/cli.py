"""Command-line interface: seeded experiments and single-state analysis.

Reproducibility contract: every output embeds a run header (tool
version, seed, ensemble, count, generator, worker count, BLAS thread
setting, numpy and Python versions, UTC timestamp).  Only the header
carries what may change from run to run, so re-running a command with
identical flags reproduces the *data section* byte for byte: for CSV that
is every non-comment line, for JSON the ``data`` object.  Ensemble commands
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
converge, chunk seeding disagrees with the frozen generator, or any other
unexpected exception).
"""

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import sys
import tempfile
from datetime import datetime, timezone

BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"

# numpy's OpenBLAS starts a worker thread per further core as it loads.  Every
# product here is a stack of 4x4 or 8x8 matrices, too small to reach them, yet
# on a 2-core box the idle worker spins for 0.1-0.17 s of CPU per process.  So
# numpy, imported just below, loads with one thread; a value the caller set
# wins.  numpy reads it only then, so if numpy was loaded before this module,
# the run header says ``unknown``.
_NUMPY_CAME_FIRST = "numpy" in sys.modules
os.environ.setdefault(BLAS_THREADS_ENV, "1")

import numpy as np  # noqa: E402

from . import __version__, classify, measures, states  # noqa: E402

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
        "blas_threads": "unknown" if _NUMPY_CAME_FIRST else os.environ.get(BLAS_THREADS_ENV),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


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
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            # by path: Windows Python has os.fchmod only from 3.13
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# a bool cell's text, indexed by the bool
_BOOL_TEXTS = np.array(["false", "true"], dtype=object)


def _csv_chunk(columns: dict, applies: dict, carried) -> tuple:
    """(text, carried): one chunk of CSV rows as one text with a line per point.

    ``columns`` maps each column name, in order, to an (N,) array.  A float
    is written as its ``repr``, the shortest decimal that round-trips the
    double; a bool as ``true`` or ``false``; a string as it is.  A cell is
    empty where the column's mask in ``applies`` is false.

    ``repr`` of a double depends only on its 64 bits, so each distinct bit
    pattern of a chunk is formatted once.  The key is the bits, not the
    value, which would merge -0.0 with 0.0, and one 1-D array of them, whose
    inverse has the same shape in every numpy.  ``carried`` holds the
    previous chunk's sorted patterns and their texts, and a pattern found
    among them is not formatted again; this chunk's pair is returned in its
    place, so memory stays at two chunks.
    """
    floats = [name for name, column in columns.items() if column.dtype.kind == "f"]
    values = np.stack([columns[name] for name in floats]).ravel()
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.empty(len(bits), dtype=object)
    known = np.zeros(len(bits), dtype=bool)
    kept_bits, kept_texts = carried
    if len(kept_bits):
        at = np.minimum(np.searchsorted(kept_bits, bits), len(kept_bits) - 1)
        known = kept_bits[at] == bits
        texts[known] = kept_texts[at[known]]
    fresh = ~known
    texts[fresh] = list(map(repr, bits[fresh].view(np.float64).tolist()))
    formatted = dict(zip(floats, texts[inverse].reshape(len(floats), -1)))
    cells = []
    for name, column in columns.items():
        if name in formatted:
            column = formatted[name]
        elif column.dtype == bool:
            column = _BOOL_TEXTS[column.view(np.uint8)]
        if name in applies:
            column = np.where(applies[name], column, "")
        cells.append(column.tolist())
    return "\n".join(map(",".join, zip(*cells))), (bits, texts)


def _write_csv(path, header: dict, names, chunks):
    """Header comments, the column line, then each ``(columns, applies)`` chunk's rows."""
    carried = (np.empty(0, dtype=np.int64), None)  # the chunk before's texts, for this output only
    with _output(path) as out:
        out.writelines(f"# {key}: {'none' if v is None else v}\n" for key, v in header.items())
        out.write(",".join(names) + "\n")
        for columns, applies in chunks:
            text, carried = _csv_chunk(columns, applies, carried)
            out.write(text + "\n")


def _write_json(path, header: dict, data: dict):
    with _output(path) as out:
        out.write(_json_document(header, data))


def _json(record):
    """A result record by its fields, nested records and dicts in turn; ``to_json_dict`` wins."""
    if hasattr(record, "to_json_dict"):
        return record.to_json_dict()
    if hasattr(record, "_asdict"):
        record = record._asdict()
    if isinstance(record, dict):
        return {key: _json(value) for key, value in record.items()}
    return record


def _state_file(out_path, tag: str, record: dict) -> dict:
    """``record``; with ``out_path``, its worst-case state moves to <out-stem>-worst-<tag>.json."""
    worst = record.get("worst_case")
    if out_path is not None and worst is not None:
        path = f"{os.path.splitext(out_path)[0]}-worst-{tag}.json"
        with _output(path) as out:
            out.write(json.dumps(worst.pop("state")) + "\n")
        worst["state_file"] = os.path.basename(path)
    return record


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
    # each defaults to None, so that a flag given where no ensemble is drawn can be refused
    sub.add_argument("--n", type=int, help="number of sampled states (default: 100000)")
    sub.add_argument(
        "--ensemble",
        choices=("pure", "ginibre"),
        help="Haar-uniform pure states or Ginibre mixed states (default: ginibre)",
    )
    sub.add_argument("--rank", type=int, help="Ginibre rank (default: dimension)")
    sub.add_argument("--seed", type=int, help="64-bit unsigned master seed (default: 0)")


def _resolve_ensemble(args) -> states.EnsembleSpec:
    """The ensemble the flags name; the spec checks them, and a refusal is a usage error."""
    kind = "haar-pure" if args.ensemble == "pure" else "ginibre"
    count = 100_000 if args.n is None else args.n
    seed = 0 if args.seed is None else args.seed
    try:
        return states.EnsembleSpec(kind=kind, seed=seed, count=count, rank=args.rank)
    except states.StateError as exc:
        raise _UsageError(str(exc)) from exc


def _add_point_flags(sub):
    sub.add_argument(
        "--lambdas",
        required=True,
        help="five comma-separated amplitudes, or four (or 'auto' as the fifth) completing lambda4",
    )


# --- sample -------------------------------------------------------------------


def _cmd_sample(args) -> int:
    spec = _resolve_ensemble(args)
    tally = classify.Tally()
    workers = _worker_count()
    chunks = classify.scatter(spec, tally, workers=workers)
    header = _run_header(
        "sample", seed=spec.seed, ensemble=spec.describe(), count=spec.count, workers=workers
    )
    names = ("concurrence", "l1_coherence")
    _write_csv(args.out, header, names, ((dict(zip(names, chunk)), {}) for chunk in chunks))
    summary = _json_document(
        header,
        {
            "ensemble": spec.describe(),
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
    """(columns, applies) of the flat CSV form; a value the report lacks is an empty cell."""
    values = dict(zip(LAMBDA_NAMES, data["params"]["lambdas"]), theta=data["params"]["theta"])
    for block in ("matrix", "analytic", "residuals"):
        values.update((f"{block}_{key}", value) for key, value in data[block].items())
    columns = {name: np.array([0.0 if v is None else v], dtype=float) for name, v in values.items()}
    missing = {name: np.array([False]) for name, v in values.items() if v is None}
    return columns, missing


def _cmd_canonical(args) -> int:
    p = states.parse_lambdas(args.lambdas, args.theta)
    data = measures.canonical_report(p)
    header = _run_header("canonical")
    if args.format == "csv":
        columns, missing = _canonical_row(data)
        _write_csv(args.out, header, columns, [(columns, missing)])
    else:
        _write_json(args.out, header, data)
    return EXIT_OK


# --- classify -------------------------------------------------------------------


def _cmd_classify(args) -> int:
    report = classify.discriminate(states.parse_lambdas(args.lambdas))
    _write_json(None, _run_header("classify"), _json(report))
    return EXIT_OK


# --- audit ----------------------------------------------------------------------


def _audit_state_file(args) -> int:
    flags = ("n", "ensemble", "rank", "seed")
    given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
    if given:
        raise _UsageError(f"--state-file takes no ensemble flags, got {', '.join(given)}")
    rho = states.read_density_matrix(args.state_file)
    header = _run_header("audit")
    data = {"target": args.target, "state_file": args.state_file}
    code = EXIT_OK
    if args.target == "theorem1-chain":
        report = measures.inequality_chain(rho)
        data["chain"] = _json(report)
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
    spec = _resolve_ensemble(args)
    workers = _worker_count()
    data = {"target": args.target, "ensemble": spec.describe(), "count": spec.count}
    code = EXIT_OK
    if args.target == "theorem1-chain":
        links = classify.chain_audit(spec, workers=workers)
        data["links"] = {}
        for name, link in links.items():
            record = data["links"][name] = _state_file(args.out, name, _json(link))
            if link.worst_case is None:  # a link that held has no worst_case key
                del record["worst_case"]
        data["end_to_end_violations"] = links[measures.END_TO_END_LINK].violations
        if data["end_to_end_violations"]:
            code = EXIT_VIOLATION
    else:
        records = classify.one_norm_bound_audit(spec, workers=workers)
        data["readings"] = {
            record.reading: _state_file(args.out, record.reading, _json(record))
            for record in records
        }
        # deterministic regression point: the bound under reading A fails here
        # while the state stays entangled, so the audit always has a witness
        werner = classify.one_norm_report(states.werner_state(0.9))
        data["werner_regression"] = {"mixing_weight": 0.9, **werner}
    header = _run_header(
        "audit", seed=spec.seed, ensemble=spec.describe(), count=spec.count, workers=workers
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


def _cmd_sweep(args) -> int:
    r = args.resolution
    if r < 2:
        raise _UsageError(f"--resolution must be at least 2, got {r}")
    grid = classify.sweep_grid(r, _parse_fix(args.fix))
    # the rows stream a chunk of points at a time
    header = _run_header("sweep", count=len(grid))
    _write_csv(args.out, header, classify.SWEEP_COLUMNS, classify.sweep(grid, r))
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
    _add_point_flags(canonical)
    canonical.add_argument("--theta", type=float, default=0.0, help="phase in [0, pi]")
    canonical.add_argument("--format", choices=("json", "csv"), default="json")
    canonical.add_argument("--out", default=None, help="output path (default: stdout)")
    canonical.set_defaults(func=_cmd_canonical)

    classify_cmd = subs.add_parser(
        "classify",
        help="label a zero-phase canonical point by the coherence-difference criterion",
    )
    _add_point_flags(classify_cmd)
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
        if getattr(args, "out", None) == "":  # its temporary file would go to the parent directory
            parser.error("argument --out: must name a file, got ''")
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
    except Exception as exc:
        # any other failure is a fault of this program, not a claim violation (1);
        # traceback is imported here because no other path of a run loads it
        import traceback

        sys.stderr.write(f"qcohere: internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return EXIT_SOFTWARE


def entry():
    # the process ends after main(), so the objects the imports made live until
    # then: in the permanent generation, the collections at shutdown and in
    # forked pool workers skip them.  Library callers and main() freeze nothing
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
