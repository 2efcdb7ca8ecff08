"""qcohere benchmark: runs the CLI as users do and reports its metrics.

    python3 bench/run.py --workload chain-ginibre --seed 7 --seconds 32 --trace 0
    python3 bench/run.py                # every workload, both modes, full size
    python3 bench/run.py --smoke        # every workload, both modes, tiny sizes

Every CLI run is a fresh ``python3 -m qcohere.cli`` process on the sources
under ``src/``, launched one after another from this process: a closed loop
with one client.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, rescaled by the host speed that ``reference.py`` gauges
between runs; ``--trace 1`` alternates untraced runs with runs under
``tracing.py`` at 1 worker and reports the per-layer metrics.  Every run's
output is checked (``checks.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"

MIN_RUNS = 3  # timed CLI runs at least, whatever --seconds says
REFERENCE_S = 1.0  # timings are rescaled to a host on which one reference.py copy takes this long
MIN_TRACED_RUNS = 2  # so the call counts can be compared between two traced runs
RUN_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI arguments before the size, seed and output flags
    size_flag: str  # "--n" (items = n) or "--resolution" (items = C(R + 4, 4))
    size: int
    smoke_size: int
    workers: int  # QCOHERE_WORKERS of the end-to-end runs; traced runs use 1
    default_seed: Optional[int]  # the README's seed; None: the input takes no seed
    out_name: str
    check: Callable

    def argv(self, size, seed, out) -> list:
        argv = [*self.args, self.size_flag, str(size)]
        if self.default_seed is not None:
            argv += ["--seed", str(seed)]
        return argv + ["--out", str(out)]

    def items(self, size) -> int:
        return size if self.size_flag == "--n" else math.comb(size + 4, 4)


# Sizes give one end-to-end CLI run of about 3 s on a 2-core Xeon.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scatter-ginibre",
            ("sample", "--ensemble", "ginibre", "--rank", "4"),
            "--n", 12000, 300, 2, 42, "scatter.csv", checks.scatter,
        ),
        Workload(
            "chain-ginibre",
            ("audit", "--target", "theorem1-chain", "--ensemble", "ginibre"),
            "--n", 3000, 30, 1, 7, "chain.json", checks.chain,
        ),
        Workload(
            "onenorm-pure",
            ("audit", "--target", "appendix-a", "--ensemble", "pure"),
            "--n", 18000, 200, 1, 3, "onenorm.json", checks.one_norm,
        ),
        Workload(
            "sweep-grid", ("sweep",), "--resolution", 29, 4, 1, None, "sweep.csv", checks.sweep,
        ),
    )
}

# Per-layer metrics: span names whose summed self time, per item, gives the metric.
SELF_TIME_GROUPS = {
    "states.rng_us_per_item": ("states.sample_rng",),
    "states.draw_us_per_item": ("states.ginibre_density", "states.haar_pure_state"),
    "states.validate_us_per_item": ("states.DensityMatrix.__init__",),
    "measures.concurrence_us_per_item": ("measures.concurrence",),
    "measures.chain_us_per_item": ("measures.inequality_chain",),
    "classify.discriminate_us_per_item": ("classify.discriminate", "classify.coherence_difference"),
    "classify.window_checks_us_per_item": (
        "classify.concurrence_sum_check",
        "classify.coherence_product_check",
        "classify.coherence_monogamy_check",
        "classify.parameter_witness",
    ),
    "classify.one_norm_us_per_item": ("classify.one_norm_margins",),
    "classify.observables_us_per_item": ("classify.observables_expectations",),
}
# Deterministic counters: calls of one span name per item.
CALL_COUNTS = {
    "linalg.eigen_calls_per_item": "linalg.hermitian_eigen",
    "linalg.singular_values_calls_per_item": "linalg.singular_values",
    "states.validate_calls_per_item": "states.DensityMatrix.__init__",
    "measures.concurrence_calls_per_item": "measures.concurrence",
    "classify.observables_calls_per_item": "classify.observables_expectations",
}


@dataclass
class Run:
    kind: str  # "setup", "timed", "reference", "traced" or "untraced"
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list = field(default_factory=list)
    digest: Optional[str] = None
    layers: Optional[dict] = None
    calls: Optional[dict] = None


def _child_env(workers, tmp) -> dict:
    return dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        QCOHERE_WORKERS=str(workers),
        TMPDIR=str(tmp),
    )


def _launch(cmd, env, work):
    """Run one process to completion: (exit code, wall s, CPU s, peak RSS MB, stdout).

    CPU time and peak RSS come from wait4, so they include the pool workers
    the process reaped.
    """
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; record its status so Popen does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-500:]
        sys.stderr.write(f"exit {proc.returncode}: {' '.join(map(str, cmd))}\n{tail}\n")
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, stdout


def reference_run(copies) -> Run:
    """`copies` concurrent copies of the reference job, one per process the
    workload keeps busy, so that both wait for CPUs the same way.  Its wall
    time and its mean CPU time per copy are kept."""
    cmd = [sys.executable, str(BENCH / "reference.py")]
    start = time.perf_counter()
    procs = [subprocess.Popen(cmd, cwd=ROOT) for _ in range(copies)]
    timers = [threading.Timer(RUN_TIMEOUT_S, p.kill) for p in procs]
    codes, cpus = [], []
    try:
        for timer in timers:
            timer.start()
        for p in procs:
            _, status, usage = os.wait4(p.pid, 0)
            # wait4 reaped the child; record its status so Popen does not wait again
            p.returncode = os.waitstatus_to_exitcode(status)
            codes.append(p.returncode)
            cpus.append(usage.ru_utime + usage.ru_stime)
    finally:
        for timer in timers:
            timer.cancel()
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.wait()
    if any(codes):
        raise RuntimeError(f"reference job exited with {codes}")
    return Run("reference", time.perf_counter() - start, statistics.fmean(cpus), 0.0)


def setup_run(work) -> Run:
    """One `qcohere --version` process: interpreter start and package import."""
    cmd = [sys.executable, "-m", "qcohere.cli", "--version"]
    code, wall, cpu, rss, stdout = _launch(cmd, _child_env(1, work), work)
    run = Run("setup", wall, cpu, rss)
    if code != 0 or not stdout.startswith("qcohere "):
        run.problems.append(f"--version exited {code} with {stdout!r}")
    return run


def workload_run(wl, size, seed, work, kind, workers) -> Run:
    out = work / wl.out_name
    argv = wl.argv(size, seed, out)
    spans = work / "spans.npz"
    for stale in (out, spans):  # a run that writes nothing must not pass on old output
        stale.unlink(missing_ok=True)
    if kind == "traced":
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "qcohere.cli", *argv]
    code, wall, cpu, rss, stdout = _launch(cmd, _child_env(workers, work), work)
    run = Run(kind, wall, cpu, rss)
    if code != 0:
        run.problems.append(f"exit code {code}")
        return run
    try:
        run.digest, run.problems = wl.check(out, stdout, seed, size)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        run.problems.append(f"output unreadable: {exc!r}")
    if kind == "traced":
        names, table, package = tracing.load(spans)
        if not Path(package).resolve().is_relative_to(ROOT / "src"):
            run.problems.append(f"traced a qcohere outside the checkout: {package}")
        run.layers, run.calls = layer_metrics(tracing.aggregate(names, table), wl.items(size))
    return run


def layer_metrics(agg, items):
    """Per-layer metrics of one traced run, and its raw call counts."""
    calls, self_ns = agg["calls"], agg["self_ns"]
    us = lambda names: sum(self_ns.get(n, 0.0) for n in names) / 1e3  # noqa: E731
    metrics = {name: us(group) / items for name, group in SELF_TIME_GROUPS.items()}
    metrics.update({name: calls.get(span, 0) / items for name, span in CALL_COUNTS.items()})
    eigen_calls = calls.get("linalg.hermitian_eigen", 0)
    metrics["linalg.eigen_us_per_call"] = (
        us(("linalg.hermitian_eigen",)) / eigen_calls if eigen_calls else 0.0
    )
    for layer in tracing.LAYERS:
        layer_us = us([n for n in self_ns if n.split(".", 1)[0] == layer])
        metrics[f"{layer}.self_us_per_item"] = layer_us / items
        metrics[f"{layer}.self_share"] = layer_us * 1e3 / agg["wall_ns"]
    return metrics, calls


def _flag_digest_mismatch(runs):
    """The data section must be byte-identical across every run of a set."""
    reference = next((r.digest for r in runs if r.digest is not None), None)
    for r in runs:
        if r.digest is not None and r.digest != reference:
            r.problems.append("data section differs from the first run of this set")


def _run_for(seconds, min_runs, make_run):
    """Closed loop: start the next run while it is expected to end within `seconds`."""
    runs = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        runs.append(make_run(len(runs)))
        now = time.perf_counter()
        if len(runs) >= min_runs and now - start + (now - began) > seconds:
            break
    _flag_digest_mismatch(runs)
    return runs


def measure(wl, size, seed, seconds, work):
    """End-to-end metrics of one workload; returns (metrics, every Run made).

    Each iteration is a `--version` run, a workload run and a reference run,
    so set-up is sampled across the same stretch of time as the workload.
    The host's CPU speed drifts in bursts and over minutes (bench/README.md).
    Every timing is therefore rescaled by REFERENCE_S over the mean of the
    reference runs just before and after it, and then the median is taken.
    Wall times are rescaled by the reference's wall time and CPU times by its
    CPU time: the kernel leaves time stolen by the hypervisor out of a
    process's CPU time, so a steal burst during a reference run must not
    rescale a CPU time that never contained it.
    """
    warmup = setup_run(work)  # compiles bytecode, which users pay once per install
    references = [reference_run(wl.workers)]
    setups = []

    def one_iteration(_):
        setups.append(setup_run(work))
        run = workload_run(wl, size, seed, work, "timed", wl.workers)
        references.append(reference_run(wl.workers))
        return run

    runs = _run_for(seconds, MIN_RUNS, one_iteration)

    def scaled(measured, clock):
        """Median of the `clock` field ("wall_s" or "cpu_s"), each rescaled
        by the same field of the reference runs around it."""
        refs = [getattr(r, clock) for r in references]
        scales = [2.0 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
        return statistics.median(getattr(r, clock) * k for r, k in zip(measured, scales))

    setup_s = scaled(setups, "wall_s")
    wall_s = scaled(runs, "wall_s")
    metrics = {
        "wall_s": wall_s,
        "items_per_s": wl.items(size) / (wall_s - setup_s),
        "setup_s": setup_s,
        "cpu_s": scaled(runs, "cpu_s"),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }
    return metrics, [warmup, *setups, *runs, *references]


def measure_layers(wl, size, seed, seconds, work):
    """Per-layer metrics: traced and untraced runs alternate, all at 1 worker.

    Timings are medians over the traced runs; the call counts must repeat
    exactly from one traced run to the next.
    """
    warmup = setup_run(work)
    runs = _run_for(
        seconds,
        2 * MIN_TRACED_RUNS - 1,
        lambda i: workload_run(wl, size, seed, work, ("traced", "untraced")[i % 2], 1),
    )
    traced = [r for r in runs if r.layers is not None]
    plain = [r for r in runs if r.kind == "untraced"]
    for r in traced[1:]:
        if r.calls != traced[0].calls:
            r.problems.append("call counts differ between two traced runs of the same input")
    metrics = {}
    if traced:
        metrics = {
            name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in plain)
            - 1.0
        )
    return metrics, [warmup, *runs]


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu_model = models[0] if models else cpu_model
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


def run_workload(wl, size, seed, seconds, trace):
    """One measurement in a scratch directory inside the checkout, removed afterwards."""
    work = BENCH / ".work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return measure_layers(wl, size, seed, seconds, work)
        return measure(wl, size, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_runs(runs):
    for kind in ("setup", "timed", "reference", "untraced", "traced"):
        walls = [r.wall_s for r in runs if r.kind == kind]
        if walls:
            print(
                f"  {kind} runs: {len(walls)}, wall s min {min(walls):.4f}"
                f" median {statistics.median(walls):.4f}: "
                + " ".join(f"{w:.4f}" for w in walls)
            )
    for r in runs:
        for problem in r.problems:
            print(f"  FAILED {r.kind} run: {problem}")


def main(argv=None) -> int:
    # on SIGTERM, unwind so that the running child process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=None, help="default: the README seed")
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: run_seconds, or 0 with --smoke"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="default: both")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else spec["run_seconds"]
    if not (ROOT / "src" / "qcohere" / "cli.py").is_file():
        sys.stderr.write(f"bench: no qcohere sources under {ROOT / 'src'}\n")
        return 2
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    single = len(names) * len(traces) == 1
    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    attempted = failed = 0
    results = {}
    for name in names:
        wl = WORKLOADS[name]
        size = wl.smoke_size if args.smoke else wl.size
        seed = args.seed if args.seed is not None else wl.default_seed
        record = {
            "workload": name,
            "QCOHERE_WORKERS": wl.workers,
            "seed": seed if wl.default_seed is not None else None,
            wl.size_flag.lstrip("-"): size,
            "items": wl.items(size),
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        }
        print("# workload " + json.dumps(record))
        for trace in traces:
            metrics, all_runs = run_workload(wl, size, seed, args.seconds, trace)
            runs = [r for r in all_runs if r.kind != "reference"]  # timed along, not attempted
            bad = sum(bool(r.problems) for r in runs)
            if not bad and set(metrics) != set(declared[trace]):
                differ = sorted(set(declared[trace]) ^ set(metrics))
                sys.stderr.write(f"bench: metrics differ from BENCHMARK.json: {differ}\n")
                return 3
            attempted += len(runs)
            failed += bad
            print(f"{name} --trace {trace}")
            _print_runs(all_runs)
            print(f"  {'fail_ratio':40s} {bad / len(runs):.6g} ratio ({bad} of {len(runs)} runs)")
            for metric, unit in declared[trace].items():
                if metric not in metrics:
                    continue
                print(f"  {metric:40s} {metrics[metric]:.6g} {unit}")
                key = metric if single else f"{name}/{metric}"
                results[key] = {"value": metrics[metric], "unit": unit}
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": results}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
