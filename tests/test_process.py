"""What a fresh process gets from importing the package or starting the CLI.

Each test starts its own interpreter with an explicit environment: this
process may already have imported ``qcohere.cli``, which sets the BLAS
thread variable, and numpy, which reads it once as it loads.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"


def _run(code: str, blas_threads=None) -> dict:
    """Run ``code`` in a fresh interpreter; the JSON object it prints last."""
    env = {k: v for k, v in os.environ.items() if k != BLAS_THREADS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env[BLAS_THREADS_ENV] = blas_threads
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_numpy_and_changes_no_environment():
    result = _run(
        """
        import importlib, json, os, sys
        before = dict(os.environ)
        import qcohere
        seen = {"numpy": "numpy" in sys.modules, "environ": dict(os.environ) == before}
        seen["dir"] = set(qcohere.__all__) <= set(dir(qcohere))
        seen["mismatched"] = [
            name for name, module in qcohere._EXPORTS.items()
            if getattr(qcohere, name) is not getattr(
                importlib.import_module(f"qcohere.{module}"), name
            )
        ]
        seen["environ_after_exports"] = dict(os.environ) == before
        seen["all"] = list(qcohere.__all__) == list(qcohere._EXPORTS)
        print(json.dumps(seen))
        """
    )
    assert result == {
        "numpy": False,
        "environ": True,
        "dir": True,
        "mismatched": [],
        "environ_after_exports": True,
        "all": True,
    }


_ENTRIES = {
    # the console script imports the module; ``python -m`` runs it as __main__
    "import": "import qcohere.cli",
    "python-m": """
        import runpy
        sys.argv = ["qcohere", "--version"]
        try:
            runpy.run_module("qcohere.cli", run_name="__main__")
        except SystemExit as exc:
            assert exc.code in (0, None), exc.code
    """,
}


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize("caller, expected", [(None, "1"), ("2", "2")], ids=["unset", "caller"])
def test_the_cli_runs_blas_on_one_thread_unless_the_caller_says(entry, caller, expected):
    code = "import gc, json, os, sys\n" + textwrap.dedent(_ENTRIES[entry]) + textwrap.dedent(
        """
        status = "/proc/self/status"
        threads = None
        if os.path.exists(status):
            with open(status) as fh:
                threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
        print(json.dumps({"numpy": "numpy" in sys.modules,
                          "value": os.environ.get("OPENBLAS_NUM_THREADS"),
                          "threads": threads,
                          "frozen": gc.get_freeze_count()}))
        """
    )
    result = _run(code, blas_threads=caller)
    assert result["numpy"] and result["value"] == expected
    # only the entry point freezes the import-time heap; an import leaves the collector alone
    assert (result["frozen"] > 0) == (entry == "python-m"), result["frozen"]
    if caller is None:
        if result["threads"] is None:
            pytest.skip("no /proc/self/status to count the process's threads")
        assert result["threads"] == 1


@pytest.mark.parametrize("numpy_first, expected", [(True, "unknown"), (False, "1")])
def test_the_header_says_unknown_when_numpy_was_loaded_before_the_cli(numpy_first, expected):
    # numpy reads the thread variable only as it loads, so the CLI's own setting
    # says nothing about a numpy that was already loaded
    code = ("import numpy\n" if numpy_first else "") + textwrap.dedent(
        """
        import json
        from qcohere import cli
        print(json.dumps({"blas_threads": cli._run_header("x")["blas_threads"]}))
        """
    )
    assert _run(code)["blas_threads"] == expected


def test_a_forked_run_loads_no_multiprocessing(tmp_path):
    # the workers are forked by the engine itself, so no start method is involved
    result = _run(
        f"""
        import contextlib, io, json, os, sys
        from qcohere import classify, cli
        classify._cpu_count = lambda: 2
        os.environ["QCOHERE_WORKERS"] = "2"
        forks = []
        start = classify._start_worker
        classify._start_worker = lambda *args: forks.append(1) or start(*args)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sample", "--n", "600", "--seed", "1",
                             "--out", {str(tmp_path / "w2.csv")!r}])
        loaded = sorted(m for m in sys.modules if m.split(".")[0] in
                        ("multiprocessing", "concurrent"))
        print(json.dumps({{"code": code, "forks": len(forks), "loaded": loaded}}))
        """
    )
    assert result == {"code": 0, "forks": 2, "loaded": []}
