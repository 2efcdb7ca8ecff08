"""End-to-end CLI tests: output formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import platform
import re

import numpy as np
import pytest

from qcohere import classify, cli, linalg, measures, states
from qcohere.states import CanonicalThreeQubit, PureState, _haar_vectors, werner_state


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def parse_rows(csv_text):
    return list(csv.DictReader(io.StringIO("\n".join(data_lines(csv_text)))))


def _fmt(x):
    """One cell on its own: the shortest decimal that round-trips the double."""
    return repr(float(x))


def json_data(text):
    obj = json.loads(text)
    assert set(obj) == {"run_header", "data"}
    header = obj["run_header"]
    assert header["tool"] == "qcohere"
    assert "timestamp" in header
    return obj["data"]


def test_sample_reruns_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run(capsys, ["sample", "--n", "10", "--ensemble", "ginibre",
                               "--rank", "1", "--seed", "7", "--out", str(out1)])
    code2, _, _ = run(capsys, ["sample", "--n", "10", "--ensemble", "ginibre",
                               "--rank", "1", "--seed", "7", "--out", str(out2)])
    assert code1 == code2 == 0
    assert data_lines(out1.read_text()) == data_lines(out2.read_text())


def test_sample_pure_has_no_violations(tmp_path, capsys):
    out = tmp_path / "pure.csv"
    code, stdout, _ = run(capsys, ["sample", "--n", "500", "--ensemble", "pure",
                                   "--seed", "42", "--out", str(out)])
    assert code == 0
    data = json_data(stdout)
    assert data["violations"] == 0
    assert data["min_margin"] >= 0.0
    rows = parse_rows(out.read_text())
    assert len(rows) == 500
    # values round-trip exactly and respect the inequality row by row
    for row in rows:
        conc, coh = float(row["concurrence"]), float(row["l1_coherence"])
        assert conc <= coh + 1e-9
    # oracle re-check of the minimal-margin state: rebuild it by index and
    # evaluate both measures through independent routes
    k = data["min_margin_index"]
    target = rows[k]
    assert float(target["l1_coherence"]) - float(target["concurrence"]) == pytest.approx(
        data["min_margin"], abs=1e-12
    )
    amp = _haar_vectors(42, k, k + 1, 4)[0]
    oracle_conc = 2.0 * abs(amp[0] * amp[3] - amp[1] * amp[2])
    m = np.outer(amp, amp.conj())
    oracle_coh = float(np.abs(m).sum() - np.abs(np.diagonal(m)).sum())
    assert float(target["concurrence"]) == pytest.approx(oracle_conc, abs=1e-8)
    assert float(target["l1_coherence"]) == pytest.approx(oracle_coh, abs=1e-10)


def test_sample_header_comments_embed_run_metadata(tmp_path, capsys):
    out = tmp_path / "meta.csv"
    run(capsys, ["sample", "--n", "5", "--seed", "3", "--out", str(out)])
    comments = [line for line in out.read_text().splitlines() if line.startswith("#")]
    fields = dict(line[2:].split(": ", 1) for line in comments)
    assert {"tool", "version", "command", "seed", "ensemble", "count",
            "generator", "workers", "blas_threads", "numpy", "python", "timestamp"} <= set(fields)
    assert fields["numpy"] == np.__version__
    assert fields["python"] == platform.python_version()


def test_audit_header_names_workers_and_versions(capsys, monkeypatch):
    # this process loaded numpy before the CLI module; a CLI process does not
    monkeypatch.setattr(cli, "_NUMPY_CAME_FIRST", False)
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    monkeypatch.setenv(cli.BLAS_THREADS_ENV, "3")
    _, stdout, _ = run(capsys, ["audit", "--target", "appendix-a", "--n", "20",
                                "--ensemble", "pure", "--seed", "3"])
    header = json.loads(stdout)["run_header"]
    assert header["workers"] == 2
    assert header["blas_threads"] == "3"
    assert header["numpy"] == np.__version__
    assert header["python"] == platform.python_version()
    assert not {"workers", "blas_threads", "numpy", "python"} & set(json_data(stdout))


def test_header_blas_threads_is_none_without_the_variable(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_NUMPY_CAME_FIRST", False)
    monkeypatch.delenv(cli.BLAS_THREADS_ENV, raising=False)
    _, stdout, _ = run(capsys, ["classify", "--lambdas", "0.3,0.2,0.25,0.35,auto"])
    assert json.loads(stdout)["run_header"]["blas_threads"] is None


@pytest.mark.usefixtures("deadline")
def test_sample_sharded_run_matches_single_worker(tmp_path, capsys, monkeypatch):
    argv = ["sample", "--n", "600", "--ensemble", "ginibre", "--seed", "5"]
    sections, headers = [], []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv(cli.WORKERS_ENV, workers)
        out = tmp_path / f"w{workers}.csv"
        assert run(capsys, [*argv, "--out", str(out)])[0] == 0
        text = out.read_text()
        sections.append(data_lines(text))
        headers.append([line for line in text.splitlines() if line.startswith("# workers:")])
    assert sections[0] == sections[1] == sections[2]
    assert headers == [["# workers: 1"], ["# workers: 2"], ["# workers: 3"]]


def test_canonical_example_values(capsys):
    code, stdout, _ = run(capsys, ["canonical", "--lambdas", "0.6,0.2,0.3,0.5", "--theta", "0"])
    assert code == 0
    data = json_data(stdout)
    assert data["analytic"]["coh_ab"] == pytest.approx(1.345941, abs=1e-6)
    assert data["matrix"]["coh_ab"] == pytest.approx(1.345941, abs=1e-6)
    assert data["residuals"]["coh_ab"] <= 1e-10
    assert data["params"]["lambdas"][4] == pytest.approx(math.sqrt(0.26), abs=1e-12)


def test_canonical_ghz_tangle(capsys):
    code, stdout, _ = run(capsys, ["canonical", "--lambdas",
                                   "0.70710678,0,0,0,0.70710678", "--theta", "0"])
    assert code == 0
    data = json_data(stdout)
    assert data["matrix"]["tangle"] == pytest.approx(1.0, abs=1e-8)
    assert data["analytic"]["tangle"] == pytest.approx(1.0, abs=1e-8)


def test_canonical_nonzero_phase_compares_tangle_only(capsys):
    code, stdout, _ = run(capsys, ["canonical", "--lambdas", "0.6,0.2,0.3,0.5",
                                   "--theta", "1.0471976"])
    assert code == 0
    data = json_data(stdout)
    assert data["analytic"]["c_ab"] is None
    assert list(data["residuals"]) == ["tangle"]
    assert data["residuals"]["tangle"] <= 1e-8


def test_canonical_csv_format(capsys):
    code, stdout, _ = run(capsys, ["canonical", "--lambdas", "0.6,0.2,0.3,0.5,auto",
                                   "--format", "csv"])
    assert code == 0
    rows = parse_rows(stdout)
    assert len(rows) == 1
    assert float(rows[0]["matrix_coh_ab"]) == pytest.approx(1.345941, abs=1e-6)


def test_canonical_rejects_bad_normalization(capsys):
    code, _, err = run(capsys, ["canonical", "--lambdas", "0.5,0.5,0.5,0.6,0.1"])
    assert code == 65
    assert "deviation" in err


@pytest.mark.parametrize("command", ["canonical", "classify"])
def test_normalize_last_is_gone_and_auto_completes_lambda4(capsys, command):
    code, stdout, err = run(capsys, [command, "--lambdas", "0.6,0.2,0.3,0.5",
                                     "--normalize-last"])
    assert code == 64
    assert stdout == ""
    assert "--normalize-last" in err
    code, stdout, _ = run(capsys, [command, "--lambdas", "0.6,0.2,0.3,0.5,auto"])
    assert code == 0
    assert json_data(stdout)["params"]["lambdas"][4] == pytest.approx(math.sqrt(0.26), abs=1e-12)


def test_classify_labels(capsys):
    code, stdout, _ = run(capsys, ["classify", "--lambdas", "0.3,0.2,0.25,0.35,auto"])
    assert code == 0
    data = json_data(stdout)
    assert data["case_label"] == "CaseI-GHZ-witness"
    assert data["coherence_difference"] == pytest.approx(-0.065529, abs=1e-6)

    _, stdout, _ = run(capsys, ["classify", "--lambdas", "0.57735027,0,0.57735027,0.57735027,0"])
    assert json_data(stdout)["case_label"] == "boundary"

    _, stdout, _ = run(capsys, ["classify", "--lambdas", "0.6,0.2,0.3,0.5"])
    assert json_data(stdout)["case_label"] == "CaseI-W-consistent"

    # the GHZ sign pattern at lambda0 = 0, where the state is A|BC biseparable
    code, stdout, _ = run(capsys, ["classify", "--lambdas", "0,0.3,0.2,0.4,auto"])
    assert code == 0
    data = json_data(stdout)
    assert data["factored_difference"][0] > 0.0 > data["factored_difference"][1]
    assert (data["case_label"], data["tangle"]) == ("boundary", 0.0)


def test_classify_rejects_nonzero_theta(capsys):
    # discrimination is defined at zero phase only, so classify has no --theta flag
    for theta in ("0.5", "0"):
        code, stdout, err = run(capsys, ["classify", "--lambdas", "0.3,0.2,0.25,0.35,auto",
                                         "--theta", theta])
        assert code == 64
        assert stdout == ""
        assert "--theta" in err


def test_audit_smoke_runs(capsys):
    for target in ("theorem1-chain", "appendix-a"):
        code, stdout, _ = run(capsys, ["audit", "--target", target, "--n", "1",
                                       "--ensemble", "ginibre", "--seed", "1"])
        assert code == 0
        data = json_data(stdout)
        assert data["count"] == 1
        assert data["target"] == target


def test_audit_chain_reports_links_and_passes_end_to_end(capsys):
    code, stdout, _ = run(capsys, ["audit", "--target", "theorem1-chain", "--n", "300",
                                   "--ensemble", "ginibre", "--seed", "11"])
    assert code == 0
    data = json_data(stdout)
    links = data["links"]
    assert data["end_to_end_violations"] == 0
    assert links["concurrence_le_l1_coherence"]["violations"] == 0
    # the literal trace-of-square reading fails constantly; that is reported,
    # not fatal
    assert links["smax_le_trace_of_square"]["violations"] > 0
    assert "worst_case" in links["smax_le_trace_of_square"]


def test_audit_one_norm_writes_worst_case_files(tmp_path, capsys):
    out = tmp_path / "audit.json"
    code, _, _ = run(capsys, ["audit", "--target", "appendix-a", "--n", "400",
                              "--ensemble", "pure", "--seed", "3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())["data"]
    reading_a = data["readings"]["A"]
    assert reading_a["violations_found"] > 0
    worst_name = reading_a["worst_case"]["state_file"]
    assert (tmp_path / worst_name).exists()
    werner = data["werner_regression"]
    assert werner["violated_a"] and not werner["violated_b"]
    assert werner["induced_one_norm"] == pytest.approx(0.925, abs=1e-12)


def test_audit_state_file_paths(tmp_path, capsys):
    werner_path = tmp_path / "werner.json"
    werner_path.write_text(json.dumps(werner_state(0.9).to_json_dict()))
    code, stdout, _ = run(capsys, ["audit", "--target", "appendix-a",
                                   "--state-file", str(werner_path)])
    assert code == 0
    data = json_data(stdout)
    assert data["violated_a"] and not data["violated_b"]
    assert data["entangled"]

    bell_path = tmp_path / "bell.json"
    s2 = 1.0 / math.sqrt(2.0)
    bell = PureState([s2, 0.0, 0.0, s2]).density()
    bell_path.write_text(json.dumps(bell.to_json_dict()))
    code, stdout, _ = run(capsys, ["audit", "--target", "theorem1-chain",
                                   "--state-file", str(bell_path)])
    assert code == 0
    chain = json_data(stdout)["chain"]
    assert chain["concurrence"] == pytest.approx(1.0, abs=1e-10)
    assert chain["links"]["concurrence_le_l1_coherence"]["holds"]


def test_audit_state_file_refuses_the_ensemble_flags(tmp_path, capsys):
    # one state is audited, so a flag that shapes an ensemble has nothing to act
    # on; given at its default value too, it is refused and named
    path = tmp_path / "werner.json"
    path.write_text(json.dumps(werner_state(0.9).to_json_dict()))
    for target in ("appendix-a", "theorem1-chain"):
        for flags in (["--ensemble", "pure", "--rank", "2"], ["--n", "0"], ["--seed", "0"],
                      ["--ensemble", "ginibre"], ["--n", "100000", "--seed", "7"]):
            argv = ["audit", "--target", target, "--state-file", str(path), *flags]
            code, stdout, err = run(capsys, argv)
            assert (code, stdout) == (64, ""), argv
            assert all(flag in err for flag in flags[::2]), err
    # without a state file, the flags not given still take their defaults
    args = cli.build_parser().parse_args(["audit", "--target", "appendix-a"])
    assert cli._resolve_ensemble(args) == states.EnsembleSpec("ginibre", 0, 100_000)
    args = cli.build_parser().parse_args(["sample", "--ensemble", "pure"])
    assert cli._resolve_ensemble(args) == states.EnsembleSpec("haar-pure", 0, 100_000)


# SHA-256 of the data section of ``audit --target theorem1-chain --state-file``
# on ``werner_state(0.7)``, dumped as the CLI dumps it, without its
# ``state_file`` path.  Captured before the chain report was serialized from
# its own fields.
_CHAIN_STATE_FILE_DIGEST = "6693692b2e1f812bba5de6b31a07c2797ddf9cb4d0a4fe56f287cae2713ac55f"


def test_chain_state_file_data_section_is_pinned(tmp_path, capsys):
    path = tmp_path / "werner.json"
    path.write_text(json.dumps(werner_state(0.7).to_json_dict()))
    code, stdout, _ = run(capsys, ["audit", "--target", "theorem1-chain",
                                   "--state-file", str(path)])
    assert code == 0
    data = json_data(stdout)
    assert data.pop("state_file") == str(path)
    digest = hashlib.sha256(json.dumps(data, indent=2, sort_keys=True).encode()).hexdigest()
    assert digest == _CHAIN_STATE_FILE_DIGEST


def test_audit_state_file_rejects_invalid_state(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0, 0, 0, 0]}')
    code, _, err = run(capsys, ["audit", "--target", "appendix-a",
                                "--state-file", str(bad)])
    assert code == 65
    assert "trace" in err

    float_dim = tmp_path / "float-dim.json"
    float_dim.write_text(json.dumps({**werner_state(0.9).to_json_dict(), "dim": 4.0}))
    code, _, err = run(capsys, ["audit", "--target", "theorem1-chain",
                                "--state-file", str(float_dim)])
    assert code == 65
    assert "needs an integer dim, got 4.0" in err

    # a string holding a number is no JSON number, though this one makes I/4 as a float
    string_entry = tmp_path / "string-entry.json"
    obj = werner_state(0.0).to_json_dict()
    obj["re"][0] = "0.25"
    string_entry.write_text(json.dumps(obj))
    code, _, err = run(capsys, ["audit", "--target", "theorem1-chain",
                                "--state-file", str(string_entry)])
    assert code == 65
    assert "needs numbers in re/im, got '0.25'" in err

    code, _, _ = run(capsys, ["audit", "--target", "appendix-a",
                              "--state-file", str(tmp_path / "missing.json")])
    assert code == 2


def test_sweep_w_slice_has_no_ghz_witnesses(capsys):
    code, stdout, _ = run(capsys, ["sweep", "--resolution", "6", "--fix", "lambda4=0"])
    assert code == 0
    rows = parse_rows(stdout)
    assert rows
    assert all("GHZ" not in row["case_label"] for row in rows)


def test_sweep_tied_amplitudes_zero_the_difference(capsys):
    code, stdout, _ = run(capsys, ["sweep", "--resolution", "6",
                                   "--fix", "lambda2=lambda3"])
    assert code == 0
    rows = parse_rows(stdout)
    assert rows
    assert all(abs(float(row["coherence_difference"])) <= 1e-12 for row in rows)
    assert all(row["case_label"] == "boundary" for row in rows)


def test_sweep_row_count_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["sweep", "--resolution", "5"])
    code2, out2, _ = run(capsys, ["sweep", "--resolution", "5"])
    assert code1 == code2 == 0
    assert data_lines(out1) == data_lines(out2)
    # compositions of 5 into 5 non-negative parts
    assert len(parse_rows(out1)) == math.comb(9, 4)


def test_sweep_walks_the_grid_once(capsys, monkeypatch):
    # the header's count and the rows come from one walk of the integer grid
    walks = []
    grid = classify.sweep_grid

    def counting(*args):
        walks.append(args)
        return grid(*args)

    monkeypatch.setattr(classify, "sweep_grid", counting)
    code, out, _ = run(capsys, ["sweep", "--resolution", "6", "--fix", "lambda4=0"])
    assert code == 0
    assert len(walks) == 1
    # compositions of 6 into the 4 free parts
    assert "# count: 84" in out.splitlines()
    assert len(parse_rows(out)) == math.comb(9, 3)


def test_sweep_overconstrained_grid_fails(capsys):
    code, _, err = run(capsys, ["sweep", "--resolution", "4", "--fix", "lambda0=0.12345"])
    assert code == 65
    assert "no grid points" in err


def test_usage_errors_exit_64(capsys):
    assert run(capsys, ["sample", "--badflag"])[0] == 64
    assert run(capsys, [])[0] == 64
    assert run(capsys, ["sweep", "--resolution", "1"])[0] == 64
    assert run(capsys, ["sample", "--n", "5", "--ensemble", "pure", "--rank", "2"])[0] == 64
    assert run(capsys, ["sweep", "--resolution", "4", "--fix", "bogus"])[0] == 64
    # a non-finite value would compare false against every grid point and drop the constraint
    assert run(capsys, ["sweep", "--resolution", "4", "--fix", "lambda0=nan"])[0] == 64
    assert run(capsys, ["sweep", "--resolution", "4", "--fix", "lambda0=inf"])[0] == 64
    # the ensemble flags are checked by EnsembleSpec; its refusal is a usage error
    for flags in (["--n", "0"], ["--seed", "-1"], ["--seed", "18446744073709551616"],
                  ["--rank", "0"], ["--rank", "5"]):
        assert run(capsys, ["sample", "--n", "5", *flags])[0] == 64, flags


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "5"],
    ["canonical", "--lambdas", "0.6,0.2,0.3,0.5", "--format", "csv"],
    ["audit", "--target", "appendix-a", "--ensemble", "pure", "--n", "5"],
    ["sweep", "--resolution", "4"],
], ids=lambda argv: argv[0])
def test_empty_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # an empty path's temporary file would go to the parent of the working
    # directory, and the rename would fail only after the whole run
    handler = f"_cmd_{argv[0]}"
    ran = []
    command = getattr(cli, handler)
    monkeypatch.setattr(cli, handler, lambda args: ran.append(args) or command(args))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, stdout, err = run(capsys, [*argv, "--out", ""])
    assert (code, stdout, ran) == (64, "", [])
    assert "--out" in err
    assert not list(tmp_path.rglob(".qcohere-*.tmp"))


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.csv"
    code, _, _ = run(capsys, ["sample", "--n", "5", "--seed", "1", "--out", str(target)])
    assert code == 2


def test_out_file_gets_the_umask_mode_without_fchmod(tmp_path, capsys, monkeypatch):
    # Windows Python has os.fchmod only from 3.13
    monkeypatch.delattr(os, "fchmod", raising=False)
    umask = os.umask(0o027)
    try:
        target = tmp_path / "x.csv"
        code, _, _ = run(capsys, ["sample", "--n", "5", "--seed", "1", "--out", str(target)])
    finally:
        os.umask(umask)
    assert code == 0
    assert target.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_json_data_sections_are_reproducible(capsys):
    _, out1, _ = run(capsys, ["audit", "--target", "appendix-a", "--n", "50",
                              "--ensemble", "ginibre", "--seed", "9"])
    _, out2, _ = run(capsys, ["audit", "--target", "appendix-a", "--n", "50",
                              "--ensemble", "ginibre", "--seed", "9"])
    assert json.loads(out1)["data"] == json.loads(out2)["data"]


@pytest.mark.parametrize(
    "argv, per_state",
    [
        (["sample", "--ensemble", "ginibre"], 1),
        (["sample", "--ensemble", "pure"], 0),
        (["audit", "--target", "theorem1-chain", "--ensemble", "ginibre"], 2),
    ],
    ids=["sample-ginibre", "sample-pure", "chain-ginibre"],
)
def test_commands_take_two_solves_per_state(tmp_path, capsys, monkeypatch, solves, argv, per_state):
    # a Ginibre concurrence solves its 4x4 tau product, a pure one solves
    # nothing, and the chain also solves the state's own spectrum; worst-case
    # states redrawn for the chain report cost no solve
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    code, _, _ = run(capsys, [*argv, "--n", "30", "--seed", "7",
                              "--out", str(tmp_path / "out")])
    assert code == 0
    assert solves == [(4, 4)] * per_state * 30


def test_one_norm_audit_solves_only_the_violating_states(tmp_path, capsys, monkeypatch, solves):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    code, _, _ = run(capsys, ["audit", "--target", "appendix-a", "--ensemble", "pure", "--n", "300",
                              "--seed", "3", "--out", str(tmp_path / "out.json")])
    assert code == 0
    violating = 0
    for k in range(300):
        _, _, margin_a, margin_b = classify.one_norm_margins(
            classify.ensemble_state("haar-pure", 3, k, None)
        )
        violating += max(margin_a, margin_b) > classify.AUDIT_TOL
    assert 0 < violating < 300
    # a violating pure state's concurrence takes no solve; the Werner
    # regression block takes two (its eager validation and its tau product)
    assert solves == [(4, 4)] * 2


def test_kernels_get_only_checked_matrices(tmp_path, capsys, monkeypatch, kernel_inputs):
    # the linalg kernels check nothing: every matrix a command hands them must
    # already be finite, square and Hermitian within DensityMatrix's tolerance
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    state = tmp_path / "werner.json"
    state.write_text(json.dumps(werner_state(0.7).to_json_dict()))
    out = ["--out", str(tmp_path / "out")]
    commands = [
        ["sample", "--ensemble", "pure", "--n", "40", "--seed", "7", *out],
        ["sample", "--ensemble", "ginibre", "--n", "40", "--seed", "7", *out],
        ["audit", "--target", "theorem1-chain", "--ensemble", "ginibre", "--n", "40", "--seed", "7", *out],
        ["audit", "--target", "appendix-a", "--ensemble", "pure", "--n", "300", "--seed", "3", *out],
        ["audit", "--target", "theorem1-chain", "--state-file", str(state)],
        ["audit", "--target", "appendix-a", "--state-file", str(state)],
        ["canonical", "--lambdas", "0.6,0.2,0.3,0.5", "--theta", "0"],
        ["canonical", "--lambdas", "0.6,0.2,0.3,0.5", "--theta", "1"],
        ["sweep", "--resolution", "4", *out],
    ]
    seen = set()
    for argv in commands:
        kernel_inputs.clear()
        code, _, err = run(capsys, argv)
        assert code == 0, (argv, err)
        for name, a in kernel_inputs:
            assert a.ndim in (2, 3) and a.shape[-1] == a.shape[-2], (argv, name, a.shape)
            assert np.isfinite(a).all(), (argv, name)
            residual = np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0)
            assert residual <= states.DensityMatrix.HERMITIAN_TOL, (argv, name, residual)
            seen.add(name)
    assert seen == {"hermitian_eigen", "pivoted_cholesky", "induced_one_norm"}


def test_non_hermitian_state_file_is_refused_before_any_kernel(tmp_path, capsys, kernel_inputs):
    path = tmp_path / "skew.json"
    path.write_text('{"dim": 2, "re": [0.5, 0.3, 0.0, 0.5], "im": [0, 0, 0, 0]}')
    for target in ("theorem1-chain", "appendix-a"):
        code, _, err = run(capsys, ["audit", "--target", target, "--state-file", str(path)])
        assert code == 65
        assert "not Hermitian: max |M - M^H| entry is 3.000e-01" in err
    assert kernel_inputs == []


def test_unconverged_solver_exits_70(capsys, monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    code, _, err = run(capsys, ["audit", "--target", "theorem1-chain", "--n", "2",
                                "--ensemble", "ginibre", "--seed", "7"])
    assert code == cli.EXIT_SOFTWARE == 70
    assert err.startswith("qcohere: internal error: ConvergenceError: ")
    assert "did not converge" in err
    assert "Traceback (most recent call last)" in err


def _data_section(path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.dumps(json.loads(text)["data"], indent=2, sort_keys=True)
    return "\n".join(data_lines(text))


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--ensemble", "ginibre", "--n", "300", "--seed", "5"],
        ["audit", "--target", "theorem1-chain", "--ensemble", "ginibre", "--n", "300",
         "--seed", "11"],
        ["audit", "--target", "appendix-a", "--ensemble", "pure", "--n", "400", "--seed", "3"],
        ["sweep", "--resolution", "9"],
        ["sweep", "--resolution", "8", "--fix", "lambda1=lambda3"],
    ],
    ids=["sample", "theorem1-chain", "appendix-a", "sweep", "sweep-tie"],
)
@pytest.mark.usefixtures("deadline")
def test_outputs_match_for_any_worker_count_and_chunk_size(tmp_path, capsys, monkeypatch, argv):
    out = tmp_path / ("out.json" if argv[0] == "audit" else "out.csv")
    default_chunk = classify.CHUNK_SIZE
    # let the pool start every worker asked for, whatever this machine's CPU count
    monkeypatch.setattr(classify, "_cpu_count", lambda: 4)

    def outputs(workers, chunk):
        monkeypatch.setenv(cli.WORKERS_ENV, str(workers))
        monkeypatch.setattr(classify, "CHUNK_SIZE", chunk)
        code, stdout, _ = run(capsys, [*argv, "--out", str(out)])
        sidecars = {p.name: p.read_bytes() for p in sorted(tmp_path.glob("out-worst-*.json"))}
        for p in tmp_path.glob("out-worst-*.json"):
            p.unlink()
        summary = json_data(stdout) if argv[0] == "sample" else None
        return code, _data_section(out), sidecars, summary

    reference = outputs(1, default_chunk)
    assert reference[0] == 0
    if argv[0] == "audit":
        assert reference[2]  # worst-case files were written and are compared too
    worker_counts = (1, 3, 4)
    if argv[0] == "sweep":
        # the sweep always walks at one worker, so only its chunk size varies
        assert "# workers: none\n" in out.read_text()
        worker_counts = (1,)
    for workers in worker_counts:
        for chunk in (1, 7, default_chunk, 4096):
            assert outputs(workers, chunk) == reference, (workers, chunk)


def test_failed_run_leaves_the_out_file_untouched(tmp_path, capsys, monkeypatch):
    out = tmp_path / "scatter.csv"
    out.write_text("previous contents\n")
    draw = classify.ensemble_chunk

    def draw_then_break(kind, seed, lo, hi, rank):
        # chunks of 4 states: rows 0..19 are written before the solver starts failing
        if lo == 20:
            monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
        return draw(kind, seed, lo, hi, rank)

    monkeypatch.setattr(classify, "CHUNK_SIZE", 4)
    monkeypatch.setattr(classify, "ensemble_chunk", draw_then_break)
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    code, _, err = run(capsys, ["sample", "--n", "50", "--ensemble", "ginibre", "--seed", "7",
                                "--out", str(out)])
    assert code == cli.EXIT_SOFTWARE == 70
    assert err.startswith("qcohere: internal error: ConvergenceError: ")
    assert "did not converge" in err
    assert "Traceback (most recent call last)" in err
    assert out.read_text() == "previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scatter.csv"]


def _ensemble_failure(tmp_path, capsys, monkeypatch, workers):
    """Exit code and first stderr line of a failing 50-state ginibre ``sample`` in 13 chunks."""
    out = tmp_path / "scatter.csv"
    out.write_text("previous contents\n")
    monkeypatch.setattr(classify, "CHUNK_SIZE", 4)
    monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
    monkeypatch.setenv(cli.WORKERS_ENV, str(workers))
    code, _, err = run(capsys, ["sample", "--n", "50", "--ensemble", "ginibre", "--seed", "7",
                                "--out", str(out)])
    assert out.read_text() == "previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scatter.csv"]
    return code, err.splitlines()[0]


@pytest.mark.usefixtures("deadline")
def test_a_failing_worker_exits_70_as_the_inline_run_does(tmp_path, capsys, monkeypatch):
    # set before the workers are forked, so each of them fails on its first chunk
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    inline = _ensemble_failure(tmp_path, capsys, monkeypatch, workers=1)
    assert inline[0] == cli.EXIT_SOFTWARE == 70
    assert "did not converge" in inline[1]
    assert _ensemble_failure(tmp_path, capsys, monkeypatch, workers=2) == inline


@pytest.mark.usefixtures("deadline")
def test_a_worker_that_dies_exits_70_naming_its_status(tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    draw = classify.ensemble_chunk

    def die_in_a_worker(kind, seed, lo, hi, rank):
        # chunk 1 is worker 1's first: it ends without writing anything
        if lo == 4 and os.getpid() != parent:
            os._exit(3)
        return draw(kind, seed, lo, hi, rank)

    monkeypatch.setattr(classify, "ensemble_chunk", die_in_a_worker)
    code, first = _ensemble_failure(tmp_path, capsys, monkeypatch, workers=2)
    assert code == cli.EXIT_SOFTWARE
    # worker 0 was killed, unless it had sent all of its chunks and exited
    assert re.fullmatch(
        r"qcohere: internal error: RuntimeError: "
        r"ensemble worker exit codes \[(0|-9), 3\] after 1/13 chunks",
        first,
    ), first
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _seeding_one_bit_off(monkeypatch):
    replica = states._pcg64_states

    def one_bit_off(seed, lo, hi):
        rows = replica(seed, lo, hi)
        rows[0, 0] ^= np.uint64(1)
        return rows

    monkeypatch.setattr(states, "_pcg64_states", one_bit_off)


def _spin_flip_not_psd(monkeypatch):
    # an error no handler of main() names: it must not exit 1, the violation code
    clamp = linalg.clamp_psd_eigenvalues

    def reject_spin_flip(w, context="matrix"):
        if context.startswith("spin-flip"):
            raise linalg.NotPsdError(f"{context} is not positive semidefinite: injected")
        return clamp(w, context)

    monkeypatch.setattr(linalg, "clamp_psd_eigenvalues", reject_spin_flip)


@pytest.mark.parametrize(
    "fault, argv, message",
    [
        (_seeding_one_bit_off, ["sample", "--ensemble", "ginibre"],
         "qcohere: internal error: SeedingError: chunk seeding disagrees"),
        (_spin_flip_not_psd, ["audit", "--target", "theorem1-chain", "--ensemble", "ginibre"],
         "qcohere: internal error: NotPsdError: spin-flip product spectrum is not positive"),
    ],
    ids=["seeding", "not-psd"],
)
def test_internal_failure_exits_70_and_keeps_the_out_file(
    tmp_path, capsys, monkeypatch, fault, argv, message
):
    out = tmp_path / "out.txt"
    out.write_bytes(b"previous contents\n")
    fault(monkeypatch)
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    code, _, err = run(capsys, [*argv, "--n", "50", "--seed", "7", "--out", str(out)])
    assert code == cli.EXIT_SOFTWARE == 70
    assert err.startswith(message)
    assert "Traceback (most recent call last)" in err
    assert out.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_an_inconsistent_tangle_exits_70_with_its_traceback(tmp_path, capsys, monkeypatch):
    # a tangle below -TANGLE_CLAMP is a fault of the construction, not an invalid input (65)
    monkeypatch.setattr(measures, "_ckw_margin", lambda c_cut, c_ab, c_ac: -1.0)
    out = tmp_path / "out.json"
    out.write_bytes(b"previous contents\n")
    code, stdout, err = run(capsys, ["canonical", "--lambdas", "0.6,0.2,0.3,0.5",
                                     "--out", str(out)])
    assert code == cli.EXIT_SOFTWARE == 70
    assert stdout == ""
    assert err.startswith("qcohere: internal error: NumericalInconsistencyError: "
                          "tangle residual -1.000e+00")
    assert "Traceback (most recent call last)" in err
    assert out.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# SHA-256 of the data section (every non-comment line, newline-terminated).
# Captured from the per-point implementation the chunked sweep replaced; the
# unconstrained resolution-29 grid (the benchmark's size, no --fix) from the
# per-cell formatting that the chunk-wide one replaced, and again when the GHZ
# sign at lambda0 = 0 became 'boundary', which moved only those case_label cells.
_SWEEP_DIGESTS = {
    ("10", "lambda4=0"): "0fed194062701879e67c196f6e04db24b35e802db60bb57fd09d073b5a77d7e9",
    ("12", "lambda2=lambda3"): "f70c9c9d8f121f36ae5152f38a7e8781efec1c77d66a49a5fcbd579a84ed42a0",
    ("29", None): "4ca908e6d8f8820256afdb9e3ae7961a7ccb669a25cc48cf2de271da827f6b37",
}


@pytest.mark.parametrize("resolution, fix", sorted(_SWEEP_DIGESTS))
def test_sweep_data_section_is_pinned(capsys, resolution, fix):
    fix_flags = [] if fix is None else ["--fix", fix]
    code, stdout, _ = run(capsys, ["sweep", "--resolution", resolution, *fix_flags])
    assert code == 0
    data = "".join(f"{line}\n" for line in data_lines(stdout))
    assert hashlib.sha256(data.encode()).hexdigest() == _SWEEP_DIGESTS[resolution, fix]


# SHA-256 of the data sections of two ensemble audits written with --out,
# dumped as the CLI dumps them, and of every worst-case file written beside
# them, by the tag in its name.  Captured while the audit records were dataclasses;
# the chain audit's again when each Ginibre state became the outer product of its
# reshaped Haar vector, which moved its entries in the last bits.
_AUDIT_DIGESTS = {
    ("theorem1-chain", "ginibre", "7"): (
        "e3a817850e357769cbcb7c9f55ef8b1004831925c17e213bf6ba17acdd9adf10",
        {
            "concurrence_le_trace_sq_product":
                "1f0e0c66c95d1bfbbac25156ddae82296ad653fc58726f659f7f4c2590a88b5a",
            "induced_one_le_l1_coherence":
                "42947011c5a292556182ac53af4114b769e9890933207381733e061646ca4701",
            "smax_le_trace_of_square":
                "0c989d8b744675f2503740e669620a9bc288bf6006699aeb9341053e000474c1",
            "sqrt_lambda_max_le_smax_product":
                "42e8489c0d1087e7d830b05047d37ee353305ca8d3b4b58e19c057a8587485d8",
            "trace_norm_le_l1_coherence":
                "42947011c5a292556182ac53af4114b769e9890933207381733e061646ca4701",
        },
    ),
    ("appendix-a", "pure", "3"): (
        "11b50caf8b59bbfb433acb8dbf2c8def1b2f66e30040b1435890f7f59d8f7d72",
        {"A": "6dfaf680821c962dd0bc5bfc5058f52fe95252f466ac38e1736ef5d120d7967c"},
    ),
}


@pytest.mark.parametrize("target, ensemble, seed", sorted(_AUDIT_DIGESTS))
def test_audit_data_section_and_worst_cases_are_pinned(
    tmp_path, capsys, monkeypatch, target, ensemble, seed
):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    out = tmp_path / "audit.json"
    code, _, _ = run(capsys, ["audit", "--target", target, "--ensemble", ensemble, "--n", "600",
                              "--seed", seed, "--out", str(out)])
    assert code == 0
    data_digest, worst_digests = _AUDIT_DIGESTS[target, ensemble, seed]
    assert hashlib.sha256(_data_section(out).encode()).hexdigest() == data_digest
    worst = {
        path.stem.removeprefix("audit-worst-"): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("audit-worst-*.json")
    }
    assert worst == worst_digests


# SHA-256 of the data sections of the same two audits written to standard
# output, where every worst-case state is inline, dumped as the CLI dumps them.
# Captured while each result record still wrote its own JSON, before the CLI
# wrote them all from their fields; the chain audit's again when the Ginibre
# states became outer products of reshaped Haar vectors.
_INLINE_AUDIT_DIGESTS = {
    ("theorem1-chain", "ginibre", "7"):
        "2065ff5d6de6fd917002ca34489153744c3438a8839e77cf38ff61bf370b49e9",
    ("appendix-a", "pure", "3"):
        "50e324cdc585fa241e44764056dd2d4bd8e0cffad295eb9da14f0173d015088a",
}


@pytest.mark.parametrize("target, ensemble, seed", sorted(_INLINE_AUDIT_DIGESTS))
def test_audit_data_section_with_inline_worst_cases_is_pinned(
    capsys, monkeypatch, target, ensemble, seed
):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    code, stdout, _ = run(capsys, ["audit", "--target", target, "--ensemble", ensemble,
                                   "--n", "600", "--seed", seed])
    assert code == 0
    data = json.dumps(json_data(stdout), indent=2, sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == _INLINE_AUDIT_DIGESTS[target, ensemble, seed]


# SHA-256 of the ``sample`` data section, as for the sweep.  Captured from the
# per-row formatting that the chunk formatter of the sweep replaced; the two
# Ginibre ones again when the Ginibre states became outer products of reshaped
# Haar vectors, which moved their cells in the last bits.
_SAMPLE_DIGESTS = {
    ("ginibre", "600", "1", None):
        "9d3c59ced1632dd815ee7b50d5d2f37dc2363d71cf44b1a6f872e464c98f9687",
    ("pure", "600", "42", None):
        "e2d5b947c57463d22e57c66db17387eae078ca379cf71e9b7a620ee8b7c26c43",
    ("ginibre", "300", "5", "3"):
        "3ea6b596df77978aae750d75dbd5c225065ac62bfb5a1dad817cbf29d56aa8bd",
}


@pytest.mark.parametrize("ensemble, n, seed, rank", sorted(_SAMPLE_DIGESTS, key=str))
def test_sample_data_section_is_pinned(capsys, monkeypatch, ensemble, n, seed, rank):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    rank_flags = [] if rank is None else ["--rank", rank]
    code, stdout, _ = run(capsys, ["sample", "--ensemble", ensemble, "--n", n, "--seed", seed,
                                   *rank_flags])
    assert code == 0
    data = "".join(f"{line}\n" for line in data_lines(stdout))
    assert hashlib.sha256(data.encode()).hexdigest() == _SAMPLE_DIGESTS[ensemble, n, seed, rank]


def test_rank_one_ginibre_sample_is_the_pure_sample(capsys, monkeypatch):
    # a rank-1 Ginibre state is a Haar pure state, bit for bit
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    sections = []
    for flags in (["--ensemble", "ginibre", "--rank", "1"], ["--ensemble", "pure"]):
        code, stdout, _ = run(capsys, ["sample", *flags, "--n", "600", "--seed", "42"])
        assert code == 0
        sections.append(data_lines(stdout))
    assert len(sections[0]) == 601
    assert sections[0] == sections[1]


# SHA-256 of the data sections of the README's canonical and classify
# examples: the CSV lines as for the sweep, and for JSON the ``data`` object
# dumped as the CLI dumps it.  Captured before the amplitude-list parsing and
# the canonical report moved out of the CLI; the canonical ones again when the
# concurrence moved to the tau matrix, which moved c_ab, c_ac, the tangle and
# their residuals by at most 2.9e-14 (toward the closed forms); the zero-phase
# ones again when the purity became a sum of squared entries, which moved
# purity_ab by one unit in the last place.
_POINT_DIGESTS = {
    ("canonical", "--lambdas", "0.6,0.2,0.3,0.5"):
        "0e919544f3f345468ef54c5cd8c8d7d84ec3dbb15e473f0464d02b678a64886c",
    ("canonical", "--lambdas", "0.6,0.2,0.3,0.5", "--format", "csv"):
        "42c77c646fdd91a8305da6629b2cd2bb1cb4025349b27c8ad9f8aec14b562f25",
    ("canonical", "--lambdas", "0.6,0.2,0.3,0.5", "--theta", "1.0471976"):
        "dd044ad38b63722c3de979fc5d635e04145973b1606dcaf63e1f1286cb09a4a7",
    ("canonical", "--lambdas", "0.6,0.2,0.3,0.5", "--theta", "1.0471976", "--format", "csv"):
        "5cbc2ef7f9d1a9b2593358259aebd971ca2f7d3c3c82710b3ba3ae63ef03cc6e",
    ("classify", "--lambdas", "0.3,0.2,0.25,0.35,auto"):
        "6d34f112160e302be66a22f54f229769d63ca4e0700a2af7ef7d8b2dfddf5c46",
}


@pytest.mark.parametrize("argv", sorted(_POINT_DIGESTS), ids=" ".join)
def test_point_data_sections_are_pinned(capsys, argv):
    code, stdout, _ = run(capsys, list(argv))
    assert code == 0
    if "csv" in argv:
        data = "".join(f"{line}\n" for line in data_lines(stdout))
    else:
        data = json.dumps(json_data(stdout), indent=2, sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest() == _POINT_DIGESTS[argv]


def test_sweep_rows_match_the_per_point_api(capsys):
    code, stdout, _ = run(capsys, ["sweep", "--resolution", "6"])
    assert code == 0
    rows = parse_rows(stdout)
    assert len(rows) == math.comb(10, 4)
    flag = {True: "true", False: "false"}
    windows = witnesses = 0
    for row in rows:
        lam = [float(row[name]) for name in cli.LAMBDA_NAMES]
        p = CanonicalThreeQubit(*lam, theta=0.0)
        report = classify.discriminate(p)
        m = report.measures
        triple = classify.observables_expectations(p)
        expected = {
            "theta": _fmt(0.0),
            "c_ab": _fmt(m.c_ab),
            "c_ac": _fmt(m.c_ac),
            "coh_ab": _fmt(m.coh_ab),
            "coh_ac": _fmt(m.coh_ac),
            "coh_a": _fmt(m.coh_a),
            "tangle": _fmt(m.tangle),
            "coherence_difference": _fmt(report.coherence_difference),
            "factor_l3_minus_l2": _fmt(report.factored_difference[0]),
            "factor_l0_plus_l1_minus_l4": _fmt(report.factored_difference[1]),
            "case_label": report.case_label,
            "monogamy_margin": _fmt(classify.coherence_monogamy_check(p)),
            "exp_o": _fmt(triple.exp_o),
            "exp_o1": _fmt(triple.exp_o1),
            "exp_o2": _fmt(triple.exp_o2),
            "witness_holds": flag[triple.witness_holds],
        }
        if classify.in_ghz_window(p):
            windows += 1
            sum_check = classify.concurrence_sum_check(p)
            expected.update(
                sum_check_applicable="true",
                sum_check_lhs=_fmt(sum_check.lhs),
                sum_check_rhs=_fmt(sum_check.rhs),
                sum_check_holds=flag[sum_check.holds],
                product_check_holds=flag[classify.coherence_product_check(p).holds],
            )
        else:
            expected.update(
                sum_check_applicable="false",
                sum_check_lhs="",
                sum_check_rhs="",
                sum_check_holds="",
                product_check_holds="",
            )
        if p.lambda0 > 0.0:
            witnesses += 1
            # the implication l0 + l1 < l4  =>  <O> > <O1> + <O2>
            implication = (p.lambda0 + p.lambda1 - p.lambda4 >= 0.0) or triple.witness_holds
            expected["witness_implication_ok"] = flag[implication]
        else:
            expected["witness_implication_ok"] = ""
        assert {key: row[key] for key in expected} == expected, row
        assert [_fmt(v) for v in lam] == [row[name] for name in cli.LAMBDA_NAMES]
    assert 0 < windows < len(rows)
    assert 0 < witnesses < len(rows)


def _per_cell_lines(columns, applies):
    """The CSV rows as the per-cell loop made them: the reference of ``cli._csv_chunk``."""
    flag = {True: "true", False: "false"}
    cells = []
    for name, column in columns.items():
        if column.dtype == bool:
            cell = [flag[v] for v in column.tolist()]
        elif column.dtype.kind == "f":
            cell = [_fmt(v) for v in column]
        else:
            cell = column.tolist()
        if name in applies:
            cell = [c if a else "" for c, a in zip(cell, applies[name].tolist())]
        cells.append(cell)
    return "\n".join(",".join(row) for row in zip(*cells))


def test_sweep_table_matches_the_per_cell_formatting():
    awkward = np.array([
        -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
        1.0, np.nextafter(1.0, 2.0), 0.1 + 0.2, 0.3,
    ])
    n = len(awkward)

    def chunk(values):
        columns = {
            "x": values,
            "y": values[::-1].copy(),
            "label": np.array(["GHZ", "W", "boundary"] * (n // 3)),
            "flag": np.arange(n) % 3 == 0,
            "masked_x": np.roll(values, 5),
            "masked_flag": np.arange(n) % 4 == 1,
        }
        applies = {"masked_x": np.arange(n) % 2 == 0, "masked_flag": np.arange(n) % 3 != 2}
        return columns, applies

    nothing = (np.empty(0, dtype=np.int64), np.empty(0, dtype=object))
    assert cli._csv_chunk(*chunk(awkward), nothing)[0] == _per_cell_lines(*chunk(awkward))

    # a sequence of chunks, each handed the one before's carry: each chunk's
    # text is its own per-cell text, whatever was carried from the chunk before
    zeros = np.zeros(n)
    fresh = np.linspace(2.0, 3.0, n)
    sequence = [
        awkward,
        np.roll(awkward, 3),                                   # every value recurs
        zeros,                                                 # 0.0 only
        np.where(np.arange(n) % 2 == 0, -0.0, 0.3),            # -0.0 after 0.0
        np.array([np.nan, np.inf, -np.inf, 0.3] * (n // 4)),   # NaN and inf
        fresh,                                                 # nothing shared
        np.concatenate([fresh[: n // 2], awkward[n // 2:]]),   # some of each
    ]
    carried = nothing
    reused = 0
    for values in sequence:
        before = dict(zip(carried[0].tolist(), carried[1].tolist()))
        columns, applies = chunk(values)
        lines, carried = cli._csv_chunk(columns, applies, carried)
        assert lines == _per_cell_lines(columns, applies), values
        # only this chunk's patterns are carried, sorted, each beside its text
        floats = np.concatenate([columns[name] for name in ("x", "y", "masked_x")])
        kept = np.unique(floats.view(np.int64))
        assert np.array_equal(carried[0], kept)
        assert carried[1].tolist() == [repr(v) for v in kept.view(np.float64).tolist()]
        # a pattern of the chunk before keeps the text formatted then
        for key, text in zip(kept.tolist(), carried[1].tolist()):
            if key in before:
                assert text is before[key]
                reused += 1
    assert reused > n

    # and chunks of the sweep itself
    grid = classify.sweep_grid(6)
    carried = nothing
    for lo in range(0, len(grid), 50):
        ks = grid[lo:lo + 50]
        columns, applies = classify.sweep_columns(
            CanonicalThreeQubit(*np.sqrt(ks.T / 6), theta=0.0)
        )
        lines, carried = cli._csv_chunk(columns, applies, carried)
        assert lines == _per_cell_lines(columns, applies)
