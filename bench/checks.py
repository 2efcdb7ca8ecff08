"""Output checks for the benchmark's qcohere runs.

Each check reads what one CLI run wrote and returns the digest of its data
section together with a list of problems (empty when the run is correct).
The data section is what the README promises to reproduce byte for byte:
every non-comment CSV line, or the ``data`` object of a JSON document.
"""

import hashlib
import json
import math
import random

import numpy as np

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
YY = np.kron(SIGMA_Y, SIGMA_Y)

# States of a scatter run recomputed with numpy.linalg, besides the first and last.
ORACLE_SAMPLES = 16
ORACLE_TOL = 1e-9
MARGIN_TOL = 1e-9
SWEEP_TOL = 1e-12
CHAIN_LINKS = 12
WERNER_MARGIN_A = 0.025


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    return lines[0], lines[1:], _digest("\n".join(lines))


def _json_data(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)["data"]
    return data, _digest(json.dumps(data, sort_keys=True))


def ginibre_matrix(seed: int, index: int) -> np.ndarray:
    """State ``index`` of the rank-4 two-qubit Ginibre ensemble, drawn from the
    frozen generator ``default_rng(SeedSequence(seed, spawn_key=(index,)))``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return 0.5 * (m + m.conj().T)


def oracle_concurrence(m: np.ndarray) -> float:
    """Wootters concurrence from the non-Hermitian spectrum of rho.rho~."""
    ev = np.linalg.eigvals(m @ (YY @ m.conj() @ YY))
    r = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    return max(0.0, float(r[0] - r[1] - r[2] - r[3]))


def oracle_l1_coherence(m: np.ndarray) -> float:
    return float(np.abs(m).sum() - np.abs(np.diagonal(m)).sum())


def scatter(out_path, stdout, seed, n):
    """CSV of (concurrence, l1_coherence) rows from ``qcohere sample``."""
    problems = []
    header, rows, digest = _csv_rows(out_path)
    if header != "concurrence,l1_coherence" or len(rows) != n:
        return digest, [f"expected {n} rows under the scatter header, got {len(rows)}"]
    pairs = [tuple(float(x) for x in row.split(",")) for row in rows]
    bad = sum(coh - conc < -MARGIN_TOL for conc, coh in pairs)
    if bad:
        problems.append(f"{bad} rows have l1_coherence - concurrence < -{MARGIN_TOL}")
    picks = {0, n - 1, *random.Random(seed).sample(range(n), min(n, ORACLE_SAMPLES))}
    for k in sorted(picks):
        m = ginibre_matrix(seed, k)
        conc, coh = pairs[k]
        err = max(abs(conc - oracle_concurrence(m)), abs(coh - oracle_l1_coherence(m)))
        if err > ORACLE_TOL:
            problems.append(f"row {k} is {err:.3e} away from the numpy.linalg oracle")
    summary = json.loads(stdout)["data"]
    if summary["violations"] != 0 or summary["count"] != n:
        problems.append(f"summary reports {summary['violations']} violations of {summary['count']}")
    return digest, problems


def chain(out_path, stdout, seed, n):
    """JSON report of ``qcohere audit --target theorem1-chain``."""
    data, digest = _json_data(out_path)
    problems = []
    if data["end_to_end_violations"] != 0:
        problems.append(f"{data['end_to_end_violations']} end-to-end violations")
    if len(data["links"]) != CHAIN_LINKS:
        problems.append(f"expected {CHAIN_LINKS} links, got {len(data['links'])}")
    if data["count"] != n:
        problems.append(f"count {data['count']} != {n}")
    return digest, problems


def one_norm(out_path, stdout, seed, n):
    """JSON report of ``qcohere audit --target appendix-a``: the Werner block is fixed."""
    data, digest = _json_data(out_path)
    problems = []
    werner = data["werner_regression"]
    if not math.isclose(werner["margin_a"], WERNER_MARGIN_A, abs_tol=1e-12):
        problems.append(f"werner margin_a {werner['margin_a']} != {WERNER_MARGIN_A}")
    if werner["violated_a"] is not True or werner["violated_b"] is not False:
        problems.append("werner block must violate reading A and satisfy reading B")
    if data["count"] != n:
        problems.append(f"count {data['count']} != {n}")
    return digest, problems


def sweep(out_path, stdout, seed, resolution):
    """CSV of ``qcohere sweep``: C(R+4, 4) rows, each with the factored difference."""
    header, rows, digest = _csv_rows(out_path)
    columns = header.split(",")
    lam = [columns.index(f"lambda{i}") for i in range(5)]
    diff = columns.index("coherence_difference")
    expected = math.comb(resolution + 4, 4)
    problems = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
    bad = 0
    for row in rows:
        cells = row.split(",")
        l0, l1, l2, l3, l4 = (float(cells[i]) for i in lam)
        if abs(float(cells[diff]) - 2.0 * (l3 - l2) * (l0 + l1 - l4)) > SWEEP_TOL:
            bad += 1
    if bad:
        problems.append(f"{bad} rows miss 2 (l3 - l2)(l0 + l1 - l4) by more than {SWEEP_TOL}")
    return digest, problems
