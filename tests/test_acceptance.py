"""Acceptance suite: one test per release criterion, at full stated size.

Run ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion.  Sizes and tolerances are pinned here and not scaled down; the
two ensemble experiments also enforce their wall-clock budgets.
"""

import json
import math
import time

import numpy as np
import pytest

from qcohere import cli
from qcohere.classify import (
    coherence_difference,
    coherence_monogamy_check,
    coherence_product_check,
    concurrence_sum_check,
    discriminate,
    observable_closed_forms,
    observables_expectations,
    one_norm_margins,
)
from qcohere.measures import (
    bipartition_concurrence,
    concurrence,
    l1_coherence,
    partial_concurrences_analytic,
    reduced_coherences_analytic,
    tangle_analytic,
    tangle_residual,
)
from qcohere.states import (
    CanonicalThreeQubit,
    canonical_sample,
    canonical_state,
    partial_trace,
    werner_state,
)

S2 = 1.0 / math.sqrt(2.0)
REGRESSION_POINT = CanonicalThreeQubit(0.3, 0.2, 0.25, 0.35, math.sqrt(0.685))

SCATTER_BUDGET_SECONDS = 120.0
AUDIT_BUDGET_SECONDS = 120.0


def _verdict(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def _w_class_sample(seed, index):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    w = rng.standard_exponential(4)
    lam = np.sqrt(w / w.sum())
    return CanonicalThreeQubit(*(float(x) for x in lam), 0.0, theta=0.0)


def _csv_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("concurrence"):
            continue
        conc, coh = line.split(",")
        rows.append((float(conc), float(coh)))
    return rows


def test_criterion_1_scatter_experiment(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    started = time.perf_counter()
    results = {}
    for ensemble, seed in (("pure", 42), ("ginibre", 7)):
        out = tmp_path / f"scatter-{ensemble}.csv"
        code = cli.main(["sample", "--n", "100000", "--ensemble", ensemble,
                         "--seed", str(seed), "--out", str(out)])
        results[ensemble] = (code, out)
    elapsed = time.perf_counter() - started
    for ensemble, (code, out) in results.items():
        # recompute the claim from the emitted rows themselves
        rows = _csv_rows(out)
        margins = [coh - conc for conc, coh in rows]
        violations = sum(margin < -1e-9 for margin in margins)
        _verdict(
            1,
            code == 0 and len(rows) == 100000 and violations == 0,
            f"{ensemble} ensemble, 1e5 states, violations={violations},"
            f" min margin {min(margins):.3e}",
        )
    _verdict(1, elapsed <= SCATTER_BUDGET_SECONDS,
             f"both ensembles finished in {elapsed:.1f}s (budget {SCATTER_BUDGET_SECONDS:.0f}s)")


def test_criterion_2_closed_form_identities():
    worst_wootters = 0.0
    worst_coherence = 0.0
    worst_identity = 0.0
    for k in range(10_000):
        p = canonical_sample(20_260_809, k, "zero")
        rho = canonical_state(p).density()
        c_ab, c_ac = partial_concurrences_analytic(p)
        rho_ab = partial_trace(rho, (2, 2, 2), (0, 1))
        rho_ac = partial_trace(rho, (2, 2, 2), (0, 2))
        rho_a = partial_trace(rho, (2, 2, 2), (0,))
        worst_wootters = max(
            worst_wootters,
            abs(concurrence(rho_ab) - c_ab),
            abs(concurrence(rho_ac) - c_ac),
        )
        coh = reduced_coherences_analytic(p)
        worst_coherence = max(
            worst_coherence,
            abs(l1_coherence(rho_ab) - coh[0]),
            abs(l1_coherence(rho_ac) - coh[1]),
            abs(l1_coherence(rho_a) - coh[2]),
        )
        diff, (f1, f2) = coherence_difference(p)
        worst_identity = max(worst_identity, abs(diff - 2.0 * f1 * f2))
    _verdict(2, worst_wootters <= 1e-8,
             f"partial concurrences match closed forms, worst {worst_wootters:.3e} <= 1e-8")
    _verdict(2, worst_coherence <= 1e-10,
             f"reduced coherences match closed forms, worst {worst_coherence:.3e} <= 1e-10")
    _verdict(2, worst_identity <= 1e-10,
             f"difference factorization identity, worst {worst_identity:.3e} <= 1e-10")


def test_criterion_3_tangle_and_ckw():
    worst_dev = 0.0
    min_ckw = math.inf
    for k in range(10_000):
        p = canonical_sample(30_311, k, "uniform")
        psi = canonical_state(p)
        rho = psi.density()
        c_cut = bipartition_concurrence(psi)
        c_ab = concurrence(partial_trace(rho, (2, 2, 2), (0, 1)))
        c_ac = concurrence(partial_trace(rho, (2, 2, 2), (0, 2)))
        ckw = c_cut * c_cut - c_ab * c_ab - c_ac * c_ac
        min_ckw = min(min_ckw, ckw)
        worst_dev = max(worst_dev, abs(max(ckw, 0.0) - tangle_analytic(p)))
        if k % 100 == 0:
            # bind the packaged operation to the same arithmetic
            assert tangle_residual(psi) == pytest.approx(max(ckw, 0.0), abs=1e-12)
    _verdict(3, worst_dev <= 1e-8,
             f"tangle matches 4 l0^2 l4^2 with theta uniform, worst {worst_dev:.3e} <= 1e-8")
    _verdict(3, min_ckw >= -1e-8,
             f"ckw residual stays above -1e-8, min {min_ckw:.3e}")


def test_criterion_4_coherence_monogamy():
    min_margin = math.inf
    for k in range(10_000):
        p = canonical_sample(40_412, k, "zero")
        min_margin = min(min_margin, coherence_monogamy_check(p))
    _verdict(4, min_margin >= -1e-10,
             f"squared-coherence monogamy margin, min {min_margin:.3e} >= -1e-10")


def test_criterion_5_w_soundness_and_regression_label():
    ghz_labels = 0
    for k in range(10_000):
        label = discriminate(_w_class_sample(50_513, k)).case_label
        if "GHZ" in label:
            ghz_labels += 1
    _verdict(5, ghz_labels == 0,
             f"1e4 W-slice samples produced {ghz_labels} GHZ-witness labels")
    report = discriminate(REGRESSION_POINT)
    ok = (
        report.case_label == "CaseI-GHZ-witness"
        and abs(report.coherence_difference - (-0.065529)) <= 1e-6
    )
    _verdict(5, ok,
             f"regression point labeled {report.case_label} with difference"
             f" {report.coherence_difference:.6f} (want -0.065529 +/- 1e-6)")


def test_criterion_6_ghz_window_checks():
    collected = 0
    scanned = 0
    mismatches = 0
    strict_ok = True
    expansion_ok = True
    k = 0
    while collected < 1000 and k < 200_000:
        p = canonical_sample(60_614, k, "zero")
        k += 1
        scanned += 1
        if not (p.lambda0 > 0.0 and p.lambda4 > 0.0
                and p.lambda0 + p.lambda1 < p.lambda4):
            continue
        collected += 1
        sum_check = concurrence_sum_check(p)
        product_check = coherence_product_check(p)
        strict_ok = strict_ok and sum_check.lhs < sum_check.rhs
        strict_ok = strict_ok and product_check.coh_a < product_check.coh_ac
        expansion_ok = expansion_ok and product_check.product_minus_square_expansion >= 0.0
        expansion_ok = expansion_ok and product_check.product_minus_square_direct >= 0.0
        if not product_check.expansion_matches:
            mismatches += 1
    _verdict(6, collected >= 1000,
             f"collected {collected} GHZ-window samples from {scanned} scans")
    _verdict(6, strict_ok,
             "concurrence sum < 2 coh_ac and coh_a < coh_ac hold strictly on all samples")
    _verdict(6, expansion_ok, "both routes to the product-minus-square stay non-negative")
    _verdict(6, mismatches > 0,
             f"expansion-vs-direct mismatch is reported (flagged on {mismatches}"
             f"/{collected} samples), never asserted equal")


def test_criterion_7_observables():
    worst = 0.0
    counterexamples = 0
    for k in range(10_000):
        p = canonical_sample(70_715, k, "zero")
        triple = observables_expectations(p)
        closed = observable_closed_forms(p)
        worst = max(
            worst,
            abs(triple.exp_o - closed[0]),
            abs(triple.exp_o1 - closed[1]),
            abs(triple.exp_o2 - closed[2]),
        )
        if p.lambda0 + p.lambda1 < p.lambda4 and not triple.witness_holds:
            counterexamples += 1
    _verdict(7, worst <= 1e-10,
             f"matrix-built expectations match closed forms, worst {worst:.3e} <= 1e-10")
    _verdict(7, counterexamples == 0,
             f"{counterexamples} counterexamples to (l0 + l1 < l4) => witness")
    ghz = observables_expectations(CanonicalThreeQubit(S2, 0.0, 0.0, 0.0, S2))
    ok = (
        abs(ghz.exp_o - 2.0) <= 1e-12
        and abs(ghz.exp_o1) <= 1e-12
        and abs(ghz.exp_o2 - 1.0) <= 1e-12
    )
    _verdict(7, ok,
             f"GHZ expectations ({ghz.exp_o:.12f}, {ghz.exp_o1:.1e}, {ghz.exp_o2:.12f})"
             " match (2, 0, 1) within 1e-12")


def test_criterion_8_one_norm_audit(tmp_path, monkeypatch):
    n1, c_a, margin_a, margin_b = one_norm_margins(werner_state(0.9))
    _verdict(8, abs(n1 - 0.925) <= 1e-12 and abs(c_a - 0.9) <= 1e-12,
             f"werner(0.9) induced one-norm {n1:.15f}, l1-coherence {c_a:.15f}")
    _verdict(8, margin_a > 0.0 and margin_b < 0.0,
             "reading A violated on werner(0.9) while reading B holds")

    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    out = tmp_path / "one-norm-audit.json"
    started = time.perf_counter()
    code = cli.main(["audit", "--target", "appendix-a", "--n", "100000",
                     "--ensemble", "pure", "--seed", "3", "--out", str(out)])
    elapsed = time.perf_counter() - started
    data = json.loads(out.read_text())["data"]
    _verdict(8, code == 0 and data["count"] == 100000,
             f"audit completed 1e5 samples under both readings in {elapsed:.1f}s")
    _verdict(8, elapsed <= AUDIT_BUDGET_SECONDS,
             f"audit runtime {elapsed:.1f}s within {AUDIT_BUDGET_SECONDS:.0f}s budget")
    reading_a = data["readings"]["A"]
    worst_file = (reading_a["worst_case"] or {}).get("state_file")
    _verdict(8, reading_a["violations_found"] > 0 and worst_file is not None
             and (tmp_path / worst_file).exists(),
             f"reading A found {reading_a['violations_found']} violations and"
             " serialized the worst case")


def test_criterion_9_determinism(tmp_path, monkeypatch):
    def data_lines(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith("#")]

    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    first, second, sharded = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    for out in (first, second):
        cli.main(["sample", "--n", "2000", "--ensemble", "ginibre",
                  "--seed", "7", "--out", str(out)])
    monkeypatch.setenv(cli.WORKERS_ENV, "4")
    cli.main(["sample", "--n", "2000", "--ensemble", "ginibre",
              "--seed", "7", "--out", str(sharded)])
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    _verdict(9, data_lines(first) == data_lines(second),
             "re-running sample reproduces the CSV data section byte for byte")
    _verdict(9, data_lines(first) == data_lines(sharded),
             "sharded (4 workers) and single-worker runs agree exactly")

    audits = []
    audit_out = tmp_path / "audit.json"
    for _ in range(2):
        cli.main(["audit", "--target", "appendix-a", "--n", "300",
                  "--ensemble", "ginibre", "--seed", "9", "--out", str(audit_out)])
        audits.append(json.loads(audit_out.read_text())["data"])
    _verdict(9, audits[0] == audits[1], "audit JSON data sections are identical across runs")

    sweeps = []
    sweep_out = tmp_path / "sweep.csv"
    for _ in range(2):
        cli.main(["sweep", "--resolution", "6", "--out", str(sweep_out)])
        sweeps.append(data_lines(sweep_out))
    _verdict(9, sweeps[0] == sweeps[1], "sweep grids are identical across runs")
