"""Acceptance gate: eleven criteria, one pass/fail line each.

Each criterion prints a PASS/FAIL line with the measured values before
asserting, so a full run of this module reads as a checklist.  Criterion
07 asserts the correlation-energy inequalities that are theorems (the
alpha and beta bounds and the gamma upper bound) on every instance, and
checks that the reversed-correlation Welch analogue for gamma, which is
not a theorem, is flagged exactly when it fails (see the
quality_bounds_check docstring and the README caveat).
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mwclab import sequences as sq
from mwclab.distributions import NonzeroDistribution, moment_constants
from mwclab.guarantees import (
    BP_DELTA,
    ExripInputs,
    exrip_probability,
    min_channels_search,
    rip_min_m,
    strip_calderbank,
)
from mwclab.mmv import recovery_experiment
from mwclab.montecarlo import bound_validity_report
from mwclab.presets import TABLE2_ROW_ORDER, load_preset
from mwclab.reports import fig2_report, table2_report
from mwclab.sensing import quality_bounds_check, quality_measures, welch_lower_bound
from mwclab.signmatrix import FamilySpec, SignMatrix, build_sign_matrix
from mwclab.tables import PRIMITIVE_POLYS

CN = NonzeroDistribution("complex_normal")


def _report(n, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n:02d} ({label}): {detail}")
    assert ok, f"criterion {n:02d} ({label}): {detail}"


@pytest.fixture(scope="module")
def table2_rows():
    rows = table2_report()
    return {r["family"]: r for r in rows}


@pytest.fixture(scope="module")
def constants_k24():
    return moment_constants(CN, 24)


@pytest.fixture(scope="module")
def constants_k12():
    return moment_constants(CN, 12)


def test_criterion_01_gold_row(table2_rows):
    g = table2_rows["gold"]
    ok = (
        1.25 <= g["alpha100"] <= 1.27
        and 0.18 <= g["beta100"] <= 0.22
        and 0.18 <= g["gamma100"] <= 0.22
        and 0.930 <= g["p_complex_normal"] <= 0.945
    )
    _report(
        1,
        "Gold row",
        ok,
        f"100a={g['alpha100']:.4f} 100b={g['beta100']:.4f} "
        f"100g={g['gamma100']:.4f} p={g['p_complex_normal']:.4f}",
    )


def test_criterion_02_hadamard_row(table2_rows):
    h = table2_rows["hadamard"]
    ok = h["alpha100"] == 1.25 and h["p_complex_normal"] <= 0.01
    _report(2, "Hadamard row", ok, f"100a={h['alpha100']} p={h['p_complex_normal']}")


def test_criterion_03_random_rows(table2_rows, constants_k24):
    ps = []
    for seed in range(12):
        S = build_sign_matrix(FamilySpec("random", m=40, M=195, seed=seed))
        q = quality_measures(S)
        p = exrip_probability(
            ExripInputs(q.alpha, q.beta, q.gamma, 40, 195, 24, BP_DELTA, constants_k24)
        ).probability
        ps.append(p)
    r1 = table2_rows["random1"]["p_complex_normal"]
    ok = all(0.84 <= p <= 0.87 for p in ps) and 0.92 <= r1 <= 0.935
    _report(
        3,
        "Random rows",
        ok,
        f"random2 p over 12 seeds in [{min(ps):.4f}, {max(ps):.4f}], random1 p={r1:.4f}",
    )


def test_criterion_04_kasami_and_maximal_rows(table2_rows):
    k = table2_rows["kasami"]
    m = table2_rows["maximal"]
    ok = (
        abs(k["alpha100"] - 6.667) <= 0.05 * 6.667
        and 0.65 <= k["p_complex_normal"] <= 0.72
        and 0.92 <= m["p_complex_normal"] <= 0.945
    )
    _report(
        4,
        "Kasami and maximal rows",
        ok,
        f"kasami 100a={k['alpha100']:.4f} p={k['p_complex_normal']:.4f}, "
        f"maximal p={m['p_complex_normal']:.4f} (loose check; row-selection "
        "policy caveat under README Known caveats)",
    )


def test_criterion_05_sweep_gap():
    rows = fig2_report(load_preset("fig2_sweep"))
    gap = max(abs(r["p_exact"] - r["p_approx"]) for r in rows)
    ok = len(rows) == 17 and gap <= 0.01
    _report(5, "exact vs approximate sweep", ok, f"max gap {gap:.5f} over m in [20, 100]")


def test_criterion_06_bound_validity(constants_k24, constants_k12):
    details = []
    ok = True
    for name in TABLE2_ROW_ORDER:
        preset = load_preset(name)
        S = build_sign_matrix(preset.family_spec())
        k = preset.get_int("k")
        rep = bound_validity_report(
            S,
            k,
            delta=preset.get_float("delta"),
            dist=CN,
            trials=10**5,
            seed=0,
            constants=constants_k24 if k == 24 else constants_k12,
        )
        holds = rep.lower_bound_holds and rep.mean_z2_is_one
        ok = ok and holds
        details.append(
            f"{name.removeprefix('table2_')}: p_emp={rep.estimate.empirical_p:.4f} "
            f">= {rep.theoretical.probability:.4f} ({'ok' if holds else 'VIOLATED'})"
        )
    _report(6, "Monte Carlo bound validity", ok, "; ".join(details))


def _gamma_exact(S):
    """(mM)^2 gamma as an integer, from T = S^T S: sum T o (R T R^T).

    R is the cyclic index reversal n -> -n mod M, so this is
    sum_{i,k} (S_i . reverse(S_k))^2 without forming the row pairs.
    """
    T = S.T.astype(np.int64) @ S.astype(np.int64)
    r = (-np.arange(S.shape[1])) % S.shape[1]
    return int((T * T[np.ix_(r, r)]).sum())


THEOREMS = ("alpha_lower", "alpha_upper", "beta_lower", "beta_upper", "gamma_upper")


def test_criterion_07_quality_bound_suite(hadamard_80_512):
    ones = quality_measures(SignMatrix(np.ones((4, 6), dtype=np.int8), "random", None))
    chk_ones = quality_bounds_check(ones)
    extremal_ok = (
        chk_ones.ok
        and chk_ones.slacks["alpha_upper"] == 0.0
        and chk_ones.slacks["beta_upper"] == 0.0
        and chk_ones.slacks["gamma_upper"] == 0.0
    )
    qh = quality_measures(hadamard_80_512)
    chk_h = quality_bounds_check(qh)
    extremal_ok = extremal_ok and chk_h.ok and abs(chk_h.slacks["alpha_lower"]) < 1e-15

    row = np.array([[1, 1, 1, -1]], dtype=np.int8)
    counter = quality_measures(SignMatrix(row, "random", None))
    counter_ok = "gamma_lower" in quality_bounds_check(counter).violations

    broken: dict[str, int] = {}
    flagged = mismatched = misreported = negative = 0
    for seed in range(100):
        m = 2 + seed % 12
        M = 8 + (7 * seed) % 120
        S = np.random.default_rng(seed).integers(0, 2, (m, M)) * 2 - 1
        q = quality_measures(SignMatrix(S.astype(np.int8), "random", None))
        chk = quality_bounds_check(q)
        for name in chk.violations:
            if name in THEOREMS:
                broken[name] = broken.get(name, 0) + 1
        negative += q.gamma < 0.0
        gamma_ref = _gamma_exact(S) / (m * M) ** 2
        mismatched += q.gamma != gamma_ref
        below = gamma_ref - welch_lower_bound(m, M) < -1e-12
        misreported += ("gamma_lower" in chk.violations) != below
        flagged += "gamma_lower" in chk.violations
    faithful_ok = counter_ok and not (mismatched or misreported)
    ok = extremal_ok and not broken and not negative and faithful_ok
    _report(
        7,
        "correlation-energy bound suite",
        ok,
        f"extremal slacks {'ok' if extremal_ok else 'BAD'}; theorem violations "
        f"{broken or 'none'} of 100, gamma < 0 on {negative}; gamma vs integer "
        f"recomputation mismatched on {mismatched}, gamma_lower misreported on "
        f"{misreported}, [[1, 1, 1, -1]] {'flagged' if counter_ok else 'NOT flagged'}; "
        f"gamma_lower flagged on {flagged} of 100 (not a theorem; see the "
        "quality_bounds_check docstring and the README caveat)",
    )


def test_criterion_08_sequence_invariants():
    for n in (3, 5, 7, 9):
        M = 2**n - 1
        for poly in PRIMITIVE_POLYS[n]:
            ac = sq.cyclic_crosscorrelation(*(sq.lfsr_msequence(poly),) * 2)
            assert ac[0] == M and (ac[1:] == -1).all()

    fam = sq.gold_family(9)
    F = np.fft.fft(np.array(fam, dtype=np.float64), axis=1)
    gold_vals = set()
    for i in range(len(fam) - 1):
        vals = np.rint(np.fft.ifft(np.conj(F[i]) * F[i + 1 :], axis=1).real).astype(np.int64)
        gold_vals |= set(np.unique(vals).tolist())
    gold_ok = gold_vals <= {-1, -33, 31}

    kas = sq.kasami_small_family(8)
    kas_vals = set()
    for i, a in enumerate(kas):
        for j, b in enumerate(kas):
            vals = sq.cyclic_crosscorrelation(a, b)
            kas_vals |= set(np.unique(vals[1:] if i == j else vals).tolist())
    kas_ok = kas_vals <= {-1, -17, 15}

    ok = gold_ok and kas_ok
    _report(
        8,
        "sequence invariants",
        ok,
        f"m-seq off-peak -1 exhaustive (n=3,5,7,9); gold n=9 values {sorted(gold_vals)}; "
        f"kasami n=8 values {sorted(kas_vals)}",
    )


def test_criterion_09_channel_floor_reproduction():
    calder = strip_calderbank(150, 195, 12, BP_DELTA)
    calder_ok = calder.feasible and calder.probability == 0.0

    res = min_channels_search("donoho_elad", 195, 12, attempts=100, seed=0)
    donoho_ok = res.status == "found" and 3172 <= res.m <= 5288

    def rip_indep(M, K, delta, prob, c=7.0 / 18.0):
        lnC = sum(math.log(M - i) - math.log(i + 1) for i in range(K))
        t = -math.log(1.0 - prob)
        return math.ceil(
            (2.0 / (c * delta)) * (math.log(2.0) + lnC + K * math.log(12.0 / delta) + t)
        )

    m12 = rip_min_m(195, 12, BP_DELTA, 0.97)
    m24 = rip_min_m(195, 24, BP_DELTA, 0.97)
    rip_ok = (
        m12 == rip_indep(195, 12, BP_DELTA, 0.97)
        and m24 == rip_indep(195, 24, BP_DELTA, 0.97)
        and 95 <= m12 <= 9500
        and 95 <= m24 <= 9500  # order of magnitude of the published 950 at either sparsity reading
    )

    candes = min_channels_search("candes_plan", 195, 12)
    candes_ok = candes.status == "never" and candes.m is None

    ok = calder_ok and donoho_ok and rip_ok and candes_ok
    _report(
        9,
        "channel-floor reproduction",
        ok,
        f"calderbank p={calder.probability}; donoho m={res.m} in [3172, 5288]; "
        f"rip m(k=12)={m12} m(k=24)={m24} (independent re-evaluation exact); "
        f"candes status={candes.status}",
    )


def test_criterion_10_support_recovery():
    spec = FamilySpec("random", m=40, M=195, seed=2)
    rep = recovery_experiment(spec, k_rows=12, r=12, trials=500, seed=0)
    one = recovery_experiment(spec, k_rows=1, r=12, trials=200, seed=0)
    ok = rep.success_rate >= 0.90 and one.success_rate == 1.0
    _report(
        10,
        "joint support recovery",
        ok,
        f"rate(12 rows)={rep.success_rate:.3f} over 500 trials, rate(1 row)={one.success_rate:.3f}",
    )


def _run_cli(*args, threads="1"):
    env = os.environ.copy()
    env["MWCLAB_THREADS"] = threads
    return subprocess.run(
        [sys.executable, "-m", "mwclab.cli", *args], capture_output=True, text=True, env=env
    )


def test_criterion_11_byte_determinism(tmp_path):
    checks = []
    jobs = (
        ("gen", ["gen", "--family", "random", "--M", "127", "--m", "12", "--seed", "9"]),
        ("measures", ["measures", "--family", "gold", "--n", "5", "--m", "8"]),
        ("verify", ["verify", "--preset", "table2_kasami", "--trials", "2000"]),
        ("exrip", ["exrip", "--preset", "table2_kasami", "--dist", "complex-uniform"]),
        ("sweep", ["sweep"]),
    )
    ok = True
    for name, argv in jobs:
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        ra = _run_cli(*argv, "--out", str(a), threads="1")
        rb = _run_cli(*argv, "--out", str(b), threads="2")
        same = (
            ra.returncode == 0 and rb.returncode == 0 and a.read_bytes() == b.read_bytes()
        )
        ok = ok and same
        checks.append(f"{name}={'identical' if same else 'DIFFERS'}")
    _report(11, "byte determinism across thread counts", ok, "; ".join(checks))
