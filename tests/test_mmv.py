"""Greedy simultaneous support recovery: exact small cases, guard
rails, equivariance, and the experiment driver."""

import importlib.util
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mwclab.distributions import NonzeroDistribution, block_rng
from mwclab.mmv import (
    _SLAB,
    _somp_slab,
    noise_sigma_for_snr,
    recovery_experiment,
    somp,
    synthesize_mmv,
)
from mwclab.montecarlo import sample_supports
from mwclab.presets import load_preset
from mwclab.sensing import sensing_matrix
from mwclab.signmatrix import FamilySpec, SignMatrix, build_sign_matrix

CN = NonzeroDistribution("complex_normal")


def _phi(entries):
    return sensing_matrix(SignMatrix(np.asarray(entries, dtype=np.int8), "random", None))


def test_single_column_identity():
    Phi = _phi([[1, 1], [1, -1]])  # equals I
    V = np.array([[0.0], [2.0]])
    res = somp(Phi, V, 1)
    assert list(res.support) == [1]
    assert not res.early_stop


def test_orthonormal_two_steps_exact():
    Phi = _phi([[1, 1], [1, -1]])
    inst = synthesize_mmv(Phi, [0, 1], r=3, dist=CN, rng=0)
    res = somp(Phi, inst.V, 2)
    assert list(res.support) == [0, 1]
    # exact re-projection: residual of the final fit is numerically zero
    X = np.linalg.lstsq(Phi[:, res.support], inst.V, rcond=None)[0]
    assert np.linalg.norm(inst.V - Phi[:, res.support] @ X) < 1e-10


def test_noiseless_recovery_random_instance():
    rng = np.random.default_rng(0)
    S = rng.integers(0, 2, (40, 195)) * 2 - 1
    Phi = _phi(S)
    support = [3, 17, 44, 102, 190]
    inst = synthesize_mmv(Phi, support, r=8, dist=CN, rng=1)
    res = somp(Phi, inst.V, 5)
    assert list(res.support) == support
    assert not res.early_stop


def test_zero_measurements_stop_early():
    Phi = _phi(np.random.default_rng(2).integers(0, 2, (4, 16)) * 2 - 1)
    res = somp(Phi, np.zeros((4, 3)), 3)
    assert res.early_stop
    assert res.reason == "zero residual"
    assert res.support.size == 0


def test_duplicate_columns_stop_early():
    # the duplicate adds nothing; depending on lstsq rounding the stop
    # comes from the zero residual or from the rank check, never a
    # second selection
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = somp(A, np.array([[1.0], [1.0]]), 2)
    assert res.early_stop
    assert res.reason in ("zero residual", "rank-deficient selection")
    assert list(res.support) == [0]


def test_tie_breaks_to_lowest_index():
    # two identical columns tie exactly; index 0 must win
    A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    res = somp(A, np.array([[1.0], [0.0]]), 1)
    assert list(res.support) == [0]


def test_column_permutation_equivariance():
    rng = np.random.default_rng(3)
    S = rng.integers(0, 2, (12, 31)) * 2 - 1
    Phi = _phi(S)
    inst = synthesize_mmv(Phi, [2, 9, 20], r=4, dist=CN, rng=4)
    base = somp(Phi, inst.V, 3)
    perm = rng.permutation(31)
    res = somp(Phi[:, perm], inst.V, 3)
    assert sorted(perm[res.support]) == sorted(base.support)


def _reference_somp(Phi, V, k_target):
    """SOMP one problem at a time, re-projecting V by least squares at
    every step and stopping when lstsq reports a rank below the number
    of picks; returns (order, early_stop, reason)."""
    V0 = np.asarray(V, dtype=np.complex128)
    AH = Phi.conj().T
    R = V0
    selected = []
    for _ in range(k_target):
        score = np.linalg.norm(AH @ R, axis=1)
        if selected:
            score[selected] = -1.0
        best = int(np.argmax(score))
        if score[best] <= 0.0:
            return tuple(selected), True, "zero residual"
        trial = selected + [best]
        sub = Phi[:, trial]
        X, _, rank, _ = np.linalg.lstsq(sub, V0, rcond=None)
        if rank < len(trial):
            return tuple(selected), True, "rank-deficient selection"
        selected = trial
        R = V0 - sub @ X
    return tuple(selected), False, None


def _outcome(res):
    assert list(res.support) == sorted(res.order)
    return res.order, res.early_stop, res.reason


@pytest.mark.parametrize("seed", range(4))
def test_slab_kernel_matches_lstsq_reference_on_recover_mwc(seed):
    # recovery_experiment's draws for the first 64 trials, at each SNR
    # and law; the slab and the one-problem somp must both pick what the
    # per-trial lstsq loop picks
    preset = load_preset("recover_mwc")
    S = build_sign_matrix(preset.family_spec())
    Phi = sensing_matrix(S)
    k, r = preset.get_int("k_rows"), preset.get_int("r")
    for snr_db in (None, 5.0, 0.0, -5.0):
        for law in ("complex_normal", "bernoulli_sign"):
            dist = NonzeroDistribution(law)
            sigma = 0.0 if snr_db is None else noise_sigma_for_snr(snr_db, k, S.m, dist)
            Vs = []
            for t in range(64):
                rng = block_rng(seed, t)
                support = np.sort(sample_supports(S.M, k, 1, rng)[0])
                Vs.append(synthesize_mmv(Phi, support, r, dist, sigma, rng).V)
            want = [_reference_somp(Phi, V, k) for V in Vs]
            assert [_outcome(res) for res in _somp_slab(Phi, np.stack(Vs), k)] == want
            assert [_outcome(somp(Phi, V, k)) for V in Vs] == want


def test_slab_kernel_trials_leave_at_different_steps():
    # rank-3 Phi whose columns 3 and 4 repeat columns 0 and 2: a zero V
    # stops at step 0, V along e0 at step 1 and along e1, e0 at step 2
    # (exact zero residuals), and a generic V picks three columns and
    # then a duplicate at step 3, so the slab shrinks at every step and
    # the trials behind each leaver move down into lanes that held other
    # picks
    rng = np.random.default_rng(2)
    m, r, k = 6, 2, 4
    e = np.eye(m)
    g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    g /= 2 * np.linalg.norm(g)
    Phi = np.column_stack([e[0], e[1], g, e[0], g])

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    V = np.stack(
        [
            cn(m, r),
            np.zeros((m, r)),
            np.outer(e[0], cn(r)),
            cn(m, r) + np.outer(8 * g, cn(r)),
            np.outer(e[0], cn(r)) + np.outer(e[1], 3 * cn(r)),
        ]
    )
    slab = [_outcome(res) for res in _somp_slab(Phi, V, k)]
    assert slab == [_outcome(somp(Phi, v, k)) for v in V]
    assert [len(order) for order, _, _ in slab] == [3, 0, 1, 3, 2]
    assert [reason for _, _, reason in slab] == [
        "rank-deficient selection",
        "zero residual",
        "zero residual",
        "rank-deficient selection",
        "zero residual",
    ]
    # lstsq leaves a rounding-level residual where Gram-Schmidt on unit
    # vectors subtracts exactly, so only its picks and flags are compared
    assert [o[:2] for o in slab] == [_reference_somp(Phi, v, k)[:2] for v in V]


def test_recover_mwc_holds_one_score_product():
    # one step's product of Phi^H with the residual (16 M r per trial)
    # and two steps' row sums of it (8 M each); the slab's measurements,
    # residual and picked basis (16 m (2 r + k) per trial); Phi and its
    # adjoint.  Holding the last step's product while the next one is
    # formed, or a list of the slab's measurements beside their stack,
    # breaks the bound; both at once take 7.2 MB.
    preset = load_preset("recover_mwc")
    S = build_sign_matrix(preset.family_spec())
    m, M = S.m, S.M
    k, r = preset.get_int("k_rows"), preset.get_int("r")
    tracemalloc.start()
    try:
        recovery_experiment(S, k, r, trials=preset.get_int("trials"), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_trial = 16 * M * r + 2 * 8 * M + 16 * m * (2 * r + k)
    assert peak < _SLAB * per_trial + 2 * 16 * m * M + (384 << 10), peak


def test_somp_leaves_the_callers_measurements_alone():
    # a 2-D complex V is already the layout of a one-trial slab's
    # residual, the case where a transpose-only copy would alias it
    Phi = _phi(np.random.default_rng(9).integers(0, 2, (8, 31)) * 2 - 1)
    V = synthesize_mmv(Phi, [4, 11, 27], r=5, dist=CN, rng=10).V
    before = V.tobytes()
    res = somp(Phi, V, 3)
    assert not res.early_stop
    assert V.tobytes() == before


def test_somp_validation():
    Phi = _phi([[1, 1], [1, -1]])
    with pytest.raises(ValueError):
        somp(Phi, np.zeros((2, 1)), 3)  # k_target > m
    with pytest.raises(ValueError):
        somp(Phi, np.zeros((5, 1)), 1)  # wrong row count


def test_synthesize_shapes_and_flags():
    Phi = _phi(np.random.default_rng(5).integers(0, 2, (6, 24)) * 2 - 1)
    inst = synthesize_mmv(Phi, [1, 5], r=4, dist=CN, noise_sigma=0.5, rng=6)
    assert inst.U.shape == (24, 4)
    assert inst.V.shape == (6, 4)
    assert np.count_nonzero(np.abs(inst.U).sum(axis=1)) == 2
    empty = synthesize_mmv(Phi, [], r=2, dist=CN, rng=7)
    assert not np.any(empty.V)  # empty support without noise: V is exactly 0


def test_noise_second_moment():
    Phi = _phi(np.ones((3, 8), dtype=np.int8))
    sigma = 0.7
    inst = synthesize_mmv(Phi, [], r=40_000, dist=CN, noise_sigma=sigma, rng=8)
    assert np.isclose(np.mean(np.abs(inst.V) ** 2), sigma**2, rtol=0.05)


def test_noise_sigma_for_snr_round_trip():
    k_rows, m, snr = 12, 40, 10.0
    sigma = noise_sigma_for_snr(snr, k_rows, m, CN)
    signal = k_rows * CN.second_moment
    noise = m * sigma**2
    assert np.isclose(10.0 * np.log10(signal / noise), snr, atol=1e-12)


@pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
def test_noise_sigma_for_snr_rejects_a_non_finite_snr(snr_db):
    with pytest.raises(ValueError, match="finite"):
        noise_sigma_for_snr(snr_db, 12, 40, CN)


def test_recovery_monotone_in_row_sparsity():
    S = build_sign_matrix(FamilySpec("random", m=40, M=195, seed=2))
    rates = []
    for k_rows in (2, 12, 20, 26):
        rep = recovery_experiment(S, k_rows=k_rows, r=12, trials=120, seed=0)
        rates.append(rep.success_rate)
    assert rates[0] == 1.0
    assert rates[-1] <= rates[0]
    assert rates[-1] < 1.0  # saturation breaks down well above m/2 rows


def test_recovery_single_row_is_perfect():
    S = build_sign_matrix(FamilySpec("random", m=40, M=195, seed=2))
    rep = recovery_experiment(S, k_rows=1, r=12, trials=150, seed=0)
    assert rep.success_rate == 1.0


def test_recovery_experiment_deterministic_and_reported():
    S = build_sign_matrix(FamilySpec("random", m=20, M=63, seed=5))
    a = recovery_experiment(S, k_rows=4, r=6, trials=60, seed=3)
    b = recovery_experiment(S, k_rows=4, r=6, trials=60, seed=3)
    assert a.successes == b.successes
    assert a.trials == 60
    d = asdict(a)
    for key in ("trials", "successes", "success_rate", "stderr", "k_rows", "r", "params"):
        assert key in d
    assert d["params"]["family"] == "random"


def test_recovery_experiment_rejects_more_rows_than_measurements():
    S = build_sign_matrix(FamilySpec("random", m=40, M=195, seed=2))
    with pytest.raises(ValueError, match="k_rows"):
        recovery_experiment(S, k_rows=41, r=2, trials=1)
    with pytest.raises(ValueError, match="k_rows"):
        recovery_experiment(S, k_rows=0, r=2, trials=1)


def test_recovery_snr_controls_noise():
    S = build_sign_matrix(FamilySpec("random", m=40, M=195, seed=2))
    noisy = recovery_experiment(S, k_rows=12, r=12, trials=80, snr_db=-5.0, seed=0)
    clean = recovery_experiment(S, k_rows=12, r=12, trials=80, seed=0)
    assert noisy.noise_sigma > 0.0
    assert noisy.success_rate <= clean.success_rate
    assert clean.success_rate == 1.0


def _recovery_curve():
    path = Path(__file__).resolve().parents[1] / "scripts" / "recovery_curve.py"
    spec = importlib.util.spec_from_file_location("recovery_curve", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _recovery_curve_calls(monkeypatch, capsys, *argv):
    """Run scripts/recovery_curve.py's main() in process with a stand-in
    recovery_experiment; return the keyword arguments of each call."""
    script = _recovery_curve()
    calls = []

    def capture(S, **kw):
        calls.append(kw)
        return recovery_experiment(S, **{**kw, "trials": 1})

    monkeypatch.setattr(script, "recovery_experiment", capture)
    assert script.main(["--values", "1", *argv]) == 0
    capsys.readouterr()
    return calls


def test_recovery_curve_reads_the_preset_and_a_flag_wins(monkeypatch, capsys):
    # recover_mwc: trials = 500, dist = complex_normal, seed = 0, r = 12
    (kw,) = _recovery_curve_calls(monkeypatch, capsys)
    assert (kw["trials"], kw["dist"], kw["seed"], kw["r"]) == (500, CN, 0, 12)
    assert kw["k_rows"] == 1
    (kw,) = _recovery_curve_calls(
        monkeypatch, capsys, "--trials", "7", "--dist", "bernoulli-sign", "--seed", "4"
    )
    assert (kw["trials"], kw["dist"], kw["seed"]) == (7, NonzeroDistribution("bernoulli_sign"), 4)
    (kw,) = _recovery_curve_calls(monkeypatch, capsys, "--axis", "snr")
    assert kw["k_rows"] == 12 and kw["snr_db"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("--values", "1,x"),
        ("--values", "2,1.5"),
        ("--values", "1,41"),
        ("--values", "0"),
        ("--axis", "snr", "--values", "5,loud"),
        ("--axis", "snr", "--k-rows", "0", "--values", "5"),
        ("--axis", "snr", "--values", "5,nan"),
        ("--axis", "snr", "--values", "inf,5"),
        ("--axis", "snr", "--values", "5,-inf"),
    ],
)
def test_recovery_curve_rejects_a_bad_value_before_any_point_runs(monkeypatch, capsys, argv):
    script = _recovery_curve()
    calls = []
    monkeypatch.setattr(script, "recovery_experiment", lambda S, **kw: calls.append(kw))
    with pytest.raises(SystemExit) as exc:
        script.main(list(argv))
    assert exc.value.code == 2
    assert calls == []
    assert "error:" in capsys.readouterr().err
