"""Probability bound algebra, the closed-form channel estimate, the
coherence plug-ins and StRIP bounds, and the minimal-m search."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from mwclab.distributions import MomentConstants, NonzeroDistribution, moment_constants
from mwclab.guarantees import (
    BP_DELTA,
    ExripInputs,
    GuaranteeResult,
    _best_random_instance,
    coherence_guarantees,
    exrip_approx,
    exrip_from_sign_matrix,
    exrip_probability,
    min_channels_search,
    rip_min_m,
    strip_calderbank,
    strip_gan,
    strip_tropp,
)
from mwclab.sensing import coherence

UNIT = MomentConstants(B_K=1.0, C_K=1.0, K=1)


def _inputs(alpha=0.02, beta=0.002, gamma=0.002, m=80, M=511, K=24, delta=BP_DELTA, constants=UNIT):
    return ExripInputs(alpha, beta, gamma, m, M, K, delta, constants)


def test_delta_constant():
    assert BP_DELTA == math.sqrt(2.0) - 1.0


def test_gold_probability_window(gold_80_511):
    res = exrip_from_sign_matrix(
        gold_80_511, 24, dist=NonzeroDistribution("complex_normal")
    )
    assert res.feasible
    assert 0.930 <= res.probability <= 0.945


def test_kasami_probability_window(kasami_16_255):
    res = exrip_from_sign_matrix(
        kasami_16_255, 12, dist=NonzeroDistribution("complex_normal")
    )
    assert 0.65 <= res.probability <= 0.72


def test_hadamard_probability_clamps_to_zero(hadamard_80_512):
    res = exrip_from_sign_matrix(
        hadamard_80_512, 24, dist=NonzeroDistribution("complex_normal")
    )
    assert res.probability == 0.0
    assert res.raw_value is not None and res.raw_value < -1.0  # kept, not hidden


def test_probability_clamps_to_one():
    # tiny M beta with B=C=1: raw = 1 - (M beta - 1)/delta^2 > 1 when M beta < 1
    res = exrip_probability(_inputs(beta=1.0 / 511 * 0.5))
    assert res.raw_value > 1.0
    assert res.probability == 1.0


def test_unit_constants_depend_only_on_M_beta_delta():
    a = exrip_probability(_inputs(alpha=0.02, gamma=0.001))
    b = exrip_probability(_inputs(alpha=0.9, gamma=0.7))
    assert a.probability == b.probability
    assert a.raw_value == b.raw_value


def test_equal_B_and_C_remove_gamma():
    # complex-uniform constants have B_K == C_K exactly, like the Gaussian's
    for const in (
        MomentConstants(B_K=0.08, C_K=0.08, K=24),
        moment_constants(NonzeroDistribution("complex_uniform"), 24),
    ):
        a = exrip_probability(_inputs(gamma=0.001, constants=const))
        b = exrip_probability(_inputs(gamma=0.03, constants=const))
        assert a.raw_value == b.raw_value
        # exact constants carry no standard errors into params
        assert set(b.params) == {"alpha", "beta", "gamma", "m", "M", "K", "delta", "B_K", "C_K"}


def test_raw_value_linear_coefficients():
    # raw is affine in (alpha, beta, gamma); finite differences must
    # equal the analytic coefficients to rounding error
    const = MomentConstants(B_K=0.11, C_K=0.09, K=24)
    base = _inputs(constants=const)
    rho = base.rho
    d2 = base.delta**2
    h = 1e-4
    raw0 = exrip_probability(base).raw_value

    da = exrip_probability(_inputs(alpha=base.alpha + h, constants=const)).raw_value - raw0
    assert np.isclose(da / h, -(1.0 - const.C_K) * rho / d2, rtol=1e-9)

    dg = exrip_probability(_inputs(gamma=base.gamma + h, constants=const)).raw_value - raw0
    assert np.isclose(dg / h, -(const.B_K - const.C_K) * rho / d2, rtol=1e-9)

    db = exrip_probability(_inputs(beta=base.beta + h, constants=const)).raw_value - raw0
    want = -(-2.0 * (1.0 - const.C_K) * rho - (const.B_K - const.C_K) * rho + const.C_K * base.M) / d2
    assert np.isclose(db / h, want, rtol=1e-9)


def test_rho_property():
    assert np.isclose(_inputs(M=511).rho, 511.0 / 510.0)


def test_inputs_validation():
    with pytest.raises(ValueError):
        _inputs(delta=0.0)
    with pytest.raises(ValueError):
        _inputs(M=20, K=20)


def test_exrip_approx_frozen_values():
    assert np.isclose(exrip_approx(40).probability, 0.8542897, atol=1e-6)
    assert np.isclose(exrip_approx(80).probability, 0.9271448, atol=1e-6)
    r = exrip_approx(40)
    assert np.isclose(r.probability, 1.0 - 1.0 / (40 * BP_DELTA**2), rtol=1e-12)


def test_exrip_approx_clamps_small_m():
    assert exrip_approx(1).probability == 0.0
    assert exrip_approx(1).raw_value < 0.0


def test_coherence_plugins():
    cg = coherence_guarantees(1.0 / 3.0, 64)
    assert cg.donoho_elad_max_k == 2
    assert cg.tropp_max_k == 1
    assert not cg.candes_plan_evaluable
    cg2 = coherence_guarantees(1.0 / 23.0, 195)
    assert cg2.donoho_elad_max_k == 12


def test_coherence_zero_mu_unbounded():
    cg = coherence_guarantees(0.0, 64)
    assert cg.donoho_elad_max_k is None
    assert cg.tropp_max_k is None


def test_candes_plan_needs_constant():
    cg = coherence_guarantees(1.0 / 23.0, 195, 6.0, 12, candes_plan_c=1.0)
    assert cg.candes_plan_evaluable
    assert cg.candes_plan_mu_ok is not None and cg.candes_plan_k_ok is not None


def test_rip_min_m_frozen_and_monotone():
    assert rip_min_m(195, 12, BP_DELTA, 0.97) == 1087
    assert rip_min_m(195, 24, BP_DELTA, 0.97) == 1928
    assert rip_min_m(195, 12, BP_DELTA, 0.999) > rip_min_m(195, 12, BP_DELTA, 0.9)
    assert rip_min_m(195, 24, BP_DELTA, 0.97) > rip_min_m(195, 12, BP_DELTA, 0.97)
    assert rip_min_m(195, 12, 0.2, 0.97) > rip_min_m(195, 12, 0.6, 0.97)
    assert rip_min_m(390, 12, BP_DELTA, 0.97) > rip_min_m(195, 12, BP_DELTA, 0.97)


def test_calderbank_frozen_value():
    res = strip_calderbank(150, 195, 12, BP_DELTA)
    assert res.feasible
    assert res.probability == 0.0
    assert np.isclose(res.raw_value, -1.515024, atol=1e-5)


def test_calderbank_feasibility_edges():
    assert not strip_calderbank(5, 3, 2, 0.5).feasible  # M too small
    assert not strip_calderbank(5, 100, 80, 0.5).feasible  # (K-1)/(M-1) >= delta
    assert not strip_calderbank(5, 100, 2, 1.5).feasible  # delta >= 1


def test_gan_edges_and_monotonicity():
    assert strip_gan(0.0, 195, 12, BP_DELTA).probability == 1.0
    assert not strip_gan(0.1, 195, 12, 1.0 / 300.0).feasible
    lo = strip_gan(0.02, 195, 12, BP_DELTA).probability
    hi = strip_gan(0.001, 195, 12, BP_DELTA).probability
    assert hi > lo


def test_tropp_strip_example():
    res = strip_tropp(0.005, 1.05, 1000, 4, 0.5, 1.0)
    assert res.feasible
    assert res.probability == 0.5  # 1 - (K/2)^(-t) at K=4, t=1
    bad = strip_tropp(0.2, 5.0, 64, 4, 0.5, 1.0)
    assert not bad.feasible
    assert "condition_lhs" in bad.params
    with pytest.raises(ValueError):
        strip_tropp(0.01, 1.0, 64, 4, 0.5, 0.5)
    assert not strip_tropp(0.01, 1.0, 64, 1, 0.5, 1.0).feasible


def test_result_as_dict_schema():
    res = strip_gan(0.01, 195, 12, BP_DELTA)
    d = asdict(res)
    assert set(d) == {"bound", "probability", "raw_value", "feasible", "params"}
    assert isinstance(res, GuaranteeResult)


def test_search_exrip_approx_is_exact():
    res = min_channels_search("exrip_approx", 195, 24)
    want = math.ceil(1.0 / (0.15 * BP_DELTA**2))
    assert res.status == "found"
    assert res.m == want == 39
    # boundary sanity: one less channel misses the target
    assert exrip_approx(res.m - 1).probability < 0.85 <= exrip_approx(res.m).probability


def test_search_candes_never_without_constant():
    res = min_channels_search("candes_plan", 195, 12)
    assert res.status == "never"
    assert res.m is None


def test_search_calderbank_never_via_asymptote():
    res = min_channels_search("calderbank", 195, 12)
    assert res.status == "never"
    assert "limit" in res.detail


def test_search_ceiling_status():
    res = min_channels_search("donoho_elad", 63, 12, attempts=2, ceiling=8, seed=0)
    assert res.status == "ceiling"
    assert res.m is None


def test_search_rejects_unknown_bound():
    with pytest.raises(ValueError):
        min_channels_search("nosuch", 195, 12)


def test_search_rip_matches_direct_formula():
    res = min_channels_search("rip", 195, 12, target_prob=0.97)
    assert res.status == "found"
    assert res.m == rip_min_m(195, 12, BP_DELTA, 0.97)


def _drawn_signs(key, m, M):
    # the search's published draw stream, spelled out independently
    return (np.random.default_rng(key).integers(0, 2, size=(m, M)) * 2 - 1).astype(np.int8)


@pytest.mark.parametrize("M, m, attempts, seed", [(63, 5, 4, 0), (31, 40, 3, 7), (195, 12, 2, 3)])
def test_best_instance_cache_matches_uncached_loop(M, m, attempts, seed):
    mus = [coherence(_drawn_signs((seed, m, a), m, M))[0] for a in range(attempts)]
    best = min(range(attempts), key=lambda a: (mus[a], a))
    want = (mus[best], (seed, m, best))
    assert _best_random_instance(M, m, attempts, seed) == want
    hits = _best_random_instance.cache_info().hits
    assert _best_random_instance(M, m, attempts, seed) == want  # served from the cache
    assert _best_random_instance.cache_info().hits == hits + 1


def test_search_witness_replays_the_satisfying_mu():
    M, K, attempts, seed = 63, 2, 3, 1
    res = min_channels_search("donoho_elad", M, K, attempts=attempts, seed=seed, ceiling=4096)
    assert res.status == "found"
    s, m, a = res.witness_seed
    assert (s, m) == (seed, res.m) and 0 <= a < attempts
    mu, _ = coherence(_drawn_signs(res.witness_seed, m, M))
    assert mu == _best_random_instance(M, m, attempts, seed)[0]
    assert math.floor(0.5 * (1.0 + 1.0 / mu)) >= K
    # one channel fewer, the best of the same draws misses the bound
    mu_below = _best_random_instance(M, m - 1, attempts, seed)[0]
    assert math.floor(0.5 * (1.0 + 1.0 / mu_below)) < K


def test_search_rejects_nonpositive_attempts():
    with pytest.raises(ValueError, match="attempts"):
        min_channels_search("donoho_elad", 63, 2, attempts=0)
