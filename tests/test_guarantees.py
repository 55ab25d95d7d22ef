"""Probability bound algebra, the closed-form channel estimate, the
coherence plug-ins and StRIP bounds, and the minimal-m search."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwclab import guarantees, signmatrix
from mwclab.distributions import KINDS, MomentConstants, NonzeroDistribution, moment_constants
from mwclab.guarantees import (
    BP_DELTA,
    ExripInputs,
    GuaranteeResult,
    _CandidatePool,
    _candidate_pool,
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
from mwclab.sensing import coherence, sensing_matrix, spectral_norm_sq
from mwclab.signmatrix import SignMatrix, _block_rows, _random_signs

UNIT = MomentConstants(B_K=1.0, C_K=1.0, K=1)
CN = NonzeroDistribution("complex_normal")


def _inputs(alpha=0.02, beta=0.002, gamma=0.002, m=80, M=511, delta=BP_DELTA, constants=UNIT):
    return ExripInputs(alpha, beta, gamma, m, M, delta, constants)


def test_delta_constant():
    assert BP_DELTA == math.sqrt(2.0) - 1.0


def test_gold_probability_window(gold_80_511):
    res = exrip_from_sign_matrix(gold_80_511, BP_DELTA, moment_constants(CN, 24))
    assert res.feasible
    assert 0.930 <= res.probability <= 0.945


def test_kasami_probability_window(kasami_16_255):
    res = exrip_from_sign_matrix(kasami_16_255, BP_DELTA, moment_constants(CN, 12))
    assert 0.65 <= res.probability <= 0.72


def test_hadamard_probability_clamps_to_zero(hadamard_80_512):
    res = exrip_from_sign_matrix(hadamard_80_512, BP_DELTA, moment_constants(CN, 24))
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(2, 9), st.integers(1, 4), st.integers(0, 10_000))
@example(1, 4, 3, 0)
@example(5, 9, 4, 1)
def test_exrip_excess_is_the_variance_of_z2(m, M, K, seed):
    # the bound is Chebyshev's inequality with the exact variance: for
    # every S, E[Z^2] = 1 and the excess is E[Z^4] - 1, where Z^2 =
    # ||Phi u||^2 / ||u||^2 over a uniform K-support and i.i.d. values;
    # under bernoulli_sign every support and sign vector is enumerated
    K = min(K, M - 1)
    S = SignMatrix(_random_signs(seed, m, M), "random", None)
    delta = 0.5
    constants = moment_constants(NonzeroDistribution("bernoulli_sign"), K)
    result = exrip_from_sign_matrix(S, delta, constants)
    excess = (1.0 - result.raw_value) * delta**2

    Phi = sensing_matrix(S)
    signs = (np.arange(1 << K)[None, :] >> np.arange(K)[:, None]) & 1
    U = 2.0 * signs - 1.0  # K x 2^K, every sign vector
    z2 = np.concatenate(
        [(np.abs(Phi[:, T] @ U) ** 2).sum(axis=0) / K for T in combinations(range(M), K)]
    )
    assert abs(z2.mean() - 1.0) <= 1e-12
    want = (z2 * z2).mean() - 1.0
    assert abs(excess - want) <= 1e-12 * (1.0 + want), (m, M, K, excess, want)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(2, 9),
    st.integers(1, 4),
    st.integers(0, 10_000),
    st.sampled_from(KINDS),
)
@example(5, 9, 4, 1, "real_uniform")
@example(3, 6, 1, 2, "real_normal")
def test_exrip_excess_matches_the_weight_moment_oracle(m, M, K, seed, kind):
    # E[Z^4] from G = Phi^H Phi, averaged over every K-support T, with
    # w = u / ||u|| and E|w_j|^4 = C/K, E|w_j|^2 |w_k|^2 = (1 - C)/(K(K-1))
    # and E[w_j^2 conj(w_k)^2] = (B - C)/(K(K-1)) for j != k; every other
    # fourth moment of w vanishes because each value law is symmetric
    K = min(K, M - 1)
    S = SignMatrix(_random_signs(seed, m, M), "random", None)
    delta = 0.5
    constants = moment_constants(NonzeroDistribution(kind), K)
    B, C = constants.B_K, constants.C_K
    excess = (1.0 - exrip_from_sign_matrix(S, delta, constants).raw_value) * delta**2

    Phi = sensing_matrix(S)
    G = Phi.conj().T @ Phi
    pair = 1.0 / (K * (K - 1)) if K > 1 else 0.0
    z4 = []
    for T in combinations(range(M), K):
        GT = G[np.ix_(T, T)]
        d = GT.diagonal().real
        off = GT - np.diag(GT.diagonal())
        z4.append(
            (d * d).sum() * C / K
            + (d.sum() ** 2 - (d * d).sum() + (np.abs(off) ** 2).sum()) * (1.0 - C) * pair
            + (off * off).sum().real * (B - C) * pair
        )
    want = float(np.mean(z4)) - 1.0
    assert abs(excess - want) <= 1e-12 * (1.0 + want), (m, M, K, kind, excess, want)


def test_rho_property():
    assert np.isclose(_inputs(M=511).rho, 511.0 / 510.0)


def test_inputs_validation():
    with pytest.raises(ValueError):
        _inputs(delta=0.0)
    with pytest.raises(ValueError):
        _inputs(M=20, constants=moment_constants(CN, 20))


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


def test_candes_plan_at_one_column_is_a_value_error():
    # log M = 0 at M = 1: the c-dependent check has no threshold there
    with pytest.raises(ValueError, match="M=1"):
        coherence_guarantees(0.0, 1, 1.0, 1, candes_plan_c=1.0)
    assert not coherence_guarantees(0.0, 1).candes_plan_evaluable


@pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.0, -1.0])
def test_candes_plan_needs_a_finite_positive_constant(c):
    with pytest.raises(ValueError, match="candes_plan_c"):
        coherence_guarantees(1.0 / 23.0, 195, 6.0, 12, candes_plan_c=c)


@pytest.mark.parametrize(
    "bound",
    [
        lambda d: exrip_approx(10, d),
        lambda d: strip_calderbank(10, 64, 1, d),  # K = 1: the edge is 0
        lambda d: rip_min_m(64, 1, d, 0.97),
        lambda d: ExripInputs(0.1, 0.1, 0.1, 4, 8, d, moment_constants(NonzeroDistribution(), 2)),
    ],
    ids=["exrip_approx", "calderbank", "rip_min_m", "ExripInputs"],
)
@pytest.mark.parametrize("delta", [1e-200, 5e-324])
def test_a_delta_whose_square_underflows_is_a_value_error(bound, delta):
    assert delta > 0.0 and delta * delta == 0.0
    with pytest.raises(ValueError, match="delta"):
        bound(delta)
    bound(1e-150)  # its square is still a positive float


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


@pytest.mark.parametrize("bound", ["exrip_approx", "rip"])
def test_search_probes_a_ceiling_that_is_not_a_power_of_two(bound):
    # the answer is the smallest m <= ceiling a linear scan finds, else
    # "ceiling": the doubling must probe the ceiling itself, not stop at
    # the last power of two below it (exrip_approx first passes at 39)
    M, K = 195, 24
    target, _ = guarantees._search_policy(bound, K)
    if bound == "exrip_approx":
        first = next(m for m in range(1, 10**4) if exrip_approx(m).probability >= target)
    else:
        first = next(m for m in range(1, 10**4) if m >= rip_min_m(M, K, BP_DELTA, target))
    for ceiling in [*range(1, 201), *range(first - 3, first + 4), 3000]:
        res = min_channels_search(bound, M, K, ceiling=ceiling)
        want = (first, "found") if first <= ceiling else (None, "ceiling")
        assert (res.m, res.status) == want, ceiling


def test_search_rejects_unknown_bound():
    with pytest.raises(ValueError):
        min_channels_search("nosuch", 195, 12)


def test_search_rip_matches_direct_formula():
    res = min_channels_search("rip", 195, 12)
    assert res.status == "found"
    assert res.m == rip_min_m(195, 12, BP_DELTA, 0.97)
    assert res.params["target_prob"] == 0.97


def _drawn_signs(key, m, M):
    # the search's published draw stream, spelled out independently
    return (np.random.default_rng(key).integers(0, 2, size=(m, M)) * 2 - 1).astype(np.int8)


@pytest.mark.parametrize("M, m, attempts, seed", [(63, 5, 4, 0), (31, 40, 3, 7), (195, 12, 2, 3)])
def test_best_instance_cache_matches_uncached_loop(M, m, attempts, seed, monkeypatch):
    mus = [coherence(_drawn_signs((seed, a), m, M))[0] for a in range(attempts)]
    pool = _CandidatePool(M, attempts, seed)
    assert [pool.mu(a, m) for a in range(attempts)] == mus
    best = min(range(attempts), key=lambda a: (mus[a], a))
    assert min(range(attempts), key=lambda a: pool.mu(a, m)) == best
    # served from the memo: no draw is scored twice
    monkeypatch.setattr(guarantees, "_gram_coherence", None)
    monkeypatch.setattr(guarantees, "_blocked_coherence", None)
    assert [pool.mu(a, m) for a in range(attempts)] == mus


def test_search_witness_replays_the_satisfying_mu():
    M, K, attempts, seed = 63, 2, 3, 1
    res = min_channels_search("donoho_elad", M, K, attempts=attempts, seed=seed, ceiling=4096)
    assert res.status == "found"
    s, a = res.witness_seed
    m = res.m
    assert s == seed and 0 <= a < attempts

    def passes(mu):
        return math.floor(0.5 * (1.0 + 1.0 / mu)) >= K

    mu, _ = coherence(_drawn_signs(res.witness_seed, m, M))
    assert mu == _candidate_pool(M, attempts, seed).mu(a, m)
    assert passes(mu)
    # the witness is the first passing draw at m
    assert not any(passes(coherence(_drawn_signs((seed, b), m, M))[0]) for b in range(a))
    # one channel fewer, every draw's prefix misses the bound
    assert not any(passes(coherence(_drawn_signs((seed, b), m - 1, M))[0]) for b in range(attempts))


@pytest.mark.parametrize("key", [((0, 95), 4353), ((0, 0), 40)])
def test_witness_norm_is_the_spectral_norm_of_the_draw(key):
    # a tall witness takes the top eigenvalue of the pool's S^T S, here
    # grown from a checkpoint, a wide one S S^T of its rows: both give
    # the spectral norm of the materialized prefix, bit for bit
    (seed, a), m = key
    M = 195
    pool = _CandidatePool(M, a + 1, seed)
    pool.mu(a, 3001)
    assert pool.norm_sq(a, m) == spectral_norm_sq(_random_signs((seed, a), m, M))


def _assert_pool_is_the_prefix(pool, a, m):
    S = _drawn_signs((pool.seed, a), m, pool.M)
    assert pool.mu(a, m) == coherence(S)[0]
    if m > pool.M:
        Si = S.astype(np.int64)
        assert np.array_equal(pool.gram(a, m), Si.T @ Si)


def test_grown_gram_named_cases():
    M, seed = 7, 3
    rows = _block_rows(M)
    pool = _CandidatePool(M, 2, seed)
    for a in range(2):
        # m0 * M = 63 is odd: the rows grown from this checkpoint start
        # on the high half of a word
        _assert_pool_is_the_prefix(pool, a, 9)
        assert [(m0, T0.dtype) for m0, T0 in pool._checkpoints[a]] == [(9, np.int32)]
        # a block and 96 rows more: an extension of two blocks of its own
        top = 9 + rows + 96
        _assert_pool_is_the_prefix(pool, a, top)
        assert [c[0] for c in pool._checkpoints[a]] == [9, top]
        # bisection goes down, grown from the checkpoint below it
        mid = (9 + top) // 2
        _assert_pool_is_the_prefix(pool, a, mid)
        assert [c[0] for c in pool._checkpoints[a]] == [9, mid]
        # and up again, by a block and a row: the extension crosses a
        # block edge
        _assert_pool_is_the_prefix(pool, a, mid + rows + 1)
        assert [c[0] for c in pool._checkpoints[a]] == [mid, mid + rows + 1]
        # a probe at a checkpoint reads it back
        _assert_pool_is_the_prefix(pool, a, mid)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 24),
    st.lists(st.integers(1, 4400), min_size=1, max_size=6),
    st.integers(0, 10_000),
    st.integers(16, 4096),
)
def test_grown_gram_is_the_gram_of_the_materialized_prefix(M, probes, seed, rows):
    # blocks of `rows` rows put block edges inside most extensions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signmatrix, "_BLOCK_ENTRIES", rows * M)
        pool = _CandidatePool(M, 2, seed)
        for m in probes:
            for a in range(2):
                _assert_pool_is_the_prefix(pool, a, m)
            assert all(len(kept) <= 2 for kept in pool._checkpoints)


_ORACLE_TARGET = {"donoho_elad": 0.97, "tropp_coherence": 0.97, "gan": 0.97, "exrip": 0.85}


def _reference_search(bound, M, K, attempts, seed, ceiling, delta):
    """min_channels_search spelled out: every probe scores the prefix of
    every attempt, drawn with integers(0, 2), and takes the first pass."""
    target = _ORACLE_TARGET[bound]

    def ok(S):
        if bound == "exrip":
            constants = moment_constants(CN, K)
            S = SignMatrix(S, "random")
            return exrip_from_sign_matrix(S, delta, constants).probability >= target
        mu = coherence(S)[0]
        if bound == "donoho_elad":
            return mu > 0 and math.floor(0.5 * (1.0 + 1.0 / mu)) >= K
        if bound == "tropp_coherence":
            return mu > 0 and math.floor(1.0 / (3.0 * mu)) >= K
        r = strip_gan(mu, M, K, delta)
        return r.feasible and r.probability >= target

    def first_pass(m):
        oks = [ok(_drawn_signs((seed, a), m, M)) for a in range(attempts)]
        return oks.index(True) if True in oks else None

    lo, hi = 0, 1
    while hi <= ceiling and (first := first_pass(hi)) is None:
        lo, hi = hi, hi * 2
    if hi > ceiling:
        return None, "ceiling", None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (f := first_pass(mid)) is not None:
            hi, first = mid, f
        else:
            lo = mid
    return hi, "found", (seed, first)


# (bound, M, K, delta): searches that end on wide (m <= M) and on tall
# candidates, below the ceiling; the one that reaches it is in the next test
_ORACLE_CASES = [
    ("donoho_elad", 63, 2, BP_DELTA),
    ("tropp_coherence", 31, 1, BP_DELTA),
    ("gan", 63, 1, 0.9),
    ("gan", 31, 1, BP_DELTA),
    ("exrip", 63, 4, BP_DELTA),
]


@pytest.mark.parametrize("bound, M, K, delta", _ORACLE_CASES)
@pytest.mark.parametrize("attempts, seed", [(1, 0), (3, 5), (4, 11)])
def test_search_early_exit_matches_the_full_scan(bound, M, K, delta, attempts, seed):
    guarantees._candidate_pool.cache_clear()
    res = min_channels_search(
        bound, M, K, delta=delta, dist=CN, attempts=attempts, seed=seed, ceiling=4096
    )
    want = _reference_search(bound, M, K, attempts, seed, 4096, delta)
    assert (res.m, res.status, res.witness_seed) == want


@pytest.mark.parametrize(
    "order", [("donoho_elad", "tropp_coherence", "gan"), ("gan", "tropp_coherence", "donoho_elad")]
)
def test_bounds_share_one_pool_without_borrowing_verdicts(order):
    # a looser bound's first pass at m says nothing about a stricter
    # bound at m: each scans on over the shared scores
    M, K, attempts, seed, ceiling = 63, 2, 4, 2, 4096
    guarantees._candidate_pool.cache_clear()
    pool = guarantees._candidate_pool(M, attempts, seed)
    for bound in order:
        res = min_channels_search(bound, M, K, attempts=attempts, seed=seed, ceiling=ceiling)
        want = _reference_search(bound, M, K, attempts, seed, ceiling, BP_DELTA)
        assert (res.m, res.status, res.witness_seed) == want, bound
    assert guarantees._candidate_pool(M, attempts, seed) is pool


def test_table1_shares_one_pool_and_releases_it(monkeypatch):
    # the nine bounds share one pool while the table runs; once it has
    # returned, neither the search's cache nor anything else holds it
    from mwclab.presets import Preset, load_preset
    from mwclab.reports import table1_report

    made = []

    class Tracked(_CandidatePool):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(guarantees, "_CandidatePool", Tracked)
    guarantees._candidate_pool.cache_clear()
    base = load_preset("table1_mwc")
    rows = table1_report(Preset(base.name, {**base.values, "attempts": "2", "ceiling": "512"}))
    assert len(rows) == 9 and len(made) == 1
    assert guarantees._candidate_pool.cache_info().currsize == 0
    gc.collect()
    assert made[0]() is None


def test_channel_search_holds_under_3_mb():
    # the benchmark's channel search (every bound, the full ceiling of
    # 32768 rows at M = 195, two draws per m) streams each candidate's
    # Gram block by block: no tall matrix, one 512 KB block at a time
    # and two 152 KB checkpoints per draw
    from mwclab.presets import Preset, load_preset
    from mwclab.reports import table1_report

    base = load_preset("table1_mwc")
    preset = Preset(base.name, {**base.values, "attempts": "2"})
    guarantees._candidate_pool.cache_clear()
    tracemalloc.start()
    try:
        rows = table1_report(preset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 9 and rows[-1]["m_required"] == 39
    assert peak < 3 << 20, peak


def test_search_rejects_nonpositive_attempts():
    with pytest.raises(ValueError, match="attempts"):
        min_channels_search("donoho_elad", 63, 2, attempts=0)


@pytest.mark.parametrize("bound", ["donoho_elad", "candes_plan", "rip"])
@pytest.mark.parametrize("ceiling", [0, -4])
def test_search_rejects_a_ceiling_below_one(bound, ceiling):
    # no m <= ceiling is a channel count, so no row can say "not
    # satisfied by any m <= ceiling"
    with pytest.raises(ValueError, match=f"ceiling must be positive, got {ceiling}"):
        min_channels_search(bound, 63, 2, ceiling=ceiling)


@pytest.mark.parametrize("bound", ["donoho_elad", "exrip"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_search_rejects_a_seed_outside_64_bits(bound, seed):
    # default_rng((seed, a)) would fail on -1 with a message that names
    # no seed; the range is block_rng's
    with pytest.raises(ValueError, match=f"seed must be in \\[0, 2\\*\\*64\\), got {seed}"):
        min_channels_search(bound, 63, 2, attempts=2, ceiling=8, seed=seed)
