"""Monte Carlo estimator for the isometry event probability: support
sampling statistics, exact degenerate cases, reproducibility, and the
validity report wiring."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from mwclab.distributions import NonzeroDistribution, block_rng, sample_values
from mwclab.montecarlo import (
    _BLOCK,
    ExripEstimate,
    bound_validity_report,
    empirical_exrip,
    sample_supports,
)
from mwclab.sensing import sensing_matrix
from mwclab.signmatrix import SignMatrix

CN = NonzeroDistribution("complex_normal")


def _phi(entries):
    return sensing_matrix(SignMatrix(np.asarray(entries, dtype=np.int8), "random", None))


def test_sample_support_is_uniform():
    M, K, draws = 195, 12, 4000
    supports = sample_supports(M, K, draws, np.random.default_rng(0))
    assert supports.shape == (draws, K)
    counts = np.zeros(M)
    for s in supports:
        assert len(set(int(i) for i in s)) == K
        counts[s] += 1
    p = K / M
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 5 * sigma)


def test_sample_support_full():
    s = sample_supports(7, 7, 1, np.random.default_rng(1))[0]
    assert sorted(int(i) for i in s) == list(range(7))


def _scalar_fisher_yates(M, K, rng):
    """Reference: the scalar partial Fisher-Yates shuffle, one integer
    draw in [0, M - i) per step."""
    idx = np.arange(M)
    for i in range(K):
        j = i + int(rng.integers(0, M - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:K].copy()


@pytest.mark.parametrize("M, K", [(195, 12), (7, 7), (2047, 50), (511, 24), (10, 1)])
def test_one_row_sampler_equals_scalar_shuffle(M, K):
    # recovery_experiment draws one support per trial through the block
    # sampler; its stream must match the scalar shuffle draw for draw
    for seed in range(5):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _scalar_fisher_yates(M, K, ref_rng)
        got = sample_supports(M, K, 1, rng)
        assert got.shape == (1, K)
        assert np.array_equal(got[0], want)
        assert rng.random() == ref_rng.random()


def test_identity_matrix_never_fails():
    # Phi = I: Z^2 = 1 exactly, so every trial is inside any delta band
    Phi = _phi([[1, 1], [1, -1]])
    est = empirical_exrip(Phi, 1, 0.05, CN, 2000, seed=0)
    assert est.empirical_p == 1.0
    assert est.moment2 == 1.0
    assert est.moment4 == 1.0
    assert est.stderr == 0.0


def test_scale_invariance_of_event():
    Phi = _phi(np.random.default_rng(3).integers(0, 2, (6, 31)) * 2 - 1)
    a = empirical_exrip(Phi, 4, 0.3, NonzeroDistribution("complex_normal", 1.0), 2000, seed=5)
    b = empirical_exrip(Phi, 4, 0.3, NonzeroDistribution("complex_normal", 3.0), 2000, seed=5)
    assert a.empirical_p == b.empirical_p
    assert np.isclose(a.moment2, b.moment2, rtol=1e-12)


def test_bit_reproducibility():
    Phi = _phi(np.random.default_rng(4).integers(0, 2, (8, 63)) * 2 - 1)
    a = empirical_exrip(Phi, 6, 0.4, CN, 3000, seed=11)
    b = empirical_exrip(Phi, 6, 0.4, CN, 3000, seed=11)
    assert a == b
    c = empirical_exrip(Phi, 6, 0.4, CN, 3000, seed=12)
    assert a.empirical_p != c.empirical_p or a.moment2 != c.moment2


def test_trial_count_floor():
    Phi = _phi([[1, 1], [1, -1]])
    with pytest.raises(ValueError):
        empirical_exrip(Phi, 1, 0.4, CN, 999)


def test_mean_z2_close_to_one(gold_80_511):
    Phi = sensing_matrix(gold_80_511)
    est = empirical_exrip(Phi, 24, 0.41421356237309515, CN, 5000, seed=0)
    assert 0.0 <= est.empirical_p <= 1.0
    assert est.stderr > 0.0
    assert abs(est.moment2 - 1.0) < 5 * est.moment2_stderr
    assert est.redraws == 0


def test_estimate_as_dict_keys():
    Phi = _phi([[1, 1], [1, -1]])
    est = empirical_exrip(Phi, 1, 0.4, CN, 1000, seed=0)
    assert isinstance(est, ExripEstimate)
    d = asdict(est)
    for key in ("trials", "empirical_p", "stderr", "moment2", "moment4", "seed", "redraws"):
        assert key in d


def test_validity_report_wiring(random_40_195):
    rep = bound_validity_report(random_40_195, 24, trials=5000, seed=0)
    d = asdict(rep)
    assert set(d) == {
        "theoretical",
        "estimate",
        "lower_bound_holds",
        "mean_z2_is_one",
        "moment4_predicted",
        "moment4_gap",
    }
    assert isinstance(rep.lower_bound_holds, bool)
    assert isinstance(rep.mean_z2_is_one, bool)
    # the theoretical value is a lower bound; the empirical frequency
    # should exceed it comfortably at these sizes
    assert rep.estimate.empirical_p + 3 * rep.estimate.stderr >= rep.theoretical.probability
    assert rep.moment4_predicted > 1.0


def _whole_block_exrip(Phi, K, delta, dist, trials, seed):
    """empirical_exrip as first written: one cols[supports] gather of
    every trial in a block, then one einsum, over the same streams."""
    cols = Phi.T.copy()
    M = cols.shape[0]
    hits = 0
    s2 = s4 = s8 = 0.0
    redraws = done = block_index = 0
    while done < trials:
        take = min(_BLOCK, trials - done)
        rng = block_rng(seed, block_index)
        supports = sample_supports(M, K, take, rng)
        values = sample_values(dist, (take, K), rng)
        nrm2 = (np.abs(values) ** 2).sum(axis=1)
        for _ in range(100):
            bad = np.nonzero(nrm2 < 1e-300)[0]
            if bad.size == 0:
                break
            redraws += int(bad.size)
            values[bad] = sample_values(dist, (bad.size, K), rng)
            nrm2[bad] = (np.abs(values[bad]) ** 2).sum(axis=1)
        y = np.einsum("tkm,tk->tm", cols[supports], values)
        z2 = (np.abs(y) ** 2).sum(axis=1) / nrm2
        hits += int((np.abs(z2 - 1.0) <= delta).sum())
        s2 += float(z2.sum())
        s4 += float((z2 * z2).sum())
        s8 += float((z2 * z2) @ (z2 * z2))
        done += take
        block_index += 1
    p = hits / trials
    m2, m4 = s2 / trials, s4 / trials
    return ExripEstimate(
        trials,
        p,
        math.sqrt(p * (1.0 - p) / trials),
        m2,
        math.sqrt(max(0.0, s4 / trials - m2 * m2) / trials),
        m4,
        math.sqrt(max(0.0, s8 / trials - m4 * m4) / trials),
        delta,
        K,
        seed,
        redraws,
    )


@pytest.mark.parametrize(
    "case, K, kind, trials",
    [
        ("gold", 24, "complex_normal", 10_000),
        ("random", 24, "complex_normal", 10_000),
        ("random", 1, "complex_normal", 3_000),
        ("random", 195, "complex_uniform", 3_000),
        ("gold", 12, "bernoulli_sign", 4_100),
        ("random", 7, "real_normal", 2048 + 64 * 3 + 5),
    ],
)
def test_sliced_gather_is_bit_identical(case, K, kind, trials, gold_80_511, random_40_195):
    S = gold_80_511 if case == "gold" else random_40_195
    Phi = sensing_matrix(S)
    dist = NonzeroDistribution(kind)
    got = empirical_exrip(Phi, K, 0.41421356237309515, dist, trials, seed=3)
    want = _whole_block_exrip(Phi, K, 0.41421356237309515, dist, trials, seed=3)
    for field in ExripEstimate.__dataclass_fields__:
        a, b = getattr(got, field), getattr(want, field)
        assert type(a) is type(b) and a == b, field
