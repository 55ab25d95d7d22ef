"""Nonzero-value distributions and the two moment constants feeding the
probability bound, checked against closed forms and an independent
Dirichlet identity for the complex Gaussian case."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwclab import distributions
from mwclab.distributions import (
    KINDS,
    MomentConstants,
    NonzeroDistribution,
    block_rng,
    moment_constants,
    sample_values,
)


def test_kind_validation():
    with pytest.raises(ValueError):
        NonzeroDistribution("cauchy")
    for kind in KINDS:
        NonzeroDistribution(kind)


def test_second_moments_match_montecarlo():
    rng = np.random.default_rng(0)
    for kind in KINDS:
        d = NonzeroDistribution(kind, scale=1.5)
        u = sample_values(d, (200_000,), rng)
        assert np.isclose(np.mean(np.abs(u) ** 2), d.second_moment, rtol=0.02), kind


def test_complex_kinds_are_complex():
    rng = np.random.default_rng(1)
    for kind in KINDS:
        d = NonzeroDistribution(kind)
        u = sample_values(d, (8,), rng)
        assert np.iscomplexobj(u) == d.is_complex


def test_bernoulli_values_are_signs():
    d = NonzeroDistribution("bernoulli_sign", scale=2.0)
    u = sample_values(d, (1000,), np.random.default_rng(2))
    assert set(np.unique(u)) == {-2.0, 2.0}


def test_k_equals_one_is_exactly_one():
    for kind in KINDS:
        c = moment_constants(NonzeroDistribution(kind), 1)
        assert c.B_K == 1.0 and c.C_K == 1.0
        assert c.source == "closed_form"


def test_real_normal_closed_form():
    # C_K = 3K/(2K + K^2) from the fourth moment of a chi distribution
    c = moment_constants(NonzeroDistribution("real_normal"), 4)
    assert c.B_K == 1.0
    assert c.C_K == 0.5
    c12 = moment_constants(NonzeroDistribution("real_normal"), 12)
    assert np.isclose(c12.C_K, 36.0 / (24.0 + 144.0))


def test_real_kinds_have_unit_B():
    # real symmetric values: sum u_i^2 = ||u||^2 exactly
    for kind in ("real_normal", "real_uniform", "bernoulli_sign"):
        c = moment_constants(NonzeroDistribution(kind), 6, samples=10**5, seed=3)
        assert abs(c.B_K - 1.0) < 1e-12, kind


def test_bernoulli_constants_are_degenerate():
    # |u_i| identical: C_K = 1/K with zero variance
    c = moment_constants(NonzeroDistribution("bernoulli_sign"), 5, samples=10**5, seed=4)
    assert abs(c.C_K - 0.2) < 1e-12
    assert abs(c.B_K - 1.0) < 1e-12


def test_complex_normal_matches_dirichlet_identity():
    # |u_i|^2/||u||^2 is Dirichlet(1,...,1), so E sum w_i^2 = 2/(K+1);
    # the estimator must agree without knowing that formula
    for K in (2, 8, 24):
        c = moment_constants(
            NonzeroDistribution("complex_normal"), K, method="monte_carlo", samples=400_000, seed=0
        )
        want = 2.0 / (K + 1)
        assert abs(c.C_K - want) < 6 * c.stderr_C, (K, c.C_K, want)
        assert abs(c.B_K - want) < 6 * c.stderr_B, (K, c.B_K, want)


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 32), st.integers(0, 2**32 - 1))
def test_montecarlo_lands_on_closed_forms(K, seed):
    # the estimator knows no closed form; it must agree with them
    cn = moment_constants(
        NonzeroDistribution("complex_normal"), K, method="monte_carlo", samples=10**5, seed=seed
    )
    want = 2.0 / (K + 1)
    assert abs(cn.B_K - want) < 6 * cn.stderr_B, (K, cn.B_K, want)
    assert abs(cn.C_K - want) < 6 * cn.stderr_C, (K, cn.C_K, want)
    bs = moment_constants(
        NonzeroDistribution("bernoulli_sign"), K, method="monte_carlo", samples=10**5, seed=seed
    )
    assert bs.B_K == 1.0
    assert abs(bs.C_K - 1.0 / K) < 1e-12


def test_auto_takes_closed_forms_without_drawing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closed forms draw nothing")

    monkeypatch.setattr(distributions, "sample_values", refuse)
    for kind, B, C in (
        ("complex_normal", 2.0 / 25, 2.0 / 25),
        ("bernoulli_sign", 1.0, 1.0 / 24),
        ("real_normal", 1.0, 72.0 / 624),
    ):
        c = moment_constants(NonzeroDistribution(kind, scale=2.0), 24, seed=5)
        assert c == MomentConstants(B, C, 24, "closed_form"), kind
    with pytest.raises(AssertionError):
        moment_constants(NonzeroDistribution("complex_uniform"), 24, samples=10**5, seed=12345)


def test_complex_uniform_frozen_values():
    # frozen reference values from earlier large-sample runs
    c12 = moment_constants(NonzeroDistribution("complex_uniform"), 12, samples=400_000, seed=0)
    assert abs(c12.B_K - 0.11525) < 0.002
    assert abs(c12.C_K - 0.11547) < 0.002
    c24 = moment_constants(NonzeroDistribution("complex_uniform"), 24, samples=400_000, seed=0)
    assert abs(c24.B_K - 0.05806) < 0.0015
    assert abs(c24.C_K - 0.05806) < 0.0015


def test_closed_form_refused_where_unknown():
    with pytest.raises(ValueError):
        moment_constants(NonzeroDistribution("complex_uniform"), 4, method="closed_form")


def test_montecarlo_minimum_samples():
    with pytest.raises(ValueError):
        moment_constants(NonzeroDistribution("complex_normal"), 4, method="monte_carlo", samples=999)


def test_montecarlo_stderr_shrinks_with_samples():
    d = NonzeroDistribution("complex_uniform")
    small = moment_constants(d, 6, samples=10**5, seed=1)
    large = moment_constants(d, 6, samples=4 * 10**5, seed=1)
    assert large.stderr_C < small.stderr_C
    assert large.stderr_C < 0.75 * small.stderr_C  # roughly halves


def test_montecarlo_covariance_matches_draws():
    # recompute B, C and their covariance from the estimator's own streams
    d = NonzeroDistribution("complex_uniform")
    n, K, block = 10**5, 6, 2**14
    c = moment_constants(d, K, samples=n, seed=2)
    u = np.concatenate(
        [sample_values(d, (min(block, n - i), K), block_rng(2, j))
         for j, i in enumerate(range(0, n, block))]
    )
    w = np.abs(u) ** 2
    nrm2 = w.sum(axis=1)
    b = np.abs((u**2).sum(axis=1)) ** 2 / nrm2**2
    cc = (w**2).sum(axis=1) / nrm2**2
    assert np.isclose(c.B_K, b.mean(), rtol=1e-12)
    assert np.isclose(c.C_K, cc.mean(), rtol=1e-12)
    assert np.isclose(c.cov_BC, np.cov(b, cc, bias=True)[0, 1] / n, rtol=1e-6)
    assert abs(c.cov_BC) <= c.stderr_B * c.stderr_C
    # real kinds: B is identically 1, so it moves with nothing
    r = moment_constants(NonzeroDistribution("real_uniform"), K, samples=n, seed=2)
    assert r.stderr_B == 0.0 and r.cov_BC == 0.0


def test_montecarlo_is_deterministic():
    d = NonzeroDistribution("complex_normal")
    a = moment_constants(d, 5, method="monte_carlo", samples=10**5, seed=9)
    b = moment_constants(d, 5, method="monte_carlo", samples=10**5, seed=9)
    assert a == b
    c = moment_constants(d, 5, method="monte_carlo", samples=10**5, seed=10)
    assert c.C_K != a.C_K


def test_block_rng_streams():
    a = block_rng(7, 3).standard_normal(5)
    b = block_rng(7, 3).standard_normal(5)
    c = block_rng(7, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_scale_enters_second_moment():
    assert NonzeroDistribution("complex_normal", scale=3.0).second_moment == pytest.approx(18.0)
    assert NonzeroDistribution("real_uniform", scale=2.0).second_moment == pytest.approx(4.0 / 12.0)
    assert isinstance(
        moment_constants(NonzeroDistribution("real_normal"), 3), MomentConstants
    )
