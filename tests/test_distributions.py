"""Nonzero-value distributions and the two moment constants feeding the
probability bound, checked against closed forms, an independent
Dirichlet identity for the complex Gaussian case, and a Monte Carlo
spelled out in the test for the uniform kinds' quadrature."""

import math

import numpy as np
import pytest

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
        d = NonzeroDistribution(kind)
        u = sample_values(d, (200_000,), rng)
        assert np.isclose(np.mean(np.abs(u) ** 2), d.second_moment, rtol=0.02), kind


def test_complex_kinds_are_complex():
    rng = np.random.default_rng(1)
    for kind in KINDS:
        d = NonzeroDistribution(kind)
        u = sample_values(d, (8,), rng)
        assert np.iscomplexobj(u) == kind.startswith("complex")


def test_bernoulli_values_are_signs():
    d = NonzeroDistribution("bernoulli_sign")
    u = sample_values(d, (1000,), np.random.default_rng(2))
    assert set(np.unique(u)) == {-1.0, 1.0}


def test_k_equals_one_is_exactly_one():
    for kind in KINDS:
        c = moment_constants(NonzeroDistribution(kind), 1)
        assert c.B_K == 1.0 and c.C_K == 1.0


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
        for K in (2, 6, 24):
            assert moment_constants(NonzeroDistribution(kind), K).B_K == 1.0, (kind, K)


def test_complex_uniform_B_equals_C():
    # independent symmetric real and imaginary parts: E[u^2 e^(-t|u|^2)]
    # vanishes, so |sum u_i^2|^2 keeps only the diagonal terms of C_K
    for K in (2, 3, 12, 24, 195):
        c = moment_constants(NonzeroDistribution("complex_uniform"), K)
        assert c.B_K == c.C_K, K


def test_bernoulli_constants_are_degenerate():
    # |u_i| identical: C_K = 1/K with zero variance
    c = moment_constants(NonzeroDistribution("bernoulli_sign"), 5)
    assert abs(c.C_K - 0.2) < 1e-12
    assert abs(c.B_K - 1.0) < 1e-12


def test_complex_normal_matches_dirichlet_identity():
    # |u_i|^2/||u||^2 is Dirichlet(1,...,1), so E sum w_i^2 = 2/(K+1).
    # The uniform kinds' quadrature, fed the complex Gaussian's
    # phi(t) = 1/(1+2t) and E[|u|^4 e^(-t|u|^2)] = 8/(1+2t)^3, must
    # return it without knowing that formula
    def gaussian(t):
        return 1.0 / (1.0 + 2.0 * t), 8.0 / (1.0 + 2.0 * t) ** 3

    for K in range(2, 65):
        got = distributions._quadrature_c(K, gaussian)
        assert abs(got / (2.0 / (K + 1)) - 1.0) <= 1e-13, K


def test_real_uniform_two_term_closed_form():
    # E[(x^4 + y^4) / (x^2 + y^2)^2] over the unit square is 3/2 - pi/4
    c = moment_constants(NonzeroDistribution("real_uniform"), 2)
    assert abs(c.C_K - (1.5 - math.pi / 4)) <= 1e-14


def test_quadrature_step_halving(monkeypatch):
    # the trapezoid rule in ln t converges geometrically: halving the
    # step must not move C_K beyond rounding, also for K in the thousands
    # where the integrand sits at t ~ 12/K and the small-t series matters
    Ks = (2, 3, 12, 24, 195, 1000, 4096, 8191)
    laws = ("real_uniform", "complex_uniform")
    coarse = {(k, K): moment_constants(NonzeroDistribution(k), K).C_K for k in laws for K in Ks}
    monkeypatch.setattr(distributions, "_S_STEP", distributions._S_STEP / 2)
    for (kind, K), c in coarse.items():
        fine = moment_constants(NonzeroDistribution(kind), K).C_K
        assert abs(c / fine - 1.0) <= 1e-12, (kind, K, c, fine)


def test_montecarlo_lands_on_closed_forms():
    # a plain Monte Carlo of B_K and C_K, spelled out here, must agree
    # with the quadrature within 4 standard errors for both uniform laws
    rng = np.random.default_rng(20240)
    for kind in ("real_uniform", "complex_uniform"):
        d = NonzeroDistribution(kind)
        for K in (2, 12, 24):
            u = sample_values(d, (200_000, K), rng)
            w = np.abs(u) ** 2
            nrm4 = w.sum(axis=1) ** 2
            exact = moment_constants(d, K)
            for name, draws in (
                ("C_K", (w * w).sum(axis=1) / nrm4),
                ("B_K", np.abs((u * u).sum(axis=1)) ** 2 / nrm4),
            ):
                want = getattr(exact, name)
                err = draws.std() / math.sqrt(draws.size)
                assert abs(draws.mean() - want) <= 4 * err + 1e-15, (kind, K, name)


def test_constants_draw_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("moment constants draw nothing")

    monkeypatch.setattr(distributions, "sample_values", refuse)
    monkeypatch.setattr(distributions, "block_rng", refuse)
    for kind, B, C in (
        ("complex_normal", 2.0 / 25, 2.0 / 25),
        ("bernoulli_sign", 1.0, 1.0 / 24),
        ("real_normal", 1.0, 72.0 / 624),
    ):
        c = moment_constants(NonzeroDistribution(kind), 24)
        assert c == MomentConstants(B, C, 24), kind
    for kind in ("complex_uniform", "real_uniform"):
        assert moment_constants(NonzeroDistribution(kind), 24).samples is None


def test_complex_uniform_frozen_values():
    # reference values from an independent 30-digit quadrature
    c12 = moment_constants(NonzeroDistribution("complex_uniform"), 12)
    assert abs(c12.C_K - 0.1154875879235219436) <= 1e-15
    c24 = moment_constants(NonzeroDistribution("complex_uniform"), 24)
    assert abs(c24.C_K - 0.0580579754474443085) <= 1e-15
    r24 = moment_constants(NonzeroDistribution("real_uniform"), 24)
    assert abs(r24.C_K - 0.0752824782836820319) <= 1e-15


def test_block_rng_streams():
    a = block_rng(7, 3).standard_normal(5)
    b = block_rng(7, 3).standard_normal(5)
    c = block_rng(7, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
