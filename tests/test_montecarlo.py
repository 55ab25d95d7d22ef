"""Monte Carlo estimator for the isometry event probability: support
sampling statistics, exact degenerate cases, an exact enumeration
oracle for the sign law, reproducibility, and the validity report
wiring."""

import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest

from mwclab.distributions import NonzeroDistribution, block_rng, moment_constants, sample_values
from mwclab.guarantees import BP_DELTA, exrip_from_sign_matrix
from mwclab.montecarlo import (
    _BLOCK,
    ExripEstimate,
    bound_validity_report,
    empirical_exrip,
    sample_supports,
)
from mwclab.sensing import sensing_matrix
from mwclab.signmatrix import FamilySpec, SignMatrix, build_sign_matrix

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
        "moment4_z",
    }
    assert isinstance(rep.lower_bound_holds, bool)
    assert isinstance(rep.mean_z2_is_one, bool)
    # the theoretical value is a lower bound; the empirical frequency
    # should exceed it comfortably at these sizes
    assert rep.estimate.empirical_p + 3 * rep.estimate.stderr >= rep.theoretical.probability
    assert rep.moment4_predicted > 1.0
    assert rep.moment4_z == rep.moment4_gap / rep.estimate.moment4_stderr


def test_moment4_z_is_zero_when_every_draw_is_exact():
    # Phi = I at K = 1: every Z^2 is 1, so the stderr and the gap are 0
    S = SignMatrix(np.array([[1, 1], [1, -1]], dtype=np.int8), "random", None)
    rep = bound_validity_report(S, 1, trials=1000, seed=0)
    assert rep.estimate.moment4_stderr == 0.0
    assert rep.moment4_gap == 0.0
    assert rep.moment4_z == 0.0


def _matmul_rows(values, gathered):
    """y[t] = values[t] @ gathered[t]: the product empirical_exrip runs."""
    return np.matmul(values[:, None, :], gathered)[:, 0]


def _einsum_rows(values, gathered):
    """The same product as an einsum, which may sum the K terms in
    another order (empirical_exrip's kernel before the stacked matmul)."""
    return np.einsum("tkm,tk->tm", gathered, values)


def _whole_block_exrip(Phi, K, delta, dist, trials, seed, rows=_matmul_rows):
    """empirical_exrip without slabs: one cols[supports] gather of every
    trial in a block, then one `rows` product, over the same streams."""
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
        y = rows(values, cols[supports])
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


SLAB_CASES = [
    ("gold", 24, "complex_normal", 10_000),
    ("random", 24, "complex_normal", 10_000),
    ("random", 1, "complex_normal", 3_000),
    ("random", 195, "complex_uniform", 3_000),
    ("gold", 12, "bernoulli_sign", 4_100),
    ("random", 7, "real_normal", 2048 + 64 * 3 + 5),
]


@pytest.mark.parametrize("case, K, kind, trials", SLAB_CASES)
def test_sliced_gather_is_bit_identical(case, K, kind, trials, gold_80_511, random_40_195):
    S = gold_80_511 if case == "gold" else random_40_195
    Phi = sensing_matrix(S)
    dist = NonzeroDistribution(kind)
    got = empirical_exrip(Phi, K, 0.41421356237309515, dist, trials, seed=3)
    want = _whole_block_exrip(Phi, K, 0.41421356237309515, dist, trials, seed=3)
    for field in ExripEstimate.__dataclass_fields__:
        a, b = getattr(got, field), getattr(want, field)
        assert type(a) is type(b) and a == b, field


@pytest.mark.parametrize("case, K, kind, trials", SLAB_CASES)
def test_matmul_agrees_with_the_einsum_product(case, K, kind, trials, gold_80_511, random_40_195):
    # the two products sum the K terms in different orders, so the
    # moments may differ in the last bits; counts and hits may not
    S = gold_80_511 if case == "gold" else random_40_195
    Phi = sensing_matrix(S)
    dist = NonzeroDistribution(kind)
    got = empirical_exrip(Phi, K, 0.41421356237309515, dist, trials, seed=3)
    want = _whole_block_exrip(
        Phi, K, 0.41421356237309515, dist, trials, seed=3, rows=_einsum_rows
    )
    for field in ("trials", "empirical_p", "stderr", "redraws"):
        assert getattr(got, field) == getattr(want, field), field
    for field in ("moment2", "moment2_stderr", "moment4", "moment4_stderr"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0), field


def _int64_fisher_yates(M, K, count, rng):
    """Reference: the row-vectorised partial Fisher-Yates on an int64
    index table, one integer draw in [0, M - i) per row and step."""
    idx = np.tile(np.arange(M, dtype=np.int64), (count, 1))
    rows = np.arange(count)
    for i in range(K):
        j = i + rng.integers(0, M - i, size=count)
        idx[rows, i], idx[rows, j] = idx[rows, j], idx[rows, i]
    return idx[:, :K]


@pytest.mark.parametrize("M, K", [(511, 24), (195, 24), (255, 12), (7, 7)])
def test_int32_table_draws_the_int64_supports(M, K):
    ref_rng, rng = block_rng(0, 0), block_rng(0, 0)
    want = _int64_fisher_yates(M, K, 2048, ref_rng)
    got = sample_supports(M, K, 2048, rng)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)
    assert rng.random() == ref_rng.random()


BS = NonzeroDistribution("bernoulli_sign")


def _exact_sign_exrip(Phi, K, delta):
    """P(|Z^2 - 1| <= delta) under uniform K-supports and i.i.d. +/-1
    values, by enumerating every support and sign vector, with the
    smallest distance of any Z^2 from the band's edges."""
    M = Phi.shape[1]
    supports = np.array(list(itertools.combinations(range(M), K)))
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=K)))
    y = np.einsum("vk,itk->tvi", signs, Phi[:, supports])
    z2 = (np.abs(y) ** 2).sum(axis=2) / K  # ||u||^2 = K
    return float((np.abs(z2 - 1.0) <= delta).mean()), float(np.abs(np.abs(z2 - 1.0) - delta).min())


@pytest.mark.parametrize(
    "m, M, K, seed, delta",
    [
        (2, 5, 2, 1, 0.9),
        (3, 7, 3, 2, 0.6),
        (4, 8, 2, 3, BP_DELTA),
        (5, 9, 4, 4, 0.6),
        (5, 9, 3, 5, BP_DELTA),
        (3, 6, 4, 6, 0.8),
        (4, 9, 1, 7, 0.5),
        (5, 7, 4, 8, 0.9),
    ],
)
def test_empirical_and_bound_against_exact_sign_enumeration(m, M, K, seed, delta):
    S = build_sign_matrix(FamilySpec("random", m=m, M=M, seed=seed))
    Phi = sensing_matrix(S)
    p, edge = _exact_sign_exrip(Phi, K, delta)
    assert edge > 1e-9  # no Z^2 on the band's edge, where rounding could flip a hit
    trials = 20_000
    est = empirical_exrip(Phi, K, delta, BS, trials, seed=seed)
    assert abs(est.empirical_p - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)
    bound = exrip_from_sign_matrix(S, delta, moment_constants(BS, K))
    assert bound.probability <= p


def _exact_complex_normal_exrip(Phi, K, delta):
    """P(|Z^2 - 1| <= delta) under uniform K-supports and i.i.d. complex
    normal values, with the smallest eigenvalue gap of any support.

    On a support T, Z^2 = sum_i lam_i D_i with lam the eigenvalues of
    Phi_T^H Phi_T and D uniform on the simplex (|g_i|^2 / sum |g|^2 of
    i.i.d. complex normals is Dirichlet(1, ..., 1)), whose tail is the
    Curry-Schoenberg spline P(Z^2 > x) = sum_i (lam_i - x)_+^(K-1) /
    prod_{j != i} (lam_i - lam_j) for distinct lam; averaging over all
    C(M, K) supports gives P exactly."""
    M = Phi.shape[1]
    A = Phi[:, np.array(list(itertools.combinations(range(M), K)))].transpose(1, 0, 2)
    lam = np.linalg.eigvalsh(A.conj().transpose(0, 2, 1) @ A)  # ascending per support
    diff = lam[:, :, None] - lam[:, None, :]
    diff[:, range(K), range(K)] = 1.0
    denom = diff.prod(axis=2)

    def tail(x):
        above = lam > x  # (lam - x)_+^0 is the step at x when K = 1
        return ((np.where(above, lam - x, 0.0) ** (K - 1) * above) / denom).sum(axis=1)

    p = float((tail(1.0 - delta) - tail(1.0 + delta)).mean())
    return p, float(np.diff(lam, axis=1).min(initial=np.inf))


# eigenvalues are O(1) here, so a gap of at least 1e-3 keeps the divided
# differences' cancellation near 2^-52 (1e3)^(K-1), below 1e-6 at K <= 4;
# K <= m keeps Phi_T^H Phi_T of full rank, without a repeated zero
_EIGENVALUE_GAP = 1e-3


@pytest.mark.parametrize(
    "m, M, K, seed, delta",
    [
        (2, 5, 2, 1, 0.5),
        (3, 7, 3, 2, 0.6),
        (4, 8, 2, 3, BP_DELTA),
        (5, 9, 4, 4, 0.6),
        (5, 9, 3, 5, BP_DELTA),
        (4, 6, 4, 6, 0.8),
        (4, 9, 1, 7, 0.5),
        (5, 7, 4, 8, 0.9),
    ],
)
def test_empirical_and_bound_against_exact_complex_normal_law(m, M, K, seed, delta):
    S = build_sign_matrix(FamilySpec("random", m=m, M=M, seed=seed))
    Phi = sensing_matrix(S)
    p, gap = _exact_complex_normal_exrip(Phi, K, delta)
    if gap < _EIGENVALUE_GAP:
        pytest.skip(f"eigenvalue gap {gap:.1e} below {_EIGENVALUE_GAP}: the spline would cancel")
    trials = 20_000
    est = empirical_exrip(Phi, K, delta, CN, trials, seed=seed)
    assert abs(est.empirical_p - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)
    bound = exrip_from_sign_matrix(S, delta, moment_constants(CN, K))
    assert bound.probability <= p
