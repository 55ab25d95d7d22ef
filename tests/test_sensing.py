"""Sensing matrix construction and the alpha/beta/gamma/coherence
measures, checked against direct-sum oracles, closed forms and
metamorphic invariances."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwclab.sensing import (
    QualityReport,
    _sign_gram,
    coherence,
    correlation_measures,
    quality_bounds_check,
    quality_measures,
    sensing_matrix,
    spectral_norm_sq,
    welch_lower_bound,
)
from mwclab.signmatrix import SignMatrix


def _sm(entries):
    return SignMatrix(np.asarray(entries, dtype=np.int8), "random", None)


def direct_measures(S):
    """O(m^2 M^2) literal evaluation of the three pair sums."""
    S = np.asarray(S, dtype=np.int64)
    m, M = S.shape
    rev = S[:, (-np.arange(M)) % M]
    a = sum(int(S[i] @ S[k]) ** 2 for i in range(m) for k in range(m))
    g = sum(int(S[i] @ rev[k]) ** 2 for i in range(m) for k in range(m))
    b = 0
    for i in range(m):
        for k in range(m):
            conv = [
                sum(int(S[i, n]) * int(S[k, (l - n) % M]) for n in range(M))
                for l in range(M)
            ]
            b += sum(v * v for v in conv)
    return (
        a / (m * M) ** 2,
        b / (m**2 * M**3),
        g / (m * M) ** 2,
    )


def test_sensing_matrix_two_by_two_identity():
    Phi = sensing_matrix(_sm([[1, 1], [1, -1]]))
    assert np.allclose(Phi, np.eye(2))


def test_sensing_matrix_single_row():
    Phi = sensing_matrix(_sm([[1, 1]]))
    assert np.allclose(Phi, [[np.sqrt(2), 0]])


def test_sensing_matrix_frobenius_norm_is_sqrt_M():
    rng = np.random.default_rng(0)
    S = _sm(rng.integers(0, 2, (6, 17)) * 2 - 1)
    Phi = sensing_matrix(S)
    assert np.isclose(np.linalg.norm(Phi) ** 2, 17.0)


@pytest.mark.parametrize("shape", [(1, 4), (2, 5), (3, 7), (4, 8), (5, 6)])
def test_measures_match_direct_oracle(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    S = rng.integers(0, 2, shape) * 2 - 1
    q = quality_measures(_sm(S))
    a, b, g = direct_measures(S)
    assert np.isclose(q.alpha, a, rtol=0, atol=1e-14)
    assert np.isclose(q.beta, b, rtol=0, atol=1e-14)
    assert np.isclose(q.gamma, g, rtol=0, atol=1e-14)


def test_all_ones_matrix_saturates_everything():
    q = quality_measures(_sm(np.ones((3, 9), dtype=np.int8)))
    assert q.alpha == 1.0
    assert q.beta == 1.0
    assert q.gamma == 1.0


def test_beta_is_exact_integer_ratio_small_M():
    # beta times m^2 M^4 must be the integer sum of squared column powers
    rng = np.random.default_rng(3)
    for M in (8, 21, 63):
        S = rng.integers(0, 2, (5, M)) * 2 - 1
        q = quality_measures(_sm(S))
        scaled = q.beta * (5**2) * float(M) ** 4
        assert abs(scaled - round(scaled)) < 1e-6


small_sign_matrices = st.tuples(st.integers(1, 5), st.integers(2, 12), st.integers(0, 10_000)).map(
    lambda t: (np.random.default_rng(t[2]).integers(0, 2, (t[0], t[1])) * 2 - 1)
)


@settings(max_examples=40, deadline=None)
@given(small_sign_matrices, st.integers(0, 4))
def test_row_negation_leaves_measures_unchanged(S, row):
    row = row % S.shape[0]
    q1 = quality_measures(_sm(S))
    T = S.copy()
    T[row] *= -1
    q2 = quality_measures(_sm(T))
    assert q1.alpha == q2.alpha
    assert q1.beta == q2.beta
    assert q1.gamma == q2.gamma
    assert np.isclose(q1.mu, q2.mu, atol=1e-12)
    assert np.isclose(q1.spectral_norm_sq, q2.spectral_norm_sq, rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(small_sign_matrices, st.integers(1, 11))
def test_common_cyclic_shift_preserves_alpha_beta_mu(S, shift):
    q1 = quality_measures(_sm(S))
    q2 = quality_measures(_sm(np.roll(S, shift % S.shape[1], axis=1)))
    assert np.isclose(q1.alpha, q2.alpha, atol=1e-14)
    assert np.isclose(q1.beta, q2.beta, atol=1e-14)
    assert np.isclose(q1.mu, q2.mu, atol=1e-10)
    assert np.isclose(q1.spectral_norm_sq, q2.spectral_norm_sq, rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(small_sign_matrices, st.integers(0, 10_000))
def test_row_permutation_preserves_measures(S, seed):
    perm = np.random.default_rng(seed).permutation(S.shape[0])
    q1 = quality_measures(_sm(S))
    q2 = quality_measures(_sm(S[perm]))
    assert q1.alpha == q2.alpha  # integer path: exactly invariant
    assert q1.gamma == q2.gamma
    # beta sums FFT column powers, so row order moves the last ulp
    assert np.isclose(q1.beta, q2.beta, rtol=1e-13)
    assert np.isclose(q1.mu, q2.mu, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 8), (7, 5), (12, 12), (2, 31)])
def test_spectral_norm_matches_eigendecomposition(shape):
    rng = np.random.default_rng(shape[0])
    S = rng.integers(0, 2, shape) * 2 - 1
    want = np.linalg.eigvalsh(S.astype(float).T @ S.astype(float))[-1] / shape[0]
    assert np.isclose(spectral_norm_sq(S), want, rtol=1e-8)
    # quality_measures reuses its own Gram for the same power iteration
    assert quality_measures(_sm(S)).spectral_norm_sq == spectral_norm_sq(S)


def test_coherence_matches_direct_gram():
    rng = np.random.default_rng(11)
    S = rng.integers(0, 2, (6, 33)) * 2 - 1
    Phi = sensing_matrix(_sm(S))
    G = np.abs(Phi.conj().T @ Phi)
    norms = np.linalg.norm(Phi, axis=0)
    G = G / norms[None, :] / norms[:, None]
    np.fill_diagonal(G, 0.0)
    mu, zeros = coherence(S)
    assert zeros == 0
    assert np.isclose(mu, G.max(), atol=1e-10)


def test_coherence_counts_zero_columns():
    # fft([1,-1,1,-1]) = [0,0,4,0]: three dead columns, one live
    mu, zeros = coherence(np.array([[1, -1, 1, -1]], dtype=np.int8))
    assert zeros == 3
    assert mu == 0.0


def test_zero_column_count_matches_column_power(hadamard_80_512):
    q = quality_measures(hadamard_80_512)
    F = np.fft.fft(hadamard_80_512.entries.astype(float), axis=1)
    P = (np.abs(F) ** 2).sum(axis=0)
    assert q.zero_columns == int((P < 1e-9).sum())
    assert q.zero_columns > 0  # Walsh rows concentrate their spectrum


def test_bounds_check_extremal_slack_all_ones():
    q = quality_measures(_sm(np.ones((4, 6), dtype=np.int8)))
    chk = quality_bounds_check(q)
    assert chk.ok
    assert chk.slacks["alpha_upper"] == 0.0
    assert chk.slacks["beta_upper"] == 0.0
    assert chk.slacks["gamma_upper"] == 0.0


def test_bounds_check_extremal_slack_hadamard(hadamard_80_512):
    q = quality_measures(hadamard_80_512)
    chk = quality_bounds_check(q)
    assert chk.ok
    assert abs(chk.slacks["alpha_lower"]) < 1e-15  # alpha = 1/m for orthogonal rows
    assert 100.0 * q.alpha == 1.25


def test_bounds_check_strict_raises_on_violation():
    # gamma = 0 here, below the Welch level: the reversed-correlation
    # lower bound is not a theorem and this is its counterexample
    q = quality_measures(_sm([[1, 1, 1, -1]]))
    assert q.gamma == 0.0
    chk = quality_bounds_check(q)
    assert not chk.ok
    assert chk.violations == ("gamma_lower",)
    with pytest.raises(ValueError):
        quality_bounds_check(q, strict=True)


def test_welch_lower_bound_values():
    assert np.isclose(welch_lower_bound(1, 4), 1.0 / 7.0)
    assert np.isclose(welch_lower_bound(80, 511), 159.0 / 81759.0)


def test_random_alpha_concentrates_at_expectation():
    # E[alpha] = 1/m + (m-1)/(mM) for i.i.d. sign entries
    m, M = 80, 511
    expect = 1.0 / m + (m - 1) / (m * M)
    vals = []
    for seed in range(20):
        S = np.random.default_rng(seed).integers(0, 2, (m, M)) * 2 - 1
        q = quality_measures(_sm(S.astype(np.int8)))
        vals.append(q.alpha)
    assert abs(np.mean(vals) - expect) / expect < 0.02


def test_quality_report_as_dict_keys():
    q = quality_measures(_sm([[1, -1, 1], [1, 1, -1]]))
    assert isinstance(q, QualityReport)
    assert set(asdict(q)) == {
        "alpha",
        "beta",
        "gamma",
        "mu",
        "spectral_norm_sq",
        "m",
        "M",
        "zero_columns",
    }


def _signs(m, M, seed):
    return (np.random.default_rng(seed).integers(0, 2, (m, M)) * 2 - 1).astype(np.int8)


# tall (m > M) as well as wide shapes, so both sides of the Gram run
any_shape_sign_matrices = st.tuples(
    st.integers(1, 40), st.integers(1, 40), st.integers(0, 10_000)
).map(lambda t: _signs(*t))


@settings(max_examples=60, deadline=None)
@given(any_shape_sign_matrices)
@example(_signs(1500, 97, 1))  # long enough reductions for BLAS to block them
@example(_signs(97, 1500, 2))
def test_blas_gram_equals_integer_gram(S):
    Si = S.astype(np.int64)
    want = Si @ Si.T if S.shape[0] <= S.shape[1] else Si.T @ Si
    W = _sign_gram(S)
    assert W.dtype == np.float64
    assert W.shape == want.shape
    assert np.array_equal(W, want.astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(any_shape_sign_matrices)
def test_alpha_gamma_equal_integer_pair_sums(S):
    m, M = S.shape
    Si = S.astype(np.int64)
    G = Si @ Si.T
    Grev = Si @ Si[:, (-np.arange(M)) % M].T
    q = quality_measures(_sm(S))
    assert q.alpha == float((G * G).sum()) / (m * M) ** 2
    assert q.gamma == float((Grev * Grev).sum()) / (m * M) ** 2
    # the exrip-only path runs the same formulas
    assert correlation_measures(_sm(S)) == (q.alpha, q.beta, q.gamma)
