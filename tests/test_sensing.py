"""Sensing matrix construction and the alpha/beta/gamma/coherence
measures, checked against direct-sum oracles, closed forms and
metamorphic invariances."""

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwclab import sensing
from mwclab.sensing import (
    _BLOCK_ROWS,
    _POWER_REL_TOL,
    _SPECTRUM_ROWS,
    _ZERO_COLUMN_TOL,
    QualityReport,
    _autocorrelation,
    _block_gram,
    _blocked_coherence,
    _column_gram,
    _gram_coherence,
    _pair_magnitudes,
    _row_spectrum,
    _sign_gram,
    _top_eigenvalue,
    _unit_columns,
    coherence,
    correlation_measures,
    quality_bounds_check,
    quality_measures,
    sensing_matrix,
    spectral_norm_sq,
    welch_lower_bound,
)
from mwclab.distributions import NonzeroDistribution, moment_constants
from mwclab.guarantees import BP_DELTA, ExripInputs, exrip_probability
from mwclab.sequences import gold_family, gold_t, hadamard_family, maximal_family, primitive_polys
from mwclab.signmatrix import (
    FamilySpec,
    SignMatrix,
    _random_signs,
    _sign_blocks,
    build_sign_matrix,
)


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


@pytest.mark.parametrize(
    "shape", [(1, 4), (2, 5), (3, 7), (4, 8), (5, 6), (6, 4), (9, 5), (7, 2), (12, 7)]
)
def test_measures_match_direct_oracle(shape):
    # wide and tall: beta is read off S^T S when tall and off the column
    # power when wide, and is the literal convolution sum to the bit
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    S = rng.integers(0, 2, shape) * 2 - 1
    q = quality_measures(_sm(S))
    a, b, g = direct_measures(S)
    assert np.isclose(q.alpha, a, rtol=0, atol=1e-14)
    assert q.beta == b
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
    assert q1.alpha == q2.alpha  # integer paths: exactly invariant
    assert q1.beta == q2.beta
    assert q1.gamma == q2.gamma
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


def test_bounds_check_reports_gamma_lower_violation():
    # gamma = 0 here, below the Welch level: the reversed-correlation
    # lower bound is not a theorem and this is its counterexample
    q = quality_measures(_sm([[1, 1, 1, -1]]))
    assert q.gamma == 0.0
    chk = quality_bounds_check(q)
    assert not chk.ok
    assert chk.violations == ("gamma_lower",)


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


def _pair_square_sum(A, B):
    """sum over rows i of A and k of B of (A_i . B_k)^2, an exact
    integer: each dot product of +/-1 rows is a float64 sum of at most
    M unit terms, and 512 rows of A are paired at a time."""
    blocks = (A[i : i + 512] @ B.T for i in range(0, len(A), 512))
    return sum(int((P.astype(np.int64) ** 2).sum()) for P in blocks)


@settings(max_examples=60, deadline=None)
@given(any_shape_sign_matrices)
@example(_signs(9, 1, 4))  # tall, M = 1: the reversal is the identity
@example(_signs(11, 2, 5))  # tall, M = 2: it still fixes every column
@example(build_sign_matrix(FamilySpec("hadamard", m=5, M=32)).entries)  # 25 zero columns
@example(_random_signs((0, 4353, 95), 4353, 195))  # a streamed channel-search shape
def test_alpha_gamma_equal_integer_pair_sums(S):
    # tall S takes gamma from tr(R W R W), wide S from S R S^T = 2 H H^T - W
    m, M = S.shape
    Sf = S.astype(np.float64)
    q = quality_measures(_sm(S))
    assert q.alpha == _pair_square_sum(Sf, Sf) / (m * M) ** 2
    assert q.gamma == _pair_square_sum(Sf, Sf[:, (-np.arange(M)) % M]) / (m * M) ** 2
    # the exrip-only path runs the same formulas
    assert correlation_measures(_sm(S)) == (q.alpha, q.beta, q.gamma)


def test_tall_correlation_measures_hold_no_m_by_m_array():
    # one 6000 x 6000 int64 or float64 array alone is 288 MB
    S = _sm(_random_signs(7, 6000, 195))
    tracemalloc.start()
    try:
        correlation_measures(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (5, 8), (4, 9), (80, 511)])
def test_row_spectrum_is_the_rfft_half_and_its_power(shape):
    S = _signs(*shape, 7)
    M = shape[1]
    H, P = _row_spectrum(S)
    F = np.fft.fft(S.astype(np.float64), axis=1)
    assert H.shape == (M // 2 + 1, shape[0]) and P.shape == (M // 2 + 1,)
    assert np.allclose(H, F[:, : M // 2 + 1].T, rtol=0, atol=1e-12 * M)
    assert np.allclose(P, (np.abs(F[:, : M // 2 + 1]) ** 2).sum(axis=0), rtol=1e-13, atol=0)


@pytest.mark.parametrize("M", [255, 256, 257])  # odd, even, prime
@pytest.mark.parametrize("m", [1, _SPECTRUM_ROWS - 1, _SPECTRUM_ROWS, _SPECTRUM_ROWS + 1, 160])
def test_row_spectrum_is_the_bits_of_one_rfft_transposed(m, M):
    # rfft over chunks of rows gives each row the transform of rfft over
    # all rows at once, and P is |H|^2 summed over the rows in order
    S = _signs(m, M, 11)
    H, P = _row_spectrum(S)
    R = np.fft.rfft(S.astype(np.float64), axis=1)
    assert H.flags.c_contiguous and np.array_equal(H, R.T)
    want = np.zeros(M // 2 + 1)
    for row in R:
        want += np.square(row.real) + np.square(row.imag)
    assert np.array_equal(P, want)


def _direct_autocorrelation(S):
    """A[l] = sum_i sum_n S_i[n] S_i[n + l mod M] by integer sums."""
    S = S.astype(np.int32)
    return np.array([int((S * np.roll(S, -l, axis=1)).sum()) for l in range(S.shape[1])])


@settings(max_examples=40, deadline=None)
@given(any_shape_sign_matrices)
@example(_signs(1, 1, 0))
@example(_signs(9, 1, 4))  # tall, M = 1
@example(_signs(11, 2, 5))  # tall, M = 2
@example(_signs(2, 2, 6))
@example(build_sign_matrix(FamilySpec("hadamard", m=5, M=32)).entries)  # 25 zero columns
@example(build_sign_matrix(FamilySpec("hadamard", m=48, M=256)).entries)
@example(_random_signs((0, 4353, 95), 4353, 195))  # a streamed channel-search shape
@example(_signs(4353, 195, 5))  # past one row block
@example(_signs(2 * _BLOCK_ROWS + 1, 64, 5))
@example(_signs(_BLOCK_ROWS, 33, 5))
def test_beta_is_the_sum_of_squares_of_one_integer_autocorrelation(S):
    # three routes to A: the cyclic diagonals of S^T S (a tall matrix's
    # beta), the rounded irfft of the column power (a wide one's), and
    # direct integer sums; beta is sum A^2 / (m^2 M^3) to the bit
    m, M = S.shape
    A = _direct_autocorrelation(S)
    T = _column_gram(S).astype(np.int64)
    assert np.array_equal(A, [np.trace(np.roll(T, -l, axis=1)) for l in range(M)])
    assert np.array_equal(A, _autocorrelation(_row_spectrum(S)[1], M))
    _, beta, _ = correlation_measures(_sm(S))
    assert beta == float(sum(int(a) ** 2 for a in A)) / (m * m * M**3)


@pytest.mark.parametrize("m, M", [(4353, 195), (2 * _BLOCK_ROWS + 1, 64), (_BLOCK_ROWS, 33)])
def test_tall_beta_sums_column_power_over_row_blocks(m, M):
    # a tall matrix's beta, read off S^T S, is the sum of its squared
    # column power P taken over the whole m x M spectrum at once
    S = _signs(m, M, 5)
    _, beta, _ = correlation_measures(_sm(S))
    P = (np.abs(np.fft.fft(S.astype(np.float64), axis=1)) ** 2).sum(axis=0)
    want = float((P * P).sum()) / (m * m * M**4)
    assert abs(beta - want) <= 1e-13 * want, (beta, want)


def test_tall_measures_read_s_only_to_form_its_gram(monkeypatch):
    # beta comes off S^T S's diagonals: no row spectrum, no second pass
    S = _sm(_signs(4353, 195, 5))
    want = quality_measures(S)

    def forbidden(S):
        raise AssertionError("a tall matrix took its row spectrum")

    monkeypatch.setattr(sensing, "_row_spectrum", forbidden)
    assert quality_measures(S) == want
    assert correlation_measures(S) == (want.alpha, want.beta, want.gamma)


def test_autocorrelation_off_an_integer_raises():
    # a power no +/-1 matrix has: its inverse DFT sits at half-integers
    with pytest.raises(ArithmeticError, match="off an integer"):
        _autocorrelation(np.array([2.0, 0.0, 0.0]), 4)


@st.composite
def maximal_shapes(draw):
    """(degree, rows) of a shipped maximal family, rows capped at 128."""
    n = draw(st.integers(3, 13))
    population = len(primitive_polys(n)) * ((1 << n) - 1)
    return n, draw(st.integers(1, min(population, 128)))


@settings(max_examples=40, deadline=None)
@given(maximal_shapes())
@example((3, 4))
@example((5, 10))
@example((7, 40))
@example((9, 80))
@example((11, 100))
@example((13, 30))
def test_maximal_beta_is_flat_spectrum_theorem(shape):
    # every row is an m-sequence (or a shift of one): |DFT|^2 is 1 at
    # frequency 0 and M + 1 elsewhere, so P_0 = m, P_j = m (M + 1) and
    # beta = (1 + (M - 1)(M + 1)^2) / M^4 with no FFT or Gram involved
    n, m = shape
    M = (1 << n) - 1
    _, beta, _ = correlation_measures(build_sign_matrix(FamilySpec("maximal", m=m, n=n)))
    want = (1 + (M - 1) * (M + 1) ** 2) / M**4
    assert abs(beta - want) <= 1e-14 * want, (n, m, beta, want)


def _alpha_within_cross_correlation_bound(family, n, m, peak):
    # distinct rows have zero-lag correlation of magnitude at most peak,
    # so sum_ik (S_i . S_k)^2 <= m M^2 + m (m - 1) peak^2; alpha divides
    # that integer sum by (mM)^2 the same way, and rounding is monotone
    M = (1 << n) - 1
    alpha, _, _ = correlation_measures(build_sign_matrix(FamilySpec(family, m=m, n=n)))
    bound = float(m * M * M + m * (m - 1) * peak * peak) / (m * M) ** 2
    assert alpha <= bound, (family, n, m, alpha, bound)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([5, 7, 9, 11]).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, min((1 << n) + 1, 300)))
    )
)
@example((5, 33))
@example((7, 129))
@example((9, 513))
@example((11, 160))
def test_gold_alpha_theorem(shape):
    # Gold (1967): distinct members correlate in {-t(n), -1, t(n) - 2}
    n, m = shape
    _alpha_within_cross_correlation_bound("gold", n, m, gold_t(n))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([4, 6, 8, 10, 12]).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 1 << (n // 2)))
    )
)
@example((12, 64))
def test_kasami_alpha_theorem(shape):
    # Sarwate & Pursley (1980): distinct members of the small set
    # correlate in {-(2^(n/2) + 1), -1, 2^(n/2) - 1}
    n, m = shape
    _alpha_within_cross_correlation_bound("kasami", n, m, (1 << (n // 2)) + 1)


def _assert_one_coherence(S):
    """The Gram-only mu and the blocked Phi-product mu agree, and the
    public coherence is the S^T S one for a tall S, the blocked one
    otherwise."""
    m, M = S.shape
    mu, zeros = _gram_coherence(_column_gram(S))
    mu_b, zeros_b = _blocked_coherence(*_row_spectrum(S), S.shape[1])
    assert zeros == zeros_b
    assert abs(mu - mu_b) <= 1e-13 * mu_b, (S.shape, mu, mu_b)
    assert coherence(S) == ((mu, zeros) if m > M else (mu_b, zeros_b)), S.shape
    return mu, zeros


@pytest.mark.parametrize(
    "spec, zero_columns",
    [
        (FamilySpec("hadamard", m=80, M=512), 385),
        (FamilySpec("hadamard", m=160, M=4096), 3841),
        (FamilySpec("gold", m=80, n=9), 0),
        (FamilySpec("gold", m=160, n=11), 0),
        (FamilySpec("kasami", m=16, n=8), 0),
        (FamilySpec("kasami", m=32, n=10), 0),
    ],
)
def test_gram_coherence_matches_blocked_path_structured(spec, zero_columns):
    _, zeros = _assert_one_coherence(build_sign_matrix(spec).entries)
    assert zeros == zero_columns


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 600), st.integers(2, 64), st.integers(0, 10_000))
@example(4353, 195, 0)  # tall, past one row block of the sign stream
def test_gram_coherence_matches_blocked_path_random(m, M, seed):
    _assert_one_coherence(_signs(m, M, seed))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 10_000))
@example(4353, 195, 0)  # tall, past one row block of the sign stream
@example(64, 2047, 3)
def test_quality_measures_coherence_is_the_public_one(m, M, seed):
    # quality_measures scores a tall S from the Gram it already holds;
    # the route, and so every bit, is the one coherence takes
    S = _signs(m, M, seed)
    q = quality_measures(_sm(S))
    assert (q.mu, q.zero_columns) == coherence(S), S.shape


@st.composite
def tall_sign_matrices(draw):
    """Tall (m > M) matrices, M = 1..40: random; with duplicated
    columns; with rows of a period p dividing M, whose columns j off the
    multiples of M/p are zero; or with rows +/- one row, whose nonzero
    columns of Phi are all parallel (mu = 1)."""
    M = draw(st.integers(1, 40))
    S = _signs(draw(st.integers(M + 1, M + 300)), M, draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["random", "duplicate", "periodic", "rank_one"]))
    if kind == "duplicate":
        for _ in range(draw(st.integers(1, 3))):
            S[:, draw(st.integers(0, M - 1))] = S[:, draw(st.integers(0, M - 1))]
    elif kind == "periodic":
        p = draw(st.sampled_from([p for p in range(1, M + 1) if M % p == 0]))
        S = np.tile(S[:, :p], (1, M // p))
    elif kind == "rank_one":
        S = S[:, :1] * S[:1]
    return S


def _dense_coherence(S):
    """mu and zero-column count of the full |Phi^H Phi| of sensing_matrix."""
    Phi = sensing_matrix(_sm(S))
    norms = np.linalg.norm(Phi, axis=0)
    cols = np.flatnonzero(norms**2 * S.size > _ZERO_COLUMN_TOL)
    A = np.abs(Phi[:, cols].conj().T @ Phi[:, cols]) / np.outer(norms[cols], norms[cols])
    np.fill_diagonal(A, 0.0)
    return min(float(A.max(initial=0.0)), 1.0), S.shape[1] - len(cols)


@settings(max_examples=60, deadline=None)
@given(tall_sign_matrices())
@example(_signs(5, 1, 0))
@example(_signs(7, 2, 1))
@example(_signs(9, 3, 2))
@example(np.tile(_signs(50, 2, 3), (1, 6)))  # period 2: only columns 0 and 6 live
# column M/2 pairs with itself on Y's diagonal: unmarked, mu would read 1
@example(_signs(50, 8, 4))
def test_tall_coherence_matches_dense_gram(S):
    mu, zeros = coherence(S)
    mu_ref, zeros_ref = _dense_coherence(S)
    assert zeros == zeros_ref
    assert abs(mu - mu_ref) <= 1e-12, (S.shape, mu, mu_ref)


def _exhaustive_gram_coherence(S):
    """_gram_coherence's quarter scored pair by pair in Python floats:
    over the kept columns H of G = F^H (S^T S) F / M, X = G[H, H]'s
    strict lower triangle and Y = G[-H mod M, H]'s lower one less the
    self-conjugate pairs, each |G_jk|^2 as re re + im im, then times
    w_j, then times w_k (w = 1 / G_jj), and mu the root of the max."""
    T = _column_gram(S)
    M = T.shape[0]
    G = np.fft.ifft(np.fft.rfft(T, axis=1), axis=0)
    d2 = [float(G[j, j].real) for j in range(M // 2 + 1)]
    cols = [j for j in range(M // 2 + 1) if d2[j] * M > _ZERO_COLUMN_TOL]
    w = [1.0 / d2[j] for j in cols]
    q = 0.0
    for r, j in enumerate(cols):
        for c, k in enumerate(cols[: r + 1]):
            for row, in_quarter in ((j, c < r), (-j % M, c < r or 2 * j % M != 0)):
                g = complex(G[row, k])
                if in_quarter:
                    q = max(q, (g.real * g.real + g.imag * g.imag) * w[r] * w[c])
    zeros = M - 2 * len(cols) + sum(2 * j % M == 0 for j in cols)
    return min(math.sqrt(q), 1.0), zeros


@settings(max_examples=60, deadline=None)
@given(tall_sign_matrices())
@example(np.tile(_signs(50, 2, 3), (1, 6)))  # period 2: only columns 0 and 6 live
@example(_signs(50, 8, 4))  # column M/2 pairs with itself on Y's diagonal
@example(build_sign_matrix(FamilySpec("maximal", m=186, n=5)).entries)  # orthogonal columns
@example(_signs(40, 1, 5) * _signs(1, 9, 6))  # rows +/- one row: parallel columns, mu = 1
def test_tall_coherence_is_the_exhaustive_quarter_bit_for_bit(S):
    assert _gram_coherence(_column_gram(S)) == _exhaustive_gram_coherence(S), S.shape


def _mirrored_spectrum(S):
    """The full-length row spectrum (S F, P), transposed as
    _row_spectrum's half is and mirrored exactly from it: column M - j
    of S F is the conjugate of column j, the symmetry the quarter route
    assumes, and P[M - j] = P[j]."""
    H, P = _row_spectrum(S)
    M = S.shape[1]
    j = np.arange(M // 2 + 1, M)
    return np.vstack((H, H[M - j].conj())), np.concatenate((P, P[M - j]))


def _full_square_coherence(F, P):
    """The blocked route's rule over the full square of Phi^H Phi of a
    full-length transposed spectrum ((S F)^T, P), which it consumes: a
    complex128 BLAS screen of all M columns, both triangles, then the
    route's own float64 re-score (_pair_magnitudes) of every pair within
    2 tau of the square's maximum, tau = 4 (m + 4) eps64 (the route's
    bound at float64)."""
    M, m = F.shape
    U, cols = _unit_columns(F, P)
    n = len(cols)
    tau = 4 * (m + 4) * np.finfo(np.float64).eps
    top, found = 0.0, []
    block = max(1, (1 << 21) // n)
    for start in range(0, n, block):
        A = np.abs(U.conj() @ U[start : start + block].T)
        A[start + np.arange(A.shape[1]), np.arange(A.shape[1])] = -1.0
        top = max(top, float(A.max(initial=0.0)))
        a, b = np.nonzero(A >= top - 2 * tau)
        found.append((a, start + b, A[a, b]))
    a, b, s = (np.concatenate(x) for x in zip(*found))
    keep = s >= top - 2 * tau
    mu = _pair_magnitudes(U, a[keep], b[keep], np.zeros(keep.sum(), bool)).max(initial=0.0)
    return min(float(mu), 1.0), M - n


def _long_double_coherence(F, P):
    """mu over the full square of Phi^H Phi of a full-length transposed
    spectrum ((S F)^T, P), with products and norms in np.clongdouble (no
    BLAS) and the columns kept where P is."""
    cols = np.flatnonzero(P > _ZERO_COLUMN_TOL)
    Phi = F[cols].T.astype(np.clongdouble)
    norms = np.sqrt((Phi.real**2 + Phi.imag**2).sum(axis=0))
    A = np.abs(Phi.conj().T @ Phi) / np.outer(norms, norms)
    np.fill_diagonal(A, 0)
    return min(float(A.max(initial=0)), 1.0), F.shape[0] - len(cols)


def _rescore_bound(m):
    """The re-score's stated error, 5 (m + 2) 2^-53, plus the same
    bound at long double precision for the reference."""
    return 5 * (m + 2) * (2.0**-53 + float(np.finfo(np.longdouble).eps) / 2)


def _exhaustive_quarter_coherence(S):
    """The route's float64 re-score (_pair_magnitudes) applied to every
    pair of the quarter, without the screen: X's strict lower triangle,
    Y's lower one less its self pairs (2j = 0 mod M)."""
    H, P = _row_spectrum(S)
    M = S.shape[1]
    U, cols = _unit_columns(H, P)
    j, k = np.tril_indices(len(cols), -1)
    jy, ky = np.tril_indices(len(cols))
    keep = (jy != ky) | (2 * cols[jy] % M != 0)
    x = _pair_magnitudes(U, j, k, np.zeros(len(j), bool))
    y = _pair_magnitudes(U, jy[keep], ky[keep], np.ones(keep.sum(), bool))
    return min(max(x.max(initial=0.0), y.max(initial=0.0)), 1.0)


FAMILY_SCAN_SPECS = [
    FamilySpec("gold", m=80, n=9),
    FamilySpec("gold", m=160, n=11),
    FamilySpec("kasami", m=32, n=10),
    FamilySpec("kasami", m=64, n=12),
    FamilySpec("maximal", m=160, n=11),
    FamilySpec("maximal", m=160, n=13),
    FamilySpec("hadamard", m=160, M=4096),
    FamilySpec("hadamard", m=160, M=8192),
    FamilySpec("random", m=128, M=2047, seed=0),
]


def _spec_id(spec):
    return f"{spec.family}{spec.m}x{spec.length}"


@pytest.mark.parametrize("spec", FAMILY_SCAN_SPECS, ids=_spec_id)
def test_one_triangle_equals_full_square_on_family_scan(spec):
    # the quarter screens one triangle each of X and Y in complex64, the
    # square screens all of Phi^H Phi in complex128 BLAS; over an exactly
    # mirrored spectrum both certify the same maximal pair, whose
    # fixed-order re-score is the same bits either way
    S = build_sign_matrix(spec).entries
    want = _full_square_coherence(*_mirrored_spectrum(S))
    assert _blocked_coherence(*_row_spectrum(S), S.shape[1]) == want


@st.composite
def random_wide_sign_matrices(draw, max_M=4500):
    """Random wide matrices up to M = max_M (many column blocks)."""
    M = draw(st.integers(2, max_M))
    return _signs(draw(st.integers(1, min(M, 24))), M, draw(st.integers(0, 10_000)))


@st.composite
def hadamard_sign_matrices(draw, max_n=12):
    """Hadamard rows, whose spectra have zero columns."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, min((1 << n) - 1, 48)))
    return build_sign_matrix(FamilySpec("hadamard", m=m, n=n)).entries


@settings(max_examples=20, deadline=None)
@given(st.one_of(random_wide_sign_matrices(max_M=400), hadamard_sign_matrices(max_n=8)))
@example(_signs(24, 400, 1))
@example(_signs(7, 257, 2))  # odd M: no self-conjugate column but 0
@example(np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], np.int8))  # mu = 0
@example(build_sign_matrix(FamilySpec("hadamard", m=27, n=5)).entries)
@example(build_sign_matrix(FamilySpec("hadamard", m=48, M=256)).entries)
def test_one_triangle_within_rescore_bound_of_long_double_square(S):
    # a reference that shares neither the screen's nor the re-score's
    # rounding: the full square in long double on the mirrored spectrum
    mu, zeros = _blocked_coherence(*_row_spectrum(S), S.shape[1])
    mu_ref, zeros_ref = _long_double_coherence(*_mirrored_spectrum(S))
    assert zeros == zeros_ref
    assert abs(mu - mu_ref) <= _rescore_bound(S.shape[0]), (S.shape, mu, mu_ref)


@settings(max_examples=10, deadline=None)
@given(st.one_of(random_wide_sign_matrices(), hadamard_sign_matrices()))
@example(_signs(24, 4500, 1))
@example(np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], np.int8))  # mu = 0
@example(build_sign_matrix(FamilySpec("hadamard", m=48, M=4096)).entries)
@example(build_sign_matrix(FamilySpec("hadamard", m=27, n=5)).entries)
def test_quarter_matches_full_square_of_complex_spectrum(S):
    # against the whole square of the complex-to-complex spectrum, whose
    # conjugate pairs differ from the rfft half in the last bits;
    # orthogonal columns (mu = 0) leave only rounding dust near 1e-17
    mu, zeros = _blocked_coherence(*_row_spectrum(S), S.shape[1])
    F = np.fft.fft(S.astype(np.float64), axis=1)
    mu_ref, zeros_ref = _full_square_coherence(F.T.copy(), (np.abs(F) ** 2).sum(axis=0))
    assert zeros == zeros_ref
    assert abs(mu - mu_ref) <= 1e-13 * mu_ref + 1e-15, (S.shape, mu, mu_ref)


@pytest.mark.parametrize("M", range(1, 7))
def test_quarter_exhaustive_two_row_patterns(M):
    # every 2 x M sign pattern: the column 0, for even M the column
    # M/2, and each pair (j, M - j) on Y's diagonal; mu = 0 comes out
    # of both routes as rounding dust, inside the bound
    bits = (np.arange(1 << (2 * M))[:, None] >> np.arange(2 * M)) & 1
    for row in bits:
        S = (2 * row - 1).reshape(2, M).astype(np.int8)
        mu, zeros = _blocked_coherence(*_row_spectrum(S), S.shape[1])
        mu_ref, zeros_ref = _long_double_coherence(*_mirrored_spectrum(S))
        assert zeros == zeros_ref and abs(mu - mu_ref) <= _rescore_bound(2), (S, mu, mu_ref)
        assert (mu, zeros) == _full_square_coherence(*_mirrored_spectrum(S)), S


def _assert_screen_never_misses(S, blocks=(1, 7, 256)):
    """The screened mu is the exhaustive re-score of the quarter, bit
    for bit, at each of these column blocks and row tiles."""
    mu = _exhaustive_quarter_coherence(S)
    for block in blocks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sensing, "_COLUMN_BLOCK", block)
            assert _blocked_coherence(*_row_spectrum(S), S.shape[1])[0] == mu, (S.shape, block)
    return mu


@settings(max_examples=20, deadline=None)
@given(st.one_of(random_wide_sign_matrices(max_M=1200), hadamard_sign_matrices(max_n=10)))
@example(_signs(1, 700, 3))  # one row: every pair reads 1 up to rounding
@example(np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], np.int8))  # mu = 0
@example(_signs(24, 1025, 2))  # odd M: no self-conjugate column but 0
@example(_signs(24, 513, 3))  # n = 257 kept columns: one past a tile
@example(_signs(16, 1025, 4))  # n = 513: one past two tiles
@example(build_sign_matrix(FamilySpec("hadamard", m=48, M=1024)).entries)  # zero columns
def test_screen_never_misses_the_maximum(S):
    _assert_screen_never_misses(S)


@pytest.mark.parametrize("spec", [s for s in FAMILY_SCAN_SPECS if s.length <= 2047], ids=_spec_id)
def test_screen_never_misses_the_maximum_on_family_scan(spec):
    # 1 x 1 tiles are swept on the drawn matrices above; here they would
    # be ~5e5 tiles per shape
    mu = _assert_screen_never_misses(build_sign_matrix(spec).entries, blocks=(7, 256))
    assert (mu == 1.0) == (spec.family == "kasami")  # kasami's parallel columns


def test_screen_that_separates_nothing_rescores_each_pair_once(monkeypatch):
    # the square Walsh matrix: S^T S = M I, so Phi^H Phi = I and every
    # pair sits at rounding dust, far inside 2 tau of the maximum.  The
    # screen then keeps the whole quarter, one block at a time: each
    # pair is re-scored once (one float64 pass over the quarter, the
    # time bound), in slices of _RESCORE_ENTRIES entries, and only one
    # block's indices are held (the memory bound)
    M = 1024
    S = hadamard_family(M, M)
    seen = []

    def recording(U, j, k, conj):
        out = _pair_magnitudes(U, j, k, conj)
        seen.append((j * M + k) * 2 + conj)
        seen.append(out)
        return out

    monkeypatch.setattr(sensing, "_pair_magnitudes", recording)
    spectrum = _row_spectrum(S)
    tracemalloc.start()
    try:
        mu, zeros = _blocked_coherence(*spectrum, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = M // 2 + 1
    assert zeros == 0 and mu < 1e-14
    keys, values = np.concatenate(seen[0::2]), np.concatenate(seen[1::2])
    assert len(keys) == n * (n - 1) // 2 + n * (n + 1) // 2 - 2  # the quarter, less 2 self pairs
    assert len(np.unique(keys)) == len(keys)
    assert mu == values.max()  # the exhaustive re-score
    # the full product of every pair at once would be 4.3 GB
    assert peak < 48 << 20, peak


def _traced_peak(call):
    """The tracemalloc peak, in bytes, of what call() allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quality_measures_of_the_widest_maximal_pattern_stay_under_24_mb():
    # one spectrum (10.5 MB at 160 x 8191), its complex64 copy and one
    # tile; a unit-column copy, a conjugate copy and an n x 512 product
    # of a screen by column blocks alone peaked at 56 MB
    S = build_sign_matrix(FamilySpec("maximal", m=160, n=13))
    peak = _traced_peak(lambda: quality_measures(S))
    assert peak < 24 << 20, peak


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("maximal", m=160, n=13),
        FamilySpec("hadamard", m=160, M=8192),  # 129 of 4097 half columns kept
        FamilySpec("kasami", m=64, n=12),
    ],
    ids=_spec_id,
)
def test_wide_coherence_holds_one_copy_and_one_tile(spec):
    # the wide route consumes its spectrum: it holds a complex64 copy of
    # the n kept rows (8 n m bytes), a copy of those rows where some are
    # zero (16 n m) and one 256 x 512 tile with its scores (1.5 MB)
    S = build_sign_matrix(spec).entries
    spectrum = _row_spectrum(S)
    n = int(np.count_nonzero(spectrum[1] > _ZERO_COLUMN_TOL))
    peak = _traced_peak(lambda: _blocked_coherence(*spectrum, S.shape[1]))
    assert peak < 24 * n * S.shape[0] + (4 << 20), (peak, n)


def _welch_mu(m, n):
    return float(np.sqrt((n - m) / (m * (n - 1))))


@st.composite
def wide_family_specs(draw):
    """A shipped structured family (M up to 2047) with fewer rows than
    columns."""
    fam = draw(st.sampled_from(["maximal", "gold", "kasami", "hadamard"]))
    if fam == "maximal":
        n = draw(st.integers(3, 11))
        cap = len(primitive_polys(n)) * ((1 << n) - 1)
    elif fam == "gold":
        n = draw(st.sampled_from([5, 7, 9, 11]))
        cap = (1 << n) + 1
    elif fam == "kasami":
        n = draw(st.sampled_from([4, 6, 8, 10]))
        cap = 1 << (n // 2)
    else:
        n = draw(st.integers(3, 11))
        cap = (1 << n) - 1  # the all-ones row is skipped
    return FamilySpec(fam, m=draw(st.integers(1, min(cap, 96))), n=n)


@settings(max_examples=40, deadline=None)
@given(wide_family_specs())
@example(FamilySpec("gold", m=80, n=9))
@example(FamilySpec("maximal", m=80, n=9))
@example(FamilySpec("kasami", m=64, n=12))
@example(FamilySpec("hadamard", m=80, M=512))
def test_coherence_respects_welch_bound(spec):
    # n unit vectors in C^m with n > m have max |<u_j, u_k>| at least
    # sqrt((n - m) / (m (n - 1))); only the n nonzero columns count
    S = build_sign_matrix(spec)
    mu, zeros = coherence(S.entries)
    n = S.M - zeros
    if n > S.m:
        assert mu >= _welch_mu(S.m, n) * (1 - 1e-12), (spec, mu, _welch_mu(S.m, n))


@pytest.mark.parametrize("family", ["gold", "maximal"])
def test_power_iteration_matches_eigvalsh_shipped_grams(family):
    W = _sign_gram(build_sign_matrix(FamilySpec(family, m=80, n=9)).entries)
    assert W.shape == (80, 80)
    lam = _top_eigenvalue(W)
    want = np.linalg.eigvalsh(W)[-1]
    assert abs(lam - want) <= 1e-10 * want, (lam, want)


def test_power_iteration_on_a_tall_witness_gram():
    # a streamed 195 x 195 Gram of a tall draw past one row block.  The
    # stopping rule bounds the step change, not the error: with
    # l2/l1 = 0.9965 here the error is about
    # _POWER_REL_TOL * r^2 / (1 - r^2), 1.4e-8 relative rather than 1e-10
    m, M, key = 4353, 195, (0, 4353, 95)
    T = _block_gram(_sign_blocks(key, m, M), M)
    Si = _random_signs(key, m, M).astype(np.float64)
    assert np.array_equal(T, Si.T @ Si)
    lam = _top_eigenvalue(T)
    ev = np.linalg.eigvalsh(T)
    ratio = ev[-2] / ev[-1]
    assert abs(lam - ev[-1]) <= 2 * _POWER_REL_TOL / (1 - ratio**2) * ev[-1]
    assert spectral_norm_sq(Si) == lam / m


def test_power_iteration_at_its_cap_warns_and_keeps_its_estimate(monkeypatch):
    W = _sign_gram(build_sign_matrix(FamilySpec("gold", m=80, n=9)).entries)
    monkeypatch.setattr(sensing, "_POWER_MAX_ITER", 3)
    with pytest.warns(RuntimeWarning, match=r"cap of 3 steps, last relative step \d"):
        lam = _top_eigenvalue(W)
    # the estimate is the Rayleigh quotient of the third step, as before
    v = 1.0 + ((np.arange(80) * 2654435761) % 1000) / 1000.0
    v /= np.linalg.norm(v)
    for _ in range(3):
        w = np.einsum("ij,j->i", W, v)
        want, v = float(v @ w), w / np.linalg.norm(w)
    assert lam == want < np.linalg.eigvalsh(W)[-1]


@pytest.fixture(scope="module")
def gold9_pair_tables():
    """The integer pair tables of the whole Gold n = 9 family (513 rows):
    (S_i . S_k)^2, (S_i . rev S_k)^2 and ||S_i (*) S_k||^2 = r_i . r_k,
    with r_i the integer cyclic autocorrelation of row i.  Every entry
    and partial sum is an integer below 2**53, so float64 products are
    exact."""
    S = gold_family(9, 513).astype(np.float64)
    M = S.shape[1]
    R = np.stack([(S * np.roll(S, -d, axis=1)).sum(axis=1) for d in range(M)], axis=1)
    tables = [(S @ S.T) ** 2, (S @ S[:, (-np.arange(M)) % M].T) ** 2, R @ R.T]
    return S.astype(np.int8), [t.astype(np.int64) for t in tables]


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_pair_tables_give_correlation_measures(gold9_pair_tables, seed):
    # a third route to alpha, beta and gamma: sums over the sub-tables of
    # a row subset, for the shipped first 80 rows and seeded subsets
    S, (X, Y, Z) = gold9_pair_tables
    m, M = 80, S.shape[1]
    rows = np.arange(m) if seed is None else np.random.default_rng(seed).choice(513, m, False)
    sub = np.ix_(rows, rows)
    want = (
        float(X[sub].sum()) / (m * M) ** 2,
        float(Z[sub].sum()) / (m * m * M**3),
        float(Y[sub].sum()) / (m * M) ** 2,
    )
    shipped = build_sign_matrix(FamilySpec("gold", m=80, n=9)).entries
    assert seed is not None or np.array_equal(S[rows], shipped)
    assert correlation_measures(SignMatrix(S[rows], "gold")) == want


def test_maximal_row_policy_sits_below_random_row_subsets():
    # the shipped first 80 rows of maximal n = 9 against 50 random 80-row
    # subsets (default_rng(0)) of all its 48 x 511 rows, at K = 24,
    # complex-normal values and delta = sqrt(2) - 1 (README caveat): the
    # shipped p is below every subset's, and the gap is alpha, since each
    # m-sequence's spectrum is flat off DC and beta is the same for any rows
    S = maximal_family(9, len(primitive_polys(9)) * 511)
    const = moment_constants(NonzeroDistribution("complex_normal"), 24)

    def measures(rows):
        alpha, beta, gamma = correlation_measures(SignMatrix(S[rows], "maximal"))
        bound = exrip_probability(ExripInputs(alpha, beta, gamma, 80, 511, BP_DELTA, const))
        return alpha, beta, bound.probability

    shipped = build_sign_matrix(FamilySpec("maximal", m=80, n=9)).entries
    assert S.shape == (24528, 511) and np.array_equal(S[:80], shipped)
    alpha, beta, p = measures(np.arange(80))
    rng = np.random.default_rng(0)
    subsets = np.array([measures(rng.choice(len(S), 80, replace=False)) for _ in range(50)])
    ps = subsets[:, 2]
    assert p == pytest.approx(0.93032, abs=5e-6) and p < ps.min()
    assert [ps.min(), np.median(ps), ps.max()] == pytest.approx([0.93169, 0.93233, 0.93276], abs=5e-6)
    assert 100 * alpha == pytest.approx(1.4765, abs=5e-5)
    assert 100 * np.median(subsets[:, 0]) == pytest.approx(1.4390, abs=5e-5)
    assert (subsets[:, 1] == beta).all()
