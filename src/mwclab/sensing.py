"""Scaled sensing matrix Phi = S F / sqrt(mM) and its quality measures.

F is the unpermuted unit-modulus DFT, F[j, k] = exp(-2i pi jk / M); any
column permutation of Phi leaves every quantity computed here (alpha,
beta, gamma, coherence, spectral norm) unchanged, so none is applied.
The 1/sqrt(mM) scaling makes sum_j ||Phi_j||^2 = M, i.e. columns are
unit-norm on average.
"""

from dataclasses import dataclass

import numpy as np

from .signmatrix import _BLOCK_ROWS, SignMatrix

# ||Phi_j||^2 below this is a structural zero (exact cancellation in the
# DFT of every row); true nonzero norms are orders of magnitude larger
_ZERO_COLUMN_TOL = 1e-9

# columns per block of each coherence Gram (_normalized_max)
_COLUMN_BLOCK = 256

# power-iteration stopping rule for the spectral norm
_POWER_REL_TOL = 1e-10
_POWER_MAX_ITER = 10000


@dataclass(frozen=True)
class QualityReport:
    alpha: float
    beta: float
    gamma: float
    mu: float
    spectral_norm_sq: float
    m: int
    M: int
    zero_columns: int


@dataclass(frozen=True)
class BoundsCheck:
    ok: bool
    slacks: dict[str, float]
    violations: tuple[str, ...]


def sensing_matrix(S: SignMatrix) -> np.ndarray:
    """The complex m x M matrix Phi = S F / sqrt(mM)."""
    return np.fft.fft(S.entries.astype(np.float64), axis=1) * (1.0 / np.sqrt(S.m * S.M))


def _row_spectrum(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S F, P) of a +/-1 matrix: the unscaled row DFT and its column
    power P[j] = sum_i |(S F)[i, j]|^2."""
    F = np.fft.fft(S.astype(np.float64, copy=False), axis=1)
    A = np.abs(F)
    A **= 2
    return F, A.sum(axis=0)


def _block_gram(blocks, n: int) -> np.ndarray:
    """T = sum of B^T B (n x n, float64) over the row blocks B of a
    matrix with entries in {-1, 0, 1}.

    Each block of at most _BLOCK_ROWS rows runs as a float32 BLAS
    product: its partial sums are integers of magnitude at most
    _BLOCK_ROWS < 2**24, so it is exact whatever the blocking, FMA use
    or thread count, and the float64 sum of the blocks is exact too.  A
    materialized matrix and the same rows streamed by _sign_blocks give
    the same T, bit for bit.  Every Gram in the package runs here.
    """
    T = np.zeros((n, n))
    for B in blocks:
        B = B.astype(np.float32, copy=False)
        T += B.T @ B
    return T


def _column_gram(S: np.ndarray) -> np.ndarray:
    """S^T S of a materialized matrix with entries in {-1, 0, 1}, over
    its row blocks (see _block_gram)."""
    rows = range(0, S.shape[0], _BLOCK_ROWS)
    return _block_gram((S[i : i + _BLOCK_ROWS] for i in rows), S.shape[1])


def _sign_gram(S: np.ndarray) -> np.ndarray:
    """The smaller Gram of an m x M matrix with entries in {-1, 0, 1},
    S S^T if m <= M else S^T S, both exact (_column_gram)."""
    return _column_gram(S if S.shape[0] > S.shape[1] else S.T)


def coherence(S: np.ndarray) -> tuple[float, int]:
    """Max normalized inner product between distinct columns of Phi.

    Zero-norm columns are excluded from the maximization (the quantity
    is undefined there) and counted.  Returns (mu, zero_columns).
    """
    S = np.asarray(S)
    return _coherence(*S.shape, lambda: _column_gram(S), lambda: _row_spectrum(S))


def _coherence(m: int, M: int, column_gram, spectrum) -> tuple[float, int]:
    """coherence of an m x M +/-1 matrix by shape alone, on the
    conjugate-symmetric quarter of Phi^H Phi: a tall one (m > M) from
    column_gram() = S^T S, which a caller may stream or already hold, a
    wide one from spectrum() = _row_spectrum(S); only one is called."""
    if m > M:
        return _gram_coherence(column_gram(), m)
    return _blocked_coherence(*spectrum())


def _gram_coherence(T: np.ndarray, m: int) -> tuple[float, int]:
    """coherence from T = S^T S alone, on the columns H of G = F^H T F /
    (mM) (_blocked_coherence's quarter: rows H give X, rows -H mod M Y).
    T is exact and the FFTs single-threaded: one T, one mu, on any route."""
    M = T.shape[0]
    G = np.fft.ifft(np.fft.rfft(T, axis=1), axis=0) / m
    d2 = G[: M // 2 + 1].diagonal().real  # ||Phi_j||^2 = P_j / (mM)
    cols = np.flatnonzero(d2 * (m * M) > _ZERO_COLUMN_TOL)
    G, mirror = G[:, cols], -cols % M  # column M - j of Phi is conj Phi_j
    mu = _normalized_max(
        lambda start, stop: np.hstack((G[cols[start:], start:stop], G[mirror[start:], start:stop])),
        np.sqrt(d2[cols]),
        np.array([cols >= 0, mirror == cols]),
    )
    return mu, M - 2 * len(cols) + int(np.count_nonzero(mirror == cols))


def _blocked_coherence(F: np.ndarray, P: np.ndarray) -> tuple[float, int]:
    """coherence from the row spectrum (S F, P) of a wide +/-1 matrix,
    on the conjugate-symmetric quarter of Phi^H Phi: S is real, so
    Phi_{M-j} = conj Phi_j and every |<Phi_j, Phi_k>| is in one triangle
    of X = Phi_H^H Phi_H or of Y = Phi_H^T Phi_H over the columns
    H = 0..M//2 (Y_jk pairs j with M - k).  S F's columns H are scaled
    to Phi in place.  The complex BLAS products fix the last ulp of mu
    per BLAS build, not per thread count."""
    m, M = F.shape
    Phi = F[:, : M // 2 + 1]
    Phi /= np.sqrt(m * M)
    cols = np.flatnonzero(P[: M // 2 + 1] > _ZERO_COLUMN_TOL)
    PhiK = Phi[:, cols]
    PhiH = PhiK.conj().T
    # one product per block: X's columns start..stop, then conj Y's; X's
    # diagonal always pairs a column with itself, Y's where 2j = 0 mod M
    mu = _normalized_max(
        lambda start, stop: PhiH[start:] @ np.hstack((PhiK[:, start:stop], PhiH[start:stop].T)),
        np.sqrt(P[cols] / (m * M)),
        np.array([cols >= 0, 2 * cols % M == 0]),
    )
    return mu, int(np.count_nonzero(P <= _ZERO_COLUMN_TOL))


def _normalized_max(pairs, d: np.ndarray, self_pairs: np.ndarray) -> float:
    """max |<Phi_j, Phi_k>| / (||Phi_j|| ||Phi_k||) over distinct
    columns, given the norms d of the n kept columns and pairs(start,
    stop), rows start..n-1 and columns start..stop-1 of q Grams side by
    side, whose blocks on and below the diagonals hold every pair.
    self_pairs (q x n) marks the diagonal entries that pair a column
    with itself, which are zeroed.  Exact whatever the blocking."""
    best = 0.0
    for start in range(0, len(d), _COLUMN_BLOCK):
        stop = min(len(d), start + _COLUMN_BLOCK)
        A = np.abs(pairs(start, stop))
        A /= d[start:, None]
        A /= np.tile(d[start:stop], len(self_pairs))[None, :]
        # block column c is kept column start + c mod (stop - start)
        c = np.flatnonzero(self_pairs[:, start:stop])
        A[c % (stop - start), c] = 0.0
        best = max(best, float(A.max()))
    # duplicate columns give exactly 1 up to rounding dust
    return min(best, 1.0)


def _top_eigenvalue(W: np.ndarray) -> float:
    """Power iteration on a symmetric positive semidefinite matrix.
    The matvec runs through einsum to keep the reduction order fixed."""
    n = W.shape[0]
    # deterministic start with no accidental symmetry
    v = 1.0 + ((np.arange(n) * 2654435761) % 1000) / 1000.0
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = np.einsum("ij,j->i", W, v)
        new = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(new - lam) <= _POWER_REL_TOL * max(abs(new), 1.0):
            lam = new
            break
        lam = new
    return lam


def spectral_norm_sq(S: np.ndarray) -> float:
    """||Phi||^2 via power iteration on the smaller integer Gram.

    Phi Phi^H = S S^T / m because F F^H = M I, so the squared operator
    norm is the top eigenvalue of S S^T (or equivalently S^T S) over m.
    The Gram is an exact BLAS product (see _sign_gram).
    """
    return _top_eigenvalue(_sign_gram(S)) / S.shape[0]


def _correlations(S: np.ndarray):
    """alpha, beta, gamma of a +/-1 matrix, plus the smaller Gram W that
    alpha and gamma were taken from and the row spectrum (S F, P) that
    beta was (see quality_measures)."""
    m, M = S.shape
    F, P = _row_spectrum(S)
    if not np.any(P > _ZERO_COLUMN_TOL):
        raise ValueError("all sensing columns are zero")

    W = _sign_gram(S)
    G = W.astype(np.int64)
    alpha = float((G * G).sum()) / (m * M) ** 2

    beta = float((P * P).sum()) / (m * m * M**4)

    rev = -np.arange(M) % M
    if m > M:
        # ||S R S^T||_F^2 = tr(R W R W) for W = S^T S and R = R^T
        rev_sq = (G * G[np.ix_(rev, rev)]).sum()
    else:
        # S R S^T = 2 H H^T - W for W = S S^T, H = (S + S R) / 2 in {-1, 0, 1}
        Grev = 2 * _sign_gram((S + S[:, rev]) // 2).astype(np.int64) - G
        rev_sq = (Grev * Grev).sum()
    gamma = float(rev_sq) / (m * M) ** 2
    return alpha, beta, gamma, W, (F, P)


def correlation_measures(S: SignMatrix) -> tuple[float, float, float]:
    """(alpha, beta, gamma): the three measures the exrip bound reads,
    without the coherence and spectral norm of quality_measures."""
    return _correlations(S.entries)[:3]


def quality_measures(S: SignMatrix) -> QualityReport:
    """alpha, beta, gamma, coherence and spectral norm of one matrix.

    All three pair sums run over ordered pairs (i, k) including i = k;
    the diagonal is what puts alpha at its 1/m floor for orthogonal
    rows.  alpha and gamma are exact integer sums (below 2**53) up to
    the final division; beta is not, since its P_j come from a floating
    FFT.

      alpha = (mM)^-2   sum (S_i . S_k)^2
      beta  = (m^2M^3)^-1 sum ||S_i (*) S_k||^2   ((*) cyclic convolution)
      gamma = (mM)^-2   sum (S_i . reverse(S_k))^2

    beta uses Parseval: sum_ik ||S_i (*) S_k||^2 = (1/M) sum_j P_j^2
    with P_j the column power of S F.  alpha comes from the smaller
    Gram W (_sign_gram, ||S S^T||_F = ||S^T S||_F), which also gives
    the spectral norm, and so does gamma = (mM)^-2 ||S R S^T||_F^2 with
    R the cyclic reversal n -> -n mod M: a wide matrix takes
    S R S^T = 2 H H^T - W, H = (S + S R) / 2, a tall one
    tr(R W R W), which never forms an m x m array.  Every Gram runs in
    the one float32 block kernel (_block_gram) and is exact; it is cast
    to int64 so the sums of squares are exact integers too.  The
    coherence takes the route of its shape (_coherence): a tall matrix
    is scored from W, which is S^T S there, a wide one from the row
    spectrum that beta was taken from.
    """
    alpha, beta, gamma, W, spectrum = _correlations(S.entries)
    mu, zero_columns = _coherence(S.m, S.M, lambda: W, lambda: spectrum)
    snorm = _top_eigenvalue(W) / S.m
    return QualityReport(alpha, beta, gamma, mu, snorm, S.m, S.M, zero_columns)


def welch_lower_bound(m: int, M: int) -> float:
    return (2 * m - 1) / (2 * m * M - 1)


def quality_bounds_check(report: QualityReport, strict: bool = False) -> BoundsCheck:
    """Slack of every inequality the measures are expected to satisfy.

      1/m <= alpha <= 1
      (2m-1)/(2mM-1) <= beta <= 1
      (2m-1)/(2mM-1) <= gamma <= 1

    A negative slack names the violated inequality; with strict=True it
    raises instead.  Violations signal an implementation bug for alpha
    and beta, whose bounds are theorems.  The gamma lower bound is not
    one: only the zero-lag term of the reversed correlation enters
    gamma, and matrices with reversal-orthogonal rows sit below the
    bound (S = [[1, 1, 1, -1]] has gamma = 0).  The slack is reported
    faithfully either way.
    """
    m, M = report.m, report.M
    welch = welch_lower_bound(m, M)
    slacks = {
        "alpha_lower": report.alpha - 1.0 / m,
        "alpha_upper": 1.0 - report.alpha,
        "beta_lower": report.beta - welch,
        "beta_upper": 1.0 - report.beta,
        "gamma_lower": report.gamma - welch,
        "gamma_upper": 1.0 - report.gamma,
    }
    violations = tuple(k for k, v in slacks.items() if v < -1e-12)
    check = BoundsCheck(not violations, slacks, violations)
    if strict and violations:
        detail = ", ".join(f"{k} (slack {slacks[k]:.3e})" for k in violations)
        raise ValueError(f"quality bounds violated: {detail}")
    return check


__all__ = [
    "BoundsCheck",
    "QualityReport",
    "coherence",
    "correlation_measures",
    "quality_bounds_check",
    "quality_measures",
    "sensing_matrix",
    "spectral_norm_sq",
    "welch_lower_bound",
]
