"""Scaled sensing matrix Phi = S F / sqrt(mM) and its quality measures.

F is the unpermuted unit-modulus DFT, F[j, k] = exp(-2i pi jk / M); any
column permutation of Phi leaves every quantity computed here (alpha,
beta, gamma, coherence, spectral norm) unchanged, so none is applied.
The 1/sqrt(mM) scaling makes sum_j ||Phi_j||^2 = M, i.e. columns are
unit-norm on average.
"""

from dataclasses import dataclass

import numpy as np

from .signmatrix import SignMatrix

# above this M the full M x M Gram is not materialized
_FULL_GRAM_MAX_M = 4096

# ||Phi_j||^2 below this is a structural zero (exact cancellation in the
# DFT of every row); true nonzero norms are orders of magnitude larger
_ZERO_COLUMN_TOL = 1e-9

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


def _column_power(S: np.ndarray) -> np.ndarray:
    """P[j] = sum_i |DFT(S_i)[j]|^2; column norms of S F are P / 1."""
    F = np.fft.fft(S.astype(np.float64, copy=False), axis=1)
    A = np.abs(F)
    del F
    A **= 2
    return A.sum(axis=0)


def _sign_gram(S: np.ndarray) -> np.ndarray:
    """The smaller Gram of a +/-1 matrix, S S^T if m <= M else S^T S.

    It runs as a float64 BLAS product and is exact: every partial sum
    of +/-1 products is an integer of magnitude at most max(m, M), far
    below 2**53, whatever the blocking, FMA use or thread count.
    """
    Sf = S.astype(np.float64, copy=False)
    return Sf @ Sf.T if S.shape[0] <= S.shape[1] else Sf.T @ Sf


def coherence(S: np.ndarray) -> tuple[float, int]:
    """Max normalized inner product between distinct columns of Phi.

    Zero-norm columns are excluded from the maximization (the quantity
    is undefined there) and counted.  Returns (mu, zero_columns).

    The Gram is F^H (S^T S) F / (mM): the integer product S^T S followed
    by a DFT along each axis.  The integer product is exact in float64
    regardless of BLAS threading, and the FFTs are single-threaded, so
    the result is bit-stable.  Above _FULL_GRAM_MAX_M columns the Gram
    is assembled in blocks from Phi instead, to bound memory.
    """
    Sf = S.astype(np.float64)
    return _coherence(Sf, _column_power(Sf))


def _coherence(Sf: np.ndarray, P: np.ndarray) -> tuple[float, int]:
    """coherence of a float64 +/-1 matrix whose column power P
    (_column_power) the caller already has."""
    m, M = Sf.shape
    nz = P > _ZERO_COLUMN_TOL
    zero_columns = int(M - nz.sum())
    if nz.sum() < 2:
        return 0.0, zero_columns
    norms = np.sqrt(P / (m * M))
    best = 0.0
    if M <= _FULL_GRAM_MAX_M:
        T = Sf.T @ Sf
        G = np.fft.ifft(np.fft.fft(T, axis=1), axis=0) / m
        A = np.abs(G[np.ix_(nz, nz)])
        d = norms[nz]
        A /= d[:, None]
        A /= d[None, :]
        np.fill_diagonal(A, 0.0)
        best = float(A.max())
    else:
        Phi = np.fft.fft(Sf, axis=1) / np.sqrt(m * M)
        cols = np.nonzero(nz)[0]
        PhiH = Phi[:, cols].conj().T
        dn = norms[cols]
        block = max(1, (1 << 25) // len(cols))
        for start in range(0, len(cols), block):
            sel = cols[start : start + block]
            A = np.abs(PhiH @ Phi[:, sel])
            A /= dn[:, None]
            A /= norms[sel][None, :]
            # rows of PhiH follow cols order, so the global diagonal
            # entry of column sel[k] sits at row start + k
            A[start + np.arange(len(sel)), np.arange(len(sel))] = 0.0
            best = max(best, float(A.max()))
    # duplicate columns give exactly 1 up to rounding dust
    return min(best, 1.0), zero_columns


def _top_eigenvalue(W: np.ndarray, rel_tol: float, max_iter: int) -> float:
    """Power iteration on a symmetric positive semidefinite matrix.
    The matvec runs through einsum to keep the reduction order fixed."""
    n = W.shape[0]
    # deterministic start with no accidental symmetry
    v = 1.0 + ((np.arange(n) * 2654435761) % 1000) / 1000.0
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = np.einsum("ij,j->i", W, v)
        new = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(new - lam) <= rel_tol * max(abs(new), 1.0):
            lam = new
            break
        lam = new
    return lam


def spectral_norm_sq(
    S: np.ndarray, rel_tol: float = _POWER_REL_TOL, max_iter: int = _POWER_MAX_ITER
) -> float:
    """||Phi||^2 via power iteration on the smaller integer Gram.

    Phi Phi^H = S S^T / m because F F^H = M I, so the squared operator
    norm is the top eigenvalue of S S^T (or equivalently S^T S) over m.
    The Gram is a float64 BLAS product, exact because its entries and
    every partial sum are integers far below 2**53 (see _sign_gram).
    """
    return _top_eigenvalue(_sign_gram(S), rel_tol, max_iter) / S.shape[0]


def _correlations(Sf: np.ndarray) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    """alpha, beta, gamma of a float64 +/-1 matrix, plus the smaller
    Gram W and the column power P they were taken from (see
    quality_measures)."""
    m, M = Sf.shape
    P = _column_power(Sf)
    if not np.any(P > _ZERO_COLUMN_TOL):
        raise ValueError("all sensing columns are zero")

    W = _sign_gram(Sf)
    G = W.astype(np.int64)
    alpha = float((G * G).sum()) / (m * M) ** 2

    beta = float((P * P).sum()) / (m * m * M**4)

    rev = (-np.arange(M)) % M
    Grev = (Sf @ Sf[:, rev].T).astype(np.int64)
    gamma = float((Grev * Grev).sum()) / (m * M) ** 2
    return alpha, beta, gamma, W, P


def correlation_measures(S: SignMatrix) -> tuple[float, float, float]:
    """(alpha, beta, gamma): the three measures the exrip bound reads,
    without the coherence and spectral norm of quality_measures."""
    return _correlations(S.entries.astype(np.float64))[:3]


def quality_measures(S: SignMatrix) -> QualityReport:
    """alpha, beta, gamma, coherence and spectral norm of one matrix.

    All three pair sums run over ordered pairs (i, k) including i = k;
    the diagonal is what puts alpha at its 1/m floor for orthogonal
    rows.  Intermediate sums are integers below 2**53, so the float
    results are exact up to the final divisions.

      alpha = (mM)^-2   sum (S_i . S_k)^2
      beta  = (m^2M^3)^-1 sum ||S_i (*) S_k||^2   ((*) cyclic convolution)
      gamma = (mM)^-2   sum (S_i . reverse(S_k))^2

    beta uses Parseval: sum_ik ||S_i (*) S_k||^2 = (1/M) sum_j P_j^2
    with P_j the column power of S F.  alpha comes from the smaller
    Gram W (_sign_gram, ||S S^T||_F = ||S^T S||_F), which also gives
    the spectral norm; gamma from S R S^T with R the cyclic reversal
    n -> -n mod M.  The products run in float64 BLAS and are exact
    (every partial sum is an integer far below 2**53); they are cast
    back to int64 so the sums of squares are exact integers too.
    """
    Sf = S.entries.astype(np.float64)
    alpha, beta, gamma, W, P = _correlations(Sf)
    mu, zero_columns = _coherence(Sf, P)
    snorm = _top_eigenvalue(W, _POWER_REL_TOL, _POWER_MAX_ITER) / S.m
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
