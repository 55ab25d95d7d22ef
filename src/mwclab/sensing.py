"""Scaled sensing matrix Phi = S F / sqrt(mM) and its quality measures.

F is the unpermuted unit-modulus DFT, F[j, k] = exp(-2i pi jk / M); any
column permutation of Phi leaves every quantity computed here (alpha,
beta, gamma, coherence, spectral norm) unchanged, so none is applied.
The 1/sqrt(mM) scaling makes sum_j ||Phi_j||^2 = M, i.e. columns are
unit-norm on average.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .signmatrix import SignMatrix, _block_rows

# ||Phi_j||^2 below this is a structural zero (exact cancellation in the
# DFT of every row); true nonzero norms are orders of magnitude larger
_ZERO_COLUMN_TOL = 1e-9

# columns and rows per tile of the wide coherence screen (_blocked_coherence)
_COLUMN_BLOCK = 256

# rows per rfft call of _row_spectrum
_SPECTRUM_ROWS = 16

# complex entries per slice of the float64 re-score (_pair_magnitudes)
_RESCORE_ENTRIES = 1 << 14

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
    """(H, P) of a +/-1 matrix: H the columns 0..M//2 of its unscaled row
    DFT S F (rfft) as the rows of a C-contiguous (M//2 + 1) x m array,
    P their power P[j] = sum_i |H[j, i]|^2, summed over S's rows in order.
    rfft reads _SPECTRUM_ROWS rows at a time, so S is never copied whole,
    and each row gets the bits of one rfft over all of S."""
    m, M = S.shape
    H, P = np.empty((M // 2 + 1, m), complex), np.zeros(M // 2 + 1)
    for i in range(0, m, _SPECTRUM_ROWS):
        rows = np.fft.rfft(S[i : i + _SPECTRUM_ROWS], axis=1)
        H[:, i : i + len(rows)] = rows.T
        for q in _squared_magnitude(rows):
            P += q
        del rows, q  # not alive while the next rows are transformed
    return H, P


def _block_gram(blocks, n: int) -> np.ndarray:
    """T = sum of B^T B (n x n, float64) over the row blocks B of a
    matrix with entries in {-1, 0, 1}.

    Each block runs as a float32 BLAS product: its partial sums are
    integers of magnitude at most its row count, below 2**24 for any
    block the package makes (_block_rows), so it is exact whatever the
    blocking, FMA use or thread count, and the float64 sum of the
    blocks is exact too.  A materialized matrix and the same rows
    streamed by _sign_blocks give the same T, bit for bit.  Each block
    is dropped once added, before the next is drawn.  Every Gram in the
    package runs here.
    """
    T = np.zeros((n, n))
    for B in blocks:
        B = B.astype(np.float32, copy=False)
        T += B.T @ B
        del B
    return T


def _column_gram(S: np.ndarray) -> np.ndarray:
    """S^T S of a materialized matrix with entries in {-1, 0, 1}, over
    its row blocks of _block_rows rows (see _block_gram)."""
    rows = _block_rows(S.shape[1])
    return _block_gram((S[i : i + rows] for i in range(0, S.shape[0], rows)), S.shape[1])


def _sign_gram(S: np.ndarray) -> np.ndarray:
    """The smaller Gram of an m x M matrix with entries in {-1, 0, 1},
    S S^T if m <= M else S^T S, both exact (_column_gram)."""
    return _column_gram(S if S.shape[0] > S.shape[1] else S.T)


def coherence(S: np.ndarray) -> tuple[float, int]:
    """Max normalized inner product between distinct columns of Phi.

    Zero-norm columns are excluded from the maximization (the quantity
    is undefined there) and counted.  Returns (mu, zero_columns).  A
    tall matrix (m > M) is scored from S^T S (_gram_coherence), a wide
    one from its row spectrum (_blocked_coherence).
    """
    S = np.asarray(S)
    if S.shape[0] > S.shape[1]:
        return _gram_coherence(_column_gram(S))
    return _blocked_coherence(*_row_spectrum(S), S.shape[1])


def _gram_coherence(T: np.ndarray) -> tuple[float, int]:
    """coherence from T = S^T S alone, on the conjugate-symmetric quarter
    of G = F^H T F / M = m Phi^H Phi that _blocked_coherence scores:
    over the columns H = 0..M//2, X = G[H, H] and Y = G[-H mod M, H]
    (column M - j of Phi is conj Phi_j).  Each pair of X's strict lower
    triangle and of Y's lower one, less the self-conjugate pairs
    (2j = 0 mod M), is scored as |G_jk|^2 / G_jj / G_kk, and mu is the
    root of the largest score, at most 1 (parallel columns).  T is
    exact and the FFTs single-threaded: one T, one mu, on any route."""
    M = T.shape[0]
    G = np.fft.ifft(np.fft.rfft(T, axis=1), axis=0)
    d2 = G[: M // 2 + 1].diagonal().real  # P_j / M
    cols = np.flatnonzero(d2 * M > _ZERO_COLUMN_TOL)
    mirror, w, n = -cols % M, 1.0 / d2[cols], len(cols)

    def top(rows, keep):
        Q = _squared_magnitude(G[np.ix_(rows, cols)])
        Q *= w[:, None]
        Q *= w
        return Q.max(initial=0.0, where=keep)

    lower = np.tri(n, dtype=bool)
    np.fill_diagonal(lower, mirror != cols)
    q = max(top(cols, np.tri(n, k=-1, dtype=bool)), top(mirror, lower))
    return min(math.sqrt(q), 1.0), M - 2 * n + int(np.count_nonzero(mirror == cols))


def _blocked_coherence(H: np.ndarray, P: np.ndarray, M: int) -> tuple[float, int]:
    """coherence from the row spectrum (H, P) of a wide m x M +/-1 matrix
    (_row_spectrum), on the conjugate-symmetric quarter of Phi^H Phi: S
    is real, so Phi_{M-j} = conj Phi_j and every |<Phi_j, Phi_k>| is in
    one triangle of X = Phi_H^H Phi_H or of Y = Phi_H^T Phi_H over the
    columns H = 0..M//2 (Y_jk pairs j with M - k).

    H is consumed: its kept rows are scaled to unit norm in place,
    u_j = H_j / sqrt(P_j) = a_j + i b_j (_unit_columns), and screened in
    tiles of _COLUMN_BLOCK rows and columns.  A tile is one real product
    of the float32 parts of its rows and of its column block, each cast
    from U as it is reached, a rows then b rows, whose quadrants are the
    parts aa, ab, ba and bb (ab_jk = a_j . b_k), and |X_jk|^2 = (aa +
    bb)^2 + (ba - ab)^2, |Y_jk|^2 = (aa - bb)^2 + (ab + ba)^2.  The tiles
    walk the lower trapezoid of each column block, and each is consumed
    before the next: only X's strict lower triangle and Y's lower one,
    less the self-conjugate pairs (2j = 0 mod M), count, and the rest of
    a diagonal tile is set to -1.  The pairs within 2 tau of the running
    maximum are re-scored in float64 by _pair_magnitudes, whose fixed
    order numpy defines, so the pair with the largest re-score is always
    among them: mu depends on S and numpy, not on _COLUMN_BLOCK, the BLAS
    build or the thread count.  Each pair is re-scored at most once: where
    the screen separates no pair (orthogonal columns, mu at rounding dust)
    every pair of the quarter is, one tile at a time.

    tau certifies the screen.  Each part is a float32 dot product of
    length m, so a sum of two, rounded, is within gamma_(m+1) ||u_j||
    ||u_k|| of its float64 value in any summation order (Cauchy-Schwarz
    on the 2m-vectors (|a_j|, |b_j|) and (|a_k|, |b_k|)), gamma_k = k u
    / (1 - k u), u = 2^-24 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., eq. 3.4 and section 3.6): under the gamma_2m of
    a complex64 inner product.  Rounding the unit columns to float32
    moves it by at most 2u, and the float32 re^2 + im^2 its root by 2u
    more.  So a screened magnitude is within (sqrt(2) (m + 1) + 4) u of
    the float64 one, to first order, and tau = 4 (m + 4) eps32 = 8 (m +
    4) u is over twice that, which also covers the re-score's own error
    and the float32 rounding of the floor the screen compares against."""
    m = H.shape[1]
    U, cols = _unit_columns(H, P)
    n = len(cols)
    self_conj = 2 * cols % M == 0
    zero_columns = M - 2 * n + int(np.count_nonzero(self_conj))
    tau = 4 * (m + 4) * float(np.finfo(np.float32).eps)
    # one product, one score and one part buffer for every tile and the
    # float32 parts of a column block and of a row tile, each viewed at
    # the tile's shape, so the screen allocates nothing tile-sized; no
    # output overlaps an input, so numpy copies nothing
    size = 2 * min(n, _COLUMN_BLOCK) ** 2
    products, scores, parts = np.split(np.empty(4 * size, np.float32), [2 * size, 3 * size])
    column_parts, row_parts = np.empty((2, 2 * min(n, _COLUMN_BLOCK), m), np.float32)
    best = top = 0.0
    for start in range(0, n, _COLUMN_BLOCK):
        w = min(n - start, _COLUMN_BLOCK)
        for r0 in range(start, n, _COLUMN_BLOCK):
            h = min(n - r0, _COLUMN_BLOCK)
            # a diagonal tile casts its column block, read by the block's other tiles
            rows = (column_parts if r0 == start else row_parts)[: 2 * h]
            rows[:h], rows[h:] = U[r0 : r0 + h].real, U[r0 : r0 + h].imag
            prod = products[: 4 * h * w].reshape(2 * h, 2 * w)
            np.matmul(rows, column_parts[: 2 * w].T, out=prod)
            aa, ab, ba, bb = prod[:h, :w], prod[:h, w:], prod[h:, :w], prod[h:, w:]
            Q, im = scores[: 2 * h * w].reshape(h, -1), parts[: 2 * h * w].reshape(h, -1)
            np.add(aa, bb, out=Q[:, :w])
            np.subtract(aa, bb, out=Q[:, w:])
            np.subtract(ba, ab, out=im[:, :w])
            np.add(ab, ba, out=im[:, w:])
            np.square(Q, out=Q)
            Q += np.square(im, out=im)
            if r0 == start:
                Q[:, :w][~np.tri(w, k=-1, dtype=bool)] = -1
                Q[:, w:][~np.tri(w, dtype=bool)] = -1
                d = np.flatnonzero(self_conj[start : start + w])
                Q[d, w + d] = -1
            top = max(top, float(q := Q.max()))
            floor = min(top, max(math.sqrt(top) - 2 * tau, 0.0) ** 2)
            if q < floor:  # a float32 compare, as Q >= floor: no pair passes
                continue
            r, c = np.divmod(np.flatnonzero(Q >= floor), 2 * w)
            best = float(_pair_magnitudes(U, r0 + r, start + c % w, c >= w).max(initial=best))
            if best >= 1.0:
                return 1.0, zero_columns  # duplicate columns: nothing is above 1
    return best, zero_columns


def _unit_columns(H: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, cols): the rows cols of a spectrum H (_row_spectrum) whose
    power P is not a structural zero, scaled to unit norm.  H is
    consumed: U is H, scaled in place, if every row is kept."""
    cols = np.flatnonzero(P > _ZERO_COLUMN_TOL)
    U = H if len(cols) == len(H) else H[cols]
    U /= np.sqrt(P[cols])[:, None]
    return U, cols


def _squared_magnitude(C: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of a complex array, on its real view (C is consumed)."""
    V = C.view(C.real.dtype)
    np.square(V, out=V)
    return V[:, 0::2] + V[:, 1::2]


def _pair_magnitudes(U: np.ndarray, j: np.ndarray, k: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """|<u_j, u_k>|, or |<u_j, conj u_k>| where conj, for rows u of U,
    in float64 in an order numpy defines: re is numpy's pairwise sum of
    the 2m products of the interleaved real views, im the difference
    of the sums of Re u_j Im u_k and of Im u_j Re u_k, and real ufuncs
    round each operation on their own, whatever the CPU (numpy's
    complex multiply may fuse it).  A pair's value does not depend on
    the pairs scored with it, and swapping j and k or conjugating both
    columns changes no bit of it.

    For unit columns taken from a float64 spectrum the value is within
    5 (m + 2) 2^-53 of |<Phi_j, Phi_k>| / (||Phi_j|| ||Phi_k||) computed
    exactly from that spectrum, to first order: each part is a dot
    product of length 2m, off by at most gamma_2m (Higham eq. 3.4), the
    unit scaling and sqrt(re^2 + im^2) add (2m + 6) 2^-53."""
    out = np.empty(len(j))
    step = max(1, _RESCORE_ENTRIES // U.shape[1])
    for i in range(0, len(j), step):
        s = slice(i, i + step)
        a, b = U[j[s]], U[k[s]]
        np.conjugate(b, out=b, where=conj[s, None])
        re = (a.view(np.float64) * b.view(np.float64)).sum(axis=1)
        im = (a.real * b.imag).sum(axis=1) - (a.imag * b.real).sum(axis=1)
        out[s] = np.sqrt(re * re + im * im)
    return out


def _top_eigenvalue(W: np.ndarray) -> float:
    """Power iteration on a symmetric positive semidefinite matrix, its
    matvec through einsum in a fixed order; at the cap it warns."""
    n = W.shape[0]
    # deterministic start with no accidental symmetry
    v = 1.0 + ((np.arange(n) * 2654435761) % 1000) / 1000.0
    v /= np.linalg.norm(v)
    lam = prev = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = np.einsum("ij,j->i", W, v)
        prev, lam = lam, float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(lam - prev) <= _POWER_REL_TOL * max(abs(lam), 1.0):
            return lam
    step = abs(lam - prev) / max(abs(lam), 1.0)
    msg = f"power iteration hit its cap of {_POWER_MAX_ITER} steps, last relative step {step:.3g}"
    warnings.warn(msg, RuntimeWarning, stacklevel=2)
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
    alpha and gamma were taken from and, for a wide matrix, the row
    spectrum (H, P) that beta was (see quality_measures); a tall one's
    beta is read off W = S^T S, and its spectrum is None."""
    m, M = S.shape
    W = _sign_gram(S)
    G = W.astype(np.int64)
    alpha = float((G * G).sum()) / (m * M) ** 2

    rev = -np.arange(M) % M
    if m > M:
        spectrum = None
        # A[l] = sum_n (S^T S)[n, n + l mod M], a cyclic diagonal of W
        n = np.arange(M)[:, None]
        A = G[n, (n + np.arange(M)) % M].sum(axis=0)
        # ||S R S^T||_F^2 = tr(R W R W) for W = S^T S and R = R^T
        rev_sq = (G * G[np.ix_(rev, rev)]).sum()
    else:
        # S R S^T = 2 H H^T - W for W = S S^T, H = (S + S R) / 2 in {-1, 0, 1},
        # taken first, so the float32 blocks of this Gram never meet the spectrum
        Grev = 2 * _sign_gram((S + S[:, rev]) // 2).astype(np.int64) - G
        rev_sq = (Grev * Grev).sum()
        spectrum = _row_spectrum(S)
        A = _autocorrelation(spectrum[1], M)
    # sum A^2 <= m^2 M^3 may pass 2**63: summed in Python integers
    beta = float(sum(a * a for a in A.tolist())) / (m * m * M**3)
    gamma = float(rev_sq) / (m * M) ** 2
    return alpha, beta, gamma, W, spectrum


def _autocorrelation(P: np.ndarray, M: int) -> np.ndarray:
    """A[l] = sum_i sum_n S_i[n] S_i[n + l mod M] (int64) of a +/-1
    matrix from the half column power P of its rows (_row_spectrum),
    the DFT of A.  An FFT of length M is off by at most c log2(M) u in
    the 2-norm (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 24.2; u = 2^-53, c small); each row's spectrum has
    2-norm M and A at most mM sqrt(M), so irfft(P) is within about
    ((4 + sqrt(M)) c log2(M) + m) mM u of A, under 1e-6 at 160 x 8191,
    and rint gives A.  An entry over 1/4 off raises ArithmeticError."""
    x = np.fft.irfft(P, n=M)
    A = np.rint(x)
    if (off := float(np.abs(x - A).max())) > 0.25:
        raise ArithmeticError(f"autocorrelation {off:.3g} off an integer at M = {M}")
    return A.astype(np.int64)


def correlation_measures(S: SignMatrix) -> tuple[float, float, float]:
    """(alpha, beta, gamma): the three measures the exrip bound reads,
    without the coherence and spectral norm of quality_measures."""
    return _correlations(S.entries)[:3]


def quality_measures(S: SignMatrix) -> QualityReport:
    """alpha, beta, gamma, coherence and spectral norm of one matrix.

    All three pair sums run over ordered pairs (i, k) including i = k;
    the diagonal is what puts alpha at its 1/m floor for orthogonal
    rows.  All three are exact integer sums up to the final division.

      alpha = (mM)^-2   sum (S_i . S_k)^2
      beta  = (m^2M^3)^-1 sum ||S_i (*) S_k||^2   ((*) cyclic convolution)
      gamma = (mM)^-2   sum (S_i . reverse(S_k))^2

    beta uses Parseval: sum_ik ||S_i (*) S_k||^2 = sum_l A[l]^2, A the
    rows' summed cyclic autocorrelation: the cyclic diagonal sums of
    S^T S if tall, else _autocorrelation.  alpha comes from the smaller
    Gram W (_sign_gram, ||S S^T||_F = ||S^T S||_F), which also gives
    the spectral norm, and so does gamma = (mM)^-2 ||S R S^T||_F^2 with
    R the cyclic reversal n -> -n mod M: a wide matrix takes
    S R S^T = 2 H H^T - W, H = (S + S R) / 2, a tall one
    tr(R W R W), which never forms an m x m array.  Every Gram runs in
    the one float32 block kernel (_block_gram) and is exact; it is cast
    to int64 so the sums of squares are exact integers too.  The
    coherence takes the route of its shape, as coherence does: a tall
    matrix is scored from W (_gram_coherence), which is S^T S there and
    the only pass over its rows, a wide one from the row spectrum that
    beta was taken from (_blocked_coherence, the only tiled screen).
    """
    alpha, beta, gamma, W, spectrum = _correlations(S.entries)
    if spectrum is None:
        mu, zero_columns = _gram_coherence(W)
    else:
        mu, zero_columns = _blocked_coherence(*spectrum, S.M)
    snorm = _top_eigenvalue(W) / S.m
    return QualityReport(alpha, beta, gamma, mu, snorm, S.m, S.M, zero_columns)


def welch_lower_bound(m: int, M: int) -> float:
    return (2 * m - 1) / (2 * m * M - 1)


def quality_bounds_check(report: QualityReport) -> BoundsCheck:
    """Slack of every inequality the measures are expected to satisfy.

      1/m <= alpha <= 1
      (2m-1)/(2mM-1) <= beta <= 1
      (2m-1)/(2mM-1) <= gamma <= 1

    A negative slack names the violated inequality.  Violations signal
    an implementation bug for alpha and beta, whose bounds are theorems.
    The gamma lower bound is not one: only the zero-lag term of the
    reversed correlation enters gamma, and matrices with
    reversal-orthogonal rows sit below the bound (S = [[1, 1, 1, -1]]
    has gamma = 0).  The slack is reported faithfully either way.
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
    return BoundsCheck(not violations, slacks, violations)


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
