"""Multiple-measurement-vector support recovery on the sensing matrix.

Synthesizes V = Phi U + noise with row-sparse U and recovers the row
support by simultaneous orthogonal matching pursuit: pick the column
whose inner products with the residual have the largest Euclidean
norm, re-project onto the span of everything picked so far, repeat.
The re-projection is Gram-Schmidt, twice per column, and a column
whose remainder is at rounding level (max(m, s + 1) * eps of its
norm, s columns picked before) ends the run as rank-deficient.
recovery_experiment runs its trials as slabs of _SLAB problems, one
GEMM per step scoring the whole slab.  This stands in for the
sparse-recovery stage of the full continuous-to-finite chain, which
is out of scope here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import NonzeroDistribution, block_rng, sample_values
from .montecarlo import sample_supports
from .sensing import sensing_matrix
from .signmatrix import SignMatrix

# trials per _somp_slab call in recovery_experiment: a 40 x 64 x 12
# residual is 0.5 MB, where all 500 recover_mwc trials at once take
# recover's peak RSS from 45 to 93 MB, above verify's 53 MB.
_SLAB = 64


@dataclass(frozen=True)
class MMVInstance:
    Phi: np.ndarray
    support: np.ndarray
    U: np.ndarray  # M x r, nonzero only on support rows
    V: np.ndarray  # m x r
    noise_sigma: float


def synthesize_mmv(
    Phi: np.ndarray,
    support,
    r: int,
    dist: NonzeroDistribution,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | int | None = None,
) -> MMVInstance:
    """Row-sparse instance: U rows on `support` are i.i.d. from dist
    across r columns; the noise is i.i.d. complex Gaussian with standard
    deviation noise_sigma per entry."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(rng)
    m, M = Phi.shape
    support = np.asarray(sorted(int(i) for i in set(np.asarray(support).ravel().tolist())))
    if support.size and (support.min() < 0 or support.max() >= M):
        raise ValueError(f"support indices out of range for M={M}")
    U = np.zeros((M, r), dtype=np.complex128)
    if support.size:
        U[support] = sample_values(dist, (support.size, r), rng)
    V = Phi @ U
    if noise_sigma > 0:
        noise = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        V = V + noise * (noise_sigma / math.sqrt(2.0))
    return MMVInstance(Phi, support, U, V, noise_sigma)


@dataclass(frozen=True)
class SompResult:
    support: np.ndarray  # selected indices, sorted
    order: tuple[int, ...]  # selection order
    early_stop: bool
    reason: str | None = None


def somp(Phi: np.ndarray, V: np.ndarray, k_target: int) -> SompResult:
    """Greedy row-support estimate with k_target iterations.

    Ties in the selection score break toward the lowest column index.
    Each picked column is orthogonalised twice by Gram-Schmidt against
    those picked before and its direction is projected out of the
    residual, so the residual is always V minus its projection onto the
    span of the selection.  Stops early, flagged, if the residual hits
    exactly zero ("zero residual") or if the picked column's remainder
    after orthogonalisation is at most max(m, s + 1) * eps times its
    norm, s being the number picked before ("rank-deficient
    selection"); the column is then not selected.
    """
    m, M = Phi.shape
    if not 1 <= k_target <= m:
        raise ValueError(f"need 1 <= k_target <= m, got k_target={k_target}, m={m}")
    V0 = np.asarray(V, dtype=np.complex128)
    if V0.ndim == 1:
        V0 = V0[:, None]
    if V0.shape[0] != m:
        raise ValueError(f"V has {V0.shape[0]} rows, expected {m}")
    return _somp_slab(Phi, V0[None], k_target)[0]


def _somp_slab(Phi: np.ndarray, V: np.ndarray, k: int) -> list[SompResult]:
    """somp on each of the T problems V[t] (V is T x m x r) at once.

    The residual is held as m x T x r, so one GEMM per step scores every
    trial still running; a trial leaves the slab when it stops early.
    """
    m, M = Phi.shape
    T, _, r = V.shape
    AH = np.ascontiguousarray(Phi.conj().T, dtype=np.complex128)
    col_norm = np.linalg.norm(Phi, axis=0)
    eps = np.finfo(np.float64).eps
    # a copy always: at T = 1 the transpose of V is already contiguous
    R = np.array(V.transpose(1, 0, 2), dtype=np.complex128, order="C")
    Q = np.empty((T, k, m), dtype=np.complex128)  # orthonormal picks, per trial
    picked = np.empty((T, k), dtype=np.int64)
    live = np.arange(T)
    results: list[SompResult | None] = [None] * T

    def finish(rows, s, reason):
        for i in rows:
            results[live[i]] = SompResult(
                np.sort(picked[i, :s]), tuple(picked[i, :s].tolist()), reason is not None, reason
            )

    for s in range(k):
        n = live.size
        # squared norm over r of each column's inner products, per trial
        C = (AH @ R.reshape(m, n * r)).view(np.float64).reshape(M * n, 2 * r)
        score = np.einsum("ij,ij->i", C, C).reshape(M, n)
        lanes = np.arange(n)
        score[picked[:, :s], lanes[:, None]] = -1.0
        best = score.argmax(axis=0)
        zero = score[best, lanes] <= 0.0
        a = Phi[:, best].T.astype(np.complex128)
        Qs = Q[:, :s]
        for _ in range(2):
            a -= (Qs * (Qs.conj() * a[:, None, :]).sum(axis=2)[:, :, None]).sum(axis=1)
        rem = np.linalg.norm(a, axis=1)
        deficient = ~zero & (rem <= max(m, s + 1) * eps * col_norm[best])
        go = ~(zero | deficient)
        finish(np.nonzero(zero)[0], s, "zero residual")
        finish(np.nonzero(deficient)[0], s, "rank-deficient selection")
        q = a[go] / rem[go, None]
        if not go.all():
            live, R, Q, picked = live[go], R.compress(go, axis=1), Q[go], picked[go]
            if not live.size:
                break
        Q[:, s] = q
        picked[:, s] = best[go]
        R -= q.T[:, :, None] * (q.T.conj()[:, :, None] * R).sum(axis=0)[None]
    else:
        finish(range(live.size), k, None)
    return results


@dataclass(frozen=True)
class RecoveryReport:
    trials: int
    successes: int
    success_rate: float
    stderr: float
    early_stops: int
    k_rows: int
    r: int
    noise_sigma: float
    snr_db: float | None
    seed: int
    params: dict = field(default_factory=dict)


def noise_sigma_for_snr(
    snr_db: float, k_rows: int, m: int, dist: NonzeroDistribution
) -> float:
    """Per-entry noise standard deviation hitting a target SNR, where
    SNR = 10 log10(E||Phi U||_F^2 / E||noise||_F^2) and E||Phi U||_F^2
    equals E||U||_F^2 under uniform supports."""
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    signal = k_rows * dist.second_moment
    return math.sqrt(signal / (m * 10.0 ** (snr_db / 10.0)))


def recovery_experiment(
    S: SignMatrix,
    k_rows: int,
    r: int,
    trials: int = 500,
    dist: NonzeroDistribution = NonzeroDistribution(),
    snr_db: float | None = None,
    seed: int = 0,
) -> RecoveryReport:
    """Exact-support recovery rate over fresh supports, values, noise.

    The noise, if any, is set by its SNR (noise_sigma_for_snr); without
    one the measurements are noiseless.  Per-trial randomness comes from
    counter-derived streams keyed by (seed, trial).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    Phi = sensing_matrix(S)
    M = S.M
    if not 1 <= k_rows <= min(S.m, M):
        raise ValueError(f"need 1 <= k_rows <= min(m, M), got k_rows={k_rows}, m={S.m}, M={M}")
    noise_sigma = 0.0 if snr_db is None else noise_sigma_for_snr(snr_db, k_rows, S.m, dist)
    successes = 0
    early_stops = 0
    for t0 in range(0, trials, _SLAB):
        supports, Vs = [], []
        for t in range(t0, min(t0 + _SLAB, trials)):
            rng = block_rng(seed, t)
            support = np.sort(sample_supports(M, k_rows, 1, rng)[0])
            supports.append(support)
            Vs.append(synthesize_mmv(Phi, support, r, dist, noise_sigma, rng).V)
        for support, res in zip(supports, _somp_slab(Phi, np.stack(Vs), k_rows)):
            successes += int(np.array_equal(res.support, support))
            early_stops += int(res.early_stop)
    rate = successes / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return RecoveryReport(
        trials,
        successes,
        rate,
        stderr,
        early_stops,
        k_rows,
        r,
        noise_sigma,
        snr_db,
        seed,
        params={
            "family": S.family,
            "m": S.m,
            "M": M,
            "family_seed": list(S.seed) if isinstance(S.seed, tuple) else S.seed,
            "dist": dist.kind,
        },
    )


__all__ = [
    "MMVInstance",
    "RecoveryReport",
    "SompResult",
    "noise_sigma_for_snr",
    "recovery_experiment",
    "somp",
    "synthesize_mmv",
]
