"""Multiple-measurement-vector support recovery on the sensing matrix.

Synthesizes V = Phi U + noise with row-sparse U and recovers the row
support by simultaneous orthogonal matching pursuit: pick the column
whose inner products with the residual have the largest Euclidean
norm, re-project onto the span of everything picked so far, repeat.
This stands in for the sparse-recovery stage of the full
continuous-to-finite chain, which is out of scope here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import NonzeroDistribution, block_rng, sample_values
from .montecarlo import sample_supports
from .sensing import sensing_matrix
from .signmatrix import SignMatrix


@dataclass(frozen=True)
class MMVInstance:
    Phi: np.ndarray
    support: np.ndarray
    U: np.ndarray  # M x r, nonzero only on support rows
    V: np.ndarray  # m x r
    noise_sigma: float
    degenerate: bool = False  # empty support without noise: V is exactly 0


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
    return MMVInstance(Phi, support, U, V, noise_sigma, degenerate=not support.size and noise_sigma == 0)


@dataclass(frozen=True)
class SompResult:
    support: np.ndarray  # selected indices, sorted
    order: tuple[int, ...]  # selection order
    early_stop: bool
    reason: str | None = None


def somp(Phi: np.ndarray, V: np.ndarray, k_target: int) -> SompResult:
    """Greedy row-support estimate with k_target iterations.

    Ties in the selection score break toward the lowest column index.
    Stops early, flagged, if the residual hits exactly zero or the
    selected columns go rank-deficient.
    """
    m, M = Phi.shape
    if not 1 <= k_target <= m:
        raise ValueError(f"need 1 <= k_target <= m, got k_target={k_target}, m={m}")
    V0 = np.asarray(V, dtype=np.complex128)
    if V0.ndim == 1:
        V0 = V0[:, None]
    if V0.shape[0] != m:
        raise ValueError(f"V has {V0.shape[0]} rows, expected {m}")
    AH = Phi.conj().T
    R = V0
    selected: list[int] = []
    early = False
    reason = None
    for _ in range(k_target):
        score = np.linalg.norm(AH @ R, axis=1)
        if selected:
            score[selected] = -1.0
        best = int(np.argmax(score))
        if score[best] <= 0.0:
            early, reason = True, "zero residual"
            break
        trial = selected + [best]
        sub = Phi[:, trial]
        # re-project the original measurements, not the residual
        X, _, rank, _ = np.linalg.lstsq(sub, V0, rcond=None)
        if rank < len(trial):
            early, reason = True, "rank-deficient selection"
            break
        selected = trial
        R = V0 - sub @ X
    return SompResult(np.array(sorted(selected), dtype=np.int64), tuple(selected), early, reason)


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
    if not 1 <= k_rows <= M:
        raise ValueError(f"need 1 <= k_rows <= M, got k_rows={k_rows}")
    noise_sigma = 0.0 if snr_db is None else noise_sigma_for_snr(snr_db, k_rows, S.m, dist)
    successes = 0
    early_stops = 0
    for t in range(trials):
        rng = block_rng(seed, t)
        support = np.sort(sample_supports(M, k_rows, 1, rng)[0])
        inst = synthesize_mmv(Phi, support, r, dist, noise_sigma, rng)
        res = somp(Phi, inst.V, k_rows)
        ok = res.support.size == support.size and np.array_equal(res.support, support)
        successes += int(ok)
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
