"""Brute-force verification of the isometry probability bound.

Draws K-sparse vectors with uniformly random supports and i.i.d.
symmetric nonzeros, measures Z^2 = ||Phi u||^2 / ||u||^2 per draw, and
compares the fraction landing inside [1 - delta, 1 + delta] against
the theoretical lower bound.  Trials run in fixed-size blocks with
counter-derived streams, so the result is a pure function of
(seed, trials) no matter how the blocks are scheduled.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import NonzeroDistribution, block_rng, moment_constants, sample_values
from .guarantees import BP_DELTA, GuaranteeResult, exrip_from_sign_matrix
from .sensing import sensing_matrix
from .signmatrix import SignMatrix

_BLOCK = 2048
# trials per gather and product inside a block. A 32 x K x m complex slab
# (1 MB at K = 24, m = 80) stays in L2, where a whole-block gather is 63 MB.
# Timed on gold 80 x 511 at one thread, slabs of 4 to 256: 16 and 32 are
# level, 4 pays numpy's per-call cost (+30%), 64 to 256 fall out of cache
# (+18% to +50%).
_GATHER = 32
_UNDERFLOW = 1e-300


def sample_supports(M: int, K: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count uniform K-subsets of range(M), one per row, by partial
    Fisher-Yates vectorized across the rows.

    Step i draws one integer in [0, M - i) per row, so at count = 1 the
    stream is consumed exactly as by the scalar shuffle, draw for draw.
    The table is int32 (M < 2**31), half the bytes each swap moves.
    """
    idx = np.tile(np.arange(M, dtype=np.int32), (count, 1))
    flat = idx.reshape(-1)  # swaps on flat offsets: one index array, not two
    base = np.arange(count) * M
    for i in range(K):
        pi = base + i
        pj = pi + rng.integers(0, M - i, size=count)
        tmp = flat[pi]
        flat[pi] = flat[pj]
        flat[pj] = tmp
    return idx[:, :K]


@dataclass(frozen=True)
class ExripEstimate:
    trials: int
    empirical_p: float
    stderr: float
    moment2: float
    moment2_stderr: float
    moment4: float
    moment4_stderr: float
    delta: float
    K: int
    seed: int
    redraws: int


def empirical_exrip(
    Phi: np.ndarray,
    K: int,
    delta: float,
    dist: NonzeroDistribution,
    trials: int,
    seed: int = 0,
) -> ExripEstimate:
    """Empirical isometry probability over `trials` sparse draws."""
    if trials < 10**3:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    m, M = Phi.shape
    if not 1 <= K <= M:
        raise ValueError(f"need 1 <= K <= M, got K={K}, M={M}")
    cols = Phi.T.copy()  # M x m, row gather per support

    hits = 0
    s2 = s4 = s8 = 0.0
    redraws = 0
    done = 0
    block_index = 0
    while done < trials:
        take = min(_BLOCK, trials - done)
        rng = block_rng(seed, block_index)
        supports = sample_supports(M, K, take, rng)
        values = sample_values(dist, (take, K), rng)
        nrm2 = (np.abs(values) ** 2).sum(axis=1)
        for _ in range(100):
            bad = np.nonzero(nrm2 < _UNDERFLOW)[0]
            if bad.size == 0:
                break
            redraws += int(bad.size)
            values[bad] = sample_values(dist, (bad.size, K), rng)
            nrm2[bad] = (np.abs(values[bad]) ** 2).sum(axis=1)
        # y[t] = w_t Phi_T^T, one stacked (1 x K) @ (K x m) product per slab
        y = np.empty((take, 1, m), dtype=np.result_type(cols, values))
        for i in range(0, take, _GATHER):
            np.matmul(
                values[i : i + _GATHER, None, :], cols.take(supports[i : i + _GATHER], axis=0),
                out=y[i : i + _GATHER],
            )
        z2 = (np.abs(y[:, 0]) ** 2).sum(axis=1) / nrm2
        hits += int((np.abs(z2 - 1.0) <= delta).sum())
        s2 += float(z2.sum())
        s4 += float((z2 * z2).sum())
        s8 += float((z2 * z2) @ (z2 * z2))
        done += take
        block_index += 1

    p = hits / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    m2 = s2 / trials
    m4 = s4 / trials
    var2 = max(0.0, s4 / trials - m2 * m2)
    var4 = max(0.0, s8 / trials - m4 * m4)
    return ExripEstimate(
        trials,
        p,
        stderr,
        m2,
        math.sqrt(var2 / trials),
        m4,
        math.sqrt(var4 / trials),
        delta,
        K,
        seed,
        redraws,
    )


@dataclass(frozen=True)
class ValidityReport:
    """Theory versus simulation for one sign matrix.

    lower_bound_holds: empirical_p + 3 stderr is at least the
        theoretical probability (the bound claims to be a floor).
    mean_z2_is_one: empirical E[Z^2] is within 3 stderr of 1, which
        holds for any sign matrix under uniform supports.
    moment4_predicted: 1 + delta^2 (1 - raw), which is E[Z^4] exactly:
        the bound's excess is the variance of Z^2 (exrip_probability).
    moment4_z: moment4_gap in units of the estimate's moment4_stderr;
        |z| beyond a few sigma means the theory's constants are wrong.
        0 when every draw gave the same Z^2 and the gap is 0.
    """

    theoretical: GuaranteeResult
    estimate: ExripEstimate
    lower_bound_holds: bool
    mean_z2_is_one: bool
    moment4_predicted: float
    moment4_gap: float
    moment4_z: float


def bound_validity_report(
    S: SignMatrix,
    K: int,
    delta: float = BP_DELTA,
    dist: NonzeroDistribution = NonzeroDistribution(),
    trials: int = 10**5,
    seed: int = 0,
) -> ValidityReport:
    theory = exrip_from_sign_matrix(S, delta, moment_constants(dist, K))
    Phi = sensing_matrix(S)
    est = empirical_exrip(Phi, K, delta, dist, trials, seed)
    holds = est.empirical_p + 3.0 * est.stderr >= theory.probability
    mean_one = abs(est.moment2 - 1.0) <= 3.0 * est.moment2_stderr
    m4_pred = 1.0 + delta * delta * (1.0 - theory.raw_value)
    gap = est.moment4 - m4_pred
    if est.moment4_stderr > 0.0:
        z = gap / est.moment4_stderr
    else:
        z = math.copysign(math.inf, gap) if gap else 0.0
    return ValidityReport(theory, est, holds, mean_one, m4_pred, gap, z)


__all__ = [
    "ExripEstimate",
    "ValidityReport",
    "bound_validity_report",
    "empirical_exrip",
    "sample_supports",
]
