"""Recovery guarantees for the scaled sensing matrix.

Implements the expectation-over-supports isometry bound (exrip) driven
by the sign-pattern quality measures, its 1 - 1/(m delta^2)
approximation, and the competing guarantees it is benchmarked against:
coherence conditions (Donoho-Elad, Tropp, Candes-Plan), the
sample-count bound for subgaussian RIP, and the statistical RIP bounds
of Calderbank, Gan and Tropp.  A doubling-plus-bisection search finds
the smallest channel count at which a chosen guarantee kicks in for
one of N random instances, as the published channel budgets take the
best of N.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import MomentConstants, NonzeroDistribution, _check_seed, moment_constants
from .sensing import (
    _block_gram,
    _blocked_coherence,
    _gram_coherence,
    _row_spectrum,
    _top_eigenvalue,
    correlation_measures,
    spectral_norm_sq,
)
from .signmatrix import SignMatrix, _random_signs, _sign_blocks

# exact-recovery threshold for basis pursuit: delta_2K below sqrt(2)-1
BP_DELTA = math.sqrt(2.0) - 1.0

# subgaussian RIP concentration constant for +/-1 rows
RIP_C = 7.0 / 18.0


@dataclass(frozen=True)
class GuaranteeResult:
    bound: str
    probability: float
    raw_value: float | None
    feasible: bool
    params: dict = field(default_factory=dict)


def _clamp(raw: float) -> float:
    return min(1.0, max(0.0, raw))


def _feasible(bound: str, raw: float, params: dict) -> GuaranteeResult:
    return GuaranteeResult(bound, _clamp(raw), raw, True, params)


def _infeasible(bound: str, reason: str, params: dict) -> GuaranteeResult:
    params = dict(params)
    params["reason"] = reason
    return GuaranteeResult(bound, 0.0, None, False, params)


@dataclass(frozen=True)
class ExripInputs:
    """Everything the exact bound consumes.

    The bound reads the sparsity K only through the moment constants,
    so constants.K is the K it is evaluated at; reproductions of the
    published tables pass twice the signal sparsity with delta at the
    basis-pursuit threshold.  rho is M / (M - 1).
    """

    alpha: float
    beta: float
    gamma: float
    m: int
    M: int
    delta: float
    constants: MomentConstants

    def __post_init__(self):
        K = self.constants.K
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if K < 1:
            raise ValueError(f"K must be positive, got {K}")
        if self.M <= K:
            raise ValueError(f"need M > K, got M={self.M}, K={K}")

    @property
    def rho(self) -> float:
        return self.M / (self.M - 1.0)


def exrip_probability(inputs: ExripInputs) -> GuaranteeResult:
    """Lower bound on the probability that a random-support K-sparse
    vector with i.i.d. symmetric nonzeros sees a delta-isometry.

    For every S, Z^2 = ||Phi u||^2 / ||u||^2 has mean 1 and `excess` is
    exactly its variance E[Z^4] - 1: the bound is Chebyshev's inequality
    with the exact variance."""
    B, C = inputs.constants.B_K, inputs.constants.C_K
    rho = inputs.rho
    excess = (
        (1.0 - C) * rho * (1.0 + inputs.alpha - 2.0 * inputs.beta)
        + (B - C) * rho * (inputs.gamma - inputs.beta)
        + C * inputs.M * inputs.beta
        - 1.0
    )
    raw = 1.0 - excess / inputs.delta**2
    params = {
        "alpha": inputs.alpha,
        "beta": inputs.beta,
        "gamma": inputs.gamma,
        "m": inputs.m,
        "M": inputs.M,
        "K": inputs.constants.K,
        "delta": inputs.delta,
        "B_K": B,
        "C_K": C,
    }
    return _feasible("exrip", raw, params)


def exrip_from_sign_matrix(
    S: SignMatrix, delta: float, constants: MomentConstants
) -> GuaranteeResult:
    """Convenience path: the measures the bound reads, then the bound."""
    alpha, beta, gamma = correlation_measures(S)
    return exrip_probability(ExripInputs(alpha, beta, gamma, S.m, S.M, delta, constants))


def exrip_approx(m: int, delta: float = BP_DELTA) -> GuaranteeResult:
    """Large-M simplification 1 - 1/(m delta^2) of the exact bound."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    raw = 1.0 - 1.0 / (m * delta * delta)
    return _feasible("exrip_approx", raw, {"m": m, "delta": delta})


@dataclass(frozen=True)
class CoherenceGuarantees:
    """Sparsity levels guaranteed by coherence alone.

    max K with exact recovery: (1 + 1/mu)/2 for the spark-based
    condition, 1/(3 mu) for the orthogonal matching pursuit condition.
    None means unbounded (mu = 0).  The log-factor condition pair is
    evaluated only when its unspecified constant c is supplied.
    """

    mu: float
    donoho_elad_max_k: int | None
    tropp_max_k: int | None
    candes_plan_evaluable: bool
    candes_plan_mu_ok: bool | None = None
    candes_plan_k_ok: bool | None = None


def coherence_guarantees(
    mu: float,
    M: int,
    spectral_norm_sq: float | None = None,
    K: int | None = None,
    candes_plan_c: float | None = None,
) -> CoherenceGuarantees:
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if mu == 0.0:
        de = tk = None
    else:
        de = math.floor(0.5 * (1.0 + 1.0 / mu))
        tk = math.floor(1.0 / (3.0 * mu))
    if candes_plan_c is None:
        return CoherenceGuarantees(mu, de, tk, False)
    if K is None or spectral_norm_sq is None:
        raise ValueError("the c-dependent check needs K and spectral_norm_sq")
    if M < 2:
        raise ValueError(f"the c-dependent check divides by log M, so it needs M >= 2, got M={M}")
    logM = math.log(M)
    mu_ok = mu < candes_plan_c / logM
    k_ok = K <= candes_plan_c * M / (spectral_norm_sq * logM)
    return CoherenceGuarantees(mu, de, tk, True, mu_ok, k_ok)


def rip_min_m(M: int, K: int, delta: float, prob: float) -> int:
    """Smallest m with m >= (2/(c delta)) (ln(2 L) + K ln(12/delta) + t),
    c = RIP_C, L = (M choose K) computed by exact log-gamma and
    t = -ln(1 - prob)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must be in (0, 1), got {prob}")
    if not 1 <= K <= M:
        raise ValueError(f"need 1 <= K <= M, got K={K}, M={M}")
    t = -math.log1p(-prob)
    ln_l = math.lgamma(M + 1) - math.lgamma(K + 1) - math.lgamma(M - K + 1)
    rhs = (2.0 / (RIP_C * delta)) * (math.log(2.0) + ln_l + K * math.log(12.0 / delta) + t)
    return max(1, math.ceil(rhs))


def strip_calderbank(m: int, M: int, K: int, delta: float) -> GuaranteeResult:
    """Statistical isometry for deterministic frames, uniform supports
    with arbitrary nonzeros; needs (K-1)/(M-1) < delta < 1."""
    params = {"m": m, "M": M, "K": K, "delta": delta}
    if M <= 3:
        return _infeasible("calderbank", f"needs M > 3, got M={M}", params)
    edge = (K - 1.0) / (M - 1.0)
    if not edge < delta < 1.0:
        return _infeasible(
            "calderbank", f"needs (K-1)/(M-1) = {edge:.6g} < delta < 1", params
        )
    raw = 1.0 - (2.0 * K / m + (2.0 * K + 7.0) / (M - 3.0)) / (delta - edge) ** 2
    return _feasible("calderbank", raw, params)


def strip_gan(mu: float, M: int, K: int, delta: float) -> GuaranteeResult:
    """Coherence-driven statistical isometry; needs delta > 1/(M-1)."""
    params = {"mu": mu, "M": M, "K": K, "delta": delta}
    edge = 1.0 / (M - 1.0)
    if not delta > edge:
        return _infeasible("gan", f"needs delta > 1/(M-1) = {edge:.6g}", params)
    if mu == 0.0:
        return _feasible("gan", 1.0, params)
    raw = 1.0 - 2.0 * math.exp(-((delta - edge) ** 2) / (16.0 * mu * mu * K))
    return _feasible("gan", raw, params)


def strip_tropp(
    mu: float, spectral_norm_sq: float, M: int, K: int, delta: float, t: float
) -> GuaranteeResult:
    """Random-support isometry for nearly unit-norm frames.  Holds with
    probability 1 - (K/2)^(-t) when
    sqrt(144 mu^2 K t ln(K/2 + 1)) + (2K/M) ||Phi||^2 <= e^(-1/4) delta."""
    params = {
        "mu": mu,
        "spectral_norm_sq": spectral_norm_sq,
        "M": M,
        "K": K,
        "delta": delta,
        "t": t,
    }
    if t < 1.0:
        raise ValueError(f"t must be at least 1, got {t}")
    if K < 2:
        return _infeasible("tropp", f"probability term needs K >= 2, got K={K}", params)
    lhs = math.sqrt(144.0 * mu * mu * K * t * math.log(K / 2.0 + 1.0))
    lhs += (2.0 * K / M) * spectral_norm_sq
    rhs = math.exp(-0.25) * delta
    params["condition_lhs"] = lhs
    params["condition_rhs"] = rhs
    if lhs > rhs:
        return _infeasible("tropp", f"condition fails: {lhs:.6g} > {rhs:.6g}", params)
    raw = 1.0 - (K / 2.0) ** (-t)
    return _feasible("tropp", raw, params)


SEARCH_BOUNDS = (
    "donoho_elad",
    "tropp_coherence",
    "candes_plan",
    "rip",
    "calderbank",
    "gan",
    "tropp_strip",
    "exrip",
    "exrip_approx",
)


def _search_policy(bound: str, K: int) -> tuple[float, float]:
    """(target probability, strip_tropp t) of the channel search for
    `bound` at sparsity K: the target is the conventional 0.85 for the
    exrip variants and 0.97 otherwise, and t puts Tropp's success
    probability 1 - (K/2)^(-t) at the target (t >= 1)."""
    target = 0.85 if bound.startswith("exrip") else 0.97
    t = max(1.0, -math.log1p(-target) / math.log(K / 2.0)) if K > 2 else 1.0
    return target, t


@dataclass(frozen=True)
class SearchResult:
    bound: str
    m: int | None
    status: str  # "found", "ceiling" or "never"
    witness_seed: tuple[int, ...] | None
    detail: str
    params: dict = field(default_factory=dict)


class _CandidatePool:
    """The random candidates of the channel search for one (M, attempts,
    seed).

    Attempt a is the one sign stream default_rng((seed, a)), and its
    candidate at m is that stream's first m rows: _sign_blocks draws a
    prefix the same whatever the block split, from PCG64 words read as
    32-bit draws, including a block that starts on the high half of a
    word the Generator holds after an odd number of signs.  mu is kept
    per (a, m), so a bound that scans attempts until one passes reuses
    every score another bound took, and scores the rest itself.

    A tall candidate (m > M) is scored from S^T S alone
    (sensing._gram_coherence, one masked max over its whole Gram), a
    wide one from the row spectrum of its drawn rows
    (sensing._blocked_coherence, the tiled screen).  S^T S is grown from
    the attempt's checkpoint at the largest m0 <= m by the Gram of rows
    m0..m, drawn from the Generator state saved with it.  Each attempt
    keeps at most two checkpoints, the one it grew from and the newest
    (none at m = 0): along a doubling or a bisection the next probe lies
    above the last failing one, which is kept.  A checkpoint holds T as
    int32.  Every value is the one the materialized prefix gives
    (coherence, spectral_norm_sq), bit for bit, so what the pool holds
    never changes a result.
    """

    def __init__(self, M: int, attempts: int, seed: int):
        self.M = M
        self.seed = seed
        self._mu: dict[tuple[int, int], float] = {}
        self._checkpoints: list[list[tuple]] = [[] for _ in range(attempts)]

    def _stream(self, a: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, a))

    def signs(self, a: int, m: int) -> np.ndarray:
        """The candidate itself: the first m rows of attempt a's stream."""
        return _random_signs(self._stream(a), m, self.M)

    def gram(self, a: int, m: int) -> np.ndarray:
        """S^T S of the candidate (float64), grown from a checkpoint."""
        kept = self._checkpoints[a]
        base = max((c for c in kept if c[0] <= m), key=lambda c: c[0], default=None)
        rng = self._stream(a)
        m0 = 0
        if base is not None:
            m0, T0, state = base
            if m0 == m:
                return T0.astype(np.float64)
            rng.bit_generator.state = state
        T = _block_gram(_sign_blocks(rng, m - m0, self.M), self.M)
        if base is not None:
            T += T0
        newest = (m, T.astype(np.int32), rng.bit_generator.state)
        self._checkpoints[a] = ([] if base is None else [base]) + [newest]
        return T

    def mu(self, a: int, m: int) -> float:
        """coherence of the candidate, by the route of its shape."""
        if (a, m) not in self._mu:
            if m > self.M:
                self._mu[a, m] = _gram_coherence(self.gram(a, m))[0]
            else:
                self._mu[a, m] = _blocked_coherence(*_row_spectrum(self.signs(a, m)), self.M)[0]
        return self._mu[a, m]

    def norm_sq(self, a: int, m: int) -> float:
        """spectral_norm_sq of the candidate: from the pool's S^T S when
        it is tall, from S S^T of its rows otherwise."""
        if m > self.M:
            return _top_eigenvalue(self.gram(a, m)) / m
        return spectral_norm_sq(self.signs(a, m))


@functools.lru_cache(maxsize=1)
def _candidate_pool(M: int, attempts: int, seed: int) -> _CandidatePool:
    """The pool the searches of one (M, attempts, seed) share, as
    table1's nine bounds do; only the latest key's pool is kept."""
    return _CandidatePool(M, attempts, seed)


def min_channels_search(
    bound: str,
    M: int,
    K: int,
    delta: float = BP_DELTA,
    dist: NonzeroDistribution = NonzeroDistribution(),
    attempts: int = 100,
    seed: int = 0,
    ceiling: int = 1 << 15,
) -> SearchResult:
    """Smallest m at which `bound` guarantees the target, by doubling
    then bisection.

    Coherence and statistical bounds are instance-dependent: a probe m
    is satisfied when one of `attempts` random sign matrices satisfies
    the bound, the candidate of attempt a being the first m rows of the
    sign stream default_rng((seed, a)) (_CandidatePool).  donoho_elad,
    tropp_coherence, gan and exrip are monotone in each draw's score, so
    the attempts are scanned in order up to the first that passes;
    tropp_strip takes the lowest-coherence draw (ties to the lowest a)
    and adds its spectral norm.  The witness seed (seed, a) names the
    draw that satisfied the bound: its first m rows at the returned m.
    The target probability and Tropp's t follow _search_policy;
    params["target_prob"] reports the target.  candes_plan needs an
    unspecified constant and is reported as never satisfied.
    """
    if bound not in SEARCH_BOUNDS:
        raise ValueError(f"unknown bound {bound!r}, expected one of {SEARCH_BOUNDS}")
    if attempts < 1:
        raise ValueError(f"attempts must be positive, got {attempts}")
    if ceiling < 1:
        raise ValueError(f"ceiling must be positive, got {ceiling}")
    _check_seed(seed)
    target_prob, tropp_t = _search_policy(bound, K)
    params = {
        "bound": bound,
        "M": M,
        "K": K,
        "delta": delta,
        "target_prob": target_prob,
        "attempts": attempts,
        "seed": seed,
        "ceiling": ceiling,
    }

    if bound == "candes_plan":
        return SearchResult(bound, None, "never", None, "constant c not supplied", params)
    if bound == "calderbank":
        # instance-independent with a finite large-m asymptote
        limit = strip_calderbank(10**12, M, K, delta)
        cap = limit.raw_value if limit.feasible else None
        if cap is None or cap < target_prob:
            capstr = "infeasible hypothesis" if cap is None else f"{cap:.4f}"
            return SearchResult(
                bound, None, "never", None,
                f"large-m probability limit {capstr} below target {target_prob}", params,
            )
    if bound == "exrip":
        constants = moment_constants(dist, K)

    pool = _candidate_pool(M, attempts, seed)
    witness: dict[int, tuple[int, ...] | None] = {}

    def passes(a: int, m: int) -> bool:
        # the bounds monotone in one draw's score: does attempt a's pass?
        if bound == "exrip":
            S = SignMatrix(pool.signs(a, m), "random", (seed, a))
            return exrip_from_sign_matrix(S, delta, constants).probability >= target_prob
        mu = pool.mu(a, m)
        if bound in ("donoho_elad", "tropp_coherence"):
            cg = coherence_guarantees(mu, M)
            max_k = cg.donoho_elad_max_k if bound == "donoho_elad" else cg.tropp_max_k
            return max_k is not None and max_k >= K  # None: mu = 0, a miss
        r = strip_gan(mu, M, K, delta)
        return r.feasible and r.probability >= target_prob

    def satisfied(m: int) -> bool:
        if bound == "exrip_approx":
            witness[m] = None
            return exrip_approx(m, delta).probability >= target_prob
        if bound == "rip":
            witness[m] = None
            return m >= rip_min_m(M, K, delta, target_prob)
        if bound == "calderbank":
            witness[m] = None
            r = strip_calderbank(m, M, K, delta)
            return r.feasible and r.probability >= target_prob
        if bound == "tropp_strip":
            a = min(range(attempts), key=lambda a: pool.mu(a, m))
            witness[m] = (seed, a)
            mu = pool.mu(a, m)
            # the norm term only adds to the condition's left side, so a
            # probe that fails on mu alone needs no witness norm
            if not strip_tropp(mu, 0.0, M, K, delta, tropp_t).feasible:
                return False
            r = strip_tropp(mu, pool.norm_sq(a, m), M, K, delta, tropp_t)
            return r.feasible and r.probability >= target_prob
        for a in range(attempts):
            if passes(a, m):
                witness[m] = (seed, a)
                return True
        return False

    lo, hi = 0, 1
    while hi <= ceiling and not satisfied(hi):
        # double, but probe the ceiling itself before giving up
        lo, hi = hi, max(min(2 * hi, ceiling), hi + 1)
    if hi > ceiling:
        return SearchResult(
            bound, None, "ceiling", None, f"not satisfied by any m <= {ceiling}", params
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return SearchResult(bound, hi, "found", witness.get(hi), f"satisfied at m={hi}", params)


__all__ = [
    "BP_DELTA",
    "RIP_C",
    "SEARCH_BOUNDS",
    "CoherenceGuarantees",
    "ExripInputs",
    "GuaranteeResult",
    "SearchResult",
    "coherence_guarantees",
    "exrip_approx",
    "exrip_from_sign_matrix",
    "exrip_probability",
    "min_channels_search",
    "rip_min_m",
    "strip_calderbank",
    "strip_gan",
    "strip_tropp",
]
