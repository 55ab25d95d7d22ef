"""Recovery guarantees for the scaled sensing matrix.

Implements the expectation-over-supports isometry bound (exrip) driven
by the sign-pattern quality measures, its 1 - 1/(m delta^2)
approximation, and the competing guarantees it is benchmarked against:
coherence conditions (Donoho-Elad, Tropp, Candes-Plan), the
sample-count bound for subgaussian RIP, and the statistical RIP bounds
of Calderbank, Gan and Tropp.  A doubling-plus-bisection search finds
the smallest channel count at which a chosen guarantee kicks in,
mirroring the best-of-N instance protocol used for the published
channel budgets.
"""

import functools
import math
from dataclasses import dataclass, field

from .distributions import MomentConstants, NonzeroDistribution, moment_constants
from .sensing import (
    _block_gram,
    _coherence,
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


def _stream_gram(key, m: int, M: int):
    """S^T S of _random_signs(key, m, M), accumulated over the row blocks
    of the sign stream: the same T, bit for bit, with no m x M matrix."""
    return _block_gram(((B, B) for B in _sign_blocks(key, m, M)), M)


def _witness_norm_sq(key, m: int, M: int) -> float:
    """spectral_norm_sq of the witness drawn for key, from the same Gram:
    S^T S streamed when the witness is tall, S S^T of its rows otherwise."""
    if m > M:
        return _top_eigenvalue(_stream_gram(key, m, M)) / m
    return spectral_norm_sq(_random_signs(key, m, M))


@functools.lru_cache(maxsize=1024)
def _best_random_instance(M: int, m: int, attempts: int, seed: int):
    """Lowest-coherence random instance out of `attempts`; returns
    (mu, witness key).

    Each candidate takes the coherence route of its shape (_coherence):
    a tall one is scored from its Gram S^T S alone, accumulated over the
    row blocks of the sign stream (_stream_gram), so no m x M candidate
    ever exists; a wide one is drawn in full and scored from blocks of
    the conjugate-symmetric quarter of Phi^H Phi.  Either way the mu is
    the one coherence gives for the materialized draw, bit for bit.  The
    coherence and statistical searches probe the same candidate m
    values, so results are cached per argument tuple.  The cache keeps
    no matrix or Gram; the key regenerates the witness where a bound
    needs more than mu.
    """
    best_mu = math.inf
    best_key = None
    for a in range(attempts):
        key = (seed, m, a)
        mu, _ = _coherence(
            m,
            M,
            lambda: _stream_gram(key, m, M),
            lambda: _row_spectrum(_random_signs(key, m, M)),
        )
        if mu < best_mu:
            best_mu = mu
            best_key = key
    return best_mu, best_key


def min_channels_search(
    bound: str,
    M: int,
    K: int,
    delta: float = BP_DELTA,
    dist: NonzeroDistribution | None = None,
    attempts: int = 100,
    seed: int = 0,
    ceiling: int = 1 << 15,
) -> SearchResult:
    """Smallest m at which `bound` guarantees the target, by doubling
    then bisection.

    Coherence and statistical bounds are instance-dependent: each
    candidate m draws `attempts` random sign matrices and keeps the
    best one (lowest coherence, or highest probability for exrip).
    The target probability and Tropp's t follow _search_policy;
    params["target_prob"] reports the target.  The witness seed
    replays the instance that satisfied the bound at the returned m.
    candes_plan needs an unspecified constant and is reported as never
    satisfied.
    """
    if bound not in SEARCH_BOUNDS:
        raise ValueError(f"unknown bound {bound!r}, expected one of {SEARCH_BOUNDS}")
    if attempts < 1:
        raise ValueError(f"attempts must be positive, got {attempts}")
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
        if dist is None:
            raise ValueError("exrip search needs a distribution")
        constants = moment_constants(dist, K)

    witness: dict[int, tuple[int, ...] | None] = {}

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
        if bound == "exrip":
            best = -math.inf
            for a in range(attempts):
                key = (seed, m, a)
                S = SignMatrix(_random_signs(key, m, M), "random", key)
                p = exrip_from_sign_matrix(S, delta, constants).probability
                if p > best:
                    best = p
                    witness[m] = key
            return best >= target_prob
        mu, key = _best_random_instance(M, m, attempts, seed)
        witness[m] = key
        if bound == "donoho_elad":
            return mu > 0 and math.floor(0.5 * (1.0 + 1.0 / mu)) >= K
        if bound == "tropp_coherence":
            return mu > 0 and math.floor(1.0 / (3.0 * mu)) >= K
        if bound == "gan":
            r = strip_gan(mu, M, K, delta)
            return r.feasible and r.probability >= target_prob
        # tropp_strip: the norm term only adds to the condition's left
        # side, so a probe that fails on mu alone needs no witness norm
        if not strip_tropp(mu, 0.0, M, K, delta, tropp_t).feasible:
            return False
        snorm = _witness_norm_sq(key, m, M)
        r = strip_tropp(mu, snorm, M, K, delta, tropp_t)
        return r.feasible and r.probability >= target_prob

    lo, hi = 0, 1
    while hi <= ceiling and not satisfied(hi):
        lo, hi = hi, hi * 2
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
