"""Symmetric nonzero-value distributions and their moment constants.

The two constants feeding the exact recovery-probability bound are

    C_K = E[ sum_i |u_i|^4 / ||u||^4 ]
    B_K = E[ |sum_i u_i^2|^2 / ||u||^4 ]

over K i.i.d. draws u_i.  For any real-valued kind sum_i u_i^2 equals
||u||^2, so B_K = 1 identically.  Closed forms exist for

  real_normal      C_K = 3K / (2K + K^2)   (chi-square fourth moment)
  complex_normal   B_K = C_K = 2 / (K + 1) (|u_i|^2/||u||^2 is
                   Dirichlet(1,...,1) and the phases are uniform and
                   independent of the radii)
  bernoulli_sign   C_K = 1 / K             (every |u_i| is equal)

and for K = 1 (both constants are 1).  Only complex_uniform and
real_uniform are estimated by Monte Carlo, and each estimate is
memoized per (law, K, samples, seed), so every caller in one process
shares a single run.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

KINDS = ("real_normal", "real_uniform", "complex_normal", "complex_uniform", "bernoulli_sign")

_MIN_MC_SAMPLES = 10**5

# kinds with closed-form constants at every K
_CLOSED_KINDS = ("real_normal", "complex_normal", "bernoulli_sign")


@dataclass(frozen=True)
class NonzeroDistribution:
    """kind plus a scale; the scale cancels in every ratio computed here.

    Uniform kinds draw from [-0.5, 0.5] * scale; complex kinds draw the
    real and imaginary parts independently from the named base law.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def is_complex(self) -> bool:
        return self.kind.startswith("complex")

    @property
    def second_moment(self) -> float:
        """E|u|^2 of a single draw (noise scaling in experiments)."""
        s2 = self.scale**2
        return {
            "real_normal": s2,
            "real_uniform": s2 / 12,
            "complex_normal": 2 * s2,
            "complex_uniform": s2 / 6,
            "bernoulli_sign": s2,
        }[self.kind]


def sample_values(dist: NonzeroDistribution, shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. draws from dist; complex128 for complex kinds."""
    s = dist.scale
    if dist.kind == "real_normal":
        return rng.standard_normal(shape) * s
    if dist.kind == "real_uniform":
        return (rng.random(shape) - 0.5) * s
    if dist.kind == "complex_normal":
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * s
    if dist.kind == "complex_uniform":
        return ((rng.random(shape) - 0.5) + 1j * (rng.random(shape) - 0.5)) * s
    return (rng.integers(0, 2, shape) * 2.0 - 1.0) * s


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based stream for (seed, block): parallel-safe, exact replay."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MomentConstants:
    B_K: float
    C_K: float
    K: int
    source: str  # "closed_form" or "monte_carlo"
    samples: int | None = None
    stderr_B: float | None = None
    stderr_C: float | None = None
    cov_BC: float | None = None  # covariance of the two estimates


def moment_constants(
    dist: NonzeroDistribution,
    K: int,
    method: str = "auto",
    samples: int = 10**6,
    seed: int = 0,
) -> MomentConstants:
    """B_K and C_K for K nonzeros drawn from dist.

    method "closed_form" is valid for real_normal, complex_normal,
    bernoulli_sign and any kind at K = 1; "monte_carlo" needs
    samples >= 1e5 and averages over per-block counter-derived streams
    so the estimate does not depend on how the blocks are scheduled;
    "auto" picks the closed form when one exists.  samples and seed
    matter only to the Monte Carlo.
    """
    if K < 1:
        raise ValueError(f"K must be positive, got {K}")
    closed = K == 1 or dist.kind in _CLOSED_KINDS
    if method == "auto":
        method = "closed_form" if closed else "monte_carlo"
    if method == "closed_form":
        if not closed:
            raise ValueError(f"no closed form for kind {dist.kind!r} at K={K}")
        if K == 1:
            return MomentConstants(1.0, 1.0, K, "closed_form")
        if dist.kind == "real_normal":
            return MomentConstants(1.0, 3.0 * K / (2 * K + K * K), K, "closed_form")
        if dist.kind == "complex_normal":
            return MomentConstants(2.0 / (K + 1), 2.0 / (K + 1), K, "closed_form")
        return MomentConstants(1.0, 1.0 / K, K, "closed_form")
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    if samples < _MIN_MC_SAMPLES:
        raise ValueError(f"monte_carlo needs at least {_MIN_MC_SAMPLES} samples, got {samples}")
    return _monte_carlo(dist, K, samples, seed)


@functools.lru_cache(maxsize=256)
def _monte_carlo(dist: NonzeroDistribution, K: int, samples: int, seed: int) -> MomentConstants:
    """Seeded estimate of B_K and C_K with their standard errors and
    covariance; memoized, and the result is frozen, so sharing is safe."""
    block = 1 << 14
    sum_b = sum_b2 = sum_c = sum_c2 = sum_bc = 0.0
    done = 0
    idx = 0
    while done < samples:
        take = min(block, samples - done)
        rng = block_rng(seed, idx)
        u = sample_values(dist, (take, K), rng)
        nrm2 = (np.abs(u) ** 2).sum(axis=1)
        c = (np.abs(u) ** 4).sum(axis=1) / nrm2**2
        b = np.abs((u**2).sum(axis=1)) ** 2 / nrm2**2
        sum_b += float(b.sum())
        sum_b2 += float((b * b).sum())
        sum_c += float(c.sum())
        sum_c2 += float((c * c).sum())
        sum_bc += float((b * c).sum())
        done += take
        idx += 1
    mean_b = sum_b / samples
    mean_c = sum_c / samples
    var_b = max(0.0, sum_b2 / samples - mean_b**2)
    var_c = max(0.0, sum_c2 / samples - mean_c**2)
    cov_bc = sum_bc / samples - mean_b * mean_c
    return MomentConstants(
        mean_b,
        mean_c,
        K,
        "monte_carlo",
        samples=samples,
        stderr_B=math.sqrt(var_b / samples),
        stderr_C=math.sqrt(var_c / samples),
        cov_BC=cov_bc / samples,
    )


__all__ = [
    "KINDS",
    "MomentConstants",
    "NonzeroDistribution",
    "block_rng",
    "moment_constants",
    "sample_values",
]
