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

and for K = 1 (both constants are 1).  The uniform kinds are exact too:
1/s^2 = int_0^inf t e^(-ts) dt turns C_K into one integral,

    C_K = K int_0^inf t E[|u|^4 e^(-t|u|^2)] phi(t)^(K-1) dt,   phi(t) = E[e^(-t|u|^2)],

whose inner expectations have erf closed forms.  complex_uniform has
B_K = C_K: its real and imaginary parts are independent and symmetric,
so E[u^2 e^(-t|u|^2)] = 0 and every cross term of |sum_i u_i^2|^2 vanishes.
"""

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("real_normal", "real_uniform", "complex_normal", "complex_uniform", "bernoulli_sign")

# trapezoid grid in s = ln t for the uniform kinds' C_K integral, whose
# integrand decays at least like e^(2s) below and e^(-Ks/2) above
_S_LO, _S_HI, _S_STEP = -25.0, 45.0, 0.05

# below this t the erf recurrences cancel and the power series is used;
# at t = 4 its last term is below 1e-18
_SERIES_MAX_T, _SERIES_TERMS = 4.0, 20


@dataclass(frozen=True)
class NonzeroDistribution:
    """A unit-scale value law; any scale would cancel in every ratio
    computed here.

    Uniform kinds draw from [-0.5, 0.5]; complex kinds draw the real and
    imaginary parts independently from the named base law.  kind may be
    spelled with hyphens, as the CLI and presets write it
    (complex-normal); the default kind is every command's value law.
    """

    kind: str = "complex_normal"

    def __post_init__(self):
        kind = self.kind.replace("-", "_")
        if kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        object.__setattr__(self, "kind", kind)

    @property
    def second_moment(self) -> float:
        """E|u|^2 of a single draw (noise scaling in experiments)."""
        return {
            "real_normal": 1.0,
            "real_uniform": 1 / 12,
            "complex_normal": 2.0,
            "complex_uniform": 1 / 6,
            "bernoulli_sign": 1.0,
        }[self.kind]


def sample_values(dist: NonzeroDistribution, shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. draws from dist; complex128 for complex kinds."""
    if dist.kind == "real_normal":
        return rng.standard_normal(shape)
    if dist.kind == "real_uniform":
        return rng.random(shape) - 0.5
    if dist.kind == "complex_normal":
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if dist.kind == "complex_uniform":
        return (rng.random(shape) - 0.5) + 1j * (rng.random(shape) - 0.5)
    return rng.integers(0, 2, shape) * 2.0 - 1.0


def _check_seed(seed: int) -> None:
    """Every seed lies in [0, 2**64): block_rng's seed is one 64-bit key
    word, which a wider seed would alias, and default_rng's message on a
    negative one names no seed."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based stream for (seed, block): parallel-safe, exact replay."""
    _check_seed(seed)
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MomentConstants:
    B_K: float
    C_K: float
    K: int
    # no constant is sampled, so this is always None; it stays while
    # perfbench/tracer.py reads `samples` off every result
    samples: int | None = None


def moment_constants(dist: NonzeroDistribution, K: int) -> MomentConstants:
    """B_K and C_K for K nonzeros drawn from dist, exact for every kind."""
    if K < 1:
        raise ValueError(f"K must be positive, got {K}")
    if K == 1:
        return MomentConstants(1.0, 1.0, K)
    if dist.kind == "real_normal":
        return MomentConstants(1.0, 3.0 * K / (2 * K + K * K), K)
    if dist.kind == "complex_normal":
        return MomentConstants(2.0 / (K + 1), 2.0 / (K + 1), K)
    if dist.kind == "bernoulli_sign":
        return MomentConstants(1.0, 1.0 / K, K)
    if dist.kind == "real_uniform":
        # phi and E[x^4 e^(-t x^2)] are the first and last of _uniform_moments
        return MomentConstants(1.0, _quadrature_c(K, lambda t: _uniform_moments(t)[::2]), K)
    c = _quadrature_c(K, _complex_uniform_transforms)
    return MomentConstants(c, c, K)


def _quadrature_c(K: int, transforms) -> float:
    """The module docstring's integral for C_K, given transforms(t) =
    (phi(t), E[|u|^4 e^(-t|u|^2)]), by the trapezoid rule in s = ln t.
    It is elementwise numpy and one fixed-order sum, with no BLAS."""
    t = np.exp(_S_LO + _S_STEP * np.arange(round((_S_HI - _S_LO) / _S_STEP) + 1))
    phi, q = transforms(t)
    return K * _S_STEP * float((t * t * q * phi ** (K - 1)).sum())


def _uniform_moments(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E[x^2j e^(-t x^2)] for j = 0, 1, 2 and x ~ U[-1/2, 1/2].

    Large t: a0 = sqrt(pi/t) erf(sqrt(t)/2) and, integrating by parts,
    a2 = (a0 - e^(-t/4)) / 2t, a4 = (3 a2 - e^(-t/4)/4) / 2t.  Small t:
    the series sum_n (-t)^n / (n! 4^(n+j) (2n+2j+1)), by Horner.
    """
    small = t < _SERIES_MAX_T
    ts, tl = t[small], t[~small]
    r, e = np.sqrt(tl), np.exp(-tl / 4)
    a0 = math.sqrt(math.pi) / r * np.array([math.erf(v) for v in r / 2])
    a2 = (a0 - e) / (2 * tl)
    moments = []
    for j, large in enumerate((a0, a2, (3 * a2 - e / 4) / (2 * tl))):
        series = np.zeros_like(ts)
        for n in reversed(range(_SERIES_TERMS)):
            coef = (-1) ** n / (math.factorial(n) * 4.0 ** (n + j) * (2 * n + 2 * j + 1))
            series = series * ts + coef
        a = np.empty_like(t)
        a[small], a[~small] = series, large
        moments.append(a)
    return tuple(moments)


def _complex_uniform_transforms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|u|^2 = x^2 + y^2 with x, y independent: phi = a0^2 and
    E[(x^2 + y^2)^2 e^(-t|u|^2)] = 2 a4 a0 + 2 a2^2."""
    a0, a2, a4 = _uniform_moments(t)
    return a0 * a0, 2 * a4 * a0 + 2 * a2 * a2


__all__ = [
    "KINDS",
    "MomentConstants",
    "NonzeroDistribution",
    "block_rng",
    "moment_constants",
    "sample_values",
]
