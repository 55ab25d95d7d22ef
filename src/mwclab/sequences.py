"""Binary +/-1 sequence families: m-sequences, Gold, Kasami, Hadamard.

A sequence here is a 1-d numpy int8 array with entries in {-1, +1},
viewed cyclically.  LFSR-derived families use a Fibonacci register
whose characteristic polynomial is encoded as an integer (bit i is the
coefficient of x**i); the register starts from the all-ones state and
bit b maps to the sign 1 - 2b, so 0 -> +1 and 1 -> -1.  Both are
conventions fixed for reproducibility: sign flips and phase shifts do
not change any correlation magnitude.
"""

import numpy as np

from .tables import GOLD_PREFERRED_PAIRS, MERSENNE_FACTORS, PRIMITIVE_POLYS


def _degree(poly: int) -> int:
    if poly <= 1:
        raise ValueError(f"not a polynomial of positive degree: {poly}")
    return poly.bit_length() - 1


def _check_primitive(poly: int) -> int:
    """Validate poly against the shipped table and return its degree."""
    n = _degree(poly)
    if n not in PRIMITIVE_POLYS:
        raise ValueError(
            f"degree {n} outside the shipped table (degrees "
            f"{min(PRIMITIVE_POLYS)}..{max(PRIMITIVE_POLYS)})"
        )
    if poly not in PRIMITIVE_POLYS[n]:
        raise ValueError(f"0x{poly:x} is not primitive over GF(2)")
    return n


def lfsr_msequence(poly: int) -> np.ndarray:
    """One full period of the maximal-length LFSR sequence of poly,
    from the all-ones register state.

    Args:
        poly: primitive polynomial, integer-encoded, degree n in 3..13.

    Returns:
        int8 array of length 2**n - 1 with entries in {-1, +1}.

    Raises:
        ValueError: poly is not in the primitive table, or the generated
            period is not exactly 2**n - 1 (a corrupted table).
    """
    return _lfsr_msequences([poly])[0]


def _lfsr_msequences(polys) -> np.ndarray:
    """lfsr_msequence of every poly in polys, all of one degree n, as
    the rows of one int8 array: the registers step together as one
    numpy vector, so a period costs 2**n - 1 vector steps, not one
    Python loop per polynomial."""
    (n,) = {_check_primitive(p) for p in polys}  # one degree, else ValueError
    M = (1 << n) - 1
    taps = np.array(polys, dtype=np.int32) & M
    # states[t] holds every register before step t
    states = np.empty((M + 1, len(taps)), dtype=np.int32)
    states[0] = M
    for t in range(M):
        fb = (np.bitwise_count(states[t] & taps) & 1).astype(np.int32)
        states[t + 1] = (states[t] >> 1) | (fb << (n - 1))
    for poly, hit in zip(polys, (states[1:] == M).T):
        period = int(hit.argmax()) + 1 if hit.any() else None
        if period != M:
            raise ValueError(f"0x{poly:x} has period {period}, expected {M}")
    return np.ascontiguousarray(1 - 2 * (states[:M].T & 1), dtype=np.int8)


def sequence_period(seq: np.ndarray) -> int:
    """Smallest cyclic period of seq (divides len(seq))."""
    M = len(seq)
    for p in range(1, M + 1):
        if M % p == 0 and np.array_equal(seq, np.roll(seq, p)):
            return p
    return M


def cyclic_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[l] = sum_n a[n] * b[(l - n) mod M], exact integer result.

    Computed by FFT; rounding to the nearest integer is exact because
    the true values are integers bounded by M * max|a| * max|b|, far
    above the transform's rounding error.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    fa = np.fft.fft(np.asarray(a, dtype=np.float64))
    fb = np.fft.fft(np.asarray(b, dtype=np.float64))
    return np.rint(np.fft.ifft(fa * fb).real).astype(np.int64)


def cyclic_crosscorrelation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[l] = sum_n a[n] * b[(n + l) mod M], exact integer result."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    fa = np.fft.fft(np.asarray(a, dtype=np.float64))
    fb = np.fft.fft(np.asarray(b, dtype=np.float64))
    return np.rint(np.fft.ifft(np.conj(fa) * fb).real).astype(np.int64)


def gold_t(n: int) -> int:
    """The t(n) = 2**((n+1)/2) + 1 bound of the odd-degree Gold spectrum."""
    return (1 << ((n + 1) // 2)) + 1


def gold_family(n: int) -> list[np.ndarray]:
    """All 2**n + 1 Gold sequences of odd degree n.

    The family is the two base m-sequences a, b followed by a * T^i(b)
    for every cyclic shift i = 0..M-1 (XOR in bit terms is the
    elementwise product in sign terms).  Every cross-correlation value
    between distinct members lies in {-1, -t(n), t(n) - 2}; the shipped
    pair is rejected if its spectrum violates that.

    Args:
        n: odd register length with a shipped pair (5, 7, 9 or 11).

    Returns:
        list of 2**n + 1 int8 arrays of length 2**n - 1, ordered
        [a, b, a*T^0(b), a*T^1(b), ...].
    """
    if n % 2 == 0 or n not in GOLD_PREFERRED_PAIRS:
        raise ValueError(
            f"gold families ship for odd n in {sorted(GOLD_PREFERRED_PAIRS)}, got n={n}"
        )
    pa, pb = GOLD_PREFERRED_PAIRS[n]
    if _check_primitive(pa) != n or _check_primitive(pb) != n:
        raise ValueError(f"pair (0x{pa:x}, 0x{pb:x}) is not two degree-{n} primitives")
    a, b = _lfsr_msequences([pa, pb])
    t = gold_t(n)
    cc = cyclic_crosscorrelation(a, b)
    allowed = {-1, -t, t - 2}
    bad = [v for v in np.unique(cc) if int(v) not in allowed]
    if bad:
        lag = int(np.nonzero(cc == bad[0])[0][0])
        raise ValueError(
            f"(0x{pa:x}, 0x{pb:x}) is not a preferred pair: "
            f"cross-correlation {int(bad[0])} at lag {lag}"
        )
    M = len(a)
    return [a, b] + [a * np.roll(b, i) for i in range(M)]


def kasami_small_family(n: int) -> list[np.ndarray]:
    """The small Kasami set: 2**(n/2) sequences of length 2**n - 1.

    Built from the first shipped primitive polynomial of even degree n:
    the base m-sequence a, then a * T^s(d) for every shift s of the
    decimation d[j] = a[(2**(n/2) + 1) * j mod M], which has period
    2**(n/2) - 1.
    """
    if n % 2 == 1:
        raise ValueError(f"kasami small set requires even n, got n={n}")
    if n < 4 or n not in PRIMITIVE_POLYS:
        raise ValueError(f"kasami small set requires even n in 4..12, got n={n}")
    a = lfsr_msequence(PRIMITIVE_POLYS[n][0])
    M = len(a)
    half = 1 << (n // 2)
    d = a[((half + 1) * np.arange(M)) % M]
    if sequence_period(d) != half - 1:
        raise ValueError(f"decimation period {sequence_period(d)} != {half - 1}")
    return [a] + [a * np.roll(d, s) for s in range(half - 1)]


def hadamard_family(M: int) -> list[np.ndarray]:
    """The M rows of the Sylvester Hadamard matrix, row 0 all ones.

    Row r is (-1)**popcount(r & j) over columns j, built in int8 by
    Sylvester doubling H <- [[H, H], [H, -H]].
    """
    if M < 2 or M & (M - 1):
        raise ValueError(f"M must be a power of two >= 2, got {M}")
    H = np.ones((1, 1), dtype=np.int8)
    while len(H) < M:
        H = np.block([[H, H], [H, -H]])
    return list(H)


__all__ = [
    "GOLD_PREFERRED_PAIRS",
    "MERSENNE_FACTORS",
    "PRIMITIVE_POLYS",
    "cyclic_convolution",
    "cyclic_crosscorrelation",
    "gold_family",
    "gold_t",
    "hadamard_family",
    "kasami_small_family",
    "lfsr_msequence",
    "sequence_period",
]
