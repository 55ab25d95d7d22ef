"""Binary +/-1 sequence families: m-sequences, Gold, Kasami, Hadamard.

A sequence here is a 1-d numpy int8 array with entries in {-1, +1},
viewed cyclically.  LFSR-derived families use a Fibonacci register
whose characteristic polynomial is encoded as an integer (bit i is the
coefficient of x**i, so x**3 + x + 1 is 0b1011 = 0xb); the register
starts from the all-ones state and bit b maps to the sign 1 - 2b, so
0 -> +1 and 1 -> -1.  Both are conventions fixed for reproducibility:
sign flips and phase shifts do not change any correlation magnitude.

No polynomial table ships.  primitive_polys(n) finds the primitive
polynomials of degree n by the order of x: p is primitive iff x has
multiplicative order exactly 2**n - 1 modulo p (Lidl and Niederreiter,
Finite Fields, Thm 3.16), a few carry-less squarings per candidate.
That test is the only check of primitivity: lfsr_msequence runs a
register only for a polynomial that primitive_polys returns.
"""

import numpy as np

# register degrees accepted anywhere; the cap bounds one run at 2**13 - 1 steps
_DEGREES = range(3, 14)

# (base, partner) per odd degree: the base is primitive_polys(n)[0] and
# the partner generates the decimation-by-3 orbit of its m-sequence,
# which makes the pair preferred (3-valued cross-correlation);
# gold_family checks that spectrum on every call
GOLD_PREFERRED_PAIRS = {
    5: (0x25, 0x3d),
    7: (0x83, 0xab),
    9: (0x211, 0x259),
    11: (0x805, 0x925),
}


def _check_degree(n: int) -> int:
    if n not in _DEGREES:
        raise ValueError(f"register degree {n} outside {_DEGREES[0]}..{_DEGREES[-1]}")
    return n


def _degree(poly: int) -> int:
    if poly <= 1:
        raise ValueError(f"not a polynomial of positive degree: {poly}")
    return _check_degree(poly.bit_length() - 1)


def _run_registers(polys, n: int) -> np.ndarray:
    """Step one degree-n register per poly together, from the all-ones
    state, for 2**n - 1 steps.

    A state holds the register's next n output bits (bit i comes out i
    steps ahead), so the loop moves n steps at a time: it emits the
    state's bits, and the state n steps on is the XOR of jump[i] over
    the set bits i, where jump[i] is the unit state 1 << i after n
    single steps.

    Returns bits: bits[t] is every register's output bit at step t, a
    (2**n - 1) x len(polys) int8 array.
    """
    M = (1 << n) - 1
    taps = np.array(polys, dtype=np.int32) & M
    rows = np.arange(n, dtype=np.int32)[:, None]
    jump = (1 << rows) + np.zeros_like(taps)
    for _ in range(n):  # one step: the feedback is the parity of the tapped bits
        fb = (np.bitwise_count(jump & taps) & 1).astype(np.int32)
        jump = (jump >> 1) | (fb << (n - 1))
    bits = np.empty((-(-M // n) * n, len(taps)), dtype=np.int8)
    state = np.full(len(taps), M, dtype=np.int32)
    for t in range(0, M, n):
        b = (state >> rows) & 1
        bits[t : t + n] = b
        state = np.bitwise_xor.reduce(jump * b, axis=0)
    return bits[:M]


def _mulmod(a: np.ndarray, b: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """a * b mod p over GF(2), elementwise over int64 arrays of
    polynomials (bit i the coefficient of x**i) with a, b of degree
    below n and every p of degree n: shift and add from b's top bit,
    reducing after each shift."""
    r = np.zeros_like(p)
    for i in range(n - 1, -1, -1):
        r <<= 1
        r ^= -((r >> n) & 1) & p
        r ^= -((b >> i) & 1) & a
    return r


_primitive_memo: dict[int, tuple[int, ...]] = {}


def primitive_polys(n: int) -> tuple[int, ...]:
    """Every primitive polynomial over GF(2) of degree n, ascending.

    The candidates are the odd-weight polynomials with x**n and 1
    present (an even weight is divisible by x + 1).  Each is kept iff x
    has order exactly N = 2**n - 1 modulo it, tested on all candidates
    at once: n squarings give x**(2**i) mod p for i = 0..n, the
    candidates with x**(2**n) = x stay, and then every prime q | N must
    have x**(N/q) != 1, each power a product of the squarings.

    Why that is primitivity: p(0) = 1, so x is a unit of
    R = GF(2)[x]/(p), and x**(2**n) = x makes its order divide N.  If
    the order is exactly N, R, which has 2**n elements, has at least N
    units, so every nonzero element is a unit: R is a field, p is
    irreducible, and its root x generates the multiplicative group.
    Conversely a primitive p has a root of order N.  Each degree is
    tested on its first call and kept for the process.

    Raises:
        ValueError: n outside 3..13.
    """
    if n not in _primitive_memo:
        _check_degree(n)
        c = np.arange(1 << (n - 1))
        p = (1 << n) | (c << 1) | 1
        p = p[np.bitwise_count(p) & 1 == 1]
        powers = [np.full_like(p, 2)]  # x**(2**i) mod p
        for _ in range(n):
            powers.append(_mulmod(powers[-1], powers[-1], p, n))
        keep = powers[n] == 2
        N = (1 << n) - 1
        for q in range(2, N + 1):
            if N % q or not all(q % d for d in range(2, q)):
                continue  # q is not a prime factor of N
            e = N // q
            xe = np.ones_like(p)
            for i in range(n):
                if e >> i & 1:
                    xe = _mulmod(xe, powers[i], p, n)
            keep &= xe != 1
        _primitive_memo[n] = tuple(int(v) for v in p[keep])
    return _primitive_memo[n]


def lfsr_msequence(poly: int) -> np.ndarray:
    """One full period of the maximal-length LFSR sequence of poly,
    from the all-ones register state.

    Args:
        poly: primitive polynomial, integer-encoded, degree n in 3..13.

    Returns:
        int8 array of length 2**n - 1 with entries in {-1, +1}.

    Raises:
        ValueError: the degree is outside 3..13, or poly is not one of
            primitive_polys(n) (x does not have order 2**n - 1 mod poly).
    """
    return _lfsr_msequences([poly])[0]


def _lfsr_msequences(polys) -> np.ndarray:
    """lfsr_msequence of every poly in polys, all of one degree n, as
    the rows of one int8 array: the registers step together, n steps
    per vector operation, not one Python loop per polynomial.  Every
    poly must be primitive, else ValueError names the first that is not."""
    (n,) = {_degree(p) for p in polys}  # one degree, else ValueError
    primitive = set(primitive_polys(n))
    for poly in polys:
        if poly not in primitive:
            raise ValueError(f"0x{poly:x} is not a primitive polynomial of degree {n}")
    return np.ascontiguousarray(1 - 2 * _run_registers(polys, n).T)


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
    """c[l] = sum_n a[n] * b[(n + l) mod M], exact integer result: the
    cyclic convolution of a[-n mod M] with b."""
    a = np.asarray(a)
    return cyclic_convolution(a[(-np.arange(len(a))) % len(a)], b)


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
    return list(_gold_rows(n, (1 << n) + 1))


def _gold_rows(n: int, m: int) -> np.ndarray:
    """The first m rows of gold_family(n) as an m x (2**n - 1) int8
    array, building only those rows; the pair's spectrum is checked on
    every call."""
    if n % 2 == 0 or n not in GOLD_PREFERRED_PAIRS:
        raise ValueError(
            f"gold families ship for odd n in {sorted(GOLD_PREFERRED_PAIRS)}, got n={n}"
        )
    if m > (1 << n) + 1:
        raise ValueError(f"gold degree {n} has {(1 << n) + 1} rows, requested {m}")
    pa, pb = GOLD_PREFERRED_PAIRS[n]
    if _degree(pa) != n or _degree(pb) != n:
        raise ValueError(f"pair (0x{pa:x}, 0x{pb:x}) is not of degree {n}")
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
    rows = np.empty((m, M), dtype=np.int8)
    rows[:2] = (a, b)[:m]
    bb = np.concatenate((b, b))
    for i in range(m - 2):  # T^i(b) = np.roll(b, i) = bb[M - i : 2M - i]
        np.multiply(a, bb[M - i : 2 * M - i], out=rows[2 + i])
    return rows


def kasami_small_family(n: int) -> list[np.ndarray]:
    """The small Kasami set: 2**(n/2) sequences of length 2**n - 1.

    Built from primitive_polys(n)[0], the first primitive polynomial of
    even degree n: the base m-sequence a, then a * T^s(d) for every
    shift s of the decimation d[j] = a[(2**(n/2) + 1) * j mod M], which
    has period 2**(n/2) - 1.
    """
    if n % 2 == 1 or not 4 <= n <= 12:
        raise ValueError(f"kasami small set requires even n in 4..12, got n={n}")
    a = lfsr_msequence(primitive_polys(n)[0])
    M = len(a)
    half = 1 << (n // 2)
    d = a[((half + 1) * np.arange(M)) % M]
    if sequence_period(d) != half - 1:
        raise ValueError(f"decimation period {sequence_period(d)} != {half - 1}")
    return [a] + [a * np.roll(d, s) for s in range(half - 1)]


def hadamard_family(M: int, m: int) -> np.ndarray:
    """Rows 0..m-1 of the M x M Sylvester Hadamard matrix, row 0 all
    ones, as an m x M int8 array.

    Row r is (-1)**popcount(r & j) over columns j, built directly, so
    the M x M matrix never exists.
    """
    if M < 2 or M & (M - 1):
        raise ValueError(f"M must be a power of two >= 2, got {M}")
    if not 1 <= m <= M:
        raise ValueError(f"the Hadamard matrix of size {M} has {M} rows, requested {m}")
    parity = np.bitwise_count(np.arange(m)[:, None] & np.arange(M)) & 1
    return 1 - 2 * parity.astype(np.int8)


__all__ = [
    "GOLD_PREFERRED_PAIRS",
    "cyclic_convolution",
    "cyclic_crosscorrelation",
    "gold_family",
    "gold_t",
    "hadamard_family",
    "kasami_small_family",
    "lfsr_msequence",
    "primitive_polys",
    "sequence_period",
]
