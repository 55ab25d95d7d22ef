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

Each structured family has one builder that takes the row count m and
returns exactly the family's first m rows as one m x M int8 array:
maximal_family(n, m), gold_family(n, m), kasami_small_family(n, m) and
hadamard_family(M, m).  Every cyclically shifted row comes from one
gather of windows of the doubled sequences.  The Gold preferred pairs
and the Kasami decimation are fixed properties of the two families
(Sarwate and Pursley, Proc. IEEE 68(5), 1980); the tests pin them for
every shipped degree, and no build re-checks them.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# register degrees accepted anywhere; the cap bounds one run at 2**13 - 1 steps
_DEGREES = range(3, 14)

# (base, partner) per odd degree: the base is primitive_polys(n)[0] and
# the partner generates the decimation-by-3 orbit of its m-sequence,
# which makes the pair preferred (3-valued cross-correlation); the
# tests pin both facts for every entry
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


def _shifted(seqs: np.ndarray, rows, shifts) -> np.ndarray:
    """np.roll(seqs[r], s) for every pair r, s of rows and shifts
    (broadcast together, each s in 0..M-1) as one int8 array: T^s(x) is
    the window of the doubled x that starts at M - s, so one gather
    builds every shifted row of a family."""
    M = seqs.shape[1]
    windows = sliding_window_view(np.concatenate((seqs, seqs), axis=1), M, axis=1)
    return windows[rows, M - shifts]


def maximal_family(n: int, m: int) -> np.ndarray:
    """The first m rows of the maximal family of degree n as an
    m x (2**n - 1) int8 array: one m-sequence per primitive polynomial
    in ascending order, then their cyclic shifts round-robin (shift 1 of
    each, shift 2 of each, ...), so row r is T^(r // P) of sequence
    r % P for P polynomials.

    Raises:
        ValueError: n outside 3..13, or m outside 1..P * (2**n - 1).
    """
    polys = primitive_polys(n)
    M = (1 << n) - 1
    if not 1 <= m <= len(polys) * M:
        raise ValueError(
            f"maximal family of degree {n} has {len(polys) * M} rows "
            f"({len(polys)} polynomials x {M} shifts), requested {m}"
        )
    r = np.arange(m)
    return _shifted(_lfsr_msequences(polys[:m]), r % len(polys), r // len(polys))


def gold_family(n: int, m: int) -> np.ndarray:
    """The first m of the 2**n + 1 Gold sequences of odd degree n as an
    m x (2**n - 1) int8 array.

    The family is the two base m-sequences a, b of the shipped preferred
    pair followed by a * T^i(b) for every cyclic shift i = 0..M-1 (XOR
    in bit terms is the elementwise product in sign terms).  Every
    cross-correlation value between distinct members lies in
    {-1, -t(n), t(n) - 2}; the tests pin that spectrum for every shipped
    pair, so no build re-checks it.

    Raises:
        ValueError: n without a shipped pair (5, 7, 9 and 11 ship), or m
            outside 1..2**n + 1.
    """
    if n not in GOLD_PREFERRED_PAIRS:
        raise ValueError(
            f"gold families ship for odd n in {sorted(GOLD_PREFERRED_PAIRS)}, got n={n}"
        )
    if not 1 <= m <= (1 << n) + 1:
        raise ValueError(f"gold degree {n} has {(1 << n) + 1} rows, requested {m}")
    ab = _lfsr_msequences(GOLD_PREFERRED_PAIRS[n])
    return np.concatenate((ab[:m], ab[0] * _shifted(ab[1:], 0, np.arange(m - 2))))


def kasami_small_family(n: int, m: int) -> np.ndarray:
    """The first m of the 2**(n/2) small-set Kasami sequences of even
    degree n as an m x (2**n - 1) int8 array.

    Built from primitive_polys(n)[0]: the base m-sequence a, then
    a * T^s(d) for every shift s of the decimation
    d[j] = a[(2**(n/2) + 1) * j mod M], which has period 2**(n/2) - 1;
    the tests pin the family's three-valued spectrum for every even
    degree, so no build re-checks the decimation.

    Raises:
        ValueError: n not even in 4..12, or m outside 1..2**(n/2).
    """
    if n % 2 == 1 or not 4 <= n <= 12:
        raise ValueError(f"kasami small set requires even n in 4..12, got n={n}")
    half = 1 << (n // 2)
    if not 1 <= m <= half:
        raise ValueError(f"kasami degree {n} has {half} rows, requested {m}")
    a = lfsr_msequence(primitive_polys(n)[0])
    M = len(a)
    d = a[((half + 1) * np.arange(M)) % M]
    return np.concatenate((a[None], a * _shifted(d[None], 0, np.arange(m - 1))))


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
    index = np.min_scalar_type(M - 1)  # uint16 at M = 8192, not int64
    parity = np.bitwise_count(np.arange(m, dtype=index)[:, None] & np.arange(M, dtype=index)) & 1
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
    "maximal_family",
    "primitive_polys",
    "sequence_period",
]
