"""LFSR sequences, Gold and Kasami families, Hadamard rows, and the
cyclic correlation helpers, checked against direct O(M^2) oracles and
the classical correlation value sets."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_cyclic_convolution, direct_cyclic_crosscorrelation
from mwclab import sequences as sq
from mwclab.signmatrix import FamilySpec, build_sign_matrix

DEGREES = range(3, 14)


def test_primitive_table_equals_the_recorded_one():
    # sha256 of the table that shipped as a generated module before it
    # was derived from the register's period test
    table = {n: sq.primitive_polys(n) for n in DEGREES}
    assert all(type(p) is int for polys in table.values() for p in polys)
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    assert digest == "a65fbc3d9bfb15633a545a85d88ea266aa64cfc186e5090865179354e8ee4a2d"


def _totient(x):
    out, p = x, 2
    while p * p <= x:
        if x % p == 0:
            while x % p == 0:
                x //= p
            out -= out // p
        p += 1
    if x > 1:
        out -= out // x
    return out


@pytest.mark.parametrize("n", DEGREES)
def test_primitive_count_is_totient_over_degree(n):
    # the primitive elements of GF(2**n) fall into classes of n conjugates
    polys = sq.primitive_polys(n)
    assert len(polys) == _totient(2**n - 1) // n
    assert list(polys) == sorted(set(polys))
    assert all(p.bit_length() == n + 1 and p & 1 for p in polys)


def _first_returns(polys, n):
    # one register step per iteration, vectorized over polys: the step at
    # which each register, from all ones, is first back at all ones (0 if
    # never); no n-step jumps, so it shares nothing with _run_registers
    M = (1 << n) - 1
    taps = np.array(polys, dtype=np.int64) & M
    state = np.full(len(taps), M, dtype=np.int64)
    period = np.zeros(len(taps), dtype=np.int64)
    for t in range(1, M + 1):
        fb = np.bitwise_count(state & taps).astype(np.int64) & 1
        state = (state >> 1) | (fb << (n - 1))
        period[(state == M) & (period == 0)] = t
    return period


@pytest.mark.parametrize("n", DEGREES)
def test_primitive_polys_are_the_candidates_of_full_register_period(n):
    # the register period as an oracle for the order test: every odd-weight
    # candidate with x**n and 1 present, kept iff its register first
    # returns to all ones after exactly 2**n - 1 steps
    cands = [p for p in range(1 << n, 1 << (n + 1)) if p & 1 and p.bit_count() & 1]
    period = _first_returns(cands, n)
    want = tuple(p for p, t in zip(cands, period.tolist()) if t == 2**n - 1)
    assert sq.primitive_polys(n) == want


@pytest.mark.parametrize("n", [2, 14, 0, -1])
def test_primitive_polys_rejects_degrees_outside_the_range(n):
    with pytest.raises(ValueError, match=f"register degree {n} outside 3..13"):
        sq.primitive_polys(n)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_gold_pairs_are_the_base_and_its_decimation_by_3(n):
    # the partner is the one primitive polynomial whose m-sequence is a
    # cyclic shift of the base m-sequence decimated by 3
    polys = sq.primitive_polys(n)
    M = 2**n - 1
    a = sq.lfsr_msequence(polys[0])
    dec = a[(3 * np.arange(M)) % M]
    rows = sq._lfsr_msequences(polys)
    partners = [p for p, b in zip(polys, rows) if sq.cyclic_crosscorrelation(b, dec).max() == M]
    assert sq.GOLD_PREFERRED_PAIRS[n] == (polys[0], *partners)


def test_import_runs_no_scan():
    code = (
        "import mwclab.signmatrix, mwclab.sequences as sq; "
        "assert sq._primitive_memo == {}, sq._primitive_memo"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_msequence_balance_and_period(n):
    M = 2**n - 1
    for poly in sq.primitive_polys(n):
        s = sq.lfsr_msequence(poly)
        assert s.shape == (M,)
        assert set(np.unique(s)) <= {-1, 1}
        assert int(s.sum()) == -1  # one extra -1: the all-zero state is missing
        assert sq.sequence_period(s) == M


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_msequence_offpeak_autocorrelation_is_minus_one(n):
    M = 2**n - 1
    for poly in sq.primitive_polys(n):
        s = sq.lfsr_msequence(poly)
        ac = sq.cyclic_crosscorrelation(s, s)
        assert ac[0] == M
        assert (ac[1:] == -1).all()


def test_msequence_rejects_non_primitive_poly():
    with pytest.raises(ValueError):
        sq.lfsr_msequence(0b1111)  # x^3+x^2+x+1 is reducible
    with pytest.raises(ValueError):
        sq.lfsr_msequence(0b11)  # degree below 3..13


def _scalar_run(poly):
    # output bits and first return to all ones of one register, step by step
    n = poly.bit_length() - 1
    M = (1 << n) - 1
    state, bits, period = M, [], 0
    for t in range(1, M + 1):
        bits.append(state & 1)
        fb = bin(state & poly & M).count("1") & 1
        state = (state >> 1) | (fb << (n - 1))
        if state == M and not period:
            period = t
    return bits, period


def _scalar_msequence(poly):
    bits, period = _scalar_run(poly)
    assert period == len(bits)
    return 1 - 2 * np.array(bits, dtype=np.int8)


@pytest.mark.parametrize("n", DEGREES)
def test_vector_lfsr_equals_scalar_register(n):
    polys = sq.primitive_polys(n)
    rows = sq._lfsr_msequences(polys)
    assert rows.dtype == np.int8 and rows.shape == (len(polys), 2**n - 1)
    for poly, row in zip(polys, rows):
        assert np.array_equal(row, _scalar_msequence(poly)), hex(poly)
    assert np.array_equal(sq.lfsr_msequence(polys[-1]), rows[-1])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_register_run_equals_scalar_steps_for_every_polynomial(n):
    # every degree-n polynomial, reducible and divisible by x included
    polys = list(range(1 << n, 1 << (n + 1)))
    bits = sq._run_registers(polys, n)
    assert bits.shape == (2**n - 1, len(polys))
    for i, poly in enumerate(polys):
        assert bits[:, i].tolist() == _scalar_run(poly)[0], hex(poly)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_msequence_raises_exactly_off_full_register_period(n):
    # the order test against the scalar register: a polynomial is
    # accepted iff its register first returns after 2**n - 1 steps
    for poly in range(1 << n, 1 << (n + 1)):
        if _scalar_run(poly)[1] == 2**n - 1:
            assert np.array_equal(sq.lfsr_msequence(poly), _scalar_msequence(poly))
        else:
            with pytest.raises(ValueError, match=f"0x{poly:x} is not a primitive"):
                sq.lfsr_msequence(poly)


def test_vector_lfsr_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        sq._lfsr_msequences([sq.primitive_polys(3)[0], sq.primitive_polys(5)[0]])


def test_non_primitive_poly_fails_the_period_check():
    # x^3+x^2+x+1 = (x+1)^3: the all-ones state is a fixed point, so the
    # register has period 1, not 7; in a list the first bad one is named
    msg = "0xf is not a primitive polynomial of degree 3"
    with pytest.raises(ValueError, match=msg):
        sq.lfsr_msequence(0b1111)
    with pytest.raises(ValueError, match=msg):
        sq._lfsr_msequences([0xb, 0xf, 0xd, 0x9])
    # x^4+x^3+x^2+x+1 divides x^5 - 1: irreducible, but x has order 5,
    # so its register returns after 5 steps, not 15
    assert _scalar_run(0x1F)[1] == 5
    with pytest.raises(ValueError, match="0x1f is not a primitive polynomial of degree 4"):
        sq.lfsr_msequence(0x1F)


@pytest.mark.parametrize("n", [5, 7])
def test_gold_family_exhaustive_three_valued(n):
    M = 2**n - 1
    t = sq.gold_t(n)
    allowed = {-1, -t, t - 2}
    fam = sq.gold_family(n, M + 2)
    assert fam.shape == (M + 2, M)
    F = np.fft.fft(np.array(fam, dtype=np.float64), axis=1)
    for i in range(len(fam)):
        prod = np.conj(F[i]) * F[i + 1 :]
        vals = np.rint(np.fft.ifft(prod, axis=1).real).astype(np.int64)
        assert set(np.unique(vals)) <= allowed, f"pair with base {i}"


def _spelled_out_gold(n):
    # the family as its definition reads: a, b, then a * T^i(b) by np.roll
    a, b = (sq.lfsr_msequence(p) for p in sq.GOLD_PREFERRED_PAIRS[n])
    return [a, b] + [a * np.roll(b, i) for i in range(len(a))]


@pytest.mark.parametrize("n", [5, 9, 11])
@pytest.mark.parametrize("m", [1, 2, 3, 160, "all"])
def test_gold_rows_are_the_first_rows_of_the_family(n, m):
    size = 2**n + 1
    m = size if m == "all" else m
    if m > size:
        with pytest.raises(ValueError, match=f"gold degree {n} has {size} rows, requested {m}"):
            sq.gold_family(n, m)
        return
    rows = sq.gold_family(n, m)
    assert rows.dtype == np.int8 and rows.shape == (m, 2**n - 1)
    assert np.array_equal(rows, sq.gold_family(n, size)[:m])
    assert np.array_equal(rows, np.array(_spelled_out_gold(n)[:m]))


@pytest.mark.parametrize("n", sorted(sq.GOLD_PREFERRED_PAIRS))
def test_gold_pairs_are_primitive_and_preferred(n):
    # the shipped table is trusted at run time, so every entry is pinned
    # here: the base is the first primitive polynomial, the partner is
    # primitive, and the two m-sequences cross-correlate in exactly the
    # three Gold values
    pa, pb = sq.GOLD_PREFERRED_PAIRS[n]
    polys = sq.primitive_polys(n)
    assert pa == polys[0] and pb in polys
    t = sq.gold_t(n)
    cc = sq.cyclic_crosscorrelation(sq.lfsr_msequence(pa), sq.lfsr_msequence(pb))
    assert set(np.unique(cc).tolist()) == {-1, -t, t - 2}


def _spelled_out_maximal(n):
    # every polynomial's sequence, then shift 1 of each, shift 2 of each, ...
    base = [sq.lfsr_msequence(p) for p in sq.primitive_polys(n)]
    return [np.roll(x, s) for s in range(2**n - 1) for x in base]


@pytest.mark.parametrize("n", [3, 5, 9])
def test_maximal_rows_are_the_first_rows_of_the_round_robin(n):
    full = np.array(_spelled_out_maximal(n))
    P = len(sq.primitive_polys(n))
    for m in {1, P - 1, P, P + 1, 3 * P + 2, len(full)}:
        rows = sq.maximal_family(n, m)
        assert rows.dtype == np.int8 and rows.shape == (m, 2**n - 1)
        assert np.array_equal(rows, full[:m]), m


@pytest.mark.parametrize("n", [4, 8, 12])
def test_kasami_rows_are_the_first_rows_of_the_family(n):
    # the family as its definition reads: a, then a * T^s(d) by np.roll
    M = 2**n - 1
    a = sq.lfsr_msequence(sq.primitive_polys(n)[0])
    d = a[((2 ** (n // 2) + 1) * np.arange(M)) % M]
    full = np.array([a] + [a * np.roll(d, s) for s in range(2 ** (n // 2) - 1)])
    for m in {1, 2, len(full)}:
        rows = sq.kasami_small_family(n, m)
        assert rows.dtype == np.int8 and rows.shape == (m, M)
        assert np.array_equal(rows, full[:m]), m


@pytest.mark.parametrize(
    "build, n, size, name",
    [
        (sq.maximal_family, 3, 14, "maximal family of degree 3"),
        (sq.gold_family, 5, 33, "gold degree 5"),
        (sq.kasami_small_family, 6, 8, "kasami degree 6"),
    ],
)
def test_builders_reject_row_counts_outside_the_family(build, n, size, name):
    assert build(n, size).shape[0] == size
    for m in (0, -1, size + 1):
        with pytest.raises(ValueError, match=f"{name} has {size} rows.*, requested {m}"):
            build(n, m)


def test_gold_t_values():
    assert sq.gold_t(5) == 9
    assert sq.gold_t(7) == 17
    assert sq.gold_t(9) == 33


def test_gold_rejects_bad_degree():
    with pytest.raises(ValueError):
        sq.gold_family(6, 1)
    with pytest.raises(ValueError):
        sq.gold_family(4, 1)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_kasami_family_exhaustive_three_valued(n):
    # every even degree the builder accepts: the builder trusts its
    # decimation, so a wrong one has to show here as a broken spectrum
    M = 2**n - 1
    half = 2 ** (n // 2)
    allowed = {-1, -(half + 1), half - 1}
    fam = sq.kasami_small_family(n, half)
    assert fam.shape == (half, M)
    F = np.fft.fft(fam.astype(np.float64), axis=1)
    for i in range(half):
        vals = np.rint(np.fft.ifft(np.conj(F[i]) * F, axis=1).real).astype(np.int64)
        assert vals[i, 0] == M
        vals[i, 0] = -1  # the in-phase autocorrelation, the one value outside
        assert set(np.unique(vals).tolist()) <= allowed, f"pairs with row {i}"


def test_kasami_rejects_odd_degree():
    with pytest.raises(ValueError):
        sq.kasami_small_family(5, 1)


def test_hadamard_family_orthogonal():
    H = sq.hadamard_family(16, 16)
    assert H.shape == (16, 16)
    assert set(np.unique(H)) == {-1, 1}
    assert (H[0] == 1).all()
    assert np.array_equal(H @ H.T, 16 * np.eye(16, dtype=np.int64))


@pytest.mark.parametrize("n", range(1, 11))
def test_hadamard_rows_are_walsh_functions(n):
    # pins the row order, which orthogonality alone does not
    M = 1 << n
    idx = np.arange(M)
    want = np.where(np.bitwise_count(idx[:, None] & idx[None, :]) & 1, -1, 1)
    H = sq.hadamard_family(M, M)
    assert H.dtype == np.int8
    assert np.array_equal(H, want)
    # fewer rows are the leading rows of the full matrix
    for m in {1, M // 2 + 1, M - 1}:
        assert np.array_equal(sq.hadamard_family(M, m), want[:m])


def test_hadamard_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        sq.hadamard_family(12, 4)


def test_hadamard_rejects_row_count_outside_one_to_M():
    with pytest.raises(ValueError):
        sq.hadamard_family(8, 9)
    with pytest.raises(ValueError):
        sq.hadamard_family(8, 0)


def test_cyclic_convolution_small_examples():
    assert np.array_equal(
        sq.cyclic_convolution(np.array([1, 1]), np.array([1, 1])), [2, 2]
    )
    assert np.array_equal(
        sq.cyclic_convolution(np.array([1, -1]), np.array([1, -1])), [2, -2]
    )
    assert np.array_equal(
        sq.cyclic_convolution(np.array([1, 1, -1]), np.array([1, 1, -1])), [-1, 3, -1]
    )


sign_vectors = st.integers(2, 24).flatmap(
    lambda M: st.tuples(
        st.lists(st.sampled_from([-1, 1]), min_size=M, max_size=M),
        st.lists(st.sampled_from([-1, 1]), min_size=M, max_size=M),
    )
)


@settings(max_examples=60, deadline=None)
@given(sign_vectors)
def test_cyclic_convolution_matches_direct(ab):
    a, b = np.array(ab[0]), np.array(ab[1])
    assert np.array_equal(sq.cyclic_convolution(a, b), direct_cyclic_convolution(a, b))


@settings(max_examples=60, deadline=None)
@given(sign_vectors)
def test_cyclic_crosscorrelation_matches_direct(ab):
    a, b = np.array(ab[0]), np.array(ab[1])
    assert np.array_equal(
        sq.cyclic_crosscorrelation(a, b), direct_cyclic_crosscorrelation(a, b)
    )


def test_crosscorrelation_random_pairs_integer_exact():
    rng = np.random.default_rng(7)
    for M in (7, 31, 63, 255):
        for _ in range(20):
            a = rng.integers(0, 2, M) * 2 - 1
            b = rng.integers(0, 2, M) * 2 - 1
            got = sq.cyclic_crosscorrelation(a, b)
            # spot-check three lags against the direct sum
            for lag in (0, 1, M // 2):
                want = sum(int(a[i]) * int(b[(i + lag) % M]) for i in range(M))
                assert got[lag] == want
