"""LFSR sequences, Gold and Kasami families, Hadamard rows, and the
cyclic correlation helpers, checked against direct O(M^2) oracles and
the classical correlation value sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_cyclic_convolution, direct_cyclic_crosscorrelation
from mwclab import sequences as sq
from mwclab.signmatrix import FamilySpec, build_sign_matrix
from mwclab.tables import GOLD_PREFERRED_PAIRS, PRIMITIVE_POLYS


def all_polys(n):
    return PRIMITIVE_POLYS[n]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_msequence_balance_and_period(n):
    M = 2**n - 1
    for poly in all_polys(n):
        s = sq.lfsr_msequence(poly)
        assert s.shape == (M,)
        assert set(np.unique(s)) <= {-1, 1}
        assert int(s.sum()) == -1  # one extra -1: the all-zero state is missing
        assert sq.sequence_period(s) == M


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_msequence_offpeak_autocorrelation_is_minus_one(n):
    M = 2**n - 1
    for poly in all_polys(n):
        s = sq.lfsr_msequence(poly)
        ac = sq.cyclic_crosscorrelation(s, s)
        assert ac[0] == M
        assert (ac[1:] == -1).all()


def test_msequence_rejects_non_primitive_poly():
    with pytest.raises(ValueError):
        sq.lfsr_msequence(0b1111)  # x^3+x^2+x+1 is reducible
    with pytest.raises(ValueError):
        sq.lfsr_msequence(0b11)  # degree below the table range


def _scalar_msequence(poly):
    # one Fibonacci register stepped bit by bit from the all-ones state
    n = poly.bit_length() - 1
    M = (1 << n) - 1
    state, out = M, []
    for _ in range(M):
        out.append(1 - 2 * (state & 1))
        fb = bin(state & poly & M).count("1") & 1
        state = (state >> 1) | (fb << (n - 1))
    assert state == M
    return np.array(out, dtype=np.int8)


@pytest.mark.parametrize("n", sorted(PRIMITIVE_POLYS))
def test_vector_lfsr_equals_scalar_register(n):
    polys = PRIMITIVE_POLYS[n]
    rows = sq._lfsr_msequences(polys)
    assert rows.dtype == np.int8 and rows.shape == (len(polys), 2**n - 1)
    for poly, row in zip(polys, rows):
        assert np.array_equal(row, _scalar_msequence(poly)), hex(poly)
    assert np.array_equal(sq.lfsr_msequence(polys[-1]), rows[-1])


def test_vector_lfsr_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        sq._lfsr_msequences([PRIMITIVE_POLYS[3][0], PRIMITIVE_POLYS[5][0]])


def test_corrupted_table_fails_the_period_check(monkeypatch):
    # x^3+x^2+x+1 = (x+1)^3 slipped into the table: the all-ones state
    # is a fixed point, so the register has period 1, not 7
    monkeypatch.setitem(sq.PRIMITIVE_POLYS, 3, [*PRIMITIVE_POLYS[3], 0b1111])
    with pytest.raises(ValueError, match="0xf has period 1, expected 7"):
        sq.lfsr_msequence(0b1111)
    with pytest.raises(ValueError, match="0xf has period 1, expected 7"):
        sq._lfsr_msequences(sq.PRIMITIVE_POLYS[3])
    # the maximal rows run every polynomial through the one vector call
    with pytest.raises(ValueError, match="0xf has period 1, expected 7"):
        build_sign_matrix(FamilySpec("maximal", m=3, n=3))


@pytest.mark.parametrize("n", [5, 7])
def test_gold_family_exhaustive_three_valued(n):
    M = 2**n - 1
    t = sq.gold_t(n)
    allowed = {-1, -t, t - 2}
    fam = sq.gold_family(n)
    assert len(fam) == M + 2
    F = np.fft.fft(np.array(fam, dtype=np.float64), axis=1)
    for i in range(len(fam)):
        prod = np.conj(F[i]) * F[i + 1 :]
        vals = np.rint(np.fft.ifft(prod, axis=1).real).astype(np.int64)
        assert set(np.unique(vals)) <= allowed, f"pair with base {i}"


def test_gold_t_values():
    assert sq.gold_t(5) == 9
    assert sq.gold_t(7) == 17
    assert sq.gold_t(9) == 33


def test_gold_rejects_bad_degree():
    with pytest.raises(ValueError):
        sq.gold_family(6)
    with pytest.raises(ValueError):
        sq.gold_family(4)


def test_gold_rejects_non_preferred_pair(monkeypatch):
    # two distinct primitive polys of degree 5 that are not a preferred
    # pair produce a 4-valued correlation, so a table holding them must
    # be refused
    p = PRIMITIVE_POLYS[5]
    good = GOLD_PREFERRED_PAIRS[5]
    bad = None
    for a in p:
        for b in p:
            if a < b and (a, b) != good and (b, a) != good:
                bad = (a, b)
                break
        if bad:
            break
    assert bad is not None
    monkeypatch.setitem(sq.GOLD_PREFERRED_PAIRS, 5, bad)
    with pytest.raises(ValueError):
        sq.gold_family(5)


@pytest.mark.parametrize("n", [4, 6])
def test_kasami_family_exhaustive_three_valued(n):
    M = 2**n - 1
    half = 2 ** (n // 2)
    allowed = {-1, -(half + 1), half - 1}
    fam = sq.kasami_small_family(n)
    assert len(fam) == half
    for i, a in enumerate(fam):
        for k, b in enumerate(fam):
            vals = sq.cyclic_crosscorrelation(a, b)
            if i == k:
                assert vals[0] == M
                vals = vals[1:]
            assert set(np.unique(vals)) <= allowed


def test_kasami_rejects_odd_degree():
    with pytest.raises(ValueError):
        sq.kasami_small_family(5)


def test_hadamard_family_orthogonal():
    H = np.array(sq.hadamard_family(16))
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
    H = np.array(sq.hadamard_family(M))
    assert H.dtype == np.int8
    assert np.array_equal(H, want)


def test_hadamard_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        sq.hadamard_family(12)


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
