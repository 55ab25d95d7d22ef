"""Family specs, deterministic row-selection policies, and the pattern
file format."""

import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwclab import cli, signmatrix
from mwclab import sequences as sq
from mwclab.sensing import _block_gram, _column_gram
from mwclab.signmatrix import (
    _CODEC_ENTRIES,
    FamilySpec,
    SignMatrix,
    _block_rows,
    _random_signs,
    _repeated_rows,
    _sign_blocks,
    build_sign_matrix,
    read_pattern_file,
    write_pattern_file,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("walsh", m=4)
    with pytest.raises(ValueError):
        FamilySpec("random", m=4)  # no M
    with pytest.raises(ValueError):
        FamilySpec("gold", m=4)  # no n
    with pytest.raises(ValueError):
        FamilySpec("gold", m=4, n=9, M=500)  # M inconsistent with n
    with pytest.raises(ValueError):
        FamilySpec("hadamard", m=4, M=12)  # not a power of two
    with pytest.raises(ValueError):
        FamilySpec("gold", m=0, n=5)
    assert FamilySpec("gold", m=4, n=9).length == 511
    assert FamilySpec("hadamard", m=4, M=16).length == 16


def test_maximal_policy_polys_then_shifts():
    S = build_sign_matrix(FamilySpec("maximal", m=7, n=3))
    base = [sq.lfsr_msequence(p) for p in sq.primitive_polys(3)]
    assert np.array_equal(S.entries[0], base[0])
    assert np.array_equal(S.entries[1], base[1])
    assert np.array_equal(S.entries[2], np.roll(base[0], 1))
    assert np.array_equal(S.entries[3], np.roll(base[1], 1))
    assert len({r.tobytes() for r in S.entries}) == 7


def test_maximal_population_cap():
    # degree 3 offers 2 polynomials x 7 shifts = 14 distinct rows
    build_sign_matrix(FamilySpec("maximal", m=14, n=3))
    with pytest.raises(ValueError):
        build_sign_matrix(FamilySpec("maximal", m=15, n=3))


def test_gold_rows_follow_family_enumeration():
    S = build_sign_matrix(FamilySpec("gold", m=6, n=5))
    fam = sq.gold_family(5, 33)
    for i in range(6):
        assert np.array_equal(S.entries[i], fam[i])
    with pytest.raises(ValueError):
        build_sign_matrix(FamilySpec("gold", m=34, n=5))  # family has 33


def test_kasami_rows_follow_family_enumeration():
    S = build_sign_matrix(FamilySpec("kasami", m=5, n=6))
    fam = sq.kasami_small_family(6, 8)
    for i in range(5):
        assert np.array_equal(S.entries[i], fam[i])
    with pytest.raises(ValueError):
        build_sign_matrix(FamilySpec("kasami", m=9, n=6))


def test_hadamard_skips_constant_row():
    S = build_sign_matrix(FamilySpec("hadamard", m=3, M=8))
    fam = sq.hadamard_family(8, 8)
    for i in range(3):
        assert np.array_equal(S.entries[i], fam[i + 1])
    assert not (S.entries == 1).all(axis=1).any()
    with pytest.raises(ValueError):
        build_sign_matrix(FamilySpec("hadamard", m=8, M=8))


def test_random_rows_distinct_and_seeded():
    a = build_sign_matrix(FamilySpec("random", m=12, M=31, seed=7))
    b = build_sign_matrix(FamilySpec("random", m=12, M=31, seed=7))
    c = build_sign_matrix(FamilySpec("random", m=12, M=31, seed=8))
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)
    assert len({r.tobytes() for r in a.entries}) == 12


def test_random_tuple_seed():
    a = build_sign_matrix(FamilySpec("random", m=4, M=19, seed=(3, 25)))
    b = build_sign_matrix(FamilySpec("random", m=4, M=19, seed=(3, 26)))
    assert not np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("seed", [-1, 2**64, (3, -1), (2**64, 0)])
def test_random_rejects_a_seed_outside_64_bits(seed):
    # every seed of a sign stream is in block_rng's range, each word of a tuple too
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\), got -?\d+"):
        build_sign_matrix(FamilySpec("random", m=2, M=7, seed=seed))


def test_random_takes_the_largest_64_bit_seed():
    top = build_sign_matrix(FamilySpec("random", m=2, M=64, seed=2**64 - 1))
    zero = build_sign_matrix(FamilySpec("random", m=2, M=64, seed=0))
    assert not np.array_equal(top.entries, zero.entries)


def test_random_rejects_impossible_distinctness():
    with pytest.raises(ValueError):
        build_sign_matrix(FamilySpec("random", m=9, M=3, seed=0))
    # exactly exhausting the population is allowed
    S = build_sign_matrix(FamilySpec("random", m=8, M=3, seed=0))
    assert len({r.tobytes() for r in S.entries}) == 8


@st.composite
def _matrices_with_repeats(draw):
    # few short rows, then copies of some of them at random places
    M = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from([-1, 1]), min_size=M, max_size=M)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=6)):
        rows.insert(dst % (len(rows) + 1), list(rows[src % len(rows)]))
    return np.array(rows, dtype=np.int8)


@settings(max_examples=200, deadline=None)
@given(_matrices_with_repeats())
def test_repeated_rows_are_every_row_but_the_first_of_its_kind(S):
    first = np.unique(S, axis=0, return_index=True)[1]
    assert _repeated_rows(S) == np.setdiff1d(np.arange(len(S)), first).tolist()


def test_gen_rejects_more_gold_rows_than_the_family_has(tmp_path, capsys):
    argv = ["gen", "--family", "gold", "--n", "5", "--m", "34", "--out", str(tmp_path / "g.pat")]
    assert cli.main(argv) == 2
    assert "error: gold degree 5 has 33 rows, requested 34" in capsys.readouterr().err


def test_sign_matrix_entry_validation():
    with pytest.raises(ValueError):
        SignMatrix(np.array([[1, 0], [1, -1]], dtype=np.int8), "random", None)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("gold", m=5, n=5),
        FamilySpec("kasami", m=4, n=6),
        FamilySpec("hadamard", m=5, M=16),
        FamilySpec("maximal", m=4, n=5),
        FamilySpec("random", m=6, M=21, seed=(1, 2, 3)),
        FamilySpec("random", m=3, M=9, seed=0),
    ],
)
def test_pattern_file_round_trip(spec, tmp_path):
    S = build_sign_matrix(spec)
    path = tmp_path / "p.pat"
    write_pattern_file(path, S)
    R = read_pattern_file(path)
    assert np.array_equal(S.entries, R.entries)
    assert R.family == spec.family
    assert R.seed == spec.seed
    header = path.read_text().splitlines()[0].split()
    assert header[0] == str(S.m) and header[1] == str(S.M) and header[2] == spec.family


def test_pattern_file_allows_trailing_whitespace():
    S = read_pattern_file(io.StringIO("2 3 random 1\n1 -1 1\r\n-1 -1 1\n\n  \n"))
    assert S.entries.tolist() == [[1, -1, 1], [-1, -1, 1]]


def test_pattern_file_bad_header():
    with pytest.raises(ValueError):
        read_pattern_file(io.StringIO("3 4 random\n1 1 1 1\n"))


def test_pattern_file_bad_entries():
    buf = io.StringIO("1 3 random none\n1 2 1\n")
    with pytest.raises(ValueError):
        read_pattern_file(buf)


@pytest.mark.parametrize(
    "body, message",
    [
        ("1 255 1\n", "row 1 has an entry other than -1 or 1"),  # wraps to -1 in int8
        ("1 -255 1\n", "row 1 has an entry other than -1 or 1"),  # wraps to 1 in int8
        ("1 x 1\n", None),
        ("1 1.5 1\n", None),
        ("1 1\n", "row 1 has 2 entries, expected 3"),
        ("1 1 1 1\n", "row 1 has 4 entries, expected 3"),
        ("", "row 1 has 0 entries, expected 3"),
        ("1 1 1\n-1 -1 -1\ngarbage\n", "text after the 2 rows"),
        ("1 - 1 -1\n", "row 1 has 4 entries, expected 3"),  # a sign apart from its 1
        ("01 1 1\n", "row 1 has an entry other than -1 or 1"),
        ("1e0 1 1\n", None),
        ("\u0661 1 1\n", None),  # ARABIC-INDIC DIGIT ONE
    ],
    ids=[
        "255", "-255", "token", "fraction", "short", "long", "missing", "extra",
        "- 1", "01", "1e0", "non-ascii-digit",
    ],
)
def test_pattern_file_rejects_corrupt_rows(body, message):
    buf = io.StringIO("2 3 random none\n-1 1 -1\n" + body)
    with pytest.raises(ValueError, match=message):
        read_pattern_file(buf)


def test_pattern_file_accepts_plus_one():
    S = read_pattern_file(io.StringIO("2 3 random none\n+1 -1 1\n1 +1 +1\n"))
    assert S.entries.tolist() == [[1, -1, 1], [1, 1, 1]]


def _spelled_out_file(S):
    # the format as written out by hand: one " ".join per row
    rows = np.where(S.entries > 0, "1", "-1")
    body = "".join(" ".join(row.tolist()) + "\n" for row in rows)
    return f"{S.m} {S.M} {S.family} none\n" + body


@st.composite
def _codec_matrices(draw):
    M = draw(st.one_of(st.integers(1, 9), st.integers(10, 5000), st.just(_CODEC_ENTRIES + 1)))
    block = max(1, _CODEC_ENTRIES // M)  # rows the writer formats at once
    m = draw(
        st.one_of(
            st.integers(1, 4),
            st.sampled_from([block - 1, block, block + 1, 2 * block + 1]).filter(bool),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SignMatrix(rng.choice(np.array([-1, 1], np.int8), size=(m, M)), "random", None)


@settings(max_examples=30, deadline=None)
@given(_codec_matrices())
@example(SignMatrix(np.array([[-1]], np.int8), "random", None))
@example(SignMatrix(np.ones((_CODEC_ENTRIES + 1, 1), np.int8), "random", None))
def test_pattern_codec_round_trip_and_bytes(S):
    buf = io.StringIO()
    write_pattern_file(buf, S)
    assert buf.getvalue() == _spelled_out_file(S)
    buf.seek(0)
    assert np.array_equal(read_pattern_file(buf).entries, S.entries)


def test_pattern_file_path_with_crlf_tabs_and_blank_lines(tmp_path):
    path = tmp_path / "p.pat"
    text = "3 4 gold none\r\n1\t-1  1 -1\r\n \t-1 +1\t\t1   1 \r\n1 1 -1 -1\r\n\r\n\n \r\n"
    path.write_bytes(text.encode())
    S = read_pattern_file(path)
    assert S.entries.tolist() == [[1, -1, 1, -1], [-1, 1, 1, 1], [1, 1, -1, -1]]
    assert (S.family, S.seed) == ("gold", None)


# m x M shapes: one row and parts of a block of several sizes, then,
# around the block size of their M, exactly one block, a block and a
# part, more than two blocks; an odd m M ends the last block inside a
# 64-bit word, and at M = 9 the first block ends there too
# (test_block_geometry)
STREAM_SHAPES = [
    (1, 7),
    (37, 13),
    (4096, 5),
    (4099, 9),
    (8199, 3),
    (_block_rows(5), 5),
    (_block_rows(9) + 3, 9),
    (2 * _block_rows(3) + 7, 3),
]


def test_block_geometry():
    # every block's float32 Gram is exact: even one-entry rows make fewer
    # than 2**24 of them
    assert _block_rows(1) < 2**24
    # a row longer than the budget is a block of its own
    assert _block_rows(signmatrix._BLOCK_ENTRIES + 1) == 1
    # the block edges the named cases place inside a 64-bit word:
    # STREAM_SHAPES' first M = 9 block has an odd number of signs, and
    # a full M = 7 block read from sign 7 ends on a word's low half
    assert _block_rows(9) * 9 % 2 == 1
    assert (7 + _block_rows(7) * 7) % 2 == 1


def _spelled_out_signs(rng, m, M):
    # the published stream: one m x M integers(0, 2) draw mapped to +/-1
    return (rng.integers(0, 2, size=(m, M)) * 2 - 1).astype(np.int8)


def _spelled_out_rows(key, start, m, M):
    # rows start..start+m of one integers(0, 2) draw seeded key
    return _spelled_out_signs(np.random.default_rng(key), start + m, M)[start:]


@pytest.mark.parametrize("m, M", STREAM_SHAPES)
def test_random_signs_is_the_spelled_out_stream(m, M):
    S = _random_signs((4, m, 1), m, M)
    assert S.dtype == np.int8
    assert np.array_equal(S, _spelled_out_signs(np.random.default_rng((4, m, 1)), m, M))
    blocks = list(_sign_blocks((4, m, 1), m, M))
    assert all(B.dtype == np.float32 and len(B) <= _block_rows(M) for B in blocks)
    assert np.array_equal(np.concatenate(blocks), S)


@pytest.mark.parametrize("m, M", STREAM_SHAPES)
@pytest.mark.parametrize("start", [1, 2, 3])
def test_random_signs_from_a_start_row_are_rows_of_one_draw(m, M, start):
    # an odd start M puts the first sign on the high half of a word
    key = (21, start)
    assert np.array_equal(_random_signs(key, m, M, start), _spelled_out_rows(key, start, m, M))


@settings(max_examples=150, deadline=None)
@given(
    start=st.integers(0, 9), m=st.integers(1, 10), M=st.integers(1, 7), entries=st.integers(1, 21)
)
@example(start=1, m=1, M=1, entries=3)  # one sign on the high half of a word
@example(start=1, m=3, M=5, entries=15)  # 15 signs from an odd start fill 8 words
@example(start=0, m=4, M=3, entries=9)  # a 3-row block ends mid-word, the next starts there
@example(start=1, m=4, M=5, entries=2)  # rows longer than the budget: one-row blocks
def test_small_blocks_give_the_spelled_out_rows(start, m, M, entries):
    # budgets of a few entries put block edges inside most shapes, so a
    # block of one row or of several may start or end on either half of
    # a word
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signmatrix, "_BLOCK_ENTRIES", entries)
        assert np.array_equal(_random_signs(33, m, M, start), _spelled_out_rows(33, start, m, M))
        blocks = list(_sign_blocks(33, m, M, start))
        assert [len(B) for B in blocks[:-1]] == [_block_rows(M)] * (len(blocks) - 1)


@pytest.mark.parametrize(
    "start, m, M",
    [
        (1, 1, 1),  # the block is one high half: one word is read
        (1, 3, 5),  # 15 signs from sign 5 end on a word's high half
        (1, 4097, 9),  # 36873 signs from sign 9, inside one block
        (1, _block_rows(7) + 1, 7),  # a full block ends mid-word, the next row starts there
    ],
)
def test_block_from_an_odd_sign_is_rows_of_one_draw(start, m, M):
    assert np.array_equal(_random_signs(8, m, M, start), _spelled_out_rows(8, start, m, M))
    blocks = list(_sign_blocks(8, m, M, start))
    assert np.array_equal(np.concatenate(blocks), _random_signs(8, m, M, start))


@pytest.mark.parametrize("first", [0, 1])
def test_sign_block_holds_no_second_block_sized_array(first):
    # first = 1 starts the block on the high half of a word (195 is odd)
    tracemalloc.start()
    try:
        B = next(_sign_blocks(5, _block_rows(195), 195, first))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B.nbytes + (64 << 10), (peak, B.nbytes)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("first", [0, 1])
def test_gram_of_a_stream_holds_one_block_at_a_time(first):
    # four full blocks and a part, streamed or materialized: a block is
    # dropped once its product is added, before the next is drawn or
    # cast, so the peak is one block, T, the block's float32 product and
    # the float64 cast of that product (the ufunc's 64 KB buffer), never
    # a second block
    M = 195
    m = 4 * _block_rows(M) + 5
    block = _block_rows(M) * M * 4
    T = M * M * 8
    bound = block + T + T // 2 + (128 << 10)
    peak = _traced_peak(_block_gram, _sign_blocks(5, m, M, first), M)
    assert peak < bound, (peak, bound)
    S = _random_signs(5, m, M, first)
    peak = _traced_peak(_column_gram, S)
    assert peak < bound, (peak, bound)
    # the materialized signs are written block by block, one block alive
    peak = _traced_peak(_random_signs, 5, m, M, first)
    assert peak < S.nbytes + block + (64 << 10), (peak, S.nbytes + block)


@pytest.mark.parametrize(
    "key",
    [np.random.default_rng(0), np.random.Generator(np.random.Philox(0))],
    ids=["pcg64", "philox"],
)
def test_sign_stream_takes_a_seed_not_a_generator(key):
    with pytest.raises(TypeError, match="Generator"):
        _random_signs(key, 2, 3)
    with pytest.raises(TypeError, match="Generator"):
        next(_sign_blocks(key, 2, 3))


def _spelled_out_entries(m, M, seed):
    # the published redraw: one integers(0, 2) draw, then every repeated
    # row redrawn from the same Generator until the rows are distinct
    rng = np.random.default_rng(seed)
    S = _spelled_out_signs(rng, m, M)
    while dup := _repeated_rows(S):
        S[dup] = _spelled_out_signs(rng, len(dup), M)
    return S


@pytest.mark.parametrize("m, M", [(8, 3), (4, 2), (12, 4), (20, 5)])
def test_redrawn_rows_are_the_spelled_out_redraw(m, M):
    # so few rows of length M exist that most seeds draw a repeat
    redrawn = 0
    for seed in range(150):
        S = build_sign_matrix(FamilySpec("random", m=m, M=M, seed=seed)).entries
        assert np.array_equal(S, _spelled_out_entries(m, M, seed)), seed
        redrawn += bool(_repeated_rows(_random_signs(seed, m, M)))
    assert redrawn >= 120


@pytest.mark.parametrize("m, M", STREAM_SHAPES)
def test_streamed_gram_equals_integer_gram(m, M):
    key = (3, m, 0)
    Si = _random_signs(key, m, M).astype(np.int64)
    want = (Si.T @ Si).astype(np.float64)
    T = _block_gram(_sign_blocks(key, m, M), M)
    assert T.dtype == np.float64
    assert np.array_equal(T, want)
    # the materialized matrix runs the same row blocks
    assert np.array_equal(_column_gram(Si.astype(np.int8)), want)


@pytest.mark.parametrize(
    "M, m, seed, digest",
    [
        (127, 12, 9, "d1e87a7015baffeb1ebf960898f37da291d5b026371537b3c97708d5a61906f7"),
        (2047, 128, 3, "344f7c64f314ce4f60fa0c85cdc85741c56dc0a2e25557c271aa052c58c16be1"),
        (40, 4100, 11, "71b2ac7f54dac88bd742ebd213921cb420ebd498edc0afbe5ef9dfcf91bfdb80"),
    ],
)
def test_gen_random_pattern_bytes_are_pinned(M, m, seed, digest, tmp_path):
    # digests of the pattern files written before the stream was blocked
    out = tmp_path / "random.pat"
    argv = ["gen", "--family", "random", "--M", str(M), "--m", str(m), "--seed", str(seed)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--family", "hadamard", "--M", "8192", "--m", "160"],
            "b89695f2022a765c6ce7cd221937cf3800134d6e9c11ae4c7b3ccb870f781cb5",
        ),
        (
            ["--family", "maximal", "--n", "13", "--m", "160"],
            "2b9edbe0bd88ba692aef994ad08c1fac19ebe069256c136ecf99fe2c9793aa20",
        ),
        (
            ["--family", "maximal", "--n", "11", "--m", "160"],
            "871e1daf4e4c14e1e8a8b54f6390bfabff4c5e6af544e756e336c178ec74ff2f",
        ),
        (
            ["--family", "gold", "--n", "11", "--m", "160"],
            "909dfef2d64c634e9e88b818e53d2bb9ae85043728d07adee474731d4a19f8c6",
        ),
        (
            ["--family", "kasami", "--n", "12", "--m", "64"],
            "bf7a5bc79ebaf9f98fabd72713805c02ef4d01710b7b7e5d9e593d91e3cc79dd",
        ),
        (
            ["--family", "maximal", "--n", "9", "--m", "80"],
            "45de64150a0ec8415c12f94c83a321c0078930b301ac4e97b6af06cc7d279296",
        ),
        (
            ["--family", "maximal", "--n", "5", "--m", "186"],
            "a0d414a56e51c1a5e327cb70f2678601a9a8efe887ee3fcb30c711ce6d8f9218",
        ),
        (
            ["--family", "gold", "--n", "9", "--m", "80"],
            "2466a8404d76785556903a18bd7613e6b43affb2d0d5df881eb6d3821bef6796",
        ),
        (
            ["--family", "gold", "--n", "11", "--m", "2049"],
            "d526ee925a1402db2fb18bc0b5c3512b51656070b349df3516734378f4fa5f16",
        ),
        (
            ["--family", "kasami", "--n", "8", "--m", "16"],
            "83cb8bf65f1742f672ccd7c401611d614964cf4f9d34f32d8af522c7f25eff6e",
        ),
        (
            ["--family", "kasami", "--n", "4", "--m", "1"],
            "191f1d48a837d71d2c14520f0adb3c4c52b0b686a2ce46ac42c7f1a0e1537471",
        ),
        (
            ["--family", "hadamard", "--M", "512", "--m", "80"],
            "c55b77fd049bba48754d7d616c86347e814408d82450d739de60de3595893e56",
        ),
    ],
    ids=[
        "hadamard160x8192",
        "maximal160x8191",
        "maximal160x2047",
        "gold160x2047",
        "kasami64x4095",
        "maximal80x511",
        "maximal186x31",
        "gold80x511",
        "gold2049x2047",
        "kasami16x255",
        "kasami1x15",
        "hadamard80x512",
    ],
)
def test_gen_structured_pattern_bytes_are_pinned(argv, digest, tmp_path):
    # digests of the pattern files written by np.savetxt rows, the
    # scalar LFSR, the shipped polynomial table and the full Sylvester
    # matrix, before each was replaced; the last seven (table2's
    # patterns at 80 and 16 rows, maximal rows past one per polynomial
    # and whole families) were taken before the families were built by
    # one cyclic-shift gather
    out = tmp_path / "p.pat"
    assert cli.main(["gen", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_random_family_scan_pattern_bytes_are_pinned(tmp_path):
    # the random pattern of the family_scan benchmark at one seed, digest
    # taken before the duplicate scan moved off np.unique; its structured
    # patterns (maximal13, gold11 and kasami12 at the same m) are pinned
    # by test_gen_structured_pattern_bytes_are_pinned
    out = tmp_path / "random.pat"
    argv = ["gen", "--family", "random", "--M", "2047", "--m", "128", "--family-seed", "2401"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    digest = "65ef1facee9f61d3ce4d28e6cf4d659c72a2d2a58eb4c2a82d7a638eca518a1e"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
