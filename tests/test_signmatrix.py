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
    _BLOCK_ROWS,
    _CODEC_ENTRIES,
    FamilySpec,
    SignMatrix,
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


# m x M shapes around the stream's block size: one row, part of a block,
# exactly one block, a block and a part, more than two blocks; an odd
# m M leaves half of a 64-bit draw buffered in the Generator
STREAM_SHAPES = [(1, 7), (37, 13), (_BLOCK_ROWS, 5), (_BLOCK_ROWS + 3, 9), (2 * _BLOCK_ROWS + 7, 3)]


def _spelled_out_signs(rng, m, M):
    # the published stream: one m x M integers(0, 2) draw mapped to +/-1
    return (rng.integers(0, 2, size=(m, M)) * 2 - 1).astype(np.int8)


@pytest.mark.parametrize("m, M", STREAM_SHAPES)
def test_random_signs_is_the_spelled_out_stream(m, M):
    S = _random_signs((4, m, 1), m, M)
    assert S.dtype == np.int8
    assert np.array_equal(S, _spelled_out_signs(np.random.default_rng((4, m, 1)), m, M))
    blocks = list(_sign_blocks((4, m, 1), m, M))
    assert all(B.dtype == np.float32 and len(B) <= _BLOCK_ROWS for B in blocks)
    assert np.array_equal(np.concatenate(blocks), S)


@pytest.mark.parametrize("m, M", STREAM_SHAPES)
def test_random_signs_leaves_the_generator_where_one_draw_does(m, M):
    # _random_entries redraws duplicate rows from the advanced Generator;
    # the odd 1 x 7 draw first makes the next one start on a buffered half
    ours = np.random.default_rng(21)
    ref = np.random.default_rng(21)
    for shape in ((1, 7), (m, M), (3, 5)):
        assert np.array_equal(_random_signs(ours, *shape), _spelled_out_signs(ref, *shape))
        assert ours.bit_generator.state == ref.bit_generator.state


def _skip_draws(rng, k):
    # k single 32-bit draws: an odd k leaves the high half of a word held
    rng.integers(0, 1 << 32, size=k, dtype=np.uint32)
    return rng


@settings(max_examples=150, deadline=None)
@given(
    first=st.integers(0, 9),
    shapes=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 7)), min_size=1, max_size=4),
)
@example(first=1, shapes=[(1, 1), (1, 1), (3, 5)])
@example(first=0, shapes=[(2, 3), (1, 4), (4, 2)])
def test_small_blocks_give_the_spelled_out_stream_and_state(first, shapes):
    # 3-row blocks put block edges inside most shapes, so a block may start
    # on a word or on a held half, and take an odd or even number of draws
    ours, ref = _skip_draws(np.random.default_rng(33), first), _skip_draws(np.random.default_rng(33), first)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signmatrix, "_BLOCK_ROWS", 3)
        for shape in shapes:
            assert np.array_equal(_random_signs(ours, *shape), _spelled_out_signs(ref, *shape))
            assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "m, M",
    [
        (1, 1),  # the held half is the whole block: no word is drawn
        (3, 5),  # 14 fresh draws take 7 words; the 8 that hold 15 draws are one too many
        (_BLOCK_ROWS + 1, 9),  # a full block then one row, both from a held half
    ],
)
def test_block_on_a_held_half_steps_back_a_spare_word(m, M):
    ours, ref = _skip_draws(np.random.default_rng(8), 3), _skip_draws(np.random.default_rng(8), 3)
    assert ours.bit_generator.state["has_uint32"] == 1
    for shape in ((m, M), (1, 2), (2, 1)):
        assert np.array_equal(_random_signs(ours, *shape), _spelled_out_signs(ref, *shape))
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("first", [0, 1])
def test_sign_block_holds_no_second_block_sized_array(first):
    rng = _skip_draws(np.random.default_rng(5), first)
    tracemalloc.start()
    try:
        B = next(_sign_blocks(rng, _BLOCK_ROWS, 195))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B.nbytes + (64 << 10), (peak, B.nbytes)


def test_random_signs_take_only_pcg64():
    with pytest.raises(TypeError, match="Philox"):
        _random_signs(np.random.Generator(np.random.Philox(0)), 2, 3)


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
        (40, _BLOCK_ROWS + 4, 11, "71b2ac7f54dac88bd742ebd213921cb420ebd498edc0afbe5ef9dfcf91bfdb80"),
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
