"""Sign-pattern matrices: family selection policies and file format.

The pattern file format used across the repo is UTF-8 text: a header
line "m M family seed" followed by exactly m lines of M entries from
{-1, 1}, then nothing but whitespace.  An entry is the token 1, +1 or
-1, and the tokens of a row are separated by spaces, tabs, CRs, VTs or
FFs; the writer spells +1 as 1 and puts one space between tokens.  The
seed token is an integer, a comma-joined tuple of integers, or "none";
round-trips are bit-exact.
"""

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

from . import sequences
from .distributions import _check_seed

FAMILIES = ("maximal", "gold", "kasami", "hadamard", "random")

Seed = int | tuple[int, ...] | None


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic recipe for a sign matrix.

    family: one of FAMILIES.
    m: number of rows (channels).
    n: register length for the LFSR families and hadamard (M = 2**n).
    M: explicit length; required for random, optional elsewhere (must
       agree with n when both are given).
    seed: RNG seed, required for random and ignored by the others.
    """

    family: str
    m: int
    n: int | None = None
    M: int | None = None
    seed: Seed = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.family == "random":
            if self.M is None or self.M < 1:
                raise ValueError("random family needs an explicit positive M")
        elif self.family == "hadamard":
            M = self.M if self.M is not None else (1 << self.n if self.n else None)
            if M is None or M < 2 or M & (M - 1):
                raise ValueError("hadamard needs M (or n) with M a power of two")
            if self.M is not None and self.n is not None and self.M != 1 << self.n:
                raise ValueError(f"M={self.M} contradicts n={self.n}")
        else:
            if self.n is None:
                raise ValueError(f"{self.family} family needs the register length n")
            if self.M is not None and self.M != (1 << self.n) - 1:
                raise ValueError(f"M={self.M} contradicts n={self.n} (expected 2**n - 1)")

    @property
    def length(self) -> int:
        if self.family == "random":
            return self.M
        if self.family == "hadamard":
            return self.M if self.M is not None else 1 << self.n
        return (1 << self.n) - 1


@dataclass(frozen=True)
class SignMatrix:
    """m x M matrix with entries in {-1, +1} plus provenance."""

    entries: np.ndarray
    family: str
    seed: Seed = None

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] < 1 or e.shape[1] < 1:
            raise ValueError(f"entries must be a nonempty 2-d array, got shape {e.shape}")
        if not np.all(np.abs(e) == 1):
            raise ValueError("entries must all be -1 or +1")

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def M(self) -> int:
        return self.entries.shape[1]


# entries per block of the sign stream and of every Gram (_block_rows)
_BLOCK_ENTRIES = 1 << 17


def _block_rows(M: int) -> int:
    """Rows per block of M-entry rows: at most _BLOCK_ENTRIES entries
    (512 KB of float32), and at least one row.  A block's Gram has
    integer partial sums of magnitude at most this, below 2**24, so it
    is exact even in float32."""
    return max(1, _BLOCK_ENTRIES // M)


def _sign_blocks(key, m: int, M: int, start: int = 0):
    """Rows start..start+m of the M-sign rows of the stream seeded `key`,
    as consecutive float32 blocks of _block_rows(M) rows (the last may
    be shorter).

    Sign s of the stream seeded `key` (a seed, never a Generator) is the
    top bit of the s-th 32-bit half of PCG64's raw words, low half
    first, +1 when set: the draw integers(0, 2) takes.  So a row is
    reached by position, with PCG64.advance, and a tall matrix need
    never exist in full.  A block that ends inside a word steps back
    one word, for the next block to read its high half.  The stream
    drops its block once yielded, so a consumer that does the same
    holds one block at a time.
    """
    bg = np.random.PCG64(key)
    bg.advance(start * M // 2)
    skip = start * M % 2  # 1 when the next word's low half is already read
    rows = _block_rows(M)
    for row in range(0, m, rows):
        n = min(rows, m - row) * M
        raw = bg.random_raw((skip + n + 1) // 2)
        bits = raw.astype("<u8", copy=False).view("<u4")[skip : skip + n]
        skip = (skip + n) % 2
        if skip:
            bg.advance(-1)
        # keep the top bit and write the float32 pattern of +1 (top bit
        # set, 0x3F800000) or -1 (clear, 0xBF800000) in place
        bits &= 0x80000000
        bits ^= 0xBF800000
        yield bits.reshape(-1, M).view("<f4")
        del raw, bits


def _random_signs(key, m: int, M: int, start: int = 0) -> np.ndarray:
    """Rows start..start+m of the i.i.d. equiprobable int8 signs seeded
    `key`, M to a row, as an m x M array.  Every random sign pattern in
    the package comes from this one stream (see _sign_blocks); each
    block is written straight into the result and dropped."""
    S = np.empty((m, M), dtype=np.int8)
    row = 0
    for B in _sign_blocks(key, m, M, start):
        S[row : row + len(B)] = B
        row += len(B)
        del B
    return S


def _repeated_rows(S: np.ndarray) -> list[int]:
    """Every row of S but the first of its kind, in row order."""
    first = {}
    return [i for i, row in enumerate(S) if first.setdefault(row.tobytes(), i) != i]


def _random_entries(m: int, M: int, seed: Seed) -> np.ndarray:
    if seed is None:
        raise ValueError("random family needs a seed")
    for s in seed if isinstance(seed, tuple) else (seed,):
        _check_seed(s)
    if M < 64 and m > 2**M:
        raise ValueError(f"cannot draw {m} distinct rows of length {M} (only {2**M} exist)")
    S = _random_signs(seed, m, M)
    # rows must be distinct; redraw clashes (astronomically rare at real
    # sizes) from the rows after those drawn
    drawn = m
    for _ in range(100):
        dup = _repeated_rows(S)
        if not dup:
            return S
        S[dup] = _random_signs(seed, len(dup), M, drawn)
        drawn += len(dup)
    raise ValueError(f"could not draw {m} distinct rows of length {M}")


def build_sign_matrix(spec: FamilySpec) -> SignMatrix:
    """Materialize a FamilySpec into m distinct rows.

    Selection policies, all deterministic:
      maximal, gold, kasami
                   the first m rows of sequences.maximal_family,
                   gold_family or kasami_small_family, in the row order
                   their docstrings give.
      hadamard     rows 1..m, skipping the all-ones row 0 (it would make
                   every channel measurement redundant with the DC bin).
      random       i.i.d. equiprobable signs from the seed.
    """
    fam = spec.family
    if fam == "random":
        entries = _random_entries(spec.m, spec.M, spec.seed)
    elif fam == "hadamard":
        if spec.m > spec.length - 1:
            raise ValueError(
                f"hadamard of size {spec.length} has {spec.length - 1} usable rows "
                f"(all-ones row 0 is skipped), requested {spec.m}"
            )
        entries = sequences.hadamard_family(spec.length, spec.m + 1)[1:]
    else:
        build = {
            "maximal": sequences.maximal_family,
            "gold": sequences.gold_family,
            "kasami": sequences.kasami_small_family,
        }[fam]
        entries = build(spec.n, spec.m)
    return SignMatrix(entries, fam, spec.seed)


def _format_seed(seed: Seed) -> str:
    if seed is None:
        return "none"
    if isinstance(seed, tuple):
        return ",".join(str(int(s)) for s in seed)
    return str(int(seed))


def _parse_seed(token: str) -> Seed:
    if token == "none":
        return None
    if "," in token:
        return tuple(int(t) for t in token.split(","))
    return int(token)


def _text_file(target: str | os.PathLike | io.TextIOBase, mode: str = "r"):
    """Context manager for the one way the package reaches a file.

    An open text handle passes through unchanged and stays open.  A path
    is opened as UTF-8 and closed on exit: written with no newline
    translation, read with universal newlines.
    """
    if not isinstance(target, (str, os.PathLike)):
        return contextlib.nullcontext(target)
    return open(target, mode, encoding="utf-8", newline="" if mode == "w" else None)


# entries per block of rows the pattern codec formats or parses at once
_CODEC_ENTRIES = 1 << 16


def _format_rows(E: np.ndarray) -> str:
    """The lines of the sign rows E, as " ".join spells them."""
    # "-1 " per entry with the sign byte zeroed for +1 and a newline for
    # the last separator of each row; the zero bytes are then deleted
    t = np.empty((*E.shape, 3), np.uint8)
    np.multiply(E < 0, np.uint8(ord("-")), out=t[..., 0])
    t[..., 1] = ord("1")
    t[..., 2] = ord(" ")
    t[:, -1, 2] = ord("\n")
    return t.tobytes().translate(None, b"\0").decode("ascii")


def write_pattern_file(path: str | os.PathLike | io.TextIOBase, sm: SignMatrix) -> None:
    """Write the plain-text pattern format (see module docstring)."""
    with _text_file(path, "w") as fh:
        fh.write(f"{sm.m} {sm.M} {sm.family} {_format_seed(sm.seed)}\n")
        rows = max(1, _CODEC_ENTRIES // sm.M)
        for start in range(0, sm.m, rows):
            fh.write(_format_rows(sm.entries[start : start + rows]))


def _parse_rows(data: bytes, M: int, first: int) -> np.ndarray:
    """The lines of `data`, each ending in a newline, as an int8 array
    of shape (lines, M); errors number the lines from `first`.

    A 1 ends every token, so the text is well formed when every 1 is
    followed by a separator or a newline, every sign by a 1, and no other
    byte occurs.  A row's count is its runs of non-separator bytes, so a
    bad token counts as one entry.
    """
    b = np.frombuffer(data, np.uint8)
    newline = b == ord("\n")
    ink = (b != ord(" ")) & (b - np.uint8(ord("\t")) > 4)  # not space, \t, \n, \v, \f, \r
    one = b == ord("1")
    sign = (b == ord("-")) | (b == ord("+"))
    bad = ink & ~one & ~sign
    bad[1:] |= (one[:-1] & ink[1:]) | (sign[:-1] & ~one[1:])
    start = ink.copy()  # the first byte of each token
    start[1:] &= ~ink[:-1]
    # per row, the first byte of each of its tokens, then its newline
    marks = b.take(np.flatnonzero(start | newline))
    counts = np.diff(np.flatnonzero(marks == ord("\n")), prepend=-1) - 1
    if bad.any() or (counts != M).any():
        bad_row = counts != M
        bad_row[np.searchsorted(np.flatnonzero(newline), np.flatnonzero(bad))] = True
        i = int(np.argmax(bad_row))
        if counts[i] != M:
            raise ValueError(f"row {first + i} has {counts[i]} entries, expected {M}")
        raise ValueError(f"row {first + i} has an entry other than -1 or 1")
    return 1 - 2 * (marks.reshape(-1, M + 1)[:, :M] == ord("-")).view(np.int8)


def read_pattern_file(path: str | os.PathLike | io.TextIOBase) -> SignMatrix:
    """Parse a pattern file; inverse of write_pattern_file."""
    with _text_file(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"bad pattern header: {header}")
        m, M, family, seed = int(header[0]), int(header[1]), header[2], _parse_seed(header[3])
        entries = np.empty((m, M), dtype=np.int8)
        row, rest = 0, b""
        while row < m:
            # whole lines, at most _CODEC_ENTRIES entries before the last
            # (each takes two characters or more); a file that ends early
            # reads as empty rows
            data = (fh.read(2 * _CODEC_ENTRIES) + fh.readline()).encode() or b"\n" * (m - row)
            if not data.endswith(b"\n"):
                data += b"\n"
            lines = min(data.count(b"\n"), m - row)
            rest = data.split(b"\n", lines)[-1]
            entries[row : row + lines] = _parse_rows(data[: len(data) - len(rest)], M, row)
            row += lines
        if (rest.decode() + fh.read()).strip():
            raise ValueError(f"text after the {m} rows the header names")
    return SignMatrix(entries, family, seed)


__all__ = [
    "FAMILIES",
    "FamilySpec",
    "SignMatrix",
    "build_sign_matrix",
    "read_pattern_file",
    "write_pattern_file",
]
