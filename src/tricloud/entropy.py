"""Entropy layer: the two coefficient-plane coders, duplicate-index runs, and
DEFLATE wrapping.  A plane payload's first byte names its coder: 1 is the
adaptive Run-Length Golomb-Rice coder (RLGR), 2 the partitioned Rice /
Exp-Golomb coder.

The RLGR coder is backward-adaptive: encoder and decoder maintain identical
state (a run parameter k and a Golomb-Rice parameter kR, both in fixed-point),
so no side information is needed beyond a version byte and a symbol count.
When k = 0 every symbol is Golomb-Rice coded; when k >= 1 runs of zeros are
coded with one bit per 2^k zeros.  All constants are frozen here and in
docs/bitstream.md; changing any of them requires bumping RLGR_VERSION.

The encoder iterates once per nonzero symbol, not once per codeword.  One
scan over the nonzeros carries kP and kRP by the decoder's rules and records
the zero bits in front of each nonzero (Golomb-Rice zeros while k = 0, then
complete runs of 2^k), its k, the zeros left for its broken run and its kR;
the plane's end is one more gap, whose leftover zeros take one short run.
Everything else follows with array operations: before each nonzero its field
of zero bits, then '1' and the k-bit gap of a broken run, the unary prefix,
and kR low bits or a 32-bit escape.  A cumulative sum places the fields, and
each kind of field is added into big-endian 32-bit words in one pass.  The
decoder keeps one loop over codewords, since a codeword's position depends
on every codeword before it; it keeps only the nonzeros' positions and
values, and undoes the sign interleave on those alone.  The partitioned
coder keeps no state, so both its sides are array operations: its decoder
finds every unary prefix with one ``flatnonzero`` and reads every remainder
at once.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .core import _MAX_REFINED_POINTS
from .errors import CorruptStreamError, MalformedIndexMapError, RangeError

RLGR_VERSION = 1

_L = 4                    # fixed-point fractional bits of kP / kRP
_U0, _D0 = 3, 1           # k adaptation in Golomb-Rice mode (zero / nonzero symbol)
_U1, _D1 = 2, 1           # k adaptation in run mode (complete / broken run)
_KP_MAX = 24 << _L        # k <= 24, so a complete run covers at most 2^24 zeros
_KRP_MAX = 30 << _L       # kR <= 30
_INIT_KP = 0
_INIT_KRP = 1 << _L
_ESC = 24                 # unary prefixes of >= 24 switch to a raw 32-bit value

PARTITIONED_CODER = 2     # a plane payload's first byte: 1 is RLGR, 2 this coder
_PARTITION = 128          # values per partition, each with its own family and k
# the (Exp-Golomb?, k - b) pairs the encoder tries per partition, first on a
# tie, where b = floor(log2(mean + 1)) of its values; k is clipped to 0..31
_CANDIDATES = ((0, -1), (0, 0), (1, -4), (1, -3), (1, -2), (1, -1), (1, 0))


def _check_count(n: int, count: int | None) -> None:
    """Refuse a declared symbol count before anything is allocated: it must be
    ``count``, or with none given at most a frame's refined points."""
    if count is not None and n != count:
        raise CorruptStreamError(f"symbol count mismatch: payload {n}, expected {count}")
    if count is None and n > _MAX_REFINED_POINTS:
        raise CorruptStreamError(f"payload declares {n} symbols, more than {_MAX_REFINED_POINTS}")


def _place(words: np.ndarray, offsets: np.ndarray, widths: np.ndarray,
           fields: np.ndarray) -> None:
    """Add bit fields of at most 32 bits, MSB first at their bit offsets,
    into big-endian 32-bit words held as float64 (exact below 2^53).  The
    fields must not overlap, so adding the pieces that share a word is OR."""
    piece = fields.astype(np.uint64) << (64 - (offsets & 31) - widths).astype(np.uint64)
    word = offsets >> 5
    words += np.bincount(word, (piece >> 32).astype(np.float64), words.size)
    words += np.bincount(word + 1, (piece & 0xFFFFFFFF).astype(np.float64), words.size)


def rlgr_encode(symbols) -> bytes:
    """Encode signed integers; layout: version byte, u32 count, bit-packed body."""
    arr = np.asarray(symbols, dtype=np.int64).ravel()
    n = arr.size
    if n and (arr.min() < -(1 << 31) or arr.max() > (1 << 31) - 1):
        raise RangeError("symbols must fit in signed 32 bits")
    positions = np.flatnonzero(arr)
    signed = arr[positions]
    # interleave signs: 0,-1,1,-2,... -> 0,1,2,3,...
    unsigned = np.where(signed > 0, 2 * signed, -2 * signed - 1)

    # one scan carries kP and kRP and records, per nonzero: the zero bits in
    # front of it, its k (0: Golomb-Rice mode), the zeros left for its broken
    # run, and kR.  The plane's end is one more nonzero, at n, never coded.
    records = []
    kp, krp = _INIT_KP, _INIT_KRP
    for gap, value in zip((np.diff(positions, prepend=-1, append=n) - 1).tolist(),
                          unsigned.tolist() + [1]):
        bits = 0
        while gap and kp < 1 << _L:  # Golomb-Rice zeros: '0' and kR zero bits
            bits += 1 + (krp >> _L)
            krp = krp - 2 if krp > 2 else 0
            kp += _U0
            gap -= 1
        k = kp >> _L
        while k and gap >> k:  # complete runs of 2^k zeros: '0' each
            gap -= 1 << k
            bits += 1
            kp += _U1
            if kp > _KP_MAX:
                kp = _KP_MAX
            k = kp >> _L
        k_r = krp >> _L
        records += (bits, k, gap, k_r)
        p = (value - 1 if k else value) >> k_r  # a broken run codes the nonzero minus 1
        if p == 0:
            krp = krp - 2 if krp > 2 else 0
        elif p > 1:
            krp += p + 1
            if krp > _KRP_MAX:
                krp = _KRP_MAX
        kp = kp - _D1 if k else kp - _D0 if kp > _D0 else 0
    zero_bits, k, left, k_r = np.array(records, dtype=np.int64).reshape(-1, 4).T
    end_run = left[-1] > 0  # one short run, since the decoder clamps a run at n
    k, left, k_r = k[:-1], left[:-1], k_r[:-1]
    values = unsigned - (k > 0)

    # every nonzero: zero bits, then '1' and a k-bit gap in run mode, then
    # the Golomb-Rice codeword: p ones and '0', and kR low bits, or 24 ones
    # and the 32-bit value
    ones = np.minimum(values >> k_r, _ESC)
    short = ones < _ESC  # a prefix of fewer than 24 ones ends in '0'
    gap_width = np.where(k > 0, k + 1, 0)
    prefix_width = ones + short
    low_width = np.where(short, k_r, 32)
    tail = gap_width + prefix_width + low_width
    ends = np.cumsum(zero_bits + np.append(tail, end_run))
    n_bits = int(ends[-1])
    start = ends[:-1] - tail

    words = np.zeros(((n_bits + 31) >> 5) + 2)  # a field of width 0 may sit at n_bits
    _place(words, start, gap_width, np.where(k > 0, (1 << k) | left, 0))
    start += gap_width
    _place(words, start, prefix_width, ((1 << ones) - 1) << short)
    start += prefix_width
    _place(words, start, low_width, np.where(short, values & ((1 << k_r) - 1), values))
    # header and body in one buffer; three bytes of slack in front put the
    # body's words on a 4-byte boundary
    payload = np.empty(8 + 4 * (words.size - 2), dtype=np.uint8)
    payload[3:8] = np.frombuffer(bytes([RLGR_VERSION]) + struct.pack("<I", n), dtype=np.uint8)
    payload[8:].view(">u4")[:] = words[:-2]
    return payload[3:8 + ((n_bits + 7) >> 3)].tobytes()


def rlgr_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """Decode an RLGR payload back to signed integers.

    ``count``, when given, must match the payload's embedded symbol count;
    without it, a count above 2^24 is refused.
    """
    if len(data) < 5:
        raise CorruptStreamError("RLGR payload shorter than its header")
    if data[0] != RLGR_VERSION:
        raise CorruptStreamError(f"unsupported RLGR version {data[0]}")
    (n,) = struct.unpack_from("<I", data, 1)
    _check_count(n, count)
    # a symbol costs at most 1 + 24 run bits, 24 escape ones and 32 raw bits
    if len(data) - 5 > (81 * n + 7) // 8:
        raise CorruptStreamError("RLGR body longer than its symbol count allows")

    n_bits = 8 * (len(data) - 5)
    bits = format(int.from_bytes(data[5:], "big"), f"0{n_bits}b") if n_bits else ""
    positions, values = [], []  # the nonzeros; every other symbol is zero
    kp, krp = _INIT_KP, _INIT_KRP
    pos = b = 0
    # the kP and kRP rules inline: kP >= 16 in run mode and < 16 in
    # Golomb-Rice mode, so only a complete run and a Golomb-Rice nonzero
    # can reach a bound
    try:
        while pos < n:
            k = kp >> _L
            k_r = krp >> _L
            if k:
                if bits[b] == "0":
                    b += 1
                    pos += 1 << k  # zeros are not stored; the loop ends at n
                    kp += _U1
                    if kp > _KP_MAX:
                        kp = _KP_MAX
                    continue
                pos += int(bits[b + 1:b + 1 + k], 2)  # '1', k-bit gap
                b += 1 + k
                if pos >= n:
                    raise CorruptStreamError("broken-run record exceeds symbol count")
            end = bits.find("0", b, b + _ESC)
            if end < 0:  # escape, or a prefix cut short by the end of the body
                value = int(bits[b + _ESC:b + _ESC + 32], 2)
                b += _ESC + 32
                p = value >> k_r
            else:
                p = end - b
                b = end + 1 + k_r
                value = (p << k_r) | int(bits[end + 1:b], 2) if k_r else p
            if p == 0:
                krp = krp - 2 if krp > 2 else 0
            elif p > 1:
                krp += p + 1
                if krp > _KRP_MAX:
                    krp = _KRP_MAX
            if k:
                positions.append(pos)
                values.append(value + 1)
                kp -= _D1
            elif value:
                positions.append(pos)
                values.append(value)
                kp = kp - _D0 if kp > _D0 else 0
            else:
                kp += _U0
            pos += 1
    except (IndexError, ValueError) as exc:
        raise CorruptStreamError("bitstream ended mid-codeword") from exc
    if not n_bits - 8 < b <= n_bits or "1" in bits[b:]:
        raise CorruptStreamError("RLGR body does not end in zero padding within its last byte")
    # undo the sign interleave on the nonzeros alone: 1,2,3,... -> -1,1,-2,...
    unsigned = np.array(values, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    out[positions] = (unsigned >> 1) ^ -(unsigned & 1)
    return out


def _bit_length(q: np.ndarray) -> np.ndarray:
    """floor(log2(q)) + 1 of integers 1 <= q < 2^53."""
    return np.frexp(q.astype(np.float64))[1]


def _packed(widths: np.ndarray, fields: np.ndarray) -> bytes:
    """Fields of at most 32 bits back to back, MSB first, zero-padded to a byte."""
    ends = np.cumsum(widths)
    n_bits = int(ends[-1]) if ends.size else 0
    words = np.zeros(((n_bits + 31) >> 5) + 2)  # a field of width 0 may sit at n_bits
    _place(words, ends - widths, widths, fields)
    return words[:-2].astype(">u4").tobytes()[:(n_bits + 7) >> 3]


def _read_fields(part: np.ndarray, offsets: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Invert :func:`_packed` at once: each field of at most 32 bits lies in
    the 64-bit big-endian window of the two words from its first word on."""
    padded = np.zeros(((part.size + 3) & ~3) + 8, dtype=np.uint8)
    padded[:part.size] = part
    words = padded.view(">u4").astype(np.uint64)
    windows = words[offsets >> 5] << np.uint64(32)
    windows |= words[(offsets >> 5) + 1]
    windows <<= (offsets & 31).astype(np.uint64)
    return ((windows >> np.uint64(32)) >> (32 - widths).astype(np.uint64)).astype(np.int64)


def _check_part(part: np.ndarray, n_bits: int, name: str) -> None:
    """Refuse a part that is not n_bits padded to a byte with zero bits."""
    if part.size != (n_bits + 7) >> 3 or (n_bits & 7 and part[-1] & 0xFF >> (n_bits & 7)):
        raise CorruptStreamError(f"{name} part does not end in zero padding within its last byte")


def _partition_sizes(counts) -> np.ndarray:
    """Values per partition of each stream in turn, streams of ``counts`` values."""
    return np.concatenate([np.minimum(c - _PARTITION * np.arange(-(-c // _PARTITION)), _PARTITION)
                           for c in counts])


def partitioned_encode(symbols) -> bytes:
    """Encode signed integers as plane coder 2: the gaps before the nonzeros,
    their magnitudes and the gaps between sign changes, in partitioned Rice /
    Exp-Golomb codes."""
    arr = np.asarray(symbols, dtype=np.int64).ravel()
    if arr.size and (arr.min() < -(1 << 31) or arr.max() > (1 << 31) - 1):
        raise RangeError("symbols must fit in signed 32 bits")
    positions = np.flatnonzero(arr)
    signed = arr[positions]
    changes = np.flatnonzero(np.diff(signed < 0, prepend=False))
    streams = (np.diff(positions, prepend=-1) - 1, np.abs(signed) - 1,
               np.diff(changes, prepend=-1) - 1)
    sizes = _partition_sizes([stream.size for stream in streams])
    # each stream zero-padded to whole partitions; a padded zero costs no bits
    grid = np.concatenate([np.pad(stream, (0, -stream.size % _PARTITION))
                           for stream in streams]).reshape(-1, _PARTITION)
    base = _bit_length(grid.sum(axis=1) // sizes + 1) - 1
    least = np.full(sizes.size, np.iinfo(np.int64).max)
    family, k = np.zeros((2, sizes.size), dtype=np.int64)
    for golomb, offset in _CANDIDATES:
        k_try = np.clip(base + offset, 0, 31)
        q = grid >> k_try[:, None]
        bits = (2 * _bit_length(q + 1) - 2 if golomb else q).sum(axis=1) + sizes * (k_try + 1)
        take = bits < least
        least[take], family[take], k[take] = bits[take], golomb, k_try[take]

    values = np.concatenate(streams)
    golomb, k_v = np.repeat(family, sizes).astype(bool), np.repeat(k, sizes)
    q = values >> k_v
    u = np.where(golomb, _bit_length(q + 1) - 1, q)
    widths = np.where(golomb, u + k_v, k_v)
    stops = np.cumsum(u + 1) - 1
    n_bits = int(stops[-1]) + 1 if stops.size else 0
    unary = np.zeros((n_bits + 7) & ~7, dtype=bool)
    unary[:n_bits] = True
    unary[stops] = False
    return b"".join([
        struct.pack("<BIIII", PARTITIONED_CODER, arr.size, positions.size, changes.size,
                    unary.size >> 3),
        _packed(np.full(sizes.size, 6), family << 5 | k),
        np.packbits(unary).tobytes(),
        _packed(widths, np.where(golomb, values + (1 << k_v), values) & ((1 << widths) - 1)),
    ])


def partitioned_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """Decode a plane coder 2 payload back to signed integers with array
    operations; ``count``, when given, must match its symbol count, and
    without it a count above 2^24 is refused."""
    if len(data) < 17:
        raise CorruptStreamError("partitioned payload shorter than its header")
    coder, n, m, r, n_unary = struct.unpack_from("<BIIII", data)
    if coder != PARTITIONED_CODER:
        raise CorruptStreamError(f"unknown plane coder {coder}")
    if not r <= m <= n:
        raise CorruptStreamError(f"{m} nonzeros and {r} sign changes declared for {n} symbols")
    n_parts = 2 * -(-m // _PARTITION) + -(-r // _PARTITION)
    head_end = 17 + ((6 * n_parts + 7) >> 3)
    if head_end + n_unary > len(data):
        raise CorruptStreamError("partitioned payload shorter than its parts")
    _check_count(n, count)
    buf = np.frombuffer(data, dtype=np.uint8)
    _check_part(buf[17:head_end], 6 * n_parts, "header")
    # each value holds a bit of the unary part, so this bounds every array below
    unary = buf[head_end:head_end + n_unary]
    stops = np.flatnonzero(np.unpackbits(~unary))[:2 * m + r]
    if stops.size < 2 * m + r:
        raise CorruptStreamError("unary part holds fewer prefixes than values")
    _check_part(unary, int(stops[-1]) + 1 if m else 0, "unary")
    u = np.diff(stops, prepend=-1) - 1
    headers = np.repeat(_read_fields(buf[17:head_end], 6 * np.arange(n_parts),
                                      np.full(n_parts, 6)), _partition_sizes((m, m, r)))
    golomb, k = headers >= 32, headers & 31
    if np.where(golomb, u + k > 32, u >> (32 - k) > 0).any():
        raise CorruptStreamError("a coded value does not fit in 32 bits")
    widths = np.where(golomb, u + k, k)
    ends = np.cumsum(widths)
    _check_part(buf[head_end + n_unary:], int(ends[-1]) if m else 0, "remainder")
    fields = _read_fields(buf[head_end + n_unary:], ends - widths, widths)
    values = np.where(golomb, fields + (1 << widths) - (1 << k), (u << k) + fields)

    gaps, magnitudes, changes = values[:m], values[m:2 * m] + 1, values[2 * m:]
    # float sums are exact below 2^53, and above it far past n
    if gaps.sum(dtype=np.float64) + m > n or changes.sum(dtype=np.float64) + r > m:
        raise CorruptStreamError("nonzero positions or sign changes run past their count")
    negative = np.zeros(m, dtype=np.int64)
    negative[np.cumsum(changes + 1) - 1] = 1
    np.bitwise_xor.accumulate(negative, out=negative)
    if m and (magnitudes - negative).max() >= 1 << 31:
        raise CorruptStreamError("a symbol does not fit in signed 32 bits")
    out = np.zeros(n, dtype=np.int64)
    out[np.cumsum(gaps + 1) - 1] = np.where(negative, -magnitudes, magnitudes)
    return out


def index_runs_encode(index_map) -> bytes:
    """Code a duplicate-index map (nondecreasing, steps of 0 or 1, starting at 0).

    The run list is the run-length encoding of the step sequence of
    [-1] + index_map: alternating unit-run / zero-run counts beginning with a
    unit run, padded with a trailing zero run to an even length, serialized as
    u32 little-endian and deflated.
    """
    iv = np.asarray(index_map, dtype=np.int64).ravel()
    if iv.size == 0:
        return deflate(struct.pack("<I", 0))
    steps = np.diff(iv, prepend=-1)
    if iv[0] != 0 or steps.min() < 0 or steps.max() > 1:
        raise MalformedIndexMapError("index map must start at 0 with steps in {0, 1}")
    boundaries = np.flatnonzero(np.diff(steps)) + 1
    runs = np.diff(np.concatenate([[0], boundaries, [steps.size]]))
    if runs.size % 2:
        runs = np.concatenate([runs, [0]])
    body = struct.pack("<I", runs.size) + runs.astype("<u4").tobytes()
    return deflate(body)


def index_runs_decode(data: bytes, length: int | None = None) -> np.ndarray:
    """Invert :func:`index_runs_encode`.

    With ``length`` given, a run list that does not expand to exactly that
    many entries raises CorruptStreamError before anything is expanded.
    """
    body = inflate(data, None if length is None else 4 * length + 8)
    if len(body) < 4:
        raise CorruptStreamError("index-run payload shorter than its header")
    (n_runs,) = struct.unpack_from("<I", body, 0)
    if len(body) != 4 + 4 * n_runs:
        raise CorruptStreamError("index-run payload length mismatch")
    runs = np.frombuffer(body, dtype="<u4", offset=4).astype(np.int64)
    total = int(runs.sum())
    if length is not None and total != length:
        raise CorruptStreamError(f"index runs expand to {total} entries, expected {length}")
    if n_runs == 0:
        return np.zeros(0, dtype=np.int64)
    # runs alternate unit steps and zero steps, beginning with a unit run
    step_values = (np.arange(n_runs) % 2 == 0).astype(np.int64)
    iv = np.cumsum(np.repeat(step_values, runs)) - 1
    if iv.size == 0 or iv[0] != 0:
        raise MalformedIndexMapError("decoded index map does not start at 0")
    return iv


def deflate(data: bytes) -> bytes:
    """zlib-framed DEFLATE at level 5.

    The level is the encoder's choice: :func:`inflate` reads a stream of any
    level.  On the geometry sections level 5 is smaller than level 9 and
    several times faster; levels below it are larger.
    """
    return zlib.compress(bytes(data), 5)


def inflate(data: bytes, max_length: int | None = None) -> bytes:
    """Invert :func:`deflate`; output longer than ``max_length`` is an error."""
    d = zlib.decompressobj()
    try:
        out = d.decompress(bytes(data), 0 if max_length is None else max_length + 1)
    except zlib.error as exc:
        raise CorruptStreamError(f"bad DEFLATE stream: {exc}") from exc
    if not d.eof or d.unused_data or (max_length is not None and len(out) > max_length):
        raise CorruptStreamError("DEFLATE stream truncated, too long or followed by extra bytes")
    return out
