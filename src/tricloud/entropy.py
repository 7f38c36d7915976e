"""Entropy layer: adaptive Run-Length Golomb-Rice coding, duplicate-index runs,
and DEFLATE wrapping.

The RLGR coder is backward-adaptive: encoder and decoder maintain identical
state (a run parameter k and a Golomb-Rice parameter kR, both in fixed-point),
so no side information is needed beyond a version byte and a symbol count.
When k = 0 every symbol is Golomb-Rice coded; when k >= 1 runs of zeros are
coded with one bit per 2^k zeros.  All constants are frozen here and in
docs/bitstream.md; changing any of them requires bumping RLGR_VERSION.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

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


class _BitWriter:
    def __init__(self):
        self.chunks = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, nbits: int) -> None:
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.nbits += nbits
        while self.nbits >= 8:
            self.nbits -= 8
            self.chunks.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def getvalue(self) -> bytes:
        if self.nbits:
            return bytes(self.chunks) + bytes([(self.acc << (8 - self.nbits)) & 0xFF])
        return bytes(self.chunks)


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0          # next byte index
        self.acc = 0
        self.nbits = 0

    def read(self, nbits: int) -> int:
        while self.nbits < nbits:
            if self.pos >= len(self.data):
                raise CorruptStreamError("bitstream ended mid-codeword")
            self.acc = (self.acc << 8) | self.data[self.pos]
            self.pos += 1
            self.nbits += 8
        self.nbits -= nbits
        value = (self.acc >> self.nbits) & ((1 << nbits) - 1)
        self.acc &= (1 << self.nbits) - 1
        return value

    def bytes_consumed(self) -> int:
        return self.pos


def _gr_write(writer: _BitWriter, value: int, k_r: int) -> None:
    p = value >> k_r
    if p < _ESC:
        writer.write(((1 << p) - 1) << 1, p + 1)  # p ones, one zero
        if k_r:
            writer.write(value & ((1 << k_r) - 1), k_r)
    else:
        writer.write((1 << _ESC) - 1, _ESC)
        writer.write(value, 32)


def _gr_read(reader: _BitReader, k_r: int) -> int:
    p = 0
    while p < _ESC and reader.read(1):
        p += 1
    if p == _ESC:
        return reader.read(32)
    low = reader.read(k_r) if k_r else 0
    return (p << k_r) | low


def _adapt_krp(krp: int, p: int) -> int:
    if p == 0:
        return max(0, krp - 2)
    if p > 1:
        return min(krp + p + 1, _KRP_MAX)
    return krp


def rlgr_encode(symbols) -> bytes:
    """Encode signed integers; layout: version byte, u32 count, bit-packed body."""
    arr = np.asarray(symbols, dtype=np.int64).ravel()
    if arr.size and (arr.min() < -(1 << 31) or arr.max() > (1 << 31) - 1):
        raise RangeError("symbols must fit in signed 32 bits")
    # interleave signs: 0,-1,1,-2,... -> 0,1,2,3,...
    unsigned = np.where(arr >= 0, 2 * arr, -2 * arr - 1)
    u = unsigned.tolist()
    nonzeros = np.flatnonzero(unsigned).tolist()
    nonzeros.append(arr.size)  # sentinel

    writer = _BitWriter()
    kp, krp = _INIT_KP, _INIT_KRP
    pos = 0
    nz_i = 0
    n = arr.size
    while pos < n:
        k = kp >> _L
        k_r = krp >> _L
        if k == 0:
            value = u[pos]
            _gr_write(writer, value, k_r)
            krp = _adapt_krp(krp, value >> k_r)
            if value == 0:
                kp = min(kp + _U0, _KP_MAX)
            else:
                kp = max(0, kp - _D0)
                nz_i += 1
            pos += 1
        else:
            next_nz = nonzeros[nz_i]
            gap = next_nz - pos
            m = 1 << k
            if gap >= m:
                writer.write(0, 1)          # complete run of m zeros
                kp = min(kp + _U1, _KP_MAX)
                pos += m
            elif next_nz == n:
                if gap > 0:                 # flush trailing zeros as one run bit
                    writer.write(0, 1)
                pos = n
            else:
                writer.write(1, 1)          # broken run: length, then value-1
                writer.write(gap, k)
                value = u[next_nz] - 1
                _gr_write(writer, value, k_r)
                krp = _adapt_krp(krp, value >> k_r)
                kp = max(0, kp - _D1)
                pos = next_nz + 1
                nz_i += 1
    return bytes([RLGR_VERSION]) + struct.pack("<I", n) + writer.getvalue()


def rlgr_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """Decode an RLGR payload back to signed integers.

    ``count``, when given, must match the payload's embedded symbol count.
    """
    if len(data) < 5:
        raise CorruptStreamError("RLGR payload shorter than its header")
    if data[0] != RLGR_VERSION:
        raise CorruptStreamError(f"unsupported RLGR version {data[0]}")
    (n,) = struct.unpack_from("<I", data, 1)
    if count is not None and n != count:
        raise CorruptStreamError(f"symbol count mismatch: payload {n}, expected {count}")

    reader = _BitReader(data[5:])
    out = np.zeros(n, dtype=np.int64)
    kp, krp = _INIT_KP, _INIT_KRP
    pos = 0
    while pos < n:
        k = kp >> _L
        k_r = krp >> _L
        if k == 0:
            value = _gr_read(reader, k_r)
            krp = _adapt_krp(krp, value >> k_r)
            if value == 0:
                kp = min(kp + _U0, _KP_MAX)
            else:
                out[pos] = value
                kp = max(0, kp - _D0)
            pos += 1
        else:
            if reader.read(1) == 0:
                pos += min(1 << k, n - pos)  # zeros are already in place
                kp = min(kp + _U1, _KP_MAX)
            else:
                run = reader.read(k)
                if pos + run >= n:
                    raise CorruptStreamError("broken-run record exceeds symbol count")
                pos += run
                value = _gr_read(reader, k_r)
                krp = _adapt_krp(krp, value >> k_r)
                out[pos] = value + 1
                kp = max(0, kp - _D1)
                pos += 1
    if reader.bytes_consumed() != len(data) - 5:
        raise CorruptStreamError("unconsumed bytes after the last symbol")
    # undo the sign interleave
    return np.where(out % 2 == 0, out // 2, -(out + 1) // 2)


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
    body = inflate(data)
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
    """zlib-framed DEFLATE at maximum compression."""
    return zlib.compress(bytes(data), 9)


def inflate(data: bytes) -> bytes:
    try:
        return zlib.decompress(bytes(data))
    except zlib.error as exc:
        raise CorruptStreamError(f"bad DEFLATE stream: {exc}") from exc
