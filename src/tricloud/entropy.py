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

    words = []
    kp, krp = _INIT_KP, _INIT_KRP
    pos = 0
    nz_i = 0
    n = arr.size
    while pos < n:
        k = kp >> _L
        k_r = krp >> _L
        if k:
            next_nz = nonzeros[nz_i]
            if next_nz == n or next_nz - pos >= 1 << k:
                # 2^k zeros; with no nonzero left, this bit flushes the
                # trailing zeros, since the decoder clamps a run at the end
                words.append("0")
                kp = min(kp + _U1, _KP_MAX)
                pos += 1 << k
                continue
            words.append(format((1 << k) | (next_nz - pos), "b"))  # '1', k-bit gap
            pos = next_nz
            value = u[pos] - 1
        else:
            value = u[pos]
        p = value >> k_r
        if p < _ESC:
            # p ones, then a zero and the low k_r bits under a leading 1 cut off
            words.append("1" * p + format((2 << k_r) | (value & ((1 << k_r) - 1)), "b")[1:])
        else:
            words.append("1" * _ESC + format(value, "032b"))
        krp = _adapt_krp(krp, p)
        if k:
            kp = max(0, kp - _D1)
            nz_i += 1
        elif value:
            kp = max(0, kp - _D0)
            nz_i += 1
        else:
            kp = min(kp + _U0, _KP_MAX)
        pos += 1
    bits = "".join(words)
    body = (int(bits or "0", 2) << (-len(bits) % 8)).to_bytes((len(bits) + 7) // 8, "big")
    return bytes([RLGR_VERSION]) + struct.pack("<I", n) + body


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
    # a symbol costs at most 1 + 24 run bits, 24 escape ones and 32 raw bits
    if len(data) - 5 > (81 * n + 7) // 8:
        raise CorruptStreamError("RLGR body longer than its symbol count allows")

    n_bits = 8 * (len(data) - 5)
    bits = format(int.from_bytes(data[5:], "big"), f"0{n_bits}b") if n_bits else ""
    out = np.zeros(n, dtype=np.int64)
    kp, krp = _INIT_KP, _INIT_KRP
    pos = b = 0
    try:
        while pos < n:
            k = kp >> _L
            k_r = krp >> _L
            if k:
                if bits[b] == "0":
                    b += 1
                    pos += 1 << k  # zeros are already in place; the loop ends at n
                    kp = min(kp + _U1, _KP_MAX)
                    continue
                pos += int(bits[b + 1:b + 1 + k], 2)  # '1', k-bit gap
                b += 1 + k
                if pos >= n:
                    raise CorruptStreamError("broken-run record exceeds symbol count")
            end = bits.find("0", b, b + _ESC)
            if end < 0:  # escape, or a prefix cut short by the end of the body
                value = int(bits[b + _ESC:b + _ESC + 32], 2)
                b += _ESC + 32
            else:
                low = int(bits[end + 1:end + 1 + k_r], 2) if k_r else 0
                value = ((end - b) << k_r) | low
                b = end + 1 + k_r
            krp = _adapt_krp(krp, value >> k_r)
            if k:
                out[pos] = value + 1
                kp = max(0, kp - _D1)
            elif value:
                out[pos] = value
                kp = max(0, kp - _D0)
            else:
                kp = min(kp + _U0, _KP_MAX)
            pos += 1
    except (IndexError, ValueError) as exc:
        raise CorruptStreamError("bitstream ended mid-codeword") from exc
    if not n_bits - 8 < b <= n_bits or "1" in bits[b:]:
        raise CorruptStreamError("RLGR body does not end in zero padding within its last byte")
    # undo the sign interleave in place: 0,1,2,3,... -> 0,-1,1,-2,...
    sign = out & 1
    out >>= 1
    out ^= np.negative(sign, out=sign)
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
    """zlib-framed DEFLATE at maximum compression."""
    return zlib.compress(bytes(data), 9)


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
