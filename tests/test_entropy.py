"""RLGR coder, duplicate-index runs, and the DEFLATE helpers.

The frozen byte strings below were worked out by hand from the coding rules
(sign interleave, Golomb-Rice codewords, run mode, MSB-first packing) so the
wire format cannot drift silently.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tricloud import entropy
from tricloud.errors import CorruptStreamError, MalformedIndexMapError, RangeError


def _payload(count, body_hex):
    return bytes([1]) + struct.pack("<I", count) + bytes.fromhex(body_hex)


def test_rlgr_frozen_empty():
    assert entropy.rlgr_encode([]) == _payload(0, "")


def test_rlgr_frozen_single_symbols():
    # u = interleave(x); start in GR mode with kR = 1
    # 0 -> u=0: prefix '0' + low bit '0'            -> 00?????? = 0x00
    # 1 -> u=2: prefix '10' + low bit '0'           -> 100????? = 0x80
    # -1 -> u=1: prefix '0' + low bit '1'           -> 01?????? = 0x40
    assert entropy.rlgr_encode([0]) == _payload(1, "00")
    assert entropy.rlgr_encode([1]) == _payload(1, "80")
    assert entropy.rlgr_encode([-1]) == _payload(1, "40")


def test_rlgr_frozen_run_mode_trace():
    # eight zeros push k from 0 up to 1 (six GR-coded '0' bits, the first
    # costing two bits while kR is still 1), then one complete run of two
    # zeros, then a broken run: '1', gap 0, and GR(u(3)-1 = 5) = '111110'
    assert entropy.rlgr_encode([0] * 8 + [3]) == _payload(9, "00be")


def test_rlgr_frozen_escape():
    # u(24) = 48, p = 48 >> 1 = 24: twenty-four ones then raw 32-bit value
    assert entropy.rlgr_encode([24]) == _payload(1, "ffffff00000030")


def test_rlgr_decode_frozen_payloads():
    assert entropy.rlgr_decode(_payload(0, "")).tolist() == []
    assert entropy.rlgr_decode(_payload(9, "00be")).tolist() == [0] * 8 + [3]
    assert entropy.rlgr_decode(_payload(1, "ffffff00000030")).tolist() == [24]


def test_rlgr_round_trip_extremes():
    lo, hi = -(1 << 31), (1 << 31) - 1
    syms = np.array([lo, hi, 0, lo, 0, 0, hi], dtype=np.int64)
    assert np.array_equal(entropy.rlgr_decode(entropy.rlgr_encode(syms)), syms)


def test_rlgr_rejects_out_of_range_symbols():
    with pytest.raises(RangeError):
        entropy.rlgr_encode([1 << 31])
    with pytest.raises(RangeError):
        entropy.rlgr_encode([-(1 << 31) - 1])


def test_rlgr_long_zero_tail_is_compact():
    blob = entropy.rlgr_encode(np.zeros(100000, dtype=np.int64))
    assert len(blob) < 40  # run mode covers 2^k zeros per bit
    assert np.count_nonzero(entropy.rlgr_decode(blob)) == 0
    assert entropy.rlgr_decode(blob).size == 100000


def test_rlgr_count_argument_checked():
    blob = entropy.rlgr_encode([1, 2, 3])
    assert entropy.rlgr_decode(blob, 3).tolist() == [1, 2, 3]
    with pytest.raises(CorruptStreamError):
        entropy.rlgr_decode(blob, 4)


def test_rlgr_decode_error_paths():
    with pytest.raises(CorruptStreamError):
        entropy.rlgr_decode(b"\x01\x01\x00")  # shorter than the header
    with pytest.raises(CorruptStreamError):
        entropy.rlgr_decode(_payload(1, "80")[:-1])  # body missing
    bad_version = b"\x02" + entropy.rlgr_encode([5])[1:]
    with pytest.raises(CorruptStreamError):
        entropy.rlgr_decode(bad_version)
    with pytest.raises(CorruptStreamError):
        entropy.rlgr_decode(entropy.rlgr_encode([5]) + b"\x00")  # trailing byte


@given(st.lists(st.integers(-1000, 1000), max_size=300), st.integers(0, 9))
@settings(max_examples=120, deadline=None)
def test_rlgr_round_trip_random(values, sparsity):
    syms = np.array(values, dtype=np.int64)
    if sparsity and syms.size:
        syms[::max(1, sparsity)] = 0
    assert np.array_equal(entropy.rlgr_decode(entropy.rlgr_encode(syms)), syms)


@given(st.integers(0, 2 ** 31), st.integers(1, 2000), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_rlgr_round_trip_sparse_profiles(seed, n, density):
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < density
    syms = rng.integers(-(1 << 20), 1 << 20, size=n) * mask
    assert np.array_equal(entropy.rlgr_decode(entropy.rlgr_encode(syms)), syms)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2000), st.floats(0.0, 1.0),
       st.integers(1, 31), st.booleans(), st.one_of(st.just(0), st.integers(70_000, 100_000)))
@settings(max_examples=80, deadline=None)
def test_rlgr_matches_the_bitwise_oracle(seed, n, density, magnitude, escapes, zero_run):
    # the bit-by-bit coder fixes the wire format: round trips alone would pass
    # if encoder and decoder drifted together
    rng = np.random.default_rng(seed)
    syms = rng.integers(-(1 << magnitude), 1 << magnitude, size=n) * (rng.random(n) < density)
    if escapes and n:
        syms[rng.integers(0, n, size=3)] = [-(1 << 31), (1 << 31) - 1, 1 << 30]
    syms = np.insert(syms, rng.integers(0, n + 1), np.zeros(zero_run, dtype=np.int64))
    blob = oracles.rlgr_encode(syms)
    assert entropy.rlgr_encode(syms) == blob
    assert np.array_equal(entropy.rlgr_decode(blob), syms)


def _sweep_payloads():
    # each payload escapes once; the first (u = 48 at kR = 1) and the sparse
    # one (32-bit extremes) also break runs and end in a flushed zero tail,
    # the dense one stays in Golomb-Rice mode
    rng = np.random.default_rng(5)
    sparse = rng.integers(-40, 40, 400) * (rng.random(400) < 0.15)
    sparse[::37] = -(1 << 31)
    sparse[-31:] = [(1 << 31) - 1] + [0] * 30
    dense = rng.integers(-300, 300, 150)
    return [entropy.rlgr_encode(s) for s in ([24] + [0] * 8 + [3] + [0] * 5, sparse, dense)]


def test_rlgr_every_prefix_cut_is_a_stream_error():
    for blob in _sweep_payloads():
        for cut in range(len(blob)):
            with pytest.raises(CorruptStreamError):
                entropy.rlgr_decode(blob[:cut])


def test_rlgr_every_bit_flip_decodes_or_is_a_stream_error():
    for blob in _sweep_payloads():
        (n,) = struct.unpack_from("<I", blob, 1)
        for bit in range(40, 8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            try:
                assert entropy.rlgr_decode(bytes(flipped)).size == n
            except CorruptStreamError:
                pass


def test_rlgr_rejects_set_padding_bits():
    # [1] codes as '100' and five padding bits, which must all be zero
    assert entropy.rlgr_decode(_payload(1, "80")).tolist() == [1]
    for bit in range(3, 8):
        with pytest.raises(CorruptStreamError):
            entropy.rlgr_decode(_payload(1, f"{0x80 | (0x80 >> bit):02x}"))
    with pytest.raises(CorruptStreamError):
        entropy.rlgr_decode(entropy.rlgr_encode([1])[:-1] + b"\x81")


def test_rlgr_overlong_body_rejected_before_expansion():
    # one symbol needs at most 81 bits; a 1 MiB body is refused unexpanded
    hostile = bytes([1]) + struct.pack("<I", 1) + b"\xff" * (1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            entropy.rlgr_decode(hostile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_rlgr_decode_undoes_the_sign_interleave_in_place():
    # 24 bytes declaring 4,194,304 zeros: the 32 MiB result plus one
    # same-sized temporary at most
    payload = entropy.rlgr_encode(np.zeros(1 << 22, dtype=np.int64))
    assert len(payload) == 24
    tracemalloc.start()
    try:
        out = entropy.rlgr_decode(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.size == 1 << 22 and not out.any()
    assert peak <= 80 << 20
    values = np.arange(-(1 << 31), 1 << 31, 9_973_451)
    assert np.array_equal(entropy.rlgr_decode(entropy.rlgr_encode(values)), values)


# --- duplicate-index runs -------------------------------------------------

def test_index_runs_frozen_body():
    # steps of [-1, 0, 0, 1, 2, 2, 2, 3] = 1 0 1 1 0 0 1, runs 1,1,2,2,1
    # padded to even length with a zero run
    iv = np.array([0, 0, 1, 2, 2, 2, 3])
    body = entropy.inflate(entropy.index_runs_encode(iv))
    runs = [1, 1, 2, 2, 1, 0]
    assert body == struct.pack("<I", len(runs)) + np.array(runs, dtype="<u4").tobytes()


def test_index_runs_round_trip_hand_cases():
    for iv in ([0], [0, 1, 2, 3], [0, 0, 0, 0], [0, 1, 1, 2, 2, 2, 3]):
        arr = np.array(iv, dtype=np.int64)
        assert entropy.index_runs_decode(entropy.index_runs_encode(arr)).tolist() == iv


def test_index_runs_empty_map():
    blob = entropy.index_runs_encode(np.zeros(0, dtype=np.int64))
    assert entropy.index_runs_decode(blob).size == 0


def test_index_runs_reject_invalid_maps():
    for bad in ([1], [0, 2], [0, 1, 0], [-1, 0]):
        with pytest.raises(MalformedIndexMapError):
            entropy.index_runs_encode(np.array(bad))


def test_index_runs_corrupt_payloads():
    with pytest.raises(CorruptStreamError):
        entropy.index_runs_decode(b"not deflate data")
    truncated = entropy.deflate(struct.pack("<I", 4) + b"\x01\x00\x00\x00")
    with pytest.raises(CorruptStreamError):
        entropy.index_runs_decode(truncated)


def test_index_runs_decode_checks_expected_length():
    blob = entropy.index_runs_encode(np.array([0, 0, 1, 2, 2]))
    assert entropy.index_runs_decode(blob, 5).tolist() == [0, 0, 1, 2, 2]
    for wrong in (0, 4, 6):
        with pytest.raises(CorruptStreamError):
            entropy.index_runs_decode(blob, wrong)
    with pytest.raises(CorruptStreamError):
        entropy.index_runs_decode(entropy.index_runs_encode(np.zeros(0, dtype=np.int64)), 3)


@given(st.integers(0, 2 ** 31), st.integers(1, 500))
@settings(max_examples=100, deadline=None)
def test_index_runs_round_trip_random(seed, n):
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, 2, size=n)
    steps[0] = 1
    iv = np.cumsum(steps) - 1
    assert np.array_equal(entropy.index_runs_decode(entropy.index_runs_encode(iv)), iv)


# --- deflate wrapper --------------------------------------------------------

def test_deflate_inflate_round_trip():
    data = bytes(range(256)) * 7
    assert entropy.inflate(entropy.deflate(data)) == data
    assert entropy.inflate(entropy.deflate(b"")) == b""


def test_inflate_rejects_garbage():
    with pytest.raises(CorruptStreamError):
        entropy.inflate(b"\x00\x01\x02 definitely not zlib")


def test_inflate_rejects_truncated_trailing_and_overlong_streams():
    data = bytes(range(256)) * 4
    blob = entropy.deflate(data)
    assert entropy.inflate(blob, len(data)) == data
    assert entropy.inflate(entropy.deflate(b""), 0) == b""
    for bad in (blob[:-1], blob[: len(blob) // 2], blob + b"\x00"):
        with pytest.raises(CorruptStreamError):
            entropy.inflate(bad)
    with pytest.raises(CorruptStreamError):
        entropy.inflate(blob, len(data) - 1)
