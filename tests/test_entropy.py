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
from tricloud import codec, datagen, entropy
from tricloud.core import CodecParams
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


def _edge_planes():
    # every gap up to 66 and every unsigned value 62..66 (run mode codes one
    # less), 32-bit escapes at both extremes, gaps ending on and off run
    # boundaries, and trailing zeros flushed from each state; the lead-ins
    # start kP at 0, in run mode and near the top of its range
    g, v = 64, 64
    values = [v // 2 - 1, -(v // 2), v // 2, -(v // 2) - 1, v // 2 + 1, -(1 << 31), (1 << 31) - 1]
    gaps = [*range(g + 3), 2 * g, 2 * g + 1, 1000, (1 << 16) + 3]
    for lead in ([], [0] * 7 + [3], [0] * 5000 + [1]):
        for i, gap in enumerate(gaps):
            for value in values:
                yield lead + [0] * gap + [value]
            yield lead + [values[i % len(values)]] + [0] * gap
            yield lead + [0] * gap


def test_rlgr_tabulated_edges_match_the_bitwise_oracle():
    for plane in _edge_planes():
        symbols = np.array(plane, dtype=np.int64)
        payload = oracles.rlgr_encode(symbols)
        assert entropy.rlgr_encode(symbols) == payload
        assert np.array_equal(entropy.rlgr_decode(payload), symbols)


@pytest.mark.parametrize("intra_only", [False, True])
def test_rlgr_every_plane_of_a_small_gof_matches_the_bitwise_oracle(intra_only):
    # intra color planes are coder 2 and predicted planes RLGR; each plane
    # matches the bitwise oracle of the coder its first byte names
    gof = datagen.gen_sequence("sphere", 3, n_faces=200, upsample=4, seed=3)[0]
    params = CodecParams(9, 4, step_color_intra=4.0, step_color_inter=4.0)
    encoded = codec.encode_gof(gof, params, intra_only=intra_only)
    planes = [plane for frame in encoded.frames for plane in (
        frame.color_payloads if isinstance(frame, codec.IntraPayload)
        else frame.motion_payloads + frame.color_payloads)]
    assert [plane[0] for plane in planes] == [2] * 9 if intra_only else [2] * 3 + [1] * 12
    coders = {1: (oracles.rlgr_encode, oracles.rlgr_decode, entropy.rlgr_decode),
              2: (oracles.partitioned_encode, oracles.partitioned_decode,
                  entropy.partitioned_decode)}
    for payload in planes:
        encode, decode, library_decode = coders[payload[0]]
        symbols = decode(payload)
        assert encode(symbols) == payload
        assert np.array_equal(library_decode(payload), symbols)


def test_rlgr_encode_touches_only_the_nonzeros():
    # a 32 MiB plane with one nonzero: a per-symbol list or a same-sized
    # temporary would show here
    plane = np.zeros(1 << 22, dtype=np.int64)
    plane[1_234_567] = -5
    tracemalloc.start()
    try:
        payload = entropy.rlgr_encode(plane)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
    assert np.array_equal(entropy.rlgr_decode(payload), plane)


# --- plane coder 2: partitioned Rice / Exp-Golomb ---------------------------

def _coded(count, nonzeros, changes, unary_bytes, parts_hex):
    return struct.pack("<BIIII", 2, count, nonzeros, changes, unary_bytes) + bytes.fromhex(parts_hex)


# worked by hand from docs/bitstream.md: (symbols, payload)
_FROZEN_PLANES = [
    ([], _coded(0, 0, 0, 0, "")),
    # gaps [2, 1], magnitudes - 1 [4, 0] and one sign change, at nonzero 1:
    # its gap [1].  b = 1 in every partition, where Rice k = 0 ties Rice k = 1
    # and comes first: three headers 000000, prefixes 110 10 | 11110 0 | 10
    # and no remainder bits
    ([0, 0, 5, 0, -1], _coded(5, 2, 1, 2, "000000" "d790" "")),
    # the gap 300 (b = 8) in Rice k = 7: '110' and 0101100; the magnitude 6
    # (b = 2) in Rice k = 2: '10' and 10; no sign change
    ([0] * 300 + [7], _coded(301, 1, 0, 1, "1c20" "d0" "5900")),
    # four zero gaps in Rice k = 0; magnitudes - 1 [0, 0, 0, 40] (b = 3) in
    # Exp-Golomb k = 0: '0' '0' '0', then '111110' and 01001 (41 - 32)
    ([1, 1, 1, 41], _coded(4, 4, 0, 2, "0200" "01f0" "48")),
    # signs - - + -: changes at nonzeros 0, 2 and 3, gaps [0, 1, 0]; every
    # partition in Rice k = 0: 0000 | 0 0 10 110 | 0 10 0
    ([-1, -1, 2, -3], _coded(4, 4, 3, 2, "000000" "02c8")),
]


@pytest.mark.parametrize("symbols, payload", _FROZEN_PLANES)
def test_partitioned_frozen_payloads(symbols, payload):
    assert entropy.partitioned_encode(symbols) == payload
    assert entropy.partitioned_decode(payload, len(symbols)).tolist() == symbols
    assert oracles.partitioned_encode(symbols) == payload


_EXTREMES = [(1 << 31) - 1, -(1 << 31) + 1, -(1 << 31)]


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 1, 2, 127, 128, 129, 256, 257, 300]),
       st.integers(0, 31), st.integers(0, 3000), st.booleans())
@settings(max_examples=80, deadline=None)
def test_partitioned_matches_the_bitwise_oracle(seed, m, magnitude, zeros, extremes):
    # m nonzeros fill partitions of exactly 128 and 129 values, among zeros
    # at random, with magnitudes up to 2^magnitude and the 32-bit extremes
    rng = np.random.default_rng(seed)
    symbols = np.zeros(m + zeros, dtype=np.int64)
    values = rng.integers(-(1 << magnitude), 1 << magnitude, size=m)
    values[values == 0] = 1
    if extremes:
        values[:3] = _EXTREMES[:m]
    symbols[rng.choice(symbols.size, size=m, replace=False)] = values
    payload = oracles.partitioned_encode(symbols)
    assert entropy.partitioned_encode(symbols) == payload
    assert np.array_equal(entropy.partitioned_decode(payload), symbols)
    assert np.array_equal(oracles.partitioned_decode(payload), symbols)


@pytest.mark.parametrize("symbols", [
    np.zeros(1000, dtype=np.int64),
    np.array([0] * 999 + [-3]),
    np.array(_EXTREMES + [0, 0] + _EXTREMES[::-1]),
    np.arange(1, 129), np.arange(-129, 0),
    np.random.default_rng(4).integers(-(1 << 31), 1 << 31, size=700),
], ids=["all-zero", "one-at-the-end", "extremes", "128", "129", "dense"])
def test_partitioned_round_trips_edge_planes(symbols):
    assert np.array_equal(entropy.partitioned_decode(entropy.partitioned_encode(symbols)), symbols)


@given(st.lists(st.integers(-(1 << 31), (1 << 31) - 1), max_size=400), st.integers(0, 9))
@settings(max_examples=80, deadline=None)
def test_partitioned_round_trip_random(values, sparsity):
    symbols = np.array(values, dtype=np.int64)
    if sparsity:
        symbols[::sparsity] = 0
    assert np.array_equal(entropy.partitioned_decode(entropy.partitioned_encode(symbols)),
                          symbols)


def test_partitioned_rejects_out_of_range_symbols():
    for bad in ([1 << 31], [-(1 << 31) - 1]):
        with pytest.raises(RangeError):
            entropy.partitioned_encode(bad)


def _partitioned_sweep_payloads():
    # Rice and Exp-Golomb partitions, a partition of 129 values, and the
    # 32-bit extremes
    rng = np.random.default_rng(8)
    mixed = rng.integers(-60, 60, 400) * (rng.random(400) < 0.35)
    mixed[::97] = _EXTREMES + [1 << 20, -(1 << 12)]
    return [entropy.partitioned_encode(s) for s in (
        *(symbols for symbols, _ in _FROZEN_PLANES[1:]), np.arange(1, 130), mixed)]


def test_partitioned_every_prefix_cut_is_a_stream_error():
    for payload in _partitioned_sweep_payloads():
        for cut in range(len(payload)):
            with pytest.raises(CorruptStreamError):
                entropy.partitioned_decode(payload[:cut])


def _decoded_or_error(decode, payload):
    try:
        return decode(payload).tolist()
    except CorruptStreamError:
        return "error"


def test_partitioned_every_bit_flip_decodes_or_is_a_stream_error():
    # past the coder id and the symbol count: the flipped payload decodes or
    # raises CorruptStreamError, as the bitwise oracle does
    for payload in _partitioned_sweep_payloads():
        n = struct.unpack_from("<I", payload, 1)[0]
        for bit in range(40, 8 * len(payload)):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            got = _decoded_or_error(entropy.partitioned_decode, bytes(flipped))
            assert got == _decoded_or_error(oracles.partitioned_decode, bytes(flipped)), bit
            assert got == "error" or len(got) == n


def test_partitioned_decoder_checks():
    payload = entropy.partitioned_encode([0, 0, 5, 0, -1])
    cases = [
        ("unknown plane coder 1", b"\x01" + payload[1:]),
        ("3 nonzeros and 0 sign changes declared for 2 symbols", _coded(2, 3, 0, 0, "")),
        ("2 nonzeros and 3 sign changes", _coded(5, 2, 3, 0, "")),
        ("shorter than its parts", _coded(5, 2, 1, 0xFFFFFFFF, "000000d790")),
        # eight ones and no zero: no prefix ends
        ("fewer prefixes than values", _coded(5, 2, 1, 1, "000000" "ff")),
        # a prefix of 2 under Exp-Golomb k = 31, then under Rice k = 31
        ("does not fit in 32 bits", _coded(1, 1, 0, 1, "fc00" "c0" "00000000")),
        ("does not fit in 32 bits", _coded(1, 1, 0, 1, "7c00" "c0" "00000000")),
        # the gap 2 of [0, 0, 5] in a plane of 2 symbols
        ("nonzero positions or sign changes run past",
         b"\x02\x02" + entropy.partitioned_encode([0, 0, 5])[2:]),
        # a sign change at nonzero 1 of a single nonzero: prefixes 0 0 10
        ("nonzero positions or sign changes run past",
         _coded(1, 1, 1, 1, "000000" "20" "")),
        # -2^31 without its sign change: +2^31
        ("does not fit in signed 32 bits", _coded(1, 1, 0, 1, "01e0" "40" "fffffffc")),
        ("remainder part does not end", entropy.partitioned_encode([0] * 300 + [7]) + b"\x00"),
    ]
    # -2^31: the magnitude 2^31 - 1 in Rice k = 30, '10' and thirty ones
    assert entropy.partitioned_encode([-(1 << 31)]) == _coded(1, 1, 1, 1, "01e000" "40" "fffffffc")
    for message, data in cases:
        with pytest.raises(CorruptStreamError, match=message):
            entropy.partitioned_decode(data)
        with pytest.raises(CorruptStreamError):
            oracles.partitioned_decode(data)
    with pytest.raises(CorruptStreamError, match="symbol count mismatch"):
        entropy.partitioned_decode(payload, 6)


def test_partitioned_rejects_set_padding_bits():
    # [0, 0, 5, 0, -1]: 18 header bits and 13 prefix bits, each part padded
    # with zeros to its last byte
    payload = entropy.partitioned_encode([0, 0, 5, 0, -1])
    for bit in [*range(17 * 8 + 18, 20 * 8), *range(20 * 8 + 13, 22 * 8)]:
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(CorruptStreamError, match="zero padding"):
            entropy.partitioned_decode(bytes(flipped))
    with pytest.raises(CorruptStreamError, match="remainder part does not end in zero padding"):
        entropy.partitioned_decode(entropy.partitioned_encode([0] * 300 + [7])[:-1] + b"\x01")


def test_partitioned_hostile_counts_are_refused_before_allocation():
    # 2^32 - 1 nonzeros declared: their headers alone would take 96 MiB of
    # the 1 MiB present
    hostile = _coded(0xFFFFFFFF, 0xFFFFFFFF, 0, 0, "") + bytes(1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match="shorter than its parts"):
            entropy.partitioned_decode(hostile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("declared", [(1 << 24) + 1, 1 << 31, (1 << 32) - 1])
def test_plane_decoders_refuse_counts_past_a_frame_before_allocation(declared):
    # a 5-byte RLGR payload and a 17-byte coder-2 payload, neither with a
    # count to match: their declared zeros would take 128 MiB to 32 GiB
    tracemalloc.start()
    try:
        for decode, payload in ((entropy.rlgr_decode, _payload(declared, "")),
                                (entropy.partitioned_decode, _coded(declared, 0, 0, 0, ""))):
            with pytest.raises(CorruptStreamError, match=f"declares {declared} symbols"):
                decode(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


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
    with pytest.raises(CorruptStreamError, match="shorter than its header"):
        entropy.index_runs_decode(entropy.deflate(b"\x01\x00"))
    zero_first = struct.pack("<I", 2) + np.array([0, 3], dtype="<u4").tobytes()
    with pytest.raises(MalformedIndexMapError, match="does not start at 0"):
        entropy.index_runs_decode(entropy.deflate(zero_first))


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
