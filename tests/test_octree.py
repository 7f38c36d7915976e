"""Octree occupancy bytes and the standalone point-cloud baseline coder."""

import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from test_transform import _workloads
from tricloud import codec, datagen, octree
from tricloud.core import CodecParams, VoxelSet
from tricloud.entropy import inflate
from tricloud.errors import (
    ConsistencyError,
    CorruptStreamError,
    EmptySetError,
    ParameterError,
    TrailingBytesError,
    TricloudError,
    TruncatedStreamError,
)
from tricloud.geom import voxelize


def test_serialize_single_voxel_depth_one():
    # child k sets bit 7-k: child 5 -> 0x04, child 0 -> 0x80
    assert octree.octree_serialize(VoxelSet(1, np.array([5]))) == b"\x04"
    assert octree.octree_serialize(VoxelSet(1, np.array([0]))) == b"\x80"


def test_serialize_full_root():
    assert octree.octree_serialize(VoxelSet(1, np.arange(8))) == b"\xff"


def test_serialize_depth_two_preorder():
    # codes 0 (child 0 / child 0) and 9 (child 1 / child 1): root byte 0xC0,
    # then the two depth-1 nodes in Morton order; at depth 2 that is also the
    # preorder
    data = octree.octree_serialize(VoxelSet(2, np.array([0, 9])))
    assert data == b"\xc0\x80\x40"


def test_parse_inverts_hand_case():
    back = octree.octree_parse(b"\xc0\x80\x40", 2)
    assert back.depth == 2
    assert back.codes.tolist() == [0, 9]


def test_depth_three_is_coded_level_by_level():
    # paths 0/0/0, 0/1/1 and 1/0/0: the root, then both depth-1 nodes, then
    # the three depth-2 nodes; the preorder would give c0 c0 80 40 80 80
    data = bytes.fromhex("c0c080804080")
    assert octree.octree_serialize(VoxelSet(3, np.array([0, 9, 64]))) == data
    assert octree.octree_parse(data, 3).codes.tolist() == [0, 9, 64]


def test_parse_emits_sorted_codes():
    rng = np.random.default_rng(4)
    codes = np.sort(rng.choice(8 ** 4, size=300, replace=False).astype(np.int64))
    back = octree.octree_parse(octree.octree_serialize(VoxelSet(4, codes)), 4)
    assert np.array_equal(back.codes, codes)
    assert np.all(np.diff(back.codes) > 0)


def test_serialize_rejects_empty_set():
    with pytest.raises(EmptySetError):
        octree.octree_serialize(VoxelSet(3, np.zeros(0, dtype=np.int64)))


def test_parse_error_paths():
    with pytest.raises(CorruptStreamError):
        octree.octree_parse(b"\x00", 1)  # occupancy byte with no children
    with pytest.raises(TruncatedStreamError):
        octree.octree_parse(b"\xc0\x80", 2)  # missing the second child node
    with pytest.raises(TrailingBytesError):
        octree.octree_parse(b"\x04\xff", 1)  # bytes left after the last leaf
    with pytest.raises(TruncatedStreamError):
        octree.octree_parse(b"", 1)


def test_parse_refuses_a_short_last_level_a_deep_zero_byte_and_trailing_bytes():
    codes = np.unique(np.random.default_rng(11).integers(0, 8 ** 12, size=500))
    data = octree.octree_serialize(VoxelSet(12, codes))
    with pytest.raises(TruncatedStreamError, match="level 11"):
        octree.octree_parse(data[:-1], 12)
    with pytest.raises(CorruptStreamError, match="no children"):
        octree.octree_parse(data[:-5] + b"\x00" + data[-4:], 12)
    with pytest.raises(TrailingBytesError, match="1 bytes"):
        octree.octree_parse(data + b"\x80", 12)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# 10^4 and 10^6 bytes, and two lengths that end on a complete level, where a
# string of 0xFF holds the most bytes per node of the last level it expands
@pytest.mark.parametrize("n_bytes", [10 ** 4, (8 ** 6 - 1) // 7, (8 ** 7 - 1) // 7, 10 ** 6])
def test_parse_refuses_a_string_of_0xff_within_256_bytes_per_input_byte(n_bytes):
    data = b"\xff" * n_bytes
    _, peak = _traced_peak(lambda: pytest.raises(TruncatedStreamError,
                                                 octree.octree_parse, data, 20))
    assert peak <= 256 * n_bytes, f"{peak / n_bytes:.0f} B per input byte"


def test_parse_of_a_complete_depth_8_tree_is_within_256_bytes_per_input_byte():
    data = b"\xff" * ((8 ** 8 - 1) // 7)  # every node of levels 0 to 7
    back, peak = _traced_peak(lambda: octree.octree_parse(data, 8))
    assert peak <= 256 * len(data), f"{peak / len(data):.0f} B per input byte"
    # the codes increase strictly, so these three facts make them 0 .. 8^8 - 1
    assert back.codes.size == 8 ** 8
    assert back.codes[0] == 0 and back.codes[-1] == 8 ** 8 - 1


def _mutations(data):
    """Every bit flip, every byte zeroed or set to 0xFF, every truncation, and
    one byte appended."""
    for i in range(len(data)):
        for byte in [data[i] ^ 1 << bit for bit in range(8)] + [0x00, 0xFF]:
            yield data[:i] + bytes([byte]) + data[i + 1:]
        yield data[:i]
    yield data + b"\x80"


@pytest.mark.parametrize("name", ["rd-point-S", "inter-L", "intra-W"])
def test_every_mutation_of_a_tiny_workload_octree_parses_or_is_refused(name, monkeypatch):
    workloads = _workloads(monkeypatch)
    w, depth = workloads.WORKLOADS[name].tiny(), workloads.DEPTH
    gof = datagen.gen_sequence(w.shape, 1, n_faces=w.faces, upsample=w.upsample,
                               seed=w.default_seed)[0]
    frame = codec.encode_gof(gof, CodecParams(depth, w.upsample)).frames[0]
    data = inflate(frame.octree_bytes)
    assert octree.octree_parse(data, depth).codes.size == frame.n_voxels
    n_parsed = 0
    for mutated in _mutations(data):
        try:
            back = octree.octree_parse(mutated, depth)
        except TricloudError:
            continue
        # a stream that parses is the serialization of what it parses to
        assert isinstance(back, VoxelSet) and back.depth == depth
        assert octree.octree_serialize(back) == mutated
        n_parsed += 1
    assert n_parsed > 0


@given(st.integers(1, 7), st.integers(0, 2 ** 31))
@settings(max_examples=80, deadline=None)
def test_octree_round_trip_random(depth, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, min(200, 8 ** depth) + 1))
    codes = np.sort(rng.choice(8 ** depth, size=n, replace=False).astype(np.int64))
    data = octree.octree_serialize(VoxelSet(depth, codes))
    back = octree.octree_parse(data, depth)
    assert np.array_equal(back.codes, codes)


@st.composite
def _voxel_sets(draw):
    """(depth, sorted unique codes): random leaves anywhere up to 2^(3J) - 1,
    plus nodes at random levels with all 8 children occupied."""
    depth = draw(st.integers(1, 20))
    codes = set(draw(st.lists(st.integers(0, 8 ** depth - 1), min_size=1, max_size=30)))
    for level in draw(st.lists(st.integers(0, depth - 1), max_size=3)):
        below = 8 ** (depth - level - 1)  # leaf codes under one child
        prefix = draw(st.integers(0, 8 ** level - 1))
        suffix = draw(st.integers(0, below - 1))
        codes.update((prefix * 8 + k) * below + suffix for k in range(8))
    return depth, np.array(sorted(codes), dtype=np.int64)


@given(_voxel_sets())
@settings(max_examples=200, deadline=None)
@example((1, np.arange(8)))
@example((20, np.array([0])))
@example((20, np.array([8 ** 20 - 1])))
@example((20, np.array([0, 8 ** 20 - 1])))
def test_serialize_is_the_level_order(voxels):
    depth, codes = voxels
    data = oracles.octree_levels(codes, depth)
    assert octree.octree_serialize(VoxelSet(depth, codes)) == data
    assert np.array_equal(octree.octree_parse(data, depth).codes, codes)


def test_serialize_peak_memory_per_voxel_is_bounded():
    # one level's arrays at a time, and the bytes of the levels done
    frame = datagen.gen_sequence("sphere", 1, n_faces=2000, upsample=2, seed=1)[0].reference
    voxel_set = voxelize(frame.vertices, None, 10).voxel_set
    tracemalloc.start()
    try:
        octree.octree_serialize(voxel_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100 * len(voxel_set), f"{peak / len(voxel_set):.0f} B per voxel"


def test_byte_count_matches_internal_nodes():
    # one byte per internal node: count them level by level
    codes = np.array([0, 1, 8, 65, 511], dtype=np.int64)
    depth = 3
    n_internal = sum(
        np.unique(codes >> (3 * (depth - d))).size for d in range(depth)
    )
    assert len(octree.octree_serialize(VoxelSet(depth, codes))) == n_internal


# --- whole-cloud baseline codec ---------------------------------------------

def _colored_set(depth, n, seed):
    rng = np.random.default_rng(seed)
    codes = np.sort(rng.choice(8 ** depth, size=n, replace=False).astype(np.int64))
    colors = rng.random((n, 3)) * 255
    return VoxelSet(depth, codes, colors)


def test_baseline_round_trip_geometry_exact():
    vs = _colored_set(4, 120, 7)
    geo, col = octree.baseline_encode_pointcloud(vs, 1.0)
    back = octree.baseline_decode_pointcloud(geo, col, 4, 1.0)
    assert np.array_equal(back.codes, vs.codes)
    assert back.depth == 4


def test_baseline_color_error_bounded_by_step():
    vs = _colored_set(4, 120, 8)
    step = 0.5
    geo, col = octree.baseline_encode_pointcloud(vs, step)
    back = octree.baseline_decode_pointcloud(geo, col, 4, step)
    # per-coefficient error is at most step/2; the orthonormal inverse can
    # spread it but never beyond the l2 ball
    worst = np.abs(back.attributes - vs.attributes).max()
    assert worst <= 0.5 * step * np.sqrt(len(vs))


def test_baseline_needs_attributes():
    vs = VoxelSet(3, np.array([1, 2, 3]))
    with pytest.raises(ConsistencyError):
        octree.baseline_encode_pointcloud(vs, 1.0)


@pytest.mark.parametrize("step", [0.0, -1.0])
def test_baseline_rejects_a_step_that_is_not_positive(step):
    with pytest.raises(ParameterError, match="step must be positive"):
        octree.baseline_encode_pointcloud(_colored_set(3, 20, 9), step)


def test_baseline_rejects_mismatched_stream():
    vs = _colored_set(3, 40, 9)
    geo, col = octree.baseline_encode_pointcloud(vs, 1.0)
    with pytest.raises(CorruptStreamError):
        octree.baseline_decode_pointcloud(geo[:-1] + b"\xff", col, 3, 1.0)
    for short in (col[:-1], col[:2], b""):  # plane cut short, length cut short, no plane
        with pytest.raises(TruncatedStreamError):
            octree.baseline_decode_pointcloud(geo, short, 3, 1.0)


def test_baseline_hostile_geometry_rejected_while_inflating():
    # a 65,238-byte section of deflated zeros (64 MiB inflated) is refused at
    # depth * n_voxels bytes, n_voxels read from the color plane's header
    z = zlib.compressobj(9)
    bomb = b"".join([z.compress(bytes(1 << 20)) for _ in range(64)] + [z.flush()])
    assert len(bomb) == 65_238
    _, col = octree.baseline_encode_pointcloud(_colored_set(3, 40, 9), 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            octree.baseline_decode_pointcloud(bomb, col, 3, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("columns, step, geometry_sha, color_sha", [
    (1, 1.0, "188febca8987fc2a635bddd6065478d09bc652eb0f15fa7ebb62ecdad1398080",
     "771ab02fe59652e30dafdfa467606a597b710997ae09df77e3da6ae93dc89c8b"),
    (3, 4.0, "02b0a855063fac0b49311ee29d7f506aca7422a90bbcdfd400a2cbd670b31dba",
     "d0b455872c89b46e6b4492658656dba6d0c05aa5d89789033b3f55e21d41e5e1"),
], ids=["1-column", "3-columns"])
def test_baseline_bytes_are_pinned(columns, step, geometry_sha, color_sha):
    # colors recorded before the baseline moved onto the codec's plane helpers,
    # geometry when deflate moved to level 5
    rng = np.random.default_rng(20 + columns)
    codes = np.sort(rng.choice(8 ** 6, size=900, replace=False).astype(np.int64))
    vs = VoxelSet(6, codes, rng.random((900, columns)) * 255)
    geo, col = octree.baseline_encode_pointcloud(vs, step)
    assert hashlib.sha256(geo).hexdigest() == geometry_sha
    assert hashlib.sha256(col).hexdigest() == color_sha
    back = octree.baseline_decode_pointcloud(geo, col, 6, step)
    assert back.attributes.shape == (900, columns)
