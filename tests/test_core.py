"""Domain types, validation, and the TCG2 raw file format."""

import io
import os
import struct
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tricloud import core
from tricloud.errors import (
    ConsistencyError,
    FormatError,
    ParameterError,
    RangeError,
    TruncatedStreamError,
)


def _frame(n_faces=2, upsample=2, seed=0, n_vertices=5):
    rng = np.random.default_rng(seed)
    vertices = rng.random((n_vertices, 3)) * 0.99
    faces = rng.integers(0, n_vertices, size=(n_faces, 3))
    colors = rng.integers(0, 256, size=(core.expected_color_count(n_faces, upsample), 3))
    return core.TriangleCloudFrame(vertices, faces, colors.astype(float), upsample)


def _write_gof(fp, gof, depth):
    core.write_gof_frames(fp, core.GofHeader(gof.n_frames, depth, gof.reference.upsample),
                          gof.frames)


def _read_gof(fp):
    """(GOF, depth) of the next TCG2 container in fp."""
    header, frames = core.read_gof_frames(fp)
    return core.GroupOfFrames(tuple(frames)), header.depth


def test_expected_color_count_formula():
    assert core.expected_color_count(1, 1) == 3
    assert core.expected_color_count(2000, 10) == 2000 * 11 * 12 // 2


def test_frame_exposes_counts_and_is_frozen():
    f = _frame(n_faces=3, upsample=2)
    assert (f.n_vertices, f.n_faces, f.n_colors) == (5, 3, 18)
    with pytest.raises(AttributeError):
        f.upsample = 4
    with pytest.raises(ValueError):
        f.vertices[0, 0] = 0.5  # arrays are locked too


def test_frame_shape_validation():
    with pytest.raises(ConsistencyError):
        core.TriangleCloudFrame(np.zeros((4, 2)), np.zeros((1, 3), int), np.zeros((3, 3)), 1)
    with pytest.raises(ConsistencyError):
        core.TriangleCloudFrame(np.zeros((4, 3)), np.zeros((1, 4), int), np.zeros((3, 3)), 1)
    with pytest.raises(ParameterError):
        core.TriangleCloudFrame(np.zeros((4, 3)), np.zeros((1, 3), int), np.zeros((3, 3)), 0)


def test_gof_accessors():
    frames = (_frame(seed=1), _frame(seed=2))
    gof = core.GroupOfFrames(frames)
    assert gof.n_frames == 2
    assert gof.reference is frames[0]
    assert gof.frames == frames
    with pytest.raises(ConsistencyError):
        core.GroupOfFrames(())


def test_validate_gof_passes_consistent_group():
    f1 = _frame(seed=3)
    f2 = core.TriangleCloudFrame(f1.vertices, f1.faces, f1.colors, f1.upsample)
    assert core.validate_gof(core.GroupOfFrames((f1, f2))) is not None


def test_validate_gof_catches_each_violation():
    base = _frame(n_faces=2, upsample=2, seed=4)

    def variant(**kw):
        fields = dict(vertices=base.vertices, faces=base.faces,
                      colors=base.colors, upsample=base.upsample)
        fields.update(kw)
        return core.TriangleCloudFrame(**fields)

    # face list must be shared verbatim
    other_faces = np.roll(np.asarray(base.faces), 1, axis=0)
    with pytest.raises(ConsistencyError, match="face mismatch"):
        core.validate_gof(core.GroupOfFrames((base, variant(faces=other_faces))))
    # vertex coordinates confined to [0, 1)
    bad_v = np.asarray(base.vertices).copy()
    bad_v[0, 0] = 1.0
    with pytest.raises(ConsistencyError, match="out of"):
        core.validate_gof(core.GroupOfFrames((variant(vertices=bad_v),)))
    # color rows must match the refinement count
    with pytest.raises(ConsistencyError, match="color count"):
        core.validate_gof(core.GroupOfFrames((variant(colors=base.colors[:-1]),)))
    # face indices must resolve
    oob = np.asarray(base.faces).copy()
    oob[0, 0] = 99
    with pytest.raises(ConsistencyError, match="face index"):
        core.validate_gof(core.GroupOfFrames((variant(faces=oob),)))
    # color range
    loud = np.asarray(base.colors).copy()
    loud[0, 0] = 300.0
    with pytest.raises(ConsistencyError, match="color component"):
        core.validate_gof(core.GroupOfFrames((variant(colors=loud),)))


@pytest.mark.parametrize("field", ["vertices", "colors"])
def test_validate_gof_rejects_nan(field):
    # NaN fails every comparison, so a range check must be written to fail on it
    base = _frame(seed=5)
    values = np.asarray(getattr(base, field)).copy()
    values[1, 2] = np.nan
    fields = dict(vertices=base.vertices, faces=base.faces, colors=base.colors,
                  upsample=base.upsample)
    fields[field] = values
    with pytest.raises(ConsistencyError):
        core.validate_gof(core.GroupOfFrames((core.TriangleCloudFrame(**fields),)))


def test_codec_params_validation():
    p = core.CodecParams(10, 3)
    assert (p.step_motion, p.step_color_intra, p.step_color_inter) == (1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        core.CodecParams(0, 3)
    with pytest.raises(ParameterError):
        core.CodecParams(21, 3)
    with pytest.raises(ParameterError):
        core.CodecParams(10, 0)
    with pytest.raises(ParameterError):
        core.CodecParams(10, 3, step_motion=0.0)
    with pytest.raises(ParameterError):
        core.CodecParams(10, 3, step_color_intra=float("nan"))
    with pytest.raises(ParameterError):
        core.CodecParams(10, 3, step_color_inter=float("-inf"))
    # the largest step: far above any useful one, far below overflow
    assert core.CodecParams(10, 3, step_motion=2.0 ** 32).step_motion == 2.0 ** 32
    with pytest.raises(ParameterError):
        core.CodecParams(10, 3, step_color_inter=np.nextafter(2.0 ** 32, np.inf))


def test_voxel_set_validation():
    vs = core.VoxelSet(2, np.array([3, 9, 50]))
    assert len(vs) == 3
    with pytest.raises(ConsistencyError):
        core.VoxelSet(2, np.array([9, 3]))  # must be sorted
    with pytest.raises(RangeError):
        core.VoxelSet(1, np.array([8]))  # out of the 3-bit range
    with pytest.raises(ConsistencyError):
        core.VoxelSet(2, np.array([1, 2]), np.zeros((3, 1)))  # row mismatch
    with pytest.raises(ParameterError, match="1..20"):
        core.VoxelSet(21, np.array([0]))


# --- file formats -----------------------------------------------------------

def test_frame_file_round_trip():
    f = _frame(n_faces=3, upsample=2, seed=7)
    buf = io.BytesIO()
    _write_gof(buf, core.GroupOfFrames((f,)), depth=9)
    buf.seek(0)
    gof, depth = _read_gof(buf)
    (back,) = gof.frames
    assert depth == 9
    assert back.upsample == f.upsample
    assert np.allclose(back.vertices, f.vertices, atol=1e-6)  # stored as f32
    assert np.array_equal(back.faces, f.faces)
    assert np.array_equal(back.colors, f.colors)  # integer colors survive


def test_gof_container_bytes_follow_the_documented_layout():
    # docs/bitstream.md, TCG2: the header and the faces once, then each
    # frame's f32 vertices and u8 colors
    vertices = [[0.0, 0.5, 0.25], [0.75, 0.0, 0.0], [0.0, 0.0, 0.5]]
    colors = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    f1 = core.TriangleCloudFrame(vertices, [[0, 1, 2]], colors, 1)
    f2 = core.TriangleCloudFrame(np.array(vertices) / 2, [[0, 1, 2]], colors[::-1], 1)
    buf = io.BytesIO()
    _write_gof(buf, core.GroupOfFrames((f1, f2)), depth=8)
    assert buf.getvalue() == (
        b"TCG2" + struct.pack("<5I", 2, 8, 1, 3, 1) + struct.pack("<3I", 0, 1, 2)
        + struct.pack("<9f", 0, 0.5, 0.25, 0.75, 0, 0, 0, 0, 0.5) + bytes(range(1, 10))
        + struct.pack("<9f", 0, 0.25, 0.125, 0.375, 0, 0, 0, 0, 0.25)
        + bytes([7, 8, 9, 4, 5, 6, 1, 2, 3]))


def test_vertex_just_below_one_survives_gof_round_trip():
    # 0.99999999 is inside [0, 1) but its nearest f32 is 1.0; the file must
    # still hold a coordinate that validate_gof accepts on the way back
    f = _frame(n_faces=2, upsample=2, seed=3)
    vertices = np.array(f.vertices)
    vertices[1] = [0.99999999, 0.5, 0.99999999]
    f = core.TriangleCloudFrame(vertices, f.faces, f.colors, f.upsample)
    gof = core.validate_gof(core.GroupOfFrames((f,)))
    buf = io.BytesIO()
    _write_gof(buf, gof, depth=8)
    buf.seek(0)
    back, _ = _read_gof(buf)
    got = back.reference.vertices
    assert got.max() < 1.0
    assert got[1, 0] == np.nextafter(np.float32(1), np.float32(0))
    assert np.allclose(got, vertices, atol=1e-6)


def test_frame_colors_clip_to_bytes():
    v = np.array([[0.1, 0.1, 0.1], [0.2, 0.1, 0.1], [0.1, 0.2, 0.1]])
    colors = np.array([[254.6, 0.4, 127.5], [254.5, 0.5, 1.0]])
    f = core.TriangleCloudFrame(v, np.array([[0, 1, 2]]), colors.repeat(2, axis=0)[:3], 1)
    buf = io.BytesIO()
    _write_gof(buf, core.GroupOfFrames((f,)), depth=4)
    buf.seek(0)
    back, _ = _read_gof(buf)
    # round half away from zero; the writer's frame check keeps colors in [0, 255]
    assert back.reference.colors[[0, 2]].tolist() == [[255.0, 0.0, 128.0],
                                                      [255.0, 1.0, 1.0]]


def _round_half_away_then_clip(colors):
    # x - floor(x) is exact for every float64 x >= 0, where floor(x + 0.5) is not:
    # x + 0.5 rounds 0.49999999999999994 up to 1.0
    magnitude = np.abs(colors)
    whole = np.floor(magnitude)
    rounded = (whole + (magnitude - whole >= 0.5)) * np.sign(colors)
    return np.clip(rounded, 0, 255).astype(np.uint8)


_COLOR_EDGES = [-0.0, 0.0, -0.5, 0.5, -1.5, 1.5, 127.5, 254.5, 255.0, 255.5, 256.0, -300.0,
                0.49999999999999994, np.nextafter(254.5, 0.0), 1e300, -1e300]


@given(hnp.arrays(np.float64, st.integers(0, 40),
                  elements=st.one_of(st.floats(-1e6, 1e6), st.sampled_from(_COLOR_EDGES),
                                     st.integers(-600, 600).map(lambda k: k / 2))))
@example(np.array(_COLOR_EDGES))
def test_colors_to_u8_matches_round_half_away_then_clip(colors):
    assert np.array_equal(core._colors_to_u8(colors), _round_half_away_then_clip(colors))


def _with_header_field(data, k, value):
    """A TCG2 container with u32 field ``k`` of its header (n_frames, depth,
    upsample, n_vertices, n_faces) set to ``value``."""
    return data[:4 + 4 * k] + struct.pack("<I", value) + data[8 + 4 * k:]


def test_frame_bad_magic_and_truncation():
    buf = io.BytesIO()
    _write_gof(buf, core.GroupOfFrames((_frame(seed=8),)), depth=5)
    data = buf.getvalue()
    with pytest.raises(FormatError, match="bad container magic"):
        core.read_gof_frames(io.BytesIO(b"XXXX" + data[4:]))
    with pytest.raises(TruncatedStreamError):
        list(core.read_gof_frames(io.BytesIO(data[:-3]))[1])
    # a depth or U that no frame may have is refused with the header
    for k, value in ((1, 21), (1, 0), (2, 0)):
        with pytest.raises(FormatError, match="implausible TCG2 header"):
            core.read_gof_frames(io.BytesIO(_with_header_field(data, k, value)))


def test_read_exact_reads_in_bounded_chunks(monkeypatch):
    data = bytes(range(10))
    sizes = []

    def recording():
        fp = io.BytesIO(data)
        return SimpleNamespace(read=lambda n: sizes.append(n) or fp.read(n))

    # one chunk comes back as the object read() returned, without a copy
    assert core._read_exact(SimpleNamespace(read=lambda n: data), 10) is data
    monkeypatch.setattr(core, "_READ_CHUNK", 4)
    assert core._read_exact(recording(), 10) == data
    assert sizes == [4, 4, 2]
    # a length the stream does not hold costs only the bytes it does hold
    sizes.clear()
    with pytest.raises(TruncatedStreamError, match="got 10"):
        core._read_exact(recording(), 1 << 40)
    assert sizes == [4, 4, 4, 4]


def test_gof_container_round_trip_shares_faces():
    f1 = _frame(n_faces=4, upsample=3, seed=9)
    f2 = core.TriangleCloudFrame(
        np.asarray(f1.vertices) * 0.5 + 0.1, f1.faces, f1.colors, f1.upsample
    )
    gof = core.GroupOfFrames((f1, f2))
    buf = io.BytesIO()
    _write_gof(buf, gof, depth=8)
    # the header and one face table for the whole group, then each frame's
    # f32 vertices and u8 colors
    assert len(buf.getvalue()) == 24 + 12 * 4 + 2 * (12 * f1.n_vertices + 3 * f1.n_colors)
    buf.seek(0)
    back, depth = _read_gof(buf)
    assert depth == 8 and back.n_frames == 2
    assert np.array_equal(back.frames[1].faces, f1.faces)


def test_gof_file_round_trip_multiple_groups(tmp_path):
    gofs = [
        core.GroupOfFrames((_frame(seed=10), _frame(seed=10))),
        core.GroupOfFrames((_frame(seed=12),)),
    ]
    path = tmp_path / "two.tcg"
    core.write_gof_file(path, gofs, depth=6)
    back, depth = core.read_gof_file(path)
    assert depth == 6
    assert [g.n_frames for g in back] == [2, 1]
    assert np.array_equal(back[0].frames[0].faces, gofs[0].frames[0].faces)


def test_gof_file_error_paths(tmp_path):
    path = tmp_path / "bad.tcg"
    path.write_bytes(core.GOF_MAGIC + struct.pack("<II", 1, 8))
    with pytest.raises(TruncatedStreamError):
        core.read_gof_file(path)
    empty = tmp_path / "empty.tcg"
    empty.write_bytes(b"")
    with pytest.raises(TruncatedStreamError):
        core.read_gof_file(empty)
    wrong = tmp_path / "wrong.tcg"
    wrong.write_bytes(b"BOGUS123")
    with pytest.raises(FormatError):
        core.read_gof_file(wrong)
    zero = tmp_path / "zero.tcg"
    zero.write_bytes(core.GOF_MAGIC + struct.pack("<IIIII", 0, 8, 2, 3, 1))
    with pytest.raises(FormatError, match="zero frames"):
        core.read_gof_file(zero)
    mixed = tmp_path / "mixed.tcg"
    gof = core.GroupOfFrames((_frame(seed=10),))
    with open(mixed, "wb") as fp:
        _write_gof(fp, gof, depth=8)
        _write_gof(fp, gof, depth=9)
    with pytest.raises(ConsistencyError, match="containers in one file disagree"):
        core.read_gof_file(mixed)


def test_a_frame_without_vertices_is_refused_by_reader_and_writer():
    # such a frame would store no bytes, so 24 bytes could declare 2^32-1 of them
    data = core.GOF_MAGIC + struct.pack("<IIIII", 0xFFFFFFFF, 8, 1, 0, 0)
    _, frames = core.read_gof_frames(io.BytesIO(data))
    with pytest.raises(ConsistencyError, match="no vertices"):
        next(frames)
    empty = core.TriangleCloudFrame(np.zeros((0, 3)), np.zeros((0, 3), np.int64),
                                    np.zeros((0, 3)), 1)
    buf = io.BytesIO()
    with pytest.raises(ConsistencyError, match="no vertices"):
        core.write_gof_frames(buf, core.GofHeader(1, 8, 1), [empty])
    assert buf.getvalue() == b""


# Runs in a child process capped at 1 GiB of address space: a reader that
# trusts a hostile length fails there instead of in the test run.  It goes
# through a real file because io.BytesIO.read(n) does not preallocate n bytes.
_MUTATION_SWEEP = """
import io, random, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from tricloud import core, datagen
from tricloud.errors import TricloudError

path = sys.argv[1]
gof = datagen.gen_sequence("sphere", 2, n_faces=20, upsample=2, seed=1)[0]
core.write_gof_file(path, [gof], depth=8)
with open(path, "rb") as fp:
    data = fp.read()
rng = random.Random(1)
trials = [[(rng.randrange(len(data)), rng.randrange(256)) for _ in range(rng.randint(1, 3))]
          for _ in range(400)]
# and each byte of the header's five u32 fields set to a few telling values
trials += [[(at, value)] for at in range(4, 24) for value in (0, 1, 0x7F, 0xFF)]
for trial, edits in enumerate(trials):
    mutated = bytearray(data)
    for at, value in edits:
        mutated[at] = value
    with open(path, "wb") as fp:
        fp.write(mutated)
    try:
        gofs, depth = core.read_gof_file(path)
    except TricloudError:
        continue
    for read in gofs:
        buf = io.BytesIO()
        core.write_gof_frames(buf, core.GofHeader(read.n_frames, depth, read.reference.upsample),
                              read.frames)
        buf.seek(0)
        header, back = core.read_gof_frames(buf)
        assert header.depth == depth, trial
        for a, b in zip(read.frames, back, strict=True):
            assert a.upsample == b.upsample, trial
            for name in ("vertices", "faces", "colors"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), trial
"""


def test_mutated_gof_files_read_back_unchanged_or_raise(tmp_path):
    # each mutated file either reads and survives a write/read round trip,
    # or raises a TricloudError; any other exception fails the child
    src = os.path.dirname(os.path.dirname(core.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", _MUTATION_SWEEP, str(tmp_path / "m.tcg")],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


# The same sweep over a TCB1 stream, in a child capped at 1 GiB: every mutated
# stream is read and all its frames decoded, each of them finite.
_BITSTREAM_MUTATION_SWEEP = """
import random, resource, sys
import numpy as np
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tricloud import codec, core, datagen
from tricloud.errors import TricloudError

path = sys.argv[1]
gof = datagen.gen_sequence("sphere", 3, n_faces=60, upsample=3, seed=1)[0]
codec.write_bitstream_file(path, [codec.encode_gof(gof, core.CodecParams(8, 3))])
with open(path, "rb") as fp:
    data = fp.read()
rng = random.Random(1)
trials = [[(rng.randrange(len(data)), rng.randrange(256)) for _ in range(rng.randint(1, 3))]
          for _ in range(400)]
for trial, edits in enumerate(trials):
    mutated = bytearray(data)
    for at, value in edits:
        mutated[at] = value
    with open(path, "wb") as fp:
        fp.write(mutated)
    try:
        for encoded in codec.read_bitstream_file(path):
            for frame in codec.decode_frames(encoded):
                assert np.isfinite(frame.vertices).all() and np.isfinite(frame.colors).all()
    except TricloudError:
        pass
"""


def test_mutated_bitstreams_decode_or_raise(tmp_path):
    # each mutated stream either decodes or raises a TricloudError; any other
    # exception, a MemoryError above the cap included, fails the child
    src = os.path.dirname(os.path.dirname(core.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", _BITSTREAM_MUTATION_SWEEP, str(tmp_path / "m.tcb")],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_gof_writer_converts_colors_a_block_at_a_time(tmp_path):
    # one face at U = 1447 carries 1,049,076 colors, about 2^20: the writer's
    # float temporaries are one block, not a copy of the frame's 24 MiB
    rng = np.random.default_rng(21)
    upsample = 1447
    n_colors = core.expected_color_count(1, upsample)
    frame = core.TriangleCloudFrame(rng.random((3, 3)) * 0.99, [[0, 1, 2]],
                                    rng.uniform(0.0, 255.0, (n_colors, 3)), upsample)
    path = tmp_path / "big.tcg"
    with open(path, "wb") as fp:
        tracemalloc.start()
        try:
            core.write_gof_frames(fp, core.GofHeader(1, 10, upsample), [frame])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 << 20, f"write_gof_frames peaked {peak / 2 ** 20:.1f} MiB above its input"
    assert path.read_bytes()[-3 * n_colors:] == core._colors_to_u8(frame.colors).tobytes()


def test_colors_to_u8_edges_map_as_before():
    colors = np.array([[0.5, 1.5, 127.5], [254.5, -1.0, 255.5], [256.0, 0.49, 254.49]])
    assert core._colors_to_u8(colors).tolist() == [[1, 2, 128], [255, 0, 255], [255, 0, 254]]


def test_colors_to_u8_rounds_the_largest_double_below_one_half_down():
    # 0.49999999999999994 + 0.5 rounds up to 1.0 in float64
    colors = np.array([np.nextafter(0.5, 0.0), np.nextafter(1.5, 0.0), 0.5])
    assert core._colors_to_u8(colors).tolist() == [0, 1, 1]
    assert _round_half_away_then_clip(colors).tolist() == [0, 1, 1]


def test_gof_frames_stream_through_reader_and_writer(tmp_path):
    f1 = _frame(n_faces=4, upsample=3, seed=9)
    f2 = core.TriangleCloudFrame(np.asarray(f1.vertices) * 0.5, f1.faces, f1.colors, 3)
    gof = core.GroupOfFrames((f1, f2))
    core.write_gof_file(tmp_path / "whole.tcg", [gof], depth=8)
    whole = io.BytesIO((tmp_path / "whole.tcg").read_bytes())
    streamed = io.BytesIO()
    core.write_gof_frames(streamed, core.GofHeader(2, 8, 3), iter(gof.frames))
    assert streamed.getvalue() == whole.getvalue()

    streamed.seek(0)
    header, frames = core.read_gof_frames(streamed)
    assert header == core.GofHeader(2, 8, 3)
    # the container header and the faces are read at once, each frame when it
    # is asked for
    assert streamed.tell() == 24 + 12 * 4
    assert [np.array_equal(a.colors, b.colors) for a, b in zip(frames, gof.frames)] == [
        True, True]
    assert streamed.tell() == len(whole.getvalue())


def test_gof_frame_writer_checks_count_and_each_frame():
    f1 = _frame(n_faces=4, upsample=3, seed=9)
    header = core.GofHeader(2, 8, 3)
    with pytest.raises(ConsistencyError, match="fewer frames than the 2 declared"):
        core.write_gof_frames(io.BytesIO(), header, [f1])
    with pytest.raises(ConsistencyError, match="more frames than the 2 declared"):
        core.write_gof_frames(io.BytesIO(), header, [f1, f1, f1])
    stranger = _frame(n_faces=4, upsample=3, seed=10)
    with pytest.raises(ConsistencyError, match="frame 2: face mismatch"):
        core.write_gof_frames(io.BytesIO(), header, [f1, stranger])
    with pytest.raises(ConsistencyError, match="frame 1: upsample factor mismatch"):
        core.write_gof_frames(io.BytesIO(), core.GofHeader(1, 8, 2), [f1])
    grown = core.TriangleCloudFrame(np.vstack([f1.vertices, [[0.5, 0.5, 0.5]]]),
                                    f1.faces, f1.colors, 3)
    with pytest.raises(ConsistencyError, match="frame 2: vertex count mismatch"):
        core.write_gof_frames(io.BytesIO(), header, [f1, grown])


def test_gof_writer_refuses_face_indices_beyond_its_vertices():
    # the container stores faces as u32: the frame check bounds them by the
    # vertex count, a u32 header field, before the header or a face is written
    frame = core.TriangleCloudFrame(np.full((3, 3), 0.5), [[0, 1, 1 << 32]],
                                    np.zeros((3, 3)), 1)
    buf = io.BytesIO()
    with pytest.raises(ConsistencyError, match="frame 1: face index out of range"):
        core.write_gof_frames(buf, core.GofHeader(1, 8, 1), [frame])
    assert buf.getvalue() == b""


@pytest.mark.parametrize("depth", [0, 21, -1])
def test_gof_frame_writer_refuses_a_depth_no_reader_accepts(depth, tmp_path):
    # the readers take depths 1..20 only, so the writer writes no byte of
    # a container they would reject, and no file
    f1 = _frame(n_faces=4, upsample=3, seed=9)
    buf = io.BytesIO()
    with pytest.raises(ParameterError, match="depth must be in 1..20"):
        core.write_gof_frames(buf, core.GofHeader(1, depth, 3), [f1])
    assert buf.getvalue() == b""
    path = tmp_path / "bad.tcg"
    with pytest.raises(ParameterError, match="depth must be in 1..20"):
        core.write_gof_file(path, [core.GroupOfFrames((f1,))], depth)
    assert not path.exists()


def test_gof_reader_checks_each_frame_as_it_arrives():
    f1 = _frame(n_faces=4, upsample=3, seed=9)
    buf = io.BytesIO()
    _write_gof(buf, core.GroupOfFrames((f1, f1)), depth=8)
    data = bytearray(buf.getvalue())
    # the first x of frame 2, after the header, the faces and frame 1
    at = 24 + 12 * 4 + 12 * f1.n_vertices + 3 * f1.n_colors
    data[at:at + 4] = struct.pack("<f", 1.5)
    header, frames = core.read_gof_frames(io.BytesIO(data))
    assert next(frames).n_faces == 4
    with pytest.raises(ConsistencyError, match="frame 2: vertex coordinate out of"):
        next(frames)
