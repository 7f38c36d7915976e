"""GOF codec: closed loop, canonical ordering, and the TCB1 container."""

import dataclasses
import hashlib
import io
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from functools import cache

import numpy as np
import pytest

import oracles
from tricloud import codec, core, datagen, entropy, geom, transform
from tricloud.core import CodecParams, GroupOfFrames, TriangleCloudFrame, validate_gof
from tricloud.errors import (
    ConsistencyError,
    CorruptStreamError,
    FormatError,
    ParameterError,
    RangeError,
    TruncatedStreamError,
)


def _gof(n_frames=4, n_faces=60, upsample=2, amplitude=0.03, seed=0, shape="sphere"):
    return datagen.gen_sequence(shape, n_frames, n_faces=n_faces, upsample=upsample,
                                amplitude=amplitude, seed=seed)[0]


def _params(depth=8, upsample=2, **kw):
    return CodecParams(depth, upsample, **kw)


def test_decoded_reference_geometry_is_quantized_original():
    gof = _gof(n_frames=1)
    params = _params()
    rec = codec.decode_gof(codec.encode_gof(gof, params))
    ref = gof.reference
    step = 2.0 ** -params.depth
    v_hat = transform.quantize(ref.vertices, step, transform.MIDRISE)
    perm = np.argsort(geom.voxelize(v_hat, None, params.depth).index_map, kind="stable")
    # decoded vertices are the canonical reordering of the quantized input,
    # reproduced bit for bit
    assert np.array_equal(rec.reference.vertices, v_hat[perm])


def _cube_touching_gof(colors):
    """Two sphere frames stretched to touch the unit cube on every side."""
    frames = []
    for frame in _gof(n_frames=2).frames:
        v = frame.vertices - frame.vertices.min(axis=0)
        v = v / v.max(axis=0) * np.nextafter(1.0, 0.0)
        frames.append(TriangleCloudFrame(v, frame.faces, colors(frame.colors.shape), 2))
    return GroupOfFrames(tuple(frames))


@pytest.mark.parametrize("colors, steps", [
    # saturated colors at coarse color steps: reconstructions overshoot [0, 255]
    (lambda shape: np.random.default_rng(0).choice([0.0, 255.0], size=shape),
     dict(step_color_intra=64, step_color_inter=64)),
    # mid-gray colors, coarse motion step: vertices overshoot the unit cube
    (lambda shape: np.full(shape, 128.0), dict(step_motion=4)),
])
def test_decoded_frames_are_clamped_into_the_valid_range(colors, steps):
    gof = _cube_touching_gof(colors)
    params = _params(**steps)
    encoded = codec.encode_gof(gof, params)
    validate_gof(codec.decode_gof(encoded))
    # only the output is clamped; the closed-loop buffers keep the overshoot
    _, state, buffer = codec.decode_reference(encoded.frames[0], params,
                                              encoded.n_vertices, encoded.n_faces)
    _, buffer = codec.decode_predicted(encoded.frames[1], state, buffer)
    v, c = buffer.vertex_positions, buffer.refined_colors
    assert v.min() < 0.0 or v.max() >= 1.0 or c.min() < 0.0 or c.max() > 255.0


def test_decoded_faces_reference_same_triangles():
    gof = _gof(n_frames=1)
    rec = codec.decode_gof(codec.encode_gof(gof, _params()))
    ref, out = gof.reference, rec.reference
    assert out.n_faces == ref.n_faces
    # same triangle soup up to the vertex relabeling: corner coordinates agree
    orig = transform.quantize(ref.vertices, 2.0 ** -8, transform.MIDRISE)[np.asarray(ref.faces)]
    got = np.asarray(out.vertices)[np.asarray(out.faces)]
    assert np.allclose(np.sort(orig.reshape(-1, 9), axis=0),
                       np.sort(got.reshape(-1, 9), axis=0))


def test_encoder_and_decoder_buffers_bit_exact():
    gof = _gof(n_frames=5, seed=3)
    params = _params(step_motion=2.0, step_color_intra=4.0, step_color_inter=4.0)
    ref = gof.reference
    payload, state, e_buf = codec.encode_reference(ref, params)
    _, d_state, d_buf = codec.decode_reference(payload, params, ref.n_vertices, ref.n_faces)
    assert np.array_equal(e_buf.vertex_positions, d_buf.vertex_positions)
    assert np.array_equal(e_buf.refined_colors, d_buf.refined_colors)
    for frame in gof.frames[1:]:
        payload, e_buf = codec.encode_predicted(frame, state, e_buf)
        _, d_buf = codec.decode_predicted(payload, d_state, d_buf)
        assert np.array_equal(e_buf.vertex_positions, d_buf.vertex_positions)
        assert np.array_equal(e_buf.refined_colors, d_buf.refined_colors)


def _assert_same_plan(plan, fresh):
    assert plan.n == fresh.n
    assert np.array_equal(plan.order, fresh.order)
    assert len(plan.levels) == len(fresh.levels)
    for level, want in zip(plan.levels, fresh.levels):
        for name in ("left_rows", "right_rows", "a", "b"):
            assert np.array_equal(getattr(level, name), getattr(want, name)), name


def test_reference_groupings_match_fresh_voxelization():
    # both sides' reference state must equal a fresh voxelization of its own
    # quantized vertices (the encoder's in input order, the decoder's in
    # canonical order) and of their refinement
    gof = _gof(n_frames=1, seed=6)
    params = _params()
    ref = gof.reference
    payload, e_state, _ = codec.encode_reference(ref, params)
    _, d_state, _ = codec.decode_reference(payload, params, ref.n_vertices, ref.n_faces)
    for state in (e_state, d_state):
        quantized = state.vertex_centers[state.vertex_index_map]
        res_v = geom.voxelize(quantized, None, params.depth)
        _assert_same_plan(state.vertex_plan, transform.raht_plan(res_v.voxel_set))
        assert np.array_equal(res_v.index_map, state.vertex_index_map)
        centers = (geom.voxel_coords(res_v.voxel_set) + 0.5) * 2.0 ** -params.depth
        assert np.array_equal(centers, state.vertex_centers)
        refined = geom.refine(quantized, state.faces, params.upsample)
        res_r = geom.voxelize(refined, None, params.depth)
        _assert_same_plan(state.refined_plan, transform.raht_plan(res_r.voxel_set))
        assert np.array_equal(res_r.index_map, state.refined_index_map)
    # the labels differ, the corners of every face do not
    assert np.array_equal(e_state.vertex_centers[e_state.vertex_index_map][e_state.faces],
                          d_state.vertex_centers[d_state.vertex_index_map][d_state.faces])


def _canonical(frame, perm):
    """frame with its vertices relabeled so that canonical row i is input row perm[i]."""
    inverse_perm = np.empty_like(perm)
    inverse_perm[perm] = np.arange(perm.size)
    return TriangleCloudFrame(frame.vertices[perm], inverse_perm[frame.faces], frame.colors,
                              frame.upsample)


def test_either_sides_state_codes_a_predicted_frame_alike():
    # the encoder's state labels vertices in input order and the decoder's in
    # canonical order; on the same frame in each labeling they code the same
    # bytes and step to the same buffer
    gof = _gof(n_frames=3, seed=12)
    params = _params(step_motion=2.0, step_color_inter=4.0)
    ref = gof.reference
    payload, e_state, e_buf = codec.encode_reference(ref, params)
    _, d_state, d_buf = codec.decode_reference(payload, params, ref.n_vertices, ref.n_faces)
    perm = np.argsort(geom.voxelize(ref.vertices, None, params.depth).index_map, kind="stable")
    assert not np.array_equal(perm, np.arange(perm.size))
    for frame in gof.frames[1:]:
        e_payload, e_buf = codec.encode_predicted(frame, e_state, e_buf)
        d_payload, d_buf = codec.encode_predicted(_canonical(frame, perm), d_state, d_buf)
        assert e_payload == d_payload
        assert np.array_equal(e_buf.vertex_positions, d_buf.vertex_positions)
        assert np.array_equal(e_buf.refined_colors, d_buf.refined_colors)


def test_hostile_index_runs_rejected_before_expansion():
    # a 16-byte section declaring one unit run of 10,000,000 entries must be
    # refused against the vertex count before the map is expanded
    gof = _gof(n_frames=1)
    params = _params()
    ref = gof.reference
    payload, _, _ = codec.encode_reference(ref, params)
    runs = entropy.deflate(struct.pack("<II", 1, 10_000_000))
    hostile = dataclasses.replace(payload, index_run_bytes=runs)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            codec.decode_reference(hostile, params, ref.n_vertices, ref.n_faces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@cache
def _deflated_zeros(n_bytes):
    z = zlib.compressobj(9)
    chunk = bytes(1 << 20)
    return b"".join([z.compress(chunk) for _ in range(n_bytes >> 20)] + [z.flush()])


@pytest.mark.parametrize("section", ["octree_bytes", "index_run_bytes", "face_bytes"])
def test_hostile_deflate_sections_rejected_while_inflating(section):
    # a 65 KB section that inflates to 64 MiB must be refused at the size the
    # header implies (depth * n_voxels, 4 * n_vertices + 8, 12 * n_faces)
    # before the rest of it is inflated
    gof = _gof(n_frames=1)
    params = _params()
    ref = gof.reference
    payload, _, _ = codec.encode_reference(ref, params)
    hostile = dataclasses.replace(payload, **{section: _deflated_zeros(64 << 20)})
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            codec.decode_reference(hostile, params, ref.n_vertices, ref.n_faces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("declared, error, message", [
    ({"n_vertices": (1 << 24) + 1}, RangeError, "16777217 vertices exceed 16777216"),
    # 2796203 faces refine to 6 points each at U = 2
    ({"n_faces": 2796203}, RangeError, "16777218 refined points per frame exceed 16777216"),
    ({"n_voxels": 0}, CorruptStreamError, "0 voxels declared for 40 vertices"),
    ({"n_voxels": 41}, CorruptStreamError, "41 voxels declared for 40 vertices"),
])
def test_declared_sizes_refused_before_any_section_is_inflated(monkeypatch, declared, error,
                                                               message):
    def inflate(*args):
        raise AssertionError("a section was inflated before the size check")

    ref = _gof(n_frames=1).reference
    params = _params()
    payload, _, _ = codec.encode_reference(ref, params)
    assert ref.n_vertices == 40
    sizes = {"n_vertices": ref.n_vertices, "n_faces": ref.n_faces, "n_voxels": payload.n_voxels}
    sizes.update(declared)
    monkeypatch.setattr(codec, "inflate", inflate)
    with pytest.raises(error, match=message):
        codec.decode_reference(dataclasses.replace(payload, n_voxels=sizes["n_voxels"]),
                               params, sizes["n_vertices"], sizes["n_faces"])


def test_reference_sections_out_of_range_rejected():
    # a face index past the vertex count, an empty index map and one that
    # misses voxels must raise a stream error rather than escape from the
    # geometry kernels
    gof = _gof(n_frames=1)
    params = _params()
    ref = gof.reference
    payload, state, _ = codec.encode_reference(ref, params)
    faces = state.faces.copy()
    faces[-1, 2] = ref.n_vertices
    bad_faces = dataclasses.replace(
        payload, face_bytes=entropy.deflate(faces.astype("<u4").tobytes()))
    with pytest.raises(CorruptStreamError, match="face index"):
        codec.decode_reference(bad_faces, params, ref.n_vertices, ref.n_faces)
    no_runs = dataclasses.replace(
        payload, index_run_bytes=entropy.deflate(struct.pack("<I", 0)))
    # no vertex can hold the declared voxels
    with pytest.raises(CorruptStreamError, match="voxels declared for 0 vertices"):
        codec.decode_reference(no_runs, params, 0, ref.n_faces)
    one_voxel = dataclasses.replace(
        payload, index_run_bytes=entropy.index_runs_encode(np.zeros(ref.n_vertices, int)))
    with pytest.raises(CorruptStreamError, match="does not cover"):
        codec.decode_reference(one_voxel, params, ref.n_vertices, ref.n_faces)


def test_vertex_coordinates_at_zero_encode():
    # 0.0 and values far below 2^-J are valid coordinates: they quantize to
    # the center of the first voxel, 2^-(J+1)
    frames = []
    for frame in _gof(n_frames=2, seed=8).frames:
        vertices = np.array(frame.vertices)
        vertices[0, 0] = 0.0
        vertices[1, 1] = 1e-30
        frames.append(TriangleCloudFrame(vertices, frame.faces, frame.colors, frame.upsample))
    gof = GroupOfFrames(tuple(frames))
    params = _params()
    buf = io.BytesIO()
    codec.write_bitstream(buf, [codec.encode_gof(gof, params)])
    buf.seek(0)
    rec = codec.decode_gof(codec.read_bitstream(buf)[0])
    assert rec.n_frames == 2
    # the canonical order: a stable sort of the vertices by voxel index
    perm = np.argsort(geom.voxelize(gof.reference.vertices, None, params.depth).index_map,
                      kind="stable")
    vertices = np.asarray(rec.reference.vertices)
    center = 2.0 ** -(params.depth + 1)
    assert vertices[np.flatnonzero(perm == 0)[0], 0] == center
    assert vertices[np.flatnonzero(perm == 1)[0], 1] == center


def test_encode_does_not_depend_on_debug_mode(tmp_path):
    # python -O strips asserts and sets __debug__ to False; the coded bytes
    # must not change
    script = (
        "import sys\n"
        "from tricloud import codec, datagen\n"
        "from tricloud.core import CodecParams\n"
        "if sys.flags.optimize < 1: sys.exit(3)\n"
        "gof = datagen.gen_sequence('sphere', 3, n_faces=60, upsample=2,\n"
        "                           amplitude=0.03, seed=4)[0]\n"
        "params = CodecParams(8, 2, 2.0, 4.0, 4.0)\n"
        "codec.write_bitstream_file(sys.argv[1], [codec.encode_gof(gof, params)])\n"
    )
    path = tmp_path / "optimized.tcb"
    src = os.path.dirname(os.path.dirname(codec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-O", "-c", script, str(path)], env=env,
                   check=True, timeout=120)
    gof = _gof(n_frames=3, seed=4)
    buf = io.BytesIO()
    codec.write_bitstream(buf, [codec.encode_gof(gof, CodecParams(8, 2, 2.0, 4.0, 4.0))])
    assert path.read_bytes() == buf.getvalue()


def test_fine_steps_reconstruct_colors_closely():
    gof = _gof(n_frames=3, seed=5)
    params = _params(step_motion=0.01, step_color_intra=0.01, step_color_inter=0.01)
    rec = codec.decode_gof(codec.encode_gof(gof, params))
    # every frame's colors are grouped on the reference frame's refined grid;
    # refined rows correspond index-wise across the vertex relabeling because
    # the face order is preserved
    ref = gof.reference
    v_hat = transform.quantize(ref.vertices, 2.0 ** -8, transform.MIDRISE)
    res = geom.voxelize(geom.refine(v_hat, ref.faces, ref.upsample), None, 8)
    im = res.index_map
    counts = np.bincount(im)
    for orig, out in zip(gof.frames, rec.frames):
        means = np.stack(
            [np.bincount(im, weights=orig.colors[:, k]) / counts for k in range(3)],
            axis=1,
        )
        assert np.allclose(np.asarray(out.colors), means[im], atol=0.02)


def test_static_predicted_frames_code_to_zero_symbols():
    frames = _gof(n_frames=1, seed=7).frames
    gof = GroupOfFrames(frames * 4)
    params = _params(step_motion=8.0, step_color_intra=8.0, step_color_inter=8.0)
    enc = codec.encode_gof(gof, params)
    for payload in enc.frames[1:]:
        for blob in payload.motion_payloads + payload.color_payloads:
            assert np.count_nonzero(entropy.rlgr_decode(blob)) == 0


def test_intra_only_mode():
    gof = _gof(n_frames=3, seed=9)
    enc = codec.encode_gof(gof, _params(), intra_only=True)
    assert enc.intra_only
    assert all(isinstance(f, codec.IntraPayload) for f in enc.frames)
    rec = codec.decode_gof(enc)
    assert rec.n_frames == 3
    counts = enc.refined_voxel_counts()
    assert len(counts) == 3 and all(c > 0 for c in counts)


def test_payload_bits_match_record_bytes():
    gof = _gof(n_frames=4, seed=11)
    enc = codec.encode_gof(gof, _params(step_motion=4.0))
    record = codec.serialize_gof_record(enc)
    framing = sum(33 if isinstance(f, codec.IntraPayload) else 25 for f in enc.frames)
    assert enc.payload_bits()["total"] % 8 == 0
    assert len(record) == 45 + framing + enc.payload_bits()["total"] // 8


def test_encode_is_deterministic():
    gof = _gof(n_frames=3, seed=13)
    a = codec.serialize_gof_record(codec.encode_gof(gof, _params()))
    b = codec.serialize_gof_record(codec.encode_gof(gof, _params()))
    assert a == b


def test_gof_record_round_trip():
    gof = _gof(n_frames=3, seed=15)
    enc = codec.encode_gof(gof, _params(step_motion=2.0, step_color_inter=4.0))
    record = codec.serialize_gof_record(enc)
    back = codec.parse_gof_record(record)
    assert back.params == enc.params
    assert back.n_vertices == enc.n_vertices and back.n_faces == enc.n_faces
    assert codec.serialize_gof_record(back) == record


def test_gof_record_corruption_detected():
    enc = codec.encode_gof(_gof(n_frames=2, seed=17), _params())
    record = bytearray(codec.serialize_gof_record(enc))
    with pytest.raises(CorruptStreamError):
        codec.parse_gof_record(bytes(record) + b"\x00")  # trailing garbage
    mangled = bytearray(record)
    mangled[45] = 9  # unknown frame type tag
    with pytest.raises(CorruptStreamError):
        codec.parse_gof_record(bytes(mangled))
    with pytest.raises(TruncatedStreamError):
        codec.parse_gof_record(bytes(record[:50]))
    depth_0 = bytearray(record)
    struct.pack_into("<I", depth_0, 0, 0)
    with pytest.raises(CorruptStreamError, match="bad GOF header"):
        codec.parse_gof_record(bytes(depth_0))
    for bad, message in ((dataclasses.replace(enc, frames=enc.frames[1:]),
                          "does not start with an intra frame"),
                         (dataclasses.replace(enc, intra_only=True),
                          "intra-only GOF contains predicted frames")):
        with pytest.raises(CorruptStreamError, match=message):
            codec.parse_gof_record(codec.serialize_gof_record(bad))


def test_each_plane_decodes_by_the_coder_its_first_byte_names():
    # intra color planes are coder 2 and predicted planes RLGR, but the
    # decoder reads either coder in any plane; any other id is corrupt
    enc = codec.encode_gof(_gof(n_frames=2, seed=17), _params())
    intra, predicted = enc.frames
    assert {p[0] for p in intra.color_payloads} == {entropy.PARTITIONED_CODER}
    assert {p[0] for p in predicted.motion_payloads + predicted.color_payloads} == {
        entropy.RLGR_VERSION}
    swapped = dataclasses.replace(enc, frames=(
        dataclasses.replace(intra, color_payloads=tuple(
            entropy.rlgr_encode(entropy.partitioned_decode(p)) for p in intra.color_payloads)),
        dataclasses.replace(predicted, motion_payloads=tuple(
            entropy.partitioned_encode(entropy.rlgr_decode(p))
            for p in predicted.motion_payloads))))
    for want, got in zip(codec.decode_gof(enc).frames, codec.decode_gof(swapped).frames):
        assert np.array_equal(want.vertices, got.vertices)
        assert np.array_equal(want.colors, got.colors)
    for plane, message in ((b"\x03" + intra.color_payloads[0][1:], "unknown plane coder 3"),
                           (b"", "shorter than its header")):
        bad = dataclasses.replace(intra, color_payloads=(plane, *intra.color_payloads[1:]))
        with pytest.raises(CorruptStreamError, match=message):
            codec.decode_gof(dataclasses.replace(enc, frames=(bad,)))


@pytest.mark.parametrize("intra_only", [True, False], ids=["all-intra", "hybrid"])
def test_any_deflate_level_decodes_to_the_same_frames(intra_only):
    # the DEFLATE level is the encoder's choice: every deflated section,
    # re-compressed at another level, decodes to the same frames
    enc = codec.encode_gof(_gof(n_frames=3, seed=17), _params(), intra_only=intra_only)
    want = codec.decode_gof(enc).frames

    def at_level(payload, level):
        if not payload.INTRA:
            return payload
        return dataclasses.replace(payload, **{
            name: zlib.compress(zlib.decompress(getattr(payload, name)), level)
            for name in ("octree_bytes", "index_run_bytes", "face_bytes")})

    for level in (1, 9):
        other = dataclasses.replace(enc, frames=tuple(at_level(p, level) for p in enc.frames))
        record = codec.serialize_gof_record(other)
        assert record != codec.serialize_gof_record(enc)
        got = codec.decode_gof(codec.parse_gof_record(record)).frames
        assert len(got) == len(want)
        for w, g in zip(want, got):
            assert np.array_equal(w.vertices, g.vertices)
            assert np.array_equal(w.faces, g.faces)
            assert np.array_equal(w.colors, g.colors)


@pytest.mark.parametrize("name", ["step_motion", "step_color_intra", "step_color_inter"])
def test_gof_header_step_above_the_bound_is_corrupt(name):
    # a 1e308 step overflows the dequantized coefficients, so without the
    # bound the stream decodes to NaN frames and raises nothing
    enc = codec.encode_gof(_gof(n_frames=2, n_faces=50, seed=1), _params())
    bits = io.BytesIO()
    codec.write_bitstream(bits, [enc])
    data = bytearray(bits.getvalue())
    # the record follows the 10-byte container header and its u32 length; its
    # steps follow depth, upsample, n_frames and the intra-only flag
    steps = ("step_motion", "step_color_intra", "step_color_inter")
    struct.pack_into("<d", data, 14 + struct.calcsize("<IIIB") + 8 * steps.index(name), 1e308)
    with pytest.raises(CorruptStreamError, match=f"bad GOF header: {name}"):
        codec.read_bitstream(io.BytesIO(bytes(data)))
    with pytest.raises(ParameterError, match=name):
        _params(**{name: 1e308})


def test_bitstream_round_trip_and_file_io(tmp_path):
    gofs = datagen.gen_sequence("two-blobs", 6, n_faces=40, upsample=2,
                                amplitude=0.02, seed=19, gof_size=3)
    params = _params()
    enc = [codec.encode_gof(gof, params) for gof in gofs]
    buf = io.BytesIO()
    codec.write_bitstream(buf, enc)
    buf.seek(0)
    back = codec.read_bitstream(buf)
    assert len(back) == 2
    assert [codec.serialize_gof_record(g) for g in back] == \
        [codec.serialize_gof_record(g) for g in enc]

    path = tmp_path / "seq.tcb"
    codec.write_bitstream_file(path, enc)
    rec = [codec.decode_gof(g) for g in codec.read_bitstream_file(path)]
    assert [g.n_frames for g in rec] == [3, 3]


class _ReadOnly:
    """A stream with nothing but read(), as a pipe offers: no seek, no tell."""

    def __init__(self, data: bytes):
        self.read = io.BytesIO(data).read


def test_readers_need_only_read():
    gof = _gof(n_frames=2, seed=20)
    enc = codec.encode_gof(gof, _params())
    bits = io.BytesIO()
    codec.write_bitstream(bits, [enc])
    back = codec.read_bitstream(_ReadOnly(bits.getvalue()))
    assert [codec.serialize_gof_record(g) for g in back] == [codec.serialize_gof_record(enc)]
    frames = io.BytesIO()
    core.write_gof_frames(frames, core.GofHeader(gof.n_frames, 8, gof.reference.upsample),
                          gof.frames)
    header, read = core.read_gof_frames(_ReadOnly(frames.getvalue()))
    frames.seek(0)
    _, seekable = core.read_gof_frames(frames)
    assert header.depth == 8
    assert all(np.array_equal(getattr(a, name), getattr(b, name))
               for a, b in zip(read, seekable, strict=True)
               for name in ("vertices", "faces", "colors"))


def test_bitstream_header_errors():
    gof = _gof(n_frames=2, seed=21)
    buf = io.BytesIO()
    codec.write_bitstream(buf, [codec.encode_gof(gof, _params())])
    data = buf.getvalue()
    with pytest.raises(FormatError):
        codec.read_bitstream(io.BytesIO(b"NOPE" + data[4:]))
    with pytest.raises(FormatError):
        codec.read_bitstream(io.BytesIO(data[:4] + b"\x63\x00" + data[6:]))
    with pytest.raises(TruncatedStreamError):
        codec.read_bitstream(io.BytesIO(data[:20]))
    with pytest.raises(CorruptStreamError):
        codec.read_bitstream(io.BytesIO(data + b"\xff"))


def test_encode_rejects_upsample_mismatch():
    gof = _gof(n_frames=1, upsample=2)
    with pytest.raises(ParameterError):
        codec.encode_gof(gof, CodecParams(8, 3))


def test_refined_point_cap_raises_before_refine(monkeypatch):
    # 60 faces at U = 2 refine to 360 points per frame; the encoder shares the
    # decoder's check, so it cannot write a stream the decoder would refuse
    def refine(*args):
        raise AssertionError("refine ran past the cap")

    monkeypatch.setattr(codec, "_MAX_REFINED_POINTS", 359)
    monkeypatch.setattr(codec, "refine", refine)
    with pytest.raises(RangeError, match="360 refined points per frame exceed 359"):
        codec.encode_gof(_gof(n_frames=2), _params())


def test_predicted_frame_count_mismatch_rejected():
    gof = _gof(n_frames=2, seed=23)
    params = _params()
    _, state, buf = codec.encode_reference(gof.reference, params)
    stranger = _gof(n_frames=1, n_faces=50, seed=24).reference
    with pytest.raises(ConsistencyError, match="vertex count differs"):
        codec.encode_predicted(stranger, state, buf)
    frame = gof.frames[1]
    short = TriangleCloudFrame(frame.vertices, frame.faces, frame.colors[:-1], frame.upsample)
    with pytest.raises(ConsistencyError, match="color count differs"):
        codec.encode_predicted(short, state, buf)


class _FrameOfManyVertices(TriangleCloudFrame):
    # a frame that reports the vertex cap's count without holding it
    n_vertices = 1 << 24


class _FrameOfTooManyVertices(TriangleCloudFrame):
    n_vertices = (1 << 24) + 1


def test_encode_refuses_more_vertices_than_the_cap():
    # the decoder's cap, so the encoder never writes a stream it refuses
    ref = _gof(n_frames=1).reference
    frame = _FrameOfManyVertices(ref.vertices, ref.faces, ref.colors, ref.upsample)
    assert codec.encode_frames([frame], 1, _params()).n_vertices == 1 << 24
    frame = _FrameOfTooManyVertices(ref.vertices, ref.faces, ref.colors, ref.upsample)
    with pytest.raises(RangeError, match="16777217 vertices exceed 16777216"):
        codec.encode_frames([frame], 1, _params())


def test_decode_sequence_empty_stream():
    buf = io.BytesIO()
    codec.write_bitstream(buf, [])
    buf.seek(0)
    assert codec.read_bitstream(buf) == []


def _counting_inverse(monkeypatch):
    calls = []

    def inverse(plan, coefficients, step):
        calls.append(plan.n)
        return transform.raht_inverse(plan, coefficients, step)

    monkeypatch.setattr(codec, "raht_inverse", inverse)
    return calls


@pytest.mark.parametrize("intra_only, n_inverses, digest, n_frames", [
    # no frame reads an intra-only frame's reconstruction
    (True, 0, "ea210e47414ef8d95d551d1da4e1ce7bcf349314e159d8ffcbb6e42d657ffeb3", 4),
    # the reference's colors, then motion and colors of each predicted frame
    # but the last
    (False, 1 + 2 * 2, "5a7ae7885cd012cb76a9ba3f2b21e1944d9b24c91e177b7a56bcca9d8cd5056c", 4),
    # no frame follows a lone reference frame
    (False, 0, "9fa3b11f1b6a6a650209b9e1c8bf8cebc898665640d2ac8854965352e3a96747", 1),
], ids=["intra-only", "hybrid", "lone-reference"])
def test_encoder_inverts_only_what_a_later_frame_reads(monkeypatch, intra_only, n_inverses,
                                                        digest, n_frames):
    gof = _gof(n_frames=n_frames, seed=17)
    calls = _counting_inverse(monkeypatch)
    enc = codec.encode_gof(gof, _params(step_color_intra=4.0), intra_only=intra_only)
    assert len(calls) == n_inverses
    assert hashlib.sha256(codec.serialize_gof_record(enc)).hexdigest() == digest


@cache
def _decoded_sphere():
    """A two-frame sphere of about 100k refined voxels: its encoded GOF, and
    the reference state and frame buffer after its first frame decodes."""
    gof = datagen.gen_sequence("sphere", 2, n_faces=2000, upsample=10, seed=1)[0]
    params = CodecParams(10, 10, step_color_intra=4.0, step_color_inter=4.0)
    encoded = codec.encode_gof(gof, params)
    _, state, buffer = codec.decode_reference(encoded.frames[0], params,
                                              encoded.n_vertices, encoded.n_faces)
    assert state.refined_plan.n > 90_000
    return encoded, state, buffer


@pytest.mark.parametrize("encode", [entropy.rlgr_encode, entropy.partitioned_encode])
@pytest.mark.parametrize("n", [1, 2, 700])
def test_decode_planes_equals_the_dense_scatter(encode, n):
    # the nonzeros alone, scattered into a zeroed block, bit for bit the
    # block a scatter of every symbol builds; planes in coding order: all
    # zero, one nonzero at the last position, dense, +-(2^31 - 1), sparse
    rng = np.random.default_rng(n)
    plan = transform.raht_plan(core.VoxelSet(5, np.sort(rng.choice(1 << 15, n, replace=False))))
    last = np.zeros(n, dtype=np.int64)
    last[-1] = -7
    planes = [np.zeros(n, dtype=np.int64), last, rng.integers(1, 40, n) * rng.choice([-1, 1], n),
              np.resize([(1 << 31) - 1, 0, -((1 << 31) - 1)], n)]
    planes += [np.where(rng.random(n) < density, rng.integers(-300, 301, n), 0)
               for density in (0.01, 0.1, 0.5)]
    payloads = [encode(plane) for plane in planes]
    got = codec._decode_planes(payloads, plan)
    assert got.dtype == np.int64 and got.flags.f_contiguous
    assert np.array_equal(got, oracles.decode_planes(payloads, plan))


def test_buffer_update_holds_one_coefficient_block():
    # the symbols are dequantized a column at a time inside the inverse: the
    # update holds its output, one (n, 3) float block and one column, not a
    # float copy of the symbols as well
    encoded, state, buffer = _decoded_sphere()
    motion = codec._decode_planes(encoded.frames[1].motion_payloads, state.vertex_plan)
    colors = codec._decode_planes(encoded.frames[1].color_payloads, state.refined_plan)
    tracemalloc.start()
    try:
        updated = buffer.advance(state, motion, colors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = updated.vertex_positions.nbytes + updated.refined_colors.nbytes
    assert peak <= output + 4 * 8 * state.refined_plan.n, f"peaked {peak / 2 ** 20:.2f} MiB"


def test_decoded_frame_gather_allocates_only_its_output():
    # about 100k refined voxels; a column-major buffer would be copied to row
    # order before the gather
    encoded, state, buffer = _decoded_sphere()
    _, buffer = codec.decode_predicted(encoded.frames[1], state, buffer)
    tracemalloc.start()
    try:
        frame = buffer.frame(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= frame.vertices.nbytes + frame.colors.nbytes + (1 << 20)


def _one_point_brighter_gof():
    """Two frames of a sphere with about 18k refined voxels; the second
    brightens one refined point's U, so its predicted U plane holds a few
    nonzeros and a zero DC."""
    ref = datagen.gen_sequence("sphere", 1, n_faces=1000, upsample=6, seed=2)[0].reference
    colors = ref.colors.copy()
    colors[colors.shape[0] // 2, 1] += 20.0
    return GroupOfFrames([ref, TriangleCloudFrame(ref.vertices, ref.faces, colors, 6)])


def test_skipping_zero_pairs_leaves_buffers_and_frames_bit_identical(monkeypatch):
    # the inverse that skips zero pairs against the row-wise oracle, through
    # the encoder's closed loop and the decoder
    gof = _one_point_brighter_gof()
    params = CodecParams(9, 6, step_color_intra=4.0, step_color_inter=4.0)
    walks = []
    live_subtrees = transform._live_subtrees

    def spy(levels, column):
        subtrees = live_subtrees(levels, column)
        walks.append(subtrees is not None and subtrees[0].size > 0)
        return subtrees

    def run():
        payload, state, buffer = codec.encode_reference(gof.reference, params)
        buffers = [buffer]
        for frame in gof.frames[1:]:
            payload, buffer = codec.encode_predicted(frame, state, buffer)
            buffers.append(buffer)
        encoded = codec.encode_gof(gof, params)
        arrays = [a for b in buffers for a in (b.vertex_positions, b.refined_colors)]
        arrays += [a for f in codec.decode_gof(encoded).frames for a in (f.vertices, f.colors)]
        return encoded, [a.tobytes() for a in arrays]

    monkeypatch.setattr(transform, "_live_subtrees", spy)
    encoded, fast = run()
    assert any(walks), "no column took the walk over live subtrees"
    _, state, _ = codec.decode_reference(encoded.frames[0], params, encoded.n_vertices,
                                         encoded.n_faces)
    symbols = codec._decode_planes(encoded.frames[1].color_payloads, state.refined_plan)
    assert any(symbols[0, k] == 0 and np.count_nonzero(symbols[:, k]) for k in range(3))

    def row_wise(plan, coefficients, step):
        return oracles.raht_inverse(plan, coefficients * step)

    monkeypatch.setattr(codec, "raht_inverse", row_wise)
    assert run()[1] == fast


def test_encode_frames_equals_encode_gof_and_checks_the_count():
    gof = _gof(n_frames=3, seed=5)
    params = _params(step_color_intra=2.0)
    for intra_only in (False, True):
        want = codec.encode_gof(gof, params, intra_only)
        got = codec.encode_frames(iter(gof.frames), 3, params, intra_only)
        assert codec.serialize_gof_record(got) == codec.serialize_gof_record(want)
        with pytest.raises(ConsistencyError, match="fewer frames than the 4 declared"):
            codec.encode_frames(iter(gof.frames), 4, params, intra_only)
        with pytest.raises(ConsistencyError, match="more frames than the 2 declared"):
            codec.encode_frames(iter(gof.frames), 2, params, intra_only)


def test_decode_frames_yields_decode_gof_one_frame_at_a_time():
    encoded = codec.encode_gof(_gof(n_frames=3, seed=6), _params())
    frames = codec.decode_frames(encoded)
    for want in codec.decode_gof(encoded).frames:
        got = next(frames)
        for name in ("vertices", "faces", "colors"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert next(frames, None) is None


def test_octree_with_fewer_voxels_than_the_record_declares():
    # at depth 4 two vertices share a voxel, so one more voxel than the octree
    # holds is still no more than the vertex count
    enc = codec.encode_gof(_gof(n_frames=2, seed=30), _params(depth=4))
    assert enc.frames[0].n_voxels < enc.n_vertices
    record = bytearray(codec.serialize_gof_record(enc))
    # the reference frame's n_voxels follows the 45-byte header and its type tag
    struct.pack_into("<I", record, 46, enc.frames[0].n_voxels + 1)
    with pytest.raises(CorruptStreamError, match="octree decodes to"):
        codec.decode_gof(codec.parse_gof_record(bytes(record)))


def test_face_section_shorter_than_the_face_count():
    ref = _gof(n_frames=1, seed=30).reference
    payload, _, _ = codec.encode_reference(ref, _params())
    short = dataclasses.replace(payload, face_bytes=entropy.deflate(b"\x00" * 12))
    with pytest.raises(CorruptStreamError, match="face section length"):
        codec.decode_reference(short, _params(), ref.n_vertices, ref.n_faces)


def test_decode_frames_of_a_gof_starting_with_a_predicted_frame():
    enc = codec.encode_gof(_gof(n_frames=2, seed=30), _params())
    with pytest.raises(CorruptStreamError, match="predicted frame before any reference"):
        list(codec.decode_frames(dataclasses.replace(enc, frames=enc.frames[1:])))
