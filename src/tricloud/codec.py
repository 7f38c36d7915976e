"""GOF codec: intra coding of a reference frame, closed-loop predictive coding
of the rest, and the TCB1 bitstream container.

Reference frame: each vertex snaps to the center of the voxel containing it,
and the geometry travels as deflated octree occupancy bytes plus a
duplicate-index run map; both sides build the reference state from exactly
that pair (voxel list, index map).  Faces travel deflated verbatim; colors are
voxelized over the refined quantized vertices and transform-coded.  Predicted
frames then ride entirely on the reference geometry: per-voxel means of the
current frame are differenced against the previous reconstruction, and the
residual is transform-coded over the *reference* voxel sets, whose pairing
plans both sides already have.
Geometry residuals are scaled to voxel units (x 2^J) before quantization so
step_motion is expressed in voxels; colors stay in native 0..255 units.

Everything the decoder derives (index maps, transform plans, weight order) is
recomputed from decoded geometry, never transmitted.  The encoder reconstructs
by calling the decoder's step (:meth:`FrameBuffer.advance`, and :func:`raht_inverse`
with the step) on the same integers, which is what makes encoder and decoder
buffers bit-identical.

The vertex order belongs to the stream: the intra payload codes the index map
and the faces under a stable sort of the vertices by voxel index, so the
duplicate-index run coder sees them in spatial scan order, and decoded frames
come back in that canonical order.  Each side's reference state labels
vertices as its own frames do; the sort keeps each voxel's vertices in input
order, so per-voxel sums add the same floats either way.
"""

from __future__ import annotations

import io
import struct
from dataclasses import astuple, dataclass

import numpy as np

from .core import (
    CodecParams,
    GroupOfFrames,
    TriangleCloudFrame,
    VoxelSet,
    _MAX_REFINED_POINTS,
    _next_frame,
    _read_exact,
    _read_struct,
    expected_color_count,
    validate_gof,
)
from .entropy import (
    RLGR_VERSION,
    deflate,
    index_runs_decode,
    index_runs_encode,
    inflate,
    partitioned_decode,
    partitioned_encode,
    rlgr_decode,
    rlgr_encode,
)
from .errors import (
    ConsistencyError,
    CorruptStreamError,
    FormatError,
    ParameterError,
    RangeError,
)
from .geom import _group_means, _sorted_rows, refine, voxel_coords, voxelize
from .octree import octree_parse, octree_serialize
from .transform import (
    RahtPlan,
    raht_forward,
    raht_inverse,
    raht_plan,
)

BITSTREAM_MAGIC = b"TCB1"
BITSTREAM_VERSION = 3  # 3 leads each plane with its coder id; 1 and 2 are refused

# GOF record header: depth, upsample, frame count, intra-only flag, the three
# stepsizes, vertex count, face count
_GOF_HEADER = "<IIIB3dII"

# vertices that a GOF may declare
_MAX_VERTICES = 1 << 24


class _FrameRecord:
    """One frame record's layout, declared once by each payload class: KIND is
    its type byte, INTRA whether it decodes without any frame before it, and
    COUNTS the struct of the count fields that lead the dataclass.  SECTIONS
    lists (field, planes, geometry) in stream order; a field of several planes
    is a tuple of sections, and its bytes count as geometry bits or color bits.
    """

    def sections(self) -> list:
        """(body, geometry) of every section, in stream order."""
        return [(body, geometry) for name, planes, geometry in self.SECTIONS
                for body in (getattr(self, name) if planes > 1 else (getattr(self, name),))]

    @property
    def geometry_bits(self) -> int:
        return 8 * sum(len(body) for body, geometry in self.sections() if geometry)

    @property
    def color_bits(self) -> int:
        return 8 * sum(len(body) for body, geometry in self.sections() if not geometry)


@dataclass(frozen=True)
class IntraPayload(_FrameRecord):
    """Bitstream sections of one intra-coded frame."""

    KIND, INTRA, COUNTS = 1, True, "<II"
    SECTIONS = (("octree_bytes", 1, True), ("index_run_bytes", 1, True),
                ("face_bytes", 1, True), ("color_payloads", 3, False))

    n_voxels: int
    n_refined_voxels: int
    octree_bytes: bytes
    index_run_bytes: bytes
    face_bytes: bytes
    color_payloads: tuple


@dataclass(frozen=True)
class PredictedPayload(_FrameRecord):
    """Bitstream sections of one predicted frame (residual coefficients only)."""

    KIND, INTRA, COUNTS = 2, False, "<"
    SECTIONS = (("motion_payloads", 3, True), ("color_payloads", 3, False))

    motion_payloads: tuple
    color_payloads: tuple


_RECORDS = {record.KIND: record for record in (IntraPayload, PredictedPayload)}


@dataclass(frozen=True)
class EncodedGof:
    """One GOF's worth of bitstream, ready for container framing."""

    params: CodecParams
    intra_only: bool
    n_vertices: int
    n_faces: int
    frames: tuple

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def payload_bits(self) -> dict:
        """Section accounting: the GOF's geometry, color and total bits."""
        geometry = sum(f.geometry_bits for f in self.frames)
        color = sum(f.color_bits for f in self.frames)
        return {"geometry": geometry, "color": color, "total": geometry + color}

    def refined_voxel_counts(self) -> list:
        """Occupied refined-voxel count per frame (predicted frames share the
        reference frame's voxelization)."""
        counts = []
        current = 0
        for payload in self.frames:
            if payload.INTRA:
                current = payload.n_refined_voxels
            counts.append(current)
        return counts


@dataclass(frozen=True)
class ReferenceState:
    """Geometry-derived context shared by every frame of a GOF (both sides).

    faces and vertex_index_map label vertices as the frames on the state's
    own side do: the encoder's in input order, the decoder's in the canonical
    order of the stream.  A vertex quantizes to the center of its voxel,
    vertex_centers[vertex_index_map].  Each plan carries its voxel count and
    the coefficient order its planes are coded in.
    """

    params: CodecParams
    faces: np.ndarray
    vertex_centers: np.ndarray
    vertex_index_map: np.ndarray
    vertex_plan: RahtPlan
    refined_index_map: np.ndarray
    refined_plan: RahtPlan


@dataclass(frozen=True)
class FrameBuffer:
    """Previous reconstruction: voxel vertex positions and refined-voxel colors."""

    vertex_positions: np.ndarray
    refined_colors: np.ndarray

    def advance(self, state: ReferenceState, motion_symbols: np.ndarray,
                color_symbols: np.ndarray) -> FrameBuffer:
        """The closed-loop step of a predicted frame: add the decoded residuals."""
        params = state.params
        motion = raht_inverse(state.vertex_plan, motion_symbols, params.step_motion)
        colors = raht_inverse(state.refined_plan, color_symbols, params.step_color_inter)
        return FrameBuffer(self.vertex_positions + motion / float(1 << params.depth),
                           self.refined_colors + colors)

    def frame(self, state: ReferenceState) -> TriangleCloudFrame:
        """The decoded frame: positions clamped into [0, 1), colors into [0, 255]."""
        vertices = np.take(self.vertex_positions, state.vertex_index_map, axis=0)
        colors = np.take(self.refined_colors, state.refined_index_map, axis=0)
        np.clip(vertices, 0.0, np.nextafter(1.0, 0.0), out=vertices)
        np.clip(colors, 0.0, 255.0, out=colors)
        return TriangleCloudFrame(vertices, state.faces, colors, state.params.upsample)


def _code_planes(symbols: np.ndarray, plan: RahtPlan, encode) -> tuple:
    return tuple(encode(symbols[plan.order, k]) for k in range(symbols.shape[1]))


def _decode_planes(payloads, plan: RahtPlan) -> np.ndarray:
    """Each plane by the coder its first byte names: 1 is RLGR, 2 partitioned.
    Only a plane's nonzeros are scattered through ``plan.order``."""
    symbols = np.zeros((plan.n, len(payloads)), dtype=np.int64, order="F")
    for k, payload in enumerate(payloads):
        decode = rlgr_decode if payload[:1] == bytes([RLGR_VERSION]) else partitioned_decode
        plane = decode(payload, plan.n)
        nonzero = np.flatnonzero(plane)
        symbols[plan.order[nonzero], k] = plane[nonzero]
    return symbols


def _check_sizes(params: CodecParams, n_vertices: int, n_faces: int, n_voxels: int) -> None:
    """Refuse a reference frame's declared sizes before any section is
    inflated or any face refined; encoder and decoder run the same check."""
    if n_vertices > _MAX_VERTICES:
        raise RangeError(f"{n_vertices} vertices exceed {_MAX_VERTICES}")
    n_refined = expected_color_count(n_faces, params.upsample)
    if n_refined > _MAX_REFINED_POINTS:
        raise RangeError(f"{n_refined} refined points per frame exceed {_MAX_REFINED_POINTS}")
    if not 1 <= n_voxels <= n_vertices:
        raise CorruptStreamError(f"{n_voxels} voxels declared for {n_vertices} vertices")


def _build_reference_state(params: CodecParams, faces: np.ndarray, voxels: VoxelSet,
                           index_map: np.ndarray) -> ReferenceState:
    """Everything derivable from the vertex voxels, the index map and the faces.

    index_map gives every vertex's row in voxels, in the labeling of faces; a
    quantized vertex is the center of its voxel.
    """
    centers = (voxel_coords(voxels) + 0.5) * (2.0 ** -params.depth)
    refined = refine(centers[index_map], faces, params.upsample)
    res_r = voxelize(refined, None, params.depth)
    return ReferenceState(
        params=params,
        faces=faces,
        vertex_centers=centers,
        vertex_index_map=index_map,
        vertex_plan=raht_plan(voxels),
        refined_index_map=res_r.index_map,
        refined_plan=raht_plan(res_r.voxel_set),
    )


def _encode_intra(frame: TriangleCloudFrame, params: CodecParams):
    """Intra-code one frame; returns (IntraPayload, ReferenceState, color symbols)."""
    if frame.upsample != params.upsample:
        raise ParameterError(
            f"frame upsample {frame.upsample} != codec upsample {params.upsample}"
        )
    res_v = voxelize(frame.vertices, None, params.depth)
    _check_sizes(params, frame.n_vertices, frame.n_faces, len(res_v.voxel_set))
    state = _build_reference_state(params, frame.faces, res_v.voxel_set, res_v.index_map)

    # colors ride on the refined quantized vertices, averaged per voxel
    colors_v = _group_means(frame.colors, state.refined_index_map, state.refined_plan.n)
    symbols = raht_forward(state.refined_plan, colors_v, params.step_color_intra).coefficients

    # the stream's canonical order: vertices in spatial scan order, so the
    # duplicate-index map grows in unit/zero steps, and faces re-indexed to it
    perm = _sorted_rows(res_v.index_map, (state.vertex_plan.n - 1).bit_length())[1]
    inverse_perm = np.empty_like(perm)
    inverse_perm[perm] = np.arange(perm.size)
    payload = IntraPayload(
        n_voxels=state.vertex_plan.n,
        n_refined_voxels=state.refined_plan.n,
        octree_bytes=deflate(octree_serialize(res_v.voxel_set)),
        index_run_bytes=index_runs_encode(res_v.index_map[perm]),
        face_bytes=deflate(inverse_perm[frame.faces].astype("<u4").tobytes()),
        color_payloads=_code_planes(symbols, state.refined_plan, partitioned_encode),
    )
    return payload, state, symbols


def encode_reference(frame: TriangleCloudFrame, params: CodecParams):
    """Intra-code one frame; returns (IntraPayload, ReferenceState, FrameBuffer)."""
    payload, state, symbols = _encode_intra(frame, params)
    recon_colors = raht_inverse(state.refined_plan, symbols, params.step_color_intra)
    return payload, state, FrameBuffer(state.vertex_centers, recon_colors)


def decode_reference(payload: IntraPayload, params: CodecParams,
                     n_vertices: int, n_faces: int):
    """Invert :func:`encode_reference`; returns (frame, ReferenceState, FrameBuffer)."""
    _check_sizes(params, n_vertices, n_faces, payload.n_voxels)
    voxels = octree_parse(inflate(payload.octree_bytes, params.depth * payload.n_voxels),
                          params.depth)
    if len(voxels) != payload.n_voxels:
        raise CorruptStreamError(
            f"octree decodes to {len(voxels)} voxels, header says {payload.n_voxels}"
        )
    # runs decode to steps of 0 or 1 from 0, and to n_vertices >= 1 entries,
    # so ending on the last voxel means every voxel holds a vertex
    index_map = index_runs_decode(payload.index_run_bytes, n_vertices)
    if index_map[-1] != len(voxels) - 1:
        raise CorruptStreamError("duplicate-index map does not cover the voxel list")

    face_raw = inflate(payload.face_bytes, 12 * n_faces)
    if len(face_raw) != 12 * n_faces:
        raise CorruptStreamError("face section length does not match face count")
    faces = np.frombuffer(face_raw, dtype="<u4").reshape(n_faces, 3).astype(np.int64)
    if faces.size and faces.max() >= n_vertices:
        raise CorruptStreamError("face index out of range of the vertex count")

    state = _build_reference_state(params, faces, voxels, index_map)
    if state.refined_plan.n != payload.n_refined_voxels:
        raise CorruptStreamError("refined voxel count disagrees with the header")

    symbols = _decode_planes(payload.color_payloads, state.refined_plan)
    buffer = FrameBuffer(state.vertex_centers,
                         raht_inverse(state.refined_plan, symbols, params.step_color_intra))
    return buffer.frame(state), state, buffer


def _encode_predicted(frame: TriangleCloudFrame, state: ReferenceState,
                      buffer: FrameBuffer):
    """Predict frame t from the buffer and code the residuals; returns
    (PredictedPayload, motion symbols, color symbols)."""
    params = state.params
    if frame.n_vertices != state.vertex_index_map.size:
        raise ConsistencyError("predicted frame vertex count differs from the reference")
    if frame.n_colors != state.refined_index_map.size:
        raise ConsistencyError("predicted frame color count differs from the reference")

    # the residuals are formed in place, in the per-voxel means' own arrays
    motion = _group_means(frame.vertices, state.vertex_index_map, state.vertex_plan.n)
    motion -= buffer.vertex_positions
    motion *= float(1 << params.depth)
    motion_symbols = raht_forward(state.vertex_plan, motion, params.step_motion).coefficients
    colors = _group_means(frame.colors, state.refined_index_map, state.refined_plan.n)
    colors -= buffer.refined_colors
    color_symbols = raht_forward(state.refined_plan, colors,
                                 params.step_color_inter).coefficients

    payload = PredictedPayload(
        motion_payloads=_code_planes(motion_symbols, state.vertex_plan, rlgr_encode),
        color_payloads=_code_planes(color_symbols, state.refined_plan, rlgr_encode),
    )
    return payload, motion_symbols, color_symbols


def encode_predicted(frame: TriangleCloudFrame, state: ReferenceState,
                     buffer: FrameBuffer):
    """Predict frame t from the buffer and code the residuals.

    Returns (PredictedPayload, FrameBuffer for frame t).
    """
    payload, motion_symbols, color_symbols = _encode_predicted(frame, state, buffer)
    del frame  # the buffer update does not read it, so a streamed frame is freed here
    return payload, buffer.advance(state, motion_symbols, color_symbols)


def decode_predicted(payload: PredictedPayload, state: ReferenceState,
                     buffer: FrameBuffer):
    """Invert :func:`encode_predicted`; returns (frame, FrameBuffer for frame t)."""
    buffer = buffer.advance(state, _decode_planes(payload.motion_payloads, state.vertex_plan),
                            _decode_planes(payload.color_payloads, state.refined_plan))
    return buffer.frame(state), buffer


def encode_frames(frames, n_frames: int, params: CodecParams,
                  intra_only: bool = False) -> EncodedGof:
    """Encode one GOF of ``n_frames`` frames, read from ``frames`` one at a time.

    The frames must already be checked, as :func:`core.read_gof_frames` and
    :func:`core.validate_gof` do.  One input frame is held at a time, beside
    the reference state and the frame buffer; knowing the count up front lets
    a hybrid GOF skip the buffer update of its last frame, which nothing reads.
    """
    frames = iter(frames)
    reference = _next_frame(frames, n_frames)
    n_vertices, n_faces = reference.n_vertices, reference.n_faces
    if intra_only or n_frames == 1:
        # no later frame reads the reconstruction of an intra-only frame or
        # of a lone reference frame
        payloads = [_encode_intra(reference, params)[0]]
        del reference  # dropped before the next frame is read
        payloads.extend(_encode_intra(_next_frame(frames, n_frames), params)[0]
                        for _ in range(n_frames - 1))
    else:
        payload, state, buffer = encode_reference(reference, params)
        del reference
        payloads = [payload]
        for _ in range(n_frames - 2):
            payload, buffer = encode_predicted(_next_frame(frames, n_frames), state, buffer)
            payloads.append(payload)
        # nothing reads the last frame's buffer
        payloads.append(_encode_predicted(_next_frame(frames, n_frames), state, buffer)[0])
    if next(frames, None) is not None:
        raise ConsistencyError(f"more frames than the {n_frames} declared")
    return EncodedGof(
        params=params,
        intra_only=bool(intra_only),
        n_vertices=n_vertices,
        n_faces=n_faces,
        frames=tuple(payloads),
    )


def encode_gof(gof: GroupOfFrames, params: CodecParams, intra_only: bool = False) -> EncodedGof:
    """Encode one GOF (hybrid by default, all-intra on request); it is validated first."""
    validate_gof(gof)
    return encode_frames(gof.frames, gof.n_frames, params, intra_only)


def decode_frames(encoded: EncodedGof):
    """Decode one GOF record, yielding each frame as it is made.

    Only the reference state and the frame buffer carry over from one frame
    to the next, so a consumer that drops each frame holds one at a time.
    """
    params = encoded.params
    state = None
    buffer = None
    for payload in encoded.frames:
        if payload.INTRA:
            state = buffer = None  # a reference frame reads nothing decoded before it
            frame, state, buffer = decode_reference(
                payload, params, encoded.n_vertices, encoded.n_faces
            )
        else:
            if state is None:
                raise CorruptStreamError("predicted frame before any reference frame")
            frame, buffer = decode_predicted(payload, state, buffer)
        yield frame
        del frame  # dropped before the next frame is decoded, not while suspended


def decode_gof(encoded: EncodedGof) -> GroupOfFrames:
    """Decode one GOF record back to triangle-cloud frames."""
    return GroupOfFrames(tuple(decode_frames(encoded)))


# ---------------------------------------------------------------------------
# TCB1 container framing (layout in docs/bitstream.md)
# ---------------------------------------------------------------------------

def _pack_section(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


def _section(fp) -> bytes:
    (length,) = _read_struct(fp, "<I")
    return _read_exact(fp, length)


def serialize_gof_record(encoded: EncodedGof) -> bytes:
    """The body of one length-prefixed GOF record."""
    p = encoded.params
    parts = [
        struct.pack(
            _GOF_HEADER,
            p.depth,
            p.upsample,
            encoded.n_frames,
            1 if encoded.intra_only else 0,
            p.step_motion,
            p.step_color_intra,
            p.step_color_inter,
            encoded.n_vertices,
            encoded.n_faces,
        )
    ]
    for payload in encoded.frames:
        counts = astuple(payload)[:-len(payload.SECTIONS)]  # the count fields lead
        parts.append(struct.pack("<B", payload.KIND) + struct.pack(payload.COUNTS, *counts))
        parts.extend(_pack_section(body) for body, _ in payload.sections())
    return b"".join(parts)


def parse_gof_record(data: bytes) -> EncodedGof:
    fp = io.BytesIO(data)
    depth, upsample, n_frames, intra_flag, s_m, s_ci, s_cp, n_vertices, n_faces = (
        _read_struct(fp, _GOF_HEADER)
    )
    try:
        params = CodecParams(depth, upsample, s_m, s_ci, s_cp)
    except ParameterError as exc:
        raise CorruptStreamError(f"bad GOF header: {exc}") from exc
    frames = []
    for _ in range(n_frames):
        (kind,) = _read_struct(fp, "<B")
        if kind not in _RECORDS:
            raise CorruptStreamError(f"unknown frame record type {kind}")
        record = _RECORDS[kind]
        frames.append(record(*_read_struct(fp, record.COUNTS), **{
            name: _section(fp) if planes == 1 else tuple(_section(fp) for _ in range(planes))
            for name, planes, _ in record.SECTIONS}))
    if fp.read(1):
        raise CorruptStreamError("trailing bytes inside a GOF record")
    if not frames or not frames[0].INTRA:
        raise CorruptStreamError("GOF record does not start with an intra frame")
    intra_only = bool(intra_flag)
    if intra_only and not all(f.INTRA for f in frames):
        raise CorruptStreamError("intra-only GOF contains predicted frames")
    return EncodedGof(params, intra_only, n_vertices, n_faces, tuple(frames))


def write_bitstream(fp, encoded_gofs) -> None:
    """Write a TCB1 container."""
    encoded_gofs = list(encoded_gofs)
    fp.write(BITSTREAM_MAGIC)
    fp.write(struct.pack("<HI", BITSTREAM_VERSION, len(encoded_gofs)))
    for encoded in encoded_gofs:
        fp.write(_pack_section(serialize_gof_record(encoded)))


def read_bitstream(fp) -> list:
    """Read a TCB1 container back into EncodedGof records."""
    magic = _read_exact(fp, 4)
    if magic != BITSTREAM_MAGIC:
        raise FormatError(f"bad container magic {magic!r}, expected {BITSTREAM_MAGIC!r}")
    version, n_gofs = _read_struct(fp, "<HI")
    if version != BITSTREAM_VERSION:
        raise FormatError(f"unsupported container version {version}")
    records = [parse_gof_record(_section(fp)) for _ in range(n_gofs)]
    if fp.read(1):
        raise CorruptStreamError("trailing bytes after the last GOF record")
    return records


def write_bitstream_file(path, encoded_gofs) -> None:
    with open(path, "wb") as fp:
        write_bitstream(fp, encoded_gofs)


def read_bitstream_file(path) -> list:
    with open(path, "rb") as fp:
        return read_bitstream(fp)
