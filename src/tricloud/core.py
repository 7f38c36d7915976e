"""Domain types for dynamic triangle clouds, plus the TCG2 file format.

A *triangle cloud* is an unordered set of triangles: no manifold or
connectivity constraints, degenerate triangles allowed.  A frame holds
vertices in the unit cube, faces as vertex-index triples, and one YUV color
per *refined* vertex (the barycentric upsampling of every face by a factor
``U``, so there are exactly ``N_f * (U+1) * (U+2) / 2`` colors).

A group of frames (GOF) is a reference frame followed by predicted frames
that share the reference's face list and keep index-wise vertex/color
correspondence, which is what makes temporal prediction meaningful.

All types are immutable values and safe to share between threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyError,
    FormatError,
    ParameterError,
    RangeError,
    TruncatedStreamError,
)

GOF_MAGIC = b"TCG2"

# the largest f32 below 1: file vertices must stay inside [0, 1)
_F32_BELOW_ONE = np.nextafter(np.float32(1), np.float32(0))

# symbols stay below 2^31, the inverse gains at most 2^12 and a GOF adds at most
# 2^32 residuals, so at this largest step every reconstruction stays below 2^107
_MAX_STEP = 2.0 ** 32

# refined points per frame, n_faces (U+1)(U+2)/2, that a GOF may declare, and
# points of a render cloud, n_faces (UI+1)(UI+2)/2
_MAX_REFINED_POINTS = 1 << 24


def expected_color_count(n_faces: int, upsample: int) -> int:
    """Number of refined vertices (= colors) for ``n_faces`` faces at factor U."""
    return n_faces * (upsample + 1) * (upsample + 2) // 2


def _check_depth(depth) -> int:
    """The grid depth J as an int; its 3J-bit Morton codes fit an int64 for J <= 20."""
    depth = int(depth)
    if not (1 <= depth <= 20):
        raise ParameterError(f"depth must be in 1..20, got {depth}")
    return depth


def _check_upsample(upsample) -> int:
    """The refinement factor U as an int; U >= 1."""
    upsample = int(upsample)
    if upsample < 1:
        raise ParameterError(f"upsample factor must be >= 1, got {upsample}")
    return upsample


def _as_rows(values, n: int, what: str, dtype=np.float64) -> np.ndarray:
    """``values`` as a 2-D array of ``n`` rows of ``dtype`` (None keeps the input's)."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ConsistencyError(f"{what} must have {n} rows, got shape {arr.shape}")
    return arr


def _as_array(values, dtype, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ConsistencyError(f"{name} must be an (N, 3) array, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TriangleCloudFrame:
    """One frame: vertices (N_p,3) in [0,1), faces (N_f,3), colors (N_c,3) YUV."""

    vertices: np.ndarray
    faces: np.ndarray
    colors: np.ndarray
    upsample: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", _as_array(self.vertices, np.float64, "vertices"))
        object.__setattr__(self, "faces", _as_array(self.faces, np.int64, "faces"))
        object.__setattr__(self, "colors", _as_array(self.colors, np.float64, "colors"))
        object.__setattr__(self, "upsample", _check_upsample(self.upsample))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def n_colors(self) -> int:
        return self.colors.shape[0]


@dataclass(frozen=True)
class GroupOfFrames:
    """A reference frame plus predicted frames sharing faces and correspondence."""

    frames: tuple

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ConsistencyError("a group of frames must contain at least one frame")
        object.__setattr__(self, "frames", frames)

    @property
    def reference(self) -> TriangleCloudFrame:
        return self.frames[0]

    @property
    def n_frames(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class CodecParams:
    """Codec configuration.

    depth J sets the voxel grid (edge 2^-J).  step_motion is in voxel units
    (vertex coordinates are scaled by 2^J before residual quantization);
    the color steps are in native 0..255 YUV units; every step is in (0, 2^32].
    """

    depth: int
    upsample: int
    step_motion: float = 1.0
    step_color_intra: float = 1.0
    step_color_inter: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "depth", _check_depth(self.depth))
        object.__setattr__(self, "upsample", _check_upsample(self.upsample))
        for name in ("step_motion", "step_color_intra", "step_color_inter"):
            value = float(getattr(self, name))
            if not 0.0 < value <= _MAX_STEP:
                raise ParameterError(f"{name} must be in (0, 2^32], got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class VoxelSet:
    """Occupied voxels at a given depth: sorted unique Morton codes + attributes.

    ``attributes`` is an optional (N, K) float matrix carrying whatever signal
    rides on the voxels (colors, coordinates, residuals...).  The integer
    coordinates of the voxels are :func:`geom.voxel_coords`.
    """

    depth: int
    codes: np.ndarray
    attributes: np.ndarray | None = field(default=None)

    def __post_init__(self):
        depth = _check_depth(self.depth)
        codes = np.ascontiguousarray(np.asarray(self.codes, dtype=np.int64).ravel())
        if codes.size and (codes[0] < 0 or codes[-1] >= 1 << (3 * depth)):
            raise RangeError(f"codes must lie in [0, 2^{3 * depth})")
        if codes.size > 1 and not np.all(codes[1:] > codes[:-1]):
            raise ConsistencyError("voxel codes must be strictly increasing")
        codes.flags.writeable = False
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "codes", codes)
        if self.attributes is not None:
            attrs = np.ascontiguousarray(_as_rows(self.attributes, codes.size, "attributes"))
            attrs.flags.writeable = False
            object.__setattr__(self, "attributes", attrs)

    def __len__(self) -> int:
        return int(self.codes.size)


def check_frame(frame: TriangleCloudFrame, t: int, upsample: int, faces: np.ndarray,
                n_vertices: int) -> None:
    """Check frame ``t`` (from 0) of a GOF against its reference frame's upsample
    factor, faces and vertex count, and against its own invariants; raise
    ConsistencyError if one fails."""
    label = f"frame {t + 1}"
    if frame.upsample != upsample:
        raise ConsistencyError(f"{label}: upsample factor mismatch")
    if frame.faces.shape != faces.shape or not np.array_equal(frame.faces, faces):
        raise ConsistencyError(f"{label}: face mismatch with the reference frame")
    if frame.n_vertices != n_vertices:
        raise ConsistencyError(f"{label}: vertex count mismatch with the reference frame")
    if frame.n_vertices == 0:  # so each stored frame holds at least 12 bytes
        raise ConsistencyError(f"{label}: no vertices")
    if frame.n_faces and (frame.faces.min() < 0 or frame.faces.max() >= frame.n_vertices):
        raise ConsistencyError(f"{label}: face index out of range")
    # written so that NaN, which fails every comparison, fails the check
    if frame.vertices.size and not (frame.vertices.min() >= 0.0
                                    and frame.vertices.max() < 1.0):
        raise ConsistencyError(f"{label}: vertex coordinate out of [0, 1)")
    expected = expected_color_count(frame.n_faces, frame.upsample)
    if frame.n_colors != expected:
        raise ConsistencyError(
            f"{label}: color count {frame.n_colors} != N_f(U+1)(U+2)/2 = {expected}"
        )
    if frame.colors.size and not (frame.colors.min() >= 0.0
                                  and frame.colors.max() <= 255.0):
        raise ConsistencyError(f"{label}: color component out of [0, 255]")


def validate_gof(gof: GroupOfFrames) -> GroupOfFrames:
    """Check every GOF invariant; return the GOF unchanged or raise ConsistencyError."""
    ref = gof.reference
    for t, frame in enumerate(gof.frames):
        check_frame(frame, t, ref.upsample, ref.faces, ref.n_vertices)
    return gof


# ---------------------------------------------------------------------------
# TCG2 binary format (little-endian; see docs/bitstream.md)
# ---------------------------------------------------------------------------

# a declared length is read this many bytes at a time, so a hostile length
# costs no more memory than the bytes the stream really holds
_READ_CHUNK = 16 << 20
# colors are converted to u8 this many rows at a time, so a frame's float
# temporaries stay small however many colors it has
_COLOR_BLOCK = 1 << 16


def _read_exact(fp, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise TruncatedStreamError; needs only ``fp.read``."""
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = fp.read(min(remaining, _READ_CHUNK))
        if not chunk:
            raise TruncatedStreamError(f"expected {n} bytes, got {n - remaining}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_struct(fp, layout: str) -> tuple:
    """Read one fixed-size record laid out as the ``struct`` format ``layout``."""
    return struct.unpack(layout, _read_exact(fp, struct.calcsize(layout)))


def _colors_to_u8(colors: np.ndarray) -> np.ndarray:
    # round half away from zero, then clip; file colors are u8.  On [0, 255]
    # rounding half up is rounding half away, so clipping first is the same.
    # One float temporary: the clipped copy is rounded in place
    rounded = np.clip(colors, 0, 255)
    rounded += 0.5
    np.floor(rounded, out=rounded)
    return rounded.astype(np.uint8)


@dataclass(frozen=True)
class GofHeader:
    """What a caller declares ahead of a GOF's frames: the frame count, the grid
    depth and the upsample factor.  A TCG2 container stores these, then the
    first frame's vertex count and faces, which every frame shares."""

    n_frames: int
    depth: int
    upsample: int


def _next_frame(frames, n_frames: int) -> TriangleCloudFrame:
    frame = next(frames, None)
    if frame is None:
        raise ConsistencyError(f"fewer frames than the {n_frames} declared")
    return frame


def write_gof_frames(fp, header: GofHeader, frames) -> None:
    """Write a TCG2 container of ``header.n_frames`` frames as ``frames`` yields them.

    Each frame is checked against the header and the first frame, then written
    before the next one is asked for, so a caller that yields frames as it
    makes them holds one at a time.  The first frame's vertex count and faces
    go into the container header, so only vertices and colors follow per frame.
    A depth that no reader accepts is refused before any byte is written.
    """
    _check_depth(header.depth)
    frames = iter(frames)
    for t in range(header.n_frames):
        frame = _next_frame(frames, header.n_frames)
        if t == 0:
            faces, n_vertices = frame.faces, frame.n_vertices
        check_frame(frame, t, header.upsample, faces, n_vertices)
        if t == 0:  # checked faces lie below n_vertices, a u32, so they fit u32
            fp.write(GOF_MAGIC + struct.pack("<IIIII", header.n_frames, header.depth,
                                             header.upsample, n_vertices, frame.n_faces))
            fp.write(faces.astype("<u4").tobytes())
        vertices = frame.vertices.astype("<f4")
        vertices[(vertices >= 1.0) & (frame.vertices < 1.0)] = _F32_BELOW_ONE
        fp.write(vertices.tobytes())
        for start in range(0, frame.n_colors, _COLOR_BLOCK):
            fp.write(_colors_to_u8(frame.colors[start:start + _COLOR_BLOCK]).tobytes())
        del frame, vertices  # dropped before the next frame is made
    if next(frames, None) is not None:
        raise ConsistencyError(f"more frames than the {header.n_frames} declared")


def _read_frame(fp, t: int, header: GofHeader, faces: np.ndarray,
                n_vertices: int) -> TriangleCloudFrame:
    """Read frame ``t`` (from 0) of a TCG2 container, checked against its header."""
    vertices = np.frombuffer(_read_exact(fp, 12 * n_vertices), dtype="<f4")
    n_c = expected_color_count(faces.shape[0], header.upsample)
    colors = np.frombuffer(_read_exact(fp, 3 * n_c), dtype=np.uint8)
    frame = TriangleCloudFrame(vertices.reshape(n_vertices, 3).astype(np.float64), faces,
                               colors.reshape(n_c, 3).astype(np.float64), header.upsample)
    check_frame(frame, t, header.upsample, faces, n_vertices)
    return frame


def read_gof_frames(fp):
    """Read one TCG2 container a frame at a time; returns (GofHeader, frames).

    The container header and the shared faces are read at once; ``frames``
    reads each frame when it is asked for.  Every frame is checked
    (:func:`check_frame`) as it is read, so the frames need no
    :func:`validate_gof` after.  No frame is kept once it is yielded, so a
    dropped frame is freed.
    """
    magic = _read_exact(fp, 4)
    if magic != GOF_MAGIC:
        raise FormatError(f"bad container magic {magic!r}, expected {GOF_MAGIC!r}")
    n_frames, depth, upsample, n_vertices, n_faces = _read_struct(fp, "<IIIII")
    if n_frames < 1:
        raise FormatError("TCG2 container with zero frames")
    try:
        header = GofHeader(n_frames, _check_depth(depth), _check_upsample(upsample))
    except ParameterError as exc:
        raise FormatError(f"implausible TCG2 header: {exc}") from exc
    faces = np.frombuffer(_read_exact(fp, 12 * n_faces), dtype="<u4")
    faces = faces.reshape(n_faces, 3).astype(np.int64)

    def frames():
        for t in range(n_frames):
            yield _read_frame(fp, t, header, faces, n_vertices)

    return header, frames()


def write_gof_file(path, gofs, depth: int) -> None:
    """Write a sequence of GOFs to ``path``, one TCG2 container each, concatenated."""
    _check_depth(depth)  # before the file is made
    with open(path, "wb") as fp:
        for gof in gofs:
            write_gof_frames(fp, GofHeader(gof.n_frames, depth, gof.reference.upsample),
                             gof.frames)


def iter_gof_file(path):
    """Yield (GofHeader, frames) for each TCG2 container in ``path``, as
    :func:`read_gof_frames` reads them; all containers must agree on depth.
    Each container's frames must be read before the next container is asked for.
    """
    depth = None
    with open(path, "rb") as fp:
        # peek needs no seek, so a pipe works as input
        while fp.peek(1):
            header, frames = read_gof_frames(fp)
            if depth is not None and header.depth != depth:
                raise ConsistencyError("containers in one file disagree on depth")
            depth = header.depth
            yield header, frames
    if depth is None:
        raise TruncatedStreamError("no TCG2 container found in file")


def read_gof_file(path) -> tuple[list[GroupOfFrames], int]:
    """Read every TCG2 container in ``path``; all must agree on depth."""
    gofs = []
    for header, frames in iter_gof_file(path):
        gofs.append(GroupOfFrames(tuple(frames)))
    return gofs, header.depth
