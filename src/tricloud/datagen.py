"""Deterministic synthetic dynamic triangle clouds.

Stand-ins for captured mesh sequences: a banded sphere, a rippling plane,
and a pair of blobs, each animated by a smooth sinusoidal displacement field
in material coordinates and textured procedurally (large-scale gradient plus
a checker component) at the refined vertices.  The texture's still part is
computed once per sequence; each frame adds only its breathing term.
Everything is a pure function of the arguments; amplitude 0 freezes both
motion and texture so every frame is identical.
"""

from __future__ import annotations

import numpy as np

from .core import GroupOfFrames, TriangleCloudFrame, _check_upsample
from .errors import ParameterError
from .geom import refine

_MAX_AMPLITUDE = 0.1
_JITTER = 2e-3


def _quad_faces(rows: int, cols: int, stride: int) -> np.ndarray:
    """Triangles (a, b, c) and (b, d, c) of every quad of a rows x cols grid.

    Quads run row-major; vertex (i, j) is row i * stride + j % stride, so a
    stride of cols wraps the last column around to the first.
    """
    i, j = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    a, b = i * stride + j % stride, i * stride + (j + 1) % stride
    c, d = a + stride, b + stride
    return np.stack([a, b, c, b, d, c], axis=-1).reshape(-1, 3).astype(np.int64)


def _band_sphere(n_faces: int, center, radius: float):
    """Sphere band of R x C quads (2RC triangles), poles left open.

    Open poles keep every face a proper quad pair; azimuth wraps around.
    """
    n_quads = max(6, n_faces // 2)
    rows = max(2, int(round(np.sqrt(n_quads / 2.5))))
    cols = max(3, int(round(n_quads / rows)))
    theta = np.linspace(0.35, np.pi - 0.35, rows + 1)
    phi = np.arange(cols) * (2.0 * np.pi / cols)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    verts = np.stack(
        [
            np.sin(tt) * np.cos(pp),
            np.sin(tt) * np.sin(pp),
            np.cos(tt),
        ],
        axis=-1,
    ).reshape(-1, 3) * radius + np.asarray(center)
    return verts, _quad_faces(rows, cols, cols)


def _wave_plane(n_faces: int, center, extent: float):
    n_quads = max(4, n_faces // 2)
    rows = max(2, int(round(np.sqrt(n_quads))))
    cols = max(2, int(round(n_quads / rows)))
    u = np.linspace(-0.5, 0.5, rows + 1) * extent
    v = np.linspace(-0.5, 0.5, cols + 1) * extent
    uu, vv = np.meshgrid(u, v, indexing="ij")
    zz = 0.12 * extent * np.sin(4.0 * uu / extent) * np.cos(3.0 * vv / extent)
    verts = np.stack([uu, vv, zz], axis=-1).reshape(-1, 3) + np.asarray(center)
    return verts, _quad_faces(rows, cols, cols + 1)


def _two_blobs(n_faces: int, center, radius: float):
    half = max(12, n_faces // 2)
    c = np.asarray(center)
    v1, f1 = _band_sphere(half, c - [0.17, 0.0, 0.0], radius * 0.55)
    v2, f2 = _band_sphere(half, c + [0.17, 0.02, 0.03], radius * 0.45)
    verts = np.vstack([v1, v2])
    faces = np.vstack([f1, f2 + v1.shape[0]])
    return verts, faces


# shape -> (mesh builder, its radius or extent); the keys in order are SHAPES
_MESHES = {
    "sphere": (_band_sphere, 0.34),
    "wave-plane": (_wave_plane, 0.7),
    "two-blobs": (_two_blobs, 0.34),
}
SHAPES = tuple(_MESHES)


def _base_mesh(shape: str, n_faces: int, rng: np.random.Generator):
    build, size = _MESHES[shape]
    verts, faces = build(n_faces, (0.5, 0.5, 0.5), size)
    # tiny jitter keeps vertex positions generic relative to any voxel grid
    verts = verts + rng.uniform(-_JITTER, _JITTER, size=verts.shape)
    return verts, faces


def _still_texture(points: np.ndarray, consts: dict):
    """The time-independent texture at points and the breathing phase.

    Returns (colors, phase): the gradient, sine/cosine and checker colors, and
    the per-point phase of the breathing term added to channel 0 per frame.
    """
    colors = np.empty((points.shape[0], 3))
    grad = points @ consts["grad"]
    colors[:, 0] = 127.5 + 70.0 * np.sin(grad[:, 0] + consts["phase"][0])
    colors[:, 1] = 127.5 + 50.0 * np.sin(grad[:, 1] + consts["phase"][1])
    colors[:, 2] = 127.5 + 50.0 * np.cos(grad[:, 2] + consts["phase"][2])
    cells = np.floor(points * consts["checker"]).astype(np.int64).sum(axis=1)
    colors[:, 0] += np.where(cells % 2 == 0, 24.0, -24.0)
    return colors, grad[:, 0] * 0.25


def gen_sequence(shape: str, n_frames: int, n_faces: int = 2000,
                 upsample: int = 10, amplitude: float = 0.02,
                 seed: int = 0, gof_size: int | None = None):
    """Generate a synthetic sequence as a list of GroupOfFrames.

    All frames share one base mesh; frame t displaces the base vertices by a
    seeded sinusoidal field of the given amplitude (cube units, at most 0.1)
    and textures the surface at the refined material coordinates.  gof_size
    splits the frames into groups (connectivity is shared throughout);
    the default is a single group.
    """
    if shape not in SHAPES:
        raise ParameterError(f"unknown shape {shape!r}, expected one of {SHAPES}")
    if n_frames < 1:
        raise ParameterError(f"need at least one frame, got {n_frames}")
    if n_faces < 2:
        raise ParameterError(f"need at least two faces, got {n_faces}")
    upsample = _check_upsample(upsample)
    if not (0.0 <= amplitude <= _MAX_AMPLITUDE):
        raise ParameterError(
            f"amplitude must be in [0, {_MAX_AMPLITUDE}] cube units, got {amplitude}"
        )
    if gof_size is not None and gof_size < 1:
        raise ParameterError(f"gof_size must be positive, got {gof_size}")

    rng = np.random.default_rng(seed)
    base, faces = _base_mesh(shape, int(n_faces), rng)
    freqs = rng.uniform(2.0, 5.0, size=(3, 3)) * rng.choice([-1.0, 1.0], size=(3, 3))
    speeds = rng.uniform(0.25, 0.6, size=3)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    consts = {
        "grad": rng.uniform(3.0, 7.0, size=(3, 3)),
        "phase": rng.uniform(0.0, 2.0 * np.pi, size=3),
        "checker": rng.uniform(7.0, 11.0, size=3),
        "pulse": rng.uniform(0.3, 0.7),
    }
    still, phase = _still_texture(refine(base, faces, upsample), consts)

    amplitude = float(amplitude)
    frames = []
    for t in range(int(n_frames)):
        verts = base + amplitude * np.sin(base @ freqs.T + speeds * t + phases)
        colors = still.copy()
        colors[:, 0] += 60.0 * amplitude * np.sin(consts["pulse"] * t + phase)
        frames.append(TriangleCloudFrame(verts, faces, colors, upsample))

    size = int(gof_size) if gof_size is not None else len(frames)
    return [
        GroupOfFrames(tuple(frames[i:i + size]))
        for i in range(0, len(frames), size)
    ]
