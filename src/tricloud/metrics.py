"""Distortion and rate metrics for dynamic triangle clouds.

Four distortion families:

* transform-coding PSNR: voxel-domain error between the transform coder's
  input and output (cheap, used for rate-distortion sweeps),
* triangle-cloud PSNR: index-wise error on refined + interpolated clouds,
* projection PSNR: error between orthographic renders on the six faces of
  the bounding cube,
* matching distortion: symmetric nearest-neighbor squared error between two
  voxelized clouds, geometry and luminance components.

plus the two rate figures (megabits per second at 30 fps, bits per voxel).

Geometry PSNRs are normalized per coordinate against the unit bounding cube
(width 1); color PSNRs against peak 255.  Zero error returns +inf.
"""

from __future__ import annotations

import math

import numpy as np

from .core import VoxelSet
from .errors import (
    ConsistencyError,
    EmptySetError,
    ParameterError,
    ShapeMismatchError,
)
from .geom import (
    morton_decode,
    refine,
    refine_interpolate,
    refined_faces,
    voxelize,
)

NEUTRAL_GRAY = 128.0

_BRUTE_FORCE_PAIRS = 1 << 22


def _psnr(mse: float, peak_sq: float) -> float:
    if mse <= 0.0:
        return math.inf
    return -10.0 * math.log10(mse / peak_sq)


def _as_frame_list(arrays, name: str) -> list:
    if isinstance(arrays, np.ndarray):
        arrays = [arrays]
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if not arrays:
        raise EmptySetError(f"{name} contains no frames")
    return arrays


def psnr_transform(ref_attrs, recon_attrs, kind: str) -> float:
    """Voxel-domain PSNR between original and reconstructed attributes.

    ref_attrs / recon_attrs: per-frame arrays (or a single array).  kind
    "geometry" expects (N,3) positions in the unit cube and normalizes by
    3*N; kind "color" expects a single component of shape (N,) or (N,1)
    and normalizes by 255^2*N.  Frames are averaged in the MSE domain.
    """
    refs = _as_frame_list(ref_attrs, "ref_attrs")
    recons = _as_frame_list(recon_attrs, "recon_attrs")
    if len(refs) != len(recons):
        raise ShapeMismatchError(
            f"{len(refs)} reference frames vs {len(recons)} reconstructed"
        )
    if kind not in ("geometry", "color"):
        raise ParameterError(f"kind must be 'geometry' or 'color', got {kind!r}")
    total = 0.0
    for t, (a, b) in enumerate(zip(refs, recons)):
        if a.shape != b.shape:
            raise ShapeMismatchError(f"frame {t}: shapes {a.shape} vs {b.shape}")
        if kind == "geometry":
            if a.ndim != 2 or a.shape[1] != 3:
                raise ShapeMismatchError(f"frame {t}: geometry must be (N,3), got {a.shape}")
            total += float(np.sum((a - b) ** 2)) / (3.0 * a.shape[0])
        else:
            if a.ndim == 2 and a.shape[1] == 1:
                a, b = a[:, 0], b[:, 0]
            if a.ndim != 1:
                raise ShapeMismatchError(
                    f"frame {t}: color expects one component, got shape {a.shape}"
                )
            total += float(np.sum((a - b) ** 2)) / (255.0 ** 2 * a.shape[0])
    return _psnr(total / len(refs), 1.0)


def refined_interpolated_cloud(frame, interp: int = 1):
    """(points, colors) of the upsampled render cloud of one frame.

    Refines the triangle cloud to its native color resolution, then
    interpolates positions and colors per face by the extra factor.
    """
    if int(interp) < 1:
        raise ParameterError(f"interpolation factor must be >= 1, got {interp}")
    v_r = refine(frame.vertices, frame.faces, frame.upsample)
    f_r = refined_faces(frame.n_faces, frame.upsample)
    return refine_interpolate(v_r, frame.colors, f_r, int(interp))


def _check_frame_pair(t, a, b) -> None:
    if a.n_faces != b.n_faces or a.upsample != b.upsample or a.n_colors != b.n_colors:
        raise ShapeMismatchError(
            f"frame {t}: face/upsample/color counts differ "
            f"({a.n_faces}/{a.upsample}/{a.n_colors} vs {b.n_faces}/{b.upsample}/{b.n_colors})"
        )


def triangle_cloud_errors(ref_frames, recon_frames, interp: int = 1) -> np.ndarray:
    """Per-frame normalized MSE rows (G, Y, U, V) on refined + interpolated clouds.

    Frames correspond index-wise; both sides are upsampled with the same
    interpolation factor and compared row by row (correspondence is per
    face, so the two sides may order their vertex lists differently).
    Geometry is normalized per coordinate, colors by 255^2.
    """
    ref_frames = list(ref_frames)
    recon_frames = list(recon_frames)
    if not ref_frames:
        raise EmptySetError("no frames to compare")
    if len(ref_frames) != len(recon_frames):
        raise ShapeMismatchError(
            f"{len(ref_frames)} reference frames vs {len(recon_frames)} reconstructed"
        )
    rows = np.empty((len(ref_frames), 4))
    for t, (a, b) in enumerate(zip(ref_frames, recon_frames)):
        _check_frame_pair(t, a, b)
        va, ca = refined_interpolated_cloud(a, interp)
        vb, cb = refined_interpolated_cloud(b, interp)
        n = va.shape[0]
        rows[t, 0] = float(np.sum((va - vb) ** 2)) / (3.0 * n)
        rows[t, 1:] = np.sum((ca - cb) ** 2, axis=0) / (255.0 ** 2 * n)
    return rows


def psnr_from_errors(rows):
    """(PSNR_G, PSNR_Y, PSNR_U, PSNR_V) of MSE rows from :func:`triangle_cloud_errors`.

    The rows are pooled by their mean, summed in frame order.
    """
    total = np.zeros(4)
    for row in rows:
        total += row
    return tuple(_psnr(float(m), 1.0) for m in total / len(rows))


def psnr_triangle_cloud(ref_frames, recon_frames, interp: int = 1):
    """(PSNR_G, PSNR_Y, PSNR_U, PSNR_V) on refined + interpolated clouds, pooled
    over the frames in the MSE domain (see :func:`triangle_cloud_errors`)."""
    return psnr_from_errors(triangle_cloud_errors(ref_frames, recon_frames, interp))


# ---------------------------------------------------------------------------
# projection onto the six cube faces
# ---------------------------------------------------------------------------

def _voxel_coords(voxel_set: VoxelSet) -> np.ndarray:
    x, y, z = morton_decode(voxel_set.codes, voxel_set.depth)
    return np.stack([np.atleast_1d(x), np.atleast_1d(y), np.atleast_1d(z)], axis=1)


def project_to_faces(voxel_set: VoxelSet, depth: int | None = None) -> np.ndarray:
    """Orthographic YUV renders on the six cube faces.

    Returns a (6, 2^J, 2^J, 3) array ordered +x, -x, +y, -y, +z, -z.
    Rows/columns follow the cyclic axis convention: looking along x the
    image is indexed (y, z); along y it is (z, x); along z it is (x, y).
    The voxel nearest each face wins; empty pixels are neutral gray.
    """
    if depth is None:
        depth = voxel_set.depth
    elif depth != voxel_set.depth:
        raise ConsistencyError(f"voxel set has depth {voxel_set.depth}, asked for {depth}")
    size = 1 << depth
    images = np.full((6, size, size, 3), NEUTRAL_GRAY)
    if len(voxel_set) == 0:
        return images
    if voxel_set.attributes is None or voxel_set.attributes.shape[1] != 3:
        raise ConsistencyError("projection needs a voxel set with 3-component colors")
    coords = _voxel_coords(voxel_set)
    colors = voxel_set.attributes
    for axis in range(3):
        row = coords[:, (axis + 1) % 3]
        col = coords[:, (axis + 2) % 3]
        pix = row * size + col
        depth_coord = coords[:, axis]
        # nearest to the +face = max coordinate; sort so the winner is the
        # first occurrence of each pixel key
        order_hi = np.lexsort((-depth_coord, pix))
        order_lo = np.lexsort((depth_coord, pix))
        for face, order in ((2 * axis, order_hi), (2 * axis + 1, order_lo)):
            _, first = np.unique(pix[order], return_index=True)
            winners = order[first]
            images[face, row[winners], col[winners]] = colors[winners]
    return images


def projection_psnr(ref_frames, recon_frames, depth: int, interp: int = 1):
    """(PSNR_Y, PSNR_U, PSNR_V) of six-face renders, pooled over the sequence.

    Each frame is refined + interpolated, voxelized at the given depth, and
    projected; squared pixel error is pooled over the six faces and all
    frames before the PSNR.
    """
    ref_frames = list(ref_frames)
    recon_frames = list(recon_frames)
    if not ref_frames:
        raise EmptySetError("no frames to compare")
    if len(ref_frames) != len(recon_frames):
        raise ShapeMismatchError(
            f"{len(ref_frames)} reference frames vs {len(recon_frames)} reconstructed"
        )
    err = np.zeros(3)
    n_pixels = 0
    for t, (a, b) in enumerate(zip(ref_frames, recon_frames)):
        _check_frame_pair(t, a, b)
        imgs = []
        for frame in (a, b):
            points, colors = refined_interpolated_cloud(frame, interp)
            res = voxelize(points, colors, depth)
            imgs.append(project_to_faces(res.voxel_set))
        err += np.sum((imgs[0] - imgs[1]) ** 2, axis=(0, 1, 2))
        n_pixels += imgs[0][..., 0].size
    mse = err / n_pixels
    return tuple(_psnr(float(m), 255.0 ** 2) for m in mse)


# ---------------------------------------------------------------------------
# matching distortion (exact nearest neighbors on the voxel grid)
# ---------------------------------------------------------------------------

def _ring_offsets(radius: int) -> np.ndarray:
    """Integer offsets at exactly Chebyshev distance `radius`."""
    if radius == 0:
        return np.zeros((1, 3), dtype=np.int64)
    span = np.arange(-radius, radius + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    cheb = np.abs(grid).max(axis=1)
    return grid[cheb == radius]


def _nearest_brute(query: np.ndarray, target: np.ndarray) -> np.ndarray:
    d2 = np.sum((query[:, None, :] - target[None, :, :]) ** 2, axis=2)
    # argmin picks the first minimum; target rows are in Morton order, so
    # ties resolve to the lowest Morton code
    return np.argmin(d2, axis=1)


def _nearest_grid(query: np.ndarray, target_codes: np.ndarray,
                  target: np.ndarray, depth: int) -> np.ndarray:
    from .geom import morton_encode

    n = query.shape[0]
    size = 1 << depth
    best_d2 = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    best_idx = np.full(n, -1, dtype=np.int64)
    active = np.arange(n)
    radius = 0
    while active.size:
        offsets = _ring_offsets(radius)
        cand = query[active][:, None, :] + offsets[None, :, :]
        qrow = np.broadcast_to(active[:, None], cand.shape[:2]).reshape(-1)
        cand = cand.reshape(-1, 3)
        inside = np.all((cand >= 0) & (cand < size), axis=1)
        if inside.any():
            cand = cand[inside]
            qrow_in = qrow[inside]
            codes = morton_encode(cand[:, 0], cand[:, 1], cand[:, 2], depth)
            pos = np.searchsorted(target_codes, codes)
            hit = (pos < target_codes.size) & (target_codes[np.minimum(pos, target_codes.size - 1)] == codes)
            if hit.any():
                qh = qrow_in[hit]
                th = pos[hit]
                d2 = np.sum((query[qh] - target[th]) ** 2, axis=1)
                order = np.lexsort((th, d2, qh))
                uniq_q, first = np.unique(qh[order], return_index=True)
                cd2 = d2[order][first]
                cidx = th[order][first]
                cur_d2 = best_d2[uniq_q]
                cur_idx = best_idx[uniq_q]
                better = (cd2 < cur_d2) | ((cd2 == cur_d2) & (cidx < cur_idx))
                best_d2[uniq_q[better]] = cd2[better]
                best_idx[uniq_q[better]] = cidx[better]
        radius += 1
        # a ring at Chebyshev radius r cannot beat a best of less than r^2,
        # nor tie-break a best of exactly r^2 won at a lower Morton code...
        # it can tie at r^2 with a lower code, so keep searching while equal
        active = active[best_d2[active] >= radius * radius]
        if radius > size:
            raise ConsistencyError("nearest-neighbor search exceeded the grid")
    return best_idx


def _nearest(query_set: VoxelSet, target_set: VoxelSet) -> np.ndarray:
    query = _voxel_coords(query_set)
    target = _voxel_coords(target_set)
    if query.shape[0] * target.shape[0] <= _BRUTE_FORCE_PAIRS:
        return _nearest_brute(query, target)
    return _nearest_grid(query, target_set.codes, target, query_set.depth)


def _one_way(src: VoxelSet, dst: VoxelSet):
    idx = _nearest(src, dst)
    sq = 2.0 ** (-2 * src.depth)
    d2 = np.sum((_voxel_coords(src) - _voxel_coords(dst)[idx]) ** 2, axis=1)
    d_g2 = float(np.mean(d2)) * sq
    d_y2 = float(np.mean((src.attributes[:, 0] - dst.attributes[idx, 0]) ** 2))
    return d_g2, d_y2


def matching_distortion(source: VoxelSet, target: VoxelSet):
    """Symmetric mean squared matching distortion between voxelized clouds.

    Returns (d_G2, d_Y2, PSNR_G, PSNR_Y).  Matches are exact nearest
    neighbors on voxel centers (squared Euclidean, ties to the lowest
    Morton code); the symmetric figure is the max of the two directions.
    Geometry is in bounding-cube units, luminance is attribute column 0.
    """
    if len(source) == 0 or len(target) == 0:
        raise EmptySetError("matching distortion needs two non-empty voxel sets")
    if source.depth != target.depth:
        raise ConsistencyError(
            f"voxel sets have different depths: {source.depth} vs {target.depth}"
        )
    for vs, name in ((source, "source"), (target, "target")):
        if vs.attributes is None or vs.attributes.shape[1] < 1:
            raise ConsistencyError(f"{name} set has no luminance attribute")
    fwd_g, fwd_y = _one_way(source, target)
    bwd_g, bwd_y = _one_way(target, source)
    d_g2 = max(fwd_g, bwd_g)
    d_y2 = max(fwd_y, bwd_y)
    return d_g2, d_y2, _psnr(d_g2, 3.0), _psnr(d_y2, 255.0 ** 2)


def matching_distortion_sequence(source_sets, target_sets):
    """Frame-averaged matching distortion: (d̄_G2, d̄_Y2, PSNR_G, PSNR_Y)."""
    source_sets = list(source_sets)
    target_sets = list(target_sets)
    if not source_sets:
        raise EmptySetError("no frames to compare")
    if len(source_sets) != len(target_sets):
        raise ShapeMismatchError(
            f"{len(source_sets)} source frames vs {len(target_sets)} target"
        )
    g_total = 0.0
    y_total = 0.0
    for s, t in zip(source_sets, target_sets):
        d_g2, d_y2, _, _ = matching_distortion(s, t)
        g_total += d_g2
        y_total += d_y2
    n = len(source_sets)
    return (
        g_total / n,
        y_total / n,
        _psnr(g_total / n, 3.0),
        _psnr(y_total / n, 255.0 ** 2),
    )


def rates(bits: int, n_frames: int, voxel_counts=None):
    """(megabits per second at 30 fps, bits per voxel).

    voxel_counts is the per-frame occupied-voxel tally; when omitted the
    bits-per-voxel figure is None.
    """
    if n_frames < 1:
        raise ParameterError(f"need at least one frame, got {n_frames}")
    mbps = (float(bits) * 30.0) / (1048576.0 * n_frames)
    if voxel_counts is None:
        return mbps, None
    total = int(np.sum(np.asarray(voxel_counts, dtype=np.int64)))
    if total <= 0:
        raise ParameterError("voxel counts must sum to a positive total")
    return mbps, float(bits) / total
