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
:func:`evaluate` is the one sequence-level entry point: it computes the last
three over two sequences and pools them over the frames; :data:`METRICS`
names them and their report keys.  :func:`psnr_triangle_cloud` is its
triangle figures as a tuple, and :func:`psnr_from_errors` pools triangle rows
it returned (one frame's, for a per-frame trace).

The last three are taken over each frame's render cloud: the refined
triangles upsampled once more by barycentric blending of positions and
colors.  Neighboring refined triangles put rows on the same points, so each
metric walks the distinct lattice points of
:func:`geom.interpolation_lattice` one at a time, weighted by their
multiplicity; this equals the expanded cloud, where shared points repeat
once per triangle (``tests/oracles.py`` builds it as the oracle the metrics
are checked against).  The triangle metric compares the two frames' rows
and builds no cloud; projection and matching voxelize the walked positions
and add each point's colors into its voxel's sums, and build no colors of
the whole cloud.  Known results are not recomputed: refined vertices are
copied rather than blended, the two faces of an axis share one pixel match,
and matching finds a query's own voxel by Morton code.  A render cloud of
more than 2^24 points is refused before anything is built.

Geometry PSNRs are normalized per coordinate against the unit bounding cube
(width 1); color PSNRs against peak 255.  Zero error returns +inf.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import VoxelSet, _MAX_REFINED_POINTS, expected_color_count
from .errors import (
    ConsistencyError,
    EmptySetError,
    ParameterError,
    ShapeMismatchError,
)
from .geom import (
    _blend,
    _sorted_rows,
    interpolation_lattice,
    refine,
    voxel_coords,
    voxelize,
)

NEUTRAL_GRAY = 128.0

_BRUTE_FORCE_PAIRS = 1 << 22


def _psnr(mse: float, peak_sq: float) -> float:
    if mse <= 0.0:
        return math.inf
    return -10.0 * math.log10(mse / peak_sq)


def _next_pair(refs, recons, t: int):
    """(reference, reconstruction) of pair ``t`` (from 0) of two iterators, or
    (None, None) once both end after one pair or more.  A function, not a
    generator: a suspended generator holds the pair it yielded until resumed."""
    a, b = next(refs, None), next(recons, None)
    if (a is None or b is None) and a is not b:
        side = "reconstruction" if b is None else "reference"
        raise ShapeMismatchError(f"the {side} ends after {t} frames, before the other")
    if a is None and t == 0:
        raise EmptySetError("no frames to compare")
    return a, b


def psnr_transform(ref_attrs, recon_attrs, kind: str) -> float:
    """Voxel-domain PSNR between original and reconstructed attributes.

    ref_attrs / recon_attrs: sequences of per-frame arrays.  kind
    "geometry" expects (N,3) positions in the unit cube and normalizes by
    3*N; kind "color" expects a single component of shape (N,) and
    normalizes by 255^2*N.  Frames are averaged in the MSE domain; a frame
    with no rows raises EmptySetError.
    """
    if kind not in ("geometry", "color"):
        raise ParameterError(f"kind must be 'geometry' or 'color', got {kind!r}")
    refs, recons = iter(ref_attrs), iter(recon_attrs)
    total = 0.0
    for t in itertools.count():
        a, b = _next_pair(refs, recons, t)
        if a is None:
            return _psnr(total / t, 1.0)
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ShapeMismatchError(f"frame {t}: shapes {a.shape} vs {b.shape}")
        if kind == "geometry":
            if a.ndim != 2 or a.shape[1] != 3:
                raise ShapeMismatchError(f"frame {t}: geometry must be (N,3), got {a.shape}")
        elif a.ndim != 1:
            raise ShapeMismatchError(
                f"frame {t}: color expects one component, got shape {a.shape}"
            )
        if not a.size:
            raise EmptySetError(f"frame {t}: no rows to compare")
        peak_sq = 1.0 if kind == "geometry" else 255.0 ** 2
        total += float(np.sum((a - b) ** 2)) / (peak_sq * a.size)


def _lattice(frame, interp: int):
    """:func:`geom.interpolation_lattice` of a frame, refused with a
    ParameterError before it is built when the frame's render cloud would
    have more than _MAX_REFINED_POINTS points."""
    points = expected_color_count(frame.n_faces, frame.upsample * int(interp))
    if points > _MAX_REFINED_POINTS:
        raise ParameterError(f"interpolation factor {interp} gives a render cloud of {points} "
                             f"points, more than {_MAX_REFINED_POINTS}")
    return interpolation_lattice(frame.upsample, interp)


def _refine_steps(frame):
    """(positions, colors) of a frame's refine rows, each (steps, faces, 3)."""
    v_r = refine(frame.vertices, frame.faces, frame.upsample)
    if frame.n_colors != v_r.shape[0]:
        raise ConsistencyError(f"{frame.n_colors} colors for {v_r.shape[0]} refined vertices")
    shape = (expected_color_count(1, frame.upsample), frame.n_faces, 3)
    return v_r.reshape(shape), frame.colors.reshape(shape)


def _lattice_rows(per_step, steps, fractions):
    """Each lattice point's (faces, 3) rows of one refined signal, in lattice
    order: a refined vertex's own refine rows, any other point's blend."""
    for (s1, s2, s3), (a, b) in zip(steps, fractions):
        yield _blend(per_step[s1], per_step[s2], per_step[s3], a, b) if a or b else per_step[s1]


def _triangle_row(a, b, interp: int) -> np.ndarray:
    """Normalized MSE row (G, Y, U, V) of one frame pair's render clouds.

    Both sides are upsampled with the same interpolation factor and compared
    row by row (correspondence is per face, so the two sides may order their
    vertex lists differently).  Each distinct lattice point (:func:`_lattice`)
    counts with its multiplicity, which equals comparing the expanded clouds
    row by row.  Geometry is normalized per coordinate, colors by 255^2.  The
    rows of both sides are made and compared one lattice point at a time (at
    interp 1 they are refine's own rows), so neither cloud is built.
    """
    steps, fractions, weights = _lattice(a, interp)
    rows = (_lattice_rows(per_step, steps, fractions)
            for per_step in _refine_steps(a) + _refine_steps(b))
    row = np.zeros(4)
    for w, pa, ca, pb, cb in zip(weights, *rows):
        d = pa - pb
        row[0] += w * np.einsum("ij,ij->", d, d)
        d = ca - cb
        row[1:] += w * np.einsum("ij,ij->j", d, d)
    n = weights.sum() * a.n_faces
    row[0] /= 3.0 * n
    row[1:] /= 255.0 ** 2 * n
    return row


# The metrics :func:`evaluate` computes, by name, in report order: the report
# keys of the pooled mean errors, the report keys of their PSNRs, and the
# squared peak of each PSNR.
METRICS = {
    "triangle": ((), ("psnr_g_triangle", "psnr_y_triangle", "psnr_u_triangle",
                      "psnr_v_triangle"), (1.0,) * 4),
    "projection": ((), ("psnr_y_projection", "psnr_u_projection", "psnr_v_projection"),
                   (255.0 ** 2,) * 3),
    "matching": (("d_g2_matching", "d_y2_matching"), ("psnr_g_matching", "psnr_y_matching"),
                 (3.0, 255.0 ** 2)),
}


def _pool(name: str, rows, depth: int | None) -> dict:
    """{report key: figure} of metric `name` from its per-frame error rows: the
    rows (a matching row without its PSNRs) summed in frame order, divided once
    by the frame count (times the 6 * 4^J pixels a projection row sums over)."""
    error_keys, psnr_keys, peaks = METRICS[name]
    total = np.zeros(len(peaks))
    for row in rows:
        total += row[:len(peaks)]
    mean = total / (len(rows) * (6 * 4 ** depth if name == "projection" else 1))
    figures = dict(zip(error_keys, map(float, mean)))
    figures.update((key, _psnr(float(m), peak)) for key, m, peak in zip(psnr_keys, mean, peaks))
    return figures


def evaluate(ref_frames, recon_frames, wanted, depth: int | None = None, interp: int = 1):
    """(figures, rows) of the metrics named in `wanted`, keys of :data:`METRICS`.

    Frame pairs correspond index-wise and are compared one at a time.  `rows`
    holds each pair's {metric: error row}: the (G, Y, U, V) MSE row of
    :func:`_triangle_row`, the per-channel sum of :func:`_projection_sq_error`,
    the tuple of :func:`matching_distortion`.  `figures` maps the wanted
    report keys, in table order, to the figures pooled over the frames in the
    MSE domain; a projection PSNR is the mean over all 6 * 4^J pixels of
    every frame.  Projection and matching share each pair's render voxel sets
    at `depth`.  Each pair is dropped once its voxel sets are made, and the
    sets before the next pair is read (see :func:`_next_pair`).
    """
    unknown = [name for name in wanted if name not in METRICS]
    if unknown:
        raise ParameterError(f"unknown metric {unknown[0]!r}; choose from {', '.join(METRICS)}")
    if depth is None and ("projection" in wanted or "matching" in wanted):
        raise ParameterError("projection and matching need a voxel depth")
    refs, recons = iter(ref_frames), iter(recon_frames)
    rows = []
    while True:
        a, b = _next_pair(refs, recons, len(rows))
        if a is None:
            break
        if a.n_faces != b.n_faces or a.upsample != b.upsample or a.n_colors != b.n_colors:
            raise ShapeMismatchError(
                f"frame {len(rows)}: face/upsample/color counts differ ({a.n_faces}/"
                f"{a.upsample}/{a.n_colors} vs {b.n_faces}/{b.upsample}/{b.n_colors})"
            )
        if not a.n_faces:
            raise EmptySetError(f"frame {len(rows)}: no faces to compare")
        row = {}
        if "triangle" in wanted:
            row["triangle"] = _triangle_row(a, b, interp)
        sets = ((_render_voxels(a, depth, interp), _render_voxels(b, depth, interp))
                if "projection" in wanted or "matching" in wanted else None)
        del a, b  # projection and matching read the sets alone
        if "projection" in wanted:
            row["projection"] = _projection_sq_error(*sets)
        if "matching" in wanted:
            row["matching"] = matching_distortion(*sets)
        rows.append(row)
        del sets
    figures = {}
    for name in METRICS:
        if name in wanted:
            figures.update(_pool(name, [row[name] for row in rows], depth))
    return figures, rows


def psnr_from_errors(rows):
    """(PSNR_G, PSNR_Y, PSNR_U, PSNR_V) of the "triangle" rows of :func:`evaluate`,
    pooled as :func:`evaluate` pools them."""
    return tuple(_pool("triangle", rows, None).values())


def psnr_triangle_cloud(ref_frames, recon_frames, interp: int = 1):
    """(PSNR_G, PSNR_Y, PSNR_U, PSNR_V) on refined + interpolated clouds, pooled
    over the frames in the MSE domain (see :func:`_triangle_row`)."""
    return tuple(evaluate(ref_frames, recon_frames, ("triangle",), interp=interp)[0].values())


# ---------------------------------------------------------------------------
# projection onto the six cube faces
# ---------------------------------------------------------------------------

def _face_winners(coords: np.ndarray, depth: int, axis: int):
    """Visible voxels of the two cube faces on one axis (0, 1, 2 for x, y, z).

    Returns (keys, plus_rows, minus_rows): the sorted pixel keys
    row * 2^J + col that the voxels at `coords` cover, which the + and -
    faces share, and for each key the row of the voxel nearest the + face
    and of the one nearest the - face.  The work depends on the voxel count,
    not on 4^J; the sort's intermediates are gone once it returns.
    """
    size = 1 << depth
    pix = coords[:, (axis + 1) % 3] * size + coords[:, (axis + 2) % 3]
    # voxels are unique, so the composite keys are too: each pixel's
    # voxels form one run, nearest the -face first, nearest the +face last
    keys, order = _sorted_rows(pix * size + coords[:, axis], 3 * depth)
    pix = keys >> depth
    first = np.flatnonzero(np.diff(pix, prepend=-1))
    last = np.flatnonzero(np.diff(pix, append=size * size))
    return pix[first], order[last], order[first]


def project_to_faces(voxel_set: VoxelSet) -> np.ndarray:
    """Orthographic YUV renders on the six cube faces at the set's depth J.

    Returns a (6, 2^J, 2^J, 3) array ordered +x, -x, +y, -y, +z, -z.
    Rows/columns follow the cyclic axis convention: looking along x the
    image is indexed (y, z); along y it is (z, x); along z it is (x, y).
    The voxel nearest each face wins; empty pixels are neutral gray.  Only
    the covered pixels are visited; the rest of the image is the gray fill.
    """
    depth = voxel_set.depth
    size = 1 << depth
    images = np.full((6, size, size, 3), NEUTRAL_GRAY)
    if len(voxel_set) == 0:
        return images
    if voxel_set.attributes is None or voxel_set.attributes.shape[1] != 3:
        raise ConsistencyError("projection needs a voxel set with 3-component colors")
    pixels = images.reshape(6, size * size, 3)
    coords = voxel_coords(voxel_set)
    for axis in range(3):
        keys, *winners = _face_winners(coords, depth, axis)
        for face, rows in enumerate(winners, start=2 * axis):
            pixels[face, keys] = voxel_set.attributes.take(rows, axis=0)
    return images


def _covered_differences(a: VoxelSet, xyz_a: np.ndarray, b: VoxelSet, xyz_b: np.ndarray,
                         axis: int):
    """Render differences on the two faces of `axis` at the pixels a or b covers.

    Yields one (pixels, 3) array at a time, per face (+ then -): c_a - c_b
    where both sets cover a pixel, c_a - gray and c_b - gray where one does.
    The pixel keys of a and b are matched once for both faces.
    """
    keys_a, *faces_a = _face_winners(xyz_a, a.depth, axis)
    keys_b, *faces_b = _face_winners(xyz_b, b.depth, axis)
    pos = np.searchsorted(keys_b, keys_a)
    both = pos < keys_b.size
    both[both] = keys_b[pos[both]] == keys_a[both]
    pos = pos[both]
    only_b = np.ones(keys_b.size, dtype=bool)
    only_b[pos] = False
    for rows_a, rows_b in zip(faces_a, faces_b):
        yield a.attributes.take(rows_a[both], axis=0) - b.attributes.take(rows_b[pos], axis=0)
        yield a.attributes.take(rows_a[~both], axis=0) - NEUTRAL_GRAY
        yield b.attributes.take(rows_b[only_b], axis=0) - NEUTRAL_GRAY


def _projection_sq_error(a: VoxelSet, b: VoxelSet) -> np.ndarray:
    """Per-channel squared error between the six-face renders of a and b.

    Equals the sum over all 6 * 4^J pixels of (render_a - render_b)^2, but
    visits only the pixels some voxel covers (:func:`_covered_differences`);
    gray against gray adds nothing.  Each axis's pixel matches are dropped
    before the next axis is sorted.
    """
    err = np.zeros(3)
    xyz_a, xyz_b = voxel_coords(a), voxel_coords(b)
    for axis in range(3):
        for d in _covered_differences(a, xyz_a, b, xyz_b, axis):
            err += np.einsum("ij,ij->j", d, d)
    return err


def _render_voxels(frame, depth: int, interp: int) -> VoxelSet:
    """The render cloud of a frame voxelized at `depth`, colors averaged per voxel.

    The lattice is walked as :func:`_triangle_row` walks it, twice: the
    positions into the points :func:`geom.voxelize` groups, then the colors,
    each lattice point's rows times its multiplicity added into their voxels'
    sums in lattice order.  That adds the same floats in the same order as
    one weighted bincount over the whole cloud's colors, which are never built.
    """
    steps, fractions, weights = _lattice(frame, interp)
    positions, colors = _refine_steps(frame)
    points = np.empty((steps.shape[0],) + positions.shape[1:])
    for p, rows in enumerate(_lattice_rows(positions, steps, fractions)):
        points[p] = rows
    del positions, rows  # refine's rows do not sit beside the voxelization
    vox = voxelize(points.reshape(-1, 3), None, depth)
    n = len(vox.voxel_set)
    sums = np.zeros((n, 3))
    # freed after the sums are made: freed before, their pages went back to
    # the system and the sums faulted in fresh ones
    del points
    groups = vox.index_map.reshape(steps.shape[0], -1)
    for w, voxels, rows in zip(weights, groups, _lattice_rows(colors, steps, fractions)):
        for k in range(3):
            np.add.at(sums[:, k], voxels, rows[:, k] * w)
    sums /= np.bincount(vox.index_map, np.repeat(weights, frame.n_faces), n)[:, None]
    return VoxelSet(depth, vox.voxel_set.codes, sums)


# ---------------------------------------------------------------------------
# matching distortion (exact nearest neighbors, shell by shell on the voxel grid)
# ---------------------------------------------------------------------------

def _shells():
    """Integer offsets by shells of squared length 1, 2, 3, ..., empty ones
    skipped: cubes of doubling radius r each yield the shells up to r^2."""
    done, radius = 1, 1
    while True:
        span = np.arange(-radius, radius + 1, dtype=np.int64)
        offsets = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
        d2 = np.sum(offsets ** 2, axis=1)
        order = np.argsort(d2)
        offsets, d2 = offsets[order], d2[order]
        lo, hi = np.searchsorted(d2, [done, radius * radius + 1])
        yield from np.split(offsets[lo:hi], np.flatnonzero(np.diff(d2[lo:hi])) + 1)
        done, radius = radius * radius + 1, 2 * radius


def _nearest_brute(query: np.ndarray, target: np.ndarray) -> np.ndarray:
    d2 = np.sum((query[:, None, :] - target[None, :, :]) ** 2, axis=2)
    # argmin picks the first minimum; target rows are in Morton order, so
    # ties resolve to the lowest Morton code
    return np.argmin(d2, axis=1)


def _nearest(query_set: VoxelSet, query: np.ndarray,
             target_set: VoxelSet, target: np.ndarray) -> np.ndarray:
    """Row of the nearest target voxel for every query voxel.

    query / target are the decoded coordinates of the two sets.  Ties go to
    the lowest Morton code, the lowest target row.  A query's own voxel is
    looked up by Morton code, which both sets keep sorted.  Then shell by
    shell (see :func:`_shells`) and offset by offset, the open queries, kept
    sorted by row-major key (x * 2^J + y) * 2^J + z, look up their key plus
    the offset's; the first shell with a hit answers a query; only neighbors
    inside the target's bounding box are looked up.  The queries still open
    go to :func:`_nearest_brute`, in chunks of at most _BRUTE_FORCE_PAIRS
    pairs, once the offsets searched outnumber the target's voxels or once
    the shells' open queries times offsets, summed, would outnumber the
    pairs that brute force compares for the queries still open.
    """
    size = 1 << query_set.depth
    n_target = target.shape[0]
    idx = np.minimum(np.searchsorted(target_set.codes, query_set.codes), n_target - 1)
    hit = target_set.codes[idx] == query_set.codes
    idx[~hit] = n_target
    key = np.array([size * size, size, 1], dtype=np.int64)
    query_keys = query @ key
    target_keys, order = _sorted_rows(target @ key, 3 * query_set.depth)
    lo = [target[:, axis].min() for axis in range(3)]
    hi = [target[:, axis].max() for axis in range(3)]
    open_rows = np.flatnonzero(~hit)
    open_rows = open_rows[_sorted_rows(query_keys[open_rows], 3 * query_set.depth)[1]]
    searched, pairs = 1, query.shape[0]  # shell 0
    for offsets in _shells():
        if open_rows.size == 0 or searched > n_target:
            break
        searched += offsets.shape[0]
        pairs += open_rows.size * offsets.shape[0]
        if pairs > open_rows.size * n_target:
            break
        inside = np.ones((offsets.shape[0], open_rows.size), dtype=bool)
        for axis in range(3):
            # lo <= coordinate + offset <= hi, with no (offsets, queries) sum
            q = query[open_rows, axis]
            inside &= offsets[:, axis, None] >= lo[axis] - q
            inside &= offsets[:, axis, None] <= hi[axis] - q
        keys = query_keys[open_rows]
        for offset_key, offset_inside in zip(offsets @ key, inside):
            sel = np.flatnonzero(offset_inside)
            needles = keys[sel] + offset_key
            pos = np.minimum(np.searchsorted(target_keys, needles), n_target - 1)
            hit = target_keys[pos] == needles
            rows = open_rows[sel[hit]]
            idx[rows] = np.minimum(idx[rows], order[pos[hit]])
        open_rows = open_rows[idx[open_rows] == n_target]
    chunk = max(1, _BRUTE_FORCE_PAIRS // n_target)
    for rows in np.split(open_rows, range(chunk, open_rows.size, chunk)):
        idx[rows] = _nearest_brute(query[rows], target)
    return idx


def _one_way(src: VoxelSet, src_xyz: np.ndarray, dst: VoxelSet, dst_xyz: np.ndarray):
    idx = _nearest(src, src_xyz, dst, dst_xyz)
    sq = 2.0 ** (-2 * src.depth)
    d = src_xyz - dst_xyz.take(idx, axis=0)
    d_g2 = float(np.mean(np.einsum("ij,ij->i", d, d))) * sq
    d_y2 = float(np.mean((src.attributes[:, 0] - dst.attributes[:, 0].take(idx)) ** 2))
    return d_g2, d_y2


def matching_distortion(source: VoxelSet, target: VoxelSet):
    """Symmetric mean squared matching distortion between voxelized clouds.

    Returns (d_G2, d_Y2, PSNR_G, PSNR_Y).  Matches are exact nearest neighbors
    on voxel centers (squared Euclidean, ties to the lowest Morton code; see
    :func:`_nearest`); the symmetric figure is the max of the two directions.
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
    source_xyz = voxel_coords(source)
    target_xyz = voxel_coords(target)
    fwd_g, fwd_y = _one_way(source, source_xyz, target, target_xyz)
    bwd_g, bwd_y = _one_way(target, target_xyz, source, source_xyz)
    d_g2 = max(fwd_g, bwd_g)
    d_y2 = max(fwd_y, bwd_y)
    return d_g2, d_y2, _psnr(d_g2, 3.0), _psnr(d_y2, 255.0 ** 2)


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
