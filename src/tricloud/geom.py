"""Geometry kernels: Morton codes, barycentric face refinement, voxelization.

Voxelization quantizes points to the 2^J grid, merges duplicates (averaging
their attribute rows in double precision), and orders the survivors by Morton
code.  It sorts the codes once, each packed above its row index into one
int64 value; keys too wide to share 63 bits with their rows fall back to a
stable argsort.  That sort, :func:`_sorted_rows`, is the package's one stable
integer sort: the transform's coefficient order, the intra stream's vertex
order and the eval metrics' projection and matching orders take it too.

The refinement order is normative: refined points are grouped by the
barycentric step (i, j) of :func:`_steps` (i outer, j inner) and by face
within a step, so colors generated for the refined vertices of one frame line
up index-wise with every other frame's.  One broadcast :func:`_blend` over all
steps and faces computes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import VoxelSet, _as_rows, _check_depth, _check_upsample
from .errors import ConsistencyError, ParameterError, RangeError


_FIELD = 20  # bits per coordinate field in a gathered word: one per level up to depth 20
_FIELD_MASK = (1 << _FIELD) - 1


def _morton_tables():
    """(spread, gather) lookup tables for :func:`morton_encode` / :func:`morton_decode`.

    spread[v] moves bit k of a 10-bit value v to bit 3k.  gather[c] packs the
    x, y and z bits of a 12-bit code chunk c (4 bits each) into bits 0-3,
    20-23 and 40-43, so one gather decodes four levels of all three axes.
    """
    values = np.arange(1 << 10, dtype=np.int64)
    spread = np.zeros_like(values)
    for k in range(10):
        spread |= ((values >> k) & 1) << (3 * k)
    chunks = np.arange(1 << 12, dtype=np.int64)
    gather = np.zeros_like(chunks)
    for k in range(4):
        for field, bit in enumerate((2, 1, 0)):  # x, y, z within each triple
            gather |= ((chunks >> (3 * k + bit)) & 1) << (k + _FIELD * field)
    spread.flags.writeable = False
    gather.flags.writeable = False
    return spread, gather


_SPREAD, _GATHER = _morton_tables()


def morton_encode(x, y, z, depth: int) -> np.ndarray:
    """Interleave coordinate bits into 3*depth-bit codes; x is most significant.

    Bit k of x lands at bit 3k+2 of the code, y at 3k+1, z at 3k.  Takes
    integer arrays (broadcast together) in [0, 2^depth) and returns an int64
    array of their shape; scalars give a 0-d array.  Each coordinate is spread
    ten bits at a time through a lookup table.
    """
    depth = _check_depth(depth)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    limit = np.int64(1) << depth
    for name, c in (("x", x), ("y", y), ("z", z)):
        if c.size and (c.min() < 0 or c.max() >= limit):
            raise RangeError(f"{name} coordinate out of [0, 2^{depth})")
    return _interleave(x, y, z, depth)


def _interleave(x, y, z, depth: int) -> np.ndarray:
    """The codes of :func:`morton_encode` for int64 coordinates its caller
    has already bounded to [0, 2^depth).  The low 30 bits are built in place,
    a coordinate at a time, so one table gather sits beside the codes."""
    code = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z)), dtype=np.int64)
    for c in (x, y, z):
        code <<= 1
        code |= _SPREAD[c & 1023 if depth > 10 else c]
    if depth > 10:
        code |= ((_SPREAD[x >> 10] << 2) | (_SPREAD[y >> 10] << 1) | _SPREAD[z >> 10]) << 30
    return code


def morton_decode(code, depth: int):
    """Invert :func:`morton_encode`; returns (x, y, z), int64 arrays of the
    codes' shape (0-d for a scalar code).

    The code is read twelve bits (four levels) at a time through a lookup table.
    """
    depth = _check_depth(depth)
    code = np.asarray(code, dtype=np.int64)
    if code.size and (code.min() < 0 or code.max() >= np.int64(1) << (3 * depth)):
        raise RangeError(f"code out of [0, 2^{3 * depth})")
    packed = np.zeros_like(code)
    for chunk in range((depth + 3) // 4):
        packed |= _GATHER[(code >> (12 * chunk)) & 4095] << (4 * chunk)
    x = packed & _FIELD_MASK
    y = (packed >> _FIELD) & _FIELD_MASK
    z = packed >> (2 * _FIELD)
    return x, y, z


def voxel_coords(voxel_set: VoxelSet) -> np.ndarray:
    """The integer coordinates (N, 3) of the voxels, in code order."""
    return np.stack(morton_decode(voxel_set.codes, voxel_set.depth), axis=1)


def _steps(n: int):
    """(i, j) of every lattice point i + j <= n, in the normative loop order:
    i = 0..n outer, j = 0..n-i inner."""
    i, j = np.triu_indices(n + 1)
    return i, j - i


def _blend(c1, c2, c3, a, b):
    """The barycentric blend c1 + (c2 - c1) * a + (c3 - c1) * b, broadcast."""
    out = (c2 - c1) * a
    out += c1
    out += (c3 - c1) * b
    return out


def refine(vertices, faces, upsample: int) -> np.ndarray:
    """Barycentric upsampling of every face; returns (N_f*(U+1)(U+2)/2, 3) points.

    Point for (face m, step i, j) is V1 + (V2-V1)*i/U + (V3-V1)*j/U; output is
    grouped by (i, j) step first (the order of :func:`_steps`), faces within a
    step.
    """
    upsample = _check_upsample(upsample)
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    i, j = _steps(upsample)
    return _blend(vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]],
                  (i / upsample)[:, None, None], (j / upsample)[:, None, None]).reshape(-1, 3)


def refined_faces(n_faces: int, upsample: int) -> np.ndarray:
    """Face triples over the output of :func:`refine`: U^2 triangles per input face.

    Row indices follow the refinement ordering, so entry (i, j) of face m is
    row offset[i, j]*N_f + m where offset[i, j] is the position of step
    (i, j) in :func:`_steps`.  Each step (i, j), i + j < U, gives the triangle
    (i, j), (i+1, j), (i, j+1), then, when i + j < U - 1, the triangle
    (i+1, j), (i+1, j+1), (i, j+1).
    """
    n_faces, upsample = int(n_faces), _check_upsample(upsample)
    steps = _steps(upsample)
    offset = np.zeros((upsample + 1, upsample + 1), dtype=np.int64)
    offset[steps] = np.arange(steps[0].size)
    i, j = _steps(upsample - 1)
    a, b, c, d = offset[i, j], offset[i + 1, j], offset[i, j + 1], offset[i + 1, j + 1]
    triangles = np.stack([a, b, c, b, d, c], axis=1).reshape(-1, 3)  # up, then down, per step
    has_down = i + j <= upsample - 2
    triangles = triangles[np.stack([np.ones_like(has_down), has_down], axis=1).ravel()]
    return (triangles[:, None] * n_faces + np.arange(n_faces)[:, None]).reshape(-1, 3)


def interpolation_lattice(upsample: int, interp: int):
    """Distinct points of one face's :func:`refined_faces`, each upsampled again.

    Interpolating the U^2 refined triangles of a face by the factor I (the
    loop order and barycentric weights of :func:`refine`; the expanded cloud
    is kept in ``tests/oracles.py``) gives U^2 (I+1)(I+2)/2 rows, which land
    on the (U*I+1)(U*I+2)/2 points (p, q), p + q <= U*I, of one lattice.
    Returns (steps, fractions, weights), one row per lattice point in the
    loop order of :func:`refine` at factor U*I: the three refine steps s1,
    s2, s3 the point blends as s1 + (s2 - s1) * a + (s3 - s1) * b, the
    fractions (a, b), and how many of the rows land on the point.  A refined
    vertex is its own copy (equal steps, fractions 0); any other point takes
    the blend of the first (local step, triangle) row that lands on it.
    """
    upsample, interp = _check_upsample(upsample), int(interp)
    if interp < 1:
        raise ParameterError(f"interpolation factor must be >= 1, got {interp}")
    n = upsample * interp
    vi, vj = _steps(upsample)
    triangles = refined_faces(1, upsample)
    corners = np.stack([vi, vj], axis=1)[triangles]  # (U^2, 3, 2)
    ka, kb = _steps(interp)  # local steps of the second upsampling
    # lattice point (p, q) of every (local step, triangle) row, local steps outer
    pq = (corners[:, 0] * interp
          + ka[:, None, None] * (corners[:, 1] - corners[:, 0])
          + kb[:, None, None] * (corners[:, 2] - corners[:, 0]))
    # p * (n + 1) + q sorts the lattice points in the loop order of refine
    keys, first, weights = np.unique((pq[..., 0] * (n + 1) + pq[..., 1]).ravel(),
                                     return_index=True, return_counts=True)
    local, tri = np.divmod(first, triangles.shape[0])
    steps = triangles[tri]
    fractions = np.stack([ka[local], kb[local]], axis=1) / float(interp)
    at_vertex = np.searchsorted(keys, vi * interp * (n + 1) + vj * interp)
    steps[at_vertex] = np.arange(vi.size)[:, None]
    fractions[at_vertex] = 0.0
    return steps, fractions, weights


def _sorted_rows(keys: np.ndarray, key_bits: int):
    """(sorted keys, order) of nonnegative int64 keys below 2^key_bits.

    keys[order] is the sorted keys, equal keys in row order.  Each key is
    packed above its row, key << b | row with b the bit length of n - 1, and
    the packed values, all distinct, are sorted in place and split again: a
    value sort, about three times as fast as an index sort.  Keys too wide to
    share 63 bits with their rows take the stable argsort instead.
    """
    row_bits = (keys.size - 1).bit_length()
    if key_bits + row_bits > 63:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = keys << row_bits
    packed |= np.arange(keys.size, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << row_bits) - 1)
    packed >>= row_bits
    return packed, order


def _group_means(values: np.ndarray, index_map: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group arithmetic means of rows, row i in group index_map[i] of
    n_groups; each group's rows are summed in row order."""
    out = np.empty((n_groups, values.shape[1]))
    for k in range(values.shape[1]):
        out[:, k] = np.bincount(index_map, values[:, k], n_groups)
    out /= np.bincount(index_map, minlength=n_groups)[:, None]
    return out


@dataclass(frozen=True)
class VoxelizationResult:
    """Output of :func:`voxelize`.

    voxel_set: unique sorted codes with attribute means attached.
    index_map: for every input point, the row of its voxel in voxel_set.
    """

    voxel_set: VoxelSet
    index_map: np.ndarray


def voxelize(points, attributes, depth: int) -> VoxelizationResult:
    """Quantize points to the 2^J grid, merge duplicates, average attributes.

    Points must lie in [0, 1)^3.  Attribute rows (optional) are averaged per
    voxel in double precision with no rounding.  The index map reconstructs
    each input point's voxel row: codes[index_map[i]] == morton(point i).
    """
    depth = _check_depth(depth)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ConsistencyError(f"points must be (N, 3), got shape {points.shape}")
    if points.size == 0:
        raise RangeError("cannot voxelize an empty point list")
    # written so that NaN fails it
    if not (points.min() >= 0.0 and points.max() < 1.0):
        raise RangeError("points must lie in [0, 1)^3")
    # scaling by 2^J is exact, so x < 1 gives x * 2^J < 2^J, and on x >= 0
    # the cast's truncation is the floor; one pass scales and casts per axis
    ints = np.empty((3, points.shape[0]), dtype=np.int64)
    np.multiply(points.T, float(1 << depth), out=ints, casting="unsafe")
    codes = _interleave(ints[0], ints[1], ints[2], depth)
    del ints  # so it does not sit beside the sort
    codes, order = _sorted_rows(codes, 3 * depth)
    starts = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=starts[1:])
    unique_codes = codes[starts]
    np.cumsum(starts, out=codes)  # each sorted row's voxel, counted from 1
    codes -= 1
    inverse = np.empty_like(order)
    inverse[order] = codes  # put back in input order
    del codes, order, starts  # so they do not sit beside the means

    means = None
    if attributes is not None:
        attrs = _as_rows(attributes, points.shape[0], "attributes")
        means = _group_means(attrs, inverse, unique_codes.size)

    voxel_set = VoxelSet(depth, unique_codes, means)
    return VoxelizationResult(voxel_set, inverse)
