"""Octree occupancy coding of voxel sets, plus the standalone point-cloud baseline.

A voxel set at depth J is described by one byte per internal octree node,
emitted in depth-first (preorder) order with children visited in increasing
3-bit Morton child index.  Bit (7-k) of a byte is set iff child k is occupied,
so a parse in stream order emits leaf codes already sorted.
"""

from __future__ import annotations

import io

import numpy as np

from .core import VoxelSet, _check_depth
from .entropy import deflate, inflate
from .errors import (
    ConsistencyError,
    CorruptStreamError,
    EmptySetError,
    TrailingBytesError,
    TruncatedStreamError,
)
from .transform import raht_forward, raht_inverse, raht_plan

# child sub-lists per occupancy byte, in increasing child index
_CHILD_LISTS = tuple(
    tuple(k for k in range(8) if byte & (0x80 >> k)) for byte in range(256)
)


def octree_serialize(voxel_set: VoxelSet) -> bytes:
    """Occupancy bytes for the voxel set, one per internal node, preorder: the
    nonzero bytes, row by row, of an (n_leaves, J) grid holding each node's byte
    at (its first leaf, its depth).  A node's eldest child is the next byte in
    its row; each later child's subtree starts a row after the earlier ones'."""
    codes, depth = voxel_set.codes, voxel_set.depth
    if codes.size == 0:
        raise EmptySetError("cannot serialize an empty voxel set")

    grid = np.zeros((codes.size, depth), dtype=np.uint8)
    # a leaf starts a node at depth d iff its code and its predecessor's differ
    # above their last 3 * (depth - d) bits; the first leaf starts every node
    change = codes ^ np.roll(codes, 1)
    change[0] = np.iinfo(np.int64).max
    for d in range(depth):
        shift = np.int64(3 * (depth - d - 1))
        children = np.flatnonzero(change >= np.int64(1) << shift)  # depth d + 1 first leaves
        bits = np.uint8(0x80) >> (codes[children] >> shift & 7).astype(np.uint8)
        # a depth-d node's first leaf starts its eldest child, and its children
        # run from there to the next node's eldest
        eldest = np.flatnonzero(change[children] >= np.int64(8) << shift)
        grid[children[eldest], d] = np.bitwise_or.reduceat(bits, eldest)
    return grid[grid != 0].tobytes()


def octree_parse(data: bytes, depth: int) -> VoxelSet:
    """Rebuild the voxel set from occupancy bytes; exact inverse of serialize."""
    depth = _check_depth(depth)
    if len(data) == 0:
        raise TruncatedStreamError("empty occupancy stream")
    pos = 0
    out = []
    stack = [(0, 0)]  # (prefix, node depth)
    while stack:
        prefix, d = stack.pop()
        if pos >= len(data):
            raise TruncatedStreamError("occupancy stream ended mid-traversal")
        kids = _CHILD_LISTS[data[pos]]
        pos += 1
        if not kids:
            raise CorruptStreamError("occupancy byte with no children")
        base = prefix << 3
        if d == depth - 1:
            out.extend(base + k for k in kids)
        else:
            for k in reversed(kids):
                stack.append((base + k, d + 1))
    if pos != len(data):
        raise TrailingBytesError(f"{len(data) - pos} bytes after a complete traversal")
    return VoxelSet(depth, np.array(out, dtype=np.int64))


def baseline_encode_pointcloud(voxel_set: VoxelSet, step_color: float):
    """Standalone coding of one voxelized colored cloud (the comparison baseline).

    Geometry is the deflated occupancy bytes; colors go through the intra
    codec's plane path (``raht_forward`` with the step, ``codec._code_planes``),
    each plane framed by its u32 length.  Returns (geometry_bytes, color_bytes).
    """
    from .codec import _code_planes, _pack_section  # codec imports octree

    if voxel_set.attributes is None:
        raise ConsistencyError("baseline coding needs per-voxel attributes")
    geometry = deflate(octree_serialize(voxel_set))
    plan = raht_plan(voxel_set)
    planes = _code_planes(raht_forward(plan, voxel_set.attributes, step_color).coefficients, plan)
    return geometry, b"".join(_pack_section(plane) for plane in planes)


def baseline_decode_pointcloud(geometry: bytes, color_bytes: bytes, depth: int,
                               step_color: float) -> VoxelSet:
    """Invert :func:`baseline_encode_pointcloud` (colors up to quantization)."""
    from .codec import _decode_planes, _section  # codec imports octree

    fp = io.BytesIO(color_bytes)
    planes = []
    while fp.tell() < len(color_bytes):
        planes.append(_section(fp))
    if not planes:
        raise TruncatedStreamError("no color payloads present")
    # every plane declares the voxel count (bytes 1-4), which bounds the octree
    n_voxels = int.from_bytes(planes[0][1:5], "little")
    voxel_set = octree_parse(inflate(geometry, depth * n_voxels), depth)
    plan = raht_plan(voxel_set)
    return VoxelSet(depth, voxel_set.codes,
                    raht_inverse(plan, _decode_planes(planes, plan), step_color))
