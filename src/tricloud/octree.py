"""Octree occupancy coding of voxel sets, plus the standalone point-cloud baseline.

A voxel set at depth J is described by one byte per internal octree node,
emitted level by level from the root, each level's nodes in Morton order.
Bit (7-k) of a byte is set iff child k is occupied, so a level holds as many
bytes as the level above sets bits, and a parse emits leaf codes already sorted.
"""

from __future__ import annotations

import io

import numpy as np

from .core import VoxelSet, _check_depth
from .entropy import deflate, inflate, rlgr_encode
from .errors import (
    ConsistencyError,
    CorruptStreamError,
    EmptySetError,
    TrailingBytesError,
    TruncatedStreamError,
)
from .transform import raht_forward, raht_inverse, raht_plan

# [byte, k] is True iff the byte's bit 7 - k marks child k occupied
_CHILDREN = (np.arange(256)[:, None] & (0x80 >> np.arange(8))) != 0


def octree_serialize(voxel_set: VoxelSet) -> bytes:
    """Occupancy bytes for the voxel set, one per internal node, level by level
    from the root and in Morton order within a level."""
    codes, depth = voxel_set.codes, voxel_set.depth
    if codes.size == 0:
        raise EmptySetError("cannot serialize an empty voxel set")

    levels = []
    for _ in range(depth):  # bottom-up: the nodes at one depth become their parents' bytes
        parents = codes >> 3
        first = np.flatnonzero(np.diff(parents, prepend=-1))  # first child of each parent
        bits = np.uint8(0x80) >> (codes & 7).astype(np.uint8)
        levels.append(np.bitwise_or.reduceat(bits, first))
        codes = parents[first]
    return b"".join(level.tobytes() for level in reversed(levels))


def octree_parse(data: bytes, depth: int) -> VoxelSet:
    """Rebuild the voxel set from occupancy bytes; exact inverse of serialize."""
    depth = _check_depth(depth)
    stream = np.frombuffer(data, dtype=np.uint8)
    codes = np.zeros(1, dtype=np.int64)
    for d in range(depth):
        # one byte per node at depth d, checked before anything is allocated
        level, stream = stream[:codes.size], stream[codes.size:]
        if level.size < codes.size:
            raise TruncatedStreamError(f"occupancy level {d} ends after {level.size} bytes")
        if not level.all():
            raise CorruptStreamError("occupancy byte with no children")
        parents, children = np.nonzero(_CHILDREN[level])
        codes = codes[parents]
        codes <<= 3
        codes |= children
    if stream.size:
        raise TrailingBytesError(f"{stream.size} bytes after a complete traversal")
    return VoxelSet(depth, codes)


def baseline_encode_pointcloud(voxel_set: VoxelSet, step_color: float):
    """Standalone coding of one voxelized colored cloud (the comparison baseline).

    Geometry is the deflated occupancy bytes; colors go through the codec's
    plane path (``raht_forward`` with the step, ``codec._code_planes`` in RLGR),
    each plane framed by its u32 length.  Returns (geometry_bytes, color_bytes).
    """
    from .codec import _code_planes, _pack_section  # codec imports octree

    if voxel_set.attributes is None:
        raise ConsistencyError("baseline coding needs per-voxel attributes")
    geometry = deflate(octree_serialize(voxel_set))
    plan = raht_plan(voxel_set)
    symbols = raht_forward(plan, voxel_set.attributes, step_color).coefficients
    planes = _code_planes(symbols, plan, rlgr_encode)
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
