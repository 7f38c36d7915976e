"""Reference implementations that only tests call.

The refinement loop: one corner blend per (i, j) step, concatenated.  The
library blends every step at once (:func:`tricloud.geom.refine`); this
function keeps the loop whose bytes it is checked against.

The bit-by-bit RLGR coder: a bit writer and reader with one call per field
and per bit, one Golomb-Rice code site per mode, and its own copy of the kRP
rule.  The library encoder scans the symbols once per nonzero and packs the
codewords into 32-bit words (:func:`tricloud.entropy.rlgr_encode`); its
decoder reads one string of '0'/'1' characters
(:func:`tricloud.entropy.rlgr_decode`).  These functions keep the direct
construction their bytes are checked against.

The bit-by-bit partitioned coder (plane coder 2): the gaps and magnitudes of
the nonzeros and the gaps between their sign changes, every partition's
family and k chosen by trying each candidate on each value, and every prefix
and remainder written and read one field at a time through the same bit
writer and reader, from the payload table of ``docs/bitstream.md`` alone.  The library codes and reads
every field of a plane with array operations
(:func:`tricloud.entropy.partitioned_encode`,
:func:`tricloud.entropy.partitioned_decode`).

The dense plane scatter: every decoded symbol of a plane, zeros included,
written into the coefficient block through the plan's coding order, each
plane decoded by the bit-by-bit decoder its coder id names.  The library
scatters only the nonzeros into a zeroed block
(:func:`tricloud.codec._decode_planes`); this function keeps the dense
scatter its blocks are checked against bit for bit.

The expanded render cloud: every refined triangle upsampled again, with a
point shared by neighboring triangles repeated once per triangle.  The
library walks each distinct point once (:func:`tricloud.geom.interpolation_lattice`,
:func:`tricloud.metrics._render_voxels`) and builds no cloud; these
functions keep the direct construction the metrics are checked against, and
the whole cloud of every distinct point blended, refined vertices included,
whose voxel means the library's must equal byte for byte.

The index sorts: voxel grouping by ``np.unique`` and the visible voxels of
a projection by ``np.argsort`` of their composite keys.  The library sorts
each key packed above its row index as one int64 value
(:func:`tricloud.geom.voxelize`, :func:`tricloud.metrics._face_winners`);
these functions keep the index sorts its output is checked against.

The row-wise RAHT passes: each level gathers, combines and scatters whole
attribute rows with (m, 1) gains.  The library runs the same butterflies one
contiguous column at a time (:func:`tricloud.transform.raht_forward`,
:func:`tricloud.transform.raht_inverse`); these functions keep the row-wise
form its output is checked against bit for bit.

The octree levels, one node at a time: each level's bytes built in a dict
keyed by node, straight from the rule in ``docs/bitstream.md``.  The library
turns each level into bytes with one numpy pass
(:func:`tricloud.octree.octree_serialize`); this function keeps the
node-by-node construction its bytes are checked against.
"""

import struct

import numpy as np

from tricloud.entropy import (
    _D0, _D1, _ESC, _INIT_KP, _INIT_KRP, _KP_MAX, _KRP_MAX, _L, _U0, _U1, RLGR_VERSION,
)
from tricloud.errors import ConsistencyError, CorruptStreamError, RangeError
from tricloud.geom import interpolation_lattice, morton_encode, refine
from tricloud.transform import CoefficientBlock


def barycentric_refine(corner0, corner1, corner2, upsample: int) -> np.ndarray:
    """Stack corner blends for every (i, j) step of the refinement loop.

    corner0/1/2 are (N_f, K) rows.  Output rows: one block of N_f rows per
    (i, j), i = 0..U, j = 0..U-i, in that loop order.
    """
    u = float(upsample)
    blocks = []
    for i in range(upsample + 1):
        for j in range(upsample + 1 - i):
            a = i / u
            b = j / u
            blocks.append(corner0 + (corner1 - corner0) * a + (corner2 - corner0) * b)
    return np.concatenate(blocks, axis=0)


def refine_interpolate(vertices_r, colors_r, faces_r, upsample: int):
    """Upsample a refined cloud again, interpolating positions *and* colors.

    Same loop order and barycentric weights as :func:`refine`, applied to both
    signals; returns (points, colors).
    """
    vertices_r = np.asarray(vertices_r, dtype=np.float64)
    colors_r = np.asarray(colors_r, dtype=np.float64)
    if vertices_r.shape[0] != colors_r.shape[0]:
        raise ConsistencyError("vertices_r and colors_r must correspond row-wise")
    faces_r = np.asarray(faces_r, dtype=np.int64)
    joined = np.concatenate([vertices_r, colors_r], axis=1)
    c1 = joined[faces_r[:, 0]]
    c2 = joined[faces_r[:, 1]]
    c3 = joined[faces_r[:, 2]]
    out = barycentric_refine(c1, c2, c3, int(upsample))
    return out[:, :3], out[:, 3:]


def refined_interpolated_cloud(frame, interp: int = 1):
    """(points, colors) of the upsampled render cloud of one frame.

    The rows of :func:`blended_render_cloud`, each repeated by its
    multiplicity: the cloud of every refined triangle interpolated by the
    extra factor, with points shared by neighboring triangles once per
    triangle.
    """
    points, colors, weights = blended_render_cloud(frame, interp)
    return np.repeat(points, weights, axis=0), np.repeat(colors, weights, axis=0)


def blended_render_cloud(frame, interp: int = 1):
    """(points, colors, weights) of the render cloud of one frame: each point
    of :func:`interpolation_lattice` once, on every face, with its multiplicity.

    Each lattice point gathers its three refine steps' rows and blends them,
    a refined vertex (equal steps, fractions 0) included.
    """
    steps, fractions, weights = interpolation_lattice(frame.upsample, interp)
    v_r = refine(frame.vertices, frame.faces, frame.upsample)
    n_steps = (frame.upsample + 1) * (frame.upsample + 2) // 2  # rows of refine per face
    joined = np.concatenate([v_r, frame.colors], axis=1).reshape(n_steps, frame.n_faces, 6)
    c1, c2, c3 = (joined[steps[:, k]] for k in range(3))
    out = (c2 - c1) * fractions[:, 0, None, None]
    out += c1
    out += (c3 - c1) * fractions[:, 1, None, None]
    out = out.reshape(-1, 6)
    return out[:, :3], out[:, 3:], np.repeat(weights, frame.n_faces)


def voxel_grouping(points, depth: int):
    """(unique codes, index map) of points in [0, 1)^3 voxelized at depth,
    grouped by ``np.unique``: codes[index_map[i]] is point i's Morton code."""
    ints = (np.asarray(points, dtype=np.float64) * float(1 << depth)).astype(np.int64)
    codes = morton_encode(ints[:, 0], ints[:, 1], ints[:, 2], depth)
    unique_codes, inverse = np.unique(codes, return_inverse=True)
    return unique_codes, inverse.ravel()


def face_winners(coords, depth: int, axis: int):
    """(keys, plus_rows, minus_rows) of the voxels at unique `coords` seen
    along `axis`: the sorted pixel keys row * 2^J + col, and per key the row
    of the voxel nearest the + face and of the one nearest the - face."""
    size = 1 << depth
    pix = coords[:, (axis + 1) % 3] * size + coords[:, (axis + 2) % 3]
    order = np.argsort(pix * size + coords[:, axis])
    pix = pix[order]
    first = np.flatnonzero(np.diff(pix, prepend=-1))
    last = np.flatnonzero(np.diff(pix, append=size * size))
    return pix[first], order[last], order[first]


def _adapt_krp(krp: int, p: int) -> int:
    """kRP after a Golomb-Rice codeword with unary prefix p (docs/bitstream.md)."""
    if p == 0:
        return max(0, krp - 2)
    if p > 1:
        return min(krp + p + 1, _KRP_MAX)
    return krp


class _BitWriter:
    def __init__(self):
        self.chunks = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, nbits: int) -> None:
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.nbits += nbits
        while self.nbits >= 8:
            self.nbits -= 8
            self.chunks.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def getvalue(self) -> bytes:
        if self.nbits:
            return bytes(self.chunks) + bytes([(self.acc << (8 - self.nbits)) & 0xFF])
        return bytes(self.chunks)


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0          # next byte index
        self.acc = 0
        self.nbits = 0

    def read(self, nbits: int) -> int:
        while self.nbits < nbits:
            if self.pos >= len(self.data):
                raise CorruptStreamError("bitstream ended mid-codeword")
            self.acc = (self.acc << 8) | self.data[self.pos]
            self.pos += 1
            self.nbits += 8
        self.nbits -= nbits
        value = (self.acc >> self.nbits) & ((1 << nbits) - 1)
        self.acc &= (1 << self.nbits) - 1
        return value

    def bytes_consumed(self) -> int:
        return self.pos


def _gr_write(writer: _BitWriter, value: int, k_r: int) -> None:
    p = value >> k_r
    if p < _ESC:
        writer.write(((1 << p) - 1) << 1, p + 1)  # p ones, one zero
        if k_r:
            writer.write(value & ((1 << k_r) - 1), k_r)
    else:
        writer.write((1 << _ESC) - 1, _ESC)
        writer.write(value, 32)


def _gr_read(reader: _BitReader, k_r: int) -> int:
    p = 0
    while p < _ESC and reader.read(1):
        p += 1
    if p == _ESC:
        return reader.read(32)
    low = reader.read(k_r) if k_r else 0
    return (p << k_r) | low


def rlgr_encode(symbols) -> bytes:
    """Encode signed integers; layout: version byte, u32 count, bit-packed body."""
    arr = np.asarray(symbols, dtype=np.int64).ravel()
    if arr.size and (arr.min() < -(1 << 31) or arr.max() > (1 << 31) - 1):
        raise RangeError("symbols must fit in signed 32 bits")
    # interleave signs: 0,-1,1,-2,... -> 0,1,2,3,...
    unsigned = np.where(arr >= 0, 2 * arr, -2 * arr - 1)
    u = unsigned.tolist()
    nonzeros = np.flatnonzero(unsigned).tolist()
    nonzeros.append(arr.size)  # sentinel

    writer = _BitWriter()
    kp, krp = _INIT_KP, _INIT_KRP
    pos = 0
    nz_i = 0
    n = arr.size
    while pos < n:
        k = kp >> _L
        k_r = krp >> _L
        if k == 0:
            value = u[pos]
            _gr_write(writer, value, k_r)
            krp = _adapt_krp(krp, value >> k_r)
            if value == 0:
                kp = min(kp + _U0, _KP_MAX)
            else:
                kp = max(0, kp - _D0)
                nz_i += 1
            pos += 1
        else:
            next_nz = nonzeros[nz_i]
            gap = next_nz - pos
            m = 1 << k
            if gap >= m:
                writer.write(0, 1)          # complete run of m zeros
                kp = min(kp + _U1, _KP_MAX)
                pos += m
            elif next_nz == n:
                if gap > 0:                 # flush trailing zeros as one run bit
                    writer.write(0, 1)
                pos = n
            else:
                writer.write(1, 1)          # broken run: length, then value-1
                writer.write(gap, k)
                value = u[next_nz] - 1
                _gr_write(writer, value, k_r)
                krp = _adapt_krp(krp, value >> k_r)
                kp = max(0, kp - _D1)
                pos = next_nz + 1
                nz_i += 1
    return bytes([RLGR_VERSION]) + struct.pack("<I", n) + writer.getvalue()


def rlgr_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """Decode an RLGR payload back to signed integers.

    ``count``, when given, must match the payload's embedded symbol count.
    """
    if len(data) < 5:
        raise CorruptStreamError("RLGR payload shorter than its header")
    if data[0] != RLGR_VERSION:
        raise CorruptStreamError(f"unsupported RLGR version {data[0]}")
    (n,) = struct.unpack_from("<I", data, 1)
    if count is not None and n != count:
        raise CorruptStreamError(f"symbol count mismatch: payload {n}, expected {count}")

    reader = _BitReader(data[5:])
    out = np.zeros(n, dtype=np.int64)
    kp, krp = _INIT_KP, _INIT_KRP
    pos = 0
    while pos < n:
        k = kp >> _L
        k_r = krp >> _L
        if k == 0:
            value = _gr_read(reader, k_r)
            krp = _adapt_krp(krp, value >> k_r)
            if value == 0:
                kp = min(kp + _U0, _KP_MAX)
            else:
                out[pos] = value
                kp = max(0, kp - _D0)
            pos += 1
        else:
            if reader.read(1) == 0:
                pos += min(1 << k, n - pos)  # zeros are already in place
                kp = min(kp + _U1, _KP_MAX)
            else:
                run = reader.read(k)
                if pos + run >= n:
                    raise CorruptStreamError("broken-run record exceeds symbol count")
                pos += run
                value = _gr_read(reader, k_r)
                krp = _adapt_krp(krp, value >> k_r)
                out[pos] = value + 1
                kp = max(0, kp - _D1)
                pos += 1
    if reader.bytes_consumed() != len(data) - 5:
        raise CorruptStreamError("unconsumed bytes after the last symbol")
    # undo the sign interleave
    return np.where(out % 2 == 0, out // 2, -(out + 1) // 2)


# (Exp-Golomb?, k - b) per partition, in the order docs/bitstream.md lists them
_PARTITION_CANDIDATES = ((0, -1), (0, 0), (1, -4), (1, -3), (1, -2), (1, -1), (1, 0))


def _prefix_and_remainder(value: int, golomb: int, k: int):
    """(unary prefix u, remainder width, remainder) of one value."""
    if golomb:
        width = (value + (1 << k)).bit_length() - 1
        return width - k, width, value + (1 << k) - (1 << width)
    return value >> k, k, value & ((1 << k) - 1)


def partitioned_encode(symbols) -> bytes:
    """Plane coder 2: coder id, n, m, r, unary length, then the header, unary
    and remainder parts, each zero-padded to a byte."""
    xs = [int(x) for x in np.asarray(symbols, dtype=np.int64).ravel()]
    if any(x < -(1 << 31) or x > (1 << 31) - 1 for x in xs):
        raise RangeError("symbols must fit in signed 32 bits")
    positions = [i for i, x in enumerate(xs) if x]
    signs = [int(xs[i] < 0) for i in positions]
    changes = [i for i, sign in enumerate(signs) if sign != ([0] + signs)[i]]
    streams = [[i - previous - 1 for i, previous in zip(stream, [-1] + stream)]
               for stream in (positions, changes)]
    streams.insert(1, [abs(xs[i]) - 1 for i in positions])
    head, unary, remainders = _BitWriter(), _BitWriter(), _BitWriter()
    for stream in streams:  # the gaps, the magnitudes, then the sign-change gaps
        for start in range(0, len(stream), 128):
            part = stream[start:start + 128]
            b = (sum(part) // len(part) + 1).bit_length() - 1
            best = None
            for golomb, offset in _PARTITION_CANDIDATES:
                k = min(max(b + offset, 0), 31)
                bits = sum(u + 1 + w for u, w, _ in
                           (_prefix_and_remainder(v, golomb, k) for v in part))
                if best is None or bits < best[0]:
                    best = (bits, golomb, k)
            _, golomb, k = best
            head.write(golomb, 1)
            head.write(k, 5)
            for u, width, remainder in (_prefix_and_remainder(v, golomb, k) for v in part):
                for _ in range(u):
                    unary.write(1, 1)
                unary.write(0, 1)
                remainders.write(remainder, width)
    unary_bytes = unary.getvalue()
    return (struct.pack("<BIIII", 2, len(xs), len(positions), len(changes), len(unary_bytes))
            + head.getvalue() + unary_bytes + remainders.getvalue())


def _drained(reader: _BitReader, size: int) -> bool:
    """Whether a part's reader has used every byte and left only zero bits."""
    return reader.bytes_consumed() == size and reader.acc == 0


def partitioned_decode(data: bytes, count: int | None = None) -> np.ndarray:
    """Invert :func:`partitioned_encode`, with every check of docs/bitstream.md."""
    if len(data) < 17:
        raise CorruptStreamError("partitioned payload shorter than its header")
    coder, n, m, r, n_unary = struct.unpack_from("<BIIII", data)
    if coder != 2 or (count is not None and n != count) or not r <= m <= n:
        raise CorruptStreamError("bad coder id, symbol count, nonzero or sign-change count")
    n_parts = 2 * -(-m // 128) + -(-r // 128)
    head_end = 17 + (6 * n_parts + 7) // 8
    if head_end + n_unary > len(data):
        raise CorruptStreamError("partitioned payload shorter than its parts")
    head = _BitReader(data[17:head_end])
    unary = _BitReader(data[head_end:head_end + n_unary])
    remainders = _BitReader(data[head_end + n_unary:])
    streams = []
    for size in (m, m, r):
        stream = []
        for start in range(0, size, 128):
            golomb, k = head.read(1), head.read(5)
            for _ in range(min(128, size - start)):
                u = 0
                while unary.read(1):
                    u += 1
                if (golomb and u + k > 32) or (not golomb and u >= 1 << (32 - k)):
                    raise CorruptStreamError("a coded value does not fit in 32 bits")
                if golomb:
                    stream.append((1 << (u + k)) + remainders.read(u + k) - (1 << k))
                else:
                    stream.append((u << k) + remainders.read(k))
        streams.append(stream)
    if not (_drained(head, head_end - 17) and _drained(unary, n_unary)
            and _drained(remainders, len(data) - head_end - n_unary)):
        raise CorruptStreamError("a part does not end in zero padding within its last byte")
    gaps, magnitudes, change_gaps = streams
    changes, position = set(), -1
    for gap in change_gaps:
        position += gap + 1
        if position >= m:
            raise CorruptStreamError("sign changes run past the nonzero count")
        changes.add(position)
    out = np.zeros(n, dtype=np.int64)
    position, negative = -1, 0
    for i, (gap, magnitude) in enumerate(zip(gaps, magnitudes)):
        position += gap + 1
        if position >= n:
            raise CorruptStreamError("nonzero positions run past the symbol count")
        negative ^= i in changes
        if magnitude + 1 - negative > (1 << 31) - 1:
            raise CorruptStreamError("a symbol does not fit in signed 32 bits")
        out[position] = -(magnitude + 1) if negative else magnitude + 1
    return out


def decode_planes(payloads, plan) -> np.ndarray:
    """Each plane by the coder its first byte names, every symbol scattered."""
    symbols = np.empty((plan.n, len(payloads)), dtype=np.int64, order="F")
    for k, payload in enumerate(payloads):
        decode = rlgr_decode if payload[:1] == bytes([RLGR_VERSION]) else partitioned_decode
        symbols[plan.order, k] = decode(payload, plan.n)
    return symbols


def _as_matrix(values, n: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ConsistencyError(f"{what} must have one row per voxel ({n}), got {arr.shape}")
    return arr


def raht_forward(plan, attributes) -> CoefficientBlock:
    """Row-wise forward RAHT over the plan's levels, bottom-up."""
    ta = _as_matrix(attributes, plan.n, "attributes")
    for level in plan.levels:
        i0, i1, a, b = level.left_rows, level.right_rows, level.a[:, None], level.b[:, None]
        x0 = ta[i0]
        x1 = ta[i1]
        ta[i0] = a * x0 + b * x1
        ta[i1] = -b * x0 + a * x1
    return CoefficientBlock(coefficients=ta)


def raht_inverse(plan, coefficients) -> np.ndarray:
    """Row-wise inverse RAHT over the plan's levels, top-down."""
    ta = _as_matrix(coefficients, plan.n, "coefficients")
    for level in reversed(plan.levels):
        i0, i1, a, b = level.left_rows, level.right_rows, level.a[:, None], level.b[:, None]
        x0 = ta[i0]
        x1 = ta[i1]
        ta[i0] = a * x0 - b * x1
        ta[i1] = b * x0 + a * x1
    return ta


def octree_levels(codes, depth: int) -> bytes:
    """Occupancy bytes of the Morton codes at `depth`, level by level from the
    root: level d holds one byte per depth-d node, nodes in increasing Morton
    order, and bit 7 - k of a node's byte is set iff its child k is occupied."""
    leaves = {int(code) for code in codes}
    out = bytearray()
    for level in range(depth):
        nodes = {}  # depth-`level` node -> its byte
        for code in leaves:
            child = code >> 3 * (depth - level - 1)  # the leaf's depth-(level + 1) ancestor
            nodes[child >> 3] = nodes.get(child >> 3, 0) | 0x80 >> (child & 7)
        out.extend(nodes[node] for node in sorted(nodes))
    return bytes(out)
