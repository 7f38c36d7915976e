"""Morton codes, triangle refinement, and voxelization."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import barycentric_refine, refine_interpolate, voxel_grouping
from tricloud import geom
from tricloud.core import VoxelSet
from tricloud.errors import ConsistencyError, ParameterError, RangeError


def _morton_reference(x, y, z, depth):
    """Bit-by-bit interleave, x most significant within each triple."""
    code = 0
    for k in range(depth):
        code |= ((x >> k) & 1) << (3 * k + 2)
        code |= ((y >> k) & 1) << (3 * k + 1)
        code |= ((z >> k) & 1) << (3 * k)
    return code


def test_morton_hand_case():
    # x=5 (101), y=3 (011), z=6 (110) -> bits x2 y2 z2 x1 y1 z1 x0 y0 z0
    # = 101 011 110 = 350
    assert geom.morton_encode(np.array([5]), np.array([3]), np.array([6]), 3)[0] == 350
    x, y, z = geom.morton_decode(np.array([350]), 3)
    assert (x[0], y[0], z[0]) == (5, 3, 6)


def test_morton_axis_significance():
    # at depth 1 the single x bit lands above y above z
    one = np.array([1])
    zero = np.array([0])
    assert geom.morton_encode(one, zero, zero, 1)[0] == 4
    assert geom.morton_encode(zero, one, zero, 1)[0] == 2
    assert geom.morton_encode(zero, zero, one, 1)[0] == 1


@given(st.integers(1, 20), st.data())
@settings(max_examples=60, deadline=None)
def test_morton_matches_reference_and_inverts(depth, data):
    top = (1 << depth) - 1
    coords = data.draw(
        st.lists(st.tuples(st.integers(0, top), st.integers(0, top), st.integers(0, top)),
                 min_size=1, max_size=24)
    )
    x, y, z = (np.array(c, dtype=np.int64) for c in zip(*coords))
    codes = geom.morton_encode(x, y, z, depth)
    expected = [_morton_reference(*c, depth) for c in coords]
    assert codes.tolist() == expected
    bx, by, bz = geom.morton_decode(codes, depth)
    assert np.array_equal(bx, x) and np.array_equal(by, y) and np.array_equal(bz, z)


def test_morton_rejects_out_of_range():
    with pytest.raises(RangeError):
        geom.morton_encode(np.array([8]), np.array([0]), np.array([0]), 3)
    with pytest.raises(RangeError):
        geom.morton_encode(np.array([-1]), np.array([0]), np.array([0]), 3)


def _morton_encode_bit_loop(x, y, z, depth):
    """Reference encoder: one shift-and-or per bit and axis."""
    x, y, z = (np.asarray(c, dtype=np.int64) for c in (x, y, z))
    code = np.zeros(np.broadcast(x, y, z).shape, dtype=np.int64)
    for k in range(depth):
        code |= ((x >> k) & 1) << (3 * k + 2)
        code |= ((y >> k) & 1) << (3 * k + 1)
        code |= ((z >> k) & 1) << (3 * k)
    return code


def _morton_decode_bit_loop(code, depth):
    """Reference decoder: one shift-and-or per bit and axis."""
    code = np.asarray(code, dtype=np.int64)
    x, y, z = np.zeros_like(code), np.zeros_like(code), np.zeros_like(code)
    for k in range(depth):
        x |= ((code >> (3 * k + 2)) & 1) << k
        y |= ((code >> (3 * k + 1)) & 1) << k
        z |= ((code >> (3 * k)) & 1) << k
    return x, y, z


@pytest.mark.parametrize("depth", range(1, 21))
def test_morton_tables_match_bit_loop(depth):
    rng = np.random.default_rng(100 + depth)
    top = (1 << depth) - 1
    x, y, z = rng.integers(0, top + 1, size=(3, 500))
    # the grid corners and edges: every coordinate at 0 and at 2^J - 1
    x[:8] = [0, top, 0, 0, top, top, 0, top]
    y[:8] = [0, 0, top, 0, top, 0, top, top]
    z[:8] = [0, 0, 0, top, 0, top, top, top]
    codes = geom.morton_encode(x, y, z, depth)
    assert np.array_equal(codes, _morton_encode_bit_loop(x, y, z, depth))
    assert codes[7] == (1 << (3 * depth)) - 1
    any_codes = rng.integers(0, 1 << (3 * depth), size=500)
    any_codes[:2] = [0, (1 << (3 * depth)) - 1]
    for got, want in zip(geom.morton_decode(any_codes, depth),
                         _morton_decode_bit_loop(any_codes, depth)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_morton_tables_scalars_and_broadcasting():
    # scalars are 0-d arrays, like any other shape
    code = geom.morton_encode(5, 3, 6, 3)
    assert code.shape == () and code.dtype == np.int64 and code == 350
    decoded = geom.morton_decode(350, 3)
    assert all(c.shape == () and c.dtype == np.int64 for c in decoded) and decoded == (5, 3, 6)
    depth = 12
    rng = np.random.default_rng(7)
    x = rng.integers(0, 1 << depth, size=(4, 1))
    y = rng.integers(0, 1 << depth, size=(3,))
    z = 4095
    codes = geom.morton_encode(x, y, z, depth)
    assert codes.shape == (4, 3)
    assert np.array_equal(codes, _morton_encode_bit_loop(x, y, z, depth))
    for got, want in zip(geom.morton_decode(codes, depth),
                         np.broadcast_arrays(x, y, z)):
        assert got.shape == (4, 3) and np.array_equal(got, want)


@pytest.mark.parametrize("depth", [1, 10, 11, 20])
def test_morton_tables_keep_range_checks(depth):
    limit = 1 << depth
    for bad in (limit, -1):
        with pytest.raises(RangeError):
            geom.morton_encode(0, bad, 0, depth)
        with pytest.raises(RangeError):
            geom.morton_encode(np.array([0, 1]), np.array([0, 0]), np.array([1, bad]), depth)
    for bad in (1 << (3 * depth), -1):
        with pytest.raises(RangeError):
            geom.morton_decode(bad, depth)
        with pytest.raises(RangeError):
            geom.morton_decode(np.array([0, bad]), depth)


def test_voxel_coords_decode_each_code_in_order():
    vs = VoxelSet(1, np.array([0, 1, 7]))
    coords = geom.voxel_coords(vs)
    assert coords.dtype == np.int64 and coords.tolist() == [[0, 0, 0], [0, 0, 1], [1, 1, 1]]
    assert geom.voxel_coords(VoxelSet(3, np.array([], dtype=np.int64))).shape == (0, 3)


TRI = np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0], [0.0, 0.9, 0.0]])
ONE_FACE = np.array([[0, 1, 2]])


def test_refine_upsample_one_is_corners():
    # row order follows the (i, j) double loop: (0,0), (0,1), (1,0)
    out = geom.refine(TRI, ONE_FACE, 1)
    assert np.array_equal(out, TRI[[0, 2, 1]])


def test_refine_upsample_two_hand_case():
    out = geom.refine(TRI, ONE_FACE, 2)
    expected = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.45, 0.0],
        [0.0, 0.9, 0.0],
        [0.45, 0.0, 0.0],
        [0.45, 0.45, 0.0],
        [0.9, 0.0, 0.0],
    ])
    assert np.allclose(out, expected, atol=0, rtol=0)


@pytest.mark.parametrize("upsample", [1, 2, 3, 7])
def test_refine_point_count(upsample):
    faces = np.array([[0, 1, 2], [2, 1, 0]])
    out = geom.refine(TRI, faces, upsample)
    per_face = (upsample + 1) * (upsample + 2) // 2
    assert out.shape == (2 * per_face, 3)


@pytest.mark.parametrize("n_faces", [0, 1, 7, 500])
def test_refine_equals_the_step_loop_byte_for_byte(n_faces):
    rng = np.random.default_rng(n_faces)
    verts = rng.random((40, 3))
    faces = rng.integers(0, 40, size=(n_faces, 3))
    corners = [verts[faces[:, k]] for k in range(3)]
    for upsample in range(1, 13):
        expected = barycentric_refine(*corners, upsample)
        assert geom.refine(verts, faces, upsample).tobytes() == expected.tobytes()


def test_refine_rejects_bad_upsample():
    with pytest.raises(ParameterError):
        geom.refine(TRI, ONE_FACE, 0)


def test_refined_faces_hand_case():
    # lattice triangulation of one face at upsample 2: four small triangles
    assert geom.refined_faces(1, 2).tolist() == [[0, 3, 1], [3, 4, 1], [1, 4, 2], [3, 5, 4]]


def test_refined_faces_counts_and_blocks():
    upsample = 4
    n_faces = 3
    per_face_pts = (upsample + 1) * (upsample + 2) // 2
    fr = geom.refined_faces(n_faces, upsample)
    assert fr.shape == (n_faces * upsample * upsample, 3)
    # refine output is step-major: face m owns the rows congruent to m, so a
    # small triangle never mixes rows from different parent faces
    parent = fr % n_faces
    assert np.all(parent == parent[:, :1])
    assert sorted(set(parent[:, 0].tolist())) == list(range(n_faces))
    assert fr.min() >= 0 and fr.max() == n_faces * per_face_pts - 1


def test_interpolation_lattice_hand_case():
    # upsample 2, factor 1: the six refined vertices of one face, in refine
    # order, each its own copy; corners sit in one small triangle, edge
    # midpoints in three
    steps, fractions, weights = geom.interpolation_lattice(2, 1)
    assert steps.tolist() == [[s, s, s] for s in range(6)]
    assert np.all(fractions == 0.0)
    assert weights.tolist() == [1, 3, 1, 3, 3, 1]
    # upsample 1, factor 2: one triangle, six lattice points, each hit once;
    # the edge midpoints blend the corners (steps 0, 2, 1 of refine)
    steps, fractions, weights = geom.interpolation_lattice(1, 2)
    assert weights.tolist() == [1] * 6
    assert steps.tolist() == [[0, 0, 0], [0, 2, 1], [1, 1, 1], [0, 2, 1], [0, 2, 1], [2, 2, 2]]
    assert fractions.tolist() == [[0, 0], [0, 0.5], [0, 0], [0.5, 0], [0.5, 0.5], [0, 0]]
    with pytest.raises(ParameterError):
        geom.interpolation_lattice(2, 0)


def test_refine_interpolate_linear_field_is_exact():
    # colors that are an affine function of position are reproduced exactly
    # by barycentric interpolation at any factor
    rng = np.random.default_rng(3)
    verts = rng.random((12, 3))
    faces = rng.integers(0, 12, size=(5, 3))
    v_r = geom.refine(verts, faces, 3)
    f_r = geom.refined_faces(5, 3)
    a = np.array([[2.0, 0.5, -1.0], [0.0, 3.0, 1.0], [1.0, 1.0, 1.0]])
    colors = v_r @ a + 7.0
    pts, cols = refine_interpolate(v_r, colors, f_r, 4)
    assert pts.shape == cols.shape
    assert pts.shape[0] == f_r.shape[0] * (4 + 1) * (4 + 2) // 2
    assert np.allclose(cols, pts @ a + 7.0, atol=1e-10)


def test_refine_interpolate_factor_one_keeps_vertices():
    v_r = geom.refine(TRI, ONE_FACE, 2)
    f_r = geom.refined_faces(1, 2)
    colors = np.arange(18, dtype=float).reshape(6, 3)
    pts, cols = refine_interpolate(v_r, colors, f_r, 1)
    # interp 1 yields the corners of every small face in step-major order:
    # all first corners, then all third, then all second
    assert pts.shape[0] == f_r.shape[0] * 3
    order = np.concatenate([f_r[:, 0], f_r[:, 2], f_r[:, 1]])
    assert np.allclose(pts, v_r[order])
    assert np.allclose(cols, colors[order])


def test_voxelize_hand_case():
    pts = np.array([
        [0.9, 0.1, 0.1],   # cell (3,0,0): x bits at 5 and 2 -> 0b100100 = 36
        [0.1, 0.1, 0.1],   # cell (0,0,0) -> code 0
        [0.12, 0.14, 0.05],  # cell (0,0,0) again
        [0.1, 0.3, 0.6],   # cell (0,1,2): y0 bit 1, z1 bit 3 -> 0b001010 = 10
    ])
    attrs = np.array([[8.0], [1.0], [3.0], [5.0]])
    res = geom.voxelize(pts, attrs, 2)
    assert res.voxel_set.depth == 2
    assert res.voxel_set.codes.tolist() == [0, 10, 36]
    assert res.index_map.tolist() == [2, 0, 0, 1]
    assert res.voxel_set.attributes[:, 0].tolist() == [2.0, 5.0, 8.0]
    # one integer cell per sorted voxel row
    assert geom.voxel_coords(res.voxel_set).tolist() == [[0, 0, 0], [0, 1, 2], [3, 0, 0]]


def test_voxelize_rejects_out_of_cube():
    for bad in ([[1.0, 0.5, 0.5]], [[0.5, -0.01, 0.5]], [[0.5, 0.5, 7.0]]):
        with pytest.raises(RangeError):
            geom.voxelize(np.array(bad), None, 3)


def test_voxelize_rejects_other_shapes_and_an_empty_list():
    for bad in (np.zeros(3), np.zeros((4, 2)), np.zeros((1, 4))):
        with pytest.raises(ConsistencyError, match="points must be"):
            geom.voxelize(bad, None, 3)
    with pytest.raises(RangeError, match="empty point list"):
        geom.voxelize(np.zeros((0, 3)), None, 3)


def test_voxelize_rejects_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"\[0, 1\)\^3"):
            geom.voxelize(np.array([[np.nan, 0.5, 0.5]]), None, 10)


@pytest.mark.parametrize("depth", [1, 10, 20])
def test_voxelize_puts_the_largest_coordinate_below_1_in_the_last_cell(depth):
    # scaling by 2^J is exact, so no coordinate below 1 reaches cell 2^J
    top = np.nextafter(1.0, 0.0)
    res = geom.voxelize(np.array([[top, top, top]]), None, depth)
    assert res.voxel_set.codes.tolist() == [geom.morton_encode(*[(1 << depth) - 1] * 3, depth)]


def test_voxelize_without_attributes():
    res = geom.voxelize(np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]), None, 1)
    assert res.voxel_set.attributes is None
    assert len(res.voxel_set) == 2


@given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 2 ** 31))
@settings(max_examples=50, deadline=None)
def test_voxelize_centers_are_fixed_points(depth, n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    res = geom.voxelize(pts, None, depth)
    centers = (geom.voxel_coords(res.voxel_set) + 0.5) * 2.0 ** -depth
    again = geom.voxelize(centers, None, depth)
    # per-voxel centers re-voxelize to the same sorted cells, one point each
    assert np.array_equal(again.voxel_set.codes, res.voxel_set.codes)
    assert np.array_equal(again.index_map, np.arange(len(res.voxel_set)))
    # every input point stays within half a cell of its voxel center
    assert np.abs(pts - centers[res.index_map]).max() <= 0.5 * 2.0 ** -depth + 1e-12


@given(st.integers(2, 7), st.integers(1, 3), st.integers(1, 40), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_voxelize_prefix_property(coarse, extra, n, seed):
    # a finer grid refines the coarser one: shifting fine codes down gives
    # exactly the coarse codes
    fine = coarse + extra
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    res_c = geom.voxelize(pts, None, coarse)
    res_f = geom.voxelize(pts, None, fine)
    shifted = np.unique(res_f.voxel_set.codes >> (3 * extra))
    assert np.array_equal(shifted, res_c.voxel_set.codes)


@pytest.mark.parametrize("key_bits, n, packed", [
    (60, 8, True), (60, 9, False),  # depth 20: three bits of row index are left
    (57, 64, True), (57, 65, False),  # depth 19: six
    (30, 1, True), (30, 0, True),
])
def test_sorted_rows_packs_a_key_with_its_row_up_to_63_bits(monkeypatch, key_bits, n, packed):
    argsort, calls = np.argsort, []
    monkeypatch.setattr(np, "argsort", lambda *args, **kw: calls.append(kw) or argsort(*args, **kw))
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 1 << key_bits, size=n, dtype=np.int64)
    keys[n // 2:] = (1 << key_bits) - 1  # the widest key, tied; ties keep row order
    got, order = geom._sorted_rows(keys, key_bits)
    want = argsort(keys, kind="stable")
    assert order.dtype == got.dtype == np.int64
    assert np.array_equal(order, want) and np.array_equal(got, keys[want])
    assert calls == ([] if packed else [{"kind": "stable"}])


def _shared_cell_points(depth, n, seed):
    """n points in [0, 1)^3, two or more in most of their voxels at depth, one
    in the last voxel, whose code has all 3 * depth bits set."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 1 << depth, size=(max(1, n // 2), 3))
    cells = cells[rng.integers(0, cells.shape[0], size=n)]
    pts = np.minimum((cells + rng.random((n, 3))) * 2.0 ** -depth, np.nextafter(1.0, 0.0))
    pts[-1] = np.nextafter(1.0, 0.0)
    return pts


@given(st.integers(1, 20), st.integers(1, 300), st.integers(0, 2 ** 31))
@example(20, 9, 0)  # 60 + 4 bits: the argsort
@example(20, 8, 0)
@example(19, 64, 0)  # 57 + 6 bits: the packed sort
@example(19, 65, 0)
@settings(max_examples=60, deadline=None)
def test_voxelize_groups_as_np_unique_does(depth, n, seed):
    pts = _shared_cell_points(depth, n, seed)
    res = geom.voxelize(pts, None, depth)
    codes, index_map = voxel_grouping(pts, depth)
    assert np.array_equal(res.voxel_set.codes, codes)
    assert res.index_map.dtype == index_map.dtype
    assert np.array_equal(res.index_map, index_map)


def test_voxelize_peaks_at_40_bytes_a_point():
    # the int64 coordinates, the codes and one table gather at most: a float
    # copy of the scaled points or a rank temporary would show here
    pts = np.random.default_rng(3).random((1 << 19, 3))
    tracemalloc.start()
    try:
        res = geom.voxelize(pts, None, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * len(pts) + 4096, f"peaked {peak / len(pts):.2f} B a point"
    codes, index_map = voxel_grouping(pts, 10)
    assert np.array_equal(res.voxel_set.codes, codes)
    assert np.array_equal(res.index_map, index_map)


def test_voxelize_means_match_hash_map_oracle():
    rng = np.random.default_rng(19)
    pts = rng.random((500, 3))
    attrs = rng.random((500, 3)) * 255
    res = geom.voxelize(pts, attrs, 2)
    groups = {}
    for p, a in zip(pts, attrs):
        cell = tuple((p * 4).astype(int))
        groups.setdefault(cell, []).append(a)
    for row, code in enumerate(res.voxel_set.codes):
        x, y, z = geom.morton_decode(np.array([code]), 2)
        want = np.mean(groups[(int(x[0]), int(y[0]), int(z[0]))], axis=0)
        assert np.allclose(res.voxel_set.attributes[row], want, atol=1e-12)


def test_voxelize_means_match_bincount():
    rng = np.random.default_rng(11)
    pts = rng.random((300, 3))
    attrs = rng.random((300, 2)) * 100
    res = geom.voxelize(pts, attrs, 3)
    n_vox = len(res.voxel_set)
    for k in range(2):
        sums = np.bincount(res.index_map, weights=attrs[:, k], minlength=n_vox)
        counts = np.bincount(res.index_map, minlength=n_vox)
        assert np.allclose(res.voxel_set.attributes[:, k], sums / counts)
