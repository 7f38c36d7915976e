"""Distortion and rate metrics, checked against hand-worked instances."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    blended_render_cloud,
    face_winners,
    refine_interpolate,
    refined_interpolated_cloud,
    voxel_grouping,
)
from tricloud import core, datagen, geom, metrics
from tricloud.errors import (
    ConsistencyError,
    EmptySetError,
    ParameterError,
    RangeError,
    ShapeMismatchError,
)


def _frame(n_faces=2, upsample=2, seed=0, n_vertices=5):
    rng = np.random.default_rng(seed)
    vertices = rng.random((n_vertices, 3)) * 0.99
    faces = rng.integers(0, n_vertices, size=(n_faces, 3))
    colors = rng.integers(0, 256, size=(core.expected_color_count(n_faces, upsample), 3))
    return core.TriangleCloudFrame(vertices, faces, colors.astype(float), upsample)


def _vset(depth, coords, lums):
    coords = np.asarray(coords, dtype=np.int64)
    codes = geom.morton_encode(coords[:, 0], coords[:, 1], coords[:, 2], depth)
    order = np.argsort(codes)
    attrs = np.column_stack([np.asarray(lums, float)[order]] * 3)
    return core.VoxelSet(depth, codes[order], attrs)


# ---------------------------------------------------------------------------
# transform-domain PSNR
# ---------------------------------------------------------------------------

def test_psnr_transform_geometry_hand_value():
    ref = np.zeros((1, 3))
    rec = np.array([[0.1, 0.0, 0.0]])
    got = metrics.psnr_transform([ref], [rec], "geometry")
    assert got == pytest.approx(24.771212547196626, abs=1e-9)


def test_psnr_transform_color_hand_value():
    got = metrics.psnr_transform([np.array([100.0])], [np.array([110.0])], "color")
    assert got == pytest.approx(28.130803608679106, abs=1e-9)
    # one component is a 1-D array; an (N, 1) column is refused like any 2-D array
    with pytest.raises(ShapeMismatchError, match="color expects one component"):
        metrics.psnr_transform([np.array([[100.0]])], [np.array([[110.0]])], "color")
    with pytest.raises(ShapeMismatchError, match=r"frame 0: shapes \(2,\) vs \(1,\)"):
        metrics.psnr_transform([np.zeros(2)], [np.zeros(1)], "color")


def test_psnr_transform_averages_mse_over_frames():
    a = np.zeros((1, 3))
    b = np.array([[0.1, 0.0, 0.0]])
    got = metrics.psnr_transform([a, a], [b, a], "geometry")
    assert got == pytest.approx(27.781512503836435, abs=1e-9)


def test_psnr_transform_identical_is_infinite():
    a = np.random.default_rng(0).random((7, 3))
    assert metrics.psnr_transform([a], [a.copy()], "geometry") == math.inf


def test_psnr_transform_validation():
    a = np.zeros((2, 3))
    with pytest.raises(ShapeMismatchError):
        metrics.psnr_transform([a], [a, a], "geometry")
    with pytest.raises(ShapeMismatchError):
        metrics.psnr_transform([np.zeros((2, 2))], [np.zeros((2, 2))], "geometry")
    with pytest.raises(ShapeMismatchError):
        metrics.psnr_transform([np.zeros((2, 3))], [np.zeros((2, 3))], "color")
    with pytest.raises(ParameterError):
        metrics.psnr_transform([a], [a], "luma")
    with pytest.raises(EmptySetError):
        metrics.psnr_transform([], [], "geometry")


@pytest.mark.parametrize("kind, shape", [("geometry", (0, 3)), ("color", (0,))])
def test_psnr_transform_refuses_a_frame_with_no_rows(kind, shape):
    rows = np.zeros((2,) + shape[1:])
    with pytest.raises(EmptySetError, match="frame 1: no rows to compare"):
        metrics.psnr_transform([rows, np.zeros(shape)], [rows, np.zeros(shape)], kind)


# ---------------------------------------------------------------------------
# triangle-cloud PSNR on refined clouds
# ---------------------------------------------------------------------------

def test_psnr_triangle_cloud_identical_is_infinite():
    f = _frame(seed=1)
    assert metrics.psnr_triangle_cloud([f], [f]) == (math.inf,) * 4


def test_psnr_triangle_cloud_ignores_vertex_relabeling():
    f = _frame(seed=2, n_vertices=6)
    perm = np.random.default_rng(3).permutation(f.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    g = core.TriangleCloudFrame(f.vertices[perm], inv[f.faces], f.colors, f.upsample)
    assert metrics.psnr_triangle_cloud([f], [g]) == (math.inf,) * 4


def test_psnr_triangle_cloud_translation_hand_value():
    f = _frame(seed=4)
    shifted = f.vertices.copy()
    shifted[:, 0] += 0.005
    g = core.TriangleCloudFrame(shifted, f.faces, f.colors, f.upsample)
    psnr_g, psnr_y, psnr_u, psnr_v = metrics.psnr_triangle_cloud([f], [g])
    # uniform x shift of d leaves MSE_G = d^2 / 3 regardless of refinement
    assert psnr_g == pytest.approx(-10 * math.log10(0.005 ** 2 / 3), abs=1e-9)
    assert (psnr_y, psnr_u, psnr_v) == (math.inf,) * 3


def test_triangle_cloud_errors_pool_to_the_sequence_psnr():
    # per-frame rows give the pooled PSNR and each frame's own PSNR exactly
    rng = np.random.default_rng(6)
    refs, recons = [], []
    for seed in (6, 7, 8):
        f = _frame(seed=seed, n_faces=3)
        g = core.TriangleCloudFrame(
            np.clip(f.vertices + rng.normal(scale=1e-3, size=f.vertices.shape), 0, 0.999),
            f.faces, np.clip(f.colors + rng.normal(scale=3.0, size=f.colors.shape), 0, 255),
            f.upsample,
        )
        refs.append(f)
        recons.append(g)
    _, rows = metrics.evaluate(refs, recons, ["triangle"])
    rows = np.array([row["triangle"] for row in rows])
    assert rows.shape == (3, 4)
    for row, f, g in zip(rows, refs, recons):
        va, ca = refined_interpolated_cloud(f)
        vb, cb = refined_interpolated_cloud(g)
        n = va.shape[0]
        assert row[0] == pytest.approx(np.sum((va - vb) ** 2) / (3 * n), rel=1e-12)
        assert row[1:] == pytest.approx(np.sum((ca - cb) ** 2, axis=0) / (255 ** 2 * n),
                                        rel=1e-12)
    assert metrics.psnr_from_errors(rows) == metrics.psnr_triangle_cloud(refs, recons)
    for t in range(3):
        assert (metrics.psnr_from_errors(rows[t:t + 1])
                == metrics.psnr_triangle_cloud([refs[t]], [recons[t]]))


def _noisy_pairs(seeds=(6, 7, 8), n_faces=3):
    rng = np.random.default_rng(seeds[0])
    refs, recons = [], []
    for seed in seeds:
        f = _frame(seed=seed, n_faces=n_faces)
        refs.append(f)
        recons.append(core.TriangleCloudFrame(
            np.clip(f.vertices + rng.normal(scale=1e-2, size=f.vertices.shape), 0, 0.999),
            f.faces, np.clip(f.colors + rng.normal(scale=3.0, size=f.colors.shape), 0, 255),
            f.upsample,
        ))
    return refs, recons


def test_evaluate_reports_each_metric_under_its_table_keys():
    refs, recons = _noisy_pairs()
    figures, rows = metrics.evaluate(iter(refs), iter(recons), ["matching", "triangle",
                                                                "projection"], depth=5)
    # table order, whatever the order asked for
    assert list(figures) == [key for error_keys, psnr_keys, _ in metrics.METRICS.values()
                             for key in error_keys + psnr_keys]
    assert len(rows) == 3 and all(set(row) == set(metrics.METRICS) for row in rows)
    # the view and each metric alone give the same numbers, bit for bit
    assert tuple(figures.values())[:4] == metrics.psnr_triangle_cloud(refs, recons)
    for name in metrics.METRICS:
        alone, _ = metrics.evaluate(refs, recons, [name], depth=5)
        assert alone == {key: figures[key] for key in alone}
    # matching pools the mean errors, not the per-frame PSNRs
    d_g2 = sum(row["matching"][0] for row in rows) / 3
    assert figures["d_g2_matching"] == d_g2
    assert figures["psnr_g_matching"] == -10.0 * math.log10(d_g2 / 3.0)


def _tracked(frames, side, alive, stale):
    """Yield a fresh copy of each frame, holding none of them; as frame t is
    drawn, record in `stale` every tracked frame of either side before t that
    is still alive."""
    def track(t, copy):
        alive[side, t] = weakref.ref(copy)
        return copy

    for t, frame in enumerate(frames):
        stale.extend(key for key, ref in alive.items() if key[1] < t and ref() is not None)
        yield track(t, dataclasses.replace(frame))


def test_evaluate_holds_one_frame_pair_at_a_time():
    # drawing pair t finds every frame of pairs before t gone: no iterator
    # keeps a pair it has handed on
    refs, recons = _noisy_pairs(seeds=(6, 7, 8, 9, 10))
    alive, stale = {}, []
    _, rows = metrics.evaluate(_tracked(refs, "reference", alive, stale),
                               _tracked(recons, "reconstruction", alive, stale),
                               list(metrics.METRICS), depth=5)
    assert len(rows) == 5 and len(alive) == 10
    assert stale == []


def test_evaluate_frees_a_pair_once_its_voxel_sets_are_built(monkeypatch):
    # projection and matching read only the render voxel sets, so no frame
    # of the pair may be alive while they run
    refs, recons = _noisy_pairs(seeds=(6, 7))
    alive, stale, held = {}, [], []

    def check(name):
        original = getattr(metrics, name)

        def wrapper(*sets):
            held.extend(key for key, ref in alive.items() if ref() is not None)
            return original(*sets)
        monkeypatch.setattr(metrics, name, wrapper)

    check("_projection_sq_error")
    check("matching_distortion")
    _, rows = metrics.evaluate(_tracked(refs, "reference", alive, stale),
                               _tracked(recons, "reconstruction", alive, stale),
                               ["projection", "matching"], depth=5)
    assert len(rows) == 2 and len(alive) == 4
    assert held == []


def test_evaluate_validation():
    refs, recons = _noisy_pairs(seeds=(6,))
    with pytest.raises(ParameterError, match="unknown metric 'hausdorff'"):
        metrics.evaluate(refs, recons, ["triangle", "hausdorff"])
    with pytest.raises(ParameterError, match="need a voxel depth"):
        metrics.evaluate(refs, recons, ["matching"])
    assert metrics.evaluate(refs, recons, []) == ({}, [{}])


def test_psnr_triangle_cloud_validation():
    f = _frame(seed=5)
    other = _frame(seed=5, upsample=3)
    with pytest.raises(ShapeMismatchError):
        metrics.psnr_triangle_cloud([f], [f, f])
    with pytest.raises(ShapeMismatchError):
        metrics.psnr_triangle_cloud([f], [other])
    with pytest.raises(EmptySetError):
        metrics.psnr_triangle_cloud([], [])


def test_refined_interpolated_cloud_counts_and_validation():
    f = _frame(n_faces=2, upsample=2, seed=6)
    points, colors = refined_interpolated_cloud(f, 1)
    # each refined face contributes its three corners at factor one
    assert points.shape == (3 * 2 * 2 ** 2, 3)
    assert colors.shape == points.shape
    points2, _ = refined_interpolated_cloud(f, 2)
    assert points2.shape == (6 * 2 * 2 ** 2, 3)
    with pytest.raises(ParameterError):
        refined_interpolated_cloud(f, 0)


def _sorted_rows(rows):
    return rows[np.lexsort(np.round(rows, 9).T[::-1])]


@pytest.mark.parametrize("upsample", [1, 2, 3, 6])
@pytest.mark.parametrize("interp", [1, 2, 3, 4])
def test_render_cloud_is_the_interpolated_cloud_once_per_point(upsample, interp):
    f = _frame(n_faces=7, upsample=upsample, seed=10 * upsample + interp, n_vertices=9)
    points, colors, weights = blended_render_cloud(f, interp)
    n = upsample * interp
    assert points.shape == (7 * (n + 1) * (n + 2) // 2, 3)
    assert colors.shape == points.shape and weights.shape == points.shape[:1]
    assert weights.sum() == 7 * upsample ** 2 * (interp + 1) * (interp + 2) // 2
    # repeated by its weights it is the row multiset of the expanded cloud
    v_r = geom.refine(f.vertices, f.faces, upsample)
    expanded = refine_interpolate(v_r, f.colors, geom.refined_faces(7, upsample), interp)
    got = np.repeat(np.hstack([points, colors]), weights, axis=0)
    assert np.allclose(_sorted_rows(got), _sorted_rows(np.hstack(expanded)), rtol=0, atol=1e-12)
    if interp <= 2:
        # u8 colors blend to halves, so weighted voxel means are exact
        got = metrics._render_voxels(f, 6, interp)
        for cloud in (refined_interpolated_cloud(f, interp), expanded):
            want = geom.voxelize(*cloud, 6).voxel_set
            assert np.array_equal(got.codes, want.codes)
            assert np.array_equal(got.attributes, want.attributes)


@pytest.mark.parametrize("upsample", [1, 2, 3, 6])
@pytest.mark.parametrize("interp", [1, 2, 3, 4])
def test_render_cloud_is_the_blended_cloud_byte_for_byte(upsample, interp):
    # the lattice walk's voxel means are those of the whole blended cloud
    # grouped by np.unique, with one weighted bincount per color column: the
    # same floats added in the same order
    for n_faces, depth in ((1, 10), (7, 3), (7, 10)):
        f = _frame(n_faces=n_faces, upsample=upsample, seed=upsample + 5 * interp, n_vertices=9)
        points, colors, weights = blended_render_cloud(f, interp)
        codes, index_map = voxel_grouping(points, depth)
        means = np.stack([np.bincount(index_map, colors[:, k] * weights, codes.size)
                          for k in range(3)], axis=1)
        means /= np.bincount(index_map, weights, codes.size)[:, None]
        got = metrics._render_voxels(f, depth, interp)
        assert got.codes.tobytes() == codes.tobytes()
        assert got.attributes.dtype == means.dtype
        assert got.attributes.tobytes() == means.tobytes()


@pytest.mark.parametrize("interp", [1, 2, 3])
def test_render_blends_one_lattice_point_at_a_time(interp):
    # the positions are walked into one array for voxelize and the colors
    # added into their voxels' sums point by point, so no whole-cloud colors
    # or refine rows sit beside the voxelization (the frame is made untraced).
    # Peak per render point at I = 1, 2, 3: 72.2, 72.1, 72.1 B; building the
    # whole cloud and averaging it with one weighted bincount took 80.1,
    # 104.0, 106.3 B.
    f = datagen.gen_sequence("sphere", 1, n_faces=600, upsample=6, seed=1)[0].reference
    tracemalloc.start()
    try:
        metrics._render_voxels(f, 10, interp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = core.expected_color_count(f.n_faces, f.upsample * interp)
    assert peak <= 76 * points, f"peaked {peak / points:.1f} B per render point"


@pytest.mark.parametrize("interp", [1, 2, 3])
def test_triangle_row_builds_no_render_cloud(interp):
    # both sides' rows are made and compared one lattice point at a time, so
    # the call holds both frames' refine rows and refine's own temporaries,
    # not their render clouds (1, 3.25 and 6.8 times as many points here; the
    # frames are made untraced) or whole-cloud differences; the figures are
    # those of the expanded clouds
    f = datagen.gen_sequence("sphere", 1, n_faces=600, upsample=6, seed=1)[0].reference
    rng = np.random.default_rng(interp)
    g = core.TriangleCloudFrame(
        np.clip(f.vertices + rng.normal(scale=1e-3, size=f.vertices.shape), 0, 0.999),
        f.faces, np.clip(f.colors + rng.normal(scale=3.0, size=f.colors.shape), 0, 255),
        f.upsample,
    )
    tracemalloc.start()
    try:
        row = metrics._triangle_row(f, g, interp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    refined = core.expected_color_count(f.n_faces, f.upsample) * 3 * 8
    assert peak <= 3.6 * refined, f"peaked {peak / refined:.2f} times one frame's refine rows"
    (va, ca), (vb, cb) = refined_interpolated_cloud(f, interp), refined_interpolated_cloud(g, interp)
    n = va.shape[0]
    assert row[0] == pytest.approx(np.sum((va - vb) ** 2) / (3 * n), rel=1e-12)
    assert row[1:] == pytest.approx(np.sum((ca - cb) ** 2, axis=0) / (255 ** 2 * n), rel=1e-12)


def test_render_cloud_over_the_point_cap_is_refused_before_it_is_built():
    f = _frame(n_faces=1, upsample=1, seed=6)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="cloud of 16782321 points, more than 16777216"):
            metrics._render_voxels(f, 10, 5792)  # 5793 * 5794 / 2 points; 5791 would fit
        with pytest.raises(ParameterError, match="more than 16777216"):
            metrics._render_voxels(f, 10, 1 << 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 10


def test_render_cloud_validation():
    f = _frame(n_faces=2, upsample=2, seed=6)
    with pytest.raises(ParameterError):
        metrics._render_voxels(f, 6, 0)
    short = core.TriangleCloudFrame(f.vertices, f.faces, f.colors[:-1], 2)
    with pytest.raises(ConsistencyError):
        metrics._render_voxels(short, 6, 1)
    empty = core.TriangleCloudFrame(np.zeros((0, 3)), np.zeros((0, 3), dtype=int),
                                    np.zeros((0, 3)), 3)
    with pytest.raises(RangeError, match="empty point list"):
        metrics._render_voxels(empty, 6, 2)


# ---------------------------------------------------------------------------
# six-face projection
# ---------------------------------------------------------------------------

def test_project_single_voxel_hits_all_faces():
    vs = core.VoxelSet(1, [0], np.array([[100.0, 110.0, 120.0]]))
    imgs = metrics.project_to_faces(vs)
    assert imgs.shape == (6, 2, 2, 3)
    for face in range(6):
        assert np.array_equal(imgs[face, 0, 0], [100.0, 110.0, 120.0])
    # exactly one pixel per face is painted, the rest stays neutral
    assert np.sum(imgs != 128.0) == 18


def test_project_occlusion_along_one_axis():
    a = [10.0, 20.0, 30.0]
    b = [90.0, 80.0, 70.0]
    vs = _two_voxel_set(a, b)
    imgs = metrics.project_to_faces(vs)
    # looking along x both voxels share pixel (y=0, z=0): +x sees the far one
    assert np.array_equal(imgs[0, 0, 0], b)
    assert np.array_equal(imgs[1, 0, 0], a)
    # along y the image is (z, x): both visible
    assert np.array_equal(imgs[2, 0, 0], a) and np.array_equal(imgs[2, 0, 1], b)
    assert np.array_equal(imgs[3, 0, 0], a) and np.array_equal(imgs[3, 0, 1], b)
    # along z the image is (x, y)
    assert np.array_equal(imgs[4, 0, 0], a) and np.array_equal(imgs[4, 1, 0], b)
    assert np.array_equal(imgs[5, 0, 0], a) and np.array_equal(imgs[5, 1, 0], b)


@given(st.integers(1, 20), st.integers(1, 120), st.integers(0, 2 ** 31))
@example(20, 9, 0)  # 60 + 4 bits: the argsort
@example(19, 64, 0)  # 57 + 6 bits: the packed sort
@settings(max_examples=60, deadline=None)
def test_face_winners_are_the_argsort_winners(depth, n, seed):
    # four values per axis, the extremes among them, so most pixels are
    # covered by several voxels and the keys take all 3 * depth bits
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << depth, size=(4, 3))
    values[0], values[-1] = 0, (1 << depth) - 1
    coords = np.unique(values[rng.integers(0, 4, size=(n, 3)), [0, 1, 2]], axis=0)
    coords = coords[rng.permutation(coords.shape[0])]
    for axis in range(3):
        got = metrics._face_winners(coords, depth, axis)
        for g, w in zip(got, face_winners(coords, depth, axis)):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def _two_voxel_set(color_a, color_b):
    # (0,0,0) and (1,0,0) at depth 1: Morton codes 0 and 4
    return core.VoxelSet(1, [0, 4], np.array([color_a, color_b]))


def test_project_empty_set_is_all_gray():
    imgs = metrics.project_to_faces(core.VoxelSet(2, []))
    assert imgs.shape == (6, 4, 4, 3)
    assert np.all(imgs == 128.0)


def test_project_validation():
    with pytest.raises(ConsistencyError):
        metrics.project_to_faces(core.VoxelSet(1, [0]))
    with pytest.raises(ConsistencyError):
        metrics.project_to_faces(core.VoxelSet(1, [0], np.array([[1.0, 2.0]])))


def _projection_psnr(refs, recons, depth):
    """(PSNR_Y, PSNR_U, PSNR_V) of the projection metric of :func:`metrics.evaluate`."""
    figures, _ = metrics.evaluate(refs, recons, ["projection"], depth=depth)
    return tuple(figures.values())


def test_projection_psnr_identical_is_infinite():
    f = _frame(seed=7)
    assert _projection_psnr([f], [f], depth=4) == (math.inf,) * 3


def test_projection_psnr_detects_color_change():
    f = _frame(seed=8)
    colors = f.colors.copy()
    colors[:, 0] = np.clip(colors[:, 0] + 10.0, 0.0, 255.0)
    g = core.TriangleCloudFrame(f.vertices, f.faces, colors, f.upsample)
    psnr_y, psnr_u, psnr_v = _projection_psnr([f], [g], depth=4)
    assert psnr_y < math.inf
    assert psnr_u == math.inf and psnr_v == math.inf


def _dense_sq_error(a, b):
    """Per-channel squared error of the two full six-face renders."""
    return np.sum((metrics.project_to_faces(a) - metrics.project_to_faces(b)) ** 2,
                  axis=(0, 1, 2))


def _voxelized(frame, depth):
    points, colors = refined_interpolated_cloud(frame)
    return geom.voxelize(points, colors, depth).voxel_set


def test_projection_psnr_matches_dense_renders():
    rng = np.random.default_rng(31)
    for depth in range(2, 6):
        refs = [_frame(n_faces=4, upsample=3, seed=10 * depth + t, n_vertices=6)
                for t in range(3)]
        recons = []
        for f in refs:
            # moved vertices leave pixels that only one side covers
            vertices = np.clip(f.vertices + rng.normal(scale=0.05, size=f.vertices.shape),
                               0.0, 0.99)
            colors = np.clip(f.colors + rng.normal(scale=5.0, size=f.colors.shape), 0, 255)
            recons.append(core.TriangleCloudFrame(vertices, f.faces, colors, f.upsample))
        err = np.zeros(3)
        one_sided = 0
        for f, g in zip(refs, recons):
            a, b = _voxelized(f, depth), _voxelized(g, depth)
            err += _dense_sq_error(a, b)
            covered_a = np.any(metrics.project_to_faces(a) != 128.0, axis=-1)
            covered_b = np.any(metrics.project_to_faces(b) != 128.0, axis=-1)
            one_sided += int(np.sum(covered_a != covered_b))
        assert one_sided > 0
        mse = err / (len(refs) * 6 * 4 ** depth)
        want = tuple(-10 * math.log10(m / 255.0 ** 2) for m in mse)
        got = _projection_psnr(refs, recons, depth=depth)
        assert got == pytest.approx(want, rel=1e-12)
        assert _projection_psnr(refs, refs, depth=depth) == (math.inf,) * 3


def test_projection_sq_error_matches_dense_renders():
    rng = np.random.default_rng(32)
    depth = 3
    side = 1 << depth
    coords = np.unique(rng.integers(0, side, size=(40, 3)), axis=0)
    a = _vset(depth, coords, rng.integers(0, 256, size=coords.shape[0]))
    a = core.VoxelSet(depth, a.codes, rng.integers(0, 256, size=(len(a), 3)).astype(float))
    empty = core.VoxelSet(depth, [], np.zeros((0, 3)))
    # one side's renders are all gray, the other's share no pixel with it
    far = _vset(depth, [[0, 0, 0]], [77.0])
    near = _vset(depth, [[1, 1, 1]], [99.0])
    for x, y in ((a, empty), (empty, a), (empty, empty), (far, near), (a, far), (a, a)):
        assert metrics._projection_sq_error(x, y) == pytest.approx(
            _dense_sq_error(x, y), rel=1e-12, abs=0.0)
    assert np.all(metrics._projection_sq_error(a, a) == 0.0)


def test_projection_sq_error_with_occlusion_on_every_axis():
    # two thick boxes, one shifted on every axis: each covered pixel has at
    # least two voxels along its axis, so the + and - faces of an axis show
    # different voxels, and each set covers pixels the other does not
    rng = np.random.default_rng(33)
    depth = 4
    box = np.stack(np.meshgrid(np.arange(3, 9), np.arange(2, 11), np.arange(4, 13),
                               indexing="ij"), axis=-1).reshape(-1, 3)
    sets = []
    for coords in (box, box + [2, -1, 3]):
        vs = _vset(depth, coords, np.zeros(len(coords)))
        sets.append(core.VoxelSet(depth, vs.codes,
                                  rng.integers(0, 256, size=(len(vs), 3)).astype(float)))
    a, b = sets
    renders = [metrics.project_to_faces(vs) for vs in sets]
    for axis in range(3):
        for img in renders:
            assert np.any(img[2 * axis] != img[2 * axis + 1])
        covered_a, covered_b = (np.any(img[2 * axis] != 128.0, axis=-1) for img in renders)
        assert np.any(covered_a & ~covered_b) and np.any(covered_b & ~covered_a)
    for x, y in ((a, b), (b, a)):
        assert metrics._projection_sq_error(x, y) == pytest.approx(
            _dense_sq_error(x, y), rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# matching distortion
# ---------------------------------------------------------------------------

def test_matching_distortion_hand_case():
    src = _vset(2, [[0, 0, 0]], [10.0])
    dst = _vset(2, [[3, 3, 3]], [20.0])
    d_g2, d_y2, psnr_g, psnr_y = metrics.matching_distortion(src, dst)
    assert d_g2 == 27 / 16
    assert d_y2 == 100.0
    assert psnr_g == pytest.approx(2.4987747321659985, abs=1e-12)
    assert psnr_y == pytest.approx(28.130803608679106, abs=1e-12)


def test_matching_distortion_is_symmetric_max():
    src = _vset(2, [[0, 0, 0]], [10.0])
    dst = _vset(2, [[3, 3, 3], [0, 0, 1]], [20.0, 10.0])
    # forward: (0,0,0) -> (0,0,1), d2 = 1/16; backward worst pairing is
    # (3,3,3) -> (0,0,0) with d2 = 27/16, so the max comes from backward
    d_g2, d_y2, _, _ = metrics.matching_distortion(src, dst)
    assert d_g2 == (27 / 16 + 1 / 16) / 2
    assert d_y2 == 50.0
    swapped = metrics.matching_distortion(dst, src)
    assert (d_g2, d_y2) == swapped[:2]


def test_matching_ties_break_to_lowest_morton():
    # source (1,1,1); both (0,1,1) and (1,0,1) sit at distance 1 but the
    # lower Morton code (0,1,1) must win, which zeroes the forward Y error
    src = _vset(1, [[1, 1, 1]], [10.0])
    dst = _vset(1, [[0, 1, 1], [1, 0, 1]], [10.0, 200.0])
    d_g2, d_y2, _, _ = metrics.matching_distortion(src, dst)
    assert d_g2 == 0.25
    assert d_y2 == (0.0 + 190.0 ** 2) / 2  # backward direction dominates


def test_matching_grid_path_matches_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(25):
        depth = int(rng.integers(2, 5))
        side = 1 << depth
        n_a = int(rng.integers(1, 40))
        n_b = int(rng.integers(1, 40))
        ca = np.unique(rng.integers(0, side, size=(n_a, 3)), axis=0)
        cb = np.unique(rng.integers(0, side, size=(n_b, 3)), axis=0)
        a = _vset(depth, ca, rng.integers(0, 256, size=ca.shape[0]).astype(float))
        b = _vset(depth, cb, rng.integers(0, 256, size=cb.shape[0]).astype(float))
        xyz_a = geom.voxel_coords(a)
        xyz_b = geom.voxel_coords(b)
        for q, q_xyz, t, t_xyz in ((a, xyz_a, b, xyz_b), (b, xyz_b, a, xyz_a)):
            got = metrics._nearest(q, q_xyz, t, t_xyz)
            assert np.array_equal(got, metrics._nearest_brute(q_xyz, t_xyz))


@pytest.mark.parametrize("depth", range(1, 7))
def test_matching_ties_on_odd_and_even_lattices_match_brute_force(depth):
    # queries on odd lattice points, targets on all even ones: every interior
    # query has 8 targets at squared distance 3, so each answer is a tie
    side = 1 << depth
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    odd = grid[np.all(grid % 2 == 1, axis=1)]
    odd = odd[np.random.default_rng(depth).permutation(len(odd))[:500]]
    even = grid[np.all(grid % 2 == 0, axis=1)]
    q = _vset(depth, odd, np.zeros(len(odd)))
    t = _vset(depth, even, np.zeros(len(even)))
    q_xyz = geom.voxel_coords(q)
    t_xyz = geom.voxel_coords(t)
    got = metrics._nearest(q, q_xyz, t, t_xyz)
    assert np.array_equal(got, metrics._nearest_brute(q_xyz, t_xyz))
    assert np.all(np.sum((q_xyz - t_xyz[got]) ** 2, axis=1) == 3)


def test_matching_grid_path_above_brute_force_threshold():
    # more query-target pairs than _BRUTE_FORCE_PAIRS, with hits at squared
    # distance 0 and misses; the brute-force oracle runs in bounded chunks
    rng = np.random.default_rng(43)
    depth = 6
    side = 1 << depth
    target = np.unique(rng.integers(0, side, size=(2600, 3)), axis=0)
    hits = target[rng.choice(len(target), size=900, replace=False)]
    moved = target[rng.choice(len(target), size=1800)]
    moved = moved + rng.integers(-3, 4, size=moved.shape)
    query = np.unique(np.clip(np.vstack([hits, moved]), 0, side - 1), axis=0)
    a = _vset(depth, query, rng.integers(0, 256, size=len(query)).astype(float))
    b = _vset(depth, target, rng.integers(0, 256, size=len(target)).astype(float))
    assert len(a) * len(b) > metrics._BRUTE_FORCE_PAIRS
    xyz_a = geom.voxel_coords(a)
    xyz_b = geom.voxel_coords(b)
    for q, q_xyz, t, t_xyz in ((a, xyz_a, b, xyz_b), (b, xyz_b, a, xyz_a)):
        got = metrics._nearest(q, q_xyz, t, t_xyz)
        want = np.concatenate([metrics._nearest_brute(q_xyz[i:i + 256], t_xyz)
                               for i in range(0, len(q_xyz), 256)])
        assert np.array_equal(got, want)
    d2 = np.sum((xyz_a - xyz_b[metrics._nearest(a, xyz_a, b, xyz_b)]) ** 2, axis=1)
    assert np.any(d2 == 0) and np.any(d2 > 0)


def test_matching_ring_search_stays_bounded_between_separated_clouds():
    # two 13^3 blocks six empty voxels apart: every query misses and the ring
    # search must not grow with the gap; the result stays exact
    depth = 8
    block = np.stack(np.meshgrid(*[np.arange(13)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    a = _vset(depth, block, np.arange(len(block), dtype=float) % 256)
    b = _vset(depth, block + [19, 0, 0], np.arange(len(block), dtype=float) % 251)
    assert len(a) * len(b) > metrics._BRUTE_FORCE_PAIRS
    xyz_a = geom.voxel_coords(a)
    xyz_b = geom.voxel_coords(b)
    for q, q_xyz, t, t_xyz in ((a, xyz_a, b, xyz_b), (b, xyz_b, a, xyz_a)):
        tracemalloc.start()
        try:
            got = metrics._nearest(q, q_xyz, t, t_xyz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250 * 2 ** 20
        want = np.concatenate([metrics._nearest_brute(q_xyz[i:i + 256], t_xyz)
                               for i in range(0, len(q_xyz), 256)])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shift", [[17, 0, 0], [17, 17, 0], [3, 17, 17]])
def test_matching_between_separated_blocks_looks_up_few_keys(monkeypatch, shift):
    # two 12^3 blocks five or more empty voxels apart, away from the grid's
    # edges: no neighbor key outside the target's bounding box is looked up,
    # so the shells cost next to nothing before brute force takes the
    # queries still open (the shells alone used to look up about one key
    # per brute-force pair)
    block = np.stack(np.meshgrid(*[np.arange(12)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    q = _vset(8, block + 30, np.zeros(len(block)))
    t = _vset(8, block + 30 + np.array(shift), np.zeros(len(block)))
    q_xyz = geom.voxel_coords(q)
    t_xyz = geom.voxel_coords(t)
    keys = []
    searchsorted = np.searchsorted

    def counting(a, v, *args, **kwargs):
        keys.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    got = metrics._nearest(q, q_xyz, t, t_xyz)
    monkeypatch.undo()
    assert np.array_equal(got, metrics._nearest_brute(q_xyz, t_xyz))
    assert sum(keys) <= len(q) * len(t) // 100


def test_matching_distortion_validation():
    a = _vset(2, [[0, 0, 0]], [1.0])
    with pytest.raises(EmptySetError):
        metrics.matching_distortion(a, core.VoxelSet(2, []))
    with pytest.raises(ConsistencyError):
        metrics.matching_distortion(a, _vset(3, [[0, 0, 0]], [1.0]))
    with pytest.raises(ConsistencyError):
        metrics.matching_distortion(a, core.VoxelSet(2, [0]))


def _corner_frame(corner, lum):
    """A one-face frame inside the depth-2 voxel at `corner`, all luminance `lum`:
    its render cloud voxelizes to that single voxel."""
    vertices = (np.asarray(corner) + np.array([[0.1, 0.1, 0.1], [0.5, 0.1, 0.1],
                                               [0.1, 0.5, 0.1]])) / 4
    colors = np.tile([lum, 128.0, 128.0], (core.expected_color_count(1, 2), 1))
    return core.TriangleCloudFrame(vertices, np.array([[0, 1, 2]]), colors, 2)


def test_matching_distortion_sequence_averages():
    a = _corner_frame([0, 0, 0], 0.0)
    b = _corner_frame([3, 3, 3], 10.0)
    figures, _ = metrics.evaluate([a, a], [b, a], ["matching"], depth=2)
    d_g2, d_y2, psnr_g, psnr_y = figures.values()
    assert d_g2 == 27 / 32
    assert d_y2 == 50.0
    assert psnr_g == pytest.approx(5.509074688805811, abs=1e-12)
    assert psnr_y == pytest.approx(31.141103565318918, abs=1e-12)
    with pytest.raises(ShapeMismatchError):
        metrics.evaluate([a], [b, b], ["matching"], depth=2)
    with pytest.raises(EmptySetError):
        metrics.evaluate([], [], ["matching"], depth=2)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rates_megabit_anchor():
    assert metrics.rates(1048576, 30) == (1.0, None)


def test_rates_bits_per_voxel():
    mbps, bpv = metrics.rates(1000, 2, [100, 150])
    assert bpv == 4.0
    assert mbps == (1000.0 * 30.0) / (1048576.0 * 2.0)


def test_rates_validation():
    with pytest.raises(ParameterError):
        metrics.rates(100, 0)
    with pytest.raises(ParameterError):
        metrics.rates(100, 2, [0, 0])
