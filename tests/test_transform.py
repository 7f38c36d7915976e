"""Quantizers and the hierarchical orthonormal transform."""

import importlib.util
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tricloud import codec, datagen, transform
from tricloud.core import CodecParams, VoxelSet
from tricloud.errors import ConsistencyError, EmptySetError, ParameterError


def test_round_half_away_frozen_vector():
    vals = np.array([-2.5, -1.5, -0.5, -0.4, 0.0, 0.4, 0.5, 1.5, 2.5])
    assert transform.round_half_away(vals).tolist() == [-3, -2, -1, 0, 0, 0, 1, 2, 3]


def _masked_round_half_away(values):
    """The masked form: floor(|v| + 0.5), negated where v < 0."""
    out = np.floor(np.abs(values) + 0.5)
    return np.negative(out, out=out, where=values < 0)


def test_round_half_away_matches_the_masked_formula_bit_for_bit():
    # signed zeros included: -0.4 rounds to -0.0, and -0.0 to +0.0
    edges = [k + 0.5 for k in range(-25, 25)] + [
        0.0, -0.0, -0.4, 0.49999999999999994, -0.49999999999999994,
        2.0 ** 52 + 1, -(2.0 ** 52 + 1), np.inf, -np.inf, np.nan]
    for values in (np.random.default_rng(2).normal(scale=40.0, size=1 << 20), np.array(edges)):
        want = _masked_round_half_away(values).view(np.uint64)
        assert np.array_equal(transform.round_half_away(values).view(np.uint64), want)
        in_place = values.copy()
        transform.round_half_away(in_place, out=in_place)
        assert np.array_equal(in_place.view(np.uint64), want)


def test_quantize_midstep_hand_values():
    assert float(transform.quantize(3.7, 2.0, transform.MIDSTEP)) == 4.0
    assert float(transform.quantize(-3.7, 2.0, transform.MIDSTEP)) == -4.0
    assert float(transform.quantize(0.9, 2.0, transform.MIDSTEP)) == 0.0
    assert float(transform.quantize(1.0, 2.0, transform.MIDSTEP)) == 2.0  # half away


def test_quantize_midrise_hand_values():
    assert float(transform.quantize(3.7, 2.0, transform.MIDRISE)) == 3.0
    assert float(transform.quantize(0.6, 1.0, transform.MIDRISE)) == 0.5
    # negative side mirrors: -0.6/1 - 0.5 = -1.1 -> -1, plus 0.5 -> -0.5
    assert float(transform.quantize(-0.6, 1.0, transform.MIDRISE)) == -0.5


def test_quantize_midrise_lands_on_voxel_centers():
    # the vertex-position use case: step 2^-J reproduces (cell + 0.5)*2^-J
    depth = 7
    step = 2.0 ** -depth
    rng = np.random.default_rng(2)
    v = rng.random((50, 3))
    q = transform.quantize(v, step, transform.MIDRISE)
    cells = np.floor(v * (1 << depth))
    assert np.array_equal(q, (cells + 0.5) * step)


def test_quantize_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        transform.quantize(1.0, 0.0, transform.MIDSTEP)
    with pytest.raises(ParameterError):
        transform.quantize(1.0, -1.0, transform.MIDRISE)
    with pytest.raises(ParameterError):
        transform.quantize(1.0, math.inf, transform.MIDSTEP)
    with pytest.raises(ParameterError):
        transform.quantize(1.0, 1.0, "nearest")


def test_quantize_indices_round_trip_scaling():
    vals = np.array([3.7, -3.7, 0.2, 5.0])
    # the forward over one voxel is the identity, so it returns the bin indices
    idx = transform.raht_forward(_plan([5], 3), vals[None, :], 2.0).coefficients[0]
    assert idx.tolist() == [2, -2, 0, 3]  # 2.5 rounds away from zero
    # the inverse over one voxel is the identity, so it returns index * step
    rows = transform.raht_inverse(_plan([5], 3), idx[None, :], 2.0)
    assert rows.tolist() == [[4.0, -4.0, 0.0, 6.0]]


def _plan(codes, depth):
    return transform.raht_plan(VoxelSet(depth, np.asarray(codes, dtype=np.int64)))


def test_two_voxel_butterfly_matrix():
    # voxels split on the z bit with equal weight: a = b = 1/sqrt(2),
    # first output row is the DC, second the difference
    plan = _plan([0, 1], 1)
    m = transform.raht_forward(plan, np.eye(2)).coefficients
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(m, [[r, r], [-r, r]], atol=1e-12)
    assert _plan_weights(plan).tolist() == [2, 2]
    assert plan.order.tolist() == [0, 1]


def test_three_voxel_weighted_matrix():
    # codes 0 and 1 merge at the z level (weights 1+1), the pair then meets
    # code 4 at the x level with weights 2 and 1
    plan = _plan([0, 1, 4], 1)
    m = transform.raht_forward(plan, np.eye(3)).coefficients
    s3 = 1.0 / math.sqrt(3.0)
    s2 = 1.0 / math.sqrt(2.0)
    s6 = 1.0 / math.sqrt(6.0)
    expected = np.array([
        [s3, s3, s3],            # DC: orthonormal + constant-preserving
        [-s2, s2, 0.0],          # detail of the z-level pair
        [-s6, -s6, 2.0 * s6],    # detail of the weighted x-level merge
    ])
    assert np.allclose(m, expected, atol=1e-12)
    assert _plan_weights(plan).tolist() == [3, 2, 3]
    assert plan.order.tolist() == [0, 2, 1]


def test_serialize_order_descending_weight_stable():
    order = transform.serialize_order(np.array([3, 2, 3]))
    assert order.tolist() == [0, 2, 1]
    order = transform.serialize_order(np.array([1, 5, 5, 2]))
    assert order.tolist() == [1, 2, 3, 0]


def _stable_descending(weights):
    return np.argsort(-np.asarray(weights, dtype=np.int64), kind="stable")


def _plan_weights(plan):
    """The final weight of every coefficient row, from the plan's pairs alone."""
    weights = np.ones(plan.n, dtype=np.int64)
    for level in plan.levels:
        weights[level.left_rows] += weights[level.right_rows]
        weights[level.right_rows] = weights[level.left_rows]
    return weights


@pytest.mark.parametrize("seed", range(4))
def test_serialize_order_matches_stable_argsort_under_heavy_ties(seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 6, size=5000)
    assert np.array_equal(transform.serialize_order(weights), _stable_descending(weights))


@pytest.mark.parametrize("top", [2 ** 16 - 1, 2 ** 16, 2 ** 40])
def test_serialize_order_matches_stable_argsort_for_each_digit_count(top):
    # keys max(w) - w of 16, 17 and 41 bits, each packed above a 13-bit row index
    rng = np.random.default_rng(0)
    weights = np.concatenate([
        rng.integers(0, top, size=3000, endpoint=True),
        rng.integers(0, 40, size=3000),
        [0, top, top, 1, top - 1],
        top - np.array([0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 32]).clip(max=top),
    ])
    order = transform.serialize_order(weights)
    assert np.array_equal(order, _stable_descending(weights))


def test_serialize_order_of_keys_too_wide_to_pack(monkeypatch):
    # 62-bit keys leave no room for the row index of three or more rows, so
    # the order comes from the stable argsort
    argsort, calls = np.argsort, []
    monkeypatch.setattr(np, "argsort", lambda *args, **kw: calls.append(kw) or argsort(*args, **kw))
    rng = np.random.default_rng(3)
    weights = np.concatenate([rng.integers(0, 2 ** 62, size=1000, endpoint=True),
                              [0, 2 ** 62, 0, 2 ** 62, 2 ** 61, 2 ** 61]])
    order = transform.serialize_order(weights)
    monkeypatch.undo()
    assert calls == [{"kind": "stable"}]
    assert np.array_equal(order, _stable_descending(weights))


@pytest.mark.parametrize("n", [0, 1])
def test_serialize_order_of_tiny_inputs(n):
    weights = np.arange(n, dtype=np.int64) + 7
    order = transform.serialize_order(weights)
    assert order.tolist() == list(range(n))
    assert order.dtype == _stable_descending(weights).dtype


def _workloads(monkeypatch):
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["rd-point-S", "inter-L", "intra-W"])
def test_serialize_order_of_every_plan_of_the_tiny_workload_scenes(name, monkeypatch):
    workloads = _workloads(monkeypatch)
    w = workloads.WORKLOADS[name].tiny()
    plans = []
    raht_plan = codec.raht_plan

    def recording(voxel_set):
        plans.append((voxel_set, raht_plan(voxel_set)))
        return plans[-1][1]

    monkeypatch.setattr(codec, "raht_plan", recording)
    gof = datagen.gen_sequence(w.shape, w.frames, n_faces=w.faces, upsample=w.upsample,
                               seed=w.default_seed)[0]
    codec.encode_gof(gof, CodecParams(workloads.DEPTH, w.upsample), intra_only=w.intra_only)
    # a vertex and a refined plan per reference frame
    assert len(plans) == 2 * (w.frames if w.intra_only else 1)
    for voxel_set, plan in plans:
        weights, _ = _running_walk(voxel_set.codes, voxel_set.depth)
        assert np.array_equal(plan.order, _stable_descending(weights))


def test_constant_signal_concentrates_in_dc():
    plan = _plan([0, 3, 11, 40, 41], 2)
    block = transform.raht_forward(plan, np.full((5, 2), 9.0))
    coeffs = block.coefficients
    assert np.allclose(coeffs[0], 9.0 * math.sqrt(5.0), atol=1e-12)
    assert np.allclose(coeffs[1:], 0.0, atol=1e-12)
    # DC weight equals the point count
    assert _plan_weights(plan)[0] == 5
    assert plan.order[0] == 0


def test_forward_inverse_identity_small():
    plan = _plan([2, 17, 21, 38, 60, 61], 2)
    rng = np.random.default_rng(5)
    sig = rng.normal(size=(6, 3)) * 50
    back = transform.raht_inverse(plan, transform.raht_forward(plan, sig).coefficients)
    assert np.allclose(back, sig, atol=1e-10)


def test_single_voxel_transform_is_identity():
    plan = _plan([5], 2)
    sig = np.array([[1.5, -2.0, 3.0]])
    block = transform.raht_forward(plan, sig)
    assert np.allclose(block.coefficients, sig)
    assert _plan_weights(plan).tolist() == [1]
    assert plan.levels == () and plan.order.tolist() == [0]


def test_plan_of_an_empty_set_is_refused():
    with pytest.raises(EmptySetError):
        transform.raht_plan(VoxelSet(3, []))


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_both_directions_refuse_a_step_that_is_not_finite_and_positive(direction, step):
    # an infinite step made every forward index 0 and every inverse row NaN
    # (0 * inf); a zero or negative step zeroed or flipped the inverse's rows
    transform_pass = transform.raht_forward if direction == "forward" else transform.raht_inverse
    with pytest.raises(ParameterError, match="step must be positive and finite"):
        transform_pass(_plan([0, 1], 1), np.ones((2, 3)), step)


def test_quantizing_forward_keeps_no_float_block():
    # each column is rounded and cast to int64 in place: the call holds its
    # output (the bytes of its one copy of the input) and the level
    # temporaries, not a float block of the coefficients beside it
    frame = datagen.gen_sequence("sphere", 1, n_faces=2000, upsample=10, seed=1)[0].reference
    _, state, _ = codec.encode_reference(frame, CodecParams(10, 10))
    plan = state.refined_plan
    colors = codec._group_means(frame.colors, state.refined_index_map, plan.n)
    assert plan.n > 90_000
    tracemalloc.start()
    try:
        indices = transform.raht_forward(plan, colors, 4.0).coefficients
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = (peak - indices.nbytes) / (8 * plan.n)
    assert columns <= 2.5, f"peaked {columns:.2f} float64 columns above the output"


def test_forward_rejects_wrong_row_count():
    plan = _plan([0, 1], 1)
    with pytest.raises(ConsistencyError):
        transform.raht_forward(plan, np.zeros((3, 2)))


@given(st.integers(1, 6), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_transform_is_orthonormal(depth, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, min(80, 8 ** depth) + 1))
    codes = np.sort(rng.choice(8 ** depth, size=n, replace=False).astype(np.int64))
    plan = _plan(codes, depth)
    m = transform.raht_forward(plan, np.eye(n)).coefficients
    assert np.abs(m.T @ m - np.eye(n)).max() < 1e-10
    sig = rng.normal(size=(n, 3)) * 100
    block = transform.raht_forward(plan, sig)
    # Parseval: energy is preserved per channel
    assert np.allclose(np.sum(block.coefficients ** 2, axis=0),
                       np.sum(sig ** 2, axis=0), rtol=1e-10)
    back = transform.raht_inverse(plan, block.coefficients)
    assert np.abs(back - sig).max() < 1e-9


@given(st.integers(1, 5), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_weights_sum_invariant(depth, seed):
    # every coefficient weight is a region point count; the DC row carries
    # the whole set and is serialized first
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, min(60, 8 ** depth) + 1))
    codes = np.sort(rng.choice(8 ** depth, size=n, replace=False).astype(np.int64))
    plan = _plan(codes, depth)
    weights = _plan_weights(plan)
    assert plan.n == n and plan.order.shape == (n,)
    assert weights[0] == n
    assert weights.min() >= 1
    assert np.array_equal(plan.order, transform.serialize_order(weights))
    assert plan.order[0] == 0


def _running_walk(codes, depth):
    """Reference pairing walk: (weights, per-level [(i0, i1, w0, w1)]).

    Survivors sharing all code bits above the level pair up left to right;
    the running update gives both rows of a pair the combined weight.
    """
    weights = np.ones(codes.size, dtype=np.int64)
    survivors = list(range(codes.size))
    levels = []
    for level in range(1, 3 * depth + 1):
        pairs, kept, p = [], [], 0
        while p < len(survivors):
            i0 = survivors[p]
            kept.append(i0)
            if p + 1 < len(survivors) and codes[i0] >> level == codes[survivors[p + 1]] >> level:
                i1 = survivors[p + 1]
                pairs.append((i0, i1, int(weights[i0]), int(weights[i1])))
                weights[i0] += weights[i1]
                weights[i1] = weights[i0]
                p += 2
            else:
                p += 1
        survivors = kept
        if pairs:
            levels.append(pairs)
    return weights, levels


@given(st.integers(1, 5), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_plan_matches_running_weight_walk(depth, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, min(60, 8 ** depth) + 1))
    codes = np.sort(rng.choice(8 ** depth, size=n, replace=False).astype(np.int64))
    plan = _plan(codes, depth)
    weights, levels = _running_walk(codes, depth)
    assert np.array_equal(plan.order, transform.serialize_order(weights))
    assert not plan.order.flags.writeable
    assert len(plan.levels) == len(levels)
    for level, pairs in zip(plan.levels, levels):
        i0, i1, w0, w1 = (np.array(col) for col in zip(*pairs))
        assert np.array_equal(level.left_rows, i0)
        assert np.array_equal(level.right_rows, i1)
        w0 = w0.astype(np.float64)
        w1 = w1.astype(np.float64)
        assert np.array_equal(level.a, np.sqrt(w0 / (w0 + w1)))
        assert np.array_equal(level.b, np.sqrt(w1 / (w0 + w1)))
        assert np.abs(level.a ** 2 + level.b ** 2 - 1.0).max() <= 4 * np.finfo(float).eps


def _random_codes(rng, depth):
    """Sorted distinct codes: scattered voxels plus clusters of near neighbors."""
    n = int(rng.integers(1, 200))
    scattered = rng.integers(0, 8 ** depth, size=n)
    bases = rng.integers(0, 8 ** depth, size=int(rng.integers(1, 8)))
    offsets = rng.integers(0, 8 ** min(depth, 4), size=(bases.size, 24))
    clustered = (bases[:, None] + offsets).ravel()
    return np.unique(np.concatenate([scattered, clustered]) % 8 ** depth)


@given(st.integers(1, 10), st.integers(0, 2 ** 31),
       st.sampled_from([1, 3, 9]), st.sampled_from(["C", "F"]))
@settings(max_examples=80, deadline=None)
def test_column_passes_match_row_wise_oracle(depth, seed, width, order):
    rng = np.random.default_rng(seed)
    plan = _plan(_random_codes(rng, depth), depth)
    block = np.asarray(rng.normal(size=(plan.n, width)) * 100, order=order)
    kept = block.copy()

    coefficients = transform.raht_forward(plan, block).coefficients
    assert np.array_equal(coefficients, oracles.raht_forward(plan, kept).coefficients)
    rows = transform.raht_inverse(plan, block)
    assert np.array_equal(rows, oracles.raht_inverse(plan, kept))
    assert rows.flags.c_contiguous
    assert np.array_equal(block, kept)  # the caller's array is left alone

    # with a step, the forward quantizes column by column to int64 bin indices
    step = float(rng.uniform(0.1, 64.0))
    indices = transform.raht_forward(plan, block, step).coefficients
    want = transform.round_half_away(oracles.raht_forward(plan, kept).coefficients / step)
    assert indices.dtype == np.int64 and indices.flags.f_contiguous
    assert np.array_equal(indices, want.astype(np.int64))
    assert np.array_equal(block, kept)

    # bin indices and their step: dequantized column by column, same floats
    symbols = np.asarray(rng.integers(-1000, 1001, size=(plan.n, width)), order=order)
    kept = symbols.copy()
    rows = transform.raht_inverse(plan, symbols, step)
    assert np.array_equal(rows, oracles.raht_inverse(plan, symbols * step))
    assert rows.flags.c_contiguous
    # an int64 block quantizes as its float64 copy does
    assert np.array_equal(transform.raht_forward(plan, symbols, step).coefficients,
                          transform.raht_forward(plan, symbols.astype(float), step).coefficients)
    assert np.array_equal(symbols, kept) and symbols.dtype == np.int64


def _large_codes(rng):
    """Sorted distinct codes of about 1k to 9k voxels at depth 5 to 10:
    scattered voxels plus clusters of near neighbors, so that some rows head
    large subtrees and n / 1024 allows a few nonzeros."""
    depth = int(rng.integers(5, 11))
    scattered = rng.integers(0, 8 ** depth, size=int(rng.integers(1000, 6000)))
    bases = rng.integers(0, 8 ** depth, size=int(rng.integers(1, 12)))
    offsets = rng.integers(0, 8 ** min(depth, 4), size=(bases.size, 300))
    clustered = (bases[:, None] + offsets).ravel()
    return np.unique(np.concatenate([scattered, clustered]) % 8 ** depth), depth


def _symbol_column(rng, plan, kind):
    """One column of bin indices (floats with signed zeros for "signed-zero")."""
    n = plan.n
    column = np.zeros(n, dtype=np.int64)
    if kind == "dc":
        column[0] = rng.integers(1, 1000) * rng.choice([-1, 1])
    elif kind == "top-right":
        column[plan.levels[-1].right_rows[0]] = rng.integers(1, 1000) * rng.choice([-1, 1])
    elif kind in ("sparse", "signed-zero"):
        # k of the n - 1 rows below the DC, from 1 to all of them
        k = min(n - 1, max(1, n >> int(rng.integers(0, 14))))
        rows = rng.choice(np.arange(1, n), size=k, replace=False)
        column[rows] = rng.integers(1, 1000, size=k) * rng.choice([-1, 1], size=k)
    elif kind == "dense":
        column[1:] = rng.integers(1, 1000, size=n - 1) * rng.choice([-1, 1], size=n - 1)
    if kind == "signed-zero":
        column = column.astype(np.float64)
        zeros = np.flatnonzero(column == 0)
        column[rng.choice(zeros, size=min(3, zeros.size), replace=False)] = -0.0
    return column


def _pairs_run(plan, column):
    """The butterflies the inverse runs on one column of floats."""
    return sum(b[0].size for b in transform._live_butterflies(plan, np.asarray(column, float)))


@given(st.integers(0, 2 ** 31),
       st.lists(st.sampled_from(["zero", "dc", "top-right", "sparse", "signed-zero", "dense"]),
                min_size=1, max_size=3),
       st.sampled_from(["C", "F"]))
@settings(max_examples=60, deadline=None)
def test_inverse_skipping_zero_pairs_equals_the_row_wise_oracle(seed, kinds, order):
    # the inverse skips the pairs whose inputs are both +0.0: every row, -0.0
    # included, is the row-wise oracle's, whichever columns share the block
    rng = np.random.default_rng(seed)
    plan = _plan(*_large_codes(rng))
    symbols = np.asarray(np.stack([_symbol_column(rng, plan, kind) for kind in kinds], axis=1),
                         order=order)
    kept = symbols.copy()
    step = float(rng.choice([0.25, 1.0, 4.0, rng.uniform(0.01, 64.0)]))
    rows = transform.raht_inverse(plan, symbols, step)
    assert np.array_equal(rows.view(np.uint64),
                          oracles.raht_inverse(plan, symbols * step).view(np.uint64))
    assert rows.flags.c_contiguous
    assert np.array_equal(symbols.view(np.uint64), kept.view(np.uint64))
    for k in range(symbols.shape[1]):  # never more pairs than the full pass
        assert _pairs_run(plan, symbols[:, k] * step) <= plan.n - 1


def test_inverse_runs_only_the_pairs_under_nonzero_coefficients():
    plan = _plan(*_large_codes(np.random.default_rng(4)))
    n = plan.n
    assert n > 4096
    column = np.zeros(n)
    assert _pairs_run(plan, column) == 0
    # the pairs of the lowest paired level join two voxels: each is its own cell
    bottom = plan.levels[0].right_rows
    column[bottom[:3]] = [3.0, -1.0, -0.0]
    assert _pairs_run(plan, column) == 3
    # a nonzero DC reaches every row, and so does the top pair's high-pass row
    column[0] = 1.0
    assert _pairs_run(plan, column) == n - 1
    column[0] = 0.0
    column[plan.levels[-1].right_rows[0]] = 1.0
    assert _pairs_run(plan, column) == n - 1
    # a column that is not sparse takes the full pass
    column = np.zeros(n)
    column[bottom[: n // 100]] = 1.0
    assert _pairs_run(plan, column) == n - 1


def test_quantize_indices_in_place_matches_round_half_away():
    # the in-place rounding must give round_half_away's integers, halves and
    # signed zeros included
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.normal(0, 50, 2000), np.arange(-40, 41) / 2,
                             [0.0, -0.0, 1e-300, -1e-300]])
    for step in (0.5, 1.0, 3.0, 4.0):
        got = transform.raht_forward(_plan([5], 3), values[None, :], step).coefficients[0]
        assert got.dtype == np.int64
        assert np.array_equal(got, transform.round_half_away(values / step).astype(np.int64))
