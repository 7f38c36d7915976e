"""Synthetic sequence generator."""

import hashlib

import numpy as np
import pytest

from tricloud import core, datagen
from tricloud.errors import ParameterError


def test_known_shapes():
    assert set(datagen.SHAPES) == {"sphere", "wave-plane", "two-blobs"}


@pytest.mark.parametrize("shape", datagen.SHAPES)
def test_each_shape_yields_a_valid_group(shape):
    gofs = datagen.gen_sequence(shape, 3, n_faces=60, upsample=2, seed=1)
    assert len(gofs) == 1
    gof = gofs[0]
    assert gof.n_frames == 3
    core.validate_gof(gof)
    for frame in gof.frames:
        assert frame.n_colors == core.expected_color_count(frame.n_faces, 2)
        assert np.all(frame.colors >= 0.0) and np.all(frame.colors <= 255.0)


def test_same_seed_reproduces_bit_exact():
    kwargs = dict(n_faces=80, upsample=3, amplitude=0.03, seed=7)
    a = datagen.gen_sequence("sphere", 4, **kwargs)[0]
    b = datagen.gen_sequence("sphere", 4, **kwargs)[0]
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.vertices, fb.vertices)
        assert np.array_equal(fa.faces, fb.faces)
        assert np.array_equal(fa.colors, fb.colors)


def test_different_seeds_differ():
    a = datagen.gen_sequence("sphere", 1, n_faces=80, upsample=2, seed=1)[0]
    b = datagen.gen_sequence("sphere", 1, n_faces=80, upsample=2, seed=2)[0]
    assert not np.array_equal(a.reference.vertices, b.reference.vertices)


def test_zero_amplitude_freezes_the_sequence():
    gof = datagen.gen_sequence("wave-plane", 5, n_faces=40, upsample=2,
                               amplitude=0.0, seed=3)[0]
    ref = gof.reference
    for frame in gof.frames:
        assert np.array_equal(frame.vertices, ref.vertices)
        assert np.array_equal(frame.colors, ref.colors)


def test_motion_actually_moves_vertices():
    gof = datagen.gen_sequence("sphere", 2, n_faces=40, upsample=2,
                               amplitude=0.05, seed=4)[0]
    delta = np.abs(gof.frames[1].vertices - gof.frames[0].vertices)
    assert delta.max() > 1e-3


def test_gof_size_splits_frames():
    gofs = datagen.gen_sequence("two-blobs", 7, n_faces=50, upsample=2,
                                seed=5, gof_size=3)
    assert [g.n_frames for g in gofs] == [3, 3, 1]
    faces = gofs[0].reference.faces
    for g in gofs:
        core.validate_gof(g)
        for frame in g.frames:
            assert np.array_equal(frame.faces, faces)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        datagen.gen_sequence("cube", 2)
    with pytest.raises(ParameterError):
        datagen.gen_sequence("sphere", 0)
    with pytest.raises(ParameterError):
        datagen.gen_sequence("sphere", 2, n_faces=1)
    with pytest.raises(ParameterError):
        datagen.gen_sequence("sphere", 2, upsample=0)
    with pytest.raises(ParameterError):
        datagen.gen_sequence("sphere", 2, amplitude=-0.01)
    with pytest.raises(ParameterError):
        datagen.gen_sequence("sphere", 2, amplitude=0.5)
    with pytest.raises(ParameterError):
        datagen.gen_sequence("sphere", 2, gof_size=0)


# SHA-256 of the float64 bytes of every frame's vertices, faces and colors,
# in frame order; the generator must keep producing exactly these arrays
_PIN_CASES = {
    "default": dict(n_frames=3),
    "breathing": dict(n_frames=5, amplitude=0.1, gof_size=2),
}
_PINNED = {
    ("sphere", 1, "default"): "f448bed448e60d08c61870889aaf699d9a6075f0e94b5499fcb465206bd126ed",
    ("sphere", 1, "breathing"): "9861ebeae7ba1fb47627e59928a10aff16ad9bb20bc002ae57dab06813b43441",
    ("sphere", 7, "default"): "1592d2d53678d18c593c80b33ebe0e9ff59e90b84740c2ffbdfe8c5041d23b49",
    ("sphere", 7, "breathing"): "80fca8e604900a12c2592bdc5c0a7e634d50bb00f254159de58e351407c6ef49",
    ("wave-plane", 1, "default"): "49864f822705708e35e6e0f06c436ca80686d33698fb133b134ea6fb502fd255",
    ("wave-plane", 1, "breathing"): "c8b43832e602b5232497d896a3f3edd9ca1405456ca83c6ddba0132ff3a7ed46",
    ("wave-plane", 7, "default"): "52046dd9af38deb80037892f6dbf815e10267089371c0d4b4d2ce50eb9c0794b",
    ("wave-plane", 7, "breathing"): "7daa5d943c6d50a80e31a90d7b0a986d8f9287e5b0e7b189b26574b084a5b72f",
    ("two-blobs", 1, "default"): "8ad7a520c62d6c495ad5ceb57075e68dcdd571e7d6c9169e87c238e43c59c398",
    ("two-blobs", 1, "breathing"): "849d5fc10ffcf0d543701fb8209b23f9ce8933f92a846979684f84bcd24778f0",
    ("two-blobs", 7, "default"): "3333784350c99e6360147a5aef4a4c22ef1da5b28c8813cfb04de387c11d128b",
    ("two-blobs", 7, "breathing"): "772dbf53bbee3291469433a799086286083dc86bd89eaebda41036f0cf18b4fb",
}


@pytest.mark.parametrize("shape, seed, case", sorted(_PINNED))
def test_generated_arrays_are_pinned(shape, seed, case):
    digest = hashlib.sha256()
    gofs = datagen.gen_sequence(shape, n_faces=200, upsample=4, seed=seed,
                                **_PIN_CASES[case])
    for gof in gofs:
        for frame in gof.frames:
            for array in (frame.vertices, frame.faces, frame.colors):
                digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    assert digest.hexdigest() == _PINNED[shape, seed, case]
