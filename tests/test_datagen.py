"""Synthetic sequence generator."""

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
