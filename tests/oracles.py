"""Reference implementations that only tests call.

The expanded render cloud: every refined triangle upsampled again, with a
point shared by neighboring triangles repeated once per triangle.  The
library computes each distinct point once (:func:`tricloud.metrics.render_cloud`,
:func:`tricloud.geom.interpolation_lattice`); these functions keep the
direct construction the metrics are checked against.
"""

import numpy as np

from tricloud.errors import ConsistencyError
from tricloud.geom import _barycentric_refine
from tricloud.metrics import render_cloud


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
    out = _barycentric_refine(c1, c2, c3, int(upsample))
    return out[:, :3], out[:, 3:]


def refined_interpolated_cloud(frame, interp: int = 1):
    """(points, colors) of the upsampled render cloud of one frame.

    The rows of :func:`render_cloud`, each repeated by its multiplicity: the
    cloud of every refined triangle interpolated by the extra factor, with
    points shared by neighboring triangles once per triangle.
    """
    points, colors, weights = render_cloud(frame, interp)
    return np.repeat(points, weights, axis=0), np.repeat(colors, weights, axis=0)
