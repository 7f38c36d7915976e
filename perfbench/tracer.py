"""Per-layer timing wrappers for the traced benchmark run.

The wrappers are installed from outside the library, only for a traced pass,
at every module attribute through which tricloud code reaches a public
function of another layer: the names `codec`, `metrics` and `cli` import from
their sibling modules, `morton_encode` as `geom.voxelize` sees it, and the
`geom` attributes that the lazy imports in `metrics._nearest_grid`,
`cli.cmd_eval` and `VoxelSet.centers` resolve at call time.

A span's self time is its wall time minus the wall time of the wrapped calls
made inside it.  The benchmark opens one root span per CLI stage around
`cli.main`, so the self times of all spans in a pass sum to the pass's wall
time and no interval is counted twice.  Private helpers are not wrapped: their
time lands in the public caller (for example `codec._group_means` in
`codec.encode_predicted`, `metrics._nearest_grid` in
`metrics.matching_distortion`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Accumulates self time, call counts and work counts per layer."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.roots = []          # (span name, wall time) of each root span
        self.skipped = []        # sites installed() could not wrap
        self._children = []      # wrapped-callee time, one slot per open span

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - self._children.pop()
            self.calls[name] += 1
            if self._children:
                self._children[-1] += elapsed
            else:
                self.roots.append((name, elapsed))

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced


def _rows_in(key):
    def count(counts, args, result):
        counts[key] += len(args[0])
    return count


def _rows_out(key):
    def count(counts, args, result):
        counts[key] += len(result)
    return count


def _nbytes_out(key):
    def count(counts, args, result):
        counts[key] += result.nbytes
    return count


def _size_out(key):
    def count(counts, args, result):
        counts[key] += int(np.size(result))
    return count


def _raht_forward(counts, args, result):
    counts["transform.raht.coefficients"] += result.coefficients.size


def _rlgr_symbols(counts, symbols):
    counts["entropy.rlgr.symbols"] += symbols.size
    counts["entropy.rlgr.nonzero"] += int(np.count_nonzero(symbols))


def _rlgr_encode(counts, args, result):
    _rlgr_symbols(counts, np.asarray(args[0]))


def _rlgr_decode(counts, args, result):
    _rlgr_symbols(counts, result)


def _one(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _matching(counts, args, result):
    counts["metrics.matching.queries"] += len(args[0]) + len(args[1])


# (layer, home module, function, modules whose attribute is replaced, counter)
SITES = (
    ("geom.voxelize", "geom", "voxelize", ("geom", "codec", "metrics"),
     _rows_in("geom.voxelize.points")),
    ("geom.morton_encode", "geom", "morton_encode", ("geom",),
     _size_out("geom.morton_encode.codes")),
    ("geom.morton_decode", "geom", "morton_decode", ("geom", "metrics"), None),
    ("geom.refine", "geom", "refine", ("codec", "metrics"),
     _rows_out("geom.refine.points")),
    ("geom.refine_interpolate", "geom", "refine_interpolate", ("metrics",), None),
    ("transform.raht_plan", "transform", "raht_plan", ("codec",), None),
    ("transform.raht_forward", "transform", "raht_forward", ("codec",), _raht_forward),
    ("transform.raht_inverse", "transform", "raht_inverse", ("codec",),
     _size_out("transform.raht.coefficients")),
    ("transform.transform_weights", "transform", "transform_weights", ("codec",), None),
    ("entropy.rlgr_encode", "entropy", "rlgr_encode", ("codec",),
     _rlgr_encode),
    ("entropy.rlgr_decode", "entropy", "rlgr_decode", ("codec",),
     _rlgr_decode),
    ("entropy.deflate", "entropy", "deflate", ("entropy", "codec"),
     _rows_in("entropy.deflate.bytes_in")),
    ("entropy.inflate", "entropy", "inflate", ("entropy", "codec"), None),
    ("entropy.index_runs", "entropy", "index_runs_encode", ("codec",), None),
    ("entropy.index_runs", "entropy", "index_runs_decode", ("codec",), None),
    ("octree.octree_serialize", "octree", "octree_serialize", ("codec",),
     _rows_out("octree.bytes")),
    ("octree.octree_parse", "octree", "octree_parse", ("codec",),
     _rows_in("octree.bytes")),
    ("codec.encode_reference", "codec", "encode_reference", ("codec",),
     _one("codec.frames.intra")),
    ("codec.decode_reference", "codec", "decode_reference", ("codec",),
     _one("codec.frames.intra")),
    ("codec.encode_predicted", "codec", "encode_predicted", ("codec",),
     _one("codec.frames.predicted")),
    ("codec.decode_predicted", "codec", "decode_predicted", ("codec",),
     _one("codec.frames.predicted")),
    ("codec.write_bitstream_file", "codec", "write_bitstream_file", ("cli",), None),
    ("codec.read_bitstream_file", "codec", "read_bitstream_file", ("cli",), None),
    ("core.read_gof_file", "core", "read_gof_file", ("cli",), None),
    ("core.write_gof_file", "core", "write_gof_file", ("cli",), None),
    ("core.validate_gof", "core", "validate_gof", ("cli", "codec"), None),
    ("metrics.psnr_triangle_cloud", "metrics", "psnr_triangle_cloud", ("cli",), None),
    ("metrics.refined_interpolated_cloud", "metrics", "refined_interpolated_cloud",
     ("cli", "metrics"), None),
    ("metrics.projection_psnr", "metrics", "projection_psnr", ("cli",), None),
    ("metrics.project_to_faces", "metrics", "project_to_faces", ("metrics",),
     _nbytes_out("metrics.projection.bytes_computed")),
    ("metrics.matching_distortion", "metrics", "matching_distortion", ("metrics",),
     _matching),
    ("datagen.gen_sequence", "datagen", "gen_sequence", ("cli",), None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every site in SITES with a wrapper reporting to tracer.

    A site that no longer binds the function (the library stopped importing
    it there) is left alone and listed in tracer.skipped, so the traced run
    keeps working across library changes and reports what it could not see.
    """
    saved = []
    try:
        for layer, home, name, sites, count in SITES:
            original = getattr(importlib.import_module(f"tricloud.{home}"), name, None)
            if original is None:
                tracer.skipped.extend(f"{site}.{name}" for site in sites)
                continue
            wrapper = tracer.wrap(layer, original, count)
            for site in sites:
                module = importlib.import_module(f"tricloud.{site}")
                if getattr(module, name, None) is not original:
                    tracer.skipped.append(f"{site}.{name}")
                    continue
                saved.append((module, name, original))
                setattr(module, name, wrapper)
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
