"""Workloads of the tricloud benchmark.

Each workload is one synthetic scene taken through the user-facing CLI stages
(`encode`, `decode`, and for the rate-distortion point one `eval` per metric)
by a single caller in a single process: a closed loop of one client.  All
scenes use voxel depth J=10, one group of frames, `--jobs 1` and the stepsizes
in CODEC_FLAGS.  The generator seed is the only input that varies.

The three workloads separate the two halves of the toolkit.  On the
rate-distortion point the evaluation metrics do almost all the work; on the
two codec workloads no metric runs, so a metric change must not move them,
while a codec change shows there at full scale.  The two codec workloads
exercise the same `codec` layer in opposite ways: predicted frames with sparse
residuals against reference frames with dense intra symbols.

Scene sizes are smaller than a full paper sequence so that one run measures
several repetitions of every stage within the benchmark's time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DEPTH = 10

CODEC_FLAGS = (
    "--step-motion", "1",
    "--step-color-intra", "4",
    "--step-color-inter", "4",
    "--jobs", "1",
)

EVAL_METRICS = ("triangle", "projection", "matching")


@dataclass(frozen=True)
class Workload:
    """One scene and the CLI stages run on it."""

    name: str
    shape: str
    faces: int
    upsample: int
    frames: int
    intra_only: bool
    evals: tuple
    default_seed: int
    heldout_seed: int
    why: str

    @property
    def stages(self) -> tuple:
        return ("encode", "decode") + tuple(f"eval_{m}" for m in self.evals)

    def tiny(self) -> "Workload":
        """The same stages on a scene small enough for warm-up and self-tests."""
        return replace(self, name=f"{self.name}-tiny", faces=50, upsample=2, frames=2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rd-point-S",
            shape="sphere", faces=2000, upsample=10, frames=2, intra_only=False,
            evals=EVAL_METRICS, default_seed=1, heldout_seed=7,
            why="full rate-distortion point; the eval metrics dominate and the "
                "codec barely moves it",
        ),
        Workload(
            name="inter-L",
            shape="two-blobs", faces=20000, upsample=10, frames=3, intra_only=False,
            evals=(), default_seed=1, heldout_seed=7,
            why="predicted frames at scale (voxelize, RAHT, sparse RLGR); no "
                "metric runs, so eval changes must not move it",
        ),
        Workload(
            name="intra-W",
            shape="wave-plane", faces=8000, upsample=10, frames=4, intra_only=True,
            evals=(), default_seed=1, heldout_seed=7,
            why="every frame on the reference path (octree, index runs, deflated "
                "faces, dense RLGR) over an open planar surface",
        ),
    )
}
