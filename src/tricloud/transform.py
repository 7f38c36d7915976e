"""Region-adaptive hierarchical transform (weighted Haar butterflies) and quantizers.

The transform walks the 3J bit-levels of the Morton codes bottom-up.  At each
level, adjacent survivors whose codes agree on all bits above the level are
siblings: an orthonormal 2x2 butterfly replaces them with a low-pass value
(kept at the left row, carrying the pair onward) and a high-pass value
(finalized at the right row).  Weights count how many original voxels each
survivor covers; they drive both the butterfly angles and the serialization
order of the coefficients, and the decoder can recompute them from geometry
alone.  After the top level a single low-pass value remains: sqrt(sum of
weights) times the weighted mean of the input rows.

:func:`raht_plan` walks the levels once per geometry.  The resulting
:class:`RahtPlan` carries each level's sibling rows and butterfly gains and
the coefficient order the final weights give, so forward and inverse passes
over any number of frames only gather, combine and scatter.
Both passes run all levels over one contiguous column at a time, with 1-D
gains.  The forward pass works on a column-major copy of its input; given the
quantizer step, it rounds each finished column to midstep bin indices and
casts them into the column's own bytes, so it returns the int64 view of that
copy and makes no second block.  The inverse works on a copy of each column
scaled by the step (so bin indices need no float copy of the whole block),
written back into row-major (C-ordered) rows.  A 1-D ``take`` and scatter
over a contiguous column cost a fraction of 2-D row indexing, and every
element goes through the same float operations in the same order as in a
row-wise pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import VoxelSet, _as_rows
from .errors import EmptySetError, ParameterError
from .geom import _sorted_rows

MIDSTEP = "midstep"
MIDRISE = "midrise"


def round_half_away(values, out=None) -> np.ndarray:
    """Round to nearest integer, halves away from zero (np.round is banker's).

    trunc(v + 0.5) or trunc(v - 0.5) by the sign of v (a zero takes + 0.5),
    in unmasked passes.  The result goes to ``out`` if given (``values``
    itself rounds in place); the halves are the only temporary.
    """
    values = np.asarray(values, dtype=np.float64)
    half = np.subtract(0.5, values < 0, out=np.empty_like(values))
    out = np.add(values, half, out=half if out is None else out)
    return np.trunc(out, out=out)


def quantize(values, step: float, mode: str) -> np.ndarray:
    """Uniform scalar quantization, reconstruction included.

    midstep reproduces integer multiples of the step (0 is a level); midrise
    reproduces half-integer multiples (levels straddle 0).
    """
    step = float(step)
    if not (step > 0.0):
        raise ParameterError(f"step must be positive, got {step}")
    values = np.asarray(values, dtype=np.float64)
    if mode == MIDSTEP:
        return round_half_away(values / step) * step
    if mode == MIDRISE:
        return (round_half_away(values / step - 0.5) + 0.5) * step
    raise ParameterError(f"unknown quantizer mode {mode!r}")


@dataclass(frozen=True)
class _PlanLevel:
    """One bit-level of the transform: its sibling pairs and butterfly gains."""

    left_rows: np.ndarray
    right_rows: np.ndarray
    a: np.ndarray   # sqrt(w0 / (w0 + w1)) per pair, 1-D
    b: np.ndarray   # sqrt(w1 / (w0 + w1)) per pair, 1-D


@dataclass(frozen=True)
class RahtPlan:
    """Everything one voxel geometry implies for the transform (reusable across frames).

    n is the voxel count.  levels holds, bottom-up, only the bit-levels that
    pair siblings, each with its butterfly gains.  order is the read-only
    serialization order of the coefficient rows, by decreasing propagated
    weight.
    """

    n: int
    levels: tuple
    order: np.ndarray


def raht_plan(voxel_set: VoxelSet) -> RahtPlan:
    """Build the level-by-level pairing schedule from the voxel set's Morton codes."""
    codes = voxel_set.codes
    depth = voxel_set.depth
    n = int(codes.size)
    if n == 0:
        raise EmptySetError("cannot build a transform plan for an empty voxel set")

    top = np.int64(1) << (3 * depth)
    indices = np.arange(n, dtype=np.int64)  # original rows surviving into the level
    weights = np.empty(n, dtype=np.int64)
    weights[0] = n  # the DC row covers the whole set
    levels = []
    for level in range(1, 3 * depth + 1):
        lcodes = codes[indices]
        # at most two survivors share a cell, so a level's pairs never overlap
        pos = np.flatnonzero(((lcodes[:-1] ^ lcodes[1:]) & (top - (np.int64(1) << level))) == 0)
        if not pos.size:
            continue
        # a survivor covers every voxel up to the next survivor
        covered = np.diff(indices, append=n)
        c0 = covered[pos]
        c1 = covered[pos + 1]
        right_rows = indices[pos + 1]
        weights[right_rows] = c0 + c1  # a high-pass row is final at its level
        w0 = c0.astype(np.float64)
        w1 = c1.astype(np.float64)
        levels.append(
            _PlanLevel(
                left_rows=indices[pos],
                right_rows=right_rows,
                a=np.sqrt(w0 / (w0 + w1)),
                b=np.sqrt(w1 / (w0 + w1)),
            )
        )
        indices = np.delete(indices, pos + 1)
    order = serialize_order(weights)
    order.flags.writeable = False
    return RahtPlan(n=n, levels=tuple(levels), order=order)


@dataclass(frozen=True)
class CoefficientBlock:
    """Transformed attribute rows, in voxel order."""

    coefficients: np.ndarray


def raht_forward(plan: RahtPlan, attributes, step: float | None = None) -> CoefficientBlock:
    """Transform attribute rows over the plan's voxel geometry.

    Returns the coefficient rows in voxel order, F-ordered; ``plan.order``
    lists them by decreasing weight.  The map is orthonormal, so energies are
    preserved exactly.  Given a ``step``, each finished column is divided by it,
    rounded half away from zero and cast to int64 in place: the rows are then
    the midstep bin indices the entropy coder sees.
    """
    if step is not None and not float(step) > 0.0:
        raise ParameterError(f"step must be positive, got {step}")
    ta = np.array(_as_rows(attributes, plan.n, "attributes"), order="F")
    for column in ta.T:
        for level in plan.levels:
            i0, i1, a, b = level.left_rows, level.right_rows, level.a, level.b
            x0 = column.take(i0)
            x1 = column.take(i1)
            column[i0] = a * x0 + b * x1
            column[i1] = -b * x0 + a * x1
        if step is not None:
            column /= step
            round_half_away(column, out=column)
            # a 1-D cast onto the same bytes and strides reads each element first
            column.view(np.int64)[:] = column
    return CoefficientBlock(coefficients=ta if step is None else ta.view(np.int64))


def raht_inverse(plan: RahtPlan, coefficients, step: float = 1.0) -> np.ndarray:
    """Invert :func:`raht_forward` of coefficient rows times ``step`` (midstep
    bin indices and their step dequantize here); returns attribute rows, C order."""
    coefficients = _as_rows(coefficients, plan.n, "coefficients", dtype=None)
    rows = np.empty(coefficients.shape)
    for k in range(rows.shape[1]):
        column = np.multiply(coefficients[:, k], step, dtype=np.float64)
        for level in reversed(plan.levels):
            i0, i1, a, b = level.left_rows, level.right_rows, level.a, level.b
            x0 = column.take(i0)
            x1 = column.take(i1)
            column[i0] = a * x0 - b * x1
            column[i1] = b * x0 + a * x1
        rows[:, k] = column
    return rows


def serialize_order(weights) -> np.ndarray:
    """Permutation putting coefficients in decreasing-weight order.

    Stable: ties keep ascending row order, so encoder and decoder derive the
    same permutation from the weights alone.  The keys max(w) - w are sorted
    by :func:`geom._sorted_rows`.
    """
    weights = np.asarray(weights, dtype=np.int64)
    keys = weights.max(initial=0) - weights
    return _sorted_rows(keys, int(keys.max(initial=0)).bit_length())[1]
