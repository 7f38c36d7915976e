"""Compression of dynamic triangle clouds.

A triangle cloud is a point cloud whose colored points lie on the faces of a
triangle mesh; a dynamic sequence groups frames that share connectivity and
index-wise correspondence.  This package voxelizes such sequences, codes
reference-frame geometry with octrees plus duplicate-index runs, transform
codes colors and per-frame motion/color residuals with a region-adaptive
hierarchical transform, and entropy codes the coefficients in partitioned
Rice / Exp-Golomb or run-length Golomb-Rice codes.  Evaluation metrics, a
synthetic data generator, and a command-line front end round out the toolkit.
"""

from .codec import (
    EncodedGof,
    FrameBuffer,
    IntraPayload,
    PredictedPayload,
    ReferenceState,
    decode_frames,
    decode_gof,
    decode_predicted,
    decode_reference,
    encode_frames,
    encode_gof,
    encode_predicted,
    encode_reference,
    read_bitstream,
    read_bitstream_file,
    write_bitstream,
    write_bitstream_file,
)
from .core import (
    CodecParams,
    GofHeader,
    GroupOfFrames,
    TriangleCloudFrame,
    VoxelSet,
    check_frame,
    expected_color_count,
    iter_gof_file,
    read_gof_file,
    read_gof_frames,
    validate_gof,
    write_gof_file,
    write_gof_frames,
)
from .datagen import gen_sequence
from .entropy import (
    deflate,
    index_runs_decode,
    index_runs_encode,
    inflate,
    partitioned_decode,
    partitioned_encode,
    rlgr_decode,
    rlgr_encode,
)
from .errors import (
    ConsistencyError,
    CorruptStreamError,
    EmptySetError,
    FormatError,
    MalformedIndexMapError,
    ParameterError,
    RangeError,
    ShapeMismatchError,
    StreamError,
    TrailingBytesError,
    TricloudError,
    TruncatedStreamError,
)
from .geom import (
    VoxelizationResult,
    interpolation_lattice,
    morton_decode,
    morton_encode,
    refine,
    refined_faces,
    voxel_coords,
    voxelize,
)
from .metrics import (
    METRICS,
    evaluate,
    matching_distortion,
    project_to_faces,
    psnr_from_errors,
    psnr_transform,
    psnr_triangle_cloud,
    rates,
)
from .octree import (
    baseline_decode_pointcloud,
    baseline_encode_pointcloud,
    octree_parse,
    octree_serialize,
)
from .transform import (
    MIDRISE,
    MIDSTEP,
    CoefficientBlock,
    RahtPlan,
    quantize,
    raht_forward,
    raht_inverse,
    raht_plan,
    serialize_order,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
