"""Command-line front end: generate, encode, decode, eval.

Exit codes: 0 success, 1 data error (corrupt or inconsistent input),
2 usage error (bad flags, unrecognized file format or version).
Set TRICLOUD_LOG=DEBUG|INFO|WARNING|ERROR to control log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import math
import os
import stat
import sys

from .codec import (
    decode_frames,
    encode_frames,
    read_bitstream_file,
    write_bitstream_file,
)
from .core import (
    CodecParams,
    GofHeader,
    iter_gof_file,
    write_gof_file,
    write_gof_frames,
)
from .datagen import SHAPES, gen_sequence
from .errors import ConsistencyError, CorruptStreamError, FormatError, TricloudError
from .metrics import METRICS, evaluate, psnr_from_errors, rates
from .svgplot import write_line_plot

log = logging.getLogger("tricloud")

# the report keys in stdout and CSV order; between the header and rate keys, each
# metric of the METRICS table in its order, its error keys then its PSNR keys
_CSV_COLUMNS = [
    "sequence", "n_frames", "depth", "uinterp",
    "step_motion", "step_color_intra", "step_color_inter",
    *(key for error_keys, psnr_keys, _ in METRICS.values() for key in error_keys + psnr_keys),
    "rate_mbps_geometry", "rate_bpv_geometry",
    "rate_mbps_color", "rate_bpv_color",
    "rate_mbps_total", "rate_bpv_total",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricloud",
        description="Dynamic triangle-cloud codec and evaluation tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic TCG2 sequence")
    p.add_argument("--shape", required=True, choices=SHAPES)
    p.add_argument("--frames", required=True, type=int)
    p.add_argument("--faces", type=int, default=2000)
    p.add_argument("--upsample", type=int, default=10)
    p.add_argument("--amplitude", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gof-size", type=int, default=None,
                   help="frames per group (default: one group)")
    p.add_argument("--depth", type=int, default=10,
                   help="voxel grid depth recorded in the file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("encode", help="encode a TCG2 sequence to a TCB1 bitstream")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--step-motion", type=float, default=1.0,
                   help="motion residual stepsize, voxel units")
    p.add_argument("--step-color-intra", type=float, default=1.0)
    p.add_argument("--step-color-inter", type=float, default=1.0)
    p.add_argument("--intra-only", action="store_true",
                   help="code every frame as a reference frame")
    p.add_argument("--jobs", type=int, default=1, choices=[1],
                   help="worker processes; only 1 is accepted")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a TCB1 bitstream to a TCG2 sequence")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--jobs", type=int, default=1, choices=[1],
                   help="worker processes; only 1 is accepted")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="compare two TCG2 sequences")
    p.add_argument("--original", required=True)
    p.add_argument("--reconstruction", required=True)
    p.add_argument("--metrics", default=",".join(METRICS),
                   help="comma list from: " + ",".join(METRICS))
    p.add_argument("--uinterp", type=int, default=1,
                   help="extra interpolation factor for the render clouds")
    p.add_argument("--bitstream", default=None,
                   help="TCB1 file to report rates and stepsizes from")
    p.add_argument("--csv", default=None, help="write the report row to this CSV")
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the report to this JSON file")
    p.add_argument("--svg", default=None,
                   help="write per-frame triangle-cloud PSNR traces to this SVG")
    p.set_defaults(func=cmd_eval)
    return parser


def cmd_generate(args) -> int:
    gofs = gen_sequence(args.shape, args.frames, n_faces=args.faces,
                        upsample=args.upsample, amplitude=args.amplitude,
                        seed=args.seed, gof_size=args.gof_size)
    write_gof_file(args.output, gofs, args.depth)
    ref = gofs[0].reference
    n_frames = sum(g.n_frames for g in gofs)
    print(f"wrote {args.output}: {n_frames} frames in {len(gofs)} GOF(s), "
          f"{ref.n_faces} faces, {ref.n_vertices} vertices, "
          f"{ref.n_colors} colors/frame, {os.path.getsize(args.output)} bytes")
    return 0


def _rate_report(encoded) -> dict:
    """{"geometry" | "color" | "total": (bits, Mbps, bits per voxel)} of EncodedGofs."""
    counts = [c for enc in encoded for c in enc.refined_voxel_counts()]  # one per frame
    gof_bits = [enc.payload_bits() for enc in encoded]
    totals = {kind: sum(b[kind] for b in gof_bits) for kind in ("geometry", "color", "total")}
    return {kind: (bits, *rates(bits, len(counts), counts)) for kind, bits in totals.items()}


def cmd_encode(args) -> int:
    steps = args.step_motion, args.step_color_intra, args.step_color_inter
    # one GOF at a time, coded at its own header's depth and U, its frames as they are read
    encoded = [encode_frames(frames, h.n_frames, CodecParams(h.depth, h.upsample, *steps),
                             args.intra_only)
               for h, frames in iter_gof_file(args.input)]
    log.info("encoded %d GOF(s)", len(encoded))
    write_bitstream_file(args.output, encoded)

    print("frame  type  geometry_kbit  color_kbit")
    payloads = [p for enc in encoded for p in enc.frames]
    for frame_no, payload in enumerate(payloads, 1):
        kind = "I" if payload.INTRA else "P"
        print(f"{frame_no:5d}  {kind:>4}  {payload.geometry_bits / 1000:13.3f}"
              f"  {payload.color_bits / 1000:10.3f}")
    size = os.path.getsize(args.output)
    for kind, (bits, mbps, bpv) in _rate_report(encoded).items():
        tail = f", container {size} bytes" if kind == "total" else ""
        print(f"{kind + ':':<9} {bits} bits ({mbps:.4f} Mbps, {bpv:.4f} bpv){tail}")
    return 0


def _write_decoded(fp, encoded, frames, depth: int) -> None:
    """Write the frames of one decoded GOF record as TCG2 containers: one for a
    hybrid record, one per frame for an all-intra record, whose frames carry no
    shared vertex labeling."""
    n = 1 if encoded.intra_only else encoded.n_frames
    header = GofHeader(n, depth, encoded.params.upsample)
    frames = iter(frames)
    for _ in range(encoded.n_frames // n):
        write_gof_frames(fp, header, itertools.islice(frames, n))


def _read_encoded(path) -> list:
    """The GOF records of the TCB1 file at `path`, of which there must be one or
    more: a TCG2 file holds at least one container, and a rate needs a frame."""
    encoded = read_bitstream_file(path)
    if not encoded:
        raise CorruptStreamError(f"{path}: bitstream holds no GOF")
    return encoded


def cmd_decode(args) -> int:
    encoded = _read_encoded(args.input)
    depth = encoded[0].params.depth
    if any(enc.params.depth != depth for enc in encoded):
        # a TCG2 file holds one depth, as its reader checks
        raise ConsistencyError(f"{args.input}: GOF records disagree on depth")
    log.info("decoding %d GOF(s)", len(encoded))
    with open(args.output, "wb") as fp:
        try:
            for enc in encoded:
                # each frame is written as it is decoded
                _write_decoded(fp, enc, decode_frames(enc), depth)
        except BaseException:
            # a decode that fails leaves no partial file behind
            if stat.S_ISREG(os.fstat(fp.fileno()).st_mode):
                fp.close()
                os.remove(args.output)
            raise
    n_frames = sum(enc.n_frames for enc in encoded)
    print(f"wrote {args.output}: {n_frames} frames in {len(encoded)} GOF(s), "
          f"{os.path.getsize(args.output)} bytes")
    return 0


def _read_frames(path):
    """(depth, frames): the depth of the TCG2 file at `path`, and its frames, read
    one at a time as they are asked for."""
    containers = iter_gof_file(path)
    header, frames = next(containers)
    return header.depth, itertools.chain(frames, itertools.chain.from_iterable(
        fs for _, fs in containers))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6f}"
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return value


def _eval_usage_error(args, wanted) -> str | None:
    """What is wrong with eval's flags, found before either file is read; None
    when nothing is."""
    unknown = [m for m in wanted if m not in METRICS]
    if unknown:
        return f"unknown metric {unknown[0]!r}; choose from {', '.join(METRICS)}"
    if not wanted:
        return f"--metrics names no metric; choose from {', '.join(METRICS)}"
    if args.svg and "triangle" not in wanted:
        return "--svg plots the triangle metric, which --metrics leaves out"
    if args.uinterp < 1:
        return f"--uinterp must be >= 1, got {args.uinterp}"
    return None


def cmd_eval(args) -> int:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    usage_error = _eval_usage_error(args, wanted)
    if usage_error:
        print(usage_error, file=sys.stderr)
        return 2
    depth, originals = _read_frames(args.original)
    recon_depth, recons = _read_frames(args.reconstruction)
    if recon_depth != depth:
        raise ConsistencyError(f"{args.original} is at depth {depth} but "
                               f"{args.reconstruction} is at depth {recon_depth}")
    # the stream is read and its depth checked before any metric runs
    encoded = _read_encoded(args.bitstream) if args.bitstream else []
    n_coded = sum(enc.n_frames for enc in encoded)
    other_depths = {enc.params.depth for enc in encoded} - {depth}
    if other_depths:
        raise ConsistencyError(f"{args.bitstream} holds {n_coded} frames at depth "
                               f"{max(other_depths)}, but {args.original} is at depth {depth}")
    # one frame pair at a time: only the per-frame error rows are kept
    figures, rows = evaluate(originals, recons, wanted, depth, args.uinterp)
    if encoded and n_coded != len(rows):
        raise ConsistencyError(f"{args.bitstream} holds {n_coded} frames at depth {depth}, "
                               f"but {len(rows)} frame pairs at depth {depth} were compared")
    report = {
        "sequence": os.path.splitext(os.path.basename(args.original))[0],
        "n_frames": len(rows),
        "depth": depth,
        "uinterp": args.uinterp,
        **figures,
    }
    if encoded:
        params = encoded[0].params
        report.update(
            step_motion=params.step_motion,
            step_color_intra=params.step_color_intra,
            step_color_inter=params.step_color_inter,
        )
        for kind, (_, mbps, bpv) in _rate_report(encoded).items():
            report[f"rate_mbps_{kind}"] = mbps
            report[f"rate_bpv_{kind}"] = bpv

    for key in _CSV_COLUMNS:
        if key in report:
            print(f"{key} = {_fmt(report[key])}")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fp:
            writer = csv.writer(fp)
            writer.writerow(_CSV_COLUMNS)
            writer.writerow([_fmt(report.get(k)) for k in _CSV_COLUMNS])
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fp:
            json.dump({k: _json_safe(v) for k, v in report.items()}, fp, indent=2)
            fp.write("\n")
    if args.svg:
        per_frame_traces = [psnr_from_errors([row["triangle"]]) for row in rows]
        xs = list(range(1, len(per_frame_traces) + 1))
        write_line_plot(
            args.svg,
            [
                ("PSNR_G", xs, [t[0] for t in per_frame_traces]),
                ("PSNR_Y", xs, [t[1] for t in per_frame_traces]),
            ],
            title="triangle-cloud PSNR per frame",
            xlabel="frame",
            ylabel="PSNR (dB)",
        )
    return 0


def main(argv=None) -> int:
    level = os.environ.get("TRICLOUD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TricloudError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FormatError) else 1


if __name__ == "__main__":
    sys.exit(main())
