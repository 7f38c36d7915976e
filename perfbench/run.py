"""Benchmark of the tricloud CLI pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload rd-point-S --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Set-up generates the workload's input with
`tricloud generate` in several fresh processes and reports the median time.
A fresh measuring process then repeats the workload's CLI stages for the given
seconds (and at least three times), each stage called in-process through
`tricloud.cli.main`; stage times are medians over those repetitions.  Rate and
quality come from the outputs: bits per refined voxel from the TCB1 file,
triangle-cloud PSNR computed with the library, and the PSNRs the eval stages
print.  With `--trace 1` the same process alternates untraced and traced
passes, and the per-layer self times and counts of tracer.py are reported
instead of the end-to-end metrics.

Every stage exit code, the decoded sequence's shape, the repeatability of the
TCB1 bytes and the PSNR values are checked; each failed check counts in
`failed`.  A human-readable report precedes the last line of standard output,
which is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_ROUNDS = 3
TIME_LIMIT_S = 170.0
PROBE_REFERENCE_S = 0.010

# Metric catalogues: (name, unit).  END_TO_END and PER_LAYER are what the JSON
# line carries; every name must be a number on every workload.  The stage and
# quality figures that only the rate-distortion point produces, and the layers
# that some workload never calls, are printed in the report only.
END_TO_END = (
    ("encode_s", "s"), ("decode_s", "s"), ("pipeline_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bpv_geometry", "bit/voxel"), ("bpv_color", "bit/voxel"),
    ("psnr_g_triangle", "dB"), ("psnr_y_triangle", "dB"),
)
REPORT_ONLY = (
    ("eval_triangle_s", "s"), ("eval_projection_s", "s"), ("eval_matching_s", "s"),
    ("psnr_y_projection", "dB"), ("psnr_g_matching", "dB"), ("error_rate", "ratio"),
)
_ALL_WORKLOAD_LAYERS = (
    "geom.voxelize", "geom.morton_encode", "geom.morton_decode", "geom.refine",
    "transform.raht_forward", "transform.raht_inverse", "transform.raht_plan",
    "transform.transform_weights",
    "entropy.rlgr_encode", "entropy.rlgr_decode", "entropy.deflate", "entropy.inflate",
    "entropy.index_runs",
    "octree.octree_serialize", "octree.octree_parse",
    "codec.encode_reference", "codec.decode_reference",
    "codec.write_bitstream_file", "codec.read_bitstream_file",
    "core.read_gof_file", "core.write_gof_file", "core.validate_gof",
    "cli.encode", "cli.decode", "datagen.gen_sequence",
)
_SOME_WORKLOAD_LAYERS = (
    "geom.refine_interpolate", "codec.encode_predicted", "codec.decode_predicted",
    "metrics.psnr_triangle_cloud", "metrics.refined_interpolated_cloud",
    "metrics.projection_psnr", "metrics.project_to_faces",
    "metrics.matching_distortion", "cli.eval",
)
_BITS = ("octree", "index_runs", "faces", "color_intra", "motion", "color_inter")
PER_LAYER = (
    tuple((f"{layer}.self_s", "s") for layer in _ALL_WORKLOAD_LAYERS)
    + (("trace.overhead_s", "s"),)
    + (
        ("geom.voxelize.calls", "count"), ("geom.voxelize.points", "count"),
        ("geom.morton_encode.codes", "count"), ("geom.refine.points", "count"),
        ("transform.raht.coefficients", "count"), ("transform.raht_plan.calls", "count"),
        ("entropy.rlgr.symbols", "count"), ("entropy.rlgr.nonzero_ratio", "ratio"),
        ("entropy.deflate.bytes_in", "B"), ("octree.bytes", "B"),
        ("codec.frames.intra", "count"), ("codec.frames.predicted", "count"),
        ("codec.refined_voxels", "count"),
    )
    + tuple((f"codec.bits.{section}", "bit") for section in _BITS)
    + (("metrics.projection.bytes_computed", "B"), ("metrics.matching.queries", "count"))
)


class Checks:
    """Tally of correctness checks and stage invocations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def _child(mode: str, cfg: dict, deadline: float):
    """Run worker.py in a fresh process; its JSON result, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TRICLOUD_LOG="WARNING",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), mode, json.dumps(cfg)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"worker {mode} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {mode} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _psnr_ok(value) -> bool:
    return value is not None and (math.isfinite(value) or value == math.inf)


def _as_float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _outputs(files: dict, checks: Checks) -> dict:
    """Rate, quality and shape figures read back from the stage outputs."""
    from tricloud import read_bitstream_file, read_gof_file, psnr_triangle_cloud
    from tricloud.codec import IntraPayload
    from tricloud.errors import TricloudError

    out = {}
    try:
        encoded = read_bitstream_file(files["bitstream"])
    except (OSError, TricloudError) as exc:
        checks.check(False, f"TCB1 does not parse: {exc}")
        encoded = None
    if encoded is not None:
        checks.check(True, "TCB1 parses")
        bits = dict.fromkeys(_BITS, 0)
        for enc in encoded:
            for payload in enc.frames:
                if isinstance(payload, IntraPayload):
                    bits["octree"] += 8 * len(payload.octree_bytes)
                    bits["index_runs"] += 8 * len(payload.index_run_bytes)
                    bits["faces"] += 8 * len(payload.face_bytes)
                    bits["color_intra"] += 8 * sum(map(len, payload.color_payloads))
                else:
                    bits["motion"] += 8 * sum(map(len, payload.motion_payloads))
                    bits["color_inter"] += 8 * sum(map(len, payload.color_payloads))
        voxels = sum(sum(enc.refined_voxel_counts()) for enc in encoded)
        out["bits"] = bits
        out["refined_voxels"] = voxels
        out["bpv_geometry"] = sum(e.payload_bits()["geometry"] for e in encoded) / voxels
        out["bpv_color"] = sum(e.payload_bits()["color"] for e in encoded) / voxels

    try:
        original = [fr for g in read_gof_file(files["input"])[0] for fr in g.frames]
        decoded = [fr for g in read_gof_file(files["decoded"])[0] for fr in g.frames]
    except (OSError, TricloudError) as exc:
        checks.check(False, f"TCG1 input or output does not read: {exc}")
        return out
    shape = [(fr.n_faces, fr.n_colors) for fr in original]
    checks.check(shape == [(fr.n_faces, fr.n_colors) for fr in decoded],
                 "decoded TCG1 frame, face and color counts differ from the input")
    ref = original[0]
    out["sizes"] = {"frames": len(original), "faces": ref.n_faces,
                    "vertices": ref.n_vertices, "colors_per_frame": ref.n_colors}
    if shape == [(fr.n_faces, fr.n_colors) for fr in decoded]:
        g, y, _, _ = psnr_triangle_cloud(original, decoded)
        out["psnr_g_triangle"], out["psnr_y_triangle"] = g, y
        checks.check(_psnr_ok(g) and _psnr_ok(y), "triangle-cloud PSNR is NaN or -inf")
    return out


def _median_or_none(values):
    return statistics.median(values) if values else None


def _sum_or_none(values):
    values = list(values)
    return None if None in values else sum(values)


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool,
                 corrupt: bool = False) -> tuple:
    """Set up, measure and check one workload; returns (report, result line)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    checks = Checks()
    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{spec.name}-{seed}-", dir=WORK_DIR)
    try:
        cfg = {"workload": asdict(spec), "seed": seed, "work": work,
               "seconds": seconds, "trace": trace, "corrupt": corrupt}
        setups = [_child("setup", cfg, deadline) for _ in range(SETUP_ROUNDS)]
        for s in setups:
            if checks.check(s is not None, "set-up process failed"):
                for rc in s["rcs"]:
                    checks.check(rc == 0, f"set-up stage exited with {rc}")
        setups = [s for s in setups if s is not None]
        checks.check(len({s["input_sha256"] for s in setups}) == 1,
                     "set-up rounds generated different inputs")
        measured = _child("measure", cfg, deadline)
        if measured is None:
            return None, None
        files = {"input": os.path.join(work, "input.tcg"),
                 "bitstream": os.path.join(work, "coded.tcb"),
                 "decoded": os.path.join(work, "decoded.tcg"),
                 "json": os.path.join(work, "triangle.json")}
        report = _evaluate(spec, seed, setups, measured, files, checks, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report, _result_line(report, checks, trace)


def _evaluate(spec, seed, setups, measured, files, checks, trace) -> dict:
    for rc in measured["warm_rcs"]:
        checks.check(rc == 0, f"warm-up stage exited with {rc}")
    passes = measured["passes"]
    samples = {stage: [] for stage in spec.stages}
    raw = {stage: [] for stage in spec.stages}
    for p in passes:
        for stage, rows in p["stages"].items():
            for sec, rc, probe in rows:
                checks.check(rc == 0, f"{stage} exited with {rc}")
                if not p["traced"]:
                    samples[stage].append(sec * PROBE_REFERENCE_S / probe)
                    raw[stage].append(sec)
    hashes = {h for p in passes for h in p["tcb_sha256"]}
    checks.check(len(hashes) == 1 and None not in hashes,
                 "TCB1 bytes differ between repetitions")

    r = {"workload": spec.name, "seed": seed,
         "passes": sum(not p["traced"] for p in passes),
         "sha256": sorted(h for h in hashes if h), "samples": samples}
    r.update(_outputs(files, checks))
    stage_medians = {stage: _median_or_none(v) for stage, v in samples.items()}
    r["encode_s"] = stage_medians["encode"]
    r["decode_s"] = stage_medians["decode"]
    for metric in ("triangle", "projection", "matching"):
        r[f"eval_{metric}_s"] = stage_medians.get(f"eval_{metric}")
    r["pipeline_s"] = _sum_or_none(stage_medians.values())
    r["raw_pipeline_s"] = _sum_or_none(_median_or_none(v) for v in raw.values())
    r["setup_s"] = _median_or_none(
        [s["setup_s"] * PROBE_REFERENCE_S / s["probe_s"] for s in setups])
    r["raw_setup_s"] = _median_or_none([s["setup_s"] for s in setups])
    r["peak_rss_mb"] = measured["peak_rss_mb"]

    reports = passes[-1]["reports"]
    for stage, key in (("eval_triangle", "psnr_g_triangle"),
                       ("eval_triangle", "psnr_y_triangle"),
                       ("eval_projection", "psnr_y_projection"),
                       ("eval_matching", "psnr_g_matching")):
        if stage not in reports:
            continue
        value = _as_float(reports[stage].get(key))
        checks.check(_psnr_ok(value), f"{stage} printed {key} = {value}")
        if stage == "eval_triangle":
            try:
                with open(files["json"], encoding="utf-8") as fp:
                    written = _as_float(json.load(fp).get(key))
            except (OSError, ValueError):
                written = None
            checks.check(written is not None and written == r.get(key),
                         f"{stage} wrote {key} = {written}, library gives {r.get(key)}")
        else:
            r[key] = value

    if trace:
        _evaluate_trace(r, measured["trace"], r["raw_pipeline_s"], setups, checks)
    r["attempted"], r["failed"] = checks.attempted, checks.failed
    r["error_rate"] = checks.failed / checks.attempted
    r["failures"] = checks.notes
    r["src_lines"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (ROOT / "src").rglob("*.py"))
    return r


def _evaluate_trace(r: dict, tr: dict, untraced_s: float, setups: list, checks: Checks):
    counts = tr["counts"]
    n = len(counts)
    checks.check(all(c == counts[0] for c in counts),
                 "per-layer counts differ between traced passes")
    self_s = {name: sec / n for name, sec in tr["self_s"].items()}
    traced_pipeline = tr["root_s"] / n
    checks.check(abs(sum(self_s.values()) - traced_pipeline) < 1e-6,
                 "per-layer self times do not sum to the traced pipeline time")
    layers = {f"{name}.self_s": self_s.get(name, 0.0)
              for name in _ALL_WORKLOAD_LAYERS + _SOME_WORKLOAD_LAYERS}
    layers["datagen.gen_sequence.self_s"] = _median_or_none(
        [s["gen_sequence_s"] for s in setups])
    layers["trace.pipeline_s"] = traced_pipeline
    layers["trace.overhead_s"] = traced_pipeline - untraced_s
    c = counts[0]
    for key in ("geom.voxelize.calls", "geom.voxelize.points", "geom.morton_encode.codes",
                "geom.refine.points", "transform.raht.coefficients",
                "transform.raht_plan.calls", "entropy.rlgr.symbols",
                "entropy.deflate.bytes_in", "octree.bytes",
                "codec.frames.intra", "codec.frames.predicted",
                "metrics.projection.bytes_computed", "metrics.matching.queries"):
        layers[key] = c.get(key, 0)
    symbols = c.get("entropy.rlgr.symbols", 0)
    layers["entropy.rlgr.nonzero_ratio"] = (
        c.get("entropy.rlgr.nonzero", 0) / symbols if symbols else 0.0)
    layers["codec.refined_voxels"] = r.get("refined_voxels", 0)
    for section, value in r.get("bits", {}).items():
        layers[f"codec.bits.{section}"] = value
    r["layers"] = layers
    r["trace_skipped"] = tr["skipped"]


def _result_line(r: dict, checks: Checks, trace: bool) -> dict:
    source = r["layers"] if trace else r
    catalogue = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": source.get(name), "unit": unit} for name, unit in catalogue}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(spec: Workload, r: dict, trace: bool) -> None:
    print(f"workload {spec.name}, seed {r['seed']} (default {spec.default_seed}, "
          f"held out {spec.heldout_seed}): {spec.why}")
    sizes = r.get("sizes", {})
    voxels = r.get("refined_voxels")
    per_frame = voxels / sizes["frames"] if voxels and sizes else None
    print(f"  scene: {spec.shape}, {sizes.get('faces')} faces, {sizes.get('vertices')} "
          f"vertices, {_fmt(per_frame)} refined voxels/frame, {sizes.get('frames')} "
          f"frames, U={spec.upsample}, {'intra-only' if spec.intra_only else 'hybrid'}")
    print(f"  src/ lines: {r['src_lines']}")
    print(f"  TCB1 sha256: {', '.join(r['sha256']) or 'none'}")
    print("  bits per section: " + ", ".join(
        f"{k} {v}" for k, v in r.get("bits", {}).items()))
    print(f"  {r['passes']} untraced passes; scaled stage samples:")
    for stage, values in r["samples"].items():
        print(f"    {stage}: {len(values)} samples, "
              + " ".join(f"{v:.3f}" for v in values))
    print("  end-to-end (stage times are medians; null = stage not run):")
    for name, unit in END_TO_END + REPORT_ONLY:
        print(f"    {name:22s} {_fmt(r.get(name)):>14s} {unit}")
    if trace:
        print("  per-layer, per traced pass (self times exclude wrapped callees):")
        for name, value in r["layers"].items():
            print(f"    {name:40s} {_fmt(value):>14s}")
        if r["trace_skipped"]:
            print(f"  trace sites not found: {', '.join(r['trace_skipped'])}")
    print(f"  unscaled medians: pipeline_s {_fmt(r['raw_pipeline_s'])} s, "
          f"setup_s {_fmt(r['raw_setup_s'])} s")
    print(f"  checks: {r['attempted']} attempted, {r['failed']} failed")
    for note in r["failures"]:
        print(f"    FAILED: {note}")


def prepare() -> bool:
    """Point this process at the checkout's sources; False if there are none."""
    if not (ROOT / "src" / "tricloud" / "__init__.py").is_file():
        print(f"no tricloud sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        return 2
    spec = WORKLOADS[args.workload]
    seed = spec.default_seed if args.seed is None else args.seed
    report, line = run_workload(spec, seed, args.seconds, bool(args.trace))
    if report is None:
        print("the measuring process failed; no result", file=sys.stderr)
        return 1
    print_report(spec, report, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
