"""Child process of the tricloud benchmark.

    python3 perfbench/worker.py setup|measure '<config JSON>'

`setup` imports tricloud, generates the workload's input sequence through the
CLI and warms up on a tiny scene; it reports how long that took.  Both modes
time a fixed reference computation (the probe) beside the work they time, so
that run.py can scale their times to a reference machine speed.  `measure`
imports and warms up the same way, then repeats the workload's CLI stages
in-process until the configured seconds have passed, and reports every stage
time, exit code and TCB1 hash together with the process's peak RSS.  With
tracing on, every second pass runs with the layer wrappers of tracer.py
installed.  Either mode prints one JSON object as its last line.

Run it through run.py, which sets PYTHONPATH to the checkout's src/ and pins
BLAS threads to one.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, installed  # noqa: E402
from workloads import CODEC_FLAGS, DEPTH, Workload  # noqa: E402

# a run measures at least this many passes, however long they take; a traced
# run alternates untraced and traced passes and needs two of each
_MIN_PASSES = 3
_MIN_PASSES_TRACED = 2
# within an untraced pass a stage repeats until this much of it has run (at
# most _MAX_STAGE_RUNS times, and not after a failure), so short stages collect
# several samples per pass
_MIN_STAGE_S = 1.0
_MAX_STAGE_RUNS = 8


def _files(work: str) -> dict:
    names = {
        "input": "input.tcg", "bitstream": "coded.tcb", "decoded": "decoded.tcg",
        "json": "triangle.json", "svg": "triangle.svg",
    }
    return {key: os.path.join(work, name) for key, name in names.items()}


def _generate_argv(spec: Workload, seed: int, path: str) -> list:
    return [
        "generate", "--shape", spec.shape, "--frames", str(spec.frames),
        "--faces", str(spec.faces), "--upsample", str(spec.upsample),
        "--seed", str(seed), "--depth", str(DEPTH), "-o", path,
    ]


def _stage_argv(spec: Workload, stage: str, f: dict) -> list:
    if stage == "encode":
        argv = ["encode", f["input"], "-o", f["bitstream"], *CODEC_FLAGS]
        return argv + ["--intra-only"] if spec.intra_only else argv
    if stage == "decode":
        return ["decode", f["bitstream"], "-o", f["decoded"], "--jobs", "1"]
    metric = stage.removeprefix("eval_")
    argv = ["eval", "--original", f["input"], "--reconstruction", f["decoded"],
            "--metrics", metric]
    if metric == "triangle":
        argv += ["--bitstream", f["bitstream"], "--json", f["json"], "--svg", f["svg"]]
    return argv


def _run_stage(cli, argv: list, tracer: Tracer | None):
    """Run one CLI invocation; returns (seconds, exit code, captured stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", cli.main, argv)
    except SystemExit as exc:  # argparse rejects a usage error this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed stage, reported and counted
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return time.perf_counter() - start, rc, out.getvalue()


def _sha256(path: str):
    try:
        with open(path, "rb") as fp:
            return hashlib.sha256(fp.read()).hexdigest()
    except OSError:
        return None


def _report_values(stdout: str) -> dict:
    """The `key = value` lines an eval stage prints."""
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key.strip()] = value.strip()
    return values


_PROBE_DATA = np.random.default_rng(0).random(1 << 19)
_PROBE_INDEX = np.random.default_rng(1).integers(0, 1 << 19, 1 << 19)


def _probe() -> float:
    """Seconds a fixed reference computation takes right now (best of three).

    It mixes the kinds of work the stages do (sorting, scatter-add and gather
    over arrays, and an interpreted loop) so its duration follows the speed
    the machine gives this process at the moment.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        np.sort(_PROBE_DATA)
        np.bincount(_PROBE_INDEX, weights=_PROBE_DATA)
        _PROBE_DATA[_PROBE_INDEX].sum()
        acc = 0
        for i in range(40000):
            acc += i & 7
        best = min(best, time.perf_counter() - start)
    return best


def _run_pass(cli, spec: Workload, f: dict, tracer=None, corrupt=False,
              min_stage_s=0.0) -> dict:
    """Run every stage in order, each repeated until min_stage_s of it has run.

    A stage stops repeating after _MAX_STAGE_RUNS runs or a failed run.
    Returns, per stage, one [seconds, exit code, probe seconds] row per run.
    """
    stages = {stage: [] for stage in spec.stages}
    reports = {}
    hashes = []
    probe = _probe()
    for stage in spec.stages:
        while True:
            seconds, rc, stdout = _run_stage(cli, _stage_argv(spec, stage, f), tracer)
            after = _probe()
            stages[stage].append([seconds, rc, (probe + after) / 2])
            probe = after
            if stage == "encode":
                hashes.append(_sha256(f["bitstream"]))
            if (rc != 0 or len(stages[stage]) >= _MAX_STAGE_RUNS
                    or sum(row[0] for row in stages[stage]) >= min_stage_s):
                break
        if stage == "encode" and corrupt and os.path.exists(f["bitstream"]):
            # keep the header, drop the second half of the GOF records
            os.truncate(f["bitstream"], max(10, os.path.getsize(f["bitstream"]) // 2))
        if stage.startswith("eval_"):
            reports[stage] = _report_values(stdout)
    return {"traced": tracer is not None, "stages": stages, "tcb_sha256": hashes,
            "reports": reports}


def _warm_up(cli, spec: Workload, seed: int, work: str) -> list:
    """One untimed pass of the stages on a tiny scene; returns the exit codes."""
    tiny = spec.tiny()
    f = _files(os.path.join(work, "warm"))
    os.makedirs(os.path.dirname(f["input"]), exist_ok=True)
    _, rc, _ = _run_stage(cli, _generate_argv(tiny, seed, f["input"]), None)
    result = _run_pass(cli, tiny, f)
    return [rc] + [row[1] for rows in result["stages"].values() for row in rows]


def setup(cfg: dict) -> dict:
    from tricloud import cli

    start_probe = time.perf_counter()
    probe = _probe()
    probe_s = time.perf_counter() - start_probe
    spec = Workload(**cfg["workload"])
    f = _files(cfg["work"])
    tracer = Tracer() if cfg["trace"] else None
    argv = _generate_argv(spec, cfg["seed"], f["input"])
    if tracer is None:
        _, rc, _ = _run_stage(cli, argv, None)
    else:
        with installed(tracer):
            _, rc, _ = _run_stage(cli, argv, tracer)
    rcs = [rc] + _warm_up(cli, spec, cfg["seed"], cfg["work"])
    setup_s = time.perf_counter() - _STARTED - probe_s
    return {
        "setup_s": setup_s,
        "probe_s": (probe + _probe()) / 2,
        "rcs": rcs,
        "input_sha256": _sha256(f["input"]),
        "gen_sequence_s": tracer.self_s["datagen.gen_sequence"] if tracer else None,
    }


def _snapshot(tracer: Tracer) -> dict:
    snap = dict(tracer.counts)
    snap.update((f"{name}.calls", n) for name, n in tracer.calls.items())
    return snap


def measure(cfg: dict) -> dict:
    from tricloud import cli

    spec = Workload(**cfg["workload"])
    f = _files(cfg["work"])
    warm_rcs = _warm_up(cli, spec, cfg["seed"], cfg["work"])
    tracer = Tracer() if cfg["trace"] else None
    passes = []
    traced_counts = []
    deadline = time.perf_counter() + cfg["seconds"]
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            before = _snapshot(tracer)
            with installed(tracer):
                passes.append(_run_pass(cli, spec, f, tracer, cfg["corrupt"]))
            after = _snapshot(tracer)
            traced_counts.append({k: v - before.get(k, 0) for k, v in after.items()})
        else:
            passes.append(_run_pass(cli, spec, f, None, cfg["corrupt"], _MIN_STAGE_S))
        untraced = len(passes) - len(traced_counts)
        enough = (untraced >= _MIN_PASSES if tracer is None else
                  min(untraced, len(traced_counts)) >= _MIN_PASSES_TRACED)
        if enough and time.perf_counter() >= deadline:
            break
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warm_rcs": warm_rcs,
        "passes": passes,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": dict(tracer.self_s),
            "root_s": sum(seconds for _, seconds in tracer.roots),
            "counts": traced_counts,
            "skipped": sorted(set(tracer.skipped)),
        }
    return result


def main(argv: list) -> int:
    mode, cfg = argv[0], json.loads(argv[1])
    result = {"setup": setup, "measure": measure}[mode](cfg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
