"""Self-test of the benchmark harness on tiny scenes.

    python3 perfbench/selftest.py

Runs each workload's stages on a 50-face, U=2, two-frame scene, untraced and
traced, and checks that every metric BENCHMARK.json names comes out as a
number with its unit and that every correctness check passes.  Then it
truncates the TCB1 file after each encode and checks that the failures are
counted, not raised.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    if not run.prepare():
        return 2
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for spec in WORKLOADS.values():
        tiny = spec.tiny()
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            where = f"{tiny.name} trace={int(trace)}"
            _, line = run.run_workload(tiny, spec.default_seed, 0.1, trace)
            if line is None:
                problems.append(f"{where}: no result")
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(got.items() ^ want.items())}")
            missing = [n for n, m in line["metrics"].items()
                       if not isinstance(m["value"], (int, float))]
            if missing:
                problems.append(f"{where}: no value for {missing}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{where}: {line['failed']} checks failed")

    tiny = WORKLOADS["rd-point-S"].tiny()
    _, line = run.run_workload(tiny, 0, 0.1, False, corrupt=True)
    if line is None or line["correct"] or line["failed"] == 0:
        problems.append(f"corrupted TCB1 was not counted as a failure: {line}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
