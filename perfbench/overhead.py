"""Tracing overhead: the same workload and seed untraced, then traced.

    python3 perfbench/overhead.py --workload titles-bigru --seed 1 --seconds 2

Runs `run.py --trace 0` and `run.py --trace 1` one after the other and
prints, for each end-to-end metric, the untraced value, the value measured
while the per-layer wrappers were installed, and their relative
difference; then the traced run's per-layer metrics, one per line. The
traced run reports its end-to-end figures on the line before its
per-layer result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=RUN.parent.parent, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run.py --trace {trace} failed:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    plain = run(args.workload, args.seed, args.seconds, 0)[-1]["metrics"]
    *_, info, layers = run(args.workload, args.seed, args.seconds, 1)
    traced = info["traced_end_to_end"]
    print(f"{'metric':18s} {'untraced':>12s} {'traced':>12s} {'change':>8s}")
    for name, entry in plain.items():
        base = entry["value"]
        print(f"{name:18s} {base:12.4f} {traced[name]:12.4f} "
              f"{(traced[name] - base) / base:+8.1%}")
    print(f"predict time spent reloading per call: {info['predict_reload_share']:.1%}")
    for name, entry in layers["metrics"].items():
        print(f"{name:40s} {entry['value']:14.4f} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
