"""gpregime benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload pipeline_default --seed 1 \
        --seconds 30 --trace 0

The workload runs in its own process (worker.py), pinned to one thread.
An operation is one `gpregime run --config ... --out ...` call made in
that process. With --trace 0 the result carries the end-to-end metrics
(wall_s, cpu_s, setup_s, peak_rss_mb); with --trace 1 the per-layer
metrics of a traced run and the tracing overhead. See README.md.

This file uses the standard library only, so that it can time the start
of each workload process from outside.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
# set-up-only processes timed besides the run's own, half before it and
# half after, so that the set-up median spans the run
SETUP_PROBES = 4
TIMEOUT_S = 170.0       # whole run, probes included

from workloads import HELD_OUT_SEED, PROGRAM_SEED, WORKLOADS


def start_worker(argv, deadline):
    """Run worker.py; returns (seconds from spawn to ready, its result)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *argv],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="run seed; names the run's output directory")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--program-seed", type=int,
                    help="seed in the program's config (default: the "
                    f"workload's fixed seed; held-out: {HELD_OUT_SEED})")
    args = ap.parse_args()
    deadline = time.monotonic() + TIMEOUT_S

    if not (ROOT / "src" / "gpregime" / "__init__.py").is_file():
        raise SystemExit("no gpregime source under src/ next to perfbench/")
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    program_seed = PROGRAM_SEED[args.workload] if args.program_seed is None \
        else args.program_seed
    common = ["--workload", args.workload, "--run-dir", str(run_dir),
              "--program-seed", str(program_seed)]

    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [start_worker([*common, "--setup-only"], deadline)[0]
              for _ in range(probes)]
    setup, result = start_worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline)
    setups.append(setup)
    setups += [start_worker([*common, "--setup-only"], deadline)[0]
               for _ in range(probes)]

    ops = result["ops"]
    for i, o in enumerate(ops):
        print(f"op {i}{' traced' if o['traced'] else ''}: wall "
              f"{o['wall']:.3f} s, cpu {o['cpu']:.3f} s"
              f"{', failed' if o['failed'] else ''}", file=sys.stderr)
    for line in result["failures"]:
        print(line, file=sys.stderr)
    plain = [o for o in ops if not o["traced"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(result["layers"].items())}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(o["wall"] for o in plain),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(o["cpu"] for o in plain),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not any(o["wrong"] for o in ops),
        "attempted": len(ops),
        "failed": sum(o["failed"] for o in ops),
        "metrics": metrics,
    }))


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


if __name__ == "__main__":
    main()
