"""The process of one benchmark run of one workload.

Pins every thread pool to one thread before numpy is imported, imports
gpregime from the checkout's src/, writes the workload's config, then
repeats the operation -- one `gpregime run --config ... --out ...` call
through gpregime.cli.main -- and checks each operation's artifacts.
Prints one JSON line for run.py to read.

With --setup-only it stops once the first operation is ready; run.py
times several such processes for setup_s.
"""

import os

# OpenBLAS's default pool roughly doubles CPU time on the program's small
# matrices and widens the spread; one thread per pool measures the
# program's own work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GPREGIME_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 2        # the determinism check compares two operations


def import_program():
    """gpregime.cli from the checkout, never from an installed copy."""
    if not (SRC / "gpregime" / "__init__.py").is_file():
        raise SystemExit(f"no gpregime package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gpregime.cli
    if Path(gpregime.cli.__file__).resolve().parent != SRC / "gpregime":
        raise SystemExit(f"imported gpregime from {gpregime.cli.__file__}")
    return gpregime.cli


def operation(cli, config_path, out_dir):
    """One `gpregime run`; returns (exit code or exception text, wall, cpu)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(sink):
            outcome = cli.main(["run", "--config", str(config_path),
                                "--out", str(out_dir)])
    except Exception as exc:  # a raising operation counts as failed
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, time.perf_counter() - t0, time.process_time() - c0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--program-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli = import_program()
    import workloads
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    with open(config_path, "w") as fh:
        json.dump(workloads.make_config(args.workload, args.program_seed), fh)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    import checks
    import tracer as tracing
    ref = checks.reference(args.workload)
    out_dir = run_dir / "op"
    tracer = tracing.Tracer() if args.trace else None
    ops, failures, first = [], [], None
    traced_walls = []
    start = time.perf_counter()
    while True:
        # a round is one operation; traced runs add a traced one after it
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.begin_operation(len(ops))
                tracer.install()
            try:
                outcome, wall, cpu = operation(cli, config_path, out_dir)
            finally:
                if traced:
                    tracer.uninstall()
            if outcome == 0:
                fails, arts = checks.check_artifacts(args.workload, out_dir,
                                                     ref, first)
                first = first or arts
                wrong = bool(fails)
            else:
                fails, wrong = [f"operation ended with {outcome!r}"], False
            failures += [f"op {len(ops)}: {f}" for f in fails]
            ops.append({"wall": wall, "cpu": cpu, "traced": traced,
                        "failed": bool(fails), "wrong": wrong})
            if traced:
                traced_walls.append(wall)
        walls = [o["wall"] for o in ops if not o["traced"]]
        rounds = len(walls)
        round_time = (time.perf_counter() - start) / rounds
        if rounds >= (1 if tracer else MIN_OPS) and \
                time.perf_counter() - start + round_time > args.seconds:
            break

    result = {"ops": ops, "failures": failures,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        per_op = [tracing.operation_metrics(spans, wall) for spans, wall in
                  zip(tracing.split_by_operation(tracer.spans).values(),
                      traced_walls)]
        layers = tracing.median_metrics(per_op)
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        result["layers"] = layers
        tracer.dump(run_dir / "trace.json")
    result["ready"] = ready
    print(json.dumps(result))


if __name__ == "__main__":
    main()
