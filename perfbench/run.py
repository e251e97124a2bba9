"""entbat benchmark: run one workload, check every output, print one result line.

    python3 perfbench/run.py --workload ree-continuity --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy.  The workload's inputs come from
``--seed``.  Operations run in whole rounds until ``--seconds`` of wall
time have passed, and each output is checked against values computed with
numpy apart from the program (``reference.py``).

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (spans are written to
``perfbench/out/trace-<workload>-<seed>.jsonl``).  Standard output holds
only the result line, last; diagnostics go to standard error.
"""
from __future__ import annotations

import os
import sys
import time

T_SCRIPT = time.perf_counter()

# One process and one BLAS thread: the machine has few cores, and a second
# BLAS thread makes the d <= 16 kernels slower and every figure noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy asks the kernel for transparent huge pages on large arrays, and
# whether it gets them depends on how fragmented the host's memory is:
# large-dim's peak RSS read 299 MB in one hour and 273 MB in the next on
# the same seeds.  Without the request the figure is the program's own.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def _process_age_s() -> float:
    """Seconds since this process started, from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


AGE_AT_SCRIPT = _process_age_s()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "entbat" / "__init__.py").is_file():
        raise SystemExit(f"error: no entbat sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import entbat

    if Path(entbat.__file__).resolve().parent != (src / "entbat").resolve():
        raise SystemExit(f"error: imported entbat from {entbat.__file__}, not from {src}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=["ree-continuity", "ree-battery", "closed-form", "large-dim"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="wall time of the timed phase; 0 runs one round")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def run_rounds(wl, seconds: float, tracer=None):
    """Run whole rounds; stop after the round that ends nearest ``seconds``.

    After each round the run stops if, at the mean round time so far, the
    next round would end further from ``seconds`` than this one did, so a
    run lasts ``seconds`` give or take half a round.
    """
    from workloads import CheckError

    durations: list[float] = []
    by_label: dict[str, list[float]] = {}
    attempted = failed = bad = 0
    t_start = time.perf_counter()
    r = 0
    while True:
        for op in wl.rounds[r % len(wl.rounds)]:
            attempted += 1
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an operation the program failed; counted, run goes on
                failed += 1
                print(f"operation {op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            try:
                op.check(out)
            except CheckError as exc:
                bad += 1
                print(f"check failed on {op.label}: {exc}", file=sys.stderr)
                continue
            durations.append(dt)
            by_label.setdefault(op.label, []).append(dt)
        r += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / r >= seconds:
            break
    for label, times in by_label.items():
        print(f"  {label}: {len(times)} ops, median {1e3 * statistics.median(times):.3f} ms", file=sys.stderr)
    return durations, attempted, failed, bad, t_start


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its scratch directory (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result_out = sys.stdout
    # Anything the program or numpy prints goes to stderr; stdout carries
    # only the result line.
    sys.stdout = sys.stderr
    _import_program()

    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warmup()
        setup_s = AGE_AT_SCRIPT + (time.perf_counter() - T_SCRIPT)

        tracer = None
        if args.trace:
            tracer = spans.Tracer(wl.ree_exact)
            tracer.install()
        try:
            durations, attempted, failed, bad, t_start = run_rounds(wl, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        busy = sum(durations)
        print(
            f"{args.workload} seed {args.seed}: {len(durations)} ops checked in {busy:.3f} s of op time, "
            f"{time.perf_counter() - t_start:.3f} s wall, failed {failed}, wrong {bad}",
            file=sys.stderr,
        )

        if tracer is not None:
            trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
            tracer.write(trace_path, t_start)
            values = tracer.metrics()
            metrics = {k: {"value": values[k], "unit": u} for k, u in spans.PER_LAYER_UNITS.items()}
            print(f"traced ops_per_s {len(durations) / busy if busy else 0.0:.6g}; {len(tracer.spans)} spans in {trace_path}", file=sys.stderr)
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": len(durations) / busy if busy else 0.0, "unit": "1/s"},
                "op_p50_ms": {"value": 1e3 * statistics.median(durations) if durations else 0.0, "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": bad == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with contextlib.suppress(BrokenPipeError):
        result_out.write(json.dumps(result) + "\n")
        result_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
