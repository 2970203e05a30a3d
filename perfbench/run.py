"""Run one robuq benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload dit-forward --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from
spans recorded around robuq's public functions (see ``spans.py``). The line
before it, prefixed ``perfbench:``, holds the host record and the run's
details.

robuq is imported from ``src/`` next to this directory; without it the run
exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
TAIL_PERCENTILE = 75  # with dit-forward's 40 passes, 10 lie beyond it
# name -> (unit, better); the order is the order of the printed result
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "work_per_s": ("1/s", "higher"),
    "output_err": ("1", "lower"),
    "ok_frac": ("1", "higher"),
}
# Each workload's own names for the end-to-end metrics, printed on the
# `perfbench:` line.
NAMED = {
    "dit-convert": {"work_per_s": "convert_mparams_per_s", "output_err": "convert_rel_err",
                    "op_p50_ms": "convert_block_p50_ms"},
    "dit-forward": {"work_per_s": "forward_tokens_per_s", "output_err": "forward_rel_err",
                    "op_p50_ms": "forward_p50_ms", "op_tail_ms": "forward_tail_ms"},
    "toy-pipeline": {"work_per_s": "qat_steps_per_s", "output_err": "pipeline_loss_gap",
                     "op_p50_ms": "pipeline_p50_ms"},
}
WORKLOAD_NAMES = tuple(NAMED)


def limit_blas_threads() -> int:
    """At most one BLAS thread per usable core; returns the thread count."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            threads = min(threads, max(1, int(os.environ[var])))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_robuq() -> float:
    """Import robuq from this checkout's ``src/``; returns the import time."""
    src = ROOT / "src"
    if not (src / "robuq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no robuq sources at {src / 'robuq'}")
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import robuq

    seconds = time.perf_counter() - t
    if Path(robuq.__file__).resolve().parent != src / "robuq":
        raise SystemExit(f"perfbench: robuq imported from {robuq.__file__}, not {src}")
    return seconds


def host_record(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = {"name": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def fresh_setup_seconds(args) -> float:
    """Set-up time of a fresh process, measured by that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the benchmark's self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = limit_blas_threads()
    import_s = import_robuq()

    import spans as tracing
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, WORKDIR, tracer)

    workload.prepare()
    if args.trace:
        tracer.install()
    t = time.perf_counter()
    workload.setup()
    setup_s = import_s + time.perf_counter() - t
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [fresh_setup_seconds(args)
                          for _ in range(workload.setup_samples - 1)]
    workload.after_setup()

    # A traced run alternates untraced and traced passes over the same
    # inputs, so their difference is the tracing overhead; per-layer numbers
    # cover set-up and the first half of the minimum passes' traced ones.
    results, traced_passes = [], set()
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    i = 0
    while i < workload.min_passes or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and i % 2 == 1
        index = i // 2 if args.trace else i
        if traced:
            tracer.phase = i
            tracer.install()
            if len(traced_passes) < workload.min_passes // 2:
                traced_passes.add(i)
        elif args.trace:
            tracer.uninstall()
        attempted += workload.steps_per_pass
        try:
            result = workload.run_pass(index)
        except Exception as exc:  # a failed pass is counted, reported and survived
            traceback.print_exc(file=sys.stderr)
            print(f"perfbench: pass {i} raised {exc!r}", file=sys.stderr)
            failed += workload.steps_per_pass
            correct = False
            results.append(None)
        else:
            failed += result.checks.count(False)
            correct = correct and result.exact
            results.append(result)
        i += 1

    ok = [r for r in results if r is not None]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "tiny": args.tiny, "host": host_record(threads), "passes": len(results),
            "steps_per_pass": workload.steps_per_pass}
    if not ok:
        print("perfbench: " + json.dumps(info))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    if args.trace:
        tracer.phase = tracing.PROBE
        tracer.install()
        quality = workload.probe()
        tracer.uninstall()
        plain = [r.seconds for j, r in enumerate(results) if r is not None and j % 2 == 0]
        traced = [r.seconds for j, r in enumerate(results) if r is not None and j % 2 == 1]
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        stats = tracing.layer_stats(tracer.spans, traced_passes)
        metrics = tracing.per_layer_metrics(stats, quality, overhead)
        units = tracing.PER_LAYER
        dump = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(dump, {**info, "counted_passes": sorted(traced_passes)})
        info["spans"] = len(tracer.spans)
        info["span_file"] = str(dump.relative_to(ROOT))
    else:
        seconds = [r.seconds for r in ok]
        first = results[: workload.min_passes]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "op_p50_ms": 1e3 * statistics.median(seconds),
            "op_tail_ms": 1e3 * statistics.quantiles(
                seconds, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
            "work_per_s": sum(r.work for r in ok) / sum(r.work_seconds for r in ok),
            # deterministic for a seed: the first min_passes passes only
            "output_err": (statistics.fmean(r.err for r in first)
                           if all(r is not None for r in first) else float("nan")),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
        info.update({
            "setup_samples_s": setup_samples,
            "tail": f"p{TAIL_PERCENTILE} of {len(seconds)} pass times",
            "work_unit": workload.work_unit,
            "named": {NAMED[args.workload][k]: metrics[k] for k in NAMED[args.workload]},
            "failed_frac": failed / attempted,
            **workload.details(),
        })
    print("perfbench: " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
