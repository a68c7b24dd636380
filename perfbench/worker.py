"""One workload in a fresh process; prints its measurements as one JSON line.

    python3 perfbench/worker.py --workload NAME --work DIR --seed N \
        [--setup-only] [--seconds S] [--trace 0|1] [--trace-out FILE]

`run.py` starts it with `src` on PYTHONPATH and BLAS pinned to one thread.
Set-up time starts before `import seps`.  A traced run alternates untraced
and traced calls; the gap between their medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = perf_counter()
    import seps
    import_s = perf_counter() - start
    if Path(seps.__file__).resolve().parent != ROOT / "src" / "seps":
        print(f"imported seps from {seps.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from seps.errors import SepsError

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    if tracer:
        try:
            tracer.install()
        except tracing.MissingTarget as exc:
            print(f"{exc}; update tracing.TARGETS", file=sys.stderr)
            return 1
    start = perf_counter()
    state = workload.setup(args.seed, args.work)
    setup_s = import_s + perf_counter() - start
    if tracer:
        tracer.restore()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results: list = []
    times: list[float] = []
    traced_times: list[float] = []
    failures: list[str] = []

    def one(index: int, sink: list[float]) -> None:
        t0 = perf_counter()
        try:
            result = workload.call(state, index)
        except SepsError as exc:
            failures.append(f"call {index}: {type(exc).__name__}: {exc}")
            return
        sink.append(perf_counter() - t0)
        results.append(result)

    # a traced run alternates untraced and traced calls, so the overhead is
    # measured against calls made at nearly the same time
    loop_start = perf_counter()
    index = 0
    while (index < workload.min_calls or perf_counter() - loop_start < args.seconds
           or (tracer is not None and index < 2)):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.call_id = index
            tracer.install()
        try:
            one(index, traced_times if traced else times)
        finally:
            if traced:
                tracer.restore()
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check(state, results, args.seed) if results else ["no call succeeded"]
    out = {
        "attempted": index,
        "failed": len(failures),
        "failures": failures,
        "errors": errors,
        "setup_s": setup_s,
        "call_s": times,
        "items_per_call": workload.items_per_call(state),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        out["traced_call_s"] = traced_times
        out["layers"] = layer_report(tracer, workload, results, times, traced_times)
        out["notes"] = [f"span {name}: {stats.describe(values, 's')}" for name, values
                        in sorted(tracing.durations_by_name(tracer.spans).items())]
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


QUALITY = ("objective.final_loss", "evaluator.rsum", "evaluator.auc")


def layer_report(tracer, workload, results, times, traced_times) -> dict[str, float]:
    layers = tracing.layer_metrics(tracer.spans, tracer.counters, max(1, len(traced_times)))
    quality = dict.fromkeys(QUALITY, 0.0)
    if results:
        quality.update(workload.quality(results))
    layers.update(quality)
    overhead = 0.0
    if times and traced_times:
        overhead = statistics.median(traced_times) / statistics.median(times) - 1.0
    layers["trace.overhead_frac"] = overhead
    return layers


if __name__ == "__main__":
    sys.exit(main())
