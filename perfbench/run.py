"""seps benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train_desk|eval_gallery|select_bank \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/seps`.  The inputs are
made from the seed in untimed preparation under perfbench/.work/, set-up
is timed in fresh processes, and the workload runs as a closed loop of
repeated calls in its own process (one process, no threads, BLAS pinned to
one thread, SEPS_THREADS unset, bytecode cache warm).  Human-readable
lines come first; the last line of stdout is {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones.  The exit code is 1 when an output
check fails and 2 when the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import envinfo  # these three import only the standard library
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOAD_NAMES = ("train_desk", "eval_gallery", "select_bank")
SETUP_PROBES = 16     # fresh processes timed for setup_s, half before and half
                      # after the workload; the median is reported
DEADLINE_S = 170.0    # the whole run, preparation included
END_TO_END_UNITS = {"throughput": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def pin_environment() -> None:
    """One BLAS thread, no SEPS_THREADS, and bytecode caching on, here and
    in every child; must run before numpy or seps is imported.  With
    caching on, preparation imports seps first, so set-up is timed with
    the bytecode cache warm, as a user's repeated runs see it."""
    for var in envinfo.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SEPS_THREADS", None)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_worker(args: argparse.Namespace, work: Path, deadline: float,
               extra: list[str]) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--work", str(work), "--seed", str(args.seed), *extra]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise TimeoutError("no time left for the workload process")
    done = subprocess.run(command, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=remaining, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(lines[-1])


def setup_probe(args: argparse.Namespace, work: Path, deadline: float) -> float:
    return run_worker(args, work, deadline, ["--setup-only"])["setup_s"]


def end_to_end(report: dict, setups: list[float]) -> dict[str, float]:
    calls = report["call_s"]
    return {
        "throughput": report["items_per_call"] / statistics.median(calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seps" / "__init__.py").is_file():
        print(f"no library to measure: {SRC / 'seps'} is missing", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    pin_environment()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    trace_out = WORK / "traces" / f"{args.workload}-s{args.seed}.jsonl"
    try:
        workload.prepare(args.seed, work, WORK / "cache")
        probes = 0 if args.trace else SETUP_PROBES
        setups = [setup_probe(args, work, deadline) for _ in range(probes // 2)]
        report = run_worker(args, work, deadline,
                            ["--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--trace-out", str(trace_out)])
        setups += [setup_probe(args, work, deadline) for _ in range(probes - probes // 2)]
    except (RuntimeError, TimeoutError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not report["call_s"] or (args.trace and not report["traced_call_s"]):
        print("benchmark failed: no call succeeded\n" + "\n".join(report["failures"]),
              file=sys.stderr)
        return 1

    env = envinfo.record(ROOT, child_env())
    correct = not report["errors"]
    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER_UNITS[name]}
                   for name, value in report["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(report, setups).items()}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"call_s: {stats.describe(report['call_s'], 's')}")
    if args.trace:
        print(f"traced call_s: {stats.describe(report['traced_call_s'], 's')}")
        print(f"trace written to {trace_out.relative_to(ROOT)}")
    else:
        print(f"setup_s: {stats.describe(setups, 's')}")
        print(f"{workload.alias} = {metrics['throughput']['value']:.6g} "
              f"({workload.items}/s)")
    for line in report.get("notes", []):
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for message in report["failures"] + report["errors"]:
        print(f"FAILED: {message}")
    print("check: " + ("ok" if correct else "FAILED"))

    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    record = WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
