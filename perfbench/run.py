"""Benchmark entry point for hamrom.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout.  Each workload runs in a fresh
process (`workloads.py`) with the package taken from `src/` and the BLAS
thread pools pinned to one thread, so that every run, on every commit,
uses the same thread setting.  Set-up is repeated in separate processes
and its median reported as `setup_s`.  Timings are in nominal seconds,
scaled to a fixed host speed by kernels sampled during the run (see
`Stopwatch` in workloads.py).

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (names and units from
BENCHMARK.json).  Earlier lines give the run environment, every check
and the values reported without a check.  Exit code 2 means the
benchmark could not run (no source tree, a crashed or hung workload).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups per run; setup_s (and the sweep's fom_s and offline_s, which run in
# its set-up) is their median.
SETUPS = 3
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def git_sha(root):
    """Commit of the checkout, read from .git without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(argv, env, deadline):
    """Run workloads.py to completion; returns its JSON result, with
    `setup_s` measured from process start to the end of its set-up and
    scaled by the host-speed kernel samples of that set-up."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload {' '.join(argv)} exceeded the time limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    # In nominal seconds, like every timing (workloads.CAL_NOMINAL_S).
    result["setup_s"] = (result["setup_end"] - start) * result["setup_scale"]
    return result


def measure(args, spec, work):
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for i in range(SETUPS - 1):
            setups.append(run_workload(
                [*common, "--setup-only", "--work", str(work / f"setup-{i}")], env, deadline
            ))
    trace_out = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    main = run_workload(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work", str(work / "run"), "--trace-out", str(trace_out)],
        env, deadline,
    )
    setups.append(main)

    metrics = main["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        for stage in main["stages"]:
            metrics[stage] = statistics.median(s["stages"][stage] for s in setups)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {m['name'] for m in declared})}"
        )
    attempted = sum(s["attempted"] for s in setups)
    failed = sum(s["failed"] for s in setups)
    print("env " + json.dumps(dict(main["env"], git_sha=git_sha(ROOT),
                                   setups=len(setups), passes=main["passes"])))
    for line in main["checks"]:
        print(line)
    print("info " + json.dumps(main["info"]))
    if args.trace:
        print(f"spans {trace_out.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="hamrom benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hamrom" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a hamrom source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, spec, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
