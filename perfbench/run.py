"""Census benchmark: wall time of the platocover CLI on fixed census workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice-dodec-vf7 --seed 1 --seconds 30 --trace 0

Every measurement comes from a fresh worker process (``worker.py``); workers
run one at a time, single-threaded, with BLAS threads pinned to 1.

--trace 0  times the import of ``platocover.cli`` in several fresh workers,
           then repeats the workload in fresh workers for as long as the
           next repetition is expected to end within --seconds (at least
           twice, and three times when two disagree), and reports the
           medians of the end-to-end metrics.
--trace 1  runs the harness self-test (a small traced case whose span tree
           must be consistent), then the workload once untraced and once
           traced, and reports the per-layer metrics of the traced run.

The inputs are fixed census cases and run in a fixed order, so the seed is
only recorded.  Every output is checked against its reference.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment and samples.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# every run measures at least MIN_REPS repetitions of the workload, however
# long one takes, and a third when the two differ by more than TIE_BREAK
MIN_REPS = 2
TIE_BREAK = 1.1
DEADLINE_S = 170  # a run must end within 180 s
# a CPU that was idle runs slower for its first second or two of load, so
# every run pins itself and its workers to one CPU and spins this long on it
# first, and every measurement starts from the same state
WARM_UP_S = 3

# workers write no bytecode, so every import of platocover compiles it the
# same way and nothing is written outside the checkout
WORKER_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONHASHSEED="0",
    PYTHONDONTWRITEBYTECODE="1",
)


class BenchmarkError(RuntimeError):
    pass


def worker(name: str, mode: str, deadline: float) -> dict:
    """Run one fresh worker process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), name, mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - perf_counter(), 1))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {name} {mode} ran past the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker {name} {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def warm_up() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    end = perf_counter() + WARM_UP_S
    while perf_counter() < end:
        pass
    return cpu


def measure(name: str, seconds: int, deadline: float):
    setups = [worker(name, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    runs = []
    start = perf_counter()
    while len(runs) < MIN_REPS or (perf_counter() - start + runs[-1]["wall_s"] <= seconds
                                   and perf_counter() + 1.5 * runs[-1]["wall_s"] < deadline):
        runs.append(worker(name, "run", deadline))
    walls = [r["wall_s"] for r in runs]
    # two repetitions that disagree get a third, so the median can drop the
    # one that a slow spell of the host caught
    if (len(runs) < 3 and max(walls) > TIE_BREAK * min(walls)
            and perf_counter() + 1.5 * max(walls) < deadline):
        runs.append(worker(name, "run", deadline))
        walls.append(runs[-1]["wall_s"])
    setups += [r["setup_s"] for r in runs]
    values = {
        "wall_s": statistics.median(walls),
        "coverings_per_s": statistics.median(r["coverings"] / r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(setups),
    }
    samples = {"wall_s": walls, "setup_s": setups}
    return runs, values, samples, []


def measure_traced(name: str, deadline: float):
    selftest = worker("selftest", "trace", deadline)
    untraced = worker(name, "run", deadline)
    traced = worker(name, "trace", deadline)
    values = dict(traced["layers"])
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    values["trace.traced_wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    errors = [f"selftest: {e}" for e in selftest["trace_errors"]] + traced["trace_errors"]
    samples = {"untraced_wall_s": [untraced["wall_s"]], "traced_wall_s": [traced["wall_s"]]}
    return [selftest, untraced, traced], values, samples, errors


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "platocover" / "cli.py").is_file():
        print(f"no platocover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    cpu = warm_up()
    try:
        if args.trace:
            runs, values, samples, trace_errors = measure_traced(args.workload, deadline)
        else:
            runs, values, samples, trace_errors = measure(args.workload, args.seconds, deadline)
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = sum(r["commands"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for line in failures + trace_errors:
        print(line, file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": runs[0]["python"],
            "numpy": runs[0]["numpy"],
            "nproc": os.cpu_count(),
            "cpu": cpu,
            "workers": 1,
            "blas_threads": WORKER_ENV["OPENBLAS_NUM_THREADS"],
        },
        "samples": samples,
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "trace_errors": trace_errors,
    }))
    print(json.dumps({
        "correct": not failures and not trace_errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
