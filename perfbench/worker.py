"""One fresh process of the benchmark: import platocover, run a workload.

Usage: python3 perfbench/worker.py WORKLOAD {setup,run,trace}

``setup`` only times the import of ``platocover.cli``.  ``run`` also runs
the workload's commands in-process through ``platocover.cli.main`` with
stdout captured and checks each output against its reference.  ``trace``
does the same with the layer wrappers of ``spans.py`` installed.  The result
is one JSON object on stdout.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import workloads

SRC = workloads.ROOT / "src"


def run_command(cli, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
    if code != 0:
        sys.stderr.write(f"{' '.join(argv)} exited {code}:\n{err.getvalue()}")
    return code, out.getvalue()


def main(name: str, mode: str) -> dict:
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import platocover.cli as cli
    setup_s = perf_counter() - t0
    import numpy

    if not cli.__file__.startswith(str(SRC)):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's {SRC}")
    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if mode == "setup":
        return result

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        cli.main = tracer.stage("command", cli.main)

    outputs = []
    t0 = perf_counter()
    for argv, check in workloads.WORKLOADS[name]:
        outputs.append((argv, check, *run_command(cli, argv)))
    wall_s = perf_counter() - t0

    failures = []
    coverings = 0
    euler_coverings = 0
    for argv, check, code, out in outputs:
        count, error = check(out)
        coverings += count
        if "--verify-euler" in argv:
            euler_coverings += count
        if code != 0 or error:
            failures.append(f"{' '.join(argv)}: exit {code}, {error or 'output ok'}")
    result.update(
        wall_s=wall_s,
        commands=len(outputs),
        failures=failures,
        coverings=coverings,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        verified = layers["builder.verified"]
        layers["builder.skipped"] = euler_coverings - verified
        layers["builder.verified_ratio"] = verified / euler_coverings if euler_coverings else 0.0
        result.update(layers=layers, trace_errors=spans.validate(tracer))
    return result


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in workloads.WORKLOADS \
            or sys.argv[2] not in ("setup", "run", "trace"):
        sys.exit(__doc__)
    print(json.dumps(main(sys.argv[1], sys.argv[2])))
