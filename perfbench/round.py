"""One round of a workload in a fresh interpreter.

Set-up (imports of numpy, scipy and ``tthjb`` plus writing the inputs) is
timed from the first line of this file; then the ``tthjb`` command runs
in-process through ``tthjb.cli.main``, optionally traced, and its outputs
are checked.  The result goes to a JSON file named by ``--result``.

    python3 perfbench/round.py --root CHECKOUT --workload NAME --seed N \
        --dir ROUND_DIR --result FILE [--trace] [--setup-only] [--spans FILE]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import tthjb.cli
    if not os.path.abspath(tthjb.__file__).startswith(src + os.sep):
        raise SystemExit(f"tthjb imported from {tthjb.__file__}, not from {src}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.dir, exist_ok=True)
    os.chdir(args.dir)
    argv = workload.prepare(args.dir, args.seed)
    result = {"setup_s": time.perf_counter() - T0}
    if not args.setup_only:
        # program source, command line and input files: equal keys must
        # give byte-identical outputs
        program = workloads.digest(workloads.files_under(src), src)
        result["input_key"] = workloads.digest(workloads.files_under(args.dir), args.dir,
                                               (program + json.dumps(argv)).encode())
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        started = time.perf_counter()
        try:
            code = tthjb.cli.main(argv)
        except Exception as exc:  # a crash of the program is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        result["command_s"] = time.perf_counter() - started
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["exit_code"] = code
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            if args.spans:
                tracer.write_spans(args.spans)
        if code == 0:
            result["checks"] = workload.check(args.dir)
            result["digest"] = workloads.digest(workload.outputs(args.dir), args.dir)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
