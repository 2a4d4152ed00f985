"""One fresh interpreter of the CLI benchmark.

    python3 perfbench/child.py SPEC.json

SPEC holds "ops" (a list of argv lists for `eppspulley.cli.main`), "trace"
and "result" (the path this process writes its JSON result to).  The
process times `import eppspulley.cli`, runs the ops in order as one
closed loop with a single client, and records each call's wall time and
exit code, its own peak RSS and the environment.  With no ops it only
measures the import.
"""

import sys
import time


def run_op(main, argv):
    """Exit code of one CLI call; exceptions count as failures, not crashes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 -- the loop must go on to report it
        print(f"op {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return -1


def main() -> int:
    # stdlib modules the CLI also needs are imported after the timed import
    start = time.perf_counter()
    import eppspulley.cli as cli

    setup_s = time.perf_counter() - start
    import functools
    import json
    import os
    import platform
    import resource

    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup_s": setup_s, "ops": []}
    tracer = None
    if spec["trace"]:
        from tracing import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    for i, argv in enumerate(spec["ops"]):
        t0 = time.perf_counter()
        if tracer is None:
            code = run_op(cli.main, argv)
        else:
            tracer.op = i
            code = run_op(functools.partial(tracer.call, ROOT_SPAN, cli.main), argv)
        result["ops"].append({"wall_s": time.perf_counter() - t0, "exit": code})
    if spec["ops"]:
        import numpy
        import scipy

        from eppspulley import backend_name

        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = {
            "backend": backend_name(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        }
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        result["missing_hooks"] = tracer.missing
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
