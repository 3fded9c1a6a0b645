"""Child-process entry of the benchmark; run.py starts it, one process per step.

    python3 launch.py setup <config.json> [<trace-dir>]
        Time import, load_config and dataset generation from the first line
        of this file; print {"setup_s": ..., "stamp": {...}} as JSON.
    python3 launch.py cli <trace-dir> <runs|layers> <fairpriv arguments...>
        Run ``fairpriv.cli.main`` with span wrappers installed: ``runs``
        times each pipeline.run_single call, ``layers`` every layer
        boundary as well. Exits with the CLI's exit code.

PYTHONPATH must reach the fairpriv sources.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

TRACE_ENV = "PERFBENCH_TRACE"  # "<trace-dir>|<runs|layers>", inherited by workers

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _start_tracing(spec: str):
    import tracing

    trace_dir, level = spec.split("|")
    tracer = tracing.Tracer(trace_dir)
    tracing.install(tracer, layers=(level == "layers"))
    return tracer


if __name__ == "__mp_main__" and os.environ.get(TRACE_ENV):
    # A pool worker started by spawn or forkserver imports this file afresh
    # instead of inheriting the wrappers; install them again and write the
    # spans when multiprocessing shuts the worker down.
    import multiprocessing.util

    _worker_tracer = _start_tracing(os.environ[TRACE_ENV])
    multiprocessing.util.Finalize(None, _worker_tracer.flush, exitpriority=100)


def blas_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown", "config": None}


def setup(config_path: str, trace_dir: str | None) -> int:
    import fairpriv.cli as cli

    tracer = _start_tracing(f"{trace_dir}|layers") if trace_dir else None
    cfg = cli.load_config(config_path)
    cli.pipeline.load_dataset(cfg)
    elapsed = time.perf_counter() - T0
    if tracer:
        tracer.flush()
    import numpy

    stamp = {"python": platform.python_version(), "numpy": numpy.__version__,
             "blas": blas_info()}
    print(json.dumps({"setup_s": elapsed, "stamp": stamp}))
    return 0


def cli_main(trace_dir: str, level: str, argv: list) -> int:
    spec = f"{trace_dir}|{level}"
    os.environ[TRACE_ENV] = spec
    tracer = _start_tracing(spec)
    import fairpriv.cli as cli

    try:
        return cli.main(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) in (3, 4):
        sys.exit(setup(sys.argv[2], sys.argv[3] if len(sys.argv) == 4 else None))
    if mode == "cli" and len(sys.argv) > 4 and sys.argv[3] in ("runs", "layers"):
        sys.exit(cli_main(sys.argv[2], sys.argv[3], sys.argv[4:]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
