"""Benchmark for verseid: one workload per run, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 5 --trace 0

Generates the workload's inputs from ``--seed``, runs verseid from the
checkout's ``src`` directory in this process, checks its outputs and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are per-layer
numbers from spans recorded around the calls into each verseid module, and
the spans are written under ``.perfbench_work/``. See perfbench/README.md.

Exits 2 without a result when the checkout holds no verseid sources, and 1
after printing the result when a command or a check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "verses_per_s": "verses/s",
    "latency_p50_ms": "ms",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
}


def blas_info() -> tuple[str, str]:
    """BLAS library and its thread count, as far as this process can tell."""
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, str(fn())
    return name, "unknown"


def metadata(args) -> dict:
    import numpy as np

    blas, threads = blas_info()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-desk", "predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "verseid" / "__init__.py").is_file():
        print(f"perfbench: no verseid sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import verseid

    if Path(verseid.__file__).resolve().parent != SRC / "verseid":
        print(f"perfbench: imported verseid from {verseid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracing import LAYER_METRICS, Tracer
    from verseid.normalize import N_RESERVED
    from workloads import WORKLOADS, CommandFailed, Session

    info = metadata(args)
    print("perfbench: " + json.dumps(info, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    tracer = Tracer() if args.trace else None
    session = Session(work, args.seed, args.seconds, tracer)
    values: dict[str, float] = {}
    try:
        if tracer:
            tracer.install()
        values = WORKLOADS[args.workload](session)
    except CommandFailed as exc:
        session.problems.append(str(exc))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if tracer and values:
        values = tracer.layer_metrics(N_RESERVED)
        for problem in tracer.consistency_problems():
            session.check(False, problem)
        prefix = WORK / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(prefix, {**info, "metrics": values})
        for name, reason in sorted(tracer.missing.items()):
            print(f"perfbench: missing {name} ({reason})")
        print(f"perfbench: spans and per-phase table in {prefix}.npz and {prefix}.json")
    units = LAYER_METRICS if tracer else END_TO_END
    for problem in session.problems:
        print(f"perfbench: FAILED {problem}")
    correct = session.failed == 0 and bool(values)
    result = {
        "correct": correct,
        "attempted": max(session.attempted, 1),
        "failed": session.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()} if values else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
