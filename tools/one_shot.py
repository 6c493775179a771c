"""Wall time, CPU time, minor page faults and max RSS of one-shot
``verseid predict`` processes on the desk corpus repeated 1 and 8 times.

This runs the desk pipeline of ``artifact_hashes.py`` (``run_in``) in a
temporary directory and writes its ingested corpus k times, each copy's poem
ids renamed (``peak_memory.repeated``). It then starts a new ``verseid
predict`` process with the ``full`` model of that run on each input, three
times. Each figure is the median of the three: the wall time from start to
exit, and the CPU time (user and system), minor page faults and max RSS of
the process as the kernel reports them for a waited-for child (``os.wait4``;
``RUSAGE_CHILDREN`` sums the same counts over every child). CPU time above
wall time means more than one thread was busy, such as BLAS threads waiting
for work. A one-shot process pays interpreter
start-up, imports and artifact loading, and its allocator starts from
nothing, so an in-process timing cannot show what this shows.

``--chunk-batches N`` sets ``verseid.cli.PREDICT_CHUNK_BATCHES`` in each
process, to compare chunk sizes without editing the source. Allocator
settings such as ``MALLOC_MMAP_THRESHOLD_`` and ``OPENBLAS_NUM_THREADS``
pass through from the environment. A run takes about 70 s on two cores.

    python3 tools/one_shot.py --chunk-batches 16
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import artifact_hashes  # noqa: E402
import peak_memory  # noqa: E402

import verseid.cli  # noqa: E402  (importable once artifact_hashes has set the path)

SCALES = (1, 8)
RUNS = 3
SRC = Path(__file__).resolve().parents[1] / "src"
# A process that sets the chunk size, then runs the command line after it.
CHILD = ("import sys, verseid.cli as cli; cli.PREDICT_CHUNK_BATCHES = int(sys.argv[1]); "
         "sys.exit(cli.main(sys.argv[2:]))")


def one_shot(argv: list[str], chunk_batches: int) -> tuple[float, float, int, int]:
    """Wall seconds, CPU seconds, minor page faults and max RSS in bytes of
    one process running ``verseid argv``."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(chunk_batches), *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode:
        raise SystemExit(f"verseid {' '.join(argv)} exited {proc.returncode}")
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_minflt, usage.ru_maxrss * 1024  # ru_maxrss is in KiB on Linux


def measure(root: Path, scales=SCALES, runs: int = RUNS,
            chunk_batches: int = verseid.cli.PREDICT_CHUNK_BATCHES
            ) -> list[tuple[int, int, float, float, float, float]]:
    """``(k, verses, wall s, CPU s, minor faults, max RSS bytes)``, each a median of
    ``runs`` one-shot ``predict`` processes with the ``full`` model of the
    desk run in ``root`` on its ingested corpus repeated ``k`` times, for each
    ``k`` of ``scales``."""
    rows = []
    for k in scales:
        path = root / f"corpus_x{k}.jsonl"
        n_verses = peak_memory.repeated(root / "corpus" / "corpus.jsonl", k, path)
        out = root / f"one_shot_x{k}"
        samples = []
        for _ in range(runs):
            shutil.rmtree(out, ignore_errors=True)
            samples.append(one_shot(["predict", "--input", str(path), "--embeddings",
                                     str(root / "emb"), "--checkpoint", str(root / "full"),
                                     "--out", str(out)], chunk_batches))
        rows.append((k, n_verses, *(statistics.median(column) for column in zip(*samples))))
    return rows


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chunk-batches", type=verseid.cli._positive_int,
                        default=verseid.cli.PREDICT_CHUNK_BATCHES,
                        help="PREDICT_CHUNK_BATCHES in each process (default: the source's, "
                             f"{verseid.cli.PREDICT_CHUNK_BATCHES})")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="verseid-one-shot-") as tmp:
        artifact_hashes.run_in(Path(tmp))
        rows = measure(Path(tmp), SCALES, RUNS, args.chunk_batches)
    print(f"One-shot `predict`, chunks of {args.chunk_batches} batches, medians of {RUNS} processes")
    print()
    print("| `predict` input | verses | wall (s) | CPU (s) | minor faults | max RSS (MB) |")
    print("| --- | --- | --- | --- | --- | --- |")
    for k, n_verses, wall, cpu, faults, rss in rows:
        print(f"| corpus x{k} | {n_verses:,} | {wall:.2f} | {cpu:.2f} | {faults:,.0f} "
              f"| {rss / 1e6:.1f} |")


if __name__ == "__main__":
    cli()
