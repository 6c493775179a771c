"""Traced peak memory of each command of the seed-0 desk pipeline.

This runs the desk pipeline of ``artifact_hashes.py`` (``run_in``) in a
temporary directory with that module's ``_run`` wrapped, so the stages are
the ones that tool hashes. Each command is traced alone: ``tracemalloc``
starts before the command and stops after it, and the table gives the
highest memory the command held at once, in MB (10^6 bytes), counted from
its start.

It prints one markdown row per command, named by the command and its
``--out``. A count moves by a few kB at most from run to run (up to 4 kB,
and 14 kB for ``make-synthetic``, the first command, which also pays the
lazy set-up of what it imports), so the table repeats to the 0.01 MB it
prints, but for that first row. The counts do not see what ``tracemalloc``
does not trace: OpenBLAS's own buffers, memory the allocator holds in
reserve, the interpreter itself and every module and cache that was loaded
before the command started. A run takes about 50 s on two cores.

    python3 tools/peak_memory.py
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import artifact_hashes  # noqa: E402


def peaks(root: Path, seed: int = 0) -> list[tuple[str, str, int]]:
    """``(command, --out, traced peak in bytes)`` for each command of the
    desk pipeline on corpus seed ``seed``, run in ``root``."""
    rows = []
    run = artifact_hashes._run

    def traced(*argv: str) -> None:
        tracemalloc.start()
        try:
            run(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows.append((argv[0], argv[argv.index("--out") + 1], peak))

    artifact_hashes._run = traced
    try:
        artifact_hashes.run_in(root, seed)
    finally:
        artifact_hashes._run = run
    return rows


def cli() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    with tempfile.TemporaryDirectory(prefix="verseid-peaks-") as tmp:
        rows = peaks(Path(tmp))
    print("| command | --out | traced peak (MB) |")
    print("| --- | --- | --- |")
    for command, out, peak in rows:
        print(f"| `{command}` | {out} | {peak / 1e6:.2f} |")


if __name__ == "__main__":
    cli()
