"""Traced peak memory of each command of the seed-0 desk pipeline, and of
``predict`` on k copies of the desk corpus.

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
before the command started.

A second table traces ``predict`` with the ``full`` model of that run on
the ingested corpus repeated k = 1, 2, 4 and 8 times, each copy's poem ids
renamed, so a cost that grows with the input shows as a peak that grows
with k. A run takes about 90 s on two cores.

    python3 tools/peak_memory.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import artifact_hashes  # noqa: E402

SCALES = (1, 2, 4, 8)


def _traced_peak(run, *argv: str) -> int:
    """The traced peak, in bytes, of the command ``run(*argv)``."""
    tracemalloc.start()
    try:
        run(*argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peaks(root: Path, seed: int = 0) -> list[tuple[str, str, int]]:
    """``(command, --out, traced peak in bytes)`` for each command of the
    desk pipeline on corpus seed ``seed``, run in ``root``."""
    rows = []
    run = artifact_hashes._run

    def traced(*argv: str) -> None:
        rows.append((argv[0], argv[argv.index("--out") + 1], _traced_peak(run, *argv)))

    artifact_hashes._run = traced
    try:
        artifact_hashes.run_in(root, seed)
    finally:
        artifact_hashes._run = run
    return rows


def repeated(corpus: Path, k: int, path: Path) -> int:
    """Write ``corpus`` ``k`` times to ``path``, copy ``j`` with ``.j`` after
    each poem id; returns the verse count written."""
    poems = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(k):
            for poem in poems:
                fh.write(json.dumps({**poem, "poem_id": f"{poem['poem_id']}.{j}"},
                                    ensure_ascii=False) + "\n")
    return k * sum(len(poem["verses"]) for poem in poems)


def scaled_peaks(root: Path, scales=SCALES) -> list[tuple[int, int, int]]:
    """``(k, verses, traced peak in bytes)`` of ``predict`` with the ``full``
    model of the desk run in ``root`` on its ingested corpus repeated ``k``
    times, for each ``k`` of ``scales``."""
    rows = []
    for k in scales:
        path = root / f"corpus_x{k}.jsonl"
        n_verses = repeated(root / "corpus" / "corpus.jsonl", k, path)
        peak = _traced_peak(artifact_hashes._run, "predict", "--input", str(path),
                            "--embeddings", str(root / "emb"), "--checkpoint", str(root / "full"),
                            "--out", str(root / f"predict_x{k}"))
        rows.append((k, n_verses, peak))
    return rows


def cli() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    with tempfile.TemporaryDirectory(prefix="verseid-peaks-") as tmp:
        rows = peaks(Path(tmp))
        scaled = scaled_peaks(Path(tmp))
    print("| command | --out | traced peak (MB) |")
    print("| --- | --- | --- |")
    for command, out, peak in rows:
        print(f"| `{command}` | {out} | {peak / 1e6:.2f} |")
    print()
    print("| `predict` input | verses | traced peak (MB) |")
    print("| --- | --- | --- |")
    for k, n_verses, peak in scaled:
        print(f"| corpus x{k} | {n_verses:,} | {peak / 1e6:.2f} |")


if __name__ == "__main__":
    cli()
