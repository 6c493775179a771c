"""Meter-ablation margin table: test verse accuracy with and without meter.

For each corpus seed this runs the desk pipeline of ``artifact_hashes.py``
(``run_in``) in a temporary directory and reads the test verse accuracy of
its two models, all features and ``--features text,semantic,stylometric,form``,
from ``eval_full`` and ``eval_nometer``: the table comes from the run whose
artifacts that tool hashes.

It prints one markdown row per seed: full accuracy, no-meter accuracy and the
drop between them (criterion 6 asks for a drop of at least 0.03 at seed 0).
A change to the training numerics quotes this table for the code before and
after it. Each seed takes about 25 s on two cores. numpy's version, the
OpenBLAS kernel in use and its thread count go to stderr, as in
``artifact_hashes.py``, which this imports before numpy loads, so the runs
here use the command line's BLAS thread default too.

The bytes, and so the table, depend on the OpenBLAS kernel, which OpenBLAS
picks once, when it loads. ``--coretypes A,B`` runs this tool again in a new
process per kernel, with ``OPENBLAS_CORETYPE`` set to it, and prints one
table per kernel under its name, so a change can quote the spread across
kernels beside its own move.

    python3 tools/margins.py --seeds 0-4
    python3 tools/margins.py --seeds 0-1 --coretypes SkylakeX,Haswell,Prescott
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_hashes import describe_numpy, run_in  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def margins(seed: int, root: Path) -> tuple[float, float]:
    """Test verse accuracy (full, no meter) for one corpus seed, run in ``root``."""
    run_in(root, seed)
    full, nometer = (json.loads((root / f"eval_{name}" / "eval_verse.json").read_text())["accuracy"]
                     for name in ("full", "nometer"))
    return full, nometer


def in_kernel(core: str, seeds: list[int]) -> str:
    """The table of this tool for ``seeds``, from a new process whose
    OpenBLAS runs kernel ``core``; its stderr passes through."""
    return subprocess.run(
        [sys.executable, __file__, "--seeds", f"{seeds[0]}-{seeds[-1]}"],
        env={**os.environ, "OPENBLAS_CORETYPE": core}, stdout=subprocess.PIPE, text=True,
        check=True).stdout


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default="0-4", help="e.g. 0-4 or 3")
    parser.add_argument("--coretypes", type=lambda text: text.split(","),
                        help="OpenBLAS kernels, e.g. SkylakeX,Haswell,Prescott: one table each")
    args = parser.parse_args()
    if args.coretypes:
        for core in args.coretypes:
            print(f"### OPENBLAS_CORETYPE={core}\n\n{in_kernel(core, args.seeds)}", flush=True)
        return
    print(describe_numpy(), file=sys.stderr)
    print("| corpus seed | full | no meter | drop |")
    print("| --- | --- | --- | --- |")
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(prefix="verseid-margins-") as tmp:
            full, nometer = margins(seed, Path(tmp))
        print(f"| {seed} | {full:.4f} | {nometer:.4f} | {full - nometer:.4f} |", flush=True)


if __name__ == "__main__":
    cli()
