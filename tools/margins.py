"""Meter-ablation margin table: test verse accuracy with and without meter.

For each corpus seed this runs the desk pipeline of ``artifact_hashes.py``
(``run_in``) in a temporary directory and reads the test verse accuracy of
its two models, all features and ``--features text,semantic,stylometric,form``,
from ``eval_full`` and ``eval_nometer``: the table comes from the run whose
artifacts that tool hashes.

It prints one markdown row per seed: full accuracy, no-meter accuracy and the
drop between them (criterion 6 asks for a drop of at least 0.03 at seed 0).
A change to the training numerics quotes this table for the code before and
after it. Each seed takes about 25 s on two cores.

    python3 tools/margins.py --seeds 0-4
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_hashes import run_in  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def margins(seed: int, root: Path) -> tuple[float, float]:
    """Test verse accuracy (full, no meter) for one corpus seed, run in ``root``."""
    run_in(root, seed)
    full, nometer = (json.loads((root / f"eval_{name}" / "eval_verse.json").read_text())["accuracy"]
                     for name in ("full", "nometer"))
    return full, nometer


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default="0-4", help="e.g. 0-4 or 3")
    args = parser.parse_args()
    print("| corpus seed | full | no meter | drop |")
    print("| --- | --- | --- | --- |")
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(prefix="verseid-margins-") as tmp:
            full, nometer = margins(seed, Path(tmp))
        print(f"| {seed} | {full:.4f} | {nometer:.4f} | {full - nometer:.4f} |", flush=True)


if __name__ == "__main__":
    cli()
