"""Meter-ablation margin table: test verse accuracy with and without meter.

For each corpus seed this runs the desk pipeline through the command line,
with default flags everywhere else:

    make-synthetic --seed s, ingest, split --seed 0, train-embeddings,
    train (all features) and train --features text,semantic,stylometric,form,
    then evaluate each model on the test split.

It prints one markdown row per seed: full accuracy, no-meter accuracy and the
drop between them (criterion 6 asks for a drop of at least 0.03 at seed 0).
A change to the training numerics quotes this table for the code before and
after it. Each seed takes one to two minutes on two cores.

    python3 tools/margins.py --seeds 0-4
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from verseid.cli import main as verseid  # noqa: E402

NO_METER = "text,semantic,stylometric,form"


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = verseid(list(argv))
    if code != 0:
        raise SystemExit(f"verseid {' '.join(argv)} exited {code}")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def margins(seed: int, root: Path) -> tuple[float, float]:
    """Test verse accuracy (full, no meter) for one corpus seed."""
    raw, corpus, split, emb = (str(root / n) for n in ("raw.jsonl", "corpus", "split", "emb"))
    _run("make-synthetic", "--out", raw, "--seed", str(seed))
    _run("ingest", "--corpus", raw, "--out", corpus)
    _run("split", "--corpus", corpus, "--seed", "0", "--out", split)
    _run("train-embeddings", "--corpus", corpus, "--split", split, "--out", emb)
    accs = []
    for name, extra in (("full", ()), ("nometer", ("--features", NO_METER))):
        model, ev = str(root / name), str(root / f"eval_{name}")
        common = ("--corpus", corpus, "--split", split, "--embeddings", emb)
        _run("train", *common, "--out", model, *extra)
        _run("evaluate", *common, "--checkpoint", model, "--out", ev)
        accs.append(json.loads((Path(ev) / "eval_verse.json").read_text())["accuracy"])
    return accs[0], accs[1]


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
