"""Artifact hashes of the seed-0 desk pipeline, for byte-identity checks.

This runs the desk pipeline through the command line inside DIR, with
default flags everywhere else:

    make-synthetic --seed 0, ingest, split --seed 0, train-embeddings,
    train (all features) and train --features text,semantic,stylometric,form,
    evaluate each model on the test split, sweep-thresholds and predict
    (on the ingested corpus) with the full model, then predict with the full
    model on ``edge.jsonl``, a few poems this script writes.

The synthetic corpus has no punctuation, markup, diacritics, tatweel, ZWNJ or
verse longer than the encoder's ``max_len``, and every verse has tokens, so
``edge.jsonl`` holds all of these, words the vocabulary lacks, and verses that
normalize to nothing.

It then prints ``sha256  path`` for every file under DIR, sorted by path.
Every path a command is given is relative to DIR, so the recorded
``config.json`` files compare across checkouts: run it on two checkouts and
diff the output to show that a refactor left every artifact byte-identical.
The bytes also depend on numpy's version, on the BLAS kernel it runs and,
for products larger than the desk's, on the BLAS thread count, so one line on
stderr names all three, and a second, ``listing sha256 <hex>``, gives the
SHA-256 of the listing; stdout holds only the listing. This imports verseid
before numpy, so it runs with the command line's one BLAS thread unless
``OPENBLAS_NUM_THREADS`` says otherwise. A full run takes about 45 s on two
cores.

    python3 tools/artifact_hashes.py /tmp/hashes-new > new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import warnings
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from verseid.cli import main as verseid  # noqa: E402  (before numpy: its BLAS default)

import numpy as np  # noqa: E402

NO_METER = "text,semantic,stylometric,form"


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = verseid(list(argv))
    if code != 0:
        raise SystemExit(f"verseid {' '.join(argv)} exited {code}")


def desk_pipeline(seed: int = 0) -> None:
    """Every desk stage on corpus seed ``seed``, writing into the current directory."""
    _run("make-synthetic", "--out", "raw.jsonl", "--seed", str(seed))
    _run("ingest", "--corpus", "raw.jsonl", "--out", "corpus")
    _run("split", "--corpus", "corpus", "--seed", "0", "--out", "split")
    common = ("--corpus", "corpus", "--split", "split", "--embeddings", "emb")
    _run("train-embeddings", *common[:4], "--out", "emb")
    for name, extra in (("full", ()), ("nometer", ("--features", NO_METER))):
        _run("train", *common, "--out", name, *extra)
        _run("evaluate", *common, "--checkpoint", name, "--out", f"eval_{name}")
    _run("sweep-thresholds", *common, "--checkpoint", "full", "--out", "sweep")
    _run("predict", "--input", "corpus/corpus.jsonl", "--embeddings", "emb",
         "--checkpoint", "full", "--out", "predict")
    Path("edge.jsonl").write_text(edge_poems(), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the verses with no tokens are reported
        _run("predict", "--input", "edge.jsonl", "--embeddings", "emb",
             "--checkpoint", "full", "--out", "predict_edge")


def edge_poems() -> str:
    """Predict input in the corpus's words that reaches the branches its
    verses do not, one JSON line per poem."""
    first = json.loads(Path("corpus/corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
    (a, b), (c, d) = first["verses"][:2]
    poems = [
        ("edge-marks", [[f"<b>{a}</b>، {b}!", f"«{c}» ؛ {d}؟"],
                        [f"{a}٫ {a} - {a}…", f"({b}) <i class='x'>{d}</i>."]]),
        ("edge-letters", [[a.replace("ی", "ي").replace("ک", "ك"), f"{b}ـ\u064e{c}"],
                          [f"{a}\u200c{b}", f"{c} \u200c {d}"]]),
        ("edge-unknown", [["qwerty ناشناخته", f"{a} zz zz zz"], [f"{b} xq", "xq xq"]]),
        ("edge-empty", [["<br/>", "ـ \u064e"], [" ", ""], [f"{a} {b}", "<p></p>"]]),
        ("edge-only-markup", [["<hr/>", "<b></b>"]]),
        ("edge-long", [[" ".join([a, b] * 40), " ".join([c, "qq", d] * 10)], [a, ""]]),
    ]
    return "".join(json.dumps({"poem_id": pid, "verses": verses}, ensure_ascii=False) + "\n"
                   for pid, verses in poems)


def blas_core() -> tuple[str, str]:
    """The OpenBLAS core (kernel) that numpy's BLAS runs, such as
    ``SkylakeX``, and the number of threads it runs with, such as ``1``;
    both read ``unknown`` where its library does not name them."""
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            handle = ctypes.CDLL(str(lib))
            corename = handle.scipy_openblas_get_corename64_
            threads = handle.scipy_openblas_get_num_threads64_
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            return corename().decode(), str(threads())
    return "unknown", "unknown"


def describe_numpy() -> str:
    """numpy's version, its OpenBLAS core and thread count, for stderr."""
    core, threads = blas_core()
    return f"numpy {np.__version__}, OpenBLAS core {core}, BLAS threads {threads}"


def hashes(root: Path) -> list[str]:
    """``sha256  path`` lines for every file under ``root``, sorted by path."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in files]


def run_in(root: Path, seed: int = 0) -> None:
    """Run :func:`desk_pipeline` inside ``root``, then return to this directory."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        desk_pipeline(seed)
    finally:
        os.chdir(cwd)


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="an empty or new directory to run in")
    args = parser.parse_args()
    root = args.dir.resolve()
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        raise SystemExit(f"{root} is not empty")
    print(describe_numpy(), file=sys.stderr)
    run_in(root)
    listing = "\n".join(hashes(root)) + "\n"
    sys.stdout.write(listing)
    print(f"listing sha256 {hashlib.sha256(listing.encode()).hexdigest()}", file=sys.stderr)


if __name__ == "__main__":
    cli()
