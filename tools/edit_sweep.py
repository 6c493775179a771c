"""Checkpoint edit sweep: what a one-value metadata edit does to ``predict``.

For the ``full`` checkpoint of a desk run directory (the DIR of
``artifact_hashes.py``), this changes one metadata value at a time to another
valid value and runs ``predict`` on the first 40 poems of the run's ingested
corpus. A boolean flips, a number doubles (zero becomes one),
``class_weighting`` takes its other value, any other string is reversed, and
the ids of a poet, form or meter index swap between neighbours in id order.
It does so for two files built from that checkpoint:

- format 2, sealed: the edit keeps the checkpoint's ``sha256``;
- format 2, unsealed: ``sha256`` removed.

It prints one markdown row per file: how many edits exit 3, how many exit 0
with both CSVs as the unedited checkpoint writes them, how many exit 0 with
either CSV changed, and how many end any other way, then names the edits of
the last two kinds. It is evidence, not a gate: it exits 0 whatever it finds.
A run takes a few seconds on two cores.

    python3 tools/artifact_hashes.py /tmp/desk > /dev/null
    python3 tools/edit_sweep.py /tmp/desk
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import shutil
import struct
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from verseid.cli import main as verseid  # noqa: E402

ID_MAPS = ("poet_index", "form_index", "class_of_meter")
OTHER_STRING = {"inverse_frequency": "none", "none": "inverse_frequency"}
OUTPUTS = ("verse_predictions.csv", "poem_predictions.csv")
POEMS = 40
KINDS = ("exit 3", "exit 0, same outputs", "exit 0, outputs changed", "other")


def _other(value):
    """Another valid value of the same type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 if value else type(value)(1)
    return OTHER_STRING.get(value, value[::-1])


def _changes(value, path=()):
    """``(name, path, new value)`` for each single change inside ``value``."""
    if isinstance(value, dict) and path and path[-1] in ID_MAPS:
        order = sorted(value, key=value.__getitem__)
        for a, b in zip(order, order[1:]):
            yield f"swap {a}, {b}", path, {**value, a: value[b], b: value[a]}
    elif isinstance(value, (dict, list)):
        for key in sorted(value) if isinstance(value, dict) else range(len(value)):
            yield from _changes(value[key], (*path, key))
    elif value is not None:
        new = _other(value)
        yield ("" if isinstance(value, str) else f"{value!r} -> {new!r}"), path, new


def edits(meta: dict) -> list[tuple[str, dict]]:
    """Every one-value edit of ``meta`` as ``(name, edited copy)``; the name
    is the dotted path of the value, with the change where it is short."""
    out = []
    for what, path, new in _changes(meta):
        edited = copy.deepcopy(meta)
        target = edited
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = new
        name = ".".join(map(str, path))
        out.append((f"{name} ({what})" if what else name, edited))
    return out


def read_checkpoint(path: Path) -> tuple[int, dict, bytes]:
    """Header version, metadata and parameter bytes of a checkpoint."""
    blob = path.read_bytes()
    version, meta_len = struct.unpack_from("<II", blob, 4)
    return version, json.loads(blob[12 : 12 + meta_len]), blob[12 + meta_len :]


def write_checkpoint(path: Path, version: int, meta: dict, body: bytes) -> None:
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    path.write_bytes(b"VCKP" + struct.pack("<II", version, len(blob)) + blob + body)


def predict(poems: Path, emb: Path, model: Path, out: Path) -> tuple[int, dict]:
    """Exit code of ``verseid predict`` and the CSVs it wrote."""
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = verseid(["predict", "--input", str(poems), "--embeddings", str(emb),
                            "--checkpoint", str(model), "--out", str(out)])
        except Exception:  # counted as the exit 1 of a process that raised it
            code = 1
    return code, {name: (out / name).read_bytes() for name in OUTPUTS if (out / name).exists()}


def sweep(run: Path, work: Path) -> list[tuple[str, dict, list]]:
    """``(file, count by kind, names of the exit-0-changed and other edits)``
    for each of the two files."""
    emb, ckpt = run / "emb", run / "full" / "checkpoint.bin"
    version, meta, body = read_checkpoint(ckpt)
    if version != 2:
        raise SystemExit(f"{ckpt} is format {version}; the sweep starts from a format-2 file")
    seal = meta.pop("sha256")
    poems = work / "poems.jsonl"
    lines = (run / "corpus" / "corpus.jsonl").read_text(encoding="utf-8").splitlines(True)
    poems.write_text("".join(lines[:POEMS]), encoding="utf-8")
    code, clean = predict(poems, emb, ckpt.parent, work / "out")
    if code != 0:
        raise SystemExit(f"predict with the unedited {ckpt} exited {code}")
    files = [("format 2, sealed", seal), ("format 2, unsealed", None)]
    (work / "model").mkdir()
    rows = []
    for label, sealed in files:
        counts, named = dict.fromkeys(KINDS, 0), []
        for name, edited in edits(meta):
            if sealed:
                edited["sha256"] = sealed
            write_checkpoint(work / "model" / "checkpoint.bin", version, edited, body)
            code, outputs = predict(poems, emb, work / "model", work / "out")
            kind = ("exit 3" if code == 3 else "other" if code != 0 else
                    "exit 0, same outputs" if outputs == clean else "exit 0, outputs changed")
            counts[kind] += 1
            if kind in KINDS[2:]:
                named.append(name if code == 0 else f"{name} (exit {code})")
        rows.append((label, counts, named))
    return rows


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="a desk run directory of artifact_hashes.py")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="verseid-edit-sweep-") as tmp:
        rows = sweep(args.dir.resolve(), Path(tmp))
    print("| file | edits | " + " | ".join(KINDS) + " |")
    print("| --- " * (len(KINDS) + 2) + "|")
    for label, counts, _ in rows:
        cells = [label, str(sum(counts.values())), *map(str, counts.values())]
        print("| " + " | ".join(cells) + " |")
    for label, _, named in rows:
        if named:
            print(f"\n{label}, exit 0 with changed outputs or another exit:")
            print("\n".join(f"- {name}" for name in named))


if __name__ == "__main__":
    cli()
