"""The tools beside the package: ``tools/margins.py`` reads its table from
the desk run of ``tools/artifact_hashes.py``, whose edge input reaches the
cases its docstring names.

This loads each tool by path without installing it, and replaces the desk
run with one that writes the two ``eval_verse.json`` files the table is read
from.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from verseid.encoder import EncoderConfig
from verseid.normalize import normalize_text

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"verseid_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # margins imports artifact_hashes from beside it; no bytecode is written there.
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        sys.path[:] = path
        sys.modules.pop("artifact_hashes", None)
    return module


@pytest.fixture(scope="module")
def margins():
    return load_tool("margins")


@pytest.fixture
def runs(margins, monkeypatch):
    """The (root, seed) of every desk run, each of which writes both evaluations."""
    calls = []

    def run_in(root, seed=0):
        calls.append((root, seed))
        for name, accuracy in (("full", 0.9723), ("nometer", 0.9308)):
            (root / f"eval_{name}").mkdir()
            (root / f"eval_{name}" / "eval_verse.json").write_text(json.dumps({"accuracy": accuracy}))

    monkeypatch.setattr(margins, "run_in", run_in)
    return calls


def test_margins_reads_both_evaluations(margins, runs, tmp_path):
    assert margins.margins(3, tmp_path) == (0.9723, 0.9308)
    assert runs == [(tmp_path, 3)]


def test_cli_prints_one_row_per_seed(margins, runs, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["margins.py", "--seeds", "0-1"])
    margins.cli()
    assert capsys.readouterr().out.splitlines()[2:] == [
        "| 0 | 0.9723 | 0.9308 | 0.0415 |",
        "| 1 | 0.9723 | 0.9308 | 0.0415 |",
    ]
    assert [seed for _, seed in runs] == [0, 1]


def test_seeds(margins):
    assert margins._seeds("0-4") == [0, 1, 2, 3, 4]
    assert margins._seeds("3") == [3]


def test_edge_input_holds_the_cases_it_promises(tmp_path, monkeypatch):
    poem = {"poem_id": "p1", "verses": [["گل و بلبل", "در باغ"], ["ای دل غافل", "ز عشق"]]}
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "corpus.jsonl").write_text(json.dumps(poem, ensure_ascii=False) + "\n",
                                                    encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    poems = [json.loads(line) for line in load_tool("artifact_hashes").edge_poems().splitlines()]
    n_tokens = [[sum(len(normalize_text(h).split()) for h in verse) for verse in p["verses"]]
                for p in poems]
    assert any(not any(counts) for counts in n_tokens)  # every verse normalizes to nothing
    assert max(map(max, n_tokens)) > EncoderConfig.max_len
