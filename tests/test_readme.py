"""The README's "Library use" block runs as printed, on a small ingested
synthetic corpus in place of ``work/corpus``."""

from pathlib import Path

from verseid.aggregate import STRATEGIES
from verseid.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
CORPUS_PATH = "work/corpus/corpus.jsonl"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_block_votes_each_test_poem(tmp_path, capsys):
    raw, corpus = tmp_path / "raw.jsonl", tmp_path / "corpus"
    # 3 poets of 15 poems: above ingest's 50 verses a poet, and 3 test poems.
    assert main(["make-synthetic", "--poets", "3", "--poems-per-poet", "15",
                 "--min-verses", "4", "--max-verses", "6", "--out", str(raw)]) == 0
    assert main(["ingest", "--corpus", str(raw), "--out", str(corpus)]) == 0
    block = library_block()
    assert block.count(CORPUS_PATH) == 1
    names: dict = {}
    exec(compile(block.replace(CORPUS_PATH, str(corpus / "corpus.jsonl")), str(README), "exec"),
         names)
    n_test = len(names["test_recs"])
    assert n_test > 0
    assert len(names["labels"]) == len(names["confidence"]) == n_test
    assert list(names["votes"]) == list(STRATEGIES)
    for labels, confidence in names["votes"].values():
        assert len(labels) == len(confidence) == n_test
