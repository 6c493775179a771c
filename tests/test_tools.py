"""The tools beside the package: ``tools/margins.py`` reads its table from
the desk run of ``tools/artifact_hashes.py``, whose edge input reaches the
cases its docstring names, and ``tools/peak_memory.py`` traces each command
of that run, and ``predict`` on that run's corpus repeated k times, which
``tools/one_shot.py`` also times in new processes. ``tools/edit_sweep.py``
makes one-value edits of a checkpoint's metadata.

This loads each tool by path without installing it, and replaces the desk
run with one that writes the two ``eval_verse.json`` files the table is read
from, or with a few commands that hold known amounts of memory.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import verseid
from verseid.cli import main
from verseid.encoder import EncoderConfig
from verseid.normalize import normalize_text

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"verseid_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # The tools import each other from beside them; no bytecode is written there.
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        sys.path[:] = path
        for imported in ("artifact_hashes", "peak_memory"):
            sys.modules.pop(imported, None)
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


def test_coretypes_run_one_process_per_kernel(margins, monkeypatch, capsys):
    calls = []

    def run(argv, env, **kwargs):
        calls.append((argv, env["OPENBLAS_CORETYPE"]))
        return subprocess.CompletedProcess(argv, 0, stdout=f"| {env['OPENBLAS_CORETYPE']} |\n")

    monkeypatch.setattr(margins.subprocess, "run", run)
    monkeypatch.setattr(sys, "argv",
                        ["margins.py", "--seeds", "0-1", "--coretypes", "Haswell,Prescott"])
    margins.cli()
    assert calls == [([sys.executable, margins.__file__, "--seeds", "0-1"], core)
                     for core in ("Haswell", "Prescott")]
    assert capsys.readouterr().out.splitlines() == [
        "### OPENBLAS_CORETYPE=Haswell", "", "| Haswell |", "",
        "### OPENBLAS_CORETYPE=Prescott", "", "| Prescott |", "",
    ]


def test_seeds(margins):
    assert margins._seeds("0-4") == [0, 1, 2, 3, 4]
    assert margins._seeds("3") == [3]


@pytest.mark.parametrize("argv", [["--seeds", "4-2"], ["--seeds", "4-2", "--coretypes", "Haswell"]])
def test_margins_rejects_a_range_with_no_seeds(margins, monkeypatch, capsys, argv):
    def run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(margins, "run_in", run)
    monkeypatch.setattr(margins.subprocess, "run", run)
    monkeypatch.setattr(sys, "argv", ["margins.py", *argv])
    with pytest.raises(SystemExit) as info:
        margins.cli()
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'4-2' names no seeds" in captured.err


def test_edit_sweep_changes_one_value_at_a_time():
    sweep = load_tool("edit_sweep")
    meta = {"train_config": {"class_weighting": "inverse_frequency", "lr": 0.002, "seed": 0,
                             "flag": True},
            "space": {"poet_index": {"b": 1, "a": 0, "c": 2}, "mean": [1.5, 0.0], "none": None},
            "vocab_hash": "ab12"}
    before = json.dumps(meta, sort_keys=True)
    got = sweep.edits(meta)
    assert json.dumps(meta, sort_keys=True) == before
    assert [name for name, _ in got] == [
        "space.mean.0 (1.5 -> 3.0)", "space.mean.1 (0.0 -> 1.0)",
        "space.poet_index (swap a, b)", "space.poet_index (swap b, c)",
        "train_config.class_weighting", "train_config.flag (True -> False)",
        "train_config.lr (0.002 -> 0.004)", "train_config.seed (0 -> 1)", "vocab_hash",
    ]
    edited = dict(got)
    assert edited["space.poet_index (swap b, c)"]["space"]["poet_index"] == {"a": 0, "b": 2, "c": 1}
    assert edited["train_config.class_weighting"]["train_config"]["class_weighting"] == "none"
    assert edited["vocab_hash"]["vocab_hash"] == "21ba"
    for name, after in got:  # each edit changes one value and leaves the rest as they were
        changed = [k for k in meta if after[k] != meta[k]]
        assert changed == [name.split(".")[0]], name


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


def test_hashes_name_numpy_and_the_blas_core_on_stderr_only(tmp_path, monkeypatch, capsys):
    import numpy as np

    hashes = load_tool("artifact_hashes")
    monkeypatch.setattr(hashes, "run_in", lambda root: (root / "a.txt").write_text("a"))
    monkeypatch.setattr(sys, "argv", ["artifact_hashes.py", str(tmp_path / "run")])
    hashes.cli()
    out, err = capsys.readouterr()
    assert out == f"{hashlib.sha256(b'a').hexdigest()}  a.txt\n"
    core, threads = hashes.blas_core()
    # The second line is the digest that ``sha256sum`` gives the listing.
    assert err.splitlines() == [
        f"numpy {np.__version__}, OpenBLAS core {core}, BLAS threads {threads}",
        f"listing sha256 {hashlib.sha256(out.encode()).hexdigest()}"]
    assert err.endswith("\n")


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_verseid_sets_one_blas_thread_unless_the_user_chose(given, expected):
    child = ("import os, sys, verseid, numpy; sys.path.insert(0, sys.argv[1]); "
             "from artifact_hashes import blas_core; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'), blas_core()[1])")
    src = str(Path(verseid.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    if given:
        env["OPENBLAS_NUM_THREADS"] = given
    out = subprocess.run([sys.executable, "-c", child, str(TOOLS)], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    variable, threads = out.split()
    assert variable == expected
    if threads != "unknown":  # OpenBLAS runs no more threads than there are CPUs
        assert threads == str(min(int(expected), os.cpu_count()))


@pytest.fixture
def peak_memory():
    return load_tool("peak_memory")


def fake_desk_run(hashes, monkeypatch, exit_code=0):
    """Three commands through ``hashes._run``, each holding a known amount
    of memory while it runs; returns those amounts by command."""
    sizes = {"ingest": 1_000_000, "train": 3_000_000}

    def verseid(argv):
        held = bytearray(sizes[argv[0]])  # noqa: F841 (freed at return)
        return exit_code

    def desk_pipeline(seed=0):
        hashes._run("ingest", "--corpus", "raw.jsonl", "--out", "corpus")
        hashes._run("train", "--out", "full")
        hashes._run("train", "--out", "nometer")

    monkeypatch.setattr(hashes, "verseid", verseid)
    monkeypatch.setattr(hashes, "desk_pipeline", desk_pipeline)
    return sizes


def test_peak_memory_traces_each_command_of_the_desk_run(peak_memory, monkeypatch, tmp_path):
    hashes = peak_memory.artifact_hashes
    run = hashes._run
    sizes = fake_desk_run(hashes, monkeypatch)
    rows = peak_memory.peaks(tmp_path)
    assert [row[:2] for row in rows] == [("ingest", "corpus"), ("train", "full"),
                                         ("train", "nometer")]
    for command, _, peak in rows:
        assert sizes[command] <= peak < sizes[command] + 100_000
    again = peak_memory.peaks(tmp_path)  # in one process, up to the interpreter's own caches
    assert [row[:2] for row in again] == [row[:2] for row in rows]
    assert all(abs(a[2] - b[2]) < 1_000 for a, b in zip(again, rows))
    assert hashes._run is run


def test_peak_memory_restores_the_runner_when_a_command_fails(peak_memory, monkeypatch, tmp_path):
    hashes = peak_memory.artifact_hashes
    run = hashes._run
    fake_desk_run(hashes, monkeypatch, exit_code=3)
    with pytest.raises(SystemExit, match="verseid ingest .* exited 3"):
        peak_memory.peaks(tmp_path)
    assert hashes._run is run


def test_peak_memory_prints_one_row_per_command(peak_memory, monkeypatch, capsys):
    monkeypatch.setattr(peak_memory, "peaks", lambda root: [("train", "full", 17_670_000)])
    monkeypatch.setattr(peak_memory, "scaled_peaks",
                        lambda root: [(1, 8_188, 9_040_000), (8, 65_504, 10_370_000)])
    monkeypatch.setattr(sys, "argv", ["peak_memory.py"])
    peak_memory.cli()
    assert capsys.readouterr().out.splitlines() == [
        "| command | --out | traced peak (MB) |",
        "| --- | --- | --- |",
        "| `train` | full | 17.67 |",
        "",
        "| `predict` input | verses | traced peak (MB) |",
        "| --- | --- | --- |",
        "| corpus x1 | 8,188 | 9.04 |",
        "| corpus x8 | 65,504 | 10.37 |",
    ]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A directory holding what ``scaled_peaks`` reads from a desk run, from
    a 729-verse corpus and a small model."""
    root = tmp_path_factory.mktemp("run")
    common = ["--corpus", str(root / "corpus"), "--split", str(root / "split")]
    for argv in (
        ["make-synthetic", "--out", str(root / "raw.jsonl"), "--poets", "3",
         "--poems-per-poet", "30", "--seed", "3"],
        ["ingest", "--corpus", str(root / "raw.jsonl"), "--out", str(root / "corpus")],
        ["split", "--corpus", str(root / "corpus"), "--out", str(root / "split")],
        ["train-embeddings", *common, "--out", str(root / "emb"), "--dim", "16", "--epochs", "1"],
        ["train", *common, "--embeddings", str(root / "emb"), "--out", str(root / "full"),
         "--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--d-ff", "32", "--epochs", "1"],
    ):
        assert main(argv) == 0
    return root


def test_predict_peak_stays_flat_as_the_input_grows(peak_memory, small_run, monkeypatch):
    # Chunks of one batch, so the 1x input already spans about a dozen of them.
    monkeypatch.setattr("verseid.cli.PREDICT_CHUNK_BATCHES", 1)
    rows = peak_memory.scaled_peaks(small_run, (1, 4))
    assert [row[:2] for row in rows] == [(1, 729), (4, 2_916)]
    assert rows[1][2] <= 1.25 * rows[0][2]
    for k in (1, 4):
        lines = (small_run / f"predict_x{k}" / "poem_predictions.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 90 * k


@pytest.fixture
def one_shot():
    return load_tool("one_shot")


def test_one_shot_runs_new_predict_processes(one_shot, small_run):
    rows = one_shot.measure(small_run, (1, 2), runs=2, chunk_batches=1)
    assert [row[:2] for row in rows] == [(1, 729), (2, 1_458)]
    for k, _, wall, cpu, faults, rss in rows:
        assert wall > 0 and cpu > 0 and faults > 1_000 and rss > 10_000_000  # an interpreter with numpy
        lines = (small_run / f"one_shot_x{k}" / "poem_predictions.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 90 * k


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_one_shot_rejects_a_chunk_count_below_one(one_shot, monkeypatch, capsys, value):
    def run_in(root):
        raise AssertionError("a run started")

    monkeypatch.setattr(one_shot.artifact_hashes, "run_in", run_in)
    monkeypatch.setattr(sys, "argv", ["one_shot.py", "--chunk-batches", value])
    with pytest.raises(SystemExit) as info:
        one_shot.cli()
    assert info.value.code == 2
    assert "--chunk-batches" in capsys.readouterr().err


def test_one_shot_prints_one_row_per_input(one_shot, monkeypatch, capsys):
    monkeypatch.setattr(one_shot.artifact_hashes, "run_in", lambda root: None)
    monkeypatch.setattr(one_shot, "measure", lambda root, scales, runs, batches: [
        (1, 8_188, 1.234, 1.2, 41_900, 58_700_000), (8, 65_504, 5.1, 5.049, 355_000, 60_100_000)])
    monkeypatch.setattr(sys, "argv", ["one_shot.py", "--chunk-batches", "16"])
    one_shot.cli()
    assert capsys.readouterr().out.splitlines() == [
        "One-shot `predict`, chunks of 16 batches, medians of 3 processes",
        "",
        "| `predict` input | verses | wall (s) | CPU (s) | minor faults | max RSS (MB) |",
        "| --- | --- | --- | --- | --- | --- |",
        "| corpus x1 | 8,188 | 1.23 | 1.20 | 41,900 | 58.7 |",
        "| corpus x8 | 65,504 | 5.10 | 5.05 | 355,000 | 60.1 |",
    ]
