"""End-to-end command-line pipeline tests."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import verseid.cli
from verseid.cli import build_parser, main
from verseid.corpus import Corpus, load_corpus, save_corpus
from verseid.embeddings import EmbeddingConfig, EmbeddingMatrix
from verseid.encoder import EncoderConfig
from verseid.model import FusionConfig, TrainConfig, load_checkpoint, predict_proba
from verseid.normalize import UNK_ID, NormalizationConfig, Vocabulary, build_vocab
from verseid.split import SplitAssignment, split_records
from verseid.synthetic import SyntheticConfig

from conftest import make_poem, token_lists


def run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def exit_code(argv):
    """The exit code of ``main``, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


FAST_TRAIN = [
    "--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--d-ff", "32",
    "--epochs", "2", "--seed", "0",
]


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One small corpus taken through every pipeline stage."""
    root = tmp_path_factory.mktemp("pipeline")
    raw = root / "raw.jsonl"
    dirs = {name: root / name for name in ("corpus", "split", "emb", "model", "eval", "sweep")}

    assert main(["make-synthetic", "--out", str(raw), "--poets", "3",
                 "--poems-per-poet", "30", "--seed", "3"]) == 0
    assert main(["ingest", "--corpus", str(raw), "--out", str(dirs["corpus"])]) == 0
    assert main(["split", "--corpus", str(dirs["corpus"]), "--seed", "7",
                 "--out", str(dirs["split"])]) == 0
    assert main(["train-embeddings", "--corpus", str(dirs["corpus"]),
                 "--split", str(dirs["split"]), "--out", str(dirs["emb"]),
                 "--dim", "16", "--epochs", "2", "--seed", "0"]) == 0
    assert main(["train", "--corpus", str(dirs["corpus"]), "--split", str(dirs["split"]),
                 "--embeddings", str(dirs["emb"]), "--out", str(dirs["model"]),
                 *FAST_TRAIN]) == 0
    assert main(["evaluate", "--corpus", str(dirs["corpus"]), "--split", str(dirs["split"]),
                 "--embeddings", str(dirs["emb"]), "--checkpoint", str(dirs["model"]),
                 "--out", str(dirs["eval"])]) == 0
    assert main(["sweep-thresholds", "--corpus", str(dirs["corpus"]),
                 "--split", str(dirs["split"]), "--embeddings", str(dirs["emb"]),
                 "--checkpoint", str(dirs["model"]), "--taus", "0.4,0.6,0.8",
                 "--out", str(dirs["sweep"])]) == 0
    dirs["raw"] = raw
    dirs["root"] = root
    return dirs


def rewrite_metadata(src, dst, edit, reseal=True, params=None, version=None):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its metadata,
    with its parameter body mapped by ``params`` and its header's format
    version replaced by ``version`` if those are given.

    With ``reseal`` the ``sha256`` key is recomputed over the edited metadata
    (without that key) and the parameter body; without it, the key stays as
    ``edit`` left it.
    """
    blob = src.read_bytes()
    old_version, meta_len = struct.unpack_from("<II", blob, 4)
    meta = json.loads(blob[12 : 12 + meta_len])
    body = blob[12 + meta_len :]
    if params is not None:
        body = params(np.frombuffer(body, dtype="<f4")).astype("<f4").tobytes()
    edit(meta)
    if reseal:
        del meta["sha256"]
        unsealed = json.dumps(meta, sort_keys=True).encode("utf-8")
        meta["sha256"] = hashlib.sha256(unsealed + body).hexdigest()
    new_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = struct.pack("<II", old_version if version is None else version, len(new_meta))
    dst.write_bytes(blob[:4] + header + new_meta + body)


def load_model(ckpt, emb):
    """The bundle of checkpoint ``ckpt``, with the vocabulary and embeddings in ``emb``."""
    return load_checkpoint(ckpt, Vocabulary.load(emb / "vocab.tsv"),
                           EmbeddingMatrix.load(emb / "embeddings.bin"))


class TestArtifacts:
    def test_every_stage_writes_its_resolved_config(self, pipeline):
        for stage in ("corpus", "split", "emb", "model", "eval", "sweep"):
            cfg = json.loads((pipeline[stage] / "config.json").read_text())
            assert "command" in cfg and "version" in cfg

    def test_every_config_names_each_input_path(self, pipeline, tmp_path):
        pred = tmp_path / "predict"
        assert main(["predict", "--input", str(pipeline["raw"]),
                     "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(pipeline["model"]), "--out", str(pred)]) == 0
        pipeline = {**pipeline, "predict": pred}
        split_inputs = {"corpus": "corpus", "split": "split"}
        eval_inputs = {**split_inputs, "embeddings": "emb", "checkpoint": "model"}
        given = {
            "corpus": {"corpus": "raw"},
            "split": {"corpus": "corpus"},
            "emb": split_inputs,
            "model": {**split_inputs, "embeddings": "emb"},
            "eval": eval_inputs,
            "sweep": eval_inputs,
            "predict": {"input": "raw", "embeddings": "emb", "checkpoint": "model"},
        }
        for stage, inputs in given.items():
            cfg = json.loads((pipeline[stage] / "config.json").read_text())
            for key, name in inputs.items():
                assert cfg[key] == str(pipeline[name]), (stage, key)

    def test_ingest_outputs(self, pipeline):
        assert (pipeline["corpus"] / "corpus.jsonl").exists()
        stats = json.loads((pipeline["corpus"] / "stats.json").read_text())
        assert stats["n_poets"] == 3
        assert stats["n_poems"] == 90

    def test_split_outputs(self, pipeline):
        lines = (pipeline["split"] / "assignment.csv").read_text().splitlines()
        assert lines[0] == "poem_id,split,poet"
        assert len(lines) == 91
        meta = json.loads((pipeline["split"] / "split_meta.json").read_text())
        assert meta["seed"] == 7

    def test_embedding_outputs(self, pipeline):
        assert (pipeline["emb"] / "vocab.tsv").exists()
        assert (pipeline["emb"] / "embeddings.bin").exists()
        cfg = json.loads((pipeline["emb"] / "config.json").read_text())
        assert len(cfg["loss_by_epoch"]) == 2

    def test_embedding_inputs_match_the_per_verse_loop(self, tmp_path, monkeypatch):
        # ZWNJ-joined words, words seen once (under --min-freq 2) and a verse
        # that normalizes to nothing, in every poem.
        words = ["گل", "باغ", "می\u200cرود", "دل\u200cها", "بلبل"]
        poems = [make_poem(f"p{i}", "ab"[i % 2], [(f"{words[i % 5]} {words[(i + 2) % 5]} واژه{i}", "گل"),
                                                  ("ـ", "<b></b>")])
                 for i in range(12)]
        corpus, split, emb = tmp_path / "corpus.jsonl", tmp_path / "split", tmp_path / "emb"
        save_corpus(Corpus(poems), corpus)
        assert main(["split", "--corpus", str(corpus), "--seed", "0", "--out", str(split)]) == 0
        recorded = []
        real = verseid.cli.train_sgns

        def recording(sequences, vocab_size, cfg):
            recorded.append(sequences)
            return real(sequences, vocab_size, cfg)

        monkeypatch.setattr(verseid.cli, "train_sgns", recording)
        assert main(["train-embeddings", "--corpus", str(corpus), "--split", str(split),
                     "--out", str(emb), "--min-freq", "2", "--strip-zwnj", "--dim", "4",
                     "--epochs", "1"]) == 0
        assignment = SplitAssignment.load(split / "assignment.csv", split / "split_meta.json")
        train = split_records(load_corpus(corpus), assignment)[0]
        cfg = NormalizationConfig(strip_zwnj=True)
        tokens = token_lists(train, cfg)
        vocab = build_vocab(tokens, cfg, min_freq=2)
        assert (emb / "vocab.tsv").read_text(encoding="utf-8") == vocab.serialize()
        # The id lists of the per-verse loop that the token table replaced.
        assert [list(s) for s in recorded[0]] == [[vocab.id_of(t) for t in toks] for toks in tokens]
        assert [] in recorded[0] and UNK_ID in {i for s in recorded[0] for i in s}
        assert "میرود" in vocab.token_to_id and "می\u200cرود" not in vocab.token_to_id

    def test_train_outputs(self, pipeline):
        assert (pipeline["model"] / "checkpoint.bin").exists()
        log = (pipeline["model"] / "trainlog.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,valid_accuracy,lr"
        assert len(log) >= 2

    def test_evaluate_outputs(self, pipeline):
        names = {p.name for p in pipeline["eval"].iterdir()}
        expected = {
            "eval_verse.json", "eval_verse.txt",
            "eval_majority.json", "eval_majority.txt",
            "eval_weighted.json", "eval_weighted.txt",
            "eval_thresholded.json", "eval_thresholded.txt",
            "poem_predictions.csv", "config.json",
        }
        assert expected <= names
        verse = json.loads((pipeline["eval"] / "eval_verse.json").read_text())
        assert 0.0 <= verse["accuracy"] <= 1.0
        thr = json.loads((pipeline["eval"] / "eval_thresholded.json").read_text())
        assert thr["coverage"] is not None

    def test_evaluate_when_every_poem_abstains(self, pipeline, tmp_path):
        # A poem's confidence is a mean probability, so no poem reaches 1.5.
        out = tmp_path / "eval"
        assert main(["evaluate", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(pipeline["model"]), "--tau", "1.5",
                     "--out", str(out)]) == 0
        thr = json.loads((out / "eval_thresholded.json").read_text())
        assert thr["coverage"] == 0.0
        assert "confidence" not in json.loads((out / "config.json").read_text())

    def test_sweep_outputs(self, pipeline):
        lines = (pipeline["sweep"] / "sweep.csv").read_text().splitlines()
        assert lines[0] == "threshold,accuracy,coverage,covered,total"
        assert len(lines) == 4
        covs = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(covs, covs[1:]))


def argmax(values):
    """The index of the largest value, the smallest index on ties."""
    return max(range(len(values)), key=lambda j: (values[j], -j))


def oracle_votes(ds, probs):
    """Each poem's (poem_id, truth, {strategy: (label, confidence)}), in
    first-seen order, by plain loops over the verse distributions."""
    poems = {}
    for pid, truth, row in zip(ds.poem_ids, ds.labels, probs):
        poems.setdefault(pid, (int(truth), []))[1].append([float(x) for x in row])
    out = []
    for pid, (truth, rows) in poems.items():
        n_classes = len(rows[0])
        sums, counts, mass = [0.0] * n_classes, [0] * n_classes, [0.0] * n_classes
        for row in rows:
            top = argmax(row)
            counts[top] += 1
            mass[top] += row[top]
            for j in range(n_classes):
                sums[j] += row[j]
        weighted = argmax(sums)
        majority = max(range(n_classes), key=lambda j: (counts[j], mass[j], -j))
        out.append((pid, truth, {"majority": (majority, mass[majority] / counts[majority]),
                                 "weighted": (weighted, sums[weighted] / len(rows))}))
    return out


class TestPoemOutputs:
    """The poem-level outputs of evaluate, predict and sweep-thresholds,
    recomputed from ``predict_proba`` by plain Python loops."""

    TAU = 0.7

    @pytest.fixture(scope="class")
    def test_split(self, pipeline):
        from verseid.corpus import load_corpus
        from verseid.embeddings import EmbeddingMatrix
        from verseid.model import build_dataset, load_checkpoint, predict_proba
        from verseid.normalize import Vocabulary
        from verseid.split import SplitAssignment, split_records

        vocab = Vocabulary.load(pipeline["emb"] / "vocab.tsv")
        emb = EmbeddingMatrix.load(pipeline["emb"] / "embeddings.bin")
        bundle = load_checkpoint(pipeline["model"] / "checkpoint.bin", vocab, emb)
        corpus = load_corpus(pipeline["corpus"] / "corpus.jsonl")
        assignment = SplitAssignment.load(pipeline["split"] / "assignment.csv",
                                          pipeline["split"] / "split_meta.json")
        records = split_records(corpus, assignment)[2]
        ds = build_dataset(records, bundle.space)
        return records, oracle_votes(ds, predict_proba(ds, bundle)), bundle.space.poet_names

    def expected_predictions(self, votes, names):
        lines = ["poem_id,strategy,label,confidence,abstained"]
        for strategy in ("majority", "weighted", "thresholded"):
            for pid, _, by in votes:
                label, conf = by["weighted" if strategy == "thresholded" else strategy]
                abstained = strategy == "thresholded" and conf < self.TAU
                name = "ABSTAIN" if abstained else names[label]
                lines.append(f"{pid},{strategy},{name},{conf:.6f},{str(abstained).lower()}")
        return "\n".join(lines) + "\n"

    def test_evaluate_poem_predictions(self, pipeline, test_split):
        _, votes, names = test_split
        got = (pipeline["eval"] / "poem_predictions.csv").read_bytes().decode("utf-8")
        assert got == self.expected_predictions(votes, names)

    def test_predict_poem_predictions(self, pipeline, test_split, tmp_path):
        records, votes, names = test_split
        poems = tmp_path / "poems.jsonl"
        poems.write_text("".join(
            json.dumps({"poem_id": r.poem_id, "form": r.form, "meter": r.meter,
                        "verses": [[v.hemistich_1, v.hemistich_2] for v in r.verses]}) + "\n"
            for r in records), encoding="utf-8")
        out = tmp_path / "pred"
        assert main(["predict", "--input", str(poems), "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(pipeline["model"]), "--tau", str(self.TAU),
                     "--out", str(out)]) == 0
        got = (out / "poem_predictions.csv").read_bytes().decode("utf-8")
        assert got == self.expected_predictions(votes, names)

    def test_evaluate_reports(self, pipeline, test_split):
        _, votes, _ = test_split
        for strategy in ("majority", "weighted", "thresholded"):
            vote = "weighted" if strategy == "thresholded" else strategy
            kept = [(by[vote][0], truth) for _, truth, by in votes
                    if strategy != "thresholded" or by[vote][1] >= self.TAU]
            accuracy = sum(label == truth for label, truth in kept) / len(kept) if kept else 0.0
            coverage = len(kept) / len(votes) if strategy == "thresholded" else None
            text = (pipeline["eval"] / f"eval_{strategy}.json").read_text(encoding="utf-8")
            assert f'"accuracy": {json.dumps(accuracy)},' in text, strategy
            assert f'"coverage": {json.dumps(coverage)},' in text, strategy

    def test_sweep_csv(self, pipeline, test_split):
        _, votes, _ = test_split
        lines = ["threshold,accuracy,coverage,covered,total"]
        for tau in (0.4, 0.6, 0.8):
            kept = [(by["weighted"][0], truth) for _, truth, by in votes
                    if by["weighted"][1] >= tau]
            accuracy = (f"{sum(label == truth for label, truth in kept) / len(kept):.6f}"
                        if kept else "NA")
            lines.append(f"{tau:g},{accuracy},{len(kept) / len(votes):.6f},{len(kept)},{len(votes)}")
        assert (pipeline["sweep"] / "sweep.csv").read_text(encoding="utf-8") == "\n".join(lines) + "\n"


class TestVerselessSplitPoem:
    """A split poem whose every verse normalizes to nothing: ``evaluate`` and
    ``sweep-thresholds`` keep it in the split and it abstains."""

    @pytest.fixture(scope="class")
    def runs(self, pipeline, tmp_path_factory):
        root = tmp_path_factory.mktemp("verseless")
        corpus = load_corpus(pipeline["corpus"] / "corpus.jsonl")
        assignment = SplitAssignment.load(pipeline["split"] / "assignment.csv",
                                          pipeline["split"] / "split_meta.json")
        test_ids = [r.poem_id for r in split_records(corpus, assignment)[2]]
        lines = (pipeline["corpus"] / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["poem_id"] == test_ids[0]:
                record["verses"] = [["<hr/>", "<b></b>"] for _ in record["verses"]]
                lines[i] = json.dumps(record, ensure_ascii=False)
        (root / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        common = ["--corpus", str(root / "corpus.jsonl"), "--split", str(pipeline["split"]),
                  "--embeddings", str(pipeline["emb"]), "--checkpoint", str(pipeline["model"])]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the skipped verses are reported
            assert main(["evaluate", *common, "--out", str(root / "eval")]) == 0
            assert main(["sweep-thresholds", *common, "--taus", "0,0.7",
                         "--out", str(root / "sweep")]) == 0
        return root, test_ids

    def test_evaluate_lists_it_as_abstaining_in_split_order(self, runs):
        root, test_ids = runs
        rows = list(csv.reader((root / "eval" / "poem_predictions.csv").read_text().splitlines()))
        assert [(r[0], r[1]) for r in rows[1:]] == [
            (pid, strategy) for strategy in ("majority", "weighted", "thresholded")
            for pid in test_ids]
        for row in rows[1:]:
            assert (row[0] == test_ids[0]) == (row[2:] == ["ABSTAIN", "0.000000", "true"])

    def test_thresholded_coverage_counts_the_whole_split(self, runs):
        root, test_ids = runs
        rows = list(csv.reader((root / "eval" / "poem_predictions.csv").read_text().splitlines()))
        kept = sum(r[1] == "thresholded" and r[4] == "false" for r in rows)
        report = json.loads((root / "eval" / "eval_thresholded.json").read_text())
        assert report["coverage"] == kept / len(test_ids)

    def test_sweep_never_covers_it(self, runs):
        root, test_ids = runs
        rows = list(csv.DictReader((root / "sweep" / "sweep.csv").read_text().splitlines()))
        assert [int(r["total"]) for r in rows] == [len(test_ids)] * 2
        assert int(rows[0]["covered"]) == len(test_ids) - 1


class TestDeterminism:
    def test_split_reruns_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "split2"
        assert main(["split", "--corpus", str(pipeline["corpus"]), "--seed", "7",
                     "--out", str(again)]) == 0
        for name in ("assignment.csv", "split_meta.json"):
            assert (again / name).read_bytes() == (pipeline["split"] / name).read_bytes()

    def test_train_reruns_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "model2"
        assert main(["train", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--embeddings", str(pipeline["emb"]),
                     "--out", str(again), *FAST_TRAIN]) == 0
        for name in ("checkpoint.bin", "trainlog.csv"):
            assert (again / name).read_bytes() == (pipeline["model"] / name).read_bytes()

    def test_synthetic_rerun_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "raw2.jsonl"
        assert main(["make-synthetic", "--out", str(again), "--poets", "3",
                     "--poems-per-poet", "30", "--seed", "3"]) == 0
        assert again.read_bytes() == pipeline["raw"].read_bytes()


class TestPredict:
    def poems_jsonl(self):
        return (
            json.dumps({"poem_id": "new-1", "verses": [["گل و بلبل در باغ", "چمن سبز و خرم"]]})
            + "\n"
            + json.dumps({"poem_id": "new-2", "verses": [["ای دل غافل", "ز عشق مشو"],
                                                         ["جان و جهان", "فدای دوست"]]})
            + "\n"
        )

    def test_predict_from_file(self, pipeline, tmp_path, capsys):
        poems = tmp_path / "poems.jsonl"
        poems.write_text(self.poems_jsonl(), encoding="utf-8")
        out = tmp_path / "pred"
        code, captured = run(["predict", "--input", str(poems),
                              "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(out)], capsys)
        assert code == 0
        assert "predicted 2 poems (3 verses)" in captured.out
        verse_lines = (out / "verse_predictions.csv").read_text().splitlines()
        assert len(verse_lines) == 4
        assert verse_lines[0].startswith("poem_id,verse_index,label,confidence,p_")
        poem_lines = (out / "poem_predictions.csv").read_text().splitlines()
        # three strategies x two poems
        assert len(poem_lines) == 7

    def test_verse_csv_cells_at_rounding_ties(self, pipeline, tmp_path, monkeypatch):
        # j/128 for odd j ends in 5 at the seventh decimal: a tie at six
        # decimals, in float32 exactly. Its float32 neighbours are not ties.
        ties = np.float32([1, 3, 5, 127, 129]) / np.float32(128)
        # The float32 nearest to a decimal tie is off it, but prints as it,
        # so rounding its shortest repr, or np.round, picks the wrong side.
        near = np.float32([0.2697865, 0.0409735, 0.6369615, 0.8506245])
        values = np.concatenate([ties, np.nextafter(ties, np.float32(0)),
                                 np.nextafter(ties, np.float32(2)), near])
        seen = {}

        def fake_predict_proba(ds, bundle):
            seen["ds"], seen["names"] = ds, bundle.space.poet_names
            seen["probs"] = np.resize(values, (len(ds), bundle.space.n_classes))
            return seen["probs"]

        monkeypatch.setattr("verseid.cli.predict_proba", fake_predict_proba)
        poems = tmp_path / "poems.jsonl"
        # As many verses as values, so each value fills at least one cell.
        record = {"poem_id": "ties", "verses": [["گل و بلبل", "در باغ"]] * len(values)}
        poems.write_text(self.poems_jsonl() + json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "pred"
        assert main(["predict", "--input", str(poems), "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(pipeline["model"]), "--out", str(out)]) == 0
        ds, names = seen["ds"], seen["names"]
        # Each float32 formatted on its own, as the rows once were.
        expected = ["poem_id,verse_index,label,confidence," + ",".join(f"p_{p}" for p in names)]
        for pid, vi, row in zip(ds.poem_ids, ds.verse_indices, seen["probs"]):
            top = int(row.argmax())
            expected.append(",".join([pid, str(vi), names[top], f"{row[top]:.6f}",
                                      *(f"{x:.6f}" for x in row)]))
        text = (out / "verse_predictions.csv").read_text(encoding="utf-8")
        assert text.splitlines() == expected
        assert "0.007812" in text and "0.023438" in text  # ties round to even

    def test_predict_csv_quotes_poem_ids(self, pipeline, tmp_path):
        # A bare "\r" is quoted as well as "," and '"': a reader ends a row there.
        for i, poem_id in enumerate(['a,b "c"', "a\rb"]):
            poems = tmp_path / f"poems{i}.jsonl"
            record = {"poem_id": poem_id, "verses": [["گل و بلبل", "در باغ"]]}
            poems.write_text(json.dumps(record) + "\n", encoding="utf-8")
            out = tmp_path / f"pred{i}"
            assert main(["predict", "--input", str(poems), "--embeddings", str(pipeline["emb"]),
                         "--checkpoint", str(pipeline["model"]), "--out", str(out)]) == 0
            for name, n_rows in (("verse_predictions.csv", 1), ("poem_predictions.csv", 3)):
                with open(out / name, newline="", encoding="utf-8") as fh:
                    header, *rows = csv.reader(fh)
                assert len(rows) == n_rows
                assert all(len(row) == len(header) and row[0] == poem_id for row in rows)

    def test_predict_from_stdin(self, pipeline, tmp_path, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(self.poems_jsonl().encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        out = tmp_path / "pred"
        assert main(["predict", "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(pipeline["model"]), "--out", str(out)]) == 0
        assert (out / "verse_predictions.csv").exists()

    @pytest.mark.parametrize("stdin_flag", [[], ["--input", "-"]], ids=["omitted", "dash"])
    @pytest.mark.parametrize("data, where", [
        (b"{\n", "line 1: invalid JSON"),
        (b"\xff\n", "'utf-8' codec can't decode"),
        (b"\n", "no poems"),
    ], ids=["invalid-json", "non-utf8", "empty"])
    def test_stdin_error_names_stdin(self, pipeline, tmp_path, monkeypatch, capsys,
                                     stdin_flag, data, where):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        out = tmp_path / "pred"
        code, captured = run(["predict", *stdin_flag, "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(pipeline["model"]), "--out", str(out)], capsys)
        assert code == 2
        assert captured.err.startswith(f"error: stdin: {where}")
        assert not out.exists()

    def predict_through_pipe(self, pipeline, data, out):
        """``verseid predict`` run as its own process, with ``data`` on its stdin.

        Under the C locale Python decodes its own ``sys.stdin`` with
        ``errors="surrogateescape"``, which lets undecodable bytes through.
        """
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
        src = str(Path(verseid.cli.__file__).parents[1])
        env.update(LC_ALL="C", PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "verseid.cli", "predict", "--embeddings", str(pipeline["emb"]),
             "--checkpoint", str(pipeline["model"]), "--out", str(out)],
            input=data, capture_output=True, env=env, timeout=120)

    @pytest.mark.parametrize("data", [
        b'{"poem_id": "x1", "verses": [["a\xff b", "c"]]}\n',
        b'{"poem_id": "x\xff1", "verses": [["a b", "c"]]}\n',
    ], ids=["hemistich", "poem_id"])
    def test_undecodable_pipe_names_stdin(self, pipeline, tmp_path, data):
        out = tmp_path / "pred"
        proc = self.predict_through_pipe(pipeline, data, out)
        assert proc.returncode == 2
        assert proc.stderr.decode("utf-8").startswith(
            "error: stdin: 'utf-8' codec can't decode")
        assert not out.exists()

    def test_pipe_predicts_as_the_file(self, pipeline, tmp_path):
        poems = tmp_path / "poems.jsonl"
        poems.write_text(self.poems_jsonl(), encoding="utf-8")
        assert main(["predict", "--input", str(poems), "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(pipeline["model"]), "--out", str(tmp_path / "file")]) == 0
        proc = self.predict_through_pipe(pipeline, poems.read_bytes(), tmp_path / "pipe")
        assert proc.returncode == 0, proc.stderr
        for name in ("verse_predictions.csv", "poem_predictions.csv"):
            assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()

    def test_poem_with_no_usable_verse_abstains_in_its_place(self, pipeline, tmp_path, capsys):
        markup = json.dumps({"poem_id": "markup", "verses": [["<hr/>", "<b></b>"]]}) + "\n"
        poems = tmp_path / "poems.jsonl"
        poems.write_text(markup + self.poems_jsonl().splitlines(keepends=True)[1], encoding="utf-8")
        out = tmp_path / "pred"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the skipped verse is reported
            code, captured = run(["predict", "--input", str(poems),
                                  "--embeddings", str(pipeline["emb"]),
                                  "--checkpoint", str(pipeline["model"]),
                                  "--out", str(out)], capsys)
        assert code == 0
        assert "predicted 2 poems (2 verses)" in captured.out
        poem_lines = (out / "poem_predictions.csv").read_text().splitlines()
        assert len(poem_lines) == 7
        rows = list(csv.reader(poem_lines[1:]))
        assert [(r[0], r[1]) for r in rows] == [
            (pid, strategy) for strategy in ("majority", "weighted", "thresholded")
            for pid in ("markup", "new-2")]
        for row in rows[::2]:
            assert row[2:] == ["ABSTAIN", "0.000000", "true"]
        verse_rows = list(csv.reader((out / "verse_predictions.csv").read_text().splitlines()[1:]))
        assert [r[0] for r in verse_rows] == ["new-2", "new-2"]

    def test_predict_rejects_verseless_input(self, pipeline, tmp_path, capsys):
        poems = tmp_path / "poems.jsonl"
        poems.write_text('{"poem_id": "x"}\n', encoding="utf-8")
        code, captured = run(["predict", "--input", str(poems),
                              "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(tmp_path / "pred")], capsys)
        assert code == 2
        assert "poem_id and verses" in captured.err

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_no_usable_verse_names_the_input(self, pipeline, tmp_path, monkeypatch, capsys,
                                             from_stdin):
        data = '{"poem_id": "x1", "verses": [["<b></b>", ""]]}\n'
        poems = tmp_path / "poems.jsonl"
        poems.write_text(data, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data.encode()), encoding="utf-8"))
        out = tmp_path / "pred"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the skipped verse is reported
            code, captured = run(["predict", "--input", "-" if from_stdin else str(poems),
                                  "--embeddings", str(pipeline["emb"]),
                                  "--checkpoint", str(pipeline["model"]), "--out", str(out)], capsys)
        assert code == 2
        assert captured.err == f"error: no usable verses in {'stdin' if from_stdin else poems}\n"
        assert not out.exists()

    @pytest.mark.parametrize("lines, message", [
        (['{"poem_id": "a", "verses": ["abc def"]}'], "line 1: verse 0 must be a list"),
        (['{"poem_id": "a", "verses": [["x", "y"]]}', '{"poem_id": "a", "verses": [["z"]]}'],
         "line 2: duplicate poem_id"),
    ])
    def test_predict_rejects_malformed_records(self, pipeline, tmp_path, capsys, lines, message):
        poems = tmp_path / "poems.jsonl"
        poems.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, captured = run(["predict", "--input", str(poems),
                              "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(tmp_path / "pred")], capsys)
        assert code == 2
        assert message in captured.err


class TestPredictInChunks:
    """``predict`` reads, featurizes and predicts a chunk of whole 64-verse
    batches at a time: the chunk size leaves no trace in its outputs, and a
    failure anywhere in the input leaves no output behind."""

    EMPTY = ["<b></b>", "ـ"]  # a verse that normalizes to nothing

    @pytest.fixture(scope="class")
    def lines(self, pipeline):
        """Prediction input whose poems straddle the 64-verse batch edges:
        the second batch starts among a poem's empty verses, a poem with no
        usable verse follows it, and a 150-verse poem spans three batches."""
        records = load_corpus(pipeline["corpus"] / "corpus.jsonl").records
        pool = [[v.hemistich_1, v.hemistich_2] for r in records for v in r.verses]
        poems, held = [], 0
        for r in records:
            if held >= 50:
                break
            poems.append((r.poem_id, [[v.hemistich_1, v.hemistich_2] for v in r.verses]))
            held += r.n_verses
        rest = records[len(poems):]
        poems += [("empty-at-edge", pool[: 64 - held] + [self.EMPTY, self.EMPTY] + pool[:3]),
                  ("no-usable-verse", [self.EMPTY, self.EMPTY]),
                  ("long", (pool * 2)[:150])]
        poems += [(r.poem_id, [[v.hemistich_1, v.hemistich_2] for v in r.verses]) for r in rest]
        return [json.dumps({"poem_id": pid, "verses": verses}, ensure_ascii=False)
                for pid, verses in poems]

    def expected(self, pipeline, path, tau=0.7):
        """Both CSVs of ``path`` from one ``predict_proba`` over the whole
        input, the poem rows voted by ``oracle_votes``, the count of verses
        with no tokens, and the distributions."""
        from verseid.model import build_dataset, load_checkpoint
        from verseid.normalize import Vocabulary

        vocab = Vocabulary.load(pipeline["emb"] / "vocab.tsv")
        emb = EmbeddingMatrix.load(pipeline["emb"] / "embeddings.bin")
        bundle = load_checkpoint(pipeline["model"] / "checkpoint.bin", vocab, emb)
        records = load_corpus(path, labelled=False).records
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ds = build_dataset(records, bundle.space)
        probs, names = predict_proba(ds, bundle), bundle.space.poet_names
        verse_lines = ["poem_id,verse_index,label,confidence," + ",".join(f"p_{p}" for p in names)]
        for pid, vi, row in zip(ds.poem_ids, ds.verse_indices, probs):
            top = int(row.argmax())
            verse_lines.append(",".join([pid, str(vi), names[top], f"{row[top]:.6f}",
                                         *(f"{x:.6f}" for x in row)]))
        votes = {pid: by for pid, _, by in oracle_votes(ds, probs)}
        poem_lines = ["poem_id,strategy,label,confidence,abstained"]
        for strategy in ("majority", "weighted", "thresholded"):
            for r in records:
                label, conf = votes.get(r.poem_id, {}).get(
                    "weighted" if strategy == "thresholded" else strategy, (-1, 0.0))
                abstained = label < 0 or strategy == "thresholded" and conf < tau
                name = "ABSTAIN" if abstained else names[label]
                poem_lines.append(f"{r.poem_id},{strategy},{name},{conf:.6f},{str(abstained).lower()}")
        n_empty = sum(r.n_verses for r in records) - len(ds)
        return "\n".join(verse_lines) + "\n", "\n".join(poem_lines) + "\n", n_empty, probs

    def predict(self, pipeline, path, out, checkpoint=None):
        return main(["predict", "--input", str(path), "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(checkpoint or pipeline["model"]), "--out", str(out)])

    def test_chunk_size_leaves_no_trace(self, pipeline, lines, tmp_path, monkeypatch, capsys):
        path = tmp_path / "poems.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        verse_csv, poem_csv, n_empty, probs = self.expected(pipeline, path)
        assert n_empty == 4
        predicted = []

        def recording(ds, bundle):
            predicted.append(predict_proba(ds, bundle))
            return predicted[-1]

        monkeypatch.setattr(verseid.cli, "predict_proba", recording)
        for batches in (1, 10**6):  # a chunk of one batch, and one chunk for the whole input
            monkeypatch.setattr(verseid.cli, "PREDICT_CHUNK_BATCHES", batches)
            out = tmp_path / f"pred{batches}"
            predicted.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert self.predict(pipeline, path, out) == 0
            assert [str(w.message) for w in caught] == [
                f"skipped {n_empty} verses with no tokens after normalization"]
            # Every distribution has the bits of the whole-input run, not only its six decimals.
            assert np.concatenate(predicted).tobytes() == probs.tobytes()
            assert all(len(part) % 64 == 0 for part in predicted[:-1])
            assert len(predicted) > 10 if batches == 1 else len(predicted) <= 2
            assert (out / "verse_predictions.csv").read_text(encoding="utf-8") == verse_csv
            assert (out / "poem_predictions.csv").read_text(encoding="utf-8") == poem_csv
            assert sorted(p.name for p in out.iterdir()) == [
                "config.json", "poem_predictions.csv", "verse_predictions.csv"]
        assert f"predicted {len(lines)} poems" in capsys.readouterr().out

    @pytest.mark.parametrize("out_dir", ["new-out", "kept-out", "nested-new-out"])
    @pytest.mark.parametrize("fault, code, message", [
        ("duplicate", 2, "duplicate poem_id"),
        ("malformed", 2, "must be a non-empty list"),
        ("non-finite", 3, "its parameters give 64 of 64 verses a non-finite distribution"),
    ])
    def test_late_failure_leaves_nothing(self, pipeline, lines, tmp_path, monkeypatch, capsys,
                                         fault, code, message, out_dir):
        monkeypatch.setattr(verseid.cli, "PREDICT_CHUNK_BATCHES", 1)
        # The line after two full chunks, each of at least 64 verses.
        at = held = chunks = 0
        while chunks < 2:
            held += len(json.loads(lines[at])["verses"])
            at += 1
            if held >= 64:
                held, chunks = 0, chunks + 1
        bad = {"duplicate": [lines[0]], "malformed": ['{"poem_id": "bad", "verses": []}']}
        path = tmp_path / "poems.jsonl"
        path.write_text("\n".join(lines[:at] + bad.get(fault, []) + lines[at:]) + "\n",
                        encoding="utf-8")
        checkpoint = pipeline["model"]
        if fault == "non-finite":
            checkpoint = tmp_path / "checkpoint.bin"
            rewrite_metadata(pipeline["model"] / "checkpoint.bin", checkpoint, lambda meta: None,
                             params=lambda values: np.full_like(values, np.nan))
        out = tmp_path / ("new/sub/pred" if out_dir == "nested-new-out" else "pred")
        if out_dir == "kept-out":
            kept = tmp_path / "kept.jsonl"
            kept.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
            assert self.predict(pipeline, kept, out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        capsys.readouterr()
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            assert self.predict(pipeline, path, out, checkpoint) == code
        err = capsys.readouterr().err
        assert message in err
        if fault == "malformed":
            assert f"{path}: line {at + 1}: " in err
        after = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        assert after == before
        # Every directory the run made is gone; the one that was there stays.
        assert not (tmp_path / "new").exists() and tmp_path.is_dir()


class TestFailedRun:
    """A command whose last output fails to write leaves nothing behind: a
    fresh ``--out`` is gone, an existing one keeps its bytes, and no
    temporary file is left."""

    COMMANDS = ["make-synthetic", "ingest", "split", "train-embeddings", "train", "evaluate",
                "sweep-thresholds", "predict"]

    def argv(self, command, pipeline, out):
        given = {"corpus": pipeline["corpus"], "split": pipeline["split"],
                 "embeddings": pipeline["emb"], "checkpoint": pipeline["model"]}
        inputs = {"make-synthetic": [], "ingest": ["corpus"], "split": ["corpus"],
                  "train-embeddings": ["corpus", "split"],
                  "train": ["corpus", "split", "embeddings"],
                  "evaluate": list(given), "sweep-thresholds": list(given),
                  "predict": ["embeddings", "checkpoint"]}[command]
        extra = {"make-synthetic": ["--poets", "2", "--poems-per-poet", "3"],
                 "ingest": ["--corpus", str(pipeline["raw"])],
                 "train-embeddings": ["--dim", "8", "--epochs", "1"], "train": FAST_TRAIN,
                 "predict": ["--input", str(pipeline["raw"])]}.get(command, [])
        target = out / "raw.jsonl" if command == "make-synthetic" else out
        return [command, *(x for k in inputs for x in (f"--{k}", str(given[k]))), *extra,
                "--out", str(target)]

    @pytest.mark.parametrize("fresh", [True, False], ids=["new-out", "kept-out"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_last_write_failing_leaves_nothing(self, pipeline, tmp_path, monkeypatch, capsys,
                                               command, fresh):
        out = tmp_path / "out"
        argv = self.argv(command, pipeline, out)
        if not fresh:  # the outputs of an earlier run, each replaced by other bytes
            assert main(argv) == 0
            for path in out.iterdir():
                path.write_bytes(b"earlier " + path.name.encode())
        before = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        last = "raw.jsonl" if command == "make-synthetic" else "config.json"
        staged_for_real = verseid.cli._staged

        @contextmanager
        def failing(where):
            with staged_for_real(where) as staged:
                def last_fails(name):
                    path = staged(name)
                    if name == last:
                        path.write_bytes(b"partly written")
                        raise OSError("no space left on device")
                    return path
                yield last_fails

        monkeypatch.setattr(verseid.cli, "_staged", failing)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, captured = run(argv, capsys)
        assert code == 2
        assert "error: no space left on device" in captured.err
        after = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        assert after == before
        assert not list(tmp_path.rglob("*.tmp"))


class TestParser:
    """``main`` gives only the command it runs its arguments; what a command
    line parses to, and what help and usage errors print, stay those of the
    parser with every subcommand's arguments."""

    COMMAND_LINES = [
        ["ingest", "--corpus", "c", "--out", "o"],
        ["split", "--corpus", "c", "--ratios", "0.7,0.2,0.1", "--out", "o"],
        ["train-embeddings", "--corpus", "c", "--split", "s", "--out", "o", "--strip-zwnj"],
        ["train", "--corpus", "c", "--split", "s", "--embeddings", "e", "--out", "o",
         "--epochs", "3", "--head-dropout", "0.2", "--features", "text,meter"],
        ["evaluate", "--corpus", "c", "--split", "s", "--embeddings", "e",
         "--checkpoint", "k", "--split-name", "valid", "--out", "o"],
        ["sweep-thresholds", "--corpus", "c", "--split", "s", "--embeddings", "e",
         "--checkpoint", "k", "--taus", "0.5,0.9", "--out", "o"],
        ["predict", "--embeddings", "e", "--checkpoint", "k", "--tau", "0.6", "--out", "o"],
        ["make-synthetic", "--out", "o", "--poets", "3", "--contested-rate", "0.1"],
    ]

    @pytest.mark.parametrize("argv", COMMAND_LINES, ids=lambda argv: argv[0])
    def test_command_line_parses_the_same(self, argv):
        from verseid.cli import build_parser

        assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h", "predict"], ["bogus"], ["predict", "--help"], ["train", "-h"],
        ["predict", "--bogus", "--embeddings", "e", "--checkpoint", "k", "--out", "o"],
        ["train-embeddings", "--corpus", "c", "--split", "s", "--out", "o", "--dim", "0"],
    ])
    def test_help_and_usage_errors_print_the_same(self, argv, capsys):
        from verseid.cli import build_parser

        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        expected = capsys.readouterr()
        assert exit_code(argv) == full.value.code
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("command, inputs", [
        ("ingest", ["--corpus"]),
        ("split", ["--corpus"]),
        ("train-embeddings", ["--corpus", "--split"]),
        ("train", ["--corpus", "--split", "--embeddings"]),
        ("evaluate", ["--corpus", "--split", "--embeddings", "--checkpoint"]),
        ("sweep-thresholds", ["--corpus", "--split", "--embeddings", "--checkpoint"]),
        ("predict", ["--embeddings", "--checkpoint"]),
        ("make-synthetic", []),
    ])
    def test_each_command_requires_its_inputs_then_out(self, capsys, command, inputs):
        assert exit_code([command]) == 2
        required = ", ".join([*inputs, "--out"])
        assert capsys.readouterr().err.endswith(
            f"error: the following arguments are required: {required}\n")


class Stop(Exception):
    """Raised by a stand-in once it has recorded the configs it was given."""


class TestConfigFlags:
    """Each flag that sets a config field reaches that field, and its parser
    default is the field's dataclass default or None."""

    # Per config class: flag -> (field, a value that is no default or preset value).
    EMBEDDING = {"--dim": ("dim", 7), "--window": ("window", 3), "--negatives": ("negatives", 2),
                 "--epochs": ("epochs", 4), "--lr": ("lr", 0.5), "--seed": ("seed", 9)}
    TRAIN = {"--lr": ("lr", 0.125), "--weight-decay": ("weight_decay", 0.5),
             "--batch-size": ("batch_size", 5), "--epochs": ("max_epochs", 7),
             "--patience": ("patience", 6), "--head-hidden": ("head_hidden", 9),
             "--head-dropout": ("head_dropout", 0.25), "--seed": ("seed", 11)}
    ENCODER = {"--d-model": ("d_model", 24), "--n-heads": ("n_heads", 3),
               "--n-layers": ("n_layers", 3), "--d-ff": ("d_ff", 40), "--max-len": ("max_len", 20),
               "--seed": ("seed", 11)}
    SYNTHETIC = {"--poets": ("n_poets", 2), "--poems-per-poet": ("poems_per_poet", 3),
                 "--min-verses": ("min_verses", 2), "--max-verses": ("max_verses", 5),
                 "--formulaic-rate": ("formulaic_rate", 0.5),
                 "--contested-rate": ("contested_rate", 0.5), "--seed": ("seed", 9)}
    # Per command: the function given its configs, the configs, and its input flags.
    COMMANDS = {
        "train-embeddings": ("train_sgns", {EmbeddingConfig: EMBEDDING}, ("corpus", "split")),
        "train": ("fit", {TrainConfig: TRAIN, EncoderConfig: ENCODER},
                  ("corpus", "split", "emb")),
        "make-synthetic": ("make_synthetic_corpus", {SyntheticConfig: SYNTHETIC}, ()),
    }

    def required(self, command, pipeline, tmp_path):
        flag = {"corpus": "--corpus", "split": "--split", "emb": "--embeddings"}
        inputs = self.COMMANDS[command][2]
        return [*(x for name in inputs for x in (flag[name], str(pipeline[name]))),
                "--out", str(tmp_path / "o")]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_flag_reaches_its_field(self, pipeline, tmp_path, monkeypatch, command):
        target, groups, _ = self.COMMANDS[command]
        given = []

        def stand_in(*args):
            given.extend(args)
            raise Stop

        monkeypatch.setattr(verseid.cli, target, stand_in)
        flags = {flag: value for group in groups.values() for flag, (_, value) in group.items()}
        argv = [command, *self.required(command, pipeline, tmp_path),
                *(x for flag, value in flags.items() for x in (flag, str(value)))]
        if command == "train":
            argv.append("--no-class-weights")
        with pytest.raises(Stop):
            main(argv)
        configs = {type(a): a for a in given}
        for cls, group in groups.items():
            for flag, (field, value) in group.items():
                assert getattr(configs[cls], field) == value, (command, flag)
        if command == "train":
            assert configs[TrainConfig].class_weighting == "none"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_flag_defaults_to_its_field(self, pipeline, tmp_path, command):
        groups = self.COMMANDS[command][1]
        args = build_parser(command).parse_args(
            [command, *self.required(command, pipeline, tmp_path)])
        for cls, group in groups.items():
            for flag, (field, _) in group.items():
                default = getattr(args, field)
                assert default is None or default == getattr(cls, field), (command, flag)
        if command == "train":
            assert verseid.cli._fusion_from_arg(args.features) == FusionConfig()


class TestEveryConfigField:
    """Every field of a config a command builds is set by one of its flags, or
    is listed here with the reason no flag sets it."""

    COMMAND_OF = {EmbeddingConfig: "train-embeddings", NormalizationConfig: "train-embeddings",
                  TrainConfig: "train", EncoderConfig: "train", SyntheticConfig: "make-synthetic"}
    UNFLAGGED = {
        (EncoderConfig, "vocab_size"): "the size of the vocabulary that train is given",
        (EmbeddingConfig, "batch_pairs"): "the SGNS reference tests vary it across batch ends",
        # A wide-vocabulary corpus, for probes of the costs that grow with the vocabulary.
        (SyntheticConfig, "core_size"): "sets the vocabulary width, with shared_size",
        (SyntheticConfig, "shared_size"): "sets the vocabulary width, with core_size",
        (SyntheticConfig, "zipf_s"): "sets how the tokens of that vocabulary are spread",
    }

    @pytest.mark.parametrize("cls", COMMAND_OF, ids=lambda cls: cls.__name__)
    def test_each_field_has_a_flag_or_a_reason(self, cls):
        command = self.COMMAND_OF[cls]
        parser = build_parser(command)
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in commands.choices[command]._actions}
        unflagged = {f.name for f in dataclasses.fields(cls)} - dests
        assert unflagged == {name for c, name in self.UNFLAGGED if c is cls}


class TestExitCodes:
    def test_bad_ratios_is_usage_error(self, pipeline, tmp_path, capsys):
        # Rejected by the parser, which exits rather than returning a code.
        assert exit_code(["split", "--corpus", str(pipeline["corpus"]),
                          "--ratios", "0.9,0.2,0.1", "--out", str(tmp_path / "s")]) == 2
        assert "--ratios" in capsys.readouterr().err

    @pytest.mark.parametrize("command, emptied", [
        ("train", "train"), ("train", "valid"), ("evaluate", "test"), ("sweep-thresholds", "test"),
    ])
    def test_empty_split_is_named(self, pipeline, tmp_path, capsys, command, emptied):
        # A hand-edited assignment that moves every poem of one split to another.
        split = tmp_path / "split"
        shutil.copytree(pipeline["split"], split)
        csv_path = split / "assignment.csv"
        other = "valid" if emptied == "train" else "train"
        csv_path.write_text(csv_path.read_text(encoding="utf-8").replace(f",{emptied},", f",{other},"),
                            encoding="utf-8")
        argv = [command, "--corpus", str(pipeline["corpus"]), "--split", str(split),
                "--embeddings", str(pipeline["emb"]), "--out", str(tmp_path / "o")]
        if command != "train":
            argv += ["--checkpoint", str(pipeline["model"])]
        code, captured = run(argv, capsys)
        assert code == 2
        assert captured.err == f"error: no usable verses in the {emptied} split\n"

    def test_missing_corpus_is_usage_error(self, tmp_path):
        assert main(["ingest", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_invalid_jsonl_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code, captured = run(["ingest", "--corpus", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "line 1" in captured.err

    def test_missing_checkpoint_is_artifact_error(self, pipeline, tmp_path, capsys):
        code, captured = run(["evaluate", "--corpus", str(pipeline["corpus"]),
                              "--split", str(pipeline["split"]),
                              "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(tmp_path / "missing"),
                              "--out", str(tmp_path / "e")], capsys)
        assert code == 3
        assert "checkpoint" in captured.err

    def test_missing_split_is_artifact_error(self, pipeline, tmp_path):
        assert main(["train", "--corpus", str(pipeline["corpus"]),
                     "--split", str(tmp_path / "nowhere"),
                     "--embeddings", str(pipeline["emb"]),
                     "--out", str(tmp_path / "m"), *FAST_TRAIN]) == 3

    def test_stale_embeddings_rejected(self, pipeline, tmp_path, capsys):
        # Retraining embeddings with another dimension invalidates the
        # checkpoint, which remembers the hash of what it was trained on.
        emb2 = tmp_path / "emb2"
        assert main(["train-embeddings", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--out", str(emb2),
                     "--dim", "8", "--epochs", "1", "--seed", "1"]) == 0
        code, captured = run(["evaluate", "--corpus", str(pipeline["corpus"]),
                              "--split", str(pipeline["split"]), "--embeddings", str(emb2),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(tmp_path / "e")], capsys)
        assert code == 3
        assert "artifact error" in captured.err
        assert str(pipeline["model"] / "checkpoint.bin") in captured.err
        assert "embeddings.bin" in captured.err

    def test_numerical_blowup_reported(self, pipeline, tmp_path, capsys):
        import numpy as np

        with np.errstate(all="ignore"):
            code, captured = run(["train", "--corpus", str(pipeline["corpus"]),
                                  "--split", str(pipeline["split"]),
                                  "--embeddings", str(pipeline["emb"]),
                                  "--out", str(tmp_path / "m"),
                                  *FAST_TRAIN, "--lr", "1e12"], capsys)
        assert code == 4
        assert "numerical failure" in captured.err

    def test_divergent_embeddings_reported(self, pipeline, tmp_path, capsys):
        out = tmp_path / "emb"
        with np.errstate(all="ignore"):
            code, captured = run(["train-embeddings", "--corpus", str(pipeline["corpus"]),
                                  "--split", str(pipeline["split"]), "--out", str(out),
                                  "--lr", "1e30", "--epochs", "1"], capsys)
        assert code == 4
        assert "numerical failure: non-finite skip-gram loss or weights at epoch 1" in captured.err
        assert not out.exists()

    def test_non_finite_gradient_norm_reported(self, pipeline, tmp_path, capsys, monkeypatch):
        import verseid.model

        real_backward = verseid.model.encoder_backward

        def poisoned(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            grads["tok_emb"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(verseid.model, "encoder_backward", poisoned)
        code, captured = run(["train", "--corpus", str(pipeline["corpus"]),
                              "--split", str(pipeline["split"]),
                              "--embeddings", str(pipeline["emb"]),
                              "--out", str(tmp_path / "m"), *FAST_TRAIN], capsys)
        assert code == 4
        assert "non-finite gradient norm at epoch 1, step 1" in captured.err

    @pytest.mark.parametrize("damage", ["truncated body", "truncated header",
                                        "unreadable metadata", "trailing bytes"])
    def test_damaged_checkpoint_is_artifact_error(self, pipeline, tmp_path, capsys, damage):
        ckpt = tmp_path / "checkpoint.bin"
        blob = (pipeline["model"] / "checkpoint.bin").read_bytes()
        ckpt.write_bytes({
            "truncated body": blob[:-4],
            "truncated header": blob[:10],
            "unreadable metadata": blob[:12] + b"x" + blob[13:],
            "trailing bytes": blob + b"\0\0",
        }[damage])
        code, captured = run(["predict", "--input", "-", "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(ckpt), "--out", str(tmp_path / "p")], capsys)
        assert code == 3
        assert str(ckpt) in captured.err

    @pytest.mark.parametrize("drop", ["log_summary", "space.scaler"])
    def test_checkpoint_metadata_missing_key_is_artifact_error(self, pipeline, tmp_path,
                                                               capsys, drop):
        *path, key = drop.split(".")

        def edit(meta):
            for part in path:
                meta = meta[part]
            del meta[key]

        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt, edit)
        code, captured = run(["predict", "--input", "-", "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(ckpt), "--out", str(tmp_path / "p")], capsys)
        assert code == 3
        assert str(ckpt) in captured.err
        assert repr(key) in captured.err

    # Config edits that no longer describe the parameters of the fixture's
    # model (one layer of width 16, every feature, a 512-wide head).
    LAYOUT_EDITS = {
        "n_heads-0": ("encoder_config", "n_heads", 0),
        "fewer-layers": ("encoder_config", "n_layers", 0),
        "more-layers": ("encoder_config", "n_layers", 3),
        "d_model-32": ("encoder_config", "d_model", 32),
        "no-meter": ("fusion", "use_meter", False),
        "no-text": ("fusion", "use_text", False),
        "head_hidden-256": ("train_config", "head_hidden", 256),
    }

    @pytest.mark.parametrize("case", sorted(LAYOUT_EDITS))
    def test_configs_disagreeing_with_parameters_is_artifact_error(self, pipeline, tmp_path,
                                                                   capsys, case):
        section, key, value = self.LAYOUT_EDITS[case]

        def edit(meta):
            (meta["space"] if section == "fusion" else meta)[section][key] = value

        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt, edit)
        poems = tmp_path / "poems.jsonl"
        poems.write_text(json.dumps({"poem_id": "p", "verses": [["گل و بلبل", "در باغ"]]}) + "\n",
                         encoding="utf-8")
        out = tmp_path / "p"
        code, captured = run(["predict", "--input", str(poems), "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(ckpt), "--out", str(out)], capsys)
        assert code == 3
        assert str(ckpt) in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate", "sweep-thresholds"])
    def test_non_finite_parameters_are_artifact_error(self, pipeline, tmp_path, capsys, command):
        # Resealed, so only the distributions it gives can tell it from a trained one.
        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt, lambda meta: None,
                         params=lambda values: np.full_like(values, np.nan))
        assert main(["predict", "--input", str(pipeline["raw"]), "--embeddings",
                     str(pipeline["emb"]), "--checkpoint", str(pipeline["model"]),
                     "--out", str(tmp_path / "trained")]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        argv = ([command, "--input", str(pipeline["raw"])] if command == "predict" else
                [command, "--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"])])
        with np.errstate(all="ignore"):
            code, captured = run([*argv, "--embeddings", str(pipeline["emb"]),
                                  "--checkpoint", str(ckpt), "--out", str(out)], capsys)
        assert code == 3
        assert f"{ckpt}: its parameters give" in captured.err
        assert "a non-finite distribution" in captured.err
        assert not out.exists()

    def test_vocabulary_not_as_saved_is_artifact_error(self, pipeline, tmp_path, capsys):
        # CRLF line ends parse to the same vocabulary, but the checkpoint
        # records the digest of the bytes train-embeddings wrote.
        emb = tmp_path / "emb"
        shutil.copytree(pipeline["emb"], emb)
        lf = (emb / "vocab.tsv").read_bytes()
        (emb / "vocab.tsv").write_bytes(lf.replace(b"\n", b"\r\n"))
        out = tmp_path / "p"
        code, captured = run(["predict", "--input", str(pipeline["raw"]), "--embeddings", str(emb),
                              "--checkpoint", str(pipeline["model"]), "--out", str(out)], capsys)
        assert code == 3
        assert "the vocabulary (vocab.tsv) is not the one" in captured.err
        assert str(pipeline["model"] / "checkpoint.bin") in captured.err
        assert not out.exists()
        (emb / "vocab.tsv").write_bytes(lf)
        assert run(["predict", "--input", str(pipeline["raw"]), "--embeddings", str(emb),
                    "--checkpoint", str(pipeline["model"]), "--out", str(out)]) == 0

    def test_unsealed_metadata_edit_is_artifact_error(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt,
                         lambda meta: meta["space"].update(max_len=32), reseal=False)
        code, captured = run(["predict", "--input", "-", "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(ckpt), "--out", str(tmp_path / "p")], capsys)
        assert code == 3
        assert f"{ckpt}: checksum mismatch" in captured.err

    # Scaler values that no fitted scaler holds: case -> (edit of the scaler, message).
    SCALER_EDITS = {
        "mean-6-values": (lambda sc: sc.update(mean=sc["mean"][:6]),
                          "scaler 'mean' (6,) and 'std' (7,) differ or are not 1-D"),
        "std-0": (lambda sc: sc.update(std=[0.0, *sc["std"][1:]]),
                  "scaler 'std' holds a value that is not finite and positive"),
        "6-wide": (lambda sc: sc.update(mean=sc["mean"][:6], std=sc["std"][:6]),
                   "scaler 'mean' holds 6 values, not 7"),
    }

    @pytest.mark.parametrize("case", sorted(SCALER_EDITS))
    def test_damaged_scaler_is_artifact_error(self, pipeline, tmp_path, capsys, case):
        change, message = self.SCALER_EDITS[case]
        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt,
                         lambda meta: change(meta["space"]["scaler"]))
        out = tmp_path / "p"
        code, captured = run(["predict", "--input", str(pipeline["raw"]),
                              "--embeddings", str(pipeline["emb"]), "--checkpoint", str(ckpt),
                              "--out", str(out)], capsys)
        assert code == 3
        assert f"artifact error: {ckpt}: {message}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("extra_rows", [-1, 1], ids=["fewer-rows", "more-rows"])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_mismatched_vocab_and_embeddings_is_artifact_error(self, pipeline, tmp_path, capsys,
                                                               command, extra_rows):
        emb_dir = tmp_path / "emb"
        shutil.copytree(pipeline["emb"], emb_dir)
        emb = EmbeddingMatrix.load(emb_dir / "embeddings.bin")
        n_rows = emb.w_in.shape[0] + extra_rows
        EmbeddingMatrix(np.vstack([emb.w_in, emb.w_in[:1]])[:n_rows],
                        np.vstack([emb.w_out, emb.w_out[:1]])[:n_rows],
                        emb.config).save(emb_dir / "embeddings.bin")
        out = tmp_path / "o"
        argv = ([command, "--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"]),
                 *FAST_TRAIN] if command == "train" else
                [command, "--input", str(pipeline["raw"]), "--checkpoint", str(pipeline["model"])])
        code, captured = run([*argv, "--embeddings", str(emb_dir), "--out", str(out)], capsys)
        assert code == 3
        assert f"{emb_dir / 'embeddings.bin'} has {n_rows} rows" in captured.err
        assert str(emb_dir / "vocab.tsv") in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("sealed", [True, False], ids=["resealed", "without-checksum"])
    @pytest.mark.parametrize("command", ["predict", "evaluate", "sweep-thresholds"])
    def test_format1_checkpoint_is_artifact_error(self, pipeline, tmp_path, capsys,
                                                  command, sealed):
        def edit(meta):
            if not sealed:
                del meta["sha256"]

        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt, edit, reseal=sealed,
                         version=1)
        out = tmp_path / "o"
        argv = ([command, "--input", str(pipeline["raw"])] if command == "predict" else
                [command, "--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"])])
        code, captured = run([*argv, "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(ckpt), "--out", str(out)], capsys)
        assert code == 3
        assert f"{ckpt}: checkpoint format 1 is no longer read" in captured.err
        assert "retrain" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("version", [0, 3])
    def test_unknown_checkpoint_version_is_artifact_error(self, pipeline, tmp_path, capsys,
                                                          version):
        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt, lambda meta: None,
                         version=version)
        out = tmp_path / "p"
        code, captured = run(["predict", "--input", str(pipeline["raw"]),
                              "--embeddings", str(pipeline["emb"]), "--checkpoint", str(ckpt),
                              "--out", str(out)], capsys)
        assert code == 3
        assert f"{ckpt}: unsupported checkpoint format version {version}" in captured.err
        assert not out.exists()

    def test_checkpoint_with_constant_dims_predicts_identically(self, pipeline, tmp_path):
        # Format-2 files written while the scaler still recorded its constant
        # dimensions hold the key; it is ignored.
        old = tmp_path / "old" / "checkpoint.bin"
        old.parent.mkdir()
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", old,
                         lambda meta: meta["space"]["scaler"].update(constant_dims=[0]))
        self.assert_predicts_as_written(pipeline, tmp_path, old)

    @staticmethod
    def assert_predicts_as_written(pipeline, tmp_path, old):
        """``predict`` with checkpoint ``old`` writes the CSVs of the fixture's checkpoint."""
        for name, ckpt in (("new", pipeline["model"]), ("old", old)):
            assert main(["predict", "--input", str(pipeline["raw"]),
                         "--embeddings", str(pipeline["emb"]), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / f"pred-{name}")]) == 0
        for csv_name in ("verse_predictions.csv", "poem_predictions.csv"):
            assert ((tmp_path / "pred-new" / csv_name).read_bytes()
                    == (tmp_path / "pred-old" / csv_name).read_bytes())

    def test_checkpoint_states_each_fact_once(self, pipeline):
        blob = (pipeline["model"] / "checkpoint.bin").read_bytes()
        version, meta_len = struct.unpack_from("<II", blob, 4)
        meta = json.loads(blob[12 : 12 + meta_len])
        assert version == 2
        assert "sha256" in meta
        assert not {"format_version", "norm_config", "manifest"} & set(meta)
        assert "max_len" not in meta["space"]
        assert "constant_dims" not in meta["space"]["scaler"]

    @pytest.mark.parametrize("case", ["as-written", "n_heads-4", "poets-swapped", "scaler-mean"])
    @pytest.mark.parametrize("command", ["predict", "evaluate", "sweep-thresholds"])
    def test_format2_without_checksum_is_artifact_error(self, pipeline, tmp_path, capsys,
                                                        command, case):
        # Each edit keeps the parameter layout, so only the seal can catch it.
        def edit(meta):
            del meta["sha256"]
            space = meta["space"]
            if case == "n_heads-4":
                meta["encoder_config"]["n_heads"] = 4
            elif case == "poets-swapped":
                index = space["poet_index"]
                first, second = sorted(index)[:2]
                index[first], index[second] = index[second], index[first]
            elif case == "scaler-mean":
                space["scaler"]["mean"][0] += 1.0

        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt, edit, reseal=False)
        out = tmp_path / "o"
        argv = ([command, "--input", str(pipeline["raw"])] if command == "predict" else
                [command, "--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"])])
        code, captured = run([*argv, "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(ckpt), "--out", str(out)], capsys)
        assert code == 3
        assert f"{ckpt}: checkpoint lacks key 'sha256'" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("index, value, reason", [
        ("poet_index", 0, "which another key has"),
        ("form_index", 9, "outside 0.."),
        ("class_of_meter", 99, "outside 0.."),
    ], ids=["poet-repeated", "form-out-of-range", "meter-out-of-range"])
    def test_checkpoint_index_numbering_its_keys_wrongly_is_artifact_error(
            self, pipeline, tmp_path, capsys, command, index, value, reason):
        # Resealed, the key with id 1 given a repeated or an out-of-range id.
        # Before the check, the out-of-range ids crashed with an IndexError,
        # and a repeated poet id scored the poet's verses against another's.
        edited = []

        def edit(meta):
            space = meta["space"]
            ids = space["meter_map"][index] if index == "class_of_meter" else space[index]
            key = next(k for k, v in ids.items() if v == 1)
            ids[key] = value
            edited.append(key)

        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt, edit)
        out = tmp_path / "o"
        argv = ([command, "--input", str(pipeline["raw"])] if command == "predict" else
                [command, "--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"])])
        code, captured = run([*argv, "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(ckpt), "--out", str(out)], capsys)
        assert code == 3
        assert f"{ckpt}: {index} gives {edited[0]!r} the id {value}, {reason}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("stage, name", [("emb", "vocab.tsv"), ("emb", "embeddings.bin"),
                                             ("split", "assignment.csv"),
                                             ("split", "split_meta.json")])
    def test_non_utf8_artifact_is_artifact_error(self, pipeline, tmp_path, capsys, stage, name):
        dirs = {key: pipeline[key] for key in ("corpus", "split", "emb", "model")}
        dirs[stage] = tmp_path / stage
        shutil.copytree(pipeline[stage], dirs[stage])
        damaged = dirs[stage] / name
        blob = damaged.read_bytes()
        if name == "embeddings.bin":
            # The config JSON re-encoded as UTF-16 (with its byte-order mark,
            # 0xff 0xfe), which json.loads would read from bytes.
            magic, rows, dim, cfg_len = struct.unpack_from("<4sIII", blob)
            cfg = blob[16 : 16 + cfg_len].decode("utf-8").encode("utf-16")
            damaged.write_bytes(struct.pack("<4sIII", magic, rows, dim, len(cfg)) + cfg
                                + blob[16 + cfg_len :])
        else:
            damaged.write_bytes(blob[:40] + b"\xff" + blob[41:])
        code, captured = run(["evaluate", "--corpus", str(dirs["corpus"]),
                              "--split", str(dirs["split"]), "--embeddings", str(dirs["emb"]),
                              "--checkpoint", str(dirs["model"]), "--out", str(tmp_path / "e")],
                             capsys)
        assert code == 3
        assert f"{damaged}: 'utf-8' codec can't decode" in captured.err

    def test_assignment_under_another_poet_is_artifact_error(self, pipeline, tmp_path, capsys):
        split = tmp_path / "split"
        shutil.copytree(pipeline["split"], split)
        damaged = split / "assignment.csv"
        lines = damaged.read_text(encoding="utf-8").splitlines()
        pid, part, poet = lines[1].split(",")
        lines[1] = ",".join([pid, part, poet.upper()])
        damaged.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, captured = run(["evaluate", "--corpus", str(pipeline["corpus"]),
                              "--split", str(split), "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(tmp_path / "e")], capsys)
        assert code == 3
        assert str(damaged) in captured.err
        assert f"another poet than in the corpus: [{pid!r}]" in captured.err

    @pytest.mark.parametrize("command", ["evaluate", "sweep-thresholds"])
    def test_poet_unknown_to_checkpoint_is_artifact_error(self, pipeline, tmp_path, capsys,
                                                          command):
        # One test poem's poet renamed in both the corpus and the assignment.
        data, split = tmp_path / "corpus", tmp_path / "split"
        shutil.copytree(pipeline["corpus"], data)
        shutil.copytree(pipeline["split"], split)
        rows = (split / "assignment.csv").read_text(encoding="utf-8").splitlines()
        i = next(i for i, row in enumerate(rows) if row.split(",")[1] == "test")
        pid, part, poet = rows[i].split(",")
        rows[i] = ",".join([pid, part, "stranger"])
        (split / "assignment.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        records = [json.loads(line) for line in
                   (data / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
        for record in records:
            if record["poem_id"] == pid:
                record["poet"] = "stranger"
        (data / "corpus.jsonl").write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "o"
        code, captured = run([command, "--corpus", str(data), "--split", str(split),
                              "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(pipeline["model"]), "--out", str(out)], capsys)
        assert code == 3
        assert str(pipeline["model"] / "checkpoint.bin") in captured.err
        assert "'stranger'" in captured.err and repr(pid) in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "predict"])
    @pytest.mark.parametrize("damage, where", [
        ("invalid JSON", "line 2: invalid JSON"),
        ("non-UTF-8", "'utf-8' codec can't decode"),
        ("empty", None),
    ])
    def test_input_error_names_the_file(self, pipeline, tmp_path, capsys, command, damage, where):
        lines = (pipeline["corpus"] / "corpus.jsonl").read_bytes().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes({"invalid JSON": lines[0] + b"{\n",
                         "non-UTF-8": lines[0] + b"\xff\n",
                         "empty": b"\n"}[damage])
        argv = (["ingest", "--corpus", str(bad)] if command == "ingest" else
                ["predict", "--input", str(bad), "--embeddings", str(pipeline["emb"]),
                 "--checkpoint", str(pipeline["model"])])
        code, captured = run([*argv, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert captured.err.count(str(bad)) == 1
        if where is None:
            where = "no poems"
        assert f"error: {bad}: {where}" in captured.err

    @pytest.mark.parametrize("command", ["ingest", "predict"])
    @pytest.mark.parametrize("key", ["poem_id", "poet", "form", "meter", "status", "title"])
    @pytest.mark.parametrize("value", [None, 7, ["a"], {"a": "b"}, True],
                             ids=["null", "number", "list", "object", "true"])
    def test_non_string_label_is_usage_error(self, pipeline, tmp_path, capsys,
                                             command, key, value):
        first = (pipeline["corpus"] / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]
        record = {**json.loads(first), key: value}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        argv = (["ingest", "--corpus", str(bad)] if command == "ingest" else
                ["predict", "--input", str(bad), "--embeddings", str(pipeline["emb"]),
                 "--checkpoint", str(pipeline["model"])])
        out = tmp_path / "o"
        code, captured = run([*argv, "--out", str(out)], capsys)
        assert code == 2
        assert f"error: {bad}: line 1: {key!r} must be a string" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("encoder_config", "norm", "pre"),
        ("encoder_config", "positional", "learned"),
        ("encoder_config", "dropout", 0.1),
        ("train_config", "coupled_l2", True),
        ("train_config", "warmup_frac", 0.2),
        ("train_config", "clip_norm", 5.0),
    ])
    def test_retired_variant_is_artifact_error(self, pipeline, tmp_path, capsys,
                                               section, key, value):
        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt,
                         lambda meta: meta[section].update({key: value}))
        code, captured = run(["predict", "--input", "-", "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(ckpt), "--out", str(tmp_path / "p")], capsys)
        assert code == 3
        assert str(ckpt) in captured.err
        assert repr(key) in captured.err

    # Settings of deleted encoder and optimizer variants at the one value an
    # older checkpoint could hold; no format-2 file that train wrote holds them.
    @pytest.mark.parametrize("section, key, value", [
        ("encoder_config", "positional", "sinusoidal"),
        ("encoder_config", "norm", "post"),
        ("encoder_config", "dropout", 0.0),
        ("train_config", "coupled_l2", False),
    ])
    def test_retired_setting_at_its_old_value_is_artifact_error(self, pipeline, tmp_path, capsys,
                                                               section, key, value):
        ckpt = tmp_path / "checkpoint.bin"
        rewrite_metadata(pipeline["model"] / "checkpoint.bin", ckpt,
                         lambda meta: meta[section].update({key: value}))
        out = tmp_path / "p"
        code, captured = run(["predict", "--input", str(pipeline["raw"]),
                              "--embeddings", str(pipeline["emb"]), "--checkpoint", str(ckpt),
                              "--out", str(out)], capsys)
        assert code == 3
        assert f"{ckpt}: " in captured.err
        assert f"unexpected keyword argument {key!r}" in captured.err
        assert not out.exists()

    @staticmethod
    def predict_with_embedding_config(pipeline, tmp_path, capsys, key, old, new):
        """``predict`` with a copy of the fixture's ``embeddings.bin`` whose
        config holds ``new`` for ``key`` (``old`` as written) and whose header
        and arrays are unchanged."""
        emb = tmp_path / "emb"
        shutil.copytree(pipeline["emb"], emb)
        blob = (emb / "embeddings.bin").read_bytes()
        magic, rows, dim, cfg_len = struct.unpack_from("<4sIII", blob)
        cfg = json.loads(blob[16 : 16 + cfg_len])
        assert cfg[key] == old
        cfg = json.dumps({**cfg, key: new}, sort_keys=True).encode("utf-8")
        (emb / "embeddings.bin").write_bytes(
            struct.pack("<4sIII", magic, rows, dim, len(cfg)) + cfg + blob[16 + cfg_len :])
        code, captured = run(["predict", "--input", "-", "--embeddings", str(emb),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(tmp_path / "p")], capsys)
        assert code == 3
        assert str(emb / "embeddings.bin") in captured.err
        assert repr(key) in captured.err

    def test_changed_fixed_embedding_setting_is_artifact_error(self, pipeline, tmp_path, capsys):
        self.predict_with_embedding_config(pipeline, tmp_path, capsys, "min_lr_factor", 1e-4, 1e-3)

    def test_embedding_dim_disagreeing_with_header_is_artifact_error(self, pipeline, tmp_path,
                                                                      capsys):
        # The header's width is 16, the one the arrays have.
        self.predict_with_embedding_config(pipeline, tmp_path, capsys, "dim", 16, 7)

    @pytest.mark.parametrize("damage", ["truncated", "trailing bytes", "bad magic"])
    def test_damaged_embeddings_is_artifact_error(self, pipeline, tmp_path, capsys, damage):
        emb = tmp_path / "emb"
        shutil.copytree(pipeline["emb"], emb)
        blob = (emb / "embeddings.bin").read_bytes()
        (emb / "embeddings.bin").write_bytes({
            "truncated": blob[:-100],
            "trailing bytes": blob + b"\0" * 4,
            "bad magic": b"XXXX" + blob[4:],
        }[damage])
        code, captured = run(["predict", "--input", "-", "--embeddings", str(emb),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(tmp_path / "p")], capsys)
        assert code == 3
        assert str(emb / "embeddings.bin") in captured.err

    @pytest.mark.parametrize("damage, where", [
        ("no seed", "'seed'"),
        ("no ratios", "'ratios'"),
        ("short row", "line 2"),
        ("renamed warnings", "'Warnings'"),
    ])
    def test_damaged_split_is_artifact_error(self, pipeline, tmp_path, capsys, damage, where):
        split = tmp_path / "split"
        shutil.copytree(pipeline["split"], split)
        if damage == "short row":
            damaged = split / "assignment.csv"
            lines = damaged.read_text(encoding="utf-8").splitlines()
            lines[1] = lines[1].rpartition(",")[0]
            damaged.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            damaged = split / "split_meta.json"
            meta = json.loads(damaged.read_text(encoding="utf-8"))
            key = damage.split()[1]
            value = meta.pop(key)
            if damage.startswith("renamed"):
                meta[key.capitalize()] = value
            damaged.write_text(json.dumps(meta), encoding="utf-8")
        code, captured = run(["train", "--corpus", str(pipeline["corpus"]), "--split", str(split),
                              "--embeddings", str(pipeline["emb"]),
                              "--out", str(tmp_path / "m"), *FAST_TRAIN], capsys)
        assert code == 3
        assert str(damaged) in captured.err
        assert where in captured.err

    @pytest.mark.parametrize("key, value", [
        ("seed", 7.9), ("seed", "7"), ("seed", -1), ("seed", True), ("seed", None),
        ("ratios", [0.5, 0.5]), ("ratios", [0.8, 0.2, 0.1]), ("ratios", [0.8, 0.1, "0.1"]),
        ("ratios", "0.8,0.1,0.1"), ("ratios", [1, 0, 0]),
        ("warnings", "none"), ("warnings", ["ok", 3]), ("warnings", {}),
    ])
    def test_invalid_split_metadata_value_is_artifact_error(self, pipeline, tmp_path, capsys,
                                                            key, value):
        split = tmp_path / "split"
        shutil.copytree(pipeline["split"], split)
        damaged = split / "split_meta.json"
        meta = json.loads(damaged.read_text(encoding="utf-8"))
        meta[key] = value
        damaged.write_text(json.dumps(meta), encoding="utf-8")
        code, captured = run(["evaluate", "--corpus", str(pipeline["corpus"]),
                              "--split", str(split), "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(tmp_path / "e")], capsys)
        assert code == 3
        assert str(damaged) in captured.err
        assert f"key {key!r}" in captured.err

    @pytest.mark.parametrize("damage, where", [
        ("no header", "line 1"),
        ("junk line", "line 6"),
        ("id 999", "line 6"),
        ("unknown config key", "'bogus'"),
        ("fixed step disabled", "'map_yeh'"),
    ])
    def test_damaged_vocabulary_is_artifact_error(self, pipeline, tmp_path, capsys, damage, where):
        emb = tmp_path / "emb"
        shutil.copytree(pipeline["emb"], emb)
        lines = (emb / "vocab.tsv").read_text(encoding="utf-8").splitlines()
        if damage == "no header":
            del lines[0]
        elif damage == "junk line":
            lines.insert(5, "junkline")
        elif damage == "id 999":
            lines[5] = lines[5].rpartition("\t")[0] + "\t999"
        elif damage == "fixed step disabled":
            lines[0] = lines[0].replace('"map_yeh": true', '"map_yeh": false')
        else:
            lines[0] = lines[0].replace("{", '{"bogus": true, ', 1)
        (emb / "vocab.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, captured = run(["predict", "--input", "-", "--embeddings", str(emb),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(tmp_path / "p")], capsys)
        assert code == 3
        assert str(emb / "vocab.tsv") in captured.err
        assert where in captured.err

    def test_each_command_checks_leakage_once(self, pipeline, tmp_path, monkeypatch):
        import verseid.cli
        import verseid.split

        calls = []
        real = verseid.split.verify_no_leakage

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verseid.split, "verify_no_leakage", counting)
        monkeypatch.setattr(verseid.cli, "verify_no_leakage", counting)
        data = ["--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"])]
        for argv in (
            ["train-embeddings", *data, "--out", str(tmp_path / "emb"), "--dim", "8",
             "--epochs", "1"],
            ["train", *data, "--embeddings", str(pipeline["emb"]), "--out", str(tmp_path / "m"),
             *FAST_TRAIN],
            ["evaluate", *data, "--embeddings", str(pipeline["emb"]),
             "--checkpoint", str(pipeline["model"]), "--out", str(tmp_path / "e")],
        ):
            calls.clear()
            assert main(argv) == 0
            assert len(calls) == 1, argv[0]

    THRESHOLD_ERRORS = [
        ("evaluate", "--tau", "nan", "not a finite number"),
        ("predict", "--tau", "inf", "not a finite number"),
        ("sweep-thresholds", "--taus", "0.5,nan", "not a finite number"),
        ("sweep-thresholds", "--taus", ",", "no thresholds given"),
        ("sweep-thresholds", "--taus", "0.9,0.5", "not sorted ascending"),
    ]

    @pytest.mark.parametrize("command, flag, value, message", THRESHOLD_ERRORS,
                             ids=["-".join(case[:3]) for case in THRESHOLD_ERRORS])
    def test_non_finite_threshold_is_usage_error(self, pipeline, tmp_path, capsys,
                                                 command, flag, value, message):
        out = tmp_path / "o"
        common = ["--embeddings", str(pipeline["emb"]), "--checkpoint", str(pipeline["model"]),
                  "--out", str(out), flag, value]
        if command != "predict":
            common += ["--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"])]
        with pytest.raises(SystemExit) as exc:
            main([command, *common])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "not a finite number"),
        ("--lr", "inf", "not a finite number"),
        ("--lr", "0", "not a positive number"),
        ("--dim", "0", "not a positive integer"),
        ("--dim", "abc", "invalid int value: 'abc'"),
        ("--window", "0", "not a positive integer"),
        ("--negatives", "-1", "not a positive integer"),
        ("--epochs", "0", "not a positive integer"),
        ("--min-freq", "0", "not a positive integer"),
        ("--seed", "-1", "not a non-negative integer"),
    ])
    def test_unusable_embedding_setting_is_usage_error(self, pipeline, tmp_path, capsys,
                                                       flag, value, message):
        out = tmp_path / "emb"
        with pytest.raises(SystemExit) as exc:
            main(["train-embeddings", "--corpus", str(pipeline["corpus"]),
                  "--split", str(pipeline["split"]), "--out", str(out), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "0", "not a positive number"),
        ("--lr", "nan", "not a finite number"),
        ("--lr", "x", "invalid float value: 'x'"),
        ("--weight-decay", "-0.1", "not in [0, inf]"),
        ("--weight-decay", "inf", "not a finite number"),
        ("--batch-size", "0", "not a positive integer"),
        ("--epochs", "0", "not a positive integer"),
        ("--patience", "0", "not a positive integer"),
        ("--head-hidden", "0", "not a positive integer"),
        ("--head-dropout", "1", "not in [0, 1)"),
        ("--head-dropout", "nan", "not a finite number"),
        ("--d-model", "0", "not a positive integer"),
        ("--n-heads", "0", "not a positive integer"),
        ("--n-layers", "0", "not a positive integer"),
        ("--d-ff", "0", "not a positive integer"),
        ("--max-len", "0", "not a positive integer"),
        ("--features", "", "no features given"),
        ("--features", " , ", "no features given"),
        ("--seed", "-1", "not a non-negative integer"),
    ])
    def test_unusable_train_setting_is_usage_error(self, pipeline, tmp_path, capsys,
                                                   flag, value, message):
        out = tmp_path / "m"
        assert exit_code(["train", "--corpus", str(pipeline["corpus"]),
                          "--split", str(pipeline["split"]), "--embeddings", str(pipeline["emb"]),
                          "--out", str(out), *FAST_TRAIN, flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--poets", "0"], "--poets: not a positive integer"),
        (["--poets", "-2"], "--poets: not a positive integer"),
        (["--poems-per-poet", "0"], "--poems-per-poet: not a positive integer"),
        (["--min-verses", "0"], "--min-verses: not a positive integer"),
        (["--max-verses", "0"], "--max-verses: not a positive integer"),
        (["--formulaic-rate", "nan"], "--formulaic-rate: not a finite number"),
        (["--formulaic-rate", "1.5"], "--formulaic-rate: not in [0, 1]"),
        (["--contested-rate", "-0.1"], "--contested-rate: not in [0, 1]"),
        (["--min-verses", "5", "--max-verses", "3"],
         "--min-verses 5 is greater than --max-verses 3"),
        (["--seed", "-1"], "--seed: not a non-negative integer"),
    ])
    def test_unusable_synthetic_setting_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "raw.jsonl"
        assert exit_code(["make-synthetic", "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["split", "--seed", "-1"], "--seed: not a non-negative integer: '-1'"),
        (["split", "--ratios", "0.5,0.5"],
         "--ratios: not three positive numbers summing to 1: '0.5,0.5'"),
        (["split", "--ratios", "0.9,0.2,-0.1"],
         "--ratios: not three positive numbers summing to 1: '0.9,0.2,-0.1'"),
        (["ingest", "--min-verses", "-4"], "--min-verses: not a non-negative integer: '-4'"),
    ])
    def test_unusable_corpus_setting_is_rejected_before_loading(self, tmp_path, capsys,
                                                                 argv, message):
        # The corpus does not exist: the flag check comes first.
        out = tmp_path / "o"
        assert exit_code([*argv, "--corpus", str(tmp_path / "none"), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("split", "--ratios", "0.8,,0.1,0.1"),
        ("split", "--ratios", ",0.8,0.1,0.1"),
        ("sweep-thresholds", "--taus", "0.5,,0.9,"),
        ("sweep-thresholds", "--taus", "0.5, ,0.9"),
    ])
    def test_empty_list_item_is_rejected_before_loading(self, tmp_path, capsys,
                                                        command, flag, value):
        # No input exists: the flag check comes first.
        none, out = str(tmp_path / "none"), tmp_path / "o"
        argv = [command, "--corpus", none, "--out", str(out), flag, value]
        if command == "sweep-thresholds":
            argv += ["--split", none, "--embeddings", none, "--checkpoint", none]
        assert exit_code(argv) == 2
        assert f"{flag}: empty item in list: {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep-thresholds", "predict"])
    def test_confidence_flag_is_gone(self, pipeline, tmp_path, command):
        argv = [command, "--embeddings", str(pipeline["emb"]),
                "--checkpoint", str(pipeline["model"]), "--out", str(tmp_path / "o"),
                "--confidence", "mean"]
        if command != "predict":
            argv += ["--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"])]
        assert exit_code(argv) == 2

    def test_heads_not_dividing_width_is_rejected_before_loading(self, tmp_path, capsys):
        # The corpus, split and embeddings do not exist: the head check comes first.
        out = tmp_path / "m"
        code, captured = run(["train", "--corpus", str(tmp_path / "none"),
                              "--split", str(tmp_path / "none"),
                              "--embeddings", str(tmp_path / "none"), "--out", str(out),
                              "--d-model", "64", "--n-heads", "3"], capsys)
        assert code == 2
        assert "--d-model 64 is not divisible by --n-heads 3" in captured.err
        assert not out.exists()

    def test_unknown_feature_is_usage_error(self, pipeline, tmp_path, capsys):
        code, captured = run(["train", "--corpus", str(pipeline["corpus"]),
                              "--split", str(pipeline["split"]),
                              "--embeddings", str(pipeline["emb"]),
                              "--out", str(tmp_path / "m"),
                              *FAST_TRAIN, "--features", "text,rhyme"], capsys)
        assert code == 2
        assert "unknown features" in captured.err


def mutate(blob, rng, kind):
    """``blob`` cut short (kind 0), or with one bit flipped anywhere (kind 1)
    or in its first 300 bytes (kind 2)."""
    if kind == 0:
        return blob[: int(rng.integers(0, len(blob)))]
    pos = int(rng.integers(0, len(blob) if kind == 1 else min(300, len(blob))))
    out = bytearray(blob)
    out[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(out)


class TestCorruptionFuzz:
    # Each file evaluate reads, by the pipeline directory that holds it.
    FILES = [("vocab.tsv", "emb"), ("embeddings.bin", "emb"), ("checkpoint.bin", "model"),
             ("assignment.csv", "split"), ("split_meta.json", "split"),
             ("corpus.jsonl", "corpus")]
    TRIALS = 24

    def test_damage_is_reported_or_changes_nothing(self, pipeline, tmp_path, capsys):
        """A damaged artifact exits 3 naming it, or leaves every output as it
        was; a damaged corpus, which is user input, may also change the
        outputs or exit 2 naming the file, but never crashes."""
        dirs = {}
        for stage in ("corpus", "split", "emb", "model"):
            dirs[stage] = tmp_path / stage
            shutil.copytree(pipeline[stage], dirs[stage])
        out = tmp_path / "out"
        argv = ["evaluate", "--corpus", str(dirs["corpus"]), "--split", str(dirs["split"]),
                "--embeddings", str(dirs["emb"]), "--checkpoint", str(dirs["model"]),
                "--out", str(out)]
        checkpoint = str(dirs["model"] / "checkpoint.bin")

        def outputs():
            outs = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
            return outs

        assert main(argv) == 0
        clean = outputs()
        rng = np.random.default_rng(0)
        for name, stage in self.FILES:
            target = dirs[stage] / name
            original = target.read_bytes()
            for trial in range(self.TRIALS):
                damaged = mutate(original, rng, trial % 3)
                target.write_bytes(damaged)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # e.g. verses left with no tokens
                    code, captured = run(argv, capsys)
                what = f"{name}, trial {trial}: exit {code}, {captured.err!r}"
                if name == "corpus.jsonl":
                    assert code in (0, 2, 3), what
                    assert code != 2 or str(target) in captured.err, what
                elif code == 3:
                    # Damage that still parses shows as a hash the checkpoint
                    # holds for another vocabulary or embedding matrix.
                    assert str(target) in captured.err or (
                        name in captured.err and checkpoint in captured.err), what
                else:
                    assert code == 0 and outputs() == clean, what
                shutil.rmtree(out, ignore_errors=True)
            target.write_bytes(original)


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "verseid" in capsys.readouterr().out

    def test_feature_ablation_flag_trains(self, pipeline, tmp_path):
        out = tmp_path / "nometer"
        assert main(["train", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--embeddings", str(pipeline["emb"]),
                     "--out", str(out), *FAST_TRAIN,
                     "--features", "text,semantic,stylometric,form"]) == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["fusion"]["use_meter"] is False

    def test_text_ablation_trains_and_predicts_without_encoder(self, pipeline, tmp_path):
        model = tmp_path / "notext"
        assert main(["train", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--embeddings", str(pipeline["emb"]),
                     "--out", str(model), *FAST_TRAIN,
                     "--features", "semantic,stylometric,form,meter"]) == 0
        names = [name for name, _ in load_model(model / "checkpoint.bin", pipeline["emb"]).manifest]
        assert names and all(name.startswith("head.") for name in names)
        poems = pipeline["corpus"] / "corpus.jsonl"
        assert main(["predict", "--input", str(poems), "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(model), "--out", str(tmp_path / "pred")]) == 0
