"""End-to-end command-line pipeline tests."""

import csv
import io
import json
import shutil
import struct

import numpy as np
import pytest

from verseid.cli import main


def run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


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


class TestArtifacts:
    def test_every_stage_writes_its_resolved_config(self, pipeline):
        for stage in ("corpus", "split", "emb", "model", "eval", "sweep"):
            cfg = json.loads((pipeline[stage] / "config.json").read_text())
            assert "command" in cfg and "version" in cfg

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

    def test_sweep_outputs(self, pipeline):
        lines = (pipeline["sweep"] / "sweep.csv").read_text().splitlines()
        assert lines[0] == "threshold,accuracy,coverage,covered,total"
        assert len(lines) == 4
        covs = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(covs, covs[1:]))


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

    def test_predict_csv_quotes_poem_ids(self, pipeline, tmp_path):
        poems = tmp_path / "poems.jsonl"
        record = {"poem_id": 'a,b "c"', "verses": [["گل و بلبل", "در باغ"]]}
        poems.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "pred"
        assert main(["predict", "--input", str(poems), "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(pipeline["model"]), "--out", str(out)]) == 0
        for name, n_rows in (("verse_predictions.csv", 1), ("poem_predictions.csv", 3)):
            with open(out / name, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert len(rows) == n_rows
            assert all(len(row) == len(header) and row[0] == 'a,b "c"' for row in rows)

    def test_predict_from_stdin(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.poems_jsonl()))
        out = tmp_path / "pred"
        assert main(["predict", "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(pipeline["model"]), "--out", str(out)]) == 0
        assert (out / "verse_predictions.csv").exists()

    def test_predict_rejects_verseless_input(self, pipeline, tmp_path, capsys):
        poems = tmp_path / "poems.jsonl"
        poems.write_text('{"poem_id": "x"}\n', encoding="utf-8")
        code, captured = run(["predict", "--input", str(poems),
                              "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(pipeline["model"]),
                              "--out", str(tmp_path / "pred")], capsys)
        assert code == 2
        assert "poem_id and verses" in captured.err

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


class TestExitCodes:
    def test_bad_ratios_is_usage_error(self, pipeline, tmp_path, capsys):
        code, captured = run(["split", "--corpus", str(pipeline["corpus"]),
                              "--ratios", "0.9,0.2,0.1", "--out", str(tmp_path / "s")], capsys)
        assert code == 2
        assert "ratios" in captured.err

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
        blob = (pipeline["model"] / "checkpoint.bin").read_bytes()
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        meta = json.loads(blob[12 : 12 + meta_len])
        *path, key = drop.split(".")
        owner = meta
        for part in path:
            owner = owner[part]
        del owner[key]
        new_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(new_meta)) + new_meta
                         + blob[12 + meta_len :])
        code, captured = run(["predict", "--input", "-", "--embeddings", str(pipeline["emb"]),
                              "--checkpoint", str(ckpt), "--out", str(tmp_path / "p")], capsys)
        assert code == 3
        assert str(ckpt) in captured.err
        assert repr(key) in captured.err

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
            del meta[damage.split()[1]]
            damaged.write_text(json.dumps(meta), encoding="utf-8")
        code, captured = run(["train", "--corpus", str(pipeline["corpus"]), "--split", str(split),
                              "--embeddings", str(pipeline["emb"]),
                              "--out", str(tmp_path / "m"), *FAST_TRAIN], capsys)
        assert code == 3
        assert str(damaged) in captured.err
        assert where in captured.err

    @pytest.mark.parametrize("damage, where", [
        ("no header", "line 1"),
        ("junk line", "line 6"),
        ("id 999", "line 6"),
        ("unknown config key", "'bogus'"),
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

    @pytest.mark.parametrize("command, flag, value", [
        ("evaluate", "--tau", "nan"),
        ("predict", "--tau", "inf"),
        ("sweep-thresholds", "--taus", "0.5,nan"),
    ])
    def test_non_finite_threshold_is_usage_error(self, pipeline, tmp_path, capsys,
                                                 command, flag, value):
        common = ["--embeddings", str(pipeline["emb"]), "--checkpoint", str(pipeline["model"]),
                  "--out", str(tmp_path / "o"), flag, value]
        if command != "predict":
            common += ["--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"])]
        with pytest.raises(SystemExit) as exc:
            main([command, *common])
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_unknown_feature_is_usage_error(self, pipeline, tmp_path, capsys):
        code, captured = run(["train", "--corpus", str(pipeline["corpus"]),
                              "--split", str(pipeline["split"]),
                              "--embeddings", str(pipeline["emb"]),
                              "--out", str(tmp_path / "m"),
                              *FAST_TRAIN, "--features", "text,rhyme"], capsys)
        assert code == 2
        assert "unknown features" in captured.err


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
        blob = (model / "checkpoint.bin").read_bytes()
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        names = [name for name, _ in json.loads(blob[12 : 12 + meta_len])["manifest"]]
        assert names and all(name.startswith("head.") for name in names)
        poems = pipeline["corpus"] / "corpus.jsonl"
        assert main(["predict", "--input", str(poems), "--embeddings", str(pipeline["emb"]),
                     "--checkpoint", str(model), "--out", str(tmp_path / "pred")]) == 0
