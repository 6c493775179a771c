"""Command-line interface for the attribution pipeline.

Typical flow::

    verseid make-synthetic --out raw.jsonl
    verseid ingest --corpus raw.jsonl --out work/corpus
    verseid split --corpus work/corpus --seed 7 --out work/split
    verseid train-embeddings --corpus work/corpus --split work/split --out work/emb
    verseid train --corpus work/corpus --split work/split --embeddings work/emb \
        --preset desk --out work/model
    verseid evaluate --corpus work/corpus --split work/split --embeddings work/emb \
        --checkpoint work/model/checkpoint.bin --out work/eval
    verseid sweep-thresholds ... --out work/sweep
    verseid predict --input poems.jsonl --embeddings work/emb \
        --checkpoint work/model/checkpoint.bin --out work/pred

Exit codes: 0 success, 2 usage or input error, 3 stale or missing
artifacts, 4 numerical failure. Every command writes its resolved
configuration to ``config.json`` in the output directory, and outputs are
byte-identical across reruns with the same inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__
from .aggregate import aggregate_poem, predictions_csv, sweep_csv, sweep_thresholds
from .corpus import Corpus, CorpusError, PoemRecord, corpus_stats, filter_corpus, load_corpus, read_records, save_corpus
from .embeddings import EmbeddingConfig, EmbeddingMatrix, train_sgns
from .encoder import EncoderConfig
from .metrics import classification_report
from .model import (
    FeatureSpace,
    FusionConfig,
    ModelBundle,
    NumericalError,
    StaleArtifactError,
    TrainConfig,
    build_dataset,
    fit,
    load_checkpoint,
    poem_probability_groups,
    predict_proba,
    save_checkpoint,
    training_log_csv,
)
from .normalize import NormalizationConfig, Vocabulary, build_vocab, normalize_verse
from .split import SPLIT_NAMES, LeakageError, SplitAssignment, split_records, stratified_poem_split, verify_no_leakage
from .synthetic import SyntheticConfig, make_synthetic_corpus

CORPUS_FILE = "corpus.jsonl"
STATS_JSON = "stats.json"
STATS_TEXT = "stats.txt"
CONFIG_FILE = "config.json"
ASSIGNMENT_CSV = "assignment.csv"
SPLIT_META = "split_meta.json"
VOCAB_FILE = "vocab.tsv"
EMBEDDINGS_FILE = "embeddings.bin"
CHECKPOINT_FILE = "checkpoint.bin"
TRAINLOG_CSV = "trainlog.csv"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STALE = 3
EXIT_NUMERIC = 4

STRATEGIES = ("majority", "weighted", "thresholded")


def _write_config(out_dir: Path, command: str, payload: dict) -> None:
    payload = {"command": command, "version": __version__, **payload}
    (out_dir / CONFIG_FILE).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _corpus_path(arg: str) -> Path:
    p = Path(arg)
    return p / CORPUS_FILE if p.is_dir() else p


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise StaleArtifactError(f"missing {what}: {path}")
    return path


def _load_splits(args) -> tuple[Corpus, dict[str, list[PoemRecord]]]:
    """The corpus and its records by split name, checked for leakage once."""
    corpus = load_corpus(_corpus_path(args.corpus))
    p = Path(args.split)
    csv_path = p / ASSIGNMENT_CSV if p.is_dir() else p
    meta_path = csv_path.with_name(SPLIT_META)
    _require(csv_path, "split assignment")
    _require(meta_path, "split metadata")
    assignment = SplitAssignment.load(csv_path, meta_path)
    return corpus, dict(zip(SPLIT_NAMES, split_records(corpus, assignment)))


def _load_artifacts(emb_dir: str) -> tuple[Vocabulary, EmbeddingMatrix]:
    d = Path(emb_dir)
    vocab = Vocabulary.load(_require(d / VOCAB_FILE, "vocabulary"))
    emb = EmbeddingMatrix.load(_require(d / EMBEDDINGS_FILE, "embeddings"))
    return vocab, emb


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_floats(text: str) -> list[float]:
    return [_finite_float(x) for x in text.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    corpus = load_corpus(_corpus_path(args.corpus))
    filtered = filter_corpus(corpus, min_verses_per_poet=args.min_verses)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(filtered, out / CORPUS_FILE)
    stats = corpus_stats(filtered)
    (out / STATS_JSON).write_text(stats.to_json() + "\n", encoding="utf-8")
    (out / STATS_TEXT).write_text(stats.to_text(), encoding="utf-8")
    _write_config(out, "ingest", {"corpus": str(args.corpus), "min_verses": args.min_verses})
    print(
        f"ingested {len(corpus)} poems -> kept {len(filtered)} "
        f"({stats.n_poets} poets, {stats.n_verses} verses)"
    )
    return EXIT_OK


def cmd_split(args) -> int:
    corpus = load_corpus(_corpus_path(args.corpus))
    ratios = tuple(args.ratios)
    assignment = stratified_poem_split(corpus, ratios=ratios, seed=args.seed)
    verify_no_leakage(assignment, corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    assignment.save(out / ASSIGNMENT_CSV, out / SPLIT_META)
    _write_config(
        out, "split", {"corpus": str(args.corpus), "seed": args.seed, "ratios": list(ratios)}
    )
    counts = assignment.counts()
    print(
        f"split {len(assignment.rows)} poems: "
        + ", ".join(f"{k}={v}" for k, v in counts.items())
        + (f" ({len(assignment.warnings)} warnings)" if assignment.warnings else "")
    )
    return EXIT_OK


def cmd_train_embeddings(args) -> int:
    _, splits = _load_splits(args)
    norm_cfg = NormalizationConfig(strip_zwnj=args.strip_zwnj)
    tokens = []
    for r in splits["train"]:
        for v in r.verses:
            t1, t2 = normalize_verse(v, norm_cfg)
            # Interned, so the many repeats of a token share one string.
            tokens.append([sys.intern(t) for t in t1 + t2])
    vocab = build_vocab(tokens, norm_cfg, min_freq=args.min_freq)
    sequences = [[vocab.id_of(t) for t in toks] for toks in tokens]
    del tokens  # SGNS needs only the ids
    emb_cfg = EmbeddingConfig(
        dim=args.dim,
        window=args.window,
        negatives=args.negatives,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
    )
    emb, losses = train_sgns(sequences, len(vocab), emb_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / VOCAB_FILE)
    emb.save(out / EMBEDDINGS_FILE)
    _write_config(
        out,
        "train-embeddings",
        {
            "corpus": str(args.corpus),
            "split": str(args.split),
            "embedding": emb_cfg.to_dict(),
            "normalization": norm_cfg.to_dict(),
            "min_freq": args.min_freq,
            "loss_by_epoch": losses,
        },
    )
    print(f"vocabulary {len(vocab)} tokens; embeddings {emb.w_in.shape} trained")
    return EXIT_OK


def _fusion_from_arg(features: str) -> FusionConfig:
    wanted = {f.strip() for f in features.split(",") if f.strip()}
    known = {"text", "semantic", "stylometric", "form", "meter"}
    bad = wanted - known
    if bad:
        raise ValueError(f"unknown features: {sorted(bad)} (choose from {sorted(known)})")
    return FusionConfig(
        use_text="text" in wanted,
        use_semantic="semantic" in wanted,
        use_stylometric="stylometric" in wanted,
        use_form="form" in wanted,
        use_meter="meter" in wanted,
    )


def cmd_train(args) -> int:
    corpus, splits = _load_splits(args)
    vocab, emb = _load_artifacts(args.embeddings)

    base = TrainConfig.desk() if args.preset == "desk" else TrainConfig()
    tcfg = TrainConfig(
        lr=args.lr if args.lr is not None else base.lr,
        weight_decay=args.weight_decay if args.weight_decay is not None else base.weight_decay,
        coupled_l2=args.coupled_l2,
        batch_size=args.batch_size or base.batch_size,
        max_epochs=args.epochs or base.max_epochs,
        patience=args.patience or base.patience,
        warmup_frac=base.warmup_frac,
        clip_norm=base.clip_norm,
        head_hidden=args.head_hidden or base.head_hidden,
        head_dropout=args.head_dropout if args.head_dropout is not None else base.head_dropout,
        class_weighting="none" if args.no_class_weights else base.class_weighting,
        seed=args.seed,
    )
    enc_cfg = EncoderConfig(
        vocab_size=len(vocab),
        d_model=args.d_model,
        n_heads=args.n_heads,
        n_layers=args.n_layers,
        d_ff=args.d_ff,
        max_len=args.max_len,
        dropout=args.encoder_dropout,
        positional=args.positional,
        norm=args.norm,
        seed=args.seed,
    )
    fusion = _fusion_from_arg(args.features)
    poet_index = {p: i for i, p in enumerate(sorted({r.poet for r in corpus.records}))}
    form_index = {f: i for i, f in enumerate(sorted({r.form for r in corpus.records}))}
    space, train_ds = FeatureSpace.fit(
        splits["train"], vocab, emb, form_index, poet_index, fusion, max_len=args.max_len
    )
    valid_ds = build_dataset(splits["valid"], space)
    bundle = fit(train_ds, valid_ds, space, enc_cfg, tcfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(bundle, out / CHECKPOINT_FILE)
    (out / TRAINLOG_CSV).write_text(training_log_csv(bundle.log), encoding="utf-8")
    _write_config(
        out,
        "train",
        {
            "corpus": str(args.corpus),
            "split": str(args.split),
            "embeddings": str(args.embeddings),
            "train": tcfg.to_dict(),
            "encoder": enc_cfg.to_dict(),
            "fusion": fusion.to_dict(),
            "log_summary": bundle.log_summary,
        },
    )
    s = bundle.log_summary
    print(
        f"trained {s['epochs_run']} epochs; best epoch {s['best_epoch']} "
        f"valid accuracy {s['best_valid_accuracy']:.4f}"
    )
    return EXIT_OK


def _load_bundle(args) -> ModelBundle:
    vocab, emb = _load_artifacts(args.embeddings)
    ckpt = Path(args.checkpoint)
    if ckpt.is_dir():
        ckpt = ckpt / CHECKPOINT_FILE
    return load_checkpoint(_require(ckpt, "checkpoint"), vocab, emb)


def _eval_data(args, bundle: ModelBundle):
    _, splits = _load_splits(args)
    ds = build_dataset(splits[args.split_name], bundle.space)
    probs = predict_proba(ds, bundle)
    return ds, probs


def cmd_evaluate(args) -> int:
    bundle = _load_bundle(args)
    ds, probs = _eval_data(args, bundle)
    poet_names = bundle.space.poet_names
    n_classes = len(poet_names)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    verse_report = classification_report(ds.labels, probs.argmax(axis=1), n_classes, poet_names)
    (out / "eval_verse.json").write_text(verse_report.to_json() + "\n", encoding="utf-8")
    (out / "eval_verse.txt").write_text(verse_report.to_text(), encoding="utf-8")

    poem_ids, matrices, truth = poem_probability_groups(ds, probs)
    all_preds = []
    for strategy in STRATEGIES:
        preds = [
            aggregate_poem(pid, m, strategy, tau=args.tau, confidence=args.confidence)
            for pid, m in zip(poem_ids, matrices)
        ]
        all_preds.extend(preds)
        if strategy == "thresholded":
            kept = [(p.predicted_poet, t) for p, t in zip(preds, truth) if not p.abstained]
            coverage = len(kept) / len(preds) if preds else 0.0
            yhat = [k for k, _ in kept]
            ytrue = [t for _, t in kept]
            report = classification_report(ytrue, yhat, n_classes, poet_names, coverage=coverage)
        else:
            report = classification_report(
                truth, [p.predicted_poet for p in preds], n_classes, poet_names
            )
        (out / f"eval_{strategy}.json").write_text(report.to_json() + "\n", encoding="utf-8")
        (out / f"eval_{strategy}.txt").write_text(report.to_text(), encoding="utf-8")
    (out / "poem_predictions.csv").write_text(
        predictions_csv(all_preds, poet_names), encoding="utf-8"
    )
    _write_config(
        out,
        "evaluate",
        {
            "corpus": str(args.corpus),
            "split": str(args.split),
            "checkpoint": str(args.checkpoint),
            "split_name": args.split_name,
            "tau": args.tau,
            "confidence": args.confidence,
        },
    )
    print(f"verse accuracy {verse_report.accuracy:.4f} on {args.split_name}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    bundle = _load_bundle(args)
    ds, probs = _eval_data(args, bundle)
    _, matrices, truth = poem_probability_groups(ds, probs)
    taus = args.taus
    rows = sweep_thresholds(matrices, truth, taus, confidence=args.confidence)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(sweep_csv(rows), encoding="utf-8")
    _write_config(
        out,
        "sweep-thresholds",
        {
            "corpus": str(args.corpus),
            "split": str(args.split),
            "checkpoint": str(args.checkpoint),
            "split_name": args.split_name,
            "taus": taus,
            "confidence": args.confidence,
        },
    )
    for r in rows:
        acc = "NA" if r.accuracy is None else f"{r.accuracy:.4f}"
        print(f"tau={r.threshold:g} accuracy={acc} coverage={r.coverage:.4f}")
    return EXIT_OK


def _read_poems(path: str | None) -> list[PoemRecord]:
    """Prediction input from a JSONL file, or stdin for ``None`` or ``-``."""
    if path in (None, "-"):
        records = read_records(sys.stdin, labelled=False)
    else:
        with open(path, encoding="utf-8") as fh:
            records = read_records(fh, labelled=False)
    if not records:
        raise CorpusError("no poems to predict")
    return records


def cmd_predict(args) -> int:
    bundle = _load_bundle(args)
    records = _read_poems(args.input)
    ds = build_dataset(records, bundle.space)
    probs = predict_proba(ds, bundle)
    poet_names = bundle.space.poet_names
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "verse_predictions.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["poem_id", "verse_index", "label", "confidence",
                         *(f"p_{p}" for p in poet_names)])
        for pid, vi, row in zip(ds.poem_ids, ds.verse_indices, probs):
            top = int(row.argmax())
            writer.writerow([pid, vi, poet_names[top], f"{row[top]:.6f}",
                             *(f"{x:.6f}" for x in row)])

    poem_ids, matrices, _ = poem_probability_groups(ds, probs)
    preds = [
        aggregate_poem(pid, m, strategy, tau=args.tau, confidence=args.confidence)
        for strategy in STRATEGIES
        for pid, m in zip(poem_ids, matrices)
    ]
    (out / "poem_predictions.csv").write_text(
        predictions_csv(preds, poet_names), encoding="utf-8"
    )
    _write_config(
        out,
        "predict",
        {
            "input": str(args.input or "-"),
            "checkpoint": str(args.checkpoint),
            "tau": args.tau,
            "confidence": args.confidence,
        },
    )
    print(f"predicted {len(poem_ids)} poems ({len(ds)} verses)")
    return EXIT_OK


def cmd_make_synthetic(args) -> int:
    cfg = SyntheticConfig(
        n_poets=args.poets,
        poems_per_poet=args.poems_per_poet,
        min_verses=args.min_verses,
        max_verses=args.max_verses,
        formulaic_rate=args.formulaic_rate,
        contested_rate=args.contested_rate,
        seed=args.seed,
    )
    corpus = make_synthetic_corpus(cfg)
    out = Path(args.out)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, out)
    print(f"wrote {len(corpus)} poems ({corpus.n_verses} verses) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verseid", description="Verse-level poet attribution pipeline"
    )
    parser.add_argument("--version", action="version", version=f"verseid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate, filter, and summarize a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-verses", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="stratified poem-level train/valid/test split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", type=_parse_floats, default="0.8,0.1,0.1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train-embeddings", help="train skip-gram embeddings on the train split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--min-freq", type=int, default=1)
    p.add_argument("--strip-zwnj", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("train", help="train the verse classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=("desk", "full"), default="desk")
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--coupled-l2", action="store_true")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--head-hidden", type=int)
    p.add_argument("--head-dropout", type=float)
    p.add_argument("--no-class-weights", action="store_true")
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--n-heads", type=int, default=2)
    p.add_argument("--n-layers", type=int, default=2)
    p.add_argument("--d-ff", type=int, default=128)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--encoder-dropout", type=float, default=0.0)
    p.add_argument("--positional", choices=("sinusoidal", "learned", "none"), default="sinusoidal")
    p.add_argument("--norm", choices=("post", "pre"), default="post")
    p.add_argument("--features", default="text,semantic,stylometric,form,meter")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    def eval_common(p):
        p.add_argument("--corpus", required=True)
        p.add_argument("--split", required=True)
        p.add_argument("--embeddings", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--split-name", choices=("train", "valid", "test"), default="test")
        p.add_argument("--confidence", choices=("mean", "sum"), default="mean")
        p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="verse- and poem-level evaluation reports")
    eval_common(p)
    p.add_argument("--tau", type=_finite_float, default=0.7)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-thresholds", help="accuracy/coverage across abstention thresholds")
    eval_common(p)
    p.add_argument("--taus", type=_parse_floats, default="0.5,0.6,0.7,0.8,0.9")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("predict", help="predict poets for new poems (JSONL or stdin)")
    p.add_argument("--input", help="poems JSONL; '-' or omitted reads stdin")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tau", type=_finite_float, default=0.7)
    p.add_argument("--confidence", choices=("mean", "sum"), default="mean")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("make-synthetic", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--poets", type=int, default=5)
    p.add_argument("--poems-per-poet", type=int, default=200)
    p.add_argument("--min-verses", type=int, default=4)
    p.add_argument("--max-verses", type=int, default=12)
    p.add_argument("--formulaic-rate", type=float, default=0.25)
    p.add_argument("--contested-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_make_synthetic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StaleArtifactError, LeakageError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_STALE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
