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

Exit codes: 0 success, 2 usage or input error, 3 missing, stale or
damaged artifacts, 4 numerical failure. Every command but ``make-synthetic``
writes its resolved configuration to ``config.json`` in the output
directory, and outputs are byte-identical across reruns with the same inputs
and seeds. Outputs appear only if the whole run succeeds; a failed run
leaves none, and removes the directories it made for ``--out`` (``_staged``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, closing, contextmanager, suppress
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .aggregate import DEFAULT_TAU, PREDICTIONS_HEADER, STRATEGIES, predictions_csv, strategy_rows, sweep_csv, sweep_thresholds, vote_poems
from .corpus import Corpus, CorpusError, PoemRecord, corpus_stats, csv_text, filter_corpus, load_corpus, read_records, reading, save_corpus
from .embeddings import EmbeddingConfig, EmbeddingMatrix, train_sgns
from .encoder import EncoderConfig
from .metrics import classification_report
from .model import (
    PREDICT_BATCH,
    FeatureDataset,
    FeatureSpace,
    FusionConfig,
    ModelBundle,
    NumericalError,
    StaleArtifactError,
    TrainConfig,
    build_dataset,
    check_usable,
    concat_datasets,
    fit,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
    training_log_csv,
)
from .normalize import NormalizationConfig, TokenTable, Vocabulary, normalize_verse, table_ids, table_vocab
from .split import DEFAULT_RATIOS, SPLIT_NAMES, LeakageError, SplitAssignment, split_records, stratified_poem_split, valid_ratios, verify_no_leakage
from .synthetic import SyntheticConfig, make_synthetic_corpus

CORPUS_FILE = "corpus.jsonl"
ASSIGNMENT_CSV = "assignment.csv"
SPLIT_META = "split_meta.json"
VOCAB_FILE = "vocab.tsv"
EMBEDDINGS_FILE = "embeddings.bin"
CHECKPOINT_FILE = "checkpoint.bin"

# The whole predict_proba batches that predict reads, featurizes and predicts at
# a time. 16 held less (8.9 against 11.8 MB traced on 8,188 verses) but ran 65,504
# verses 25% slower on a 2-vCPU Linux machine: a chunk's freed arrays were too small
# to lift glibc's dynamic mmap and trim thresholds above a batch's forward
# temporaries, which were then mapped and faulted in afresh for every batch.
PREDICT_CHUNK_BATCHES = 32

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STALE = 3
EXIT_NUMERIC = 4

INPUT_ARGS = ("corpus", "split", "embeddings", "checkpoint")

# The ``train --features`` names, one per ``use_<name>`` field of FusionConfig.
FEATURES = tuple(f.name.removeprefix("use_") for f in fields(FusionConfig))


def _given(cls, args) -> dict:
    """The fields of dataclass ``cls`` that a parsed argument of the same
    name sets; a ``None`` argument leaves its field to the dataclass."""
    return {f.name: v for f in fields(cls) if (v := getattr(args, f.name, None)) is not None}


@contextmanager
def _staged(out: Path):
    """Yield a function that gives an output name a temporary file in
    ``out``. If the block succeeds, each file is renamed to its name;
    otherwise each is removed, and so is every directory this made for
    ``out``, deepest first, while it is empty."""
    made = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
    out.mkdir(parents=True, exist_ok=True)
    temps: dict[str, Path] = {}

    def staged(name: str) -> Path:
        temps[name] = out / f".{name}.{os.getpid()}.tmp"
        return temps[name]

    try:
        yield staged
        for name, path in temps.items():
            # A rename over a file makes ext4 write the new data out at once
            # (auto_da_alloc), 0.2-1 ms a file; a rename to a free name does not.
            (out / name).unlink(missing_ok=True)
            path.rename(out / name)
    except BaseException:
        for path in temps.values():
            path.unlink(missing_ok=True)
        for d in made:
            with suppress(OSError):
                d.rmdir()
        raise


def _write_config(staged, args, payload: dict) -> None:
    """Stage ``config.json``: the command, version, every input path, and ``payload``."""
    inputs = {k: str(v) for k in INPUT_ARGS if (v := getattr(args, k, None)) is not None}
    payload = {"command": args.command, "version": __version__, **inputs, **payload}
    staged("config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")


def _in_dir(arg: str, name: str) -> Path:
    """The file ``name`` in directory ``arg``, or ``arg`` itself if it is not one."""
    p = Path(arg)
    return p / name if p.is_dir() else p


def _load_splits(args) -> tuple[Corpus, dict[str, list[PoemRecord]]]:
    """The corpus and its records by split name, checked for leakage once."""
    corpus = load_corpus(_in_dir(args.corpus, CORPUS_FILE))
    csv_path = _in_dir(args.split, ASSIGNMENT_CSV)
    assignment = SplitAssignment.load(csv_path, csv_path.with_name(SPLIT_META))
    with reading(csv_path, "split assignment"):
        return corpus, dict(zip(SPLIT_NAMES, split_records(corpus, assignment)))


def _load_artifacts(emb_dir: str) -> tuple[Vocabulary, EmbeddingMatrix]:
    d = Path(emb_dir)
    vocab, emb = Vocabulary.load(d / VOCAB_FILE), EmbeddingMatrix.load(d / EMBEDDINGS_FILE)
    if emb.w_in.shape[0] != len(vocab):
        raise StaleArtifactError(f"{d / EMBEDDINGS_FILE} has {emb.w_in.shape[0]} rows, but "
                                 f"{d / VOCAB_FILE} has {len(vocab)} ids (mismatched pair)")
    return vocab, emb


def _number(cast, what: str | None = None, low: float = -math.inf, high: float = math.inf, *,
            open_low: bool = False, open_high: bool = False):
    """An argparse type: ``cast`` of the text, which must be finite and from
    ``low`` to ``high``, each end included unless it is open. Outside that
    range the value is "not <what>", or without ``what`` "not in [low, high]"."""
    def parse(text: str):
        value = cast(text)
        if not -math.inf < value < math.inf:  # math.isfinite overflows on a long int
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        if not low <= value <= high or (open_low and value == low) or (open_high and value == high):
            ends = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
            raise argparse.ArgumentTypeError(f"not {what or 'in ' + ends}: {text!r}")
        return value
    parse.__name__ = cast.__name__  # non-numeric text reads "invalid int value: 'x'"
    return parse


_finite_float = _number(float)
_positive_float = _number(float, "a positive number", 0, open_low=True)
_positive_int = _number(int, "a positive integer", 1)
_non_negative_int = _number(int, "a non-negative integer", 0)


def _parse_floats(text: str) -> list[float]:
    """The comma-separated finite numbers of ``text``; an empty item among
    them is a usage error, and a list of empty items is the empty list."""
    items = text.split(",")
    filled = [bool(x.strip()) for x in items]
    if not any(filled):
        return []
    if not all(filled):
        raise argparse.ArgumentTypeError(f"empty item in list: {text!r}")
    return [_finite_float(x) for x in items]


def _ratios(text: str) -> list[float]:
    ratios = _parse_floats(text)
    if not valid_ratios(ratios):
        raise argparse.ArgumentTypeError(f"not three positive numbers summing to 1: {text!r}")
    return ratios


def _thresholds(text: str) -> list[float]:
    taus = _parse_floats(text)
    if not taus:
        raise argparse.ArgumentTypeError(f"no thresholds given: {text!r}")
    if taus != sorted(taus):
        raise argparse.ArgumentTypeError(f"not sorted ascending: {text!r}")
    return taus


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    corpus = load_corpus(_in_dir(args.corpus, CORPUS_FILE))
    filtered = filter_corpus(corpus, min_verses_per_poet=args.min_verses)
    stats = corpus_stats(filtered)
    with _staged(Path(args.out)) as staged:
        save_corpus(filtered, staged(CORPUS_FILE))
        staged("stats.json").write_text(stats.to_json() + "\n", encoding="utf-8")
        staged("stats.txt").write_text(stats.to_text(), encoding="utf-8")
        _write_config(staged, args, {"min_verses": args.min_verses})
    print(
        f"ingested {len(corpus)} poems -> kept {len(filtered)} "
        f"({stats.n_poets} poets, {stats.n_verses} verses)"
    )
    return EXIT_OK


def cmd_split(args) -> int:
    corpus = load_corpus(_in_dir(args.corpus, CORPUS_FILE))
    assignment = stratified_poem_split(corpus, ratios=tuple(args.ratios), seed=args.seed)
    verify_no_leakage(assignment, corpus)
    with _staged(Path(args.out)) as staged:
        assignment.save(staged(ASSIGNMENT_CSV), staged(SPLIT_META))
        _write_config(staged, args, {"seed": args.seed, "ratios": list(args.ratios)})
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
    table = TokenTable.of(normalize_verse(v, norm_cfg) for r in splits["train"] for v in r.verses)
    vocab = table_vocab(table, norm_cfg, args.min_freq)
    # The id list of each verse, cut from the flat ids of the whole table.
    ids, ends = table_ids(table, vocab).tolist(), np.cumsum(table.n_tokens).tolist()
    sequences = [ids[a:b] for a, b in zip([0, *ends], ends)]
    del table, ids, ends  # held through SGNS, they raise its peak RSS (1.3 MB at desk scale)
    emb_cfg = EmbeddingConfig(**_given(EmbeddingConfig, args))
    emb, losses = train_sgns(sequences, len(vocab), emb_cfg)
    with _staged(Path(args.out)) as staged:
        vocab.save(staged(VOCAB_FILE))
        emb.save(staged(EMBEDDINGS_FILE))
        _write_config(
            staged,
            args,
            {
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
    known = sorted(FEATURES)
    bad = wanted - set(FEATURES)
    if bad:
        raise ValueError(f"--features: unknown features: {sorted(bad)} (choose from {known})")
    if not wanted:
        raise ValueError(f"--features: no features given (choose from {known})")
    return FusionConfig(**{f"use_{name}": name in wanted for name in FEATURES})


def cmd_train(args) -> int:
    if args.d_model % args.n_heads:
        raise ValueError(f"--d-model {args.d_model} is not divisible by --n-heads {args.n_heads}")
    fusion = _fusion_from_arg(args.features)
    corpus, splits = _load_splits(args)
    vocab, emb = _load_artifacts(args.embeddings)

    base = TrainConfig.desk() if args.preset == "desk" else TrainConfig()
    tcfg = replace(base, **_given(TrainConfig, args))
    enc_cfg = EncoderConfig(vocab_size=len(vocab), **_given(EncoderConfig, args))
    poet_index = {p: i for i, p in enumerate(sorted({r.poet for r in corpus.records}))}
    form_index = {f: i for i, f in enumerate(sorted({r.form for r in corpus.records}))}
    space, train_ds = FeatureSpace.fit(
        splits["train"], vocab, emb, form_index, poet_index, fusion, max_len=enc_cfg.max_len
    )
    valid_ds = build_dataset(splits["valid"], space, "the valid split")
    bundle = fit(train_ds, valid_ds, space, enc_cfg, tcfg)

    with _staged(Path(args.out)) as staged:
        save_checkpoint(bundle, staged(CHECKPOINT_FILE))
        staged("trainlog.csv").write_text(training_log_csv(bundle.log), encoding="utf-8")
        _write_config(
            staged,
            args,
            {
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
    return load_checkpoint(_in_dir(args.checkpoint, CHECKPOINT_FILE), vocab, emb)


def _distributions(ds, bundle: ModelBundle, args) -> np.ndarray:
    """``predict_proba`` of the dataset; parameters that give any verse a
    non-finite distribution make the checkpoint a damaged artifact."""
    probs = predict_proba(ds, bundle)
    if bad := int(np.count_nonzero(~np.isfinite(probs).all(axis=1))):
        raise StaleArtifactError(f"{_in_dir(args.checkpoint, CHECKPOINT_FILE)}: its parameters "
                                 f"give {bad} of {len(probs)} verses a non-finite distribution")
    return probs


def _eval_data(args, bundle: ModelBundle):
    """The split's records, dataset, verse distributions and each record's
    poet id; a poet the checkpoint does not know is a stale artifact."""
    _, splits = _load_splits(args)
    records = splits[args.split_name]
    if unknown := next((r for r in records if r.poet not in bundle.space.poet_index), None):
        raise StaleArtifactError(
            f"{_in_dir(args.checkpoint, CHECKPOINT_FILE)}: checkpoint has no poet "
            f"{unknown.poet!r} (poem {unknown.poem_id!r} of the {args.split_name} split)")
    ds = build_dataset(records, bundle.space, f"the {args.split_name} split")
    truth = np.array([bundle.space.poet_index[r.poet] for r in records])
    return records, ds, _distributions(ds, bundle, args), truth


def cmd_evaluate(args) -> int:
    bundle = _load_bundle(args)
    records, ds, probs, truth = _eval_data(args, bundle)
    poet_names = bundle.space.poet_names
    n_classes = len(poet_names)
    poem_ids = [r.poem_id for r in records]
    votes = vote_poems(poem_ids, ds.poem_ids, probs, tau=args.tau)
    reports = {"verse": classification_report(ds.labels, probs.argmax(axis=1), n_classes,
                                              poet_names)}
    for strategy, (labels, _) in votes.items():
        # Each report covers the poems its strategy labelled; coverage is over the split.
        kept = labels >= 0
        coverage = int(kept.sum()) / len(kept) if strategy == "thresholded" else None
        reports[strategy] = classification_report(truth[kept], labels[kept], n_classes,
                                                  poet_names, coverage=coverage)
    with _staged(Path(args.out)) as staged:
        for level, report in reports.items():
            staged(f"eval_{level}.json").write_text(report.to_json() + "\n", encoding="utf-8")
            staged(f"eval_{level}.txt").write_text(report.to_text(), encoding="utf-8")
        staged("poem_predictions.csv").write_text(predictions_csv(poem_ids, votes, poet_names),
                                                  encoding="utf-8")
        _write_config(staged, args, {"split_name": args.split_name, "tau": args.tau})
    print(f"verse accuracy {reports['verse'].accuracy:.4f} on {args.split_name}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    bundle = _load_bundle(args)
    records, ds, probs, truth = _eval_data(args, bundle)
    votes = vote_poems([r.poem_id for r in records], ds.poem_ids, probs)
    rows = sweep_thresholds(*votes["weighted"], truth, args.taus)
    with _staged(Path(args.out)) as staged:
        staged("sweep.csv").write_text(sweep_csv(rows), encoding="utf-8")
        _write_config(staged, args, {"split_name": args.split_name, "taus": args.taus})
    for r in rows:
        acc = "NA" if r.accuracy is None else f"{r.accuracy:.4f}"
        print(f"tau={r.threshold:g} accuracy={acc} coverage={r.coverage:.4f}")
    return EXIT_OK


def _read_poems(path: str | None) -> Iterator[PoemRecord]:
    """Prediction input from a JSONL file, or stdin for ``None`` or ``-``,
    one record at a time."""
    return read_records(None if path in (None, "-") else path, labelled=False)


def _chunks(records: Iterable[PoemRecord], n_verses: int) -> Iterator[list[PoemRecord]]:
    """``records`` in runs of whole poems, each ended once it holds at least
    ``n_verses`` verses, but the last."""
    chunk, held = [], 0
    for record in records:
        chunk.append(record)
        held += record.n_verses
        if held >= n_verses:
            yield chunk
            chunk, held = [], 0
    if chunk:
        yield chunk


def _predicted(records: Iterable[PoemRecord], bundle: ModelBundle, args):
    """Featurize and predict ``records`` a chunk at a time, and yield each
    run of poems once their last verse is predicted: their records, and the
    poem id, verse index and distribution of each of their verse rows.

    A chunk is the poems read until they hold ``PREDICT_CHUNK_BATCHES``
    batches of verses. Until the input ends only whole batches of
    ``predict_proba`` are predicted; the rows of a partial batch wait for the
    next chunk, so every batch holds the rows a whole-input run gives it, and
    every distribution keeps its bits.
    """
    space = bundle.space
    waiting: list[PoemRecord] = []  # read and not yet yielded
    todo: FeatureDataset | None = None  # their verse rows not yet predicted
    pids: list[str] = []  # and the poem id, verse index and distribution of those predicted
    indices: list[int] = []
    probs = np.empty((0, space.n_classes), dtype=np.float32)
    chunks = _chunks(records, PREDICT_CHUNK_BATCHES * PREDICT_BATCH)
    for chunk in itertools.chain(chunks, [None]):  # None: the input has ended
        if chunk is not None:
            waiting += chunk
            new = build_dataset(chunk, space, source=None)
            todo = new if todo is None else concat_datasets(todo, new)
        ready = len(todo) if chunk is None else len(todo) - len(todo) % PREDICT_BATCH
        if ready:
            pids += todo.poem_ids[:ready]
            indices += todo.verse_indices[:ready]
            probs = np.concatenate([probs, _distributions(todo[:ready], bundle, args)])
            todo = todo[ready:]
        # The first poem with a row still to predict waits, and so does every poem after it.
        cut = todo.poem_ids[0] if len(todo) else None
        n_poems = next((i for i, r in enumerate(waiting) if r.poem_id == cut), len(waiting))
        if n_poems:
            n_rows = len(pids) - pids.count(cut)
            yield waiting[:n_poems], pids[:n_rows], indices[:n_rows], probs[:n_rows]
            del waiting[:n_poems], pids[:n_rows], indices[:n_rows]
            probs = probs[n_rows:]


def cmd_predict(args) -> int:
    """Predict every poem of the input, a chunk at a time (``_predicted``),
    so memory is bounded by the chunk and the longest poem, not the input.

    Verse rows are written as their poems finish. Each strategy's poem rows
    go to an unnamed file in ``--out``, and the three are joined in strategy
    order at the end.
    """
    bundle = _load_bundle(args)
    poet_names = bundle.space.poet_names
    out = Path(args.out)
    n_poems = n_verses = n_rows = 0
    with ExitStack() as stack:
        staged = stack.enter_context(_staged(out))
        records = stack.enter_context(closing(_read_poems(args.input)))
        verse_csv = stack.enter_context(open(staged("verse_predictions.csv"), "w", encoding="utf-8"))
        spools = {strategy: stack.enter_context(tempfile.TemporaryFile(
            "w+", encoding="utf-8", newline="", dir=out)) for strategy in STRATEGIES}
        verse_csv.write(csv_text([["poem_id", "verse_index", "label", "confidence",
                                   *(f"p_{p}" for p in poet_names)]]))
        for poems, pids, indices, probs in _predicted(records, bundle, args):
            rows = []
            for pid, vi, top, row in zip(pids, indices, probs.argmax(axis=1).tolist(), probs.tolist()):
                cells = [f"{x:.6f}" for x in row]
                rows.append([pid, vi, poet_names[top], cells[top], *cells])
            verse_csv.write(csv_text(rows))
            poem_ids = [r.poem_id for r in poems]
            votes = vote_poems(poem_ids, pids, probs, tau=args.tau)
            for strategy, (labels, confidence) in votes.items():
                spools[strategy].write(
                    csv_text(strategy_rows(poem_ids, strategy, labels, confidence, poet_names)))
            n_poems += len(poems)
            n_verses += sum(r.n_verses for r in poems)
            n_rows += len(pids)
        check_usable(n_verses, n_rows, "stdin" if args.input in (None, "-") else args.input)
        with open(staged("poem_predictions.csv"), "w", encoding="utf-8") as poem_csv:
            poem_csv.write(csv_text([PREDICTIONS_HEADER]))
            for spool in spools.values():
                spool.seek(0)
                shutil.copyfileobj(spool, poem_csv)
        _write_config(staged, args, {"input": str(args.input or "-"), "tau": args.tau})
    print(f"predicted {n_poems} poems ({n_rows} verses)")
    return EXIT_OK


def cmd_make_synthetic(args) -> int:
    cfg = SyntheticConfig(**_given(SyntheticConfig, args))
    if cfg.min_verses > cfg.max_verses:
        raise ValueError(f"--min-verses {cfg.min_verses} is greater than "
                         f"--max-verses {cfg.max_verses}")
    corpus = make_synthetic_corpus(cfg)
    out = Path(args.out)
    with _staged(out.parent) as staged:
        save_corpus(corpus, staged(out.name))
    print(f"wrote {len(corpus)} poems ({corpus.n_verses} verses) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``verseid`` parser. Every subcommand is listed, so top-level help
    and usage errors read the same either way; with ``command``, only that
    subcommand gets its arguments, which is all one command line needs.
    """
    parser = argparse.ArgumentParser(
        prog="verseid", description="Verse-level poet attribution pipeline"
    )
    parser.add_argument("--version", action="version", version=f"verseid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, summary: str, *inputs: str) -> argparse.ArgumentParser | None:
        """The subcommand's parser, with a required ``--<input>`` for each of
        ``inputs`` and then ``--out``, or None if its arguments are not needed."""
        needed = command in (None, name)
        p = sub.add_parser(name, help=summary, add_help=needed)
        p.set_defaults(func=func)
        for flag in (*inputs, "out") if needed else ():
            p.add_argument(f"--{flag}", required=True)
        return p if needed else None

    if p := add("ingest", cmd_ingest, "validate, filter, and summarize a corpus", "corpus"):
        p.add_argument("--min-verses", type=_non_negative_int, default=50)

    if p := add("split", cmd_split, "stratified poem-level train/valid/test split", "corpus"):
        p.add_argument("--seed", type=_non_negative_int, default=0)
        p.add_argument("--ratios", type=_ratios, default=DEFAULT_RATIOS)

    if p := add("train-embeddings", cmd_train_embeddings,
                "train skip-gram embeddings on the train split", "corpus", "split"):
        p.add_argument("--dim", type=_positive_int)
        p.add_argument("--window", type=_positive_int)
        p.add_argument("--negatives", type=_positive_int)
        p.add_argument("--epochs", type=_positive_int)
        p.add_argument("--lr", type=_positive_float)
        p.add_argument("--min-freq", type=_positive_int, default=1)
        p.add_argument("--strip-zwnj", action="store_true")
        p.add_argument("--seed", type=_non_negative_int)

    if p := add("train", cmd_train, "train the verse classifier", "corpus", "split", "embeddings"):
        p.add_argument("--preset", choices=("desk", "full"), default="desk")
        p.add_argument("--lr", type=_positive_float)
        p.add_argument("--weight-decay", type=_number(float, low=0))
        p.add_argument("--batch-size", type=_positive_int)
        p.add_argument("--epochs", type=_positive_int, dest="max_epochs")
        p.add_argument("--patience", type=_positive_int)
        p.add_argument("--head-hidden", type=_positive_int)
        p.add_argument("--head-dropout", type=_number(float, low=0, high=1, open_high=True))
        p.add_argument("--no-class-weights", action="store_const", const="none",
                       dest="class_weighting")
        p.add_argument("--d-model", type=_positive_int, default=EncoderConfig.d_model)
        p.add_argument("--n-heads", type=_positive_int, default=EncoderConfig.n_heads)
        p.add_argument("--n-layers", type=_positive_int, default=EncoderConfig.n_layers)
        p.add_argument("--d-ff", type=_positive_int, default=EncoderConfig.d_ff)
        p.add_argument("--max-len", type=_positive_int, default=EncoderConfig.max_len)
        p.add_argument("--features", default=",".join(FEATURES))
        # Seeds TrainConfig and EncoderConfig; unset, each keeps its own default.
        p.add_argument("--seed", type=_non_negative_int)

    if p := add("evaluate", cmd_evaluate, "verse- and poem-level evaluation reports",
                *INPUT_ARGS):
        p.add_argument("--split-name", choices=SPLIT_NAMES, default="test")
        p.add_argument("--tau", type=_finite_float, default=DEFAULT_TAU)

    if p := add("sweep-thresholds", cmd_sweep,
                "accuracy/coverage across abstention thresholds", *INPUT_ARGS):
        p.add_argument("--split-name", choices=SPLIT_NAMES, default="test")
        p.add_argument("--taus", type=_thresholds, default="0.5,0.6,0.7,0.8,0.9")

    if p := add("predict", cmd_predict, "predict poets for new poems (JSONL or stdin)",
                "embeddings", "checkpoint"):
        p.add_argument("--input", help="poems JSONL; '-' or omitted reads stdin")
        p.add_argument("--tau", type=_finite_float, default=DEFAULT_TAU)

    if p := add("make-synthetic", cmd_make_synthetic, "generate a synthetic corpus"):
        p.add_argument("--poets", type=_positive_int, dest="n_poets")
        p.add_argument("--poems-per-poet", type=_positive_int)
        p.add_argument("--min-verses", type=_positive_int)
        p.add_argument("--max-verses", type=_positive_int)
        p.add_argument("--formulaic-rate", type=_number(float, low=0, high=1))
        p.add_argument("--contested-rate", type=_number(float, low=0, high=1))
        p.add_argument("--seed", type=_non_negative_int)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level options take no value, so the first other word is the command.
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
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
