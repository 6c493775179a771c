"""Spans recorded around calls into verseid's modules, from outside them.

A :class:`Tracer` replaces each target function with a wrapper in every
``verseid`` module namespace that holds it (``verseid.model.encoder_forward``
and ``verseid.encoder.encoder_forward`` are the same function under two
names), and on the class for methods such as ``AdamW.step``. Each wrapper
records one span: name, start, end and the span that was open when it
started. Spans stay in memory; :meth:`Tracer.layer_metrics` turns them into
per-layer numbers and :meth:`Tracer.write` saves them when the run ends.

A target that no longer exists is recorded as missing and skipped, so that a
refactor that renames or folds a function does not crash the traced run. The
metrics that depend on it then read 0 and the missing name is reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` plus a name or ``Class.method`` in it."""

    module: str
    qualname: str
    # Called with the bound arguments; returns the span name for this call.
    name_of: Callable[[dict], str] | None = None
    # Called with (tracer, bound arguments, result) after the call returns.
    after: Callable | None = None

    @property
    def span(self) -> str:
        return f"{self.module.rpartition('.')[2]}.{self.qualname}"


def _forward_name(arguments: dict) -> str:
    return "encoder.forward_train" if arguments.get("train") else "encoder.forward_eval"


def _after_forward(tracer: "Tracer", arguments: dict, result) -> None:
    ids = np.asarray(arguments["ids"])
    tracer.counts["encoder.ids_nonpad"] += int(np.count_nonzero(ids))  # PAD_ID is 0
    tracer.counts["encoder.ids_padded"] += int(ids.size)


def _after_fit(tracer: "Tracer", arguments: dict, bundle) -> None:
    epochs = int(bundle.log_summary["epochs_run"])
    steps_per_epoch = math.ceil(len(arguments["train_ds"]) / arguments["cfg"].batch_size)
    tracer.counts["model.epochs_run"] += epochs
    tracer.counts["model.expected_steps"] += epochs * steps_per_epoch


def _after_build_dataset(tracer: "Tracer", arguments: dict, dataset) -> None:
    tracer.counts["model.verses_featurized"] += len(dataset)


def _after_train_sgns(tracer: "Tracer", arguments: dict, result) -> None:
    # Kept by reference; the pair count is worked out once the run has ended.
    tracer.sgns_inputs.append((arguments["sequences"], arguments["cfg"]))


TARGETS = (
    Target("verseid.synthetic", "make_synthetic_corpus"),
    Target("verseid.corpus", "load_corpus"),
    Target("verseid.split", "stratified_poem_split"),
    Target("verseid.split", "verify_no_leakage"),
    Target("verseid.metrics", "classification_report"),
    Target("verseid.normalize", "normalize_text"),
    Target("verseid.normalize", "normalize_verse"),
    Target("verseid.normalize", "build_vocab"),
    Target("verseid.normalize", "Vocabulary.load"),
    Target("verseid.features", "stylometric_features"),
    Target("verseid.aggregate", "aggregate_poem"),
    Target("verseid.embeddings", "train_sgns", after=_after_train_sgns),
    Target("verseid.embeddings", "verse_semantic_vector"),
    Target("verseid.embeddings", "EmbeddingMatrix.content_hash"),
    Target("verseid.encoder", "encoder_forward", name_of=_forward_name, after=_after_forward),
    Target("verseid.encoder", "encoder_backward"),
    Target("verseid.model", "fit", after=_after_fit),
    Target("verseid.model", "head_forward"),
    Target("verseid.model", "head_backward"),
    Target("verseid.model", "batch_weighted_ce"),
    Target("verseid.model", "clip_gradients"),
    Target("verseid.model", "AdamW.step"),
    Target("verseid.model", "build_dataset", after=_after_build_dataset),
    Target("verseid.model", "FeatureSpace.fit"),
    Target("verseid.model", "predict_proba"),
    Target("verseid.model", "load_checkpoint"),
    Target("verseid.model", "save_checkpoint"),
    Target("verseid.cli", "build_parser"),
    Target("verseid.cli", "cmd_ingest"),
    Target("verseid.cli", "cmd_split"),
    Target("verseid.cli", "cmd_train_embeddings"),
    Target("verseid.cli", "cmd_train"),
    Target("verseid.cli", "cmd_evaluate"),
    Target("verseid.cli", "cmd_predict"),
    Target("verseid.cli", "_read_poems"),
)

# The span the benchmark opens around each verseid.cli.main call, and the
# one around the single-poem request loop.
REQUEST_SPAN = "cli.main"
REQUESTS_PHASE = "bench.requests"

# Per-layer metrics in the order they are reported, with their units.
LAYER_METRICS = {
    "embeddings.train_sgns.self_s": "s",
    "embeddings.train_sgns.pairs": "count",
    "embeddings.train_sgns.pairs_per_s": "1/s",
    "embeddings.verse_semantic_vector.self_s": "s",
    "embeddings.content_hash.calls_per_request": "calls/request",
    "encoder.forward_train.self_s": "s",
    "encoder.backward.self_s": "s",
    "encoder.forward_eval.self_s": "s",
    "encoder.pad_efficiency": "fraction",
    "model.fit.self_s": "s",
    "model.head_forward.self_s": "s",
    "model.head_backward.self_s": "s",
    "model.batch_weighted_ce.self_s": "s",
    "model.clip_gradients.self_s": "s",
    "model.AdamW.step.self_s": "s",
    "model.steps": "count",
    "model.epochs_run": "count",
    "model.ms_per_step": "ms",
    "model.build_dataset.self_s": "s",
    "model.verses_featurized": "count",
    "model.FeatureSpace.fit.self_s": "s",
    "model.predict_proba.self_s": "s",
    "model.load_checkpoint.self_s": "s",
    "model.save_checkpoint.self_s": "s",
    "normalize.normalize_text.calls": "count",
    "normalize.passes_per_verse": "count",
    "normalize.build_vocab.self_s": "s",
    "normalize.Vocabulary.load.self_s": "s",
    "features.stylometric_features.calls": "count",
    "features.stylometric_features.self_s": "s",
    "aggregate.aggregate_poem.calls": "count",
    "aggregate.aggregate_poem.self_s": "s",
    "cli.build_parser.self_s": "s",
    "cli.commands.self_s": "s",
    "corpus.load_corpus.calls": "count",
    "corpus.load_corpus.self_s": "s",
    "split.verify_no_leakage.calls": "count",
    "split.verify_no_leakage.self_s": "s",
    "split.stratified_poem_split.self_s": "s",
    "metrics.classification_report.self_s": "s",
    "synthetic.make_synthetic_corpus.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}


def skipgram_pairs(sequences, window: int, first_real_id: int) -> int:
    """Number of (center, context) pairs SGNS trains on per epoch.

    Counted from the token sequences: reserved ids are dropped, and every
    token pairs with each other token at most ``window`` positions away.
    """
    total = 0
    for seq in sequences:
        n = sum(1 for t in seq if t >= first_real_id)
        total += 2 * sum(min(i, window) for i in range(n))
    return total


class Tracer:
    """Records spans around verseid calls while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.sgns_inputs: list = []
        self.missing: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.installed = False
        self.overhead_s = 0.0
        self.overhead_frac = 0.0

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, target: Target):
        tracer = self
        signature = inspect.signature(fn)
        fixed = self._id(target.span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = None
            if target.name_of or target.after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            nid = tracer._id(target.name_of(arguments)) if target.name_of else fixed
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if target.after:
                target.after(tracer, arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        self.installed = True
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
                owner_path, _, attr = target.qualname.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[f"{target.module}.{target.qualname}"] = f"{type(exc).__name__}: {exc}"
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, raw, classmethod(self._wrap(raw.__func__, target)))
            elif owner is not module:
                self._set(owner, attr, raw, self._wrap(raw, target))
            else:
                wrapper = self._wrap(raw, target)
                for name, mod in list(sys.modules.items()):
                    if name == "verseid" or name.startswith("verseid."):
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._set(mod, key, raw, wrapper)

    def _set(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        self.installed = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        n = len(self.start)
        name_id = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
        return name_id, parent, duration, duration - child

    def _table(self, name_id, duration, self_time, mask=None) -> dict:
        if mask is not None:
            name_id, duration, self_time = name_id[mask], duration[mask], self_time[mask]
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=duration, minlength=k)
        own = np.bincount(name_id, weights=self_time, minlength=k)
        return {
            self.names[i]: {"calls": int(calls[i]), "self_s": float(own[i]), "total_s": float(total[i])}
            for i in range(k)
            if calls[i]
        }

    def _under(self, parent, name_id, ancestor: str) -> np.ndarray:
        """Mask of spans that have a span called ``ancestor`` above them."""
        inside = np.zeros(len(parent), dtype=bool)
        target = self._name_ids.get(ancestor, -1)
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] or name_id[p] == target
        return inside

    def layer_metrics(self, first_real_id: int) -> dict[str, float]:
        """Per-layer metrics over every span recorded."""
        name_id, parent, duration, self_time = self._arrays()
        table = self._table(name_id, duration, self_time)

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        def own(name):
            return table.get(name, {}).get("self_s", 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        pairs = sum(skipgram_pairs(seqs, cfg.window, first_real_id) for seqs, cfg in self.sgns_inputs)
        pair_updates = sum(
            skipgram_pairs(seqs, cfg.window, first_real_id) * cfg.epochs for seqs, cfg in self.sgns_inputs
        )
        in_build = self._under(parent, name_id, "model.build_dataset")
        passes = int(np.count_nonzero(in_build & (name_id == self._name_ids.get("normalize.normalize_verse", -1))))
        in_requests = self._under(parent, name_id, REQUESTS_PHASE)
        request_hashes = np.count_nonzero(in_requests & (name_id == self._name_ids.get("embeddings.EmbeddingMatrix.content_hash", -1)))
        requests = np.count_nonzero(in_requests & (name_id == self._name_ids.get(REQUEST_SPAN, -1)))
        steps = calls("model.AdamW.step")
        commands = sum(v["self_s"] for k, v in table.items() if k.startswith("cli.cmd_"))
        commands += own("cli._read_poems")
        c = self.counts
        values = {
            "embeddings.train_sgns.self_s": own("embeddings.train_sgns"),
            "embeddings.train_sgns.pairs": pairs,
            "embeddings.train_sgns.pairs_per_s": ratio(pair_updates, table.get("embeddings.train_sgns", {}).get("total_s", 0.0)),
            "embeddings.verse_semantic_vector.self_s": own("embeddings.verse_semantic_vector"),
            "embeddings.content_hash.calls_per_request": ratio(int(request_hashes), int(requests)),
            "encoder.forward_train.self_s": own("encoder.forward_train"),
            "encoder.backward.self_s": own("encoder.encoder_backward"),
            "encoder.forward_eval.self_s": own("encoder.forward_eval"),
            "encoder.pad_efficiency": ratio(c["encoder.ids_nonpad"], c["encoder.ids_padded"]),
            "model.fit.self_s": own("model.fit"),
            "model.head_forward.self_s": own("model.head_forward"),
            "model.head_backward.self_s": own("model.head_backward"),
            "model.batch_weighted_ce.self_s": own("model.batch_weighted_ce"),
            "model.clip_gradients.self_s": own("model.clip_gradients"),
            "model.AdamW.step.self_s": own("model.AdamW.step"),
            "model.steps": steps,
            "model.epochs_run": c["model.epochs_run"],
            "model.ms_per_step": 1e3 * ratio(table.get("model.fit", {}).get("total_s", 0.0), steps),
            "model.build_dataset.self_s": own("model.build_dataset"),
            "model.verses_featurized": c["model.verses_featurized"],
            "model.FeatureSpace.fit.self_s": own("model.FeatureSpace.fit"),
            "model.predict_proba.self_s": own("model.predict_proba"),
            "model.load_checkpoint.self_s": own("model.load_checkpoint"),
            "model.save_checkpoint.self_s": own("model.save_checkpoint"),
            "normalize.normalize_text.calls": calls("normalize.normalize_text"),
            "normalize.passes_per_verse": ratio(passes, c["model.verses_featurized"]),
            "normalize.build_vocab.self_s": own("normalize.build_vocab"),
            "normalize.Vocabulary.load.self_s": own("normalize.Vocabulary.load"),
            "features.stylometric_features.calls": calls("features.stylometric_features"),
            "features.stylometric_features.self_s": own("features.stylometric_features"),
            "aggregate.aggregate_poem.calls": calls("aggregate.aggregate_poem"),
            "aggregate.aggregate_poem.self_s": own("aggregate.aggregate_poem"),
            "cli.build_parser.self_s": own("cli.build_parser"),
            "cli.commands.self_s": commands,
            "corpus.load_corpus.calls": calls("corpus.load_corpus"),
            "corpus.load_corpus.self_s": own("corpus.load_corpus"),
            "split.verify_no_leakage.calls": calls("split.verify_no_leakage"),
            "split.verify_no_leakage.self_s": own("split.verify_no_leakage"),
            "split.stratified_poem_split.self_s": own("split.stratified_poem_split"),
            "metrics.classification_report.self_s": own("metrics.classification_report"),
            "synthetic.make_synthetic_corpus.self_s": own("synthetic.make_synthetic_corpus"),
            "trace.spans": len(self.start),
            "trace.overhead_s": self.overhead_s,
            "trace.overhead_frac": self.overhead_frac,
        }
        return values

    def consistency_problems(self) -> list[str]:
        """Counts that must agree with each other exactly."""
        if "verseid.model.AdamW.step" in self.missing or "verseid.model.fit" in self.missing:
            return []
        step_id = self._name_ids.get("model.AdamW.step", -1)
        steps = int(np.count_nonzero(np.asarray(self.name_id) == step_id))
        if steps != self.counts["model.expected_steps"]:
            return [
                f"traced AdamW.step calls ({steps}) differ from epochs_run x batches per "
                f"epoch ({self.counts['model.expected_steps']})"
            ]
        return []

    def write(self, prefix: Path, summary: dict) -> None:
        """Save the spans (``.npz``) and a per-phase table (``.json``)."""
        name_id, parent, duration, self_time = self._arrays()
        np.savez_compressed(
            prefix.with_suffix(".npz"),
            names=np.asarray(self.names),
            name_id=name_id,
            parent=parent,
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
        phase = name_id.copy()  # name of each span's outermost ancestor
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                phase[i] = phase[p]
        phases = {
            self.names[k]: self._table(name_id, duration, self_time, phase == k)
            for k in sorted(set(phase.tolist()))
        }
        report = {**summary, "missing": self.missing, "phases": phases}
        prefix.with_suffix(".json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
