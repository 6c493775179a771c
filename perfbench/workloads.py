"""Workloads, their seeded inputs and the checks on verseid's outputs.

Every command runs in-process through ``verseid.cli.main``, as a user of the
``verseid`` command would run it; the program sees only the JSONL files
generated here.

Why each workload exists:

``train-desk``
    The paper's desk experiment: ``train-embeddings`` -> ``train`` ->
    ``evaluate`` with default flags (desk preset, 5 SGNS epochs) on the desk
    corpus ``SyntheticConfig(seed=...)``, 1000 poems and about 8.2k verses.
    It is the only workload where ``embeddings.train_sgns`` (about 60% of the
    job) and the ``fit`` step in ``encoder`` and ``model`` (about 38%) do the
    work; the predict workload bypasses both. ``ingest`` and ``split`` are
    its set-up.

``predict``
    Serving a trained model. A ``verseid predict`` call on about 1,000
    fresh poems (about 8k verses) is the job: featurization (``normalize``,
    ``features``, ``embeddings.verse_semantic_vector``) dominates, then the
    eval-mode encoder forward; there is no SGNS, backward pass or optimizer.
    The fresh poems come from ``SyntheticConfig(seed=..., poems_per_poet=400)``
    with every desk ``poem_id`` dropped, so they share the desk corpus's word
    pools. Set-up builds the served model with the desk architecture through
    the CLI but with one SGNS epoch, a window of 1 and one training epoch:
    predict cost depends on the architecture and the vocabulary, not on how
    long the weights trained.

Both workloads send single-poem ``verseid predict`` requests, one at a time
(a closed loop with one client), for ``--seconds`` seconds: train-desk asks
the model it just trained about its test poems after its job; predict asks
the served model about fresh poems, in windows between its batch calls.
Each request pays argparse, artifact loading and hashing, as a CLI user
does, so work moved into loading or a change that only pays off on large
batches shows in the request latency.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from verseid import cli, corpus, synthetic

from tracing import REQUEST_SPAN, REQUESTS_PHASE, Tracer

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds; setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
ACCURACY_GATE = 0.90
PROB_TOL = 1e-5
# A traced run sends a fixed number of requests, so that its counts repeat.
TRACE_REQUESTS = 200
FRESH_POEMS_PER_POET = 400
# predict makes this many batch calls; job_s is their median.
JOB_REPEATS = 3


class CommandFailed(RuntimeError):
    """A verseid command exited with a non-zero code."""


class Session:
    """One run of a workload: its directory, its tracer and its tallies.

    ``attempted`` counts commands and checks; ``failed`` those that failed.
    """

    def __init__(self, work: Path, seed: int, seconds: float, tracer: Tracer | None):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer and self.tracer.installed else contextlib.nullcontext()

    def command(self, *argv) -> float:
        """Run one verseid command; returns its wall time in seconds."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), self.span(REQUEST_SPAN):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise CommandFailed(f"verseid {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return wall

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def desk_corpus(seed: int) -> corpus.Corpus:
    return synthetic.make_synthetic_corpus(synthetic.SyntheticConfig(seed=seed))


def fresh_poems(seed: int, desk: corpus.Corpus) -> list[corpus.PoemRecord]:
    """Poems the desk corpus of this seed does not hold, from the same word pools.

    The generator draws its word pools before any poem, so a larger corpus
    with the same seed shares the desk vocabulary; every poem id that the
    desk corpus uses is dropped.
    """
    cfg = synthetic.SyntheticConfig(seed=seed, poems_per_poet=FRESH_POEMS_PER_POET)
    desk_ids = {r.poem_id for r in desk.records}
    return [r for r in synthetic.make_synthetic_corpus(cfg).records if r.poem_id not in desk_ids]


def request_stream(poems: list[corpus.PoemRecord], seed: int) -> list[corpus.PoemRecord]:
    """The order in which single-poem requests are sent."""
    order = np.random.default_rng([seed, 1]).permutation(len(poems))
    return [poems[i] for i in order]


def poem_line(record: corpus.PoemRecord) -> str:
    """A predict input line: what a user knows about a poem, without its poet."""
    obj = {
        "poem_id": record.poem_id,
        "form": record.form,
        "meter": record.meter,
        "verses": [[v.hemistich_1, v.hemistich_2] for v in record.verses],
    }
    return json.dumps(obj, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def verse_distributions(path: Path) -> dict[str, np.ndarray]:
    """``verse_predictions.csv`` as poem_id -> (verses, poets) array in verse order."""
    rows: dict[str, list[tuple[int, list[float]]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        first_prob = header.index("confidence") + 1
        for row in reader:
            rows.setdefault(row[0], []).append((int(row[1]), [float(x) for x in row[first_prob:]]))
    return {pid: np.asarray([p for _, p in sorted(vs)]) for pid, vs in rows.items()}


def weighted_labels(path: Path) -> dict[str, str]:
    """poem_id -> label of the weighted-vote rows of ``poem_predictions.csv``."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {r["poem_id"]: r["label"] for r in csv.DictReader(fh) if r["strategy"] == "weighted"}


def check_distributions(s: Session, dists: dict[str, np.ndarray], poems: list[corpus.PoemRecord], what: str) -> None:
    """One row per input verse, and each row a distribution."""
    missing = [r.poem_id for r in poems if len(dists.get(r.poem_id, ())) != r.n_verses]
    s.check(not missing, f"{what}: verse row count differs from the input for {missing[:3]}")
    worst = max(float(np.abs(d.sum(axis=1) - 1.0).max()) for d in dists.values())
    s.check(worst <= PROB_TOL, f"{what}: a verse distribution sums to 1 +- {worst:.2e}")


def check_same(s: Session, batch: dict[str, np.ndarray], single: dict[str, np.ndarray], what: str) -> None:
    """Each single-poem answer matches the batch answer for that poem."""
    worst = max(float(np.abs(single[pid] - batch[pid]).max()) for pid in single)
    s.check(worst <= PROB_TOL, f"{what}: single-poem distributions differ from the batch by {worst:.2e}")


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------


def request_loop(s: Session, stream, emb: Path, model: Path, seconds: float = 0.0, count: int | None = None):
    """Closed loop, one client: send single-poem predict requests in turn.

    Asks about the poems ``stream`` yields for ``seconds`` seconds, or for
    ``count`` requests when given. Returns the latencies (s) and each
    answered poem's verse distributions.
    """
    request, out = s.work / "request.jsonl", s.work / "request_out"
    latencies: list[float] = []
    answers: dict[str, np.ndarray] = {}
    deadline = time.perf_counter() + seconds
    while len(latencies) < count if count is not None else time.perf_counter() < deadline:
        request.write_text(poem_line(next(stream)), encoding="utf-8")
        latencies.append(
            s.command("predict", "--input", request, "--embeddings", emb, "--checkpoint", model, "--out", out)
        )
        answers.update(verse_distributions(out / "verse_predictions.csv"))
    return latencies, answers


def requests(s: Session, stream, emb: Path, model: Path, seconds: float):
    """A window of requests; in a traced run, the tracing overhead instead.

    A traced run sends ``TRACE_REQUESTS`` requests twice, untraced and then
    traced, and records the difference in wall time.
    """
    if not s.tracer:
        return request_loop(s, stream, emb, model, seconds=seconds)
    s.tracer.uninstall()
    start = time.perf_counter()
    request_loop(s, stream, emb, model, count=TRACE_REQUESTS)
    untraced = time.perf_counter() - start
    s.tracer.install()
    with s.span(REQUESTS_PHASE):
        start = time.perf_counter()
        latencies, answers = request_loop(s, stream, emb, model, count=TRACE_REQUESTS)
        traced = time.perf_counter() - start
    s.tracer.overhead_s = traced - untraced
    s.tracer.overhead_frac = (traced - untraced) / untraced
    return latencies, answers


def repeat_setup(s: Session, setup) -> tuple[list[float], set[str]]:
    """Run ``setup(dir)`` into ``setup0``, ``setup1``, ...; once in a traced run.

    Returns the wall times and the set of output digests, which has one
    member when every set-up wrote the same bytes. Only ``setup0`` is kept.
    """
    times: list[float] = []
    digests: set[str] = set()
    with s.span("bench.setup"):
        while not times or not s.tracer and (len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S):
            d = s.work / f"setup{len(times)}"
            wall, out = setup(d)
            times.append(wall)
            digests.add(out)
            if len(times) > 1:
                shutil.rmtree(d)
    return times, digests


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    """The median request latency; the tail is printed but is no metric.

    On a shared machine the tail of a few hundred requests spreads between
    runs by more than the bound the timings use, so it only goes to the log.
    """
    ms = [1e3 * x for x in latencies]
    if len(ms) > 1:
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        print(f"perfbench: {len(ms)} requests, latency p50 {statistics.median(ms):.2f} "
              f"p90 {cuts[89]:.2f} p99 {cuts[98]:.2f} ms")
    return {"latency_p50_ms": statistics.median(ms)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def split_poem_ids(split_dir: Path, name: str) -> set[str]:
    with open(split_dir / "assignment.csv", newline="", encoding="utf-8") as fh:
        return {r["poem_id"] for r in csv.DictReader(fh) if r["split"] == name}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def train_desk(s: Session) -> dict[str, float]:
    w = s.work
    raw = w / "raw.jsonl"
    with s.span("bench.generate"):
        desk = desk_corpus(s.seed)
        corpus.save_corpus(desk, raw)

    def setup(d: Path) -> tuple[float, str]:
        wall = (
            s.command("ingest", "--corpus", raw, "--out", d / "corpus")
            + s.command("split", "--corpus", d / "corpus", "--out", d / "split")
        )
        return wall, digest(d / "corpus" / "corpus.jsonl", d / "split" / "assignment.csv")

    setup_times, digests = repeat_setup(s, setup)
    s.check(len(digests) == 1, "ingest and split outputs differ between set-ups of one seed")

    data, split = w / "setup0" / "corpus", w / "setup0" / "split"
    emb, model, ev = w / "emb", w / "model", w / "eval"
    with s.span("bench.job"):
        t_emb = s.command("train-embeddings", "--corpus", data, "--split", split, "--out", emb)
        t_train = s.command("train", "--corpus", data, "--split", split, "--embeddings", emb, "--out", model)
        s.command(
            "evaluate", "--corpus", data, "--split", split, "--embeddings", emb,
            "--checkpoint", model, "--out", ev,
        )

    accuracy = json.loads((ev / "eval_verse.json").read_text(encoding="utf-8"))["accuracy"]
    s.check(accuracy >= ACCURACY_GATE, f"test verse accuracy {accuracy:.4f} < {ACCURACY_GATE}")
    with open(model / "trainlog.csv", newline="", encoding="utf-8") as fh:
        epochs = sum(1 for _ in csv.DictReader(fh))
    train_ids = split_poem_ids(split, "train")
    train_verses = sum(r.n_verses for r in desk.records if r.poem_id in train_ids)

    test_ids = split_poem_ids(split, "test")
    test_poems = [r for r in desk.records if r.poem_id in test_ids]
    stream = itertools.cycle(request_stream(test_poems, s.seed))
    latencies, answers = requests(s, stream, emb, model, s.seconds)

    # Reference answers for the requests: one batch predict over the test poems.
    batch_in, batch_out = w / "test_poems.jsonl", w / "test_pred"
    batch_in.write_text("".join(poem_line(r) for r in test_poems), encoding="utf-8")
    with s.span("bench.check"):
        s.command("predict", "--input", batch_in, "--embeddings", emb, "--checkpoint", model, "--out", batch_out)
    batch = verse_distributions(batch_out / "verse_predictions.csv")
    check_distributions(s, batch, test_poems, "test-poem batch")
    check_same(s, batch, answers, "test-poem requests")

    return {
        "setup_s": statistics.median(setup_times),
        "job_s": t_emb,
        "verses_per_s": epochs * train_verses / t_train,
        **latency_metrics(latencies),
        "accuracy": accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }


def predict(s: Session) -> dict[str, float]:
    w = s.work
    raw, fresh_path = w / "raw.jsonl", w / "fresh.jsonl"
    with s.span("bench.generate"):
        desk = desk_corpus(s.seed)
        corpus.save_corpus(desk, raw)
        fresh = fresh_poems(s.seed, desk)
        fresh_path.write_text("".join(poem_line(r) for r in fresh), encoding="utf-8")

    def setup(d: Path) -> tuple[float, str]:
        data, split, emb, model = d / "corpus", d / "split", d / "emb", d / "model"
        wall = (
            s.command("ingest", "--corpus", raw, "--out", data)
            + s.command("split", "--corpus", data, "--out", split)
            + s.command("train-embeddings", "--corpus", data, "--split", split, "--out", emb,
                        "--epochs", 1, "--window", 1)
            + s.command("train", "--corpus", data, "--split", split, "--embeddings", emb,
                        "--out", model, "--epochs", 1)
            + s.command("evaluate", "--corpus", data, "--split", split, "--embeddings", emb,
                        "--checkpoint", model, "--out", d / "eval")
        )
        return wall, digest(emb / "embeddings.bin", model / "checkpoint.bin", model / "trainlog.csv")

    setup_times, digests = repeat_setup(s, setup)
    s.check(len(digests) == 1, "embeddings.bin, checkpoint.bin or trainlog.csv differ between builds of one seed")

    # The batch calls alternate with windows of requests, so that both
    # samples spread over the whole measured time.
    emb, model, out = w / "setup0" / "emb", w / "setup0" / "model", w / "pred"
    stream = itertools.cycle(request_stream(fresh, s.seed))
    repeats = 1 if s.tracer else JOB_REPEATS
    batch_times, outputs, latencies, answers = [], set(), [], {}
    for _ in range(repeats):
        with s.span("bench.job"):
            batch_times.append(
                s.command("predict", "--input", fresh_path, "--embeddings", emb, "--checkpoint", model, "--out", out)
            )
        outputs.add(digest(out / "verse_predictions.csv", out / "poem_predictions.csv"))
        window_latencies, window_answers = requests(s, stream, emb, model, s.seconds / repeats)
        latencies += window_latencies
        answers.update(window_answers)
    s.check(len(outputs) == 1, "repeated batch predict calls wrote different outputs")

    batch = verse_distributions(out / "verse_predictions.csv")
    check_distributions(s, batch, fresh, "batch predict")
    labels = weighted_labels(out / "poem_predictions.csv")
    accuracy = sum(labels.get(r.poem_id) == r.poet for r in fresh) / len(fresh)
    s.check(accuracy >= ACCURACY_GATE, f"weighted-vote poem accuracy {accuracy:.4f} < {ACCURACY_GATE}")
    check_same(s, batch, answers, "single-poem requests")
    t_batch = statistics.median(batch_times)

    return {
        "setup_s": statistics.median(setup_times),
        "job_s": t_batch,
        "verses_per_s": sum(r.n_verses for r in fresh) / t_batch,
        **latency_metrics(latencies),
        "accuracy": accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }


WORKLOADS = {"train-desk": train_desk, "predict": predict}
