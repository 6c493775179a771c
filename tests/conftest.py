"""Shared fixtures: small hand-built and synthetic corpora."""

import numpy as np
import pytest

from verseid.corpus import Corpus, PoemRecord, Verse
from verseid.normalize import NormalizationConfig, normalize_verse
from verseid.synthetic import SyntheticConfig, make_synthetic_corpus


def make_poem(poem_id, poet, verses, form="ghazal", meter="ramal", status="confirmed"):
    return PoemRecord(
        poem_id=poem_id,
        poet=poet,
        form=form,
        meter=meter,
        attribution_status=status,
        verses=[Verse(a, b) for a, b in verses],
    )


def verse_token_list(verse, cfg=NormalizationConfig()):
    """A verse's tokens, both hemistichs in reading order."""
    t1, t2 = normalize_verse(verse, cfg)
    return t1 + t2


def token_lists(records, cfg=NormalizationConfig()):
    """One token list per verse of the records, as build_vocab takes them."""
    return [verse_token_list(v, cfg) for r in records for v in r.verses]


@pytest.fixture
def tiny_corpus():
    """Three poets, six poems, fully deterministic text."""
    records = [
        make_poem("p1", "hafez", [("دل می رود", "ز دستم صاحب دلان"), ("خدا را", "دردم از یار")]),
        make_poem("p2", "hafez", [("اگر آن ترک شیرازی", "به دست آرد دل ما را")], meter="hazaj"),
        make_poem("p3", "saadi", [("بنی آدم اعضای", "یکدیگرند"), ("که در آفرینش", "ز یک گوهرند")]),
        make_poem("p4", "saadi", [("چو عضوی به درد آورد", "روزگار")], form="qasideh"),
        make_poem("p5", "rumi", [("بشنو این نی", "چون شکایت می کند"), ("از جدایی ها", "حکایت می کند")], meter="hazaj"),
        make_poem("p6", "rumi", [("هر کسی کو دور ماند", "از اصل خویش")], form="masnavi", meter="hazaj"),
    ]
    return Corpus(records)


@pytest.fixture(scope="session")
def small_synth():
    """Compact synthetic corpus for pipeline-level tests."""
    return make_synthetic_corpus(
        SyntheticConfig(n_poets=3, poems_per_poet=24, min_verses=3, max_verses=6, seed=11)
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    results: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            outcome = "PASS" if status == "passed" else "FAIL"
            if results.get(name) != "FAIL":
                results[name] = outcome
    if results:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name in sorted(results):
            terminalreporter.write_line(f"{results[name]}: {name}")
