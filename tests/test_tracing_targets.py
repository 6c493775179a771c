"""The benchmark tracer's targets exist in verseid under the names it wraps.

``perfbench/tracing.py`` records a target it cannot find as missing and its
metrics then read 0, so a rename in verseid would quietly blank a span. This
loads the tracer's target list without installing it and checks every name,
and the argument names its hooks read, against the package.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Registered for the dataclasses it defines; no bytecode is written beside it.
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        del sys.modules[spec.name]
    return module


def resolve(target):
    owner = importlib.import_module(target.module)
    for part in target.qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_target_resolves(tracing):
    assert tracing.TARGETS
    for target in tracing.TARGETS:
        assert target.module.startswith("verseid."), target
        assert callable(resolve(target)), target


@pytest.mark.parametrize("module, qualname, names", [
    ("verseid.embeddings", "train_sgns", {"sequences", "cfg"}),
    ("verseid.model", "fit", {"train_ds", "cfg"}),
    ("verseid.encoder", "encoder_forward", {"ids", "train"}),
])
def test_hooks_bind_existing_arguments(tracing, module, qualname, names):
    (target,) = [t for t in tracing.TARGETS if (t.module, t.qualname) == (module, qualname)]
    assert target.after or target.name_of
    assert names <= set(inspect.signature(resolve(target)).parameters)
