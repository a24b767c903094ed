"""The benchmark's tracer wraps symidx functions by name; a rename or a
fold that deletes one would break its traced runs, so every name must
resolve."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, owner, attr in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), name
