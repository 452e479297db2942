"""The benchmark's tracer wraps graphconf functions by name; a renamed or
deleted target would silently leave its layer empty."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    missing = []
    for module, owner, attr, *_ in load_tracing().TARGETS:
        holder = importlib.import_module(f"graphconf.{module}")
        if owner:
            holder = getattr(holder, owner, None)
        if not callable(getattr(holder, attr, None)):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert not missing
