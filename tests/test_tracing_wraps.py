"""The benchmark's span tracing wraps library names by attribute lookup; every one of them must exist.

perfbench/ is outside the test paths, so without this a library change that
deletes or renames a wrapped name would fail only the traced benchmark run.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracing_wraps_install_and_unwrap():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # an AttributeError names a wrapped name that is gone
        originals = list(tracer._patches)
    finally:
        tracer.unwrap_all()
    assert originals
    assert all(getattr(owner, attr) is original for owner, attr, original in originals)
