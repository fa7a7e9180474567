"""The benchmark in perfbench/ wraps package functions by name; these
tests fail at once when a change deletes or renames one of them."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    """Import perfbench/<name>.py without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_workloads_import(monkeypatch):
    assert _load("workloads", monkeypatch).WORKLOADS


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    originals = {(module, attr): getattr(module, attr) for module, attr, _ in tracing._TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(m, a) is not f for (m, a), f in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
