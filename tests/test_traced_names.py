"""The benchmark's tracer names functions of the package by string; a
function deleted or renamed in `src/` must fail here, not only in the
benchmark run."""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_is_a_function_of_its_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [
        f"freqpath.{module}.{name}"
        for module, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"freqpath.{module}"), name,
                                None))
    ]
    assert tracer.TRACED and not missing


def test_package_binds_only_its_submodules():
    # every public name has one home, its module: the tracer patches each
    # namespace that binds a traced function, and the package binds none
    import freqpath

    for info in pkgutil.iter_modules(freqpath.__path__):
        importlib.import_module(f"freqpath.{info.name}")
    extra = {name for name, value in vars(freqpath).items()
             if not name.startswith("__")
             and getattr(value, "__name__", None) != f"freqpath.{name}"}
    assert not extra
