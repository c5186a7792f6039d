"""The benchmark's tracer binds every name it wraps.

``perfbench/tracer.py`` looks up each name it wraps (``game.embed``,
``adversaries.js``, ``METRICS["js"]``, the adversary methods in each class's
own ``__dict__``) and raises on one that a rename removed.  This runs its
install and uninstall in process, as CI's tracer step does, so Tier-1 sees
such a rename too.  It only reads ``perfbench/``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_name_it_wraps():
    tracer = _load_tracer()
    getters = [
        tracer._resolve(importlib.import_module(module), attr)[0]
        for module, attr, *_ in tracer.BINDINGS
    ]
    originals = [get() for get in getters]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(get(), "perfbench_traced", False) for get in getters)
    finally:
        t.uninstall()
    assert all(get() is original for get, original in zip(getters, originals))
