"""Every function the benchmark's traced run wraps must still exist.

`perfbench/layers.py` names functions and methods of the package by
module and attribute (`HOOKS`) and the checks of the paper suite by
name.  A refactor that renames one of them breaks only the traced
benchmark run; this test notices it in the ordinary suite.  The file is
imported read-only and every patch is undone.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import aprings.cli  # noqa: F401  (imports every hooked module)

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(monkeypatch):
    layers = _load_layers(monkeypatch)
    restore, missing = layers.install(layers.Recorder())
    restore()
    assert missing == []
