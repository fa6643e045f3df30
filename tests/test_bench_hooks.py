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

import aprings.cli  # imports every hooked module
from aprings import annihilator

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


def test_annihilator_grid_hooks_record_calls(monkeypatch, capsys):
    """A tiny annihilator-grid operation calls every hook whose home is
    that workload, so a change that routes the work around one of them
    fails here and not only in the traced benchmark run."""
    layers = _load_layers(monkeypatch)
    annihilator._sum_set_cached.cache_clear()
    annihilator._poly_of_sumset.cache_clear()
    rec = layers.Recorder()
    restore, missing = layers.install(rec)
    try:
        code = aprings.cli.main([
            "annihilator", "--q", '{"atoms":[{"kind":"roots_of_unity","order":5}]}',
            "--n", "2", "--format", "json",
        ])
    finally:
        restore()
    capsys.readouterr()
    assert missing == [] and code == 0
    assert layers.silent_hooks(rec.calls, "annihilator-grid") == []
