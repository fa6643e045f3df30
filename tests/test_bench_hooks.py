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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(monkeypatch):
    layers = _load_perfbench(monkeypatch, "layers")
    restore, missing = layers.install(layers.Recorder())
    restore()
    assert missing == []


def test_annihilator_grid_hooks_record_calls(monkeypatch, capsys):
    """A tiny annihilator-grid operation calls every hook whose home is
    that workload, so a change that routes the work around one of them
    fails here and not only in the traced benchmark run."""
    layers = _load_perfbench(monkeypatch, "layers")
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


def _clear_aprings_caches():
    for name, module in list(sys.modules.items()):
        if name == "aprings" or name.startswith("aprings."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_structure_hooks_record_calls(monkeypatch, capsys):
    """The three tiny structure operations call every hook whose home is
    that workload; a subgroup closure called around the hooked
    `groups.subgroup_closure` name would leave it silent.  Every aprings
    cache is cleared first, as the benchmark runs each operation cold."""
    layers = _load_perfbench(monkeypatch, "layers")
    workloads = _load_perfbench(monkeypatch, "workloads")
    _clear_aprings_caches()
    rec = layers.Recorder()
    restore, missing = layers.install(rec)
    try:
        codes = [aprings.cli.main(op) for op in workloads.build("structure", 0, tiny=True)]
    finally:
        restore()
    capsys.readouterr()
    assert missing == [] and codes == [0, 0, 0]
    assert layers.silent_hooks(rec.calls, "structure") == []
    assert rec.calls["groups.subgroup_closure"] == 20
