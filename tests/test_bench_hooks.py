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

import pytest

import aprings.cli  # imports every hooked module
from aprings import annihilator, verification
from aprings.annihilator import RootSpec
from aprings.rings import bundled_model

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
    cache is cleared first, as the benchmark runs each operation cold.
    The tiny marks operation is on S3: one closure per coset of each
    class representative, 5 + 2 + 1 + 0 = 8."""
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
    assert rec.calls["groups.subgroup_closure"] == 8


@pytest.mark.parametrize(
    "spec, n, mode",
    [
        (RootSpec.unity(4), 3, "signed"),  # squared twice
        (RootSpec.unity(8), 2, "signed"),
        (RootSpec.unity(3), 2, "unsigned"),  # not symmetric
        (RootSpec.integers(-1, 1), 4, "signed"),
        (bundled_model("burnside-A5").root_spec(), 2, "signed"),
    ],
)
def test_each_p_n_is_one_poly_from_roots_call(monkeypatch, spec, n, mode):
    """The even step of `poly_from_roots` squares the roots in a loop, not
    by calling itself through the module name the traced run wraps: one
    p_n stays one recorded call, and roots_total stays its degree."""
    layers = _load_perfbench(monkeypatch, "layers")
    _clear_aprings_caches()
    rec = layers.Recorder()
    restore, missing = layers.install(rec)
    try:
        p = annihilator.annihilating_polynomial(spec, n, mode)
    finally:
        restore()
    metrics = layers.pass_metrics(rec)
    assert missing == []
    assert metrics["cyclotomic.poly_from_roots.calls"] == 1
    assert metrics["cyclotomic.poly_from_roots.roots_total"] == p.degree
    assert p.degree == len(annihilator.root_sum_set(spec, n, mode))


def test_annihilation_check_still_evaluates_in_the_ring(monkeypatch):
    """`annihilation-random` checks p_n(r) = 0 through the ghost on the
    free models and cross-checks one element in ten by Horner in the
    ring, so the verify-paper hook on `rings.poly_eval_in_ring` keeps
    recording calls even without the finite model in the list."""
    layers = _load_perfbench(monkeypatch, "layers")
    _clear_aprings_caches()
    free = ("Z[C4]", "burnside-A5")
    for name in free:
        bundled_model(name)  # built outside the trace: no R2 evaluations
    monkeypatch.setattr(verification, "ANNIHILATION_MODELS", free)
    rec = layers.Recorder()
    restore, missing = layers.install(rec)
    try:
        verification.check_annihilation_random()
    finally:
        restore()
    assert missing == []
    assert rec.calls["rings.poly_eval_in_ring"] == 10 * len(free)
