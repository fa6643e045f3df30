"""Spans and counters around the public functions of each aprings layer.

Used only by the traced run (``--trace 1``).  `install` replaces each
function listed in `HOOKS` by a wrapper at every aprings module that holds
a reference to it (and `verification.CHECKS` by a copy with wrapped
checks); the returned callable puts the originals back.  A span is
(name, start, end, parent span); counters and size observations are kept
next to the spans.  `pass_metrics` turns one traced pass into the
per-layer metrics.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

# The 16 checks of `aprings verify --suite paper`, in suite order.
CHECK_NAMES = (
    "quartic-displayed", "lewis-closed-form", "quartic-closed-form", "quartic-dn-roots",
    "degree-bound", "constant-term-parity", "marks-a5", "marks-generating-polynomial",
    "annihilation-random", "local-structure", "pfister-local-global",
    "zero-divisors-union", "dress-relations", "admissibility", "ap1-agreement",
    "oracle-agreement",
)

LIMIT_FIELDS = ("max_sumset", "max_summands", "max_carrier", "max_subgroup_order", "max_oracle_spectrum")


class Recorder:
    """Spans, counters and observed sizes of one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.stack: list = []          # (span index, name) of the open spans
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(int)
        self.maximum: dict = defaultdict(int)
        self.used: dict = {f: 0.0 for f in LIMIT_FIELDS}
        self.seen: set = set()         # annihilating_polynomial arguments of this operation

    def new_operation(self) -> None:
        self.seen.clear()

    def use(self, field: str, observed: int, cap: int) -> None:
        self.used[field] = max(self.used[field], observed / cap)


# -- observers: (recorder, bound arguments, result) ----------------------------------


def _limits(args):
    from aprings.config import default_limits

    return args.get("limits") or default_limits()


def _poly_from_roots(rec, args, result):
    # The roots are distinct and the result is monic, so its degree is the root count.
    rec.total["roots"] += result.degree
    bits = max((abs(c).bit_length() for c in result.coeffs), default=0)
    rec.maximum["coeff_bits"] = max(rec.maximum["coeff_bits"], bits)


def _root_sum_set(rec, args, result):
    limits = _limits(args)
    rec.maximum["sumset"] = max(rec.maximum["sumset"], len(result))
    rec.use("max_sumset", len(result), limits.max_sumset)
    rec.use("max_summands", args["n"], limits.max_summands)


def _extend(rec, args, result):
    # Only the extension steps of root_sum_set count toward its dedup ratio.
    if rec.stack and rec.stack[-1][1] == "annihilator.root_sum_set":
        signs = 2 if args["mode"] == "signed" else 1
        rec.total["extend_candidates"] += len(args["current"]) * len(args["roots"]) * signs
        rec.total["extend_kept"] += len(result)


def _annihilating_polynomial(rec, args, result):
    key = tuple(args.values())
    if key in rec.seen:
        rec.total["ap_repeats"] += 1
    rec.seen.add(key)


def _table_of_marks(rec, args, result):
    rec.total["classes"] += result.size
    rec.use("max_subgroup_order", args["G"].order, _limits(args).max_subgroup_order)


def _table_for_model(rec, args, result):
    rec.maximum["carrier"] = max(rec.maximum["carrier"], result.size)
    rec.use("max_carrier", result.size, _limits(args).max_carrier)


def _prime_ideals(rec, args, result):
    rec.total["ideals"] += len(result)
    rec.use("max_oracle_spectrum", args["T"].size, _limits(args).max_oracle_spectrum)


@dataclass(frozen=True)
class Hook:
    module: str                 # aprings submodule
    attr: str                   # function, or Class.method
    home: str                   # workload that must record calls
    span: bool = True           # False: count calls only (hot, fine-grained)
    observe: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("cyclotomic", "poly_from_roots", "annihilator-grid", observe=_poly_from_roots),
    Hook("cyclotomic", "CyclotomicInteger.__mul__", "annihilator-grid", span=False),
    Hook("cyclotomic", "CyclotomicInteger.__add__", "annihilator-grid", span=False),
    Hook("annihilator", "root_sum_set", "annihilator-grid", observe=_root_sum_set),
    Hook("annihilator", "_extend", "annihilator-grid", span=False, observe=_extend),
    Hook("annihilator", "annihilating_polynomial", "verify-paper", observe=_annihilating_polynomial),
    Hook("groups", "table_of_marks", "structure", observe=_table_of_marks),
    Hook("groups", "subgroup_closure", "structure", span=False),
    Hook("rings", "poly_eval_in_ring", "verify-paper"),
    Hook("rings", "verify_annihilated", "verify-paper"),
    Hook("rings", "RingModel.length", "verify-paper"),
    Hook("spectrum", "element_predicates", "structure"),
    Hook("spectrum", "spectrum_report", "structure"),
    Hook("spectrum", "dress_relations", "verify-paper"),
    Hook("oracle", "table_for_model", "structure", observe=_table_for_model),
    Hook("oracle", "prime_ideals", "structure", observe=_prime_ideals),
    Hook("oracle", "exhaustive_predicates", "verify-paper"),
)


def _wrap(rec: Recorder, name: str, func, span: bool, observe):
    signature = inspect.signature(func) if observe else None

    if not span:
        def counted(*args, **kwargs):
            rec.calls[name] += 1
            result = func(*args, **kwargs)
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(rec, bound.arguments, result)
            return result
        return counted

    def spanned(*args, **kwargs):
        rec.calls[name] += 1
        index = len(rec.spans)
        parent = rec.stack[-1][0] if rec.stack else -1
        rec.spans.append(None)
        rec.stack.append((index, name))
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            rec.stack.pop()
            rec.spans[index] = (name, start, end, parent)
        if observe:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observe(rec, bound.arguments, result)
        return result
    return spanned


def install(rec: Recorder) -> tuple[Callable[[], None], list[str]]:
    """Wrap every hook; returns (restore, names of hooks whose target is missing)."""
    modules = [m for n, m in list(sys.modules.items()) if n == "aprings" or n.startswith("aprings.")]
    patches = []
    missing = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_everywhere(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patch(module, attr, wrapper)

    for hook in HOOKS:
        module = sys.modules.get(f"aprings.{hook.module}")
        owner_name, _, method = hook.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(getattr(owner, method, None)):
            missing.append(hook.name)
            continue
        if owner_name:
            # The class's method and every override in the same module.
            for cls in vars(module).values():
                if isinstance(cls, type) and issubclass(cls, owner) and method in cls.__dict__:
                    patch(cls, method, _wrap(rec, hook.name, cls.__dict__[method], hook.span, hook.observe))
        else:
            original = getattr(module, method)
            patch_everywhere(original, _wrap(rec, hook.name, original, hook.span, hook.observe))

    verification = sys.modules.get("aprings.verification")
    checks = getattr(verification, "CHECKS", ())
    present = {name for _, name, _ in checks}
    missing += [f"verification.{n}" for n in CHECK_NAMES if n not in present]
    if checks:
        patch(verification, "CHECKS", tuple(
            (criterion, name, _wrap(rec, f"verification.{name}", func, True, None))
            for criterion, name, func in checks
        ))

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore, missing


def _span_times(spans) -> tuple[dict, dict]:
    """Busy time (union of a name's spans) and self time (span minus its
    direct children) per span name."""
    busy: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    for name, start, end, parent in spans:
        duration = end - start
        self_time[name] += duration
        if parent >= 0:
            self_time[spans[parent][0]] -= duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:          # outermost span of this name
            busy[name] += duration
    return busy, self_time


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(rec: Recorder) -> dict:
    """Per-layer metrics of one traced pass, as name -> value."""
    busy, self_time = _span_times(rec.spans)
    calls = rec.calls
    m = {
        "cyclotomic.poly_from_roots.calls": calls["cyclotomic.poly_from_roots"],
        "cyclotomic.poly_from_roots.busy_s": busy["cyclotomic.poly_from_roots"],
        "cyclotomic.poly_from_roots.roots_total": rec.total["roots"],
        "cyclotomic.poly_from_roots.coeff_bits_max": rec.maximum["coeff_bits"],
        "cyclotomic.CyclotomicInteger.mul_calls": calls["cyclotomic.CyclotomicInteger.__mul__"],
        "cyclotomic.CyclotomicInteger.add_calls": calls["cyclotomic.CyclotomicInteger.__add__"],
        "annihilator.root_sum_set.calls": calls["annihilator.root_sum_set"],
        "annihilator.root_sum_set.busy_s": busy["annihilator.root_sum_set"],
        "annihilator.root_sum_set.elements_max": rec.maximum["sumset"],
        "annihilator.root_sum_set.dedup_ratio": _ratio(rec.total["extend_kept"], rec.total["extend_candidates"]),
        "annihilator.annihilating_polynomial.calls": calls["annihilator.annihilating_polynomial"],
        "annihilator.annihilating_polynomial.busy_s": busy["annihilator.annihilating_polynomial"],
        "annihilator.annihilating_polynomial.repeat_ratio": _ratio(rec.total["ap_repeats"], calls["annihilator.annihilating_polynomial"]),
        "groups.table_of_marks.calls": calls["groups.table_of_marks"],
        "groups.table_of_marks.busy_s": busy["groups.table_of_marks"],
        "groups.table_of_marks.classes_total": rec.total["classes"],
        "groups.subgroup_closure.calls": calls["groups.subgroup_closure"],
        "rings.poly_eval_in_ring.calls": calls["rings.poly_eval_in_ring"],
        "rings.poly_eval_in_ring.busy_s": busy["rings.poly_eval_in_ring"],
        "rings.verify_annihilated.busy_s": busy["rings.verify_annihilated"],
        "rings.length.calls": calls["rings.RingModel.length"],
        "rings.length.busy_s": busy["rings.RingModel.length"],
        "spectrum.element_predicates.calls": calls["spectrum.element_predicates"],
        "spectrum.element_predicates.busy_s": busy["spectrum.element_predicates"],
        "spectrum.spectrum_report.busy_s": busy["spectrum.spectrum_report"],
        "spectrum.spectrum_report.self_s": self_time["spectrum.spectrum_report"],
        "spectrum.dress_relations.busy_s": busy["spectrum.dress_relations"],
        "oracle.table_for_model.busy_s": busy["oracle.table_for_model"],
        "oracle.table_for_model.carrier_max": rec.maximum["carrier"],
        "oracle.prime_ideals.busy_s": busy["oracle.prime_ideals"],
        "oracle.prime_ideals.ideals_total": rec.total["ideals"],
        "oracle.exhaustive_predicates.busy_s": busy["oracle.exhaustive_predicates"],
    }
    for name in CHECK_NAMES:
        m[f"verification.{name}.busy_s"] = busy[f"verification.{name}"]
    for field in LIMIT_FIELDS:
        m[f"limits.{field}.used_ratio"] = rec.used[field]
    return m


def silent_hooks(rec_calls: dict, workload: str) -> list[str]:
    """Hooks whose home is `workload` but that recorded no call."""
    homes = [h.name for h in HOOKS if h.home == workload]
    if workload == "verify-paper":
        homes += [f"verification.{n}" for n in CHECK_NAMES]
    return [name for name in homes if not rec_calls.get(name)]


def per_layer_units() -> dict:
    """Unit of every per-layer metric, and of the trace overhead."""
    units = {}
    for name in pass_metrics(Recorder()):
        suffix = name.rsplit(".", 1)[1]
        units[name] = {"busy_s": "s", "self_s": "s", "coeff_bits_max": "bits",
                       "dedup_ratio": "ratio", "repeat_ratio": "ratio",
                       "used_ratio": "ratio"}.get(suffix, "count")
    units["trace.overhead_s"] = "s"
    return units
