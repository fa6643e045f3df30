"""Command line interface.

Subcommands: annihilator, marks, spectrum, analyze, verify.  Each
command's options are declared once, as data in COMMANDS.  A
well-formed call (a command, then exact `--name value`, `--name=value`
or flag tokens of that command, with valid values and every required
option) is read from that table directly; anything else goes to the
argparse parser built from it, which alone prints help, usage and
errors.  Exit codes: 0 success, 1 verification failure or internal
error, 2 usage error, 3 resource bound, 141 stdout closed by its
reader.  Malformed input is turned into ExpressionError where it is
read, so any other ValueError or KeyError is an internal fault.  JSON output is deterministic (sorted keys,
canonical orderings); unbounded integers are serialized as decimal
strings.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .annihilator import (
    RootSpec,
    annihilating_polynomial,
    closed_form_for_preset,
    root_spec_preset,
    root_sum_set,
)
from .errors import ApringsError, BoundExceeded, ExpressionError
from .groups import (
    a5_reference_difference,
    group_from_json,
    named_group,
    named_group_names,
    table_of_marks,
)
from .intpoly import decimal_str
from .rings import bundled_model, construct_model, parse_element, verify_annihilated
from .spectrum import LISTED_PRIME_BOUND, element_predicates, spectrum_report
from .verification import paper_checks

if TYPE_CHECKING:
    import argparse

USAGE_ERROR = 2
BOUND_ERROR = 3
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command that SIGPIPE ended


def _json_parts(value, indent: str, parts: list[str]) -> None:
    """Append `value` as `json.dumps(value, sort_keys=True, indent=2)`
    writes it, whose indented encoder is pure Python.  Dict keys must be
    str, and a float or any other type raises TypeError."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif not isinstance(value, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
    elif not isinstance(value, dict) and all(isinstance(item, str) for item in value):
        inner = indent + "  "
        items = (",\n" + inner).join(map(encode_basestring_ascii, value))
        parts.append(f"[\n{inner}{items}\n{indent}]")
    else:
        inner = indent + "  "
        is_dict = isinstance(value, dict)
        parts.append("{" if is_dict else "[")
        for i, item in enumerate(sorted(value) if is_dict else value):
            parts.append(",\n" + inner if i else "\n" + inner)
            if is_dict:
                parts.append(encode_basestring_ascii(item) + ": ")
                item = value[item]
            _json_parts(item, inner, parts)
        parts.append("\n" + indent + ("}" if is_dict else "]"))


def _emit_json(payload) -> None:
    parts: list[str] = []
    _json_parts(payload, "", parts)
    print("".join(parts))


def _load(text: str, by_name: Callable, from_json: Callable):
    """An input argument: `preset:NAME`, `named:NAME` or a bare NAME,
    looked up by `by_name`, or `@FILE` or inline JSON, built by
    `from_json`.  An unreadable file or malformed JSON raises
    ExpressionError here; `by_name` and `from_json` raise it themselves
    for an unknown name or a malformed description."""
    if text.startswith("@") or text.lstrip().startswith("{"):
        try:
            data = json.loads(Path(text[1:]).read_text() if text.startswith("@") else text)
        except (ValueError, OSError) as exc:
            raise ExpressionError(str(exc)) from exc
        return from_json(data)
    prefix, _, name = text.partition(":")
    return by_name(name if prefix in ("preset", "named") else text)


def _root_spec_from_json(data) -> tuple[RootSpec, str, None]:
    spec = RootSpec.from_json(data)
    spec.roots()  # overlapping atoms raise ExpressionError
    return spec, "signed", None


def cmd_annihilator(args) -> int:
    spec, default_mode, preset = _load(
        args.q, lambda name: (*root_spec_preset(name), name), _root_spec_from_json
    )
    if args.n < 1:
        raise ExpressionError("n must be positive")
    mode = args.mode or default_mode
    sums = root_sum_set(spec, args.n, mode)
    poly = annihilating_polynomial(spec, args.n, mode)
    if args.closed_form:
        if preset is None:
            raise ExpressionError("--closed-form needs a preset root spec")
        closed = closed_form_for_preset(preset, args.n)
        if closed is None:
            raise ExpressionError(f"preset {preset!r} has no closed form")
        # stated for the preset's mode; in the other it holds for symmetric roots
        spec_roots = set(spec.roots())
        if mode != default_mode and spec_roots != {-r for r in spec_roots}:
            raise ExpressionError(
                f"the closed form of preset {preset!r} is stated for {default_mode} "
                f"sums; its roots are not symmetric, so {mode} sums differ"
            )
        if closed != poly:
            print("closed form disagrees with the enumerated polynomial", file=sys.stderr)
            return 1
    if args.format == "json":
        payload = {
            "spec": spec.to_json(),
            "n": args.n,
            "mode": mode,
            "roots": sums.to_json(),
            "polynomial": poly.to_json(),
            "degree": poly.degree,
        }
        if args.closed_form:
            payload["closed_form_matches"] = True
        _emit_json(payload)
    else:
        roots = ", ".join(str(e) for e in sums.elements)
        print(f"n = {args.n}, mode = {mode}, |T_n| = {len(sums)}")
        print(f"roots: {roots}")
        print(f"p_n(x) = {poly}")
        print(f"coefficients (ascending): {', '.join(map(decimal_str, poly.coeffs))}")
        if args.closed_form:
            print("closed form matches the enumeration")
    return 0


def cmd_marks(args) -> int:
    table = table_of_marks(_load(args.group, named_group, group_from_json))
    if args.check_paper:
        if a5_reference_difference(table) is not None:
            print("table of marks does not match the bundled A5 reference", file=sys.stderr)
            return 1
        print("table of marks matches the bundled A5 reference")
        return 0
    if args.format == "json":
        _emit_json(table.to_json())
    else:
        width = len(str(table.group_order))
        labels = table.labels()
        print("classes: " + ", ".join(labels))
        for label, row in zip(labels, table.marks):
            cells = " ".join(f"{v:>{width}}" for v in row)
            print(f"{label:>6} | {cells}")
    return 0


def cmd_spectrum(args) -> int:
    if args.primes_up_to < 2:
        raise ExpressionError("--primes-up-to must be at least 2, the least prime")
    model = _load(args.ring, bundled_model, construct_model)
    report = spectrum_report(model, prime_bound=args.primes_up_to)
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        print(f"model: {report.model_name}")
        print(f"local: {report.local}")
        if report.finite_primes is not None:
            for info in report.finite_primes:
                tag = " (fundamental ideal)" if info.is_fundamental else ""
                print(f"prime of index {info.index}, size {info.size}{tag}")
        else:
            print(f"minimal primes ({len(report.minimal)}):")
            for p in report.minimal:
                print(f"  {p.label}")
            if report.fundamental is not None:
                print(f"fundamental ideal: {report.fundamental.label}")
            print("maximal families:")
            for fam in report.max_families:
                print(f"  {fam.base_label} + (p), {fam.note}; listed: {fam.primes}")
    return 0


def cmd_analyze(args) -> int:
    model = _load(args.ring, bundled_model, construct_model)
    element = parse_element(model, args.element)
    report = verify_annihilated(model, element)
    preds = element_predicates(model, element)
    if args.format == "json":
        _emit_json(
            {
                "model": model.name,
                "element": model.element_to_json(element),
                "length": report.length,
                "annihilator_degree": report.degree,
                "annihilated": report.annihilated,
                "predicates": preds.to_json(),
            }
        )
    else:
        print(f"model: {model.name}")
        print(f"element: {model.format_element(element)}")
        print(f"length: {report.length}")
        print(
            f"annihilated by p_{report.length} (degree {report.degree}): "
            f"{report.annihilated}"
        )
        for name, value in preds.to_json().items():
            shown = "unsupported" if value is None else value
            print(f"{name}: {shown}")
    return 0


def cmd_verify(args) -> int:
    results = paper_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return USAGE_ERROR
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


class Option(NamedTuple):
    """One option of a command, as `ArgumentParser.add_argument` takes
    it: a `store_true` flag, or an option taking one value that `type`
    converts and `choices` restricts."""

    flag: str
    help: Optional[str] = None
    type: Optional[Callable] = None
    choices: Optional[tuple[str, ...]] = None
    required: bool = False
    default: object = None
    store_true: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    """A subcommand: its help line, its handler and its options."""

    help: str
    handler: Callable
    options: tuple[Option, ...]


FORMAT = Option("--format", choices=("text", "json"), default="text")

COMMANDS: dict[str, Command] = {
    "annihilator": Command("construct an annihilating polynomial", cmd_annihilator, (
        Option("--q", "root spec: preset:NAME, JSON, or @file", required=True),
        Option("--n", "number of summands", type=int, required=True),
        Option("--mode", choices=("signed", "unsigned")),
        Option("--closed-form", store_true=True),
        FORMAT,
    )),
    "marks": Command("compute a table of marks", cmd_marks, (
        Option("--group", f"named:NAME ({', '.join(named_group_names())}), JSON, or @file",
               required=True),
        Option("--check-paper", "compare against the bundled A5 reference table", store_true=True),
        FORMAT,
    )),
    "spectrum": Command("prime spectrum report", cmd_spectrum, (
        Option("--ring", "preset:NAME, JSON, or @file", required=True),
        Option("--primes-up-to", type=int, default=LISTED_PRIME_BOUND),
        FORMAT,
    )),
    "analyze": Command("length, annihilation and predicates of an element", cmd_analyze, (
        Option("--ring", required=True),
        Option("--element", 'e.g. "2*g0 - 3*g1 + 1"', required=True),
        FORMAT,
    )),
    "verify": Command("run the bundled verification suite", cmd_verify, (
        Option("--suite", choices=("paper",), required=True),
        Option("--filter", "only run checks whose name contains this"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command, built from COMMANDS; it
    parses what `_read` declines and prints help, usage and errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="aprings",
        description="Annihilating polynomials and structure theory for AP rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in command.options:
            if option.store_true:
                p.add_argument(option.flag, action="store_true", help=option.help)
            else:
                p.add_argument(option.flag, type=option.type, choices=option.choices,
                               required=option.required, default=option.default,
                               help=option.help)
        p.set_defaults(func=command.handler)
    return parser


def _read(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would return for `argv`, when argv[0] is a
    command followed only by exact `--name value`, `--name=value` and
    flag tokens of that command, every value converts and is among the
    choices, and every required option is given; else None.  A separate
    value may not start with "-", where argparse reads options."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {option.flag: option for option in command.options}
    values = {option.dest: False if option.store_true else option.default
              for option in command.options}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        option = options.get(flag)
        if option is None or (eq and option.store_true):
            return None
        if option.store_true:
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
            if option.type is not None:
                try:
                    value = option.type(value)
                except (TypeError, ValueError):
                    return None
            if option.choices is not None and value not in option.choices:
                return None
        values[option.dest] = value
        given.add(flag)
    if any(option.required and option.flag not in given for option in command.options):
        return None
    return SimpleNamespace(command=argv[0], func=command.handler, **values)


def parse_args(argv: Sequence[str]):
    """The arguments of one call.  A well-formed `argv` is read from
    COMMANDS directly; anything else (help, an unknown, abbreviated or
    missing option, a bad value, a stray token) goes to argparse, which
    parses it or prints help, usage or the error and exits."""
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--element" in argv[:-1]:
        # joined, so that an element starting with "-" is not read as an option
        i = argv.index("--element")
        argv[i:i + 2] = [f"--element={argv[i + 1]}"]
    args = parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`| head -1`): no traceback, and
        # what stdout still buffers goes to devnull, so that the flush at
        # exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except BoundExceeded as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return BOUND_ERROR
    except ExpressionError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ApringsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
