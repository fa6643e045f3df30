"""Cold-run benchmark of the aprings command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify-paper --seed 1 --seconds 40 --trace 0

Workloads: verify-paper, annihilator-grid, structure (see README.md).
Each run starts a fresh interpreter, the worker, that imports aprings,
builds the inputs and runs the operations; in an untraced run the worker
also times further set-ups in fresh interpreters between operations, and
asks this process to time blocks of the reference loop in speed.py, by
which the measured times are scaled.  One process computes at a time.  The
last line of stdout is the result object; the line before it records the
machine, the source size, the error rate and the measured (unscaled) times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import child_env  # noqa: E402

CHILD_TIMEOUT = 170  # seconds; a run must end within 180

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _run_worker(args, gauge: speed.Gauge) -> tuple[float, float, str]:
    """Run the worker, timing a reference-loop block whenever it asks.
    Returns when it started, the seconds until it reported ready, and its
    remaining stdout."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    gauge.measure()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        lines = []
        for line in proc.stdout:
            if line.startswith("gauge "):
                gauge.measure(int(line.split()[1]))
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed: first line {first.strip()!r}, exit code {proc.returncode}"
                           + (f" (stopped after {CHILD_TIMEOUT} s)" if proc.returncode == -9 else ""))
    return start, setup, "".join(lines)


def _per_pass(report: dict, gauge: speed.Gauge) -> dict:
    """One pass: sums of per-operation medians, in measured seconds and in
    reference seconds (each time divided by the slowdown around it)."""
    samples: dict = {}
    for i, begin, end, wall, cpu in report["runs"]:
        slow_wall, slow_cpu = gauge.around(begin, end)
        samples.setdefault(i, []).append((wall, cpu, wall / slow_wall, cpu / slow_cpu))
    sums = [sum(median(s[k] for s in ss) for ss in samples.values()) for k in range(4)]
    return {"measured_wall": sums[0], "measured_cpu": sums[1], "wall": sums[2], "cpu": sums[3],
            "samples_per_op": min(len(ss) for ss in samples.values())}


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "aprings").glob("*.py")))


def machine_tag() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()}


def measure(args) -> tuple[dict, dict]:
    """Run the benchmark; returns (result object, run information)."""
    gauge = speed.Gauge()
    start, setup, out = _run_worker(args, gauge)
    report = json.loads(out.strip().splitlines()[-1])
    setups = [(start, start + setup, setup)] + report.get("setups", [])
    measured_setup = median(took for _, _, took in setups)
    setup_s = median(took / gauge.around(begin, end)[0] for begin, end, took in setups)
    passes = None if args.trace else _per_pass(report, gauge)

    attempted, failures = report["attempted"], report["failures"]
    problems = failures + report.get("problems", [])
    if args.trace:
        units = layers.per_layer_units()
        values = report["metrics"]
    else:
        units = END_TO_END_UNITS
        values = {
            "wall_s": passes["wall"],
            "cpu_s": passes["cpu"],
            "setup_s": setup_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "error_rate": len(failures) / attempted,
        "attempted": attempted,
        "samples_per_op": passes and passes["samples_per_op"],
        "traced_passes": report.get("traced_passes"),
        "setup_samples": len(setups),
        "measured_s": {"wall": passes and passes["measured_wall"],
                       "cpu": passes and passes["measured_cpu"], "setup": measured_setup},
        "gauge_blocks": len(gauge.ends),
        "machine": machine_tag(),
        "src_aprings_lines": source_lines(),
        "problems": problems[:20],
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        result, info = measure(args)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in info["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
