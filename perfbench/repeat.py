"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload structure --runs 10 [--trace 0] [--json out.json]

Each run measures for ``run_seconds`` of BENCHMARK.json, as the benchmark
is meant to be run.  Seeds 1..runs are used in turn.  For every metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the interquartile spread as a share of the median, which is how
run-to-run noise is compared with a metric's bound.  Untraced, it does the
same for the measured (unscaled) times of the same runs, so the two
spreads can be compared.  With ``--json`` the summaries and every run's
result and information line are also written to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def spread(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else None}


def summarise(results: list[dict]) -> dict:
    return {name: spread([r["metrics"][name]["value"] for r in results], metric["unit"])
            for name, metric in results[0]["metrics"].items()}


def summarise_measured(infos: list[dict]) -> dict:
    """The same for the measured seconds on each run's information line."""
    return {f"measured_{name}": spread([i["measured_s"][name] for i in infos], "s")
            for name in infos[0]["measured_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write the summaries and the runs here")
    args = parser.parse_args(argv)

    runs = []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(RUN_SECONDS), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"info": info, "result": result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    summary = summarise([r["result"] for r in runs])
    measured = {} if args.trace else summarise_measured([r["info"] for r in runs])
    for name, s in {**summary, **measured}.items():
        share = "-" if s["iqr_share"] is None else f"{s['iqr_share']:.4f}"
        print(f"{name:50s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {share}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": RUN_SECONDS,
                                         "machine": info["machine"],
                                         "src_aprings_lines": info["src_aprings_lines"],
                                         "summary": summary, "measured_summary": measured,
                                         "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
