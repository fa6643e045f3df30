"""One benchmark run inside a fresh interpreter; started by run.py.

Prints "ready" once the interpreter is up, ``aprings`` is imported and the
inputs are built (run.py times that as set-up), then calls
``aprings.cli.main`` once per operation, each from cold caches, with
stdout captured and checked against its golden digest.  The last line of
stdout is a JSON object with the measurements.

Untraced (``--trace 0``): cycles through the operations until
``--seconds`` have passed and at least one full pass is done, recording
each operation's start, end, wall and CPU time; between operations it
asks run.py for reference-loop blocks ("gauge <rounds>" on stdout,
answered on stdin) and times further set-ups.  Traced (``--trace 1``): alternates
untraced and traced passes over all operations, so that the trace
overhead is measured in the same run, and reports the per-layer metrics
of each traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

import layers
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 12   # set-up timings per untraced run, spread over it
GAUGE_EVERY = 0.5    # seconds between reference-loop blocks in an untraced run


def _lru_caches() -> list:
    """Every functools cache in the aprings modules, methods included."""
    found = {}
    for name, module in list(sys.modules.items()):
        if not (name == "aprings" or name.startswith("aprings.")):
            continue
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *members):
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    return list(found.values())


class Runner:
    def __init__(self, ops, golden):
        import aprings.cli

        self.main = aprings.cli.main
        self.ops = ops
        self.golden = golden
        self.caches = _lru_caches()
        self.failures: list[str] = []

    def run(self, argv, on_start=None) -> tuple[float, float]:
        """Run one operation cold and check its output; returns (wall seconds, CPU seconds)."""
        stdout, code, error, wall, cpu = self.execute(argv, on_start)
        self._check(argv, stdout, code, error)
        return wall, cpu

    def execute(self, argv, on_start=None):
        """Run one operation cold; returns (stdout, exit code, error, wall, CPU)."""
        for cache in self.caches:
            cache.cache_clear()
        if on_start:
            on_start()
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return out.getvalue(), code, error, wall, cpu

    def _check(self, argv, stdout, code, error) -> None:
        key = workloads.op_key(argv)
        expected = self.golden.get(key)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if error is not None:
            problem = f"raised {error}"
        elif expected is None:
            problem = "has no golden digest"
        elif (digest, code) != (expected["sha256"], expected["exit"]):
            problem = f"output differs from golden (exit {code}, sha256 {digest[:12]})"
        else:
            problem = _extra_check(argv, stdout)
        if problem:
            self.failures.append(f"{key}: {problem}")


def _extra_check(argv, stdout) -> str | None:
    """The A5 table of marks must also equal the bundled reference."""
    if argv[:3] != ["marks", "--group", "named:A5"]:
        return None
    from aprings.groups import A5_LABEL_ALIASES, a5_reference_table

    table = json.loads(stdout)
    reference = a5_reference_table()
    labels = [c["label"] for c in table["classes"]]
    if table["marks"] != reference["marks"] or labels != [A5_LABEL_ALIASES[l] for l in reference["labels"]]:
        return "A5 marks differ from a5_reference_table()"
    return None


def child_env() -> dict:
    """The caller's environment without PYTHONOPTIMIZE (runs are made
    without -O) and without APRINGS_* variables (runs use the default limits)."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE" and not k.startswith("APRINGS_")}


def time_setup(argv: list[str]) -> float:
    """Seconds from starting `worker.py argv --setup-only` in a fresh
    interpreter until it reports ready: start, import, build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {line.strip()!r}, exit {proc.returncode}")
    return seconds


def _gauge(rounds: int) -> None:
    """Ask run.py to time a block of the reference loop (speed.py) and wait
    until it has; run.py runs the loop in its own process."""
    print(f"gauge {rounds}", flush=True)
    sys.stdin.readline()


def untraced(runner: Runner, seconds: float, setup_argv: list[str]) -> dict:
    """Cycle through the operations.  Between them, ask for a reference-loop
    block at least every GAUGE_EVERY seconds, and time SETUP_SAMPLES set-ups
    spread over the run, at most one after each operation; those left over
    are taken at the end (this process waits while each one runs)."""
    runs = []        # (operation index, start, end, wall, cpu)
    setups = []      # (start, end, seconds)
    _gauge(speed.MAX_ROUNDS)
    start = last_gauge = time.perf_counter()
    while True:
        i = len(runs) % len(runner.ops)
        begin = time.perf_counter()
        wall, cpu = runner.run(runner.ops[i])
        runs.append((i, begin, time.perf_counter(), wall, cpu))
        if len(setups) < SETUP_SAMPLES and time.perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
            begin = time.perf_counter()
            took = time_setup(setup_argv)
            setups.append((begin, time.perf_counter(), took))
        if time.perf_counter() - last_gauge >= GAUGE_EVERY:
            _gauge(speed.rounds_for(time.perf_counter() - last_gauge))
            last_gauge = time.perf_counter()
        # Stop once a full pass is done and the next operation would overrun.
        previous = [r for r in runs if r[0] == len(runs) % len(runner.ops)]
        expected = previous[-1][3] if previous else 0.0
        if len(runs) >= len(runner.ops) and time.perf_counter() - start + expected > seconds:
            break
    # Workloads with long operations leave set-up samples over; take them
    # now, each after a reference-loop block, as in the loop above.
    while len(setups) < SETUP_SAMPLES:
        _gauge(speed.MIN_ROUNDS)
        begin = time.perf_counter()
        took = time_setup(setup_argv)
        setups.append((begin, time.perf_counter(), took))
    _gauge(speed.MAX_ROUNDS)
    return {"attempted": len(runs), "runs": runs, "setups": setups}


def traced(runner: Runner, seconds: float, workload: str, tiny: bool) -> dict:
    plain_walls, traced_walls, per_pass = [], [], []
    calls: dict = {}
    missing: list[str] = []
    start = time.perf_counter()
    # Stop once a pair of passes is done and another pair would overrun.
    while not traced_walls or time.perf_counter() - start + plain_walls[-1] + traced_walls[-1] <= seconds:
        plain_walls.append(sum(runner.run(op)[0] for op in runner.ops))
        rec = layers.Recorder()
        restore, missing = layers.install(rec)
        try:
            traced_walls.append(sum(runner.run(op, rec.new_operation)[0] for op in runner.ops))
        finally:
            restore()
        per_pass.append(layers.pass_metrics(rec))
        calls = dict(rec.calls)
    # The lower median is an observed value, so counts stay whole numbers.
    metrics = {name: median_low([p[name] for p in per_pass]) for name in per_pass[0]}
    metrics["trace.overhead_s"] = median(traced_walls) - median(plain_walls)
    problems = [f"wrap target missing: {name}" for name in missing]
    if not tiny:
        problems += [f"no calls recorded on {workload}: {name}"
                     for name in layers.silent_hooks(calls, workload)]
    return {
        "attempted": len(runner.ops) * (len(plain_walls) + len(traced_walls)),
        "metrics": metrics,
        "problems": problems,
        "traced_passes": len(traced_walls),
    }


def _peak_rss_mb() -> float:
    """This process's peak resident set size.  VmHWM starts afresh at exec,
    unlike ru_maxrss, which keeps the peak of the parent forked from."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)            # operations name their @file inputs relative to the root
    sys.path.insert(0, str(ROOT / "src"))
    import aprings.cli  # noqa: F401  (set-up includes the import)

    ops = workloads.build(args.workload, args.seed, args.tiny)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(ops, golden)
    if args.trace:
        result = traced(runner, args.seconds, args.workload, args.tiny)
    else:
        setup_argv = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])
        result = untraced(runner, args.seconds, setup_argv)
    result["failures"] = runner.failures
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
