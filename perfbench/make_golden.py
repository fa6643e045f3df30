"""Write golden.json: the SHA-256 of the stdout and the exit code of every
benchmark operation, each run cold.

Run it from the root of the repository, on the commit whose outputs are
the reference (the golden file was made on the commit that added the
benchmark):

    python3 perfbench/make_golden.py

A later change must reproduce these digests; regenerating them to make a
changed output pass defeats the benchmark's correctness check.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import worker
import workloads


def main() -> int:
    os.chdir(worker.ROOT)
    sys.path.insert(0, str(worker.ROOT / "src"))
    runner = worker.Runner([], {})
    golden = {}
    for argv in workloads.all_ops():
        stdout, code, error, wall, _ = runner.execute(argv)
        if error is not None:
            print(f"{argv}: {error}", file=sys.stderr)
            return 1
        golden[workloads.op_key(argv)] = {"sha256": hashlib.sha256(stdout.encode()).hexdigest(), "exit": code}
        print(f"{wall:8.3f}s exit {code} {' '.join(argv)}", file=sys.stderr)
    path = worker.ROOT / "perfbench" / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
