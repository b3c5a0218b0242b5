#!/usr/bin/env python3
"""Capture ``golden.json``: the sha256 of the output bytes of every op in
every workload pool.

    python3 perfbench/capture_golden.py

Run it from the root of a checkout, at the commit whose outputs define the
golden bytes. Every op is also checked against its independent answer, and
an op that fails is not captured (the script then exits 1). Each captured
op's wall time and output size are printed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import ROOT, Worker  # noqa: E402
from workloads import WORKLOADS, op_key, pool  # noqa: E402


def main() -> int:
    golden = {}
    bad = 0
    worker = Worker(ROOT / "src")
    try:
        for workload in WORKLOADS:
            for i, op in enumerate(pool(workload)):
                header, data, latency = worker.run_op(i, op)
                key = op_key(op)
                problems = ([f"exit code {header['rc']}: {header['err'].strip()}"]
                            if header["rc"] else checks.check(op, data))
                if problems:
                    bad += 1
                    print(f"FAILED {key}: {problems}", file=sys.stderr)
                    continue
                golden[key] = hashlib.sha256(data).hexdigest()
                print(f"{latency:8.3f}s {len(data):9d}B {key}", flush=True)
        worker.finish()
    finally:
        worker.close()
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
