#!/usr/bin/env python3
"""padicdyn benchmark: seeded closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; padicdyn is imported from ``src/``.

One client (this process) drives one fresh worker interpreter
(``worker.py``) through the seeded op list of ``workloads.py``: it sends an
op, waits for the reply, checks the answer against sympy or a plain-Python
recomputation (``checks.py``) and against the golden output digest
(``golden.json``), then sends the next op, until the ops have taken
``--seconds`` of measured time.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median of
fifteen fresh interpreters' time to import ``padicdyn.cli`` and build its
parser, started one at a time between the ops, spread over the measured
window. ``--trace 1`` ignores ``--seconds``: it runs a fixed slice of the
op list, its first two rounds, untraced, then the same ops in a second
worker with every public function of the package wrapped
(``trace_spans.py``), and reports the per-layer metrics. The slice does not
depend on timing, so the per-layer totals compare across commits.

The last line of stdout is the result object; the line before it is a report
with the environment, the seed, the op counts and the tail percentile. Both
are also written to ``.perfbench_out/``, next to the trace spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, op_key, op_list, slots  # noqa: E402

SETUP_PROBES = 15
# Rounds of the op list that the traced run covers.
TRACE_ROUNDS = 2
# Ceiling on a whole run, kept below the 180 s a run may take.
RUN_DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


class TraceError(RuntimeError):
    pass


# Every worker started, so that the watchdog can stop them all.
_LIVE: list[subprocess.Popen] = []


def _kill_all() -> None:
    for proc in _LIVE:
        if proc.poll() is None:
            proc.kill()


class Worker:
    """One worker interpreter, spoken to over its stdin and stdout pipes."""

    def __init__(self, src: Path, trace_file: Path | None = None, probe: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src)]
        if probe:
            cmd.append("--probe")
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        _LIVE.append(self.proc)
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - started
        if line != b"ready\n":
            self.close()
            raise WorkerError(f"worker did not start (exit code {self.proc.returncode})")

    def request(self, obj: dict) -> dict:
        self.proc.stdin.write(json.dumps(obj).encode("ascii") + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError("worker exited mid-run")
        return json.loads(line)

    def run_op(self, op_id: int, spec: dict) -> tuple[dict, bytes, float]:
        t0 = time.perf_counter()
        header = self.request({"op": op_id, "spec": spec})
        data = self.proc.stdout.read(header["len"])
        latency = time.perf_counter() - t0
        if len(data) != header["len"]:
            raise WorkerError("worker reply cut short")
        return header, data, latency

    def finish(self) -> dict:
        final = self.request({"finish": True})
        self.close()
        return final

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()


def _load_golden() -> dict:
    path = HERE / "golden.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_ops(worker: Worker, ops: list[dict], golden: dict, budget_s: float | None,
            op_base: int = 0, before_op=None) -> dict:
    """Drive ``ops`` through ``worker``, one at a time, until they have taken
    ``budget_s`` seconds (or all of them when ``budget_s`` is None).
    ``before_op(measured_s)`` is called before each op, outside its timing."""
    latencies, failures = [], []
    measured = 0.0
    for op_id, op in enumerate(ops, start=op_base):
        if before_op is not None:
            before_op(measured)
        header, data, latency = worker.run_op(op_id, op)
        measured += latency
        latencies.append(latency)
        problems = []
        if header["rc"] != 0:
            problems.append(f"exit code {header['rc']}: {header['err'].strip()[-300:]}")
        else:
            want = golden.get(op_key(op))
            if want is None:
                problems.append("no golden digest")
            elif hashlib.sha256(data).hexdigest() != want:
                problems.append("output differs from the golden bytes")
            problems += checks.check(op, data)
        if problems:
            failures.append({"op": op_key(op), "problems": problems[:5]})
        if budget_s is not None and measured >= budget_s:
            break
    return {"latencies": latencies, "failures": failures, "measured_s": measured}


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest latency, as (value, percentile, samples beyond it).
    With ten samples or fewer no percentile has ten beyond it, and the
    maximum is reported, with none beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def probe_setup(src: Path) -> float:
    """Start-up time of one fresh worker interpreter."""
    w = Worker(src, probe=True)
    w.close()
    return w.ready_s


def end_to_end(src: Path, ops: list[dict], golden: dict, seconds: float) -> tuple[dict, dict]:
    setup: list[float] = []

    def probe_when_due(measured: float) -> None:
        # One probe every seconds/SETUP_PROBES of op time, so that they
        # sample the same stretch of time as the ops.
        if len(setup) < SETUP_PROBES and measured >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe_setup(src))

    worker = Worker(src)
    try:
        res = run_ops(worker, ops, golden, seconds, before_op=probe_when_due)
        final = worker.finish()
    finally:
        worker.close()
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(src))
    lat = res["latencies"]
    ops = len(lat)
    failed = len(res["failures"])
    tail, pct, beyond = tail_latency(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_per_s": ((ops - failed) / res["measured_s"], "ops/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "success_share": ((ops - failed) / ops, "ratio"),
        "peak_rss_mb": (final["peak_rss_mb"], "MB"),
        "cpu_s_per_op": (final["cpu_s"] / ops, "s"),
    }
    report = {
        "env": final["env"],
        "latencies_s": lat,
        "ops": ops,
        "failed": failed,
        "failed_share": failed / ops,
        "measured_s": res["measured_s"],
        "latency_tail_percentile": pct,
        "latency_samples_beyond_tail": beyond,
        "setup_samples_s": setup,
        "failures": res["failures"][:10],
    }
    return metrics, report


# Per-layer metrics: (function, stat, unit) read from the traced run.
PER_LAYER = (
    ("cli.main", "self_s", "s"), ("cli.main", "out_bytes", "bytes"),
    ("dynamics.sphere_partition", "self_s", "s"), ("dynamics.sphere_partition", "items", "count"),
    ("dynamics.induced_permutation", "self_s", "s"),
    ("dynamics.minimality_verdict", "self_s", "s"),
    ("dynamics.product_nonmixing_report", "self_s", "s"),
    ("dynamics.birkhoff_average", "calls", "count"), ("dynamics.birkhoff_average", "total_s", "s"),
    ("dynamics.perturbed_analysis", "self_s", "s"),
    ("kernels.power_map", "total_s", "s"), ("kernels.power_map", "items", "count"),
    ("kernels.power_map_any", "self_s", "s"),
    ("kernels.cycle_info", "total_s", "s"), ("kernels.cycle_info", "items", "count"),
    ("kernels.pair_cycle_info", "total_s", "s"), ("kernels.pair_cycle_info", "items", "count"),
    ("kernels.valuation_table", "total_s", "s"),
    ("unitgroups.multiplicative_order", "calls", "count"),
    ("unitgroups.multiplicative_order", "total_s", "s"),
    ("unitgroups.generated_set", "total_s", "s"), ("unitgroups.generated_set", "items", "count"),
    ("unitgroups.density_check", "total_s", "s"),
    ("analysis.padic_log", "calls", "count"), ("analysis.padic_log", "total_s", "s"),
    ("analysis.padic_exp", "total_s", "s"), ("analysis.pow_padic", "total_s", "s"),
    ("analysis.teichmuller", "total_s", "s"), ("analysis.roots_of_unity", "total_s", "s"),
    ("padic.is_prime", "calls", "count"), ("padic.is_prime", "total_s", "s"),
    ("padic.is_prime", "distinct_ratio", "ratio"),
    ("oracle.certify_power_scaling", "total_s", "s"),
    ("oracle.certify_generator_consistency", "total_s", "s"),
    ("oracle.certify_minimality_criterion", "total_s", "s"),
    ("oracle.certify_unique_invariance", "total_s", "s"),
    ("oracle.certify_log_isometry", "total_s", "s"),
    ("oracle.rational_nullspace", "total_s", "s"),
)


def per_layer(src: Path, ops: list[dict], golden: dict, spans_file: Path) -> tuple[dict, dict]:
    """Run ``ops`` untraced, then traced in a fresh worker."""
    worker = Worker(src)
    try:
        plain = run_ops(worker, ops, golden, None)
        worker.finish()
    finally:
        worker.close()
    worker = Worker(src, trace_file=spans_file)
    try:
        traced = run_ops(worker, ops, golden, None, op_base=len(ops))
        final = worker.finish()
    finally:
        worker.close()
    summary = final["trace"]
    funcs = summary["functions"]
    # A function the tracer could not wrap would read 0 in every stat.
    untraced = sorted({name for name, _, _ in PER_LAYER} - set(summary["traced"]))
    if untraced:
        raise TraceError(f"no trace wrapper on {', '.join(untraced)}")
    metrics = {}
    for name, stat, unit in PER_LAYER:
        if name in funcs:
            value = funcs[name][stat]
        else:
            # Traced but never called: no work, and no wasted primality test.
            value = 1.0 if stat == "distinct_ratio" else 0
        metrics[f"{name}.{stat}"] = (value, unit)
    metrics["trace.overhead_ratio"] = (traced["measured_s"] / plain["measured_s"], "ratio")
    metrics["trace.coverage"] = (summary["coverage"], "ratio")
    report = {
        "env": final["env"],
        "ops": 2 * len(ops),
        "failed": len(plain["failures"]) + len(traced["failures"]),
        "bindings_restored": final["bindings_restored"],
        "spans": summary["spans"],
        "traced_worker_peak_rss_mb": final["peak_rss_mb"],
        "is_prime_via": funcs.get("padic.is_prime", {}).get("via", []),
        "self_s_top": sorted(((f["self_s"], n) for n, f in funcs.items()), reverse=True)[:8],
        "failures": (plain["failures"] + traced["failures"])[:10],
    }
    if not final["bindings_restored"]:
        report["failed"] += 1
        report["failures"].append({"op": "teardown", "problems": ["a wrapped binding survived"]})
    return metrics, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "padicdyn" / "cli.py").is_file():
        print(f"perfbench: no padicdyn sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    golden = _load_golden()
    if not golden:
        print("perfbench: perfbench/golden.json is missing or empty", file=sys.stderr)
        return 2

    # A hung worker is killed, so the run ends with an error instead of hanging.
    watchdog = threading.Timer(RUN_DEADLINE_S, _kill_all)
    watchdog.daemon = True
    watchdog.start()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = op_list(args.workload, args.seed)
    try:
        if args.trace:
            spans_file = out_dir / f"spans-{args.workload}.csv.gz"
            first_rounds = ops[: TRACE_ROUNDS * 2 * len(slots(args.workload))]
            metrics, report = per_layer(src, first_rounds, golden, spans_file)
            report["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            metrics, report = end_to_end(src, ops, golden, args.seconds)
    except (WorkerError, TraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()

    latencies = report.pop("latencies_s", None)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **report}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["ops"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    side = {"report": report, "result": result, "latencies_s": latencies}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(side, indent=1))
    for failure in report["failures"]:
        print(f"perfbench: FAILED {failure['op']}: {failure['problems']}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
