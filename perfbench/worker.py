"""Benchmark worker: one fresh interpreter that runs padicdyn operations.

Started by ``run.py`` (never by hand). On start it imports ``padicdyn.cli``
from ``--src``, builds the parser and writes one ``ready`` line. With
``--probe`` it exits there; that start-up is what ``setup_s`` times.

Otherwise it serves a closed loop over a pipe. Each request is one JSON line
on stdin, either ``{"op": id, "spec": {...}}`` or ``{"finish": true}``. The
reply to an op is a JSON header line followed by the op's raw output bytes.
The reply to ``finish`` holds the worker's CPU time and peak RSS and, with
``--trace FILE``, the per-layer summary of the spans, which are also written
to FILE as gzipped CSV.

The protocol uses a duplicate of file descriptor 1; ``sys.stdout`` is
pointed at stderr between ops, so nothing an op prints can corrupt it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import sys
import time


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def _lib_calls():
    """Library entry points the CLI has no command for, by name.

    Functions are looked up on their modules at call time, so that trace
    wrappers installed on those modules see the calls.
    """
    from padicdyn import analysis, dynamics, padic

    def nonmixing(a):
        sys_ = dynamics.MonomialSystem(a["p"], a["n"], a["l"])
        return dynamics.product_nonmixing_report(sys_, a["k"])

    def pow_padic(a):
        x = padic.PadicInt(a["p"], a["K"], a["x"])
        e = padic.PadicInt(a["p"], a["K"], a["a"])
        return {"residue": analysis.pow_padic(x, e).residue}

    def teichmuller(a):
        return {"residue": analysis.teichmuller(padic.PadicInt(a["p"], a["K"], a["x"])).residue}

    def log_exp(a):
        lg = analysis.padic_log(padic.PadicInt(a["p"], a["K"], a["x"]))
        ex = analysis.padic_exp(padic.PadicInt(a["p"], a["K"], a["y"]))
        return {"log": lg.residue, "exp": ex.residue}

    return {"nonmixing": nonmixing, "pow_padic": pow_padic, "teichmuller": teichmuller,
            "log_exp": log_exp}


def _run_op(spec, cli, lib_calls) -> tuple[float, int, bytes, str]:
    """Execute one op; returns (seconds, exit code, output bytes, error text)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if spec["kind"] == "cli":
                rc = cli.main(list(spec["argv"]))
            else:
                rc, result = 0, lib_calls[spec["call"]](spec["args"])
        if spec["kind"] == "cli":
            data = out.getvalue().encode("utf-8")
    except Exception as exc:  # a failed op is reported and counted, not fatal
        return time.perf_counter() - t0, 1, b"", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if spec["kind"] == "lib":
        # Serialising the returned object is the benchmark's work, not the op's.
        if dataclasses.is_dataclass(result):
            result = dataclasses.asdict(result)
        data = _canonical(result)
    return elapsed, rc, data, err.getvalue()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()

    proto = os.fdopen(os.dup(1), "wb")
    sys.stdout = sys.stderr
    sys.path.insert(0, args.src)
    from padicdyn import cli

    cli.build_parser()
    proto.write(b"ready\n")
    proto.flush()
    if args.probe:
        return 0

    import numpy
    from padicdyn import kernels

    env = {
        "backend": kernels.get_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    lib_calls = _lib_calls()
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import trace_spans

        tracer = trace_spans.Tracer()
        tracer.install()

    cpu0 = _cpu_seconds()
    out_bytes: dict[int, int] = {}
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("finish"):
            break
        op_id = req["op"]
        if tracer is not None:
            tracer.begin_op(op_id)
        elapsed, rc, data, err = _run_op(req["spec"], cli, lib_calls)
        if tracer is not None:
            tracer.end_op(op_id, elapsed)
            if req["spec"]["kind"] == "cli":
                out_bytes[op_id] = len(data)
        header = {"op": op_id, "elapsed": elapsed, "rc": rc, "len": len(data), "err": err[-2000:]}
        proto.write(json.dumps(header).encode("ascii") + b"\n")
        proto.write(data)
        proto.flush()

    final = {
        "cpu_s": _cpu_seconds() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    if tracer is not None:
        tracer.teardown()
        final["bindings_restored"] = tracer.bindings_restored()
        final["trace"] = tracer.summary(out_bytes)
        tracer.write(args.trace)
    proto.write(json.dumps(final).encode("ascii") + b"\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
