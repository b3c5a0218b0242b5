"""Tests of the benchmark's own trace wrappers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import trace_spans  # noqa: E402
from workloads import WORKLOADS, op_list, slots  # noqa: E402


@contextlib.contextmanager
def traced():
    tracer = trace_spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.teardown()


def _cli(argv: list[str]) -> int:
    from padicdyn import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _names(tracer) -> set[str]:
    return {span.name for span in tracer.spans()}


def test_verdicts_op_records_layer_spans():
    with traced() as tracer:
        tracer.begin_op(0)
        assert _cli(["analyze", "--p", "13", "--n", "2", "--depth", "3", "--format", "json"]) == 0
        tracer.end_op(0, 1.0)
    names = _names(tracer)
    assert {"cli.main", "dynamics.sphere_partition", "kernels.cycle_info",
            "dynamics.induced_permutation", "dynamics.minimality_verdict"} <= names
    spans = tracer.spans()
    assert [span.name for span in spans if span.parent < 0] == ["cli.main"]
    assert {span.op for span in spans} == {0}
    # cli holds its own binding of minimality_verdict; the call went through it.
    verdict = [span for span in spans if span.name == "dynamics.minimality_verdict"]
    assert [span.via for span in verdict] == ["cli"]


def test_is_prime_is_recorded_through_every_binding():
    from padicdyn import analysis, padic, unitgroups

    with traced() as tracer:
        assert _cli(["verify", "minimal", "--p", "5", "--depth", "2", "--format", "json"]) == 0
        assert _cli(["analyze", "--p", "5", "--n", "2", "--depth", "2"]) == 0
        unitgroups.multiplicative_order(2, 7, 2)
        analysis.teichmuller(padic.PadicInt(10007, 3, 2))
    summary = tracer.summary()["functions"]["padic.is_prime"]
    assert {"padic", "dynamics", "oracle", "unitgroups"} <= set(summary["via"])
    assert 0 < summary["distinct_ratio"] <= 1


def test_functools_wrappers_are_traced(monkeypatch):
    # A cached is_prime is an lru_cache object, not a function; it must
    # still be wrapped on every binding and put back afterwards.
    from padicdyn import dynamics, padic, unitgroups

    original = padic.is_prime
    cached = functools.lru_cache(maxsize=None)(original)
    holders = [importlib.import_module(f"padicdyn.{m}") for m in trace_spans.LAYERS]
    holders.append(importlib.import_module("padicdyn"))
    for mod in holders:
        if getattr(mod, "is_prime", None) is original:
            monkeypatch.setattr(mod, "is_prime", cached)
    with traced() as tracer:
        assert "padic.is_prime" in tracer.summary()["traced"]
        unitgroups.multiplicative_order(2, 7, 2)
        dynamics.MonomialSystem(7, 2, 1)
        padic.is_prime(11)
    summary = tracer.summary()["functions"]["padic.is_prime"]
    assert {"padic", "dynamics", "unitgroups"} <= set(summary["via"])
    assert tracer.bindings_restored()
    assert padic.is_prime is cached and dynamics.is_prime is cached


def test_tail_latency_counts_the_samples_beyond_it():
    assert run.tail_latency([0.1 * i for i in range(100)]) == (0.1 * 89, 90.0, 10)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_teardown_restores_every_binding():
    modules = [importlib.import_module(f"padicdyn.{m}") for m in trace_spans.LAYERS]
    modules.append(importlib.import_module("padicdyn"))
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    with traced() as tracer:
        wrapped = tracer.bindings()
        assert len(wrapped) > 50
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in wrapped)
        from padicdyn import cli, dynamics, padic

        assert dynamics.is_prime is not padic.is_prime  # one wrapper per binding
        assert cli.minimality_verdict is not dynamics.minimality_verdict
    assert tracer.bindings_restored()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert after == before


def test_self_time_excludes_children():
    with traced() as tracer:
        _cli(["analyze", "--p", "7", "--n", "3", "--depth", "3", "--format", "json"])
    spans = tracer.spans()
    for span in spans:
        children = [c for c in spans if c.parent == span.id]
        child_time = sum(c.end - c.start for c in children)
        assert span.self_s == pytest.approx(span.end - span.start - child_time, abs=1e-9)
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


@pytest.mark.parametrize("workload", WORKLOADS)
def test_coverage_of_one_traced_round(workload, tmp_path):
    first_round = op_list(workload, seed=7)[: 2 * len(slots(workload))]
    spans_file = tmp_path / "spans.csv.gz"
    metrics, report = run.per_layer(HERE.parent / "src", first_round, run._load_golden(),
                                    spans_file)
    assert report["failures"] == []
    assert report["bindings_restored"]
    assert metrics["trace.coverage"][0] >= 0.9
    if workload == "verdicts":
        for name in ("cli.main.self_s", "dynamics.sphere_partition.self_s",
                     "kernels.cycle_info.total_s"):
            assert metrics[name][0] > 0
    if workload == "oracle-bigint":
        assert {"padic", "dynamics", "oracle", "unitgroups"} <= set(report["is_prime_via"])
    with gzip.open(spans_file, "rt") as fh:
        rows = fh.read().splitlines()
    assert rows[0].split(",") == list(trace_spans.Span._fields)
    assert len(rows) == report["spans"] + 1
