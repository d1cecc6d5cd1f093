"""Tests of the benchmark's own arithmetic and instrumentation."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from perfbench.layers import (
    LAYERS,
    LayerTimer,
    Patches,
    by_layer,
    resolve_owner,
    spans_with_parents,
)
from perfbench.metrics import (
    failed_frac,
    latency_summary,
    outage_ms,
    samples_beyond,
)
from perfbench.pace import (
    ELASTICITY,
    REFERENCE_STEPS_PER_S,
    Pace,
    rate_at_reference,
    seconds_at_reference,
)
from perfbench.workloads import WORKLOADS
from repro.core.history import HistoryOp
from repro.netsim.stats import LatencyRecorder

# --------------------------------------------------------------------- #
# Self time.
# --------------------------------------------------------------------- #


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def nested_calls(timer: LayerTimer, clock: FakeClock):
    """outer (1s, inner, 1s), inner (2s, leaf, leaf), leaf (3s)."""
    leaf = timer.wrapper("c:Leaf.run", lambda: clock.work(3.0))

    def inner_body():
        clock.work(2.0)
        leaf()
        leaf()

    inner = timer.wrapper("b:Inner.run", inner_body)

    def outer_body():
        clock.work(1.0)
        inner()
        clock.work(1.0)
        return "done"

    return timer.wrapper("a:Outer.run", outer_body)


def test_self_time_of_nested_calls():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)
    outer = nested_calls(timer, clock)
    assert outer() == "done"
    assert outer() == "done"
    assert timer.snapshot() == {"c:Leaf.run": (12.0, 4), "b:Inner.run": (4.0, 2),
                                "a:Outer.run": (4.0, 2)}
    layers = by_layer(timer.snapshot())
    assert (layers["a"], layers["b"], layers["c"]) == ((4.0, 2), (4.0, 2), (12.0, 4))
    # Self times add up to the time of the outermost frames.
    assert sum(seconds for seconds, _ in layers.values()) == timer._stack[0] == 20.0


def test_self_time_survives_exceptions():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)

    def failing():
        clock.work(1.0)
        raise KeyError("missing")

    inner = timer.wrapper("b:Inner.fail", failing)

    def outer_body():
        clock.work(1.0)
        with pytest.raises(KeyError):
            inner()

    timer.wrapper("a:Outer.run", outer_body)()
    assert timer.snapshot() == {"b:Inner.fail": (1.0, 1), "a:Outer.run": (1.0, 1)}
    assert timer._stack == [2.0]


def test_sampled_spans_know_their_parents():
    clock = FakeClock()
    timer = LayerTimer(clock=clock, span_limit=3)
    outer = nested_calls(timer, clock)
    timer.record_spans()
    outer()
    # Four frames closed but only three were kept: both leaves and inner.
    assert [span[0] for span in timer.spans] == ["c:Leaf.run", "c:Leaf.run",
                                                 "b:Inner.run"]
    spans = spans_with_parents(timer.spans)
    assert [(s["name"], s["start"], s["end"], s["parent"]) for s in spans] == [
        ("b:Inner.run", 1.0, 9.0, None),  # its parent fell outside the sample
        ("c:Leaf.run", 3.0, 6.0, 0),
        ("c:Leaf.run", 6.0, 9.0, 0),
    ]


class Base:
    def greet(self) -> str:
        return "base"


class Child(Base):
    def own(self) -> str:
        return "own"


def test_patches_restore_own_and_inherited_methods():
    patches = Patches()
    patches.wrap(Child, "own", lambda fn: lambda self: "wrapped " + fn(self))
    patches.wrap(Child, "greet", lambda fn: lambda self: "wrapped " + fn(self))
    assert (Child().own(), Child().greet(), Base().greet()) == \
        ("wrapped own", "wrapped base", "base")
    patches.restore()
    assert (Child().own(), Child().greet()) == ("own", "base")
    assert "greet" not in Child.__dict__
    with pytest.raises(AttributeError):
        patches.wrap(Child, "missing", lambda fn: fn)


def test_every_layer_entry_point_installs_and_restores():
    originals = {(path, name): resolve_owner(path).__dict__.get(name)
                 for _, path, names in LAYERS for name in names}
    timer = LayerTimer().install()
    try:
        for (path, name), original in originals.items():
            assert getattr(resolve_owner(path), name) is not original
    finally:
        timer.uninstall()
    for (path, name), original in originals.items():
        assert resolve_owner(path).__dict__.get(name) is original


# --------------------------------------------------------------------- #
# Outage.
# --------------------------------------------------------------------- #


def op(op_id, kind, key, invoked, returned, ok=True):
    return HistoryOp(op_id=op_id, client="c0", op=kind, key=key, invoked_at=invoked,
                     returned_at=returned, ok=ok)


def test_outage_is_first_successful_write_after_failure_on_affected_keys():
    history = [
        op(0, "write", b"a", 0.9, 1.5),           # invoked before the failure
        op(1, "write", b"a", 1.1, 1.2, ok=False),  # failed
        op(2, "write", b"z", 1.1, 1.3),           # key not on the failed switch
        op(3, "read", b"a", 1.1, 1.35),           # not a write
        op(4, "write", b"b", 1.2, 1.45),
        op(5, "write", b"a", 1.0, 1.4),           # invoked at the failure: counts
        op(6, "write", b"a", 1.3, None),          # never returned
    ]
    assert outage_ms(history, 1.0, [b"a", b"b"]) == pytest.approx(400.0)
    assert outage_ms(history[:4], 1.0, [b"a", b"b"]) is None


# --------------------------------------------------------------------- #
# Failures and latency summaries.
# --------------------------------------------------------------------- #


def test_failed_frac():
    assert failed_frac(0, 5000) == 0.0
    assert failed_frac(13, 1000) == pytest.approx(0.013)
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(6, 5)


def test_latency_summary_of_known_recorder():
    recorder = LatencyRecorder()
    for micros in range(2000, 0, -1):
        recorder.record(micros * 1e-6)
    summary = latency_summary(recorder)
    assert summary["count"] == 2000
    assert summary["mean_us"] == pytest.approx(1000.5)
    assert summary["p50_us"] == pytest.approx(1000.0)
    assert summary["p99_us"] == pytest.approx(1980.0)
    assert samples_beyond(2000, 99.0) == 20


def test_latency_summary_refuses_a_thin_tail():
    recorder = LatencyRecorder()
    for micros in range(999):
        recorder.record(micros * 1e-6)
    assert samples_beyond(999, 99.0) == 9
    with pytest.raises(ValueError, match="999 latency samples"):
        latency_summary(recorder)


# --------------------------------------------------------------------- #
# The reference pace.
# --------------------------------------------------------------------- #


def test_reference_pace_scales_rates_up_and_times_down_on_a_slow_host():
    half = REFERENCE_STEPS_PER_S / 2  # the host runs the kernel at half pace
    assert rate_at_reference(1000.0, half) == pytest.approx(1000.0 * 2 ** ELASTICITY)
    assert seconds_at_reference(2.0, half) == pytest.approx(2.0 / 2 ** ELASTICITY)
    assert 1000.0 < rate_at_reference(1000.0, half) < 2000.0
    assert rate_at_reference(1000.0, REFERENCE_STEPS_PER_S) == 1000.0
    assert seconds_at_reference(2.0, REFERENCE_STEPS_PER_S) == 2.0


def test_reference_kernel_imports_nothing_from_the_program():
    from perfbench import pace

    tree = ast.parse(Path(pace.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "random", "time"}
    assert Pace().steps_per_s() > 0


# --------------------------------------------------------------------- #
# The benchmark's declaration.
# --------------------------------------------------------------------- #


def test_benchmark_json_names_the_workloads():
    declared = json.loads((Path(__file__).resolve().parent.parent
                           / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for record, workload in zip(declared["workloads"], WORKLOADS.values(), strict=True):
        assert record["why"] == workload.why
        assert len(workload.why) <= 200
        assert not set(workload.heavy) & set(workload.idle), workload.name


def test_runs_print_exactly_the_declared_metrics(tmp_path, monkeypatch, capsys):
    from perfbench import run

    monkeypatch.setattr(run, "WORKROOT", tmp_path)
    declared = json.loads((Path(__file__).resolve().parent.parent
                           / "BENCHMARK.json").read_text())
    workload = WORKLOADS["uniform"]
    untraced = run.end_to_end(workload, seed=3, seconds=0.0)
    traced = run.per_layer(workload, seed=3, seconds=0.0)
    assert sorted(untraced["metrics"]) == sorted(m["name"] for m in declared["end_to_end"])
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in declared["per_layer"])
    for result, declared_metrics in ((untraced, declared["end_to_end"]),
                                     (traced, declared["per_layer"])):
        assert result["correct"] and result["failed"] == 0
        for metric in declared_metrics:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert untraced["attempted"] > 0 and traced["attempted"] > 0
    assert "uniform: seed 3" in capsys.readouterr().out
