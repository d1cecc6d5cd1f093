"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uniform --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 20 --trace 0

``--trace 0`` repeats the workload (same seed) until ``--seconds`` of wall
time have passed and reports the end-to-end metrics: wall-clock ones as
medians over the repetitions, simulated ones from the first (every
repetition must reproduce them exactly).  ``setup_s`` and ``sim_ops_per_s``
are given at the reference pace of :mod:`perfbench.pace`, whose kernel is
timed just before and after every repetition; the human-readable table
also prints them raw.  ``--trace 1`` alternates untraced
and traced repetitions and reports per-layer metrics from the traced ones
(see :mod:`perfbench.layers`).  Every repetition runs the workload's output
checks; a failed check or a determinism mismatch is an error naming the
workload, with exit status 1 and no result line.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

Scratch files (spilled histories, telemetry, span samples, determinism
records) go to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from statistics import median
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKROOT = ROOT / ".perfbench"
#: Set-up samples per run, topped up with extra builds after the timed loop.
MIN_SETUPS = 21


class BenchmarkError(Exception):
    """A failed output check, determinism check or missing program."""


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    import repro
    if Path(repro.__file__).resolve().parent != package.resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {package}")


def source_digest() -> str:
    """sha256 over the program and benchmark sources: keys the determinism
    records, so an edited tree never compares against a stale record."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) \
        if path.exists() else 0


@dataclass
class Rep:
    """One repetition: wall-clock measurements plus the deterministic
    signature every repetition of the same seed must reproduce."""

    setup_s: float
    sim_seconds: float
    check_seconds: float
    counters: Dict[str, float]
    signature: Dict[str, float]

    @property
    def ops(self) -> int:
        return int(self.counters["attempted"])


def run_rep(workload, seed: int, probe) -> Rep:
    """Build the deployment, run the scenario and check its outputs."""
    from perfbench.metrics import latency_summary
    from perfbench.workloads import FAILED_SWITCH, inspect_deployment, keys_on_switch
    from repro.deploy import build_deployment, run_scenario

    counters: Dict[str, float] = {}
    affected: List[bytes] = []
    WORKROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="rep-", dir=WORKROOT))
    try:
        scenario = workload.scenario(
            seed, workdir,
            lambda result: "; ".join(inspect_deployment(
                result, scenario, affected, probe, counters)) or None)
        gc.collect()
        start = time.perf_counter()
        deployment = build_deployment(scenario.spec)
        setup_s = time.perf_counter() - start
        if scenario.failed_at is not None:
            affected.extend(keys_on_switch(deployment, FAILED_SWITCH))
        probe.reset()
        result = run_scenario(scenario.spec, scenario.load, scenario.checks,
                              deployment=deployment)
        if result.failures:
            raise BenchmarkError(f"output check failed: {'; '.join(result.failures)}")
        if probe.check_source is not None:
            probe.check_source.close()
        counters["history.bytes"] = dir_bytes(workdir / "history")
        counters["trace.bytes"] = dir_bytes(workdir / "trace")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        reads = latency_summary(result.read_latency)
        writes = latency_summary(result.write_latency)
    except ValueError as exc:
        raise BenchmarkError(str(exc)) from None
    signature = dict(counters)
    signature["sim_goodput_mqps"] = result.scaled_qps / 1e6
    for kind, summary in (("read", reads), ("write", writes)):
        signature[f"sim_{kind}s"] = summary["count"]
        for stat in ("mean", "p50", "p99"):
            signature[f"sim_{kind}_{stat}_us"] = summary[f"{stat}_us"]
    return Rep(setup_s=setup_s, sim_seconds=probe.sim_seconds,
               check_seconds=probe.check_seconds, counters=counters,
               signature=signature)


def check_same(first: Dict[str, float], other: Dict[str, float], what: str) -> None:
    """Raise unless two deterministic signatures are identical."""
    if other != first:
        diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
        raise BenchmarkError(
            f"determinism: {what} differs from the first run in "
            + ", ".join(f"{k} ({first.get(k)!r} vs {other.get(k)!r})" for k in diff[:6]))


def check_record(name: str, seed: int, rep: Rep) -> None:
    """Compare the signature with the one an earlier run of this seed and
    tree recorded (or record it)."""
    path = WORKROOT / "signatures" / f"{name}-{seed}-{source_digest()}.json"
    if path.exists():
        check_same(json.loads(path.read_text()), rep.signature, "this run")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rep.signature, sort_keys=True))


def extra_setups(workload, seed: int, count: int, pace) -> List[float]:
    """Time ``count`` more builds of the workload's deployment, each at the
    reference pace of a kernel sample taken just before it."""
    from perfbench.pace import seconds_at_reference
    from repro.deploy import build_deployment
    times = []
    for _ in range(count):
        scenario = workload.scenario(seed, WORKROOT, lambda result: None)
        steps_per_s = pace.steps_per_s()
        gc.collect()
        start = time.perf_counter()
        deployment = build_deployment(scenario.spec)
        times.append(seconds_at_reference(time.perf_counter() - start, steps_per_s))
        deployment.teardown()
    return times


def end_to_end(workload, seed: int, seconds: float) -> dict:
    """The untraced run: repeat the workload for ``seconds``."""
    from perfbench.layers import ScenarioProbe
    from perfbench.metrics import failed_frac
    from perfbench.pace import Pace, rate_at_reference, seconds_at_reference
    from repro.netsim.telemetry import peak_rss_bytes

    pace = Pace()
    probe = ScenarioProbe().install()
    reps: List[Rep] = []
    paces: List[tuple] = []  # kernel speed (before, after) each repetition
    start = time.perf_counter()
    try:
        while not reps or time.perf_counter() - start < seconds:
            before = pace.steps_per_s()
            reps.append(run_rep(workload, seed, probe))
            paces.append((before, pace.steps_per_s()))
            check_same(reps[0].signature, reps[-1].signature, f"repetition {len(reps)}")
    finally:
        probe.uninstall()
    check_record(workload.name, seed, reps[0])
    raw_rates = [rep.ops / rep.sim_seconds for rep in reps]
    rates = [rate_at_reference(rate, (before + after) / 2)
             for rate, (before, after) in zip(raw_rates, paces, strict=True)]
    setups = [seconds_at_reference(rep.setup_s, before)
              for rep, (before, _) in zip(reps, paces, strict=True)]
    setups += extra_setups(workload, seed, MIN_SETUPS - len(setups), pace)
    first = reps[0].signature
    ops = sum(rep.ops for rep in reps)
    failed = sum(int(rep.counters["failed"]) for rep in reps)
    metrics = {
        "setup_s": (median(setups), "s"),
        "sim_ops_per_s": (median(rates), "ops/s"),
        "peak_rss_mb": (peak_rss_bytes() / 2**20, "MiB"),
        "sim_goodput_mqps": (first["sim_goodput_mqps"], "Mqps"),
        "sim_read_mean_us": (first["sim_read_mean_us"], "us"),
        "sim_write_mean_us": (first["sim_write_mean_us"], "us"),
    }
    report = dict(metrics)
    report["raw_setup_s"] = (median(rep.setup_s for rep in reps), "s")
    report["raw_sim_ops_per_s"] = (median(raw_rates), "ops/s")
    report["kernel_steps_per_s"] = (median(sum(paces, ())), "1/s")
    report["failed_frac"] = (failed_frac(failed, ops), "ratio")
    for name in ("sim_read_p50_us", "sim_read_p99_us", "sim_write_p50_us",
                 "sim_write_p99_us"):
        report[name] = (first[name], "us")
    report["check_ops_per_s"] = (
        median([rep.ops / rep.check_seconds for rep in reps])
        if reps[0].check_seconds else None, "ops/s")
    report["outage_ms"] = (first.get("outage_ms"), "ms")
    print(f"{workload.name}: seed {seed}, {len(reps)} repetitions, "
          f"{len(setups)} set-ups, {first['events']:.0f} engine events and "
          f"{reps[0].ops} ops per repetition")
    for name, (value, unit) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>14} {unit}")
    return {"correct": True, "attempted": ops, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def per_layer(workload, seed: int, seconds: float) -> dict:
    """The traced run: alternate untraced and traced repetitions."""
    from perfbench.layers import LayerTimer, ScenarioProbe, by_layer, delta
    from perfbench.metrics import failed_frac

    probe = ScenarioProbe()
    timer = LayerTimer()
    marks: Dict[str, dict] = {}
    untraced: List[Rep] = []
    traced: List[Rep] = []
    phases: List[dict] = []

    def begin() -> None:
        marks["begin"] = timer.snapshot()
        if not traced:  # the first traced repetition keeps a span sample
            timer.record_spans()

    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        probe.install()
        try:
            untraced.append(run_rep(workload, seed, probe))
        finally:
            probe.uninstall()
        timer.install()
        probe.install()
        probe.on_begin = begin
        probe.on_end = lambda: marks.__setitem__("end", timer.snapshot())
        try:
            traced.append(run_rep(workload, seed, probe))
        finally:
            probe.on_begin = probe.on_end = None
            probe.uninstall()
            timer.uninstall()
        phases.append(delta(marks["end"], marks["begin"]))
        check_same(untraced[0].signature, untraced[-1].signature,
                   f"untraced repetition {len(untraced)}")
        check_same(untraced[0].signature, traced[-1].signature,
                   f"traced repetition {len(traced)}")
        calls = {label: value[1] for label, value in phases[-1].items()}
        if calls != {label: value[1] for label, value in phases[0].items()}:
            raise BenchmarkError("determinism: layer call counts differ between "
                                 "traced repetitions")
    check_record(workload.name, seed, untraced[0])
    write_spans(workload.name, seed, timer)

    rep = traced[0]
    ops = rep.ops
    counters = rep.counters
    entries = phases[0]
    layers = by_layer(entries)
    check_layers(workload, layers, rep)

    def calls(*labels: str) -> int:
        return sum(entries.get(label, (0.0, 0))[1] for label in labels)

    def per_op(count: float) -> float:
        return count / ops

    self_us = {layer: median([by_layer(phase)[layer][0] / r.ops * 1e6
                              for phase, r in zip(phases, traced, strict=True)])
               for layer in layers}
    lookups = counters.get("hotkeys.lookups", 0)
    metrics = {
        "engine.events_per_op": (per_op(counters["events"]), "count/op"),
        "engine.schedules_per_op": (per_op(calls("engine:Simulator.call_after",
                                                 "engine:Simulator.schedule")), "count/op"),
        "host.packets_per_op": (per_op(calls("host:Host.send", "host:Host.receive")),
                                "count/op"),
        "host.tx_drops": (counters["host.tx_drops"], "count"),
        "link.transmits_per_op": (per_op(calls("link:Link.transmit")), "count/op"),
        "link.drops": (counters["link.drops"], "count"),
        "switch.passes_per_op": (per_op(calls("switch:Switch._process")), "count/op"),
        "switch_program.calls_per_op": (per_op(layers["switch_program"][1]), "count/op"),
        "switch_program.dirty_forwards": (
            counters.get("switch_program.dirty_forwards", 0), "count"),
        "switch_program.stale_drops": (counters.get("switch_program.stale_drops", 0),
                                       "count"),
        "kvstore.calls_per_op": (per_op(layers["kvstore"][1]), "count/op"),
        "agent.retransmissions_per_kop": (
            per_op(counters.get("agent.retransmissions", 0)) * 1e3, "count/kop"),
        "agent.timeouts": (counters.get("agent.timeouts", 0), "count"),
        "client.resolves_per_op": (per_op(calls("client:KVFuture.resolve")), "count/op"),
        "stats.records_per_op": (per_op(layers["stats"][1]), "count/op"),
        "hotkeys.sketch_records_per_op": (per_op(calls("hotkeys:HotKeySketch.record")),
                                          "count/op"),
        "hotkeys.coalesced_ratio": (
            counters.get("hotkeys.coalesced", 0) / lookups if lookups else 0.0, "ratio"),
        "hotkeys.widened": (counters.get("hotkeys.widened", 0), "count"),
        "controller.probes": (calls("controller:FailureDetector.probe"), "count"),
        "controller.failover_ms": (counters.get("controller.failover_ms", 0.0), "ms"),
        "controller.recovery_ms": (counters.get("controller.recovery_ms", 0.0), "ms"),
        "faults.actions": (counters["faults.actions"], "count"),
        "history.bytes_per_op": (per_op(counters["history.bytes"]), "B/op"),
        "checker.states_per_op": (per_op(counters.get("checker.states", 0)), "count/op"),
        # The checker runs after the drain, outside the phase the other
        # layers' self times cover: its number is the wall time of its call.
        "checker.us_per_op": (
            median([r.check_seconds / r.ops * 1e6 for r in traced]), "us/op"),
        "trace.bytes_per_op": (per_op(counters["trace.bytes"]), "B/op"),
        "tcp.segments_per_op": (per_op(calls("tcp:TcpEndpoint._transmit",
                                             "tcp:TcpEndpoint._send_ack")), "count/op"),
        "tcp.retransmits": (counters.get("tcp.retransmits", 0), "count"),
        "zookeeper.messages_per_op": (per_op(counters.get("zookeeper.messages", 0)),
                                      "count/op"),
        "outage_ms": (counters.get("outage_ms", 0.0), "ms"),
        "failed_frac": (failed_frac(int(counters["failed"]), ops), "ratio"),
        "trace_overhead": (median([r.sim_seconds for r in traced])
                           / median([r.sim_seconds for r in untraced]), "ratio"),
    }
    for layer in layers:
        if layer != "checker":
            metrics[f"{layer}.self_us_per_op"] = (self_us[layer], "us/op")
    print(f"{workload.name}: seed {seed}, {len(traced)} traced and {len(untraced)} "
          f"untraced repetitions, {ops} ops per repetition")
    total = sum(self_us.values())
    for layer in layers:
        print(f"  {layer:<15} {self_us[layer]:>9.3f} us/op self "
              f"({self_us[layer] / total:6.1%})  {layers[layer][1] / ops:>8.3f} calls/op")
    for name, (value, unit) in sorted(metrics.items()):
        if not name.endswith(".self_us_per_op"):
            print(f"  {name:<32} {value:>14.6g} {unit}")
    return {"correct": True, "attempted": sum(r.ops for r in untraced + traced),
            "failed": sum(int(r.counters["failed"]) for r in untraced + traced),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(metrics.items())}}


def check_layers(workload, layers: Dict[str, tuple], rep: Rep) -> None:
    """Heavy layers must do work; idle layers must make no call."""
    from perfbench.workloads import EVERYWHERE
    calls = {layer: value[1] for layer, value in layers.items()}
    calls["checker"] = 1 if rep.check_seconds else 0
    lazy = [layer for layer in EVERYWHERE + workload.heavy if not calls[layer]]
    busy = [layer for layer in workload.idle if calls[layer]]
    if lazy:
        raise BenchmarkError(f"heavy layer(s) made no call: {lazy}")
    if busy:
        raise BenchmarkError(f"idle layer(s) made calls: "
                             f"{ {layer: calls[layer] for layer in busy} }")


def write_spans(name: str, seed: int, timer) -> None:
    from perfbench.layers import spans_with_parents
    path = WORKROOT / "spans" / f"{name}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spans_with_parents(timer.spans)))
    print(f"{name}: {len(timer.spans)} sampled spans in {path}")


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process)."""
    from perfbench.workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="uniform, hot-skew, failover, zookeeper or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall seconds of repetitions to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
        from perfbench.workloads import WORKLOADS
        if args.workload == "all":
            return run_all(args)
        if args.workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload; choose from "
                                 f"{', '.join(WORKLOADS)} or all")
        workload = WORKLOADS[args.workload]
        run = per_layer if args.trace else end_to_end
        result = run(workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
