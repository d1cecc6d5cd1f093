"""The four benchmark workloads, their output checks and their counters.

Every workload is a closed loop through ``LoadClient`` (4 logical clients,
8 operations outstanding each, 64-byte values) built from the public
``repro.deploy`` API: :func:`Workload.scenario` returns the
``DeploymentSpec``, ``WorkloadSpec`` and ``ScenarioChecks`` for one seed.
The ``ScenarioChecks.custom`` hook (:func:`inspect_deployment`) runs
before ``run_scenario``'s teardown, which drops the hot-key manager, so it
is where counters of the finished deployment are read and where the
workload's own output checks run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.metrics import outage_ms
from repro.core.controller import ControllerConfig
from repro.core.detector import DetectorConfig
from repro.deploy import DeploymentSpec, ScenarioChecks, WorkloadSpec

#: Layers every workload drives (the closed loop and its accounting).
EVERYWHERE = ("engine", "client", "workloads", "stats")

#: Layers that do no work unless a workload turns them on.
OPTIONAL_LAYERS = ("hotkeys", "faults", "history", "checker", "trace", "tcp", "zookeeper")

FAILED_SWITCH = "S1"
RECOVERY_SWITCH = "S3"
PROBE_INTERVAL = 5e-3


@dataclass(frozen=True)
class Scenario:
    """The three ``run_scenario`` inputs of one workload run, plus the
    simulated instant of its injected failure (``None`` without one)."""

    spec: DeploymentSpec
    load: WorkloadSpec
    checks: ScenarioChecks
    failed_at: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    """One named workload: its record in ``BENCHMARK.json`` and its scenario."""

    name: str
    summary: str
    #: Layers that do most of their work here (besides :data:`EVERYWHERE`).
    heavy: Tuple[str, ...]
    #: Layers that must report zero calls here.
    idle: Tuple[str, ...]
    #: Simulated seconds of load per run.
    duration: float
    #: ``build(seed, duration, workdir, hook) -> Scenario``.
    build: Callable[[int, float, Path, Callable], Scenario]

    @property
    def why(self) -> str:
        """The one-line record ``BENCHMARK.json`` carries for this workload."""
        return f"{self.summary} Heavy: {' '.join(self.heavy)}; zero: {' '.join(self.idle)}"

    def scenario(self, seed: int, workdir: Path, hook: Callable) -> Scenario:
        return self.build(seed, self.duration, workdir, hook)


def _closed_loop(duration: float, drain: float, write_ratio: float,
                 zipf_theta: float = 0.0):
    return WorkloadSpec(num_clients=4, concurrency=8, write_ratio=write_ratio,
                        zipf_theta=zipf_theta, duration=duration, drain=drain)


def _netchain_checks(hook: Callable) -> ScenarioChecks:
    return ScenarioChecks(linearizability=False, chain_invariants=True,
                          no_lost_keys=True, max_failed_fraction=0.0, custom=[hook])


def _uniform(seed: int, duration: float, workdir: Path, hook: Callable) -> Scenario:
    spec = DeploymentSpec(backend="netchain", scale=1.0, store_size=1000,
                          value_size=64, seed=seed)
    return Scenario(spec, _closed_loop(duration, 2e-3, 0.3), _netchain_checks(hook))


def _hot_skew(seed: int, duration: float, workdir: Path, hook: Callable) -> Scenario:
    spec = DeploymentSpec(backend="netchain", scale=1000.0, store_size=1000,
                          value_size=64, seed=seed, retry_timeout=2e-3,
                          hotkey_tier=True,
                          options={"hotkey_tier": {"hot_threshold": 16}})
    return Scenario(spec, _closed_loop(duration, 0.02, 0.1, zipf_theta=0.99),
                    _netchain_checks(hook))


def _failover(seed: int, duration: float, workdir: Path, hook: Callable) -> Scenario:
    # The failure lands at a seeded phase of the probe cycle, so the
    # detection delay (and the outage) is an input drawn from the seed.
    # Few keys with 8 outstanding ops per client make per-key histories
    # overlap, so the linearizability checker really searches.
    failed_at = 0.3 * duration + random.Random(seed).uniform(0.0, PROBE_INTERVAL)
    controller = ControllerConfig(replication=3, vnodes_per_switch=4,
                                  store_slots=1088, sync_items_per_sec=2000.0,
                                  per_group_overhead=0.0, seed=seed)
    detector = DetectorConfig(probe_interval=PROBE_INTERVAL,
                              new_switch=RECOVERY_SWITCH)
    spec = DeploymentSpec(backend="netchain", scale=1000.0, store_size=64,
                          value_size=64, seed=seed, retry_timeout=1e-3,
                          vnodes_per_switch=4,
                          faults=[(failed_at, "fail_switch", FAILED_SWITCH)],
                          telemetry={"run_dir": str(workdir / "trace")},
                          options={"controller_config": controller,
                                   "detector_config": detector})
    checks = ScenarioChecks(linearizability=True, history_mode="spill",
                            run_dir=str(workdir / "history"), verdict_cache=None,
                            chain_invariants=True, no_lost_keys=True, custom=[hook])
    # Recovery (about 75 simulated ms, mostly rule installs) starts under
    # load and must finish inside the drain for the end-of-run checks.
    return Scenario(spec, _closed_loop(duration, 0.15, 0.5), checks, failed_at)


def _zookeeper(seed: int, duration: float, workdir: Path, hook: Callable) -> Scenario:
    spec = DeploymentSpec(backend="zookeeper", scale=1.0, store_size=1000,
                          value_size=64, seed=seed)
    checks = ScenarioChecks(linearizability=False, max_failed_fraction=0.0,
                            custom=[hook])
    return Scenario(spec, _closed_loop(duration, 0.02, 0.3), checks)


def _idle(*busy: str) -> Tuple[str, ...]:
    return tuple(layer for layer in OPTIONAL_LAYERS if layer not in busy)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="uniform",
        summary="NetChain query path at paper capacities, uniform seeded keys, no faults.",
        heavy=("engine", "host", "link", "switch", "switch_program", "kvstore", "agent"),
        idle=_idle(), duration=3e-3, build=_uniform),
    Workload(
        name="hot-skew",
        summary="Zipf 0.99 seeded keys, hot-key tier on, deep client NIC backlog.",
        heavy=("hotkeys", "host", "switch_program"),
        idle=_idle("hotkeys"), duration=0.15, build=_hot_skew),
    Workload(
        name="failover",
        summary="S1 fails at a seeded instant; detector failover, recovery onto S3; "
                "telemetry, spilled history, linearizability check.",
        heavy=("controller", "faults", "history", "checker", "trace"),
        idle=_idle("faults", "history", "checker", "trace"), duration=0.1,
        build=_failover),
    Workload(
        name="zookeeper",
        summary="The paper's ZooKeeper baseline, uniform's seeded keys and clients.",
        heavy=("tcp", "zookeeper", "engine", "host", "link"),
        idle=("switch_program", "kvstore", "agent", "controller") + _idle("tcp", "zookeeper"),
        duration=0.15, build=_zookeeper),
)}


# --------------------------------------------------------------------- #
# Reading the finished deployment.
# --------------------------------------------------------------------- #

def _netchain_counters(deployment, counters: Dict[str, float]) -> List[str]:
    cluster = deployment.cluster
    controller = cluster.controller
    agents = cluster.agent_list()
    programs = [controller.programs[name] for name in sorted(controller.programs)]
    counters["agent.timeouts"] = sum(agent.timeouts for agent in agents)
    counters["agent.retransmissions"] = sum(agent.retransmissions for agent in agents)
    counters["switch_program.dirty_forwards"] = sum(
        program.stats.reads_forwarded_dirty for program in programs)
    counters["switch_program.stale_drops"] = sum(
        program.stats.writes_stale_dropped + program.stats.dropped_stale_epoch
        for program in programs)
    caches = [agent.read_cache for agent in agents if agent.read_cache is not None]
    counters["hotkeys.lookups"] = sum(cache.stats.lookups for cache in caches)
    counters["hotkeys.coalesced"] = sum(cache.stats.coalesced for cache in caches)
    manager = deployment.hotkey_manager
    counters["hotkeys.widened"] = manager.stats.widened if manager is not None else 0
    counters["hotkeys.narrowed"] = manager.stats.narrowed if manager is not None else 0
    outstanding = sum(agent.outstanding() for agent in agents)
    if outstanding:
        return [f"{outstanding} operation(s) still outstanding after the drain"]
    return []


def keys_on_switch(deployment, switch: str) -> List[bytes]:
    """Preloaded keys whose chain holds ``switch`` (read before the run:
    recovery later splices a replacement into those chains)."""
    controller = deployment.cluster.controller
    vgroups = set(controller.affected_vgroups(switch))
    return [key.encode("utf-8") for key in deployment.keys
            if controller.ring.vgroup_for_key(key) in vgroups]


def _failover_counters(deployment, failed_at: float, affected_keys: List[bytes],
                       probe, counters: Dict[str, float]) -> List[str]:
    cluster = deployment.cluster
    controller = cluster.controller
    failures: List[str] = []
    detections = [t for t, name in cluster.detector.detections if name == FAILED_SWITCH]
    reports = [r for r in controller.recovery_reports
               if r.failed_switch == FAILED_SWITCH]
    if not detections:
        failures.append(f"the detector never detected the failure of {FAILED_SWITCH}")
    else:
        counters["controller.failover_ms"] = (detections[0] - failed_at) * 1e3
    if not reports or reports[0].aborted or reports[0].finished_at <= 0.0:
        failures.append(f"recovery of {FAILED_SWITCH} did not complete in the run")
    else:
        counters["controller.recovery_ms"] = (reports[0].finished_at - failed_at) * 1e3
    store = probe.check_source
    if store is None:
        failures.append("the linearizability checker never ran")
        return failures
    if len(store) != counters["attempted"]:
        failures.append(f"history holds {len(store)} ops but "
                        f"{counters['attempted']} completed")
    outage = outage_ms(store.iter_ops(), failed_at, affected_keys)
    if outage is None:
        failures.append("no write on a key of the failed switch succeeded "
                        "after the failure")
    else:
        counters["outage_ms"] = outage
    report = probe.check_report
    counters["checker.states"] = sum(key.states_explored for key in report.keys.values())
    return failures


def _zookeeper_counters(deployment, counters: Dict[str, float]) -> List[str]:
    ensemble = deployment.ensemble
    servers = [ensemble.servers[sid] for sid in sorted(ensemble.servers)]
    counters["zookeeper.messages"] = sum(server.messages_handled for server in servers)
    endpoints = {}
    for server in servers:
        for endpoint in list(server.peers.values()) + list(
                server._client_endpoints.values()):
            for end in endpoint.conn._endpoints.values():
                endpoints[id(end)] = end
    counters["tcp.retransmits"] = sum(end.retransmissions for end in endpoints.values())
    live = ensemble.live_servers()
    diverged = [path for path in deployment.paths
                if len({server.tree.get(path).data for server in live}) != 1]
    if diverged:
        return [f"{len(diverged)} key(s) differ across the live servers' data "
                f"trees, e.g. {diverged[:3]}"]
    return []


def inspect_deployment(result, scenario: Scenario, affected_keys: List[bytes],
                       probe, counters: Dict[str, float]) -> List[str]:
    """Read counters of the finished deployment into ``counters`` and run
    the workload's own output checks; returns failure messages.

    ``affected_keys`` are the keys on the failed switch's chains
    (:func:`keys_on_switch`, failover only)."""
    deployment = result.deployment
    topology = deployment.topology
    counters["attempted"] = result.completed_ops
    counters["failed"] = result.failed_ops
    counters["events"] = probe.events
    counters["host.tx_drops"] = sum(host.tx_dropped for host in topology.hosts.values())
    counters["link.drops"] = sum(link.stats.total_dropped() for link in topology.links)
    counters["faults.actions"] = len(result.fault_trace)
    failures: List[str] = []
    if hasattr(deployment, "cluster"):
        failures += _netchain_counters(deployment, counters)
    if scenario.failed_at is not None:
        failures += _failover_counters(deployment, scenario.failed_at, affected_keys,
                                       probe, counters)
    if hasattr(deployment, "ensemble"):
        failures += _zookeeper_counters(deployment, counters)
    return failures
