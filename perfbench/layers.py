"""Timing the layers of ``repro`` from outside the program.

:data:`LAYERS` names, per layer, the classes (or module) and the entry
points the traced run wraps.  :class:`LayerTimer` replaces those class
attributes with timing wrappers *before* a deployment is built, so bound
methods captured at construction (``host.bind(port, agent._on_packet)``,
``sim.call_after(delay, self._deliver, ...)``) resolve to the wrappers too.
Besides the public entry points the table lists the private methods the
engine calls directly (event callbacks such as ``Link._deliver``), so the
time of each event lands on the layer whose code runs it.

Self time comes from a stack of child time: each wrapper pushes a slot,
runs the wrapped call, pops its children's total and adds its own elapsed
time to its parent's slot.  ``Simulator.run`` is the outermost frame, so
each engine event's callback is one root span below it, and time inside no
wrapped layer (the event loop, unwrapped callbacks) is ``engine`` self
time.  Counts and time sums stay in memory; full spans (name, depth,
start, end) are kept only for the first :attr:`LayerTimer.span_limit`
frames after :meth:`LayerTimer.record_spans` is called.

:class:`ScenarioProbe` wraps only the scenario boundaries -- the first
``LoadClient.start`` (load start), the return of each outermost
``Simulator.run`` (end of drain) and the streaming linearizability checker
-- and is installed on untraced and traced runs alike.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, "module:Class" or "module", entry points), in layer order.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("engine", "repro.netsim.engine:Simulator", ("run", "call_after", "schedule")),
    ("host", "repro.netsim.host:Host", ("send", "receive", "transmit", "_dispatch")),
    ("link", "repro.netsim.link:Link", ("transmit", "_deliver")),
    ("switch", "repro.netsim.switch:Switch", ("receive", "forward", "_process")),
    ("switch_program", "repro.core.switch_program:NetChainSwitchProgram",
     ("process",)),
    ("kvstore", "repro.core.kvstore:SwitchKVStore",
     ("lookup", "read", "read_loc", "write_loc")),
    ("agent", "repro.core.agent:NetChainAgent",
     ("read", "write", "cas", "_on_packet", "_on_timeout")),
    ("client", "repro.core.client:KVFuture", ("resolve", "then")),
    ("workloads", "repro.workloads.generators:KeyValueWorkload", ("next_operation",)),
    ("workloads", "repro.workloads.clients:LoadClient", ("start", "_issue", "_on_done")),
    ("stats", "repro.netsim.stats:LatencyRecorder", ("record",)),
    ("stats", "repro.netsim.stats:IntervalCounter", ("record",)),
    ("hotkeys", "repro.core.hotkeys:HotKeySketch", ("record",)),
    ("hotkeys", "repro.core.hotkeys:HotKeyManager",
     ("read_route", "widen", "narrow", "_poll", "_commit_widen")),
    ("hotkeys", "repro.core.hotkeys:ClientReadCache", ("read", "_resolve")),
    ("controller", "repro.core.controller:NetChainController",
     ("route_for_key", "chain_ips_for_key", "read_route_for_key", "fast_failover",
      "failure_recovery")),
    ("controller", "repro.core.detector:FailureDetector", ("probe", "_probe_round")),
    ("faults", "repro.netsim.faults:FaultInjector",
     ("link_down", "link_up", "set_link_faults", "clear_link_faults", "fail_switch",
      "recover_switch", "gray_fail_switch", "fail_host", "recover_host", "partition",
      "heal_partition")),
    ("faults", "repro.netsim.faults:FaultSchedule", ("arm", "_fire")),
    ("history", "repro.core.history_store:SpillingHistory",
     ("invoke", "complete", "finish")),
    # The name run_scenario calls (it imports the checker into its module).
    ("checker", "repro.deploy.scenario", ("check_linearizable_streaming",)),
    ("trace", "repro.core.trace:Tracer",
     ("query_submit", "query_tx", "query_reply", "query_timeout", "host_tx", "host_rx",
      "link_tx", "switch_enq", "switch_stage", "op_complete")),
    ("trace", "repro.core.trace:TelemetryPlane",
     ("attach_topology", "attach_netchain", "start", "finish")),
    ("trace", "repro.netsim.telemetry:PeriodicSampler", ("_tick",)),
    ("tcp", "repro.netsim.tcp:TcpEndpoint",
     ("send", "_transmit", "_on_packet", "_on_timeout", "_send_ack")),
    ("zookeeper", "repro.baselines.zookeeper:ZooKeeperServer",
     ("_receive", "_handle", "_check_quorum", "_apply_commit")),
    ("zookeeper", "repro.baselines.zk_client:ZooKeeperClient", ("submit", "_on_message")),
    ("zookeeper", "repro.baselines.zk_client:ZooKeeperKVClient", ("read", "write")),
    ("zookeeper", "repro.baselines.data_tree:DataTree", ("get", "set_data")),
)

#: Layer names in report order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))


def resolve_owner(path: str):
    """The class (``"module:Class"``) or module (``"module"``) at ``path``."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` with ``make(current)``.

        Only plain functions are wrapped; anything else (a property, a
        staticmethod, a missing name) raises, so a renamed entry point
        fails the traced run instead of silently going unmeasured.
        """
        static = inspect.getattr_static(owner, name)
        if not inspect.isfunction(static):
            raise TypeError(f"{getattr(owner, '__name__', owner)}.{name} is "
                            f"{type(static).__name__}, not a function")
        self._saved.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, make(getattr(owner, name)))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:
                delattr(owner, name)  # the wrapper shadowed an inherited method
            else:
                setattr(owner, name, original)


class LayerTimer:
    """Per-entry-point self time and call counts, kept in memory.

    ``clock`` defaults to :func:`time.perf_counter`; tests pass a fake.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_limit: int = 4000) -> None:
        self.clock = clock
        self.span_limit = span_limit
        #: "layer:Owner.name" -> [self seconds, calls]
        self.entries: Dict[str, List] = {}
        #: Child-time slots of the open frames; slot 0 sums outermost frames.
        self._stack: List[float] = [0.0]
        #: Sampled spans: (entry, depth, start, end); depth 1 is outermost.
        self.spans: List[Tuple[str, int, float, float]] = []
        self._span_room = [0]
        self._patches = Patches()

    def wrapper(self, label: str, fn: Callable) -> Callable:
        """A timing wrapper around ``fn``, accounted under ``label``."""
        acc = self.entries.setdefault(label, [0.0, 0])
        stack = self._stack
        clock = self.clock
        spans = self.spans
        room = self._span_room

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                children = stack.pop()
                stack[-1] += elapsed
                acc[0] += elapsed - children
                acc[1] += 1
                if room[0]:
                    room[0] -= 1
                    spans.append((label, len(stack), start, end))

        return timed

    def install(self) -> "LayerTimer":
        for layer, path, names in LAYERS:
            owner = resolve_owner(path)
            owner_name = path.partition(":")[2] or path.rpartition(".")[2]
            for name in names:
                label = f"{layer}:{owner_name}.{name}"
                self._patches.wrap(owner, name,
                                   lambda fn, label=label: self.wrapper(label, fn))
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def record_spans(self) -> None:
        """Keep the next :attr:`span_limit` frames as full spans."""
        self.spans.clear()
        self._span_room[0] = self.span_limit

    def snapshot(self) -> Dict[str, Tuple[float, int]]:
        """Current (self seconds, calls) per entry point."""
        return {label: (acc[0], acc[1]) for label, acc in self.entries.items()}


def delta(after: Dict[str, Tuple[float, int]],
          before: Dict[str, Tuple[float, int]]) -> Dict[str, Tuple[float, int]]:
    """Per-entry-point difference of two :meth:`LayerTimer.snapshot` s."""
    return {label: (value[0] - before.get(label, (0.0, 0))[0],
                    value[1] - before.get(label, (0.0, 0))[1])
            for label, value in after.items()}


def by_layer(entries: Dict[str, Tuple[float, int]]) -> Dict[str, Tuple[float, int]]:
    """Sum entry-point (self seconds, calls) per layer."""
    totals = {layer: [0.0, 0] for layer in LAYER_NAMES}
    for label, (seconds, calls) in entries.items():
        total = totals.setdefault(label.partition(":")[0], [0.0, 0])
        total[0] += seconds
        total[1] += calls
    return {layer: (total[0], total[1]) for layer, total in totals.items()}


def spans_with_parents(spans) -> List[dict]:
    """Sampled spans in start order with the index of their parent span
    (``None`` when the parent fell outside the sample)."""
    ordered = sorted(spans, key=lambda span: (span[2], span[1]))
    out: List[dict] = []
    open_frames: List[Tuple[int, int, float]] = []  # (index, depth, end)
    for label, depth, start, end in ordered:
        while open_frames and (open_frames[-1][1] >= depth or open_frames[-1][2] < end):
            open_frames.pop()
        parent = open_frames[-1][0] if open_frames and \
            open_frames[-1][1] == depth - 1 else None
        out.append({"name": label, "start": start, "end": end, "parent": parent})
        open_frames.append((len(out) - 1, depth, end))
    return out


class ScenarioProbe:
    """Wall-clock marks of one scenario, taken at its public boundaries.

    ``begin``: the first ``LoadClient.start`` (load start); ``end``: the
    return of the last outermost ``Simulator.run`` (end of drain);
    ``events``: engine events processed in between; ``check_seconds``:
    wall time inside the streaming linearizability checker, whose input
    store and report are kept.  ``on_begin``/``on_end`` callbacks let the
    traced run snapshot its counters at the same instants.
    """

    def __init__(self) -> None:
        self.on_begin: Optional[Callable[[], None]] = None
        self.on_end: Optional[Callable[[], None]] = None
        self._patches = Patches()
        self.reset()

    def reset(self) -> None:
        self.begin: Optional[float] = None
        self.end: Optional[float] = None
        self.events_begin = 0
        self.events_end = 0
        self.check_seconds = 0.0
        self.check_source = None
        self.check_report = None
        self._depth = 0

    @property
    def sim_seconds(self) -> float:
        """Wall seconds from load start to the end of the drain."""
        if self.begin is None or self.end is None:
            raise RuntimeError("the scenario never started its load")
        return self.end - self.begin

    @property
    def events(self) -> int:
        return self.events_end - self.events_begin

    def install(self) -> "ScenarioProbe":
        self._patches.wrap(resolve_owner("repro.workloads.clients:LoadClient"),
                           "start", self._wrap_start)
        self._patches.wrap(resolve_owner("repro.netsim.engine:Simulator"),
                           "run", self._wrap_run)
        self._patches.wrap(resolve_owner("repro.deploy.scenario"),
                           "check_linearizable_streaming", self._wrap_check)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap_start(self, fn):
        @functools.wraps(fn)
        def start(client, *args, **kwargs):
            if self.begin is None:
                self.events_begin = client.sim.processed_events
                if self.on_begin is not None:
                    self.on_begin()
                self.begin = time.perf_counter()
            return fn(client, *args, **kwargs)
        return start

    def _wrap_run(self, fn):
        @functools.wraps(fn)
        def run(sim, *args, **kwargs):
            self._depth += 1
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0 and self.begin is not None:
                    self.end = time.perf_counter()
                    self.events_end = sim.processed_events
                    if self.on_end is not None:
                        self.on_end()
        return run

    def _wrap_check(self, fn):
        @functools.wraps(fn)
        def check(source, *args, **kwargs):
            start = time.perf_counter()
            report = fn(source, *args, **kwargs)
            self.check_seconds += time.perf_counter() - start
            self.check_source = source
            self.check_report = report
            return report
        return check
