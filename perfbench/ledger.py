"""Per-layer time ledger: class-level wrappers with self-time accounting.

The traced run installs a wrapper on each public method named in
:data:`LAYERS` *before* the systems are built (several hot loops hoist
bound methods at construction, so a later patch would be missed) and
removes every wrapper when the run ends.  Nothing under ``src/`` is
modified.

Each wrapper records, per layer: the call count, the inclusive time, and
the self time, which is the inclusive time minus the time spent in
wrapped children (a call stack tracks the children).  Time spent outside
every wrapped call is *unattributed*; it holds the benchmark's own loop
and whatever code sits between the boundaries.  Boundaries the hot loops
inline (the L1/L2 walk, ``CAMATMonitor.record_llc_access`` from the
hierarchy) never reach a wrapper and count in their caller's self time.

Every wrapped call also costs time in its caller (the wrapper's own
bookkeeping).  :func:`calibrate` measures that cost per call, and
:meth:`Ledger.report` subtracts it from the caller's self time and
reports it on its own line, so

    sum(self_s) + wrapper_overhead_s + unattributed_s == wall_s

holds exactly for every traced run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class or None for a module attribute, methods, layer).
#: A method is wrapped only where its class defines it, so a subclass
#: that inherits a hook is covered by the wrapper on its base class.
LAYERS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.sim.multicore", "MultiCoreSystem", ("run",), "sim.multicore"),
    ("repro.sim.replacement.base", "ReplacementPolicy",
     ("should_bypass", "find_victim", "on_hit", "on_fill", "on_eviction",
      "observe_epoch"), "sim.cache"),
    ("repro.sim.replacement.lru", "LRUPolicy",
     ("on_hit", "on_fill", "find_victim"), "sim.cache"),
    ("repro.core.chrome", "ChromePolicy",
     ("should_bypass", "on_fill", "on_hit", "find_victim"), "sim.cache"),
    ("repro.sim.dram", "DRAMModel", ("access", "backlog"), "sim.dram"),
    ("repro.sim.camat", "CAMATMonitor",
     ("maybe_close_epoch", "record_llc_access", "is_obstructed",
      "obstruction_flags"), "sim.camat"),
    ("repro.core.features", "FeatureExtractor", ("extract",), "core.features"),
    ("repro.serve.agent", "ServeFeatureExtractor", ("extract",), "core.features"),
    ("repro.env.driver", "AgentCore", ("rl_decide",), "env.driver"),
    ("repro.core.qtable", "QTable",
     ("q", "q_values", "best_action", "apply_delta", "best_actions",
      "apply_deltas"), "core.qtable"),
    ("repro.core.qtable_np", "QTableNumpy",
     ("q", "q_values", "best_action", "apply_delta", "best_actions",
      "apply_deltas"), "core.qtable"),
    ("repro.core.eq", "EvaluationQueue", ("find", "insert"), "core.eq"),
    ("repro.serve.service", "CacheService", ("process",), "serve.service"),
    ("repro.serve.store", "ObjectStore", ("lookup", "admit", "contains"),
     "serve.store"),
    ("repro.serve.policies", "ServePolicy",
     ("admit", "on_admit", "on_hit", "select_victim", "on_evict"),
     "serve.policies"),
    ("repro.serve.policies", "LRUServePolicy", ("select_victim",),
     "serve.policies"),
    ("repro.serve.agent", "ChromeServePolicy",
     ("admit", "on_admit", "on_hit", "select_victim"), "serve.policies"),
    ("repro.serve.agent", "ServeAgent", ("decide",), "serve.policies"),
    ("repro.serve.service", "Backend", ("fetch", "outstanding"),
     "serve.backend"),
    ("repro.serve.agent", "BackendObstructionMonitor",
     ("observe", "observe_failure", "is_obstructed"), "serve.backend"),
    ("repro.serve.metrics", "MetricsRecorder",
     ("set_measuring", "on_request", "on_shed", "on_stale", "on_error",
      "on_retry", "on_timeout", "on_breaker_open", "note_degraded",
      "on_admit", "on_bypass", "on_evict", "latency_samples",
      "degraded_latency_samples", "finalize"), "serve.metrics"),
    ("repro.serve.faults", "FaultInjector",
     ("outage_state", "degraded", "decide"), "serve.faults"),
    ("repro.serve.resilience", "ResilienceState",
     ("breaker", "should_shed", "backoff_ms", "retain_stale", "stale_hit",
      "forget_stale"), "serve.resilience"),
    ("repro.serve.resilience", "CircuitBreaker",
     ("allow", "on_success", "on_failure"), "serve.resilience"),
    # The router: ClusterService.process outside its shards, plus the ring.
    ("repro.cluster.cluster", "ClusterService",
     ("process", "live_mask", "finalize"), "cluster.ring"),
    ("repro.cluster.ring", "HashRing", ("preference", "primary"),
     "cluster.ring"),
    # ClusterService calls the function through its own module namespace.
    ("repro.cluster.cluster", None, ("federate_agents",), "cluster.federate"),
    ("repro.cluster.hotkeys", "HotKeyDetector",
     ("observe", "roll", "is_hot", "on_evict"), "cluster.hotkeys"),
    ("repro.ops.controller", "OpsController", ("on_request", "result"),
     "ops.controller"),
    ("repro.ops.guardrail", "Guardrail", ("observe",), "ops.controller"),
    ("repro.ops.snapshots", "SnapshotRing", ("push", "pop_latest"),
     "ops.controller"),
    ("repro.obs.signals", "SignalReader", ("read",), "ops.controller"),
    ("repro.ops.shadow", "ShadowHarness", ("process", "finalize"),
     "ops.shadow"),
)

#: layers whose whole subtree is charged to them: the shadow challenger
#: is a complete second service, and splitting its cost into the store,
#: policy and metrics rows would hide what the shadow costs the fleet.
OPAQUE_LAYERS = frozenset({"ops.shadow"})

Probe = Callable[[tuple, object], None]


@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    #: wrapped calls made from inside this layer's frames
    child_calls: int = 0


@dataclass
class Report:
    """A finished ledger: per-layer rows plus the accounting identity."""

    wall_s: float
    layers: Dict[str, LayerStats]
    #: calibrated wrapper cost charged back out of the callers' self time
    wrapper_overhead_s: float
    unattributed_s: float
    counters: Dict[str, float] = field(default_factory=dict)

    def self_s(self, layer: str) -> float:
        stats = self.layers.get(layer)
        return stats.self_s if stats is not None else 0.0

    def calls(self, layer: str) -> int:
        stats = self.layers.get(layer)
        return stats.calls if stats is not None else 0

    def accounted_s(self) -> float:
        return (
            sum(s.self_s for s in self.layers.values())
            + self.wrapper_overhead_s
            + self.unattributed_s
        )


class Ledger:
    """Installs the wrappers and accumulates the per-layer statistics."""

    def __init__(self, per_call_cost_s: float = 0.0) -> None:
        self.per_call_cost_s = per_call_cost_s
        self.layers: Dict[str, LayerStats] = {}
        self.counters: Dict[str, float] = {}
        # Each frame is [child inclusive time, wrapped child calls]; the
        # bottom frame is the root (time outside every wrapped call).
        self._stack: List[list] = [[0.0, 0]]
        self._opaque = [0]
        self._patches: List[Tuple[object, str, object]] = []
        self._started = 0.0
        self._wall = 0.0

    # --- bookkeeping --------------------------------------------------------

    def _close(self, stats: LayerStats, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[0] += elapsed
        parent[1] += 1
        stats.calls += 1
        stats.inclusive_s += elapsed
        stats.self_s += elapsed - frame[0]
        stats.child_calls += frame[1]

    def wrap(self, fn, layer: str, probe: Optional[Probe] = None):
        """``fn`` with its calls charged to ``layer``."""
        stats = self.layers.setdefault(layer, LayerStats())
        stack = self._stack
        opaque = self._opaque
        enters_opaque = layer in OPAQUE_LAYERS
        close = self._close
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if opaque[0]:
                return fn(*args, **kwargs)
            frame = [0.0, 0]
            stack.append(frame)
            if enters_opaque:
                opaque[0] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                if enters_opaque:
                    opaque[0] -= 1
                close(stats, frame, elapsed)
            if probe is not None:
                probe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span the benchmark opens around its own call into a layer."""
        stats = self.layers.setdefault(layer, LayerStats())
        frame = [0.0, 0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(stats, frame, time.perf_counter() - t0)

    # --- installation -------------------------------------------------------

    def _probes(self) -> Dict[Tuple[str, str], Probe]:
        counters = self.counters
        counters["store.requested_bytes"] = 0
        counters["store.forced_bypass_bytes"] = 0

        def on_lookup(args, _result):
            counters["store.requested_bytes"] += args[1].size

        def on_admit(args, _result):
            store, req = args[0], args[1]
            if req.size > store.segment_capacity:
                counters["store.forced_bypass_bytes"] += req.size

        return {
            ("ObjectStore", "lookup"): on_lookup,
            ("ObjectStore", "admit"): on_admit,
        }

    @contextlib.contextmanager
    def installed(self, layers=LAYERS) -> Iterator["Ledger"]:
        """Wrap every boundary in ``layers`` for the duration of the block,
        then restore the originals."""
        probes = self._probes()
        try:
            for module_name, class_name, methods, layer in layers:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for name in methods:
                    # The owner's own attribute, never an inherited one,
                    # so restoring it puts back exactly what was there.
                    if name not in vars(owner):
                        raise AttributeError(
                            f"{module_name}.{class_name or ''} defines no "
                            f"{name!r}; the ledger's LAYERS table is out of date"
                        )
                    original = vars(owner)[name]
                    self._patches.append((owner, name, original))
                    probe = probes.get((class_name, name))
                    setattr(owner, name, self.wrap(original, layer, probe))
            self._stack[:] = [[0.0, 0]]
            self._started = time.perf_counter()
            yield self
        finally:
            self._wall = time.perf_counter() - self._started
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()

    def report(self) -> Report:
        """Charge the calibrated wrapper cost back out and close the books."""
        root_child_s, root_child_calls = self._stack[0]
        cost = self.per_call_cost_s
        overhead = cost * root_child_calls
        layers: Dict[str, LayerStats] = {}
        for name, stats in self.layers.items():
            charged = cost * stats.child_calls
            overhead += charged
            layers[name] = LayerStats(
                calls=stats.calls,
                inclusive_s=stats.inclusive_s,
                self_s=stats.self_s - charged,
                child_calls=stats.child_calls,
            )
        return Report(
            wall_s=self._wall,
            layers=layers,
            wrapper_overhead_s=overhead,
            unattributed_s=self._wall - root_child_s - cost * root_child_calls,
            counters=dict(self.counters),
        )


class _Noop:
    def call(self):
        return None


def calibrate(calls: int = 100_000, rounds: int = 5) -> float:
    """Per-call wrapper cost in seconds (median of ``rounds`` trials).

    The cost is the difference between a wrapped and a plain call of a
    no-op method, both timed from the caller.  Subtracting it from the
    caller's self time leaves the no-op's own time in the callee, so
    the total over all layers stays exact.
    """
    obj = _Noop()
    plain = _Noop.call
    costs = []
    for _ in range(rounds):
        ledger = Ledger()
        wrapped = ledger.wrap(plain, "calibration")
        t0 = time.perf_counter()
        for _ in range(calls):
            plain(obj)
        plain_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped(obj)
        wrapped_s = time.perf_counter() - t0
        costs.append(max(0.0, (wrapped_s - plain_s) / calls))
    costs.sort()
    return costs[len(costs) // 2]
