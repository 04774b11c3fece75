"""The ops control loop: shadow, promote, guard, roll back — deterministically.

:class:`OpsController` is the one place live-operations decisions are
made.  It installs itself as the per-request *tap* of a champion
service (single :class:`~repro.serve.service.CacheService` or whole
:class:`~repro.cluster.cluster.ClusterService` — both expose the same
four seams: ``attach_ops_tap`` / ``signal_recorders`` /
``agent_states`` / ``load_agent_states``), duplicates each request into
the optional shadow challenger, and at every window boundary
``(seq + 1) % window == 0`` runs the evaluation pipeline:

1. read champion (and challenger) :class:`~repro.obs.signals.WindowSignals`;
2. record the window row (champion-vs-challenger deltas, guardrail state);
3. **promotion** — if the challenger has out-hit the champion for
   ``promote_after`` consecutive measured windows, snapshot the
   champion to the ring and hot-swap the challenger's learned state in
   (Q-table only; the champion keeps its own RNG stream — the same
   discipline cluster federation uses);
4. **guardrail** — fold the window into the
   :class:`~repro.ops.guardrail.Guardrail`; on a trip, restore the
   newest ring snapshot (full restore, RNG included) and start the
   cooldown;
5. **snapshot** — every ``snapshot_every`` healthy measured windows,
   push the champion's learned state as the new last-known-good;
6. **degradation injection** (benches/CI only) — at the configured
   window, overwrite the champion's Q-tables with the worst on-grid
   policy (everything admitted at evict-first priority), simulating a
   bad model deploy that the guardrail must catch.

Every step runs inside the sequenced section at a fixed global
sequence number, and every input is a pure function of (seed, seq), so
the entire event log — trips, rollbacks, promotions, snapshot ids — is
bit-identical at ``num_clients=1`` and ``num_clients=64`` and across
process boundaries (the ``ops_determinism`` golden pins whole runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.config import ACTION_BYPASS
from ..obs.signals import SignalReader, WindowSignals
from ..serve.config import LatencyConfig, ServiceConfig
from ..serve.metrics import MetricsRecorder, ServeMetrics
from ..serve.service import CacheService, drive_requests
from ..serve.store import ObjectStore
from ..serve.workloads import Request
from .config import OpsConfig
from .events import (
    EVENT_DEGRADE,
    EVENT_PROMOTE,
    EVENT_ROLLBACK,
    EVENT_SNAPSHOT,
    EVENT_TRIP,
    OpsEventLog,
)
from .guardrail import Guardrail
from .shadow import ShadowHarness
from .snapshots import SnapshotRing


def sabotaged_states(states: List[dict]) -> List[dict]:
    """The worst on-grid policy, shaped like the given agent snapshots.

    Every Q-row becomes ``[clamp_hi at ACTION_BYPASS, clamp_lo, ...]``:
    the agent then bypasses every miss, so the cache *freezes* — no
    admissions, no evictions, serving only whatever happened to be
    cached at injection time.  On any workload whose popularity drifts
    (phases, scans, bursts) byte-hit collapses as the frozen content
    goes stale, and the resulting miss flood queues at the origin
    (p99 rises).  Both clamp bounds sit exactly on the snapshot
    config's fixed-point grid, so the states load cleanly through the
    grid-validated persistence path; this is the deterministic "bad
    model deploy" the guardrail benches and CI smoke inject.
    """
    out = []
    for state in states:
        cfg = state["config"]
        quantum = 1.0 / (1 << cfg["q_fixed_point_fraction_bits"])
        limit = (1 << (cfg["q_value_bits"] - 1)) * quantum
        hi, lo = limit - quantum, -limit
        qt = state["qtable"]
        row = [hi if a == ACTION_BYPASS else lo for a in range(qt["num_actions"])]
        tables = [
            [[list(row) for _ in subtable] for subtable in feature]
            for feature in qt["tables"]
        ]
        out.append({**state, "qtable": {**qt, "tables": tables}})
    return out


@dataclass
class OpsResult:
    """Complete, value-equal result of one ops-managed run."""

    #: the served metrics (ServeMetrics, or ClusterMetrics for a fleet)
    champion: object
    #: the shadow challenger's metrics (None when no shadow ran)
    challenger: Optional[ServeMetrics] = None
    #: one row per evaluation window (champion/challenger/guardrail view)
    windows: List[dict] = field(default_factory=list)
    #: the versioned OpsEvent log as JSON-ready rows
    events: List[dict] = field(default_factory=list)
    snapshots: int = 0
    promotions: int = 0
    trips: int = 0
    rollbacks: int = 0
    degradations: int = 0


class OpsController:
    """Window-boundary decision loop over one champion service."""

    def __init__(
        self,
        service,
        ops: OpsConfig,
        *,
        latency: Optional[LatencyConfig] = None,
        shadow: Optional[ShadowHarness] = None,
        obs=None,
    ) -> None:
        if ops.window < 1:
            raise ValueError("ops window must be >= 1")
        self.service = service
        self.ops = ops
        self.latency = latency or LatencyConfig()
        self.shadow = shadow
        self.guardrail = Guardrail(ops) if ops.guard_enabled else None
        self.ring = SnapshotRing(ops.ring_capacity)
        self.log = OpsEventLog()
        self.windows: List[dict] = []
        self._reader = SignalReader(service.signal_recorders())
        self._shadow_reader = (
            SignalReader([shadow.recorder]) if shadow is not None else None
        )
        self._window_index = -1
        self._healthy_windows = 0
        self._win_streak = 0
        self._obs = obs
        self.snapshots = 0
        self.promotions = 0
        self.trips = 0
        self.rollbacks = 0
        self.degradations = 0
        service.attach_ops_tap(self.on_request)

    # --- the per-request tap --------------------------------------------------------

    def on_request(self, seq: int, req: Request) -> None:
        """Called by the champion inside the sequenced section."""
        if self.shadow is not None:
            self.shadow.process(seq, req)
        if (seq + 1) % self.ops.window == 0:
            self._window_index += 1
            self._evaluate(self._window_index, seq)

    # --- the window-boundary pipeline -----------------------------------------------

    def _evaluate(self, window: int, seq: int) -> None:
        now_ms = seq * self.latency.inter_arrival_ms
        champ = self._reader.read()
        chall = (
            self._shadow_reader.read() if self._shadow_reader is not None else None
        )
        row = self._record_window(window, seq, now_ms, champ, chall)
        if chall is not None:
            self._check_promotion(window, seq, now_ms, champ, chall)
        suspect = self._check_guardrail(window, seq, now_ms, champ, row)
        self._maybe_snapshot(window, seq, now_ms, champ, suspect)
        if window == self.ops.degrade_at_window:
            self._inject_degradation(window, seq, now_ms)

    def _record_window(
        self,
        window: int,
        seq: int,
        now_ms: float,
        champ: WindowSignals,
        chall: Optional[WindowSignals],
    ) -> dict:
        row: Dict[str, object] = {"window": window, "seq": seq, "now_ms": now_ms}
        for key, value in champ.as_row().items():
            row[f"champion_{key}"] = value
        if chall is not None:
            for key, value in chall.as_row().items():
                row[f"challenger_{key}"] = value
            row["delta_byte_hit"] = chall.byte_hit - champ.byte_hit
            row["delta_p99_ms"] = chall.p99_ms - champ.p99_ms
        self.windows.append(row)
        if self._obs is not None:
            self._obs.timeline.record("ops_window", **row)
        return row

    def _check_promotion(
        self,
        window: int,
        seq: int,
        now_ms: float,
        champ: WindowSignals,
        chall: WindowSignals,
    ) -> None:
        ops = self.ops
        if ops.promote_after <= 0 or self.promotions:
            return  # promotion disabled, or already deployed this run
        if champ.requests == 0 or chall.requests == 0:
            return  # warmup / empty window: no verdict
        if chall.byte_hit >= champ.byte_hit + ops.promote_margin:
            self._win_streak += 1
        else:
            self._win_streak = 0
        if self._win_streak < ops.promote_after:
            return
        # The outgoing champion is the state rollback would return to.
        self.ring.push(window, self.service.agent_states())
        self.snapshots += 1
        self.service.load_agent_states(self.shadow.agent_states(), keep_rng=True)
        self.promotions += 1
        self._win_streak = 0
        event = self.log.append(
            EVENT_PROMOTE,
            window,
            seq,
            now_ms,
            challenger=self.shadow.policy.name,
            win_streak=self.ops.promote_after,
            champion_byte_hit=champ.byte_hit,
            challenger_byte_hit=chall.byte_hit,
        )
        self._emit(event)

    def _check_guardrail(
        self,
        window: int,
        seq: int,
        now_ms: float,
        champ: WindowSignals,
        row: dict,
    ) -> bool:
        """Returns whether this window is suspect (blocks snapshots)."""
        if self.guardrail is None:
            return False
        verdict = self.guardrail.observe(champ)
        row["byte_hit_ewma"] = verdict.byte_hit_ewma
        row["guard_streak"] = verdict.streak
        row["guard_armed"] = verdict.armed
        row["guard_suspect"] = verdict.suspect
        if not verdict.tripped:
            return verdict.suspect
        self.trips += 1
        event = self.log.append(
            EVENT_TRIP,
            window,
            seq,
            now_ms,
            breaches=[
                [name, value, threshold]
                for name, value, threshold in verdict.breaches
            ],
            streak=verdict.streak,
        )
        self._emit(event)
        latest = self.ring.pop_latest()
        if latest is None:
            return True  # nothing known-good yet: trip is logged, no swap
        # Rollback consumes the entry it restores: if this state trips
        # again (a poisoned snapshot captured while a bad deploy was
        # still coasting), the next rollback walks one entry further
        # back instead of restoring the same bad state forever.
        good_window, states = latest
        self.service.load_agent_states(states, keep_rng=False)
        self.guardrail.reset_after_rollback()
        self.rollbacks += 1
        event = self.log.append(
            EVENT_ROLLBACK,
            window,
            seq,
            now_ms,
            restored_window=good_window,
            agents=len(states),
        )
        self._emit(event)
        return True

    def _maybe_snapshot(
        self,
        window: int,
        seq: int,
        now_ms: float,
        champ: WindowSignals,
        suspect: bool,
    ) -> None:
        ops = self.ops
        if ops.snapshot_every <= 0 or champ.requests == 0 or suspect:
            return
        self._healthy_windows += 1
        if self._healthy_windows % ops.snapshot_every:
            return
        self.ring.push(window, self.service.agent_states())
        self.snapshots += 1
        event = self.log.append(
            EVENT_SNAPSHOT,
            window,
            seq,
            now_ms,
            ring_depth=len(self.ring),
            healthy_windows=self._healthy_windows,
        )
        self._emit(event)

    def _inject_degradation(self, window: int, seq: int, now_ms: float) -> None:
        bad = sabotaged_states(self.service.agent_states())
        self.service.load_agent_states(bad, keep_rng=True)
        self.degradations += 1
        event = self.log.append(
            EVENT_DEGRADE, window, seq, now_ms, agents=len(bad)
        )
        self._emit(event)

    def _emit(self, event) -> None:
        if self._obs is not None:
            self._obs.timeline.record("ops_event", **event.to_dict())

    # --- results --------------------------------------------------------------------

    def result(self, champion_metrics) -> OpsResult:
        challenger = self.shadow.finalize() if self.shadow is not None else None
        return OpsResult(
            champion=champion_metrics,
            challenger=challenger,
            windows=list(self.windows),
            events=self.log.to_rows(),
            snapshots=self.snapshots,
            promotions=self.promotions,
            trips=self.trips,
            rollbacks=self.rollbacks,
            degradations=self.degradations,
        )


def run_ops(
    requests: Sequence[Request],
    config: ServiceConfig,
    ops: OpsConfig,
    *,
    obs=None,
) -> OpsResult:
    """Run a single champion service under the ops control loop.

    Mirrors :func:`~repro.serve.service.run_configured` exactly — with
    an all-defaults (inert) :class:`OpsConfig` the champion metrics are
    byte-identical to a plain ``run_configured`` run, and with a shadow
    attached they *still* are (the zero-impact contract the ops tests
    and goldens pin).
    """
    policy = config.build_policy()
    recorder = MetricsRecorder(
        policy=policy.name,
        workload=config.workload_name,
        checkpoint_every=config.checkpoint_every,
    )
    store = ObjectStore(config.capacity_bytes, config.num_segments, policy)
    service = CacheService(
        store,
        recorder=recorder,
        warmup_requests=config.warmup_requests,
        obs=obs,
        config=config,
    )
    from ..core.backend import resolve_backend

    if resolve_backend(config.backend) == "numpy":
        keys = [req.key for req in requests]
        for start in range(0, len(keys), 4096):
            store.preclassify(keys[start : start + 4096])
    shadow = ShadowHarness(config, ops) if ops.shadow_enabled else None
    controller = OpsController(
        service,
        ops,
        latency=config.latency,
        shadow=shadow,
        obs=obs,
    )
    drive_requests(service, requests, config.num_clients)
    metrics = recorder.finalize()
    metrics.telemetry = dict(policy.telemetry())
    service.obs_summary(metrics)
    return controller.result(metrics)


def run_cluster_ops(
    requests: Sequence[Request],
    config: ServiceConfig,
    num_shards: int,
    ops: OpsConfig,
    *,
    replication: int = 2,
    vnodes: int = 64,
    federate_every: int = 0,
    hotkey_window: int = 0,
    hotkey_top_k: int = 8,
    hotkey_min_count: int = 16,
    kill_shard: int = -1,
    kill_faults=None,
    obs=None,
) -> OpsResult:
    """Run a sharded fleet under the ops control loop.

    The controller sees the whole fleet as one service: signals sum
    across shard recorders (window p99 over the union of samples),
    snapshots carry one agent state per shard, rollback restores all
    shards to the same boundary, and a promoted challenger broadcasts
    fleet-wide.  The shadow challenger (when configured) is a single
    service with the fleet's full capacity — the "what if we replaced
    the fleet's policy" comparison, fed the identical request stream.
    """
    from ..cluster.cluster import ClusterService

    cluster = ClusterService(
        config,
        num_shards,
        replication=replication,
        vnodes=vnodes,
        federate_every=federate_every,
        hotkey_window=hotkey_window,
        hotkey_top_k=hotkey_top_k,
        hotkey_min_count=hotkey_min_count,
        kill_shard=kill_shard,
        kill_faults=kill_faults,
        obs=obs,
    )
    shadow = ShadowHarness(config, ops) if ops.shadow_enabled else None
    controller = OpsController(
        cluster,
        ops,
        latency=config.latency,
        shadow=shadow,
        obs=obs,
    )
    drive_requests(cluster, requests, config.num_clients)
    return controller.result(cluster.finalize())
