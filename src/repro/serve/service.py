"""Asyncio cache front-end with a concurrent, *reproducible* driver.

Real serving concurrency and reproducible science are usually at odds:
if N client coroutines race on the cache, admission order — and
therefore every hit-ratio number — depends on scheduler whims.  This
module gets both:

* **state mutation is sequenced** — each request carries its global
  sequence number, and the N client coroutines pull ``(seq, req)``
  pairs from one shared stream (:func:`drive_requests`).  Only one
  coroutine runs at a time and :meth:`CacheService.process` never
  awaits, so lookup/admit/evict happen in sequence order by
  construction, with no lock and no per-request wake-ups; clients
  interleave where a real client would wait — after a miss.
  ``num_clients=1`` and ``num_clients=64`` produce bit-identical
  :class:`~repro.serve.metrics.ServeMetrics`;
* **time is virtual** — request latency comes from a deterministic
  model (:class:`Backend`): arrival times are ``seq x inter_arrival``,
  a backend fetch costs base + bytes/bandwidth + a queueing penalty
  per outstanding fetch, and outstanding fetches are tracked with a
  heap of virtual completion times.  p99 latency is a property of the
  *workload and policy*, not of the host machine's load.

The miss-latency stream feeds the
:class:`~repro.serve.agent.BackendObstructionMonitor`, closing the
loop that makes the CHROME serve agent concurrency-aware: more misses
-> deeper backend queues -> higher fetch latency -> obstructed tenants
-> amplified no-re-request rewards.

Fault injection and graceful degradation (this PR) ride on the same
discipline: a :class:`~repro.serve.faults.FaultInjector` decides each
attempt's fate as a *pure function* of (seed, seq, attempt, virtual
time), and the :class:`~repro.serve.resilience.ResilienceState`
machinery (timeout, retries, breaker, stale serving, shedding) runs
entirely inside the sequenced :meth:`CacheService.process` call — so
chaos runs stay bit-identical at any client count.  When neither is
configured, requests take the original code path untouched (the
committed goldens pin that the default path did not move).
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Iterator, List, Optional, Sequence, Tuple

from .agent import BackendObstructionMonitor
from .config import LatencyConfig, ServiceConfig
from .faults import FaultConfig, FaultInjector
from .metrics import MetricsRecorder, ServeMetrics
from .policies import ServePolicy
from .resilience import ResilienceConfig, ResilienceState
from .store import ObjectStore
from .workloads import Request


class Backend:
    """Deterministic origin model: latency grows with fetch concurrency."""

    def __init__(self, config: LatencyConfig) -> None:
        self.config = config
        self._completions: List[float] = []  # min-heap of virtual finish times
        self.fetches = 0
        self.bytes_fetched = 0

    def fetch(self, size: int, now_ms: float) -> Tuple[float, int]:
        """Issue a fetch at virtual time ``now_ms``.

        Returns ``(latency_ms, outstanding)`` where ``outstanding`` is
        the number of fetches still in flight at issue time — the
        concurrency signal the latency penalty and the obstruction
        monitor key off.
        """
        completions = self._completions
        while completions and completions[0] <= now_ms:
            heapq.heappop(completions)
        outstanding = len(completions)
        cfg = self.config
        latency = (
            cfg.backend_base_ms
            + size / cfg.backend_bytes_per_ms
            + cfg.queue_penalty_ms * outstanding
        )
        heapq.heappush(completions, now_ms + latency)
        self.fetches += 1
        self.bytes_fetched += size
        return latency, outstanding

    def outstanding(self, now_ms: float) -> int:
        """Fetches still in flight at ``now_ms`` (no fetch issued)."""
        completions = self._completions
        while completions and completions[0] <= now_ms:
            heapq.heappop(completions)
        return len(completions)


class CacheService:
    """The serving front-end: lookup, origin fetch, admission, metrics.

    :meth:`process` is the synchronous per-request core — everything
    that touches shared state.  :func:`drive_requests` calls it in
    sequence order from one or many clients; the results are identical
    by construction (and by test).
    """

    def __init__(
        self,
        store: ObjectStore,
        latency: Optional[LatencyConfig] = None,
        monitor: Optional[BackendObstructionMonitor] = None,
        recorder: Optional[MetricsRecorder] = None,
        warmup_requests: int = 0,
        faults: Optional[FaultConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        obs=None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        # ``config`` is the consolidated spec (see serve/config.py); the
        # individual kwargs remain as the legacy surface and, when given
        # explicitly, win over the config's fields.
        if config is not None:
            latency = latency or config.latency
            faults = faults if faults is not None else config.faults
            resilience = (
                resilience if resilience is not None else config.resilience
            )
            if warmup_requests == 0:
                warmup_requests = config.warmup_requests
        self.config = config
        self.store = store
        self.latency = latency or LatencyConfig()
        self.backend = Backend(self.latency)
        self.monitor = monitor or BackendObstructionMonitor(
            self.latency.backend_base_ms
        )
        self.recorder = recorder
        self.warmup_requests = warmup_requests
        self.injector = FaultInjector(faults) if faults is not None else None
        # The degraded pipeline engages when faults are injected OR a
        # resilience policy is explicitly requested; a plain service
        # keeps the original (goldens-pinned) request path.
        if faults is not None or resilience is not None:
            self.resilience = ResilienceState(resilience or ResilienceConfig())
            if self.resilience.config.stale_entries > 0:
                store.add_evict_listener(self.resilience.retain_stale)
        else:
            self.resilience = None
        if recorder is not None:
            store.recorder = recorder
            recorder.set_measuring(warmup_requests == 0)
        # Let learned policies see the obstruction signal.
        bind = getattr(store.policy, "bind_obstruction", None)
        if callable(bind):
            bind(self.monitor)
        # Live-operations tap (repro.ops): called once per request,
        # inside the sequenced section, after this service has fully
        # processed it.  None by default — same zero-overhead-when-off
        # contract as obs (one attribute test per request).
        self._ops_tap = None
        # Observability: one attribute test per request when disabled
        # (the zero-overhead-when-off contract of repro.obs).
        self._obs = obs
        if obs is not None:
            self._obs_window = max(1, obs.config.serve_window)
            self._obs_next = self._obs_window - 1
            obs.tracer.name_thread(0, "serve")
        else:
            self._obs_window = 0
            self._obs_next = -1

    def process(self, seq: int, req: Request) -> bool:
        """Serve one request at its virtual arrival time; returns hit."""
        if self._obs is not None and seq == self._obs_next:
            self._obs_sample(seq)
        if self.resilience is not None:
            hit = self._process_resilient(seq, req)
            if self._ops_tap is not None:
                self._ops_tap(seq, req)
            return hit
        recorder = self.recorder
        if recorder is not None and seq == self.warmup_requests:
            recorder.set_measuring(True)
        now_ms = seq * self.latency.inter_arrival_ms
        hit = self.store.lookup(req)
        outstanding = 0
        if hit:
            latency = self.latency.hit_latency(req.size)
        else:
            latency, outstanding = self.backend.fetch(req.size, now_ms)
            self.monitor.observe(req.tenant, latency)
            self.store.admit(req)
        if recorder is not None:
            recorder.on_request(req.tenant, req.size, hit, latency, outstanding)
        if self._ops_tap is not None:
            self._ops_tap(seq, req)
        return hit

    def _process_resilient(self, seq: int, req: Request) -> bool:
        """The degraded-capable request pipeline (faults + resilience).

        Shed -> breaker -> timeout/retry attempt loop -> stale fallback,
        all in virtual time derived from ``seq``.  With no injector and
        default resilience, every branch below reduces to the plain
        path: same fetch call, same floats, bit-identical metrics (the
        differential suite pins this).
        """
        recorder = self.recorder
        if recorder is not None and seq == self.warmup_requests:
            recorder.set_measuring(True)
        now_ms = seq * self.latency.inter_arrival_ms
        hit = self.store.lookup(req)
        if hit:
            # Cache hits are served locally: origin faults cannot touch
            # them (that asymmetry is what stale-serving exploits).
            latency = self.latency.hit_latency(req.size)
            if recorder is not None:
                recorder.on_request(req.tenant, req.size, True, latency, 0)
            return True

        res = self.resilience
        cfg = res.config
        injector = self.injector
        degraded_window = (
            injector.degraded(req.tenant, now_ms) if injector is not None else False
        )

        # 1. Load shedding: refuse new misses when the origin is drowning.
        if res.should_shed(self.backend.outstanding(now_ms)):
            if recorder is not None:
                recorder.on_shed(req.tenant, req.size, cfg.error_latency_ms)
            return False

        # 2. Circuit breaker: an open breaker never touches the backend.
        breaker = res.breaker(req.tenant)
        allowed, probing = breaker.allow(now_ms)
        if not allowed:
            if res.stale_hit(req.key):
                latency = self.latency.hit_latency(req.size) + cfg.stale_latency_ms
                if recorder is not None:
                    recorder.on_stale(req.tenant, req.size, latency)
            else:
                self.monitor.observe_failure(req.tenant, cfg.error_latency_ms)
                if recorder is not None:
                    recorder.on_error(
                        req.tenant, req.size, cfg.error_latency_ms,
                        breaker_denied=True,
                    )
            return False

        # 3. Timed, retried origin fetch.  ``timeout_ms`` is a whole-
        # request latency budget (deadline), not a per-attempt clock: an
        # attempt still in flight at the deadline is abandoned there,
        # and no retry starts without budget to run in.  This is what
        # caps the resilient latency tail — a budget below the naive
        # p99 guarantees degraded misses cannot out-wait naive ones.
        budget = cfg.timeout_ms
        total = 0.0
        attempt = 0
        success = False
        peak_outstanding = 0
        t = now_ms
        while True:
            attempt += 1
            raw, outstanding = self.backend.fetch(req.size, t)
            if outstanding > peak_outstanding:
                peak_outstanding = outstanding
            if injector is not None:
                failed, multiplier = injector.decide(seq, attempt, req.tenant, t)
            else:
                failed, multiplier = False, 1.0
            effective = raw * multiplier if multiplier != 1.0 else raw
            timed_out = budget > 0.0 and total + effective > budget
            if timed_out:
                effective = budget - total
                if recorder is not None:
                    recorder.on_timeout()
            total += effective
            if not failed and not timed_out:
                success = True
                break
            if timed_out or attempt >= cfg.max_attempts:
                break
            # backoff_ms's ladder starts at attempt 1 (one completed
            # attempt); attempt 0 would silently wait less than base.
            assert attempt >= 1, f"backoff before any attempt (attempt={attempt})"
            backoff = res.backoff_ms(seq, attempt)
            if budget > 0.0 and total + backoff >= budget:
                break
            total += backoff
            t = now_ms + total
            if recorder is not None:
                recorder.on_retry()

        if success:
            breaker.on_success()
            # Fault-inflated latency (spikes, brownouts, retries,
            # backoff) is a *real* obstruction signal: the tenant's
            # misses are expensive right now, so the agent's NR rewards
            # should amplify exactly as they do for queue-depth-driven
            # slowness.
            self.monitor.observe(req.tenant, total)
            self.store.admit(req)
            res.forget_stale(req.key)
            if recorder is not None:
                recorder.on_request(
                    req.tenant, req.size, False, total, peak_outstanding
                )
                if degraded_window or probing or attempt > 1:
                    recorder.note_degraded(total)
            return False

        # 4. Every attempt failed: trip the breaker, fall back to stale.
        if breaker.on_failure(now_ms) and recorder is not None:
            recorder.on_breaker_open()
        self.monitor.observe_failure(req.tenant, total)
        if res.stale_hit(req.key):
            latency = total + self.latency.hit_latency(req.size) + cfg.stale_latency_ms
            if recorder is not None:
                recorder.on_stale(req.tenant, req.size, latency)
        else:
            if recorder is not None:
                recorder.on_error(req.tenant, req.size, total)
        return False

    # --- live-operations seams (repro.ops) ----------------------------------------

    def attach_ops_tap(self, tap) -> None:
        """Install the per-request ops callback (``tap(seq, req)``).

        The tap fires inside the sequenced section after this service
        has fully processed the request (both the plain and the
        resilient path), so everything the ops controller does — shadow
        duplication, window evaluation, agent swaps — is ordered by the
        global sequence number and bit-identical at any client count.
        """
        self._ops_tap = tap

    def signal_recorders(self) -> List[MetricsRecorder]:
        """The recorders a :class:`~repro.obs.signals.SignalReader` watches."""
        if self.recorder is None:
            raise ValueError("service has no MetricsRecorder to read signals from")
        return [self.recorder]

    def _agent(self):
        agent = getattr(self.store.policy, "agent", None)
        if agent is None:
            raise ValueError(
                f"policy {self.store.policy.name!r} has no learning agent; "
                "ops hot-swap/rollback require a learned (chrome) policy"
            )
        return agent

    def agent_states(self) -> List[dict]:
        """Snapshot the learned state (one entry: this service's agent)."""
        from ..core.persistence import agent_state

        return [agent_state(self._agent(), kind="serve-agent")]

    def load_agent_states(self, states: List[dict], *, keep_rng: bool = False) -> None:
        """Swap learned state into the live agent at an epoch boundary.

        ``keep_rng=False`` (rollback) restores the snapshot completely —
        Q-table, counters and exploration RNG — so the agent resumes
        exactly as it was at the last known good boundary.
        ``keep_rng=True`` (promotion / injection) swaps only the
        Q-table values: the live agent keeps its own RNG stream and
        lookup/update counters, the same discipline cluster federation
        uses, so a mid-run swap never replays another agent's
        exploration randomness.
        """
        if len(states) != 1:
            raise ValueError(
                f"expected exactly 1 agent state for a single service, "
                f"got {len(states)}"
            )
        from ..env.driver import restore_agent_state

        restore_agent_state(
            self._agent(), states[0], "serve-agent", keep_rng=keep_rng
        )

    # --- observability (opt-in; reads shared state, never mutates it) -------------

    def _obs_sample(self, seq: int) -> None:
        """One timeline/trace sample per ``serve_window`` requests.

        Called inside the sequenced section, so samples land at the
        same request boundaries for any client count.  Everything read
        here is cumulative service state — the request path itself is
        untouched.
        """
        obs = self._obs
        self._obs_next += self._obs_window
        now_ms = seq * self.latency.inter_arrival_ms
        m = self.recorder.metrics if self.recorder is not None else None
        row = {
            "seq": seq,
            "now_ms": now_ms,
            "outstanding": self.backend.outstanding(now_ms),
            "backend_fetches": self.backend.fetches,
            "obstruction_ewma": self.monitor.summary(),
        }
        if m is not None:
            row.update(
                requests=m.requests,
                hits=m.hits,
                object_hit_ratio=m.object_hit_ratio,
                byte_hit_ratio=m.byte_hit_ratio,
                errors=m.errors,
                shed=m.shed,
                stale_served=m.stale_served,
                retries=m.retries,
                breaker_opens=m.breaker_opens,
                degraded_requests=m.degraded_requests
                + len(self.recorder._degraded_latencies),
            )
        if self.resilience is not None:
            row["breaker_states"] = self.resilience.breaker_states()
            row["stale_retained"] = self.resilience.stale_retained
        policy = self.store.policy
        mix = getattr(policy, "reward_mix", None)
        if callable(mix):
            row["reward_mix"] = mix()
        obs.timeline.record("serve_window", **row)
        ts_us = now_ms * 1000.0
        if m is not None:
            obs.tracer.counter(
                "serve.hit_ratio", ts_us, {"object": m.object_hit_ratio}
            )
        obs.tracer.counter(
            "serve.outstanding", ts_us, {"fetches": row["outstanding"]}
        )
        if self.resilience is not None:
            for tenant, state in row["breaker_states"].items():
                if state != "closed":
                    obs.tracer.instant(
                        f"breaker.{state}", ts_us, args={"tenant": tenant}
                    )

    def obs_summary(self, metrics: ServeMetrics) -> None:
        """Record the end-of-run summary row (called after finalize)."""
        obs = self._obs
        if obs is None:
            return
        row = {
            "policy": metrics.policy,
            "workload": metrics.workload,
            "requests": metrics.requests,
            "object_hit_ratio": metrics.object_hit_ratio,
            "byte_hit_ratio": metrics.byte_hit_ratio,
            "p99_latency_ms": metrics.p99_latency_ms,
            "errors": metrics.errors,
            "degraded_fraction": metrics.degraded_fraction,
            "breaker_opens": metrics.breaker_opens,
            "obstruction_ewma": self.monitor.summary(),
        }
        if self.resilience is not None:
            row["breaker_states"] = self.resilience.breaker_states()
            row["stale_retained"] = self.resilience.stale_retained
        if metrics.telemetry:
            row["policy_telemetry"] = dict(metrics.telemetry)
        obs.timeline.record("serve_summary", **row)
        reg = obs.registry
        reg.counter("serve.requests").inc(metrics.requests)
        reg.counter("serve.hits").inc(metrics.hits)
        reg.counter("serve.errors").inc(metrics.errors)
        reg.counter("serve.shed").inc(metrics.shed)
        reg.counter("serve.stale_served").inc(metrics.stale_served)
        reg.counter("serve.breaker_opens").inc(metrics.breaker_opens)
        reg.gauge("serve.object_hit_ratio").set(metrics.object_hit_ratio)
        reg.gauge("serve.byte_hit_ratio").set(metrics.byte_hit_ratio)
        reg.gauge("serve.p99_latency_ms").set(metrics.p99_latency_ms)
        reg.gauge("serve.degraded_fraction").set(metrics.degraded_fraction)
        if metrics.telemetry:
            reg.set_gauges("serve.policy", metrics.telemetry)


def replay_requests(
    service: CacheService, requests: Sequence[Request]
) -> None:
    """Synchronous reference loop (same results as the async driver)."""
    process = service.process
    for seq, req in enumerate(requests):
        process(seq, req)


async def _client(
    service: CacheService, stream: Iterator[Tuple[int, Request]]
) -> None:
    process = service.process
    try:
        for seq, req in stream:
            if not process(seq, req):
                # A miss awaits its origin fetch: yield so other clients
                # run ahead — real interleaving, deterministic results.
                await asyncio.sleep(0)
    finally:
        # Fail-stop: a raise at seq k closes the shared stream, so the
        # other clients find it exhausted and nothing past k runs.
        stream.close()


async def _gather_clients(
    service: CacheService, requests: Sequence[Request], num_clients: int
) -> None:
    # A generator, not the bare enumerate, so a failing client can close it.
    stream = (item for item in enumerate(requests))
    await asyncio.gather(
        *(_client(service, stream) for _ in range(num_clients))
    )


def drive_requests(
    service, requests: Sequence[Request], num_clients: int
) -> None:
    """Feed ``requests`` to ``service.process`` in sequence order.

    ``service`` is anything with a synchronous ``process(seq, req) ->
    hit`` (a :class:`CacheService`, a cluster).  One client replays in
    a plain loop; more clients share one stream of ``(seq, req)``
    pairs.  Only one coroutine runs at a time and ``process`` never
    awaits, so each pull-and-process is atomic and requests are
    processed in sequence order by construction — results are
    bit-identical at any client count.  A client yields only after a
    miss, where a real client would wait on the origin.
    """
    if num_clients <= 1:
        replay_requests(service, requests)
    else:
        asyncio.run(_gather_clients(service, requests, num_clients))


def run_configured(
    requests: Sequence[Request],
    config: ServiceConfig,
    *,
    policy: Optional[ServePolicy] = None,
    obs=None,
) -> ServeMetrics:
    """Run a request stream through a service described by one config.

    This is the canonical entry point: a :class:`ServiceConfig` holds
    every knob (geometry, policy, latency model, faults, resilience,
    driver concurrency, warmup, checkpointing), and the run is a pure
    function of (requests, config).  ``policy`` optionally supplies a
    pre-built policy instance (warm starts, legacy callers); when
    omitted the config builds its own, RNG-seeded from the config seed.

    ``config.num_clients`` controls only the *concurrency shape* of
    the driver; metrics are bit-identical for any client count (the
    serve layer's ``--jobs 1`` vs ``--jobs N`` determinism guarantee,
    and it holds with fault injection enabled too).  The first
    ``warmup_requests`` requests flow through the cache but are
    excluded from the reported metrics, mirroring the simulator's
    warmup convention.  ``obs`` (a :class:`repro.obs.ObsSession`) opts
    the run into telemetry sampling; exporting the artifacts is the
    caller's job (see :meth:`ServeJob.execute
    <repro.serve.jobs.ServeJob>`).
    """
    if policy is None:
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
        # Chunked pre-classification (numpy backend): hash each chunk
        # of request keys into the store's segment memo in one
        # vectorized sweep, so both drivers' per-request segment_of
        # calls become dict hits.  Purely a throughput knob — the memo
        # holds exactly what the scalar hash returns.
        keys = [req.key for req in requests]
        for start in range(0, len(keys), 4096):
            store.preclassify(keys[start : start + 4096])
    drive_requests(service, requests, config.num_clients)
    metrics = recorder.finalize()
    metrics.telemetry = dict(policy.telemetry())
    service.obs_summary(metrics)
    return metrics


def run_service(
    requests: Sequence[Request],
    policy: ServePolicy,
    capacity_bytes: int,
    num_segments: int,
    *,
    num_clients: int = 8,
    warmup_requests: int = 0,
    latency: Optional[LatencyConfig] = None,
    checkpoint_every: int = 0,
    workload_name: str = "",
    faults: Optional[FaultConfig] = None,
    resilience: Optional[ResilienceConfig] = None,
    obs=None,
) -> ServeMetrics:
    """Legacy kwargs surface — a thin shim over :func:`run_configured`.

    Deprecated in favor of building a :class:`ServiceConfig` and
    calling :func:`run_configured`; kept so existing callers (and the
    committed goldens they pin) keep working unchanged.
    """
    config = ServiceConfig(
        capacity_bytes=capacity_bytes,
        num_segments=num_segments,
        policy=policy.name,
        num_clients=num_clients,
        warmup_requests=warmup_requests,
        checkpoint_every=checkpoint_every,
        workload_name=workload_name,
        latency=latency,
        faults=faults,
        resilience=resilience,
    )
    return run_configured(requests, config, policy=policy, obs=obs)
