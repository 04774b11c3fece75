"""Shadow evaluation: a challenger service fed the champion's traffic.

The classic safe-deployment question — "would policy B beat policy A on
*our* traffic?" — is answered here without risking a single served
request: a :class:`ShadowHarness` owns a fully isolated challenger
:class:`~repro.serve.service.CacheService` (own policy/agent, own
store, own backend latency model, own recorder) built from
:meth:`~repro.serve.config.ServiceConfig.for_challenger`, and the ops
controller replays every champion request into it *after* the champion
has processed it, inside the sequenced section.

Isolation is structural, not disciplinary: the challenger holds no
reference to any champion object, so it cannot affect served results —
the zero-impact test pins that champion metrics with a shadow attached
are byte-identical to the committed serve goldens.  Because the
duplicate stream is sequenced by the same global sequence numbers, the
challenger's metrics are themselves deterministic at any client count,
which is what makes per-window champion-vs-challenger deltas (and the
promotion decision built on them) reproducible.
"""

from __future__ import annotations

from ..serve.config import ServiceConfig
from ..serve.metrics import ServeMetrics
from ..serve.service import configured_service
from ..serve.workloads import Request
from .config import OpsConfig


class ShadowHarness:
    """One challenger service mirroring the champion's request stream."""

    def __init__(self, champion_config: ServiceConfig, ops: OpsConfig) -> None:
        if not ops.shadow_enabled:
            raise ValueError("OpsConfig has no challenger_policy; shadow disabled")
        self.config = champion_config.for_challenger(
            policy=ops.challenger_policy,
            policy_params=ops.challenger_params,
        )
        # Same warmup boundary as the champion: both recorders start
        # measuring at the same global seq, so per-window deltas always
        # compare the same traffic slice.
        self.service = configured_service(self.config)
        self.policy = self.service.store.policy
        self.recorder = self.service.recorder

    def process(self, seq: int, req: Request) -> bool:
        """Replay one champion request into the challenger."""
        return self.service.process(seq, req)

    def agent_states(self):
        """The challenger's learned state (what promotion deploys)."""
        return self.service.agent_states()

    def finalize(self) -> ServeMetrics:
        return self.service.finalize()
