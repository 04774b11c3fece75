"""Output checks run on every benchmark unit.

Each function returns a list of human-readable failures; an empty list
means the outputs are consistent.  The benchmark counts every failed
check in ``failed`` and exits non-zero, and its tests feed these
functions known-bad outputs to show that each check can fail.
"""

from __future__ import annotations

from typing import List, Sequence


def _partition(m, label: str) -> List[str]:
    outcomes = m.hits + m.origin_served + m.stale_served + m.errors + m.shed
    if outcomes == m.requests:
        return []
    return [
        f"{label}: hits+origin+stale+errors+shed = {outcomes} "
        f"!= requests {m.requests}"
    ]


def check_serve(m, expected_requests: int, label: str = "serve") -> List[str]:
    """Every measured request ends in exactly one outcome.

    ``hits + origin + stale + errors + shed == requests``, and the
    measured window holds the requests the run was asked to measure.
    """
    failures = _partition(m, label)
    if m.requests != expected_requests:
        failures.append(
            f"{label}: measured {m.requests} requests, expected {expected_requests}"
        )
    return failures


def check_fleet(
    cm, total_requests: int, expected_requests: int, *, federated: bool
) -> List[str]:
    """Routing conserves requests, the killed shard left and came back,
    and (for a learned fleet) federation ran.

    With replication 2 and one shard down every key keeps a live
    replica, so ``unroutable`` is 0 and the fleet measures every
    post-warmup request.
    """
    failures = check_serve(cm.fleet, expected_requests - cm.unroutable, "fleet")
    for idx, shard in enumerate(cm.per_shard):
        failures += _partition(shard, f"shard {idx}")
    routed = sum(cm.routed) + cm.unroutable
    if routed != total_requests:
        failures.append(
            f"fleet: routed {sum(cm.routed)} + unroutable {cm.unroutable} "
            f"!= requests {total_requests}"
        )
    if cm.ring_changes != 2:
        failures.append(
            f"fleet: {cm.ring_changes} ring changes, expected 2 (kill + heal)"
        )
    if federated and cm.federations <= 0:
        failures.append("fleet: no federation round ran")
    return failures


def check_ops(result, *, expect_snapshots: bool) -> List[str]:
    """The controller snapshotted, and its shadow saw the fleet's traffic."""
    failures = []
    if expect_snapshots and result.snapshots <= 0:
        failures.append("ops: no last-known-good snapshot was taken")
    fleet = result.champion.fleet
    if result.challenger is None:
        failures.append("ops: no shadow challenger ran")
    elif result.challenger.requests != fleet.requests:
        failures.append(
            f"ops: shadow measured {result.challenger.requests} requests, "
            f"fleet {fleet.requests}"
        )
    return failures


def check_sim(result, expected_instructions: Sequence[int], label: str) -> List[str]:
    """Every core ran its whole access budget, and every IPC is positive.

    ``expected_instructions[i]`` is the instruction count of core *i*'s
    measured trace slice; a core that stopped early retires fewer.
    """
    failures = []
    if len(result.cores) != len(expected_instructions):
        failures.append(
            f"{label}: {len(result.cores)} cores, expected {len(expected_instructions)}"
        )
    for idx, (core, expected) in enumerate(zip(result.cores, expected_instructions)):
        if core.instructions != expected:
            failures.append(
                f"{label}: core {idx} retired {core.instructions} measured "
                f"instructions, its budget holds {expected}"
            )
    for idx, ipc in enumerate(result.ipcs):
        if not ipc > 0.0:
            failures.append(f"{label}: core {idx} IPC {ipc} is not positive")
    return failures
