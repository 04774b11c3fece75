"""Q-table federation: periodic merge/averaging across shard agents.

Each shard runs its own CHROME serve agent, so each shard only learns
from the slice of traffic the ring routes to it.  Federation closes
that gap the federated-averaging way: every ``federate_every`` requests
the cluster averages every agent's Q-table entry by entry and writes
the mean back into every agent — one shard's "large scan objects are
not worth their bytes" lesson reaches the whole fleet without any
shard seeing another's requests.

A round works on the live tables, not on snapshots:
:func:`federate_agents` walks the agents' ``QTable._tables`` row by
row in lockstep.  A row whose lists are equal on every agent is
*settled* and skipped — on-grid values merge to themselves, and every
value the repo writes into a live table is on the grid (updates
quantize, merges snap, persistence restores are grid-validated).  Any other row is merged by
:func:`_merge_row` and copied into each agent's existing row list
(``row[:] = merged``), so the memoized row caches keep pointing at live
rows and each agent keeps owning its storage.  :func:`merge_qtable_states`,
the snapshot-level merge, runs the same per-row kernel, so the two stay
byte-identical by construction.

Determinism discipline:

* **order independence** — each entry's per-shard values are sorted
  before summing, so float addition order cannot depend on shard
  enumeration order; ``merge_qtable_states(reversed(states))`` is
  bit-identical to the forward merge (pinned by test);
* **grid quantization** — the mean is snapped back to the agents'
  16-bit fixed-point grid, so a merged table is a *valid* table (every
  value representable in the hardware design) and save/merge/restore
  round-trips bit-identically through JSON;
* **counters stay local** — merged ``lookups``/``updates`` are summed
  for the merged snapshot, but each agent keeps its own counters
  (they are telemetry about the shard, not learned state), and agent
  exploration RNGs are never touched.

A numpy-backend agent has no nested-list rows; it joins the walk
through a detached snapshot that is loaded back after the merge
(pinned against :func:`merge_qtable_states` by
``tests/test_federate_numpy.py``).
"""

from __future__ import annotations

from typing import List, Sequence

_GEOMETRY = ("version", "num_features", "num_subtables", "rows", "num_actions")


def _merge_row(rows: Sequence[List[float]], quantum: float) -> List[float]:
    """The merged value of one row across shards, action by action:
    ``round(mean / quantum) * quantum`` over the shards' values."""
    n = len(rows)
    merged = []
    for column in zip(*rows, strict=True):
        # Sorted before summing: the sum (and thus the mean) is
        # independent of shard order.
        total = 0.0
        for v in sorted(column):
            total += v
        merged.append(round(total / n / quantum) * quantum)
    return merged


def merge_qtable_states(states: Sequence[dict], quantum: float) -> dict:
    """Entrywise average of same-geometry Q-table snapshots.

    ``quantum`` is the fixed-point grid step
    (:attr:`QTable._quantum <repro.core.qtable.QTable>`); every merged
    value is ``round(mean / quantum) * quantum``, so merging a single
    on-grid state is the identity.  Raises ``ValueError`` on empty
    input or mismatched geometry.
    """
    if not states:
        raise ValueError("cannot merge zero Q-table states")
    base = states[0]
    for state in states[1:]:
        mismatched = {
            k: (state.get(k), base.get(k))
            for k in _GEOMETRY
            if state.get(k) != base.get(k)
        }
        if mismatched:
            raise ValueError(f"Q-table geometry mismatch in merge: {mismatched}")
    tables = [
        [
            [_merge_row(rows, quantum) for rows in zip(*subtables, strict=True)]
            for subtables in zip(*features, strict=True)
        ]
        for features in zip(*(s["tables"] for s in states), strict=True)
    ]
    merged = {k: base[k] for k in _GEOMETRY}
    merged["tables"] = tables
    merged["lookups"] = sum(int(s.get("lookups", 0)) for s in states)
    merged["updates"] = sum(int(s.get("updates", 0)) for s in states)
    return merged


def _merge_tables_in_place(tables: Sequence[list], quantum: float) -> None:
    """Merge same-shape nested row tables in place, row by row.

    Rows already equal on every table are skipped; every other row is
    overwritten in each table with :func:`_merge_row`'s result (a copy
    per table, never a shared list).
    """
    n = len(tables)
    for features in zip(*tables, strict=True):
        for subtables in zip(*features, strict=True):
            for rows in zip(*subtables, strict=True):
                if rows.count(rows[0]) == n:
                    continue  # settled: on-grid values merge to themselves
                merged = _merge_row(rows, quantum)
                for row in rows:
                    row[:] = merged


def federate_agents(agents: Sequence) -> dict:
    """One federation round over live agents (in place).

    Merges the agents' live Q-table rows (see the module docstring),
    keeping each agent's own lookup/update counters and leaving
    exploration RNG state untouched.  Returns the merged snapshot (for
    persistence or obs), equal to :func:`merge_qtable_states` over the
    agents' pre-round snapshots.  A numpy-backend agent joins the walk
    through a detached snapshot that is loaded back afterwards.
    """
    if not agents:
        raise ValueError("cannot federate zero agents")
    qtables = [agent.qtable for agent in agents]
    geometries = {(qt.num_features, qt.num_subtables, qt.rows) for qt in qtables}
    if len(geometries) > 1:
        raise ValueError(
            f"Q-table geometry mismatch in federation: {sorted(geometries)}"
        )
    detached = {}
    tables = []
    for i, qt in enumerate(qtables):
        live = getattr(qt, "_tables", None)
        if live is None:
            detached[i] = qt.state_dict()
            live = detached[i]["tables"]
        tables.append(live)
    _merge_tables_in_place(tables, qtables[0]._quantum)
    for i, state in detached.items():
        qtables[i].load_state_dict(state)  # carries the agent's own counters
    # Every agent now holds the merged table; snapshot one of them.
    merged = qtables[0].state_dict()
    merged["lookups"] = sum(int(qt.lookups) for qt in qtables)
    merged["updates"] = sum(int(qt.updates) for qt in qtables)
    return merged
