"""CHROME's feature-sliced Q-table (Sec. V-C, Fig. 5).

A monolithic Q-table over the full (PC signature x page number) state
space would be enormous, so CHROME:

1. **partitions by feature** — one table section per state feature,
   holding Q-values for *feature-action* pairs; the state-action
   Q-value is the **max** over its features' Q-values, so every action
   is driven by the feature that is most confident about it;
2. **slices each feature table into sub-tables** — each sub-table is
   indexed by a different hash of the feature (XOR with a per-sub-table
   constant, then fold), and stores a *partial* Q-value; the
   feature-action Q-value is the **sum** of its partial values.  This
   trades collisions for storage, balancing resolution against
   generalization exactly like Pythia's feature tables.

Hardware stores 16-bit fixed-point Q-values; we quantize to the same
grid (``fraction_bits`` fractional bits) after every update so learning
dynamics match the implementable design.

Implementation note: storage here is plain nested lists, not numpy.
For *per-access* scalar ops — one 4-wide row touched per LLC access —
list indexing beats small-array numpy dispatch by several times, and
this class is the golden reference every committed artifact was
generated with.  That advantage inverts for *batched* kernels: the
opt-in numpy backend (:mod:`repro.core.qtable_np`, selected via
:mod:`repro.core.backend` / DESIGN.md §9) has batch kernels that
decide and train whole chunks per dispatch, bit-identically, several
times faster than the scalar loop.  Row indices (4 hashes per feature
value) are memoized.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..sim.address import mix_hash
from .config import NUM_ACTIONS, ChromeConfig

# Per-sub-table XOR constants (arbitrary but fixed, like the RTL would bake in).
_SUBTABLE_XOR = (
    0x0000000000000000,
    0x5555555555555555,
    0x3333333333333333,
    0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF,
    0xFFFF0000FFFF0000,
    0x0F0F0F0F00000000,
    0x9E3779B97F4A7C15,
)


class QTable:
    """Q-value storage for all observed feature-action pairs."""

    __slots__ = (
        "config",
        "num_features",
        "num_subtables",
        "rows",
        "_row_mask",
        "_quantum",
        "_clamp",
        "_init_q",
        "_tables",
        "_index_cache",
        "_row_caches",
        "lookups",
        "updates",
    )

    def __init__(self, num_features: int, config: ChromeConfig) -> None:
        if config.num_subtables > len(_SUBTABLE_XOR):
            raise ValueError(f"at most {len(_SUBTABLE_XOR)} sub-tables supported")
        self.config = config
        self.num_features = num_features
        self.num_subtables = config.num_subtables
        self.rows = config.rows_per_subtable
        self._row_mask = self.rows - 1
        if self.rows & self._row_mask:
            raise ValueError("rows per sub-table must be a power of two")
        self._quantum = 1.0 / (1 << config.q_fixed_point_fraction_bits)
        limit = (1 << (config.q_value_bits - 1)) * self._quantum
        self._clamp = (-limit, limit - self._quantum)
        init = config.optimistic_q / self.num_subtables
        init = round(init / self._quantum) * self._quantum
        self._init_q = init
        # tables[feature][subtable][row] -> [q per action]
        self._tables: List[List[List[List[float]]]] = [
            [
                [[init] * NUM_ACTIONS for _ in range(self.rows)]
                for _ in range(self.num_subtables)
            ]
            for _ in range(num_features)
        ]
        # feature value -> per-sub-table row indices (hashing is pure, so
        # the cache is exact; it is bounded by the feature bit-widths).
        self._index_cache: Dict[int, Tuple[int, ...]] = {}
        # Per-feature: value -> live references to its sub-table rows;
        # rows are only ever mutated in place (apply_delta, load, cluster
        # federation), so the caches stay valid.  One dict per feature
        # keeps the keys plain ints (no tuple allocation per lookup on
        # the hot path).
        self._row_caches: List[Dict[int, Tuple[List[float], ...]]] = [
            {} for _ in range(num_features)
        ]
        self.lookups = 0
        self.updates = 0

    # --- indexing (pipeline stages 1-2 of Fig. 5) -----------------------------

    def _row_indices(self, feature_value: int) -> Tuple[int, ...]:
        cached = self._index_cache.get(feature_value)
        if cached is None:
            mask = self._row_mask
            cached = tuple(
                mix_hash(feature_value ^ _SUBTABLE_XOR[k]) & mask
                for k in range(self.num_subtables)
            )
            if len(self._index_cache) < (1 << 21):
                self._index_cache[feature_value] = cached
        return cached

    # --- lookup (stages 3-5) ------------------------------------------------------

    def _rows_for(self, feature_idx: int, feature_value: int) -> Tuple[List[float], ...]:
        cache = self._row_caches[feature_idx]
        rows = cache.get(feature_value)
        if rows is None:
            tables = self._tables[feature_idx]
            rows = tuple(
                tables[k][idx] for k, idx in enumerate(self._row_indices(feature_value))
            )
            if len(cache) < (1 << 20):
                cache[feature_value] = rows
        return rows

    def feature_q_values(self, feature_idx: int, feature_value: int) -> List[float]:
        """Q(f, A) for every action: sum of the sub-tables' partial values."""
        rows = self._rows_for(feature_idx, feature_value)
        first = rows[0]
        acc = list(first)
        for row in rows[1:]:
            for a in range(NUM_ACTIONS):
                acc[a] += row[a]
        return acc

    def q_values(self, state: Sequence[int]) -> List[float]:
        """Q(S, A) for every action: max over the state's features.

        Fused read path: walks each feature's sub-table rows once,
        accumulating the per-action sums in scalars and folding the
        feature-max in place — no intermediate per-feature lists.  The
        accumulation order matches :meth:`feature_q_values` exactly, so
        results are bit-identical to the unfused form.
        """
        self.lookups += 1
        if NUM_ACTIONS == 4:
            row_caches = self._row_caches
            value = state[0]
            rows = row_caches[0].get(value)
            if rows is None:
                rows = self._rows_for(0, value)
            first = rows[0]
            b0 = first[0]
            b1 = first[1]
            b2 = first[2]
            b3 = first[3]
            for k in range(1, len(rows)):
                row = rows[k]
                b0 += row[0]
                b1 += row[1]
                b2 += row[2]
                b3 += row[3]
            for f in range(1, self.num_features):
                value = state[f]
                rows = row_caches[f].get(value)
                if rows is None:
                    rows = self._rows_for(f, value)
                first = rows[0]
                a0 = first[0]
                a1 = first[1]
                a2 = first[2]
                a3 = first[3]
                for k in range(1, len(rows)):
                    row = rows[k]
                    a0 += row[0]
                    a1 += row[1]
                    a2 += row[2]
                    a3 += row[3]
                if a0 > b0:
                    b0 = a0
                if a1 > b1:
                    b1 = a1
                if a2 > b2:
                    b2 = a2
                if a3 > b3:
                    b3 = a3
            return [b0, b1, b2, b3]
        best = self.feature_q_values(0, state[0])
        for f in range(1, self.num_features):
            other = self.feature_q_values(f, state[f])
            for a in range(NUM_ACTIONS):
                if other[a] > best[a]:
                    best[a] = other[a]
        return best

    def q(self, state: Sequence[int], action: int) -> float:
        """Q(S, a) for one action, without materializing the full row.

        Sums only the requested action's column per feature (same
        accumulation order as :meth:`q_values`, so bit-identical) and
        takes the max across features.
        """
        self.lookups += 1
        rows_for = self._rows_for
        best: float | None = None
        for f in range(self.num_features):
            rows = rows_for(f, state[f])
            if len(rows) == 4:  # default sub-table count, unrolled
                total = rows[0][action] + rows[1][action] + rows[2][action] + rows[3][action]
            else:
                total = rows[0][action]
                for k in range(1, len(rows)):
                    total += rows[k][action]
            if best is None or total > best:
                best = total
        assert best is not None
        return best

    def best_action(self, state: Sequence[int], legal: Sequence[int]) -> int:
        """Arg-max over legal actions (fixed-order tie-break).

        The 4-action case fuses the :meth:`q_values` accumulation with
        the arg-max (same order, bit-identical results) so the decision
        costs one frame and no intermediate list.
        """
        if NUM_ACTIONS == 4:
            self.lookups += 1
            row_caches = self._row_caches
            value = state[0]
            rows = row_caches[0].get(value)
            if rows is None:
                rows = self._rows_for(0, value)
            if len(rows) == 4:  # default sub-table count, fully unrolled
                # Left-associative sums: same accumulation order as the
                # loop form below, so results stay bit-identical.
                r0, r1, r2, r3 = rows
                b0 = r0[0] + r1[0] + r2[0] + r3[0]
                b1 = r0[1] + r1[1] + r2[1] + r3[1]
                b2 = r0[2] + r1[2] + r2[2] + r3[2]
                b3 = r0[3] + r1[3] + r2[3] + r3[3]
                for f in range(1, self.num_features):
                    value = state[f]
                    rows = row_caches[f].get(value)
                    if rows is None:
                        rows = self._rows_for(f, value)
                    r0, r1, r2, r3 = rows
                    a0 = r0[0] + r1[0] + r2[0] + r3[0]
                    a1 = r0[1] + r1[1] + r2[1] + r3[1]
                    a2 = r0[2] + r1[2] + r2[2] + r3[2]
                    a3 = r0[3] + r1[3] + r2[3] + r3[3]
                    if a0 > b0:
                        b0 = a0
                    if a1 > b1:
                        b1 = a1
                    if a2 > b2:
                        b2 = a2
                    if a3 > b3:
                        b3 = a3
                values = (b0, b1, b2, b3)
                best_action = legal[0]
                best_value = values[best_action]
                for action in legal[1:]:
                    v = values[action]
                    if v > best_value:
                        best_action = action
                        best_value = v
                return best_action
            first = rows[0]
            b0 = first[0]
            b1 = first[1]
            b2 = first[2]
            b3 = first[3]
            for k in range(1, len(rows)):
                row = rows[k]
                b0 += row[0]
                b1 += row[1]
                b2 += row[2]
                b3 += row[3]
            for f in range(1, self.num_features):
                value = state[f]
                rows = row_caches[f].get(value)
                if rows is None:
                    rows = self._rows_for(f, value)
                first = rows[0]
                a0 = first[0]
                a1 = first[1]
                a2 = first[2]
                a3 = first[3]
                for k in range(1, len(rows)):
                    row = rows[k]
                    a0 += row[0]
                    a1 += row[1]
                    a2 += row[2]
                    a3 += row[3]
                if a0 > b0:
                    b0 = a0
                if a1 > b1:
                    b1 = a1
                if a2 > b2:
                    b2 = a2
                if a3 > b3:
                    b3 = a3
            values = (b0, b1, b2, b3)
            best_action = legal[0]
            best_value = values[best_action]
            for action in legal[1:]:
                v = values[action]
                if v > best_value:
                    best_action = action
                    best_value = v
            return best_action
        values = self.q_values(state)
        best_action, best_value = legal[0], values[legal[0]]
        for action in legal[1:]:
            if values[action] > best_value:
                best_action, best_value = action, values[action]
        return best_action

    # --- update ------------------------------------------------------------------

    def apply_delta(self, state: Sequence[int], action: int, delta: float) -> None:
        """Move Q(S, A) by ``delta``.

        Each feature's Q(f, A) moves by the full delta (both features
        witnessed the decision), spread evenly over its sub-tables so
        the partial values sum to the new target; results are quantized
        to the 16-bit fixed-point grid.
        """
        self.updates += 1
        share = delta / self.num_subtables
        lo, hi = self._clamp
        q = self._quantum
        rows_for = self._rows_for
        for f in range(self.num_features):
            for row in rows_for(f, state[f]):
                value = row[action] + share
                value = round(value / q) * q
                if value < lo:
                    value = lo
                elif value > hi:
                    value = hi
                row[action] = value

    # --- batch surface (reference loops; the numpy backend vectorizes these) ------

    def best_actions(self, states, legal: Sequence[int]) -> List[int]:
        """Reference batch decide: the definitional per-record loop.

        :class:`~repro.core.qtable_np.QTableNumpy` overrides this with
        a vectorized kernel; keeping the loop here lets chunk-grained
        callers use one code path on either backend.
        """
        return [self.best_action(s, legal) for s in states]

    def apply_deltas(
        self,
        states: Sequence[Sequence[int]],
        actions: Sequence[int],
        deltas: Sequence[float],
    ) -> None:
        """Reference batch update: sequential per-record loop."""
        for state, action, delta in zip(states, actions, deltas):
            self.apply_delta(state, action, delta)

    # --- persistence -----------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete, JSON-serializable learned state.

        Stores the raw per-sub-table partial values (plain floats —
        JSON round-trips Python floats exactly), the geometry needed to
        validate a load, and the lookup/update counters.
        """
        return {
            "version": 1,
            "num_features": self.num_features,
            "num_subtables": self.num_subtables,
            "rows": self.rows,
            "num_actions": NUM_ACTIONS,
            "tables": [
                [[list(row) for row in subtable] for subtable in feature]
                for feature in self._tables
            ],
            "lookups": self.lookups,
            "updates": self.updates,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (bit-identical q_values).

        The table geometry must match this instance's construction, and
        ``state["tables"]`` must have exactly that nested shape; both
        are checked before any value is written, so a malformed state
        raises and leaves the table unchanged.  Values are copied into
        the existing row lists, so the memoized row caches stay live
        and restored values are served on the very next lookup; the
        table never aliases the source state.
        """
        if state.get("version") != 1:
            raise ValueError(f"unsupported QTable state version {state.get('version')!r}")
        expected = {
            "num_features": self.num_features,
            "num_subtables": self.num_subtables,
            "rows": self.rows,
            "num_actions": NUM_ACTIONS,
        }
        mismatched = {
            k: (state.get(k), v) for k, v in expected.items() if state.get(k) != v
        }
        if mismatched:
            raise ValueError(f"QTable geometry mismatch on load: {mismatched}")
        tables = state["tables"]
        try:
            well_formed = len(tables) == self.num_features and all(
                len(feature) == self.num_subtables
                and all(
                    len(subtable) == self.rows
                    and all(len(row) == NUM_ACTIONS for row in subtable)
                    for subtable in feature
                )
                for feature in tables
            )
        except TypeError:
            well_formed = False
        if not well_formed:
            raise ValueError(
                "QTable geometry mismatch on load: tables are not "
                f"{self.num_features}x{self.num_subtables}x{self.rows}x{NUM_ACTIONS}"
            )
        for live_feature, feature in zip(self._tables, tables):
            for live_subtable, subtable in zip(live_feature, feature):
                for live_row, row in zip(live_subtable, subtable):
                    live_row[:] = row
        self.lookups = int(state.get("lookups", 0))
        self.updates = int(state.get("updates", 0))

    # --- introspection ---------------------------------------------------------------

    def storage_bits(self) -> int:
        """Exactly Table III's Q-table row: features x sub-tables x
        entries x 16 bits."""
        return (
            self.num_features
            * self.num_subtables
            * self.rows
            * NUM_ACTIONS
            * self.config.q_value_bits
        )

    def health_stats(self) -> dict:
        """Coverage/saturation walk for observability.

        *Coverage* is the fraction of stored Q-entries that have moved
        off their optimistic-initialization value — how much of the
        table the workload has actually trained.  *Saturation* is the
        fraction pinned at the fixed-point clamp bounds — entries whose
        updates are being clipped (a hyperparameter health signal).
        Walks every entry, so callers sample this at run boundaries,
        not per epoch.
        """
        init = self._init_q
        lo, hi = self._clamp
        total = touched = saturated = 0
        for feature in self._tables:
            for subtable in feature:
                for row in subtable:
                    for v in row:
                        if v != init:
                            touched += 1
                        if v <= lo or v >= hi:
                            saturated += 1
                    total += len(row)
        return {
            "q_entries": total,
            "q_coverage": touched / total if total else 0.0,
            "q_saturation": saturated / total if total else 0.0,
            "lookups": self.lookups,
            "updates": self.updates,
        }

    def snapshot_stats(self) -> dict:
        """Streaming min/max/mean over every stored Q-value.

        Walks the tables row by row instead of materializing the full
        value list (features x sub-tables x rows x actions floats); the
        accumulation visits values in the same order as the old
        list-comprehension form, so the mean is bit-identical.
        """
        q_min = q_max = None
        total = 0.0
        count = 0
        for feature in self._tables:
            for subtable in feature:
                for row in subtable:
                    for v in row:
                        total += v
                        if q_min is None:
                            q_min = q_max = v
                        elif v < q_min:
                            q_min = v
                        elif v > q_max:
                            q_max = v
                    count += len(row)
        return {
            "lookups": self.lookups,
            "updates": self.updates,
            "q_min": q_min,
            "q_max": q_max,
            "q_mean": total / count,
        }
