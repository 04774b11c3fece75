"""Numpy-backed Q-table: integer ticks on the 16-bit fixed-point grid.

Drop-in replacement for :class:`~repro.core.qtable.QTable` (select it
with ``backend="numpy"`` / ``REPRO_BACKEND=numpy``; see
:mod:`repro.core.backend`).  Each feature's sub-tables are one
``(num_subtables, rows, NUM_ACTIONS)`` integer array whose entries are
*ticks* — Q-values divided by the fixed-point quantum ``2^-f`` — so
the whole table is the same 16-bit lattice the scalar reference
quantizes onto, stored exactly.

**Why the backends are bit-identical** (DESIGN.md §9 has the full
argument):

* a stored value is always ``tick * q`` with ``q = 2^-f`` a power of
  two, so converting between ticks and floats is exact both ways;
* sub-table partial sums (≤ 8 values, each < 2^10 in magnitude on a
  2^-6 grid) never exceed float64's 53-bit significand, so the scalar
  path's float sums equal ``(sum of ticks) * q`` exactly — lookups,
  arg-maxes and SARSA targets agree to the last bit;
* the scalar update ``round((value + share) / q) * q`` equals
  ``rint(tick + share/q)`` in ticks, because scaling by ``1/q``
  commutes with IEEE rounding and both ``round`` and ``np.rint``
  round half to even.

Per-access calls (``best_action`` / ``apply_delta`` on one state) go
through numpy element access and are *slower* than the scalar table's
unrolled list code — that trade is the point: this backend exists for
the **batch kernels** (``best_actions`` / ``apply_deltas``), which
decide and train whole chunks per numpy dispatch.  ``apply_deltas``
preserves sequential semantics exactly: records whose table cells
collide are split into ordered collision-free sub-batches, so each
cell sees the same chain of quantized updates the scalar loop applies.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .config import NUM_ACTIONS, ChromeConfig
from .qtable import _SUBTABLE_XOR

_U64 = np.uint64


def batch_mix_hash(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array: each lane equals
    :func:`repro.sim.address.mix_hash` of the same value (u64
    multiplication wraps exactly like the scalar ``& _MASK64``)."""
    v = values.astype(_U64, copy=True)
    v ^= v >> _U64(30)
    v *= _U64(0xBF58476D1CE4E5B9)
    v ^= v >> _U64(27)
    v *= _U64(0x94D049BB133111EB)
    v ^= v >> _U64(31)
    return v


class QTableNumpy:
    """Vectorized Q-value storage, interchangeable with the scalar table."""

    __slots__ = (
        "config",
        "num_features",
        "num_subtables",
        "rows",
        "_row_mask",
        "_quantum",
        "_inv_quantum",
        "_clamp",
        "_init_q",
        "_init_tick",
        "_lo_tick",
        "_hi_tick",
        "_dtype",
        "_ticks",
        "_views",
        "_xor_u64",
        "_cell_base",
        "_index_cache",
        "_batch_row_cache",
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
        self._inv_quantum = float(1 << config.q_fixed_point_fraction_bits)
        limit = (1 << (config.q_value_bits - 1)) * self._quantum
        self._clamp = (-limit, limit - self._quantum)
        self._lo_tick = -(1 << (config.q_value_bits - 1))
        self._hi_tick = (1 << (config.q_value_bits - 1)) - 1
        if config.q_value_bits <= 16:
            self._dtype = np.int16
        elif config.q_value_bits <= 32:
            self._dtype = np.int32
        else:
            self._dtype = np.int64
        init = config.optimistic_q / self.num_subtables
        init = round(init / self._quantum) * self._quantum
        self._init_q = init
        self._init_tick = round(init * self._inv_quantum)
        self._ticks = np.full(
            (num_features, self.num_subtables, self.rows, NUM_ACTIONS),
            self._init_tick,
            dtype=self._dtype,
        )
        self._views = [self._ticks[f] for f in range(num_features)]
        # Sub-table XOR constants as a uint64 row for the batched hash.
        self._xor_u64 = np.array(
            _SUBTABLE_XOR[: self.num_subtables], dtype=_U64
        )
        # Flat-cell base per (feature, sub-table) pair: cell id of
        # (f, k, row, action) is ((f*K + k)*R + row)*A + action.
        fk = np.arange(num_features * self.num_subtables, dtype=np.int64)
        self._cell_base = (fk * self.rows).reshape(
            1, num_features, self.num_subtables
        )
        # Same exact memo as the scalar table: hashing is pure.
        self._index_cache: dict = {}
        # Batch analogue of the scalar row caches: callers that sweep
        # the same state array repeatedly (epoch loops, benches) get
        # their row indices back without re-hashing.  Keyed by array
        # identity and guarded by a weakref, so a recycled id() can
        # never alias a dead array.
        self._batch_row_cache: dict = {}
        self.lookups = 0
        self.updates = 0

    # --- indexing -----------------------------------------------------------------

    def _row_indices(self, feature_value: int) -> Tuple[int, ...]:
        cached = self._index_cache.get(feature_value)
        if cached is None:
            from ..sim.address import mix_hash

            mask = self._row_mask
            cached = tuple(
                mix_hash(feature_value ^ _SUBTABLE_XOR[k]) & mask
                for k in range(self.num_subtables)
            )
            if len(self._index_cache) < (1 << 21):
                self._index_cache[feature_value] = cached
        return cached

    def _batch_rows(self, values: np.ndarray) -> np.ndarray:
        """Sub-table row indices for a uint64 value array (vectorized).

        ``values`` has shape ``(..., )``; the result adds a trailing
        sub-table axis: ``(..., num_subtables)`` of int64 rows.
        """
        hashed = batch_mix_hash(values[..., None] ^ self._xor_u64)
        return (hashed & _U64(self._row_mask)).astype(np.int64)

    def _batch_rows_cached(self, values: np.ndarray) -> np.ndarray:
        """Memoized :meth:`_batch_rows` for repeatedly-swept arrays."""
        key = id(values)
        hit = self._batch_row_cache.get(key)
        if hit is not None:
            ref, rows = hit
            if ref() is values:
                return rows
        rows = self._batch_rows(values)
        # Only non-writeable owning arrays are memoized: immutability
        # makes the cached rows permanently valid, and the weakref
        # pins the identity for as long as the entry can hit.
        if (
            not values.flags.writeable
            and values.base is None
            and len(self._batch_row_cache) < 4096
        ):
            import weakref

            try:
                self._batch_row_cache[key] = (weakref.ref(values), rows)
            except TypeError:  # pragma: no cover - non-weakref array subtype
                pass
        return rows

    # --- per-access operations (parity with the scalar table) ---------------------

    def _feature_sums(self, feature_idx: int, feature_value: int) -> List[int]:
        """Per-action tick sums over one feature's sub-table rows."""
        view = self._views[feature_idx]
        idxs = self._row_indices(feature_value)
        row = view[0, idxs[0]].tolist()
        s0, s1, s2, s3 = row[0], row[1], row[2], row[3]
        for k in range(1, self.num_subtables):
            row = view[k, idxs[k]].tolist()
            s0 += row[0]
            s1 += row[1]
            s2 += row[2]
            s3 += row[3]
        return [s0, s1, s2, s3]

    def feature_q_values(self, feature_idx: int, feature_value: int) -> List[float]:
        q = self._quantum
        return [s * q for s in self._feature_sums(feature_idx, feature_value)]

    def q_values(self, state: Sequence[int]) -> List[float]:
        self.lookups += 1
        best = self._feature_sums(0, state[0])
        for f in range(1, self.num_features):
            other = self._feature_sums(f, state[f])
            for a in range(NUM_ACTIONS):
                if other[a] > best[a]:
                    best[a] = other[a]
        q = self._quantum
        return [s * q for s in best]

    def q(self, state: Sequence[int], action: int) -> float:
        self.lookups += 1
        best = None
        for f in range(self.num_features):
            view = self._views[f]
            idxs = self._row_indices(state[f])
            total = int(view[0, idxs[0], action])
            for k in range(1, self.num_subtables):
                total += int(view[k, idxs[k], action])
            if best is None or total > best:
                best = total
        assert best is not None
        return best * self._quantum

    def best_action(self, state: Sequence[int], legal: Sequence[int]) -> int:
        self.lookups += 1
        best = self._feature_sums(0, state[0])
        for f in range(1, self.num_features):
            other = self._feature_sums(f, state[f])
            for a in range(NUM_ACTIONS):
                if other[a] > best[a]:
                    best[a] = other[a]
        best_action = legal[0]
        best_value = best[best_action]
        for action in legal[1:]:
            v = best[action]
            if v > best_value:
                best_action = action
                best_value = v
        return best_action

    def apply_delta(self, state: Sequence[int], action: int, delta: float) -> None:
        self.updates += 1
        share_ticks = (delta / self.num_subtables) * self._inv_quantum
        lo, hi = self._lo_tick, self._hi_tick
        for f in range(self.num_features):
            view = self._views[f]
            for k, idx in enumerate(self._row_indices(state[f])):
                tick = round(int(view[k, idx, action]) + share_ticks)
                if tick < lo:
                    tick = lo
                elif tick > hi:
                    tick = hi
                view[k, idx, action] = tick

    # --- batch kernels ------------------------------------------------------------

    @staticmethod
    def _as_state_array(states) -> np.ndarray:
        """``(N, num_features)`` uint64 view of a batch of states.

        Accepts an ndarray (used as-is after an exact dtype cast) or
        any sequence of state tuples.  Raises ``OverflowError`` /
        ``TypeError`` / ``ValueError`` for values outside uint64 —
        callers fall back to the per-access path.
        """
        if isinstance(states, np.ndarray):
            return states.astype(_U64, copy=False)
        return np.asarray(states, dtype=_U64)

    def best_actions(self, states, legal: Sequence[int]) -> List[int]:
        """Vectorized arg-max decisions for a whole chunk of states.

        Equivalent to ``[best_action(s, legal) for s in states]`` —
        decisions read the table, never write it, so batching changes
        nothing.  Ties break toward the earliest legal action, exactly
        the scalar preference (``np.argmax`` keeps the first maximum).
        ``states`` may be a sequence of tuples or a ``(N, F)`` array.
        """
        n = len(states)
        if n == 0:
            return []
        try:
            values = self._as_state_array(states)
        except (OverflowError, TypeError, ValueError):
            return [self.best_action(s, legal) for s in states]
        self.lookups += n
        per_action = self._batch_tick_sums(values)
        legal_arr = np.asarray(legal, dtype=np.int64)
        picks = np.argmax(per_action[:, legal_arr], axis=1)
        return legal_arr[picks].tolist()

    def _batch_tick_sums(self, values: np.ndarray) -> np.ndarray:
        """Max-over-features of summed sub-table ticks: ``(N, A)`` ints."""
        rows = self._batch_rows_cached(values)  # (N, F, K)
        if self._dtype is np.int16 and NUM_ACTIONS == 4:
            # Each 4-action int16 row is one aligned 8-byte word, so a
            # whole row gathers as a single int64 and its action lanes
            # reappear via a view — 4x fewer gathered elements.
            packed = self._ticks.view(np.int64)[..., 0]  # (F, K, R)
            flat = packed.reshape(-1)
            words = flat[(self._cell_base + rows).reshape(-1)]
            gathered = words.view(np.int16).reshape(rows.shape + (NUM_ACTIONS,))
        else:
            f_idx = np.arange(self.num_features).reshape(1, -1, 1)
            k_idx = np.arange(self.num_subtables).reshape(1, 1, -1)
            gathered = self._ticks[f_idx, k_idx, rows]  # (N, F, K, A)
        # Unrolled sum over the sub-table axis: a strided widening
        # reduce (`sum(axis=2, dtype=int64)`) is ~10x slower than K-1
        # contiguous adds, and int32 cannot overflow (|tick| < 2^15,
        # K <= 8).
        acc = gathered[:, :, 0].astype(np.int32)
        for k in range(1, self.num_subtables):
            acc += gathered[:, :, k]
        return acc.max(axis=1)

    def apply_deltas(
        self,
        states: Sequence[Sequence[int]],
        actions: Sequence[int],
        deltas: Sequence[float],
    ) -> None:
        """Vectorized ``apply_delta`` over a batch, sequential semantics.

        ``apply_delta`` touches cells independently (each gets ``+
        share``, quantize, clamp), so a batch flattens to (cell, share)
        pairs and correctness only requires that pairs hitting the
        *same* cell apply in record order.  A stable sort by cell id
        numbers each pair with its occurrence index along its cell's
        chain; pass ``o`` then flushes every chain's ``o``-th link in
        one fused gather → rint → clip → scatter (within a pass all
        cells are distinct, and links ``< o`` are already applied).
        The pass count is the deepest cell chain — 1 for collision-free
        batches — so every cell sees the exact ordered chain of
        quantized updates the scalar loop would apply.
        """
        n = len(states)
        if n == 0:
            return
        try:
            values = self._as_state_array(states)
        except (OverflowError, TypeError, ValueError):
            for state, action, delta in zip(states, actions, deltas):
                self.apply_delta(state, action, delta)
            return
        self.updates += n
        fk = self.num_features * self.num_subtables
        rows = self._batch_rows_cached(values)  # (N, F, K)
        action_arr = np.asarray(actions, dtype=np.int64)
        cells = (
            (self._cell_base + rows) * NUM_ACTIONS
            + action_arr[:, None, None]
        ).reshape(n, fk)
        shares = (
            np.asarray(deltas, dtype=np.float64) / self.num_subtables
        ) * self._inv_quantum
        flat = self._ticks.reshape(-1)
        lo, hi = self._lo_tick, self._hi_tick
        dtype = self._dtype
        pair_cells = cells.reshape(-1)
        pair_shares = np.repeat(shares, fk)

        def flush(sel) -> None:
            idx = pair_cells if sel is None else pair_cells[sel]
            sh = pair_shares if sel is None else pair_shares[sel]
            ticks = flat[idx].astype(np.float64)
            ticks += sh
            flat[idx] = np.clip(np.rint(ticks), lo, hi).astype(dtype)

        # Chain positions: stable-sort pairs by cell, so equal-cell
        # runs keep record order; a pair's offset inside its run is its
        # occurrence index along that cell's update chain.  Narrow keys
        # make numpy's radix argsort ~13x faster, and every cell id of
        # a default-geometry table (2*4*512*4 = 16384 cells) fits int16.
        if flat.size <= 0x7FFF:
            order = np.argsort(pair_cells.astype(np.int16), kind="stable")
        else:
            order = np.argsort(pair_cells, kind="stable")
        sorted_cells = pair_cells[order]
        m = sorted_cells.size
        starts = np.empty(m, dtype=bool)
        starts[0] = True
        np.not_equal(sorted_cells[1:], sorted_cells[:-1], out=starts[1:])
        start_pos = np.flatnonzero(starts)
        run_len = np.diff(start_pos, append=m)
        max_occ = int(run_len.max()) - 1
        if max_occ == 0:  # no cell repeats: one fused flush
            flush(None)
            return
        for o in range(max_occ + 1):
            # The o-th link of every chain at least o+1 long.
            flush(order[start_pos[run_len > o] + o])

    # --- persistence --------------------------------------------------------------

    def state_dict(self) -> dict:
        """Scalar-compatible snapshot (same version-1 float format).

        Tick→float conversion is exact (power-of-two quantum), so a
        snapshot taken here loads into the scalar table — and back —
        with bit-identical Q-values.
        """
        values = self._ticks.astype(np.float64) * self._quantum
        return {
            "version": 1,
            "num_features": self.num_features,
            "num_subtables": self.num_subtables,
            "rows": self.rows,
            "num_actions": NUM_ACTIONS,
            "tables": values.tolist(),
            "lookups": self.lookups,
            "updates": self.updates,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a scalar- or numpy-produced :meth:`state_dict`.

        Beyond the scalar table's geometry checks, values must sit on
        the fixed-point grid within the clamp range — anything the repo
        produces does (updates quantize, federation merges snap), and
        rejecting off-grid floats keeps the backends interchangeable
        instead of silently diverging.
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
        shape = (self.num_features, self.num_subtables, self.rows, NUM_ACTIONS)
        try:
            values = np.asarray(state["tables"], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"malformed QTable state: {exc}") from exc
        if values.shape != shape:
            raise ValueError(
                f"QTable geometry mismatch on load: tables shape "
                f"{values.shape} != {shape}"
            )
        ticks = np.rint(values * self._inv_quantum)
        if not np.array_equal(ticks * self._quantum, values):
            raise ValueError(
                "QTable state holds values off the fixed-point grid; "
                "the numpy backend stores exact ticks (quantum "
                f"{self._quantum})"
            )
        if ticks.size and (ticks.min() < self._lo_tick or ticks.max() > self._hi_tick):
            raise ValueError("QTable state exceeds the fixed-point clamp range")
        self._ticks = ticks.astype(self._dtype)
        self._views = [self._ticks[f] for f in range(self.num_features)]
        self.lookups = int(state.get("lookups", 0))
        self.updates = int(state.get("updates", 0))

    # --- introspection ------------------------------------------------------------

    def storage_bits(self) -> int:
        return (
            self.num_features
            * self.num_subtables
            * self.rows
            * NUM_ACTIONS
            * self.config.q_value_bits
        )

    def health_stats(self) -> dict:
        ticks = self._ticks
        total = int(ticks.size)
        touched = int((ticks != self._init_tick).sum())
        saturated = int(
            ((ticks <= self._lo_tick) | (ticks >= self._hi_tick)).sum()
        )
        return {
            "q_entries": total,
            "q_coverage": touched / total if total else 0.0,
            "q_saturation": saturated / total if total else 0.0,
            "lookups": self.lookups,
            "updates": self.updates,
        }

    def snapshot_stats(self) -> dict:
        # The scalar table's streaming float sum is exact (every
        # partial sum is an on-grid multiple far below 2^53), so
        # summing ticks as integers reproduces its mean bit-for-bit.
        ticks = self._ticks
        count = int(ticks.size)
        total = float(int(ticks.sum(dtype=np.int64))) * self._quantum
        return {
            "lookups": self.lookups,
            "updates": self.updates,
            "q_min": int(ticks.min()) * self._quantum,
            "q_max": int(ticks.max()) * self._quantum,
            "q_mean": total / count,
        }
