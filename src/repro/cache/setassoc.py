"""Exact set-associative, inclusive, CAT-partitionable cache model.

This is the high-fidelity LLC model: every access walks a real tag array
with per-set replacement state, and fills are constrained to the accessing
class-of-service's way mask exactly as Intel CAT constrains them.  It is
used for the conflict-miss studies (paper Figs. 2-3), for validating the
fast analytical model, and inside the full hierarchy when exactness matters
more than speed.

CAT semantics reproduced here (per Intel SDM / the CAT HPCA'16 paper):

* A way mask restricts *allocation* (fills), not *lookup*: a core may hit on
  a line in any way, including ways outside its mask.
* Victims are chosen only among the masked ways, so a workload can never
  evict lines from ways it does not own.
* Masks may overlap between classes (dCat chooses not to overlap them, but
  the hardware allows it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.mem.address import CacheGeometry
from repro.cache.replacement import ReplacementPolicy, make_policy

__all__ = ["AccessResult", "CacheStats", "SetAssociativeCache"]


@dataclass
class AccessResult:
    """Outcome of a single cache access."""

    hit: bool
    set_index: int
    way: int
    evicted_line: Optional[int] = None  # physical line id dropped, if any


@dataclass
class CacheStats:
    """Cumulative hit/miss counters, optionally tracked per COS."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    per_cos_hits: Dict[int, int] = field(default_factory=dict)
    per_cos_misses: Dict[int, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def record(self, cos: int, hit: bool) -> None:
        if hit:
            self.hits += 1
            self.per_cos_hits[cos] = self.per_cos_hits.get(cos, 0) + 1
        else:
            self.misses += 1
            self.per_cos_misses[cos] = self.per_cos_misses.get(cos, 0) + 1

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.per_cos_hits.clear()
        self.per_cos_misses.clear()


class SetAssociativeCache:
    """Tag-array cache with way-mask-constrained fills.

    Args:
        geometry: Cache geometry (sets, ways, line size).
        policy: Replacement policy name (``lru``, ``plru``, ``random``) or a
            prebuilt :class:`ReplacementPolicy`.
        eviction_callback: Invoked with the physical line id of every line
            dropped from the cache — the hierarchy uses this for inclusive
            back-invalidation of inner caches.
    """

    INVALID_TAG = -1

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str | ReplacementPolicy = "lru",
        eviction_callback: Optional[Callable[[int], None]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.geometry = geometry
        nsets, nways = geometry.num_sets, geometry.num_ways
        self._tags = np.full((nsets, nways), self.INVALID_TAG, dtype=np.int64)
        self._owner_cos = np.full((nsets, nways), -1, dtype=np.int16)
        if isinstance(policy, ReplacementPolicy):
            self._policy = policy
        else:
            self._policy = make_policy(policy, nsets, nways, rng=rng)
        self.stats = CacheStats()
        self._eviction_callback = eviction_callback
        self._full_mask = (1 << nways) - 1
        self._allowed_cache: Dict[int, tuple] = {}

    # -- mask helpers ---------------------------------------------------------

    def validate_mask(self, mask: int) -> int:
        """Clamp-and-check an allocation mask; returns it unchanged if valid."""
        if mask <= 0 or mask > self._full_mask:
            raise ValueError(
                f"way mask {mask:#x} out of range for {self.geometry.num_ways} ways"
            )
        return mask

    @property
    def full_mask(self) -> int:
        """Mask enabling every way."""
        return self._full_mask

    # -- core access path ------------------------------------------------------

    def lookup(self, paddr: int) -> Optional[int]:
        """Return the way holding ``paddr``'s line, or None (no side effects)."""
        geo = self.geometry
        set_index = geo.set_index(paddr)
        tag = geo.tag(paddr)
        ways = np.nonzero(self._tags[set_index] == tag)[0]
        return int(ways[0]) if ways.size else None

    def access(self, paddr: int, mask: Optional[int] = None, cos: int = 0) -> AccessResult:
        """Perform one access (lookup + fill on miss) under a way mask.

        Args:
            paddr: Physical byte address.
            mask: Allocation mask for fills; defaults to all ways (no CAT).
            cos: Class-of-service id, used only for accounting.
        """
        geo = self.geometry
        fill_mask = self._full_mask if mask is None else self.validate_mask(mask)
        set_index = geo.set_index(paddr)
        tag = geo.tag(paddr)
        row = self._tags[set_index]

        hit_ways = np.nonzero(row == tag)[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self._policy.touch(set_index, way)
            self.stats.record(cos, hit=True)
            return AccessResult(hit=True, set_index=set_index, way=way)

        # Miss: fill into an invalid allowed way if one exists, else evict.
        evicted_line: Optional[int] = None
        invalid_allowed = [
            w
            for w in range(geo.num_ways)
            if (fill_mask >> w) & 1 and row[w] == self.INVALID_TAG
        ]
        if invalid_allowed:
            way = invalid_allowed[0]
        else:
            way = self._policy.victim(set_index, fill_mask)
            old_tag = int(row[way])
            if old_tag != self.INVALID_TAG:
                evicted_line = geo.line_id_of(set_index, old_tag)
                self.stats.evictions += 1
                if self._eviction_callback is not None:
                    self._eviction_callback(evicted_line)
        row[way] = tag
        self._owner_cos[set_index, way] = cos
        self._policy.touch(set_index, way)
        self.stats.record(cos, hit=False)
        return AccessResult(
            hit=False, set_index=set_index, way=way, evicted_line=evicted_line
        )

    def access_many(
        self, paddrs: np.ndarray, mask: Optional[int] = None, cos: int = 0
    ) -> int:
        """Run a batch of accesses; returns the number of hits.

        This is the hot path for the exact-model experiments.  The batch is
        decomposed once (vectorized set/tag extraction plus one gather of all
        touched tag rows), accesses whose sets see no conflicting activity are
        resolved entirely in numpy, and only the sets with at least one miss
        fall back to a sequential per-set loop over Python-native row state.
        The result is bit-exact against the :meth:`access_many_ref` scalar
        reference for every policy: same hits, evictions, per-COS stats,
        occupancy and replacement state.

        Eviction callbacks fire *after* the whole batch's state is applied,
        in access order (the scalar path fires them mid-access); callbacks
        must not mutate this cache, which the hierarchy's back-invalidation
        — the only in-tree callback — never does.
        """
        hits, _ = self._access_batch(paddrs, mask, cos, want_flags=False)
        return hits

    def access_many_flags(
        self, paddrs: np.ndarray, mask: Optional[int] = None, cos: int = 0
    ) -> np.ndarray:
        """Like :meth:`access_many` but returns the per-access hit flags.

        The hierarchy's batch path uses the flags to route each level's
        misses into the next level.
        """
        _, flags = self._access_batch(paddrs, mask, cos, want_flags=True)
        return flags

    def access_many_ref(
        self, paddrs: np.ndarray, mask: Optional[int] = None, cos: int = 0
    ) -> int:
        """Scalar reference for :meth:`access_many` (one :meth:`access` per
        address); the equivalence oracle for the batch pipeline and the
        baseline leg of the ``setassoc_access_scalar`` benchmark."""
        hits = 0
        for paddr in paddrs:
            if self.access(int(paddr), mask=mask, cos=cos).hit:
                hits += 1
        return hits

    def _allowed_ways(self, fill_mask: int) -> tuple:
        """The mask's way indices, ascending (memoized per mask)."""
        ways = self._allowed_cache.get(fill_mask)
        if ways is None:
            ways = tuple(
                w for w in range(self.geometry.num_ways) if (fill_mask >> w) & 1
            )
            self._allowed_cache[fill_mask] = ways
        return ways

    def _access_batch(
        self, paddrs: np.ndarray, mask: Optional[int], cos: int, want_flags: bool
    ):
        fill_mask = self._full_mask if mask is None else self.validate_mask(mask)
        paddrs = np.asarray(paddrs)
        n = int(paddrs.size)
        if n == 0:
            return 0, np.zeros(0, dtype=bool)
        geo = self.geometry
        num_sets = geo.num_sets
        invalid = self.INVALID_TAG
        tag_array = self._tags
        policy = self._policy

        # Decompose the whole batch once, then detect hits against a snapshot
        # of every touched row.  A snapshot verdict is exact for any set whose
        # batch slice is hit-only (its row never changes mid-batch); sets with
        # at least one snapshot miss replay sequentially below.
        sets_arr = geo.set_indices(paddrs)
        tags_arr = geo.tags(paddrs)
        eq = tag_array[sets_arr] == tags_arr[:, None]
        snap_hit = eq.any(axis=1)
        snap_way = eq.argmax(axis=1)  # first matching way, as in the scalar path

        if policy.supports_bulk_touch:
            if snap_hit.all():
                slow_idx = None  # pure-touch batch, no per-set state needed
            else:
                miss_table = np.zeros(num_sets, dtype=bool)
                miss_table[sets_arr[~snap_hit]] = True
                slow_mask = miss_table[sets_arr]
                slow_idx = np.flatnonzero(slow_mask)
        else:
            # Policies without deferrable touches (PLRU's aging) replay every
            # access so their state stays bit-exact.
            slow_mask = np.ones(n, dtype=bool)
            slow_idx = np.arange(n)

        flags = snap_hit if want_flags else None
        hits = 0
        evictions: list = []  # line ids, in access order (callback only)
        stats_evictions = 0
        fill_sets: list = []
        fill_ways: list = []
        policy.batch_begin(n)
        if slow_idx is None:
            hits = n
            policy.touch_many_at(sets_arr, snap_way, np.arange(n))
        else:
            if int(slow_idx.size) < n:
                clean_mask = ~slow_mask
                hits += int(np.count_nonzero(clean_mask))
                policy.touch_many_at(
                    sets_arr[clean_mask],
                    snap_way[clean_mask],
                    np.flatnonzero(clean_mask),
                )
            if want_flags:
                flags = snap_hit.copy()  # slow verdicts overwritten below
            allowed = self._allowed_ways(fill_mask)
            evict_append = evictions.append
            fills_append = fill_sets.append
            fillw_append = fill_ways.append
            if policy.stamp_run_state:
                # Inlined fast path for stamp-list run state (LRU).  Two
                # facts make it exact.  First, the stamp of access ``i`` is
                # always ``base + i + 1`` (one touch per access, hit or
                # miss), so cross-set ordering is irrelevant and the slow
                # accesses can be regrouped by set; eviction order is
                # restored afterwards from (position, line) pairs when a
                # callback needs it.  Second, within one set the LRU order
                # of the allowed ways is their last-touch order, so an
                # insertion-ordered dict — seeded ascending by batch-start
                # stamp (stable sort: stamp ties break toward the lower
                # way, as argmin does) and rotated to the back on every
                # touch of an allowed way — yields each victim as its first
                # key with no scanning.
                base1 = policy.run_stamp_base + 1
                allowed_set = frozenset(allowed)
                has_cb = self._eviction_callback is not None
                evict_count = 0
                grouped = slow_idx[np.argsort(sets_arr[slow_idx], kind="stable")]
                g_pos = grouped.tolist()
                g_sets = sets_arr[grouped].tolist()
                g_tags = tags_arr[grouped].tolist()
                ev_pairs: list = []
                ev_append = ev_pairs.append
                run_begin = policy.run_begin
                run_end = policy.run_end
                nslow = len(g_pos)
                lo = 0
                while lo < nslow:
                    s = g_sets[lo]
                    hi = lo + 1
                    while hi < nslow and g_sets[hi] == s:
                        hi += 1
                    row = tag_array[s].tolist()
                    way_of = {}
                    for w in range(len(row) - 1, -1, -1):
                        rt = row[w]
                        if rt != invalid:
                            way_of[rt] = w
                    way_get = way_of.get
                    free = [w for w in allowed if row[w] == invalid]
                    nfree = len(free)
                    pos = 0
                    ctx = run_begin(s)
                    rec = dict.fromkeys(sorted(allowed, key=ctx.__getitem__))
                    rec_pop = rec.pop
                    for i, t in zip(g_pos[lo:hi], g_tags[lo:hi]):
                        w = way_get(t)
                        if w is not None:
                            ctx[w] = base1 + i
                            if w in allowed_set:
                                rec_pop(w, None)
                                rec[w] = None
                            hits += 1
                            if want_flags:
                                flags[i] = True
                            continue
                        if want_flags:
                            flags[i] = False
                        if pos < nfree:
                            w = free[pos]
                            pos += 1
                            rec_pop(w, None)
                        else:
                            w = next(iter(rec))
                            del rec[w]
                            old = row[w]
                            # No free allowed way remains: the victim held
                            # a line.
                            evict_count += 1
                            if has_cb:
                                ev_append((i, old * num_sets + s))
                            del way_of[old]
                        row[w] = t
                        way_of[t] = w
                        ctx[w] = base1 + i
                        rec[w] = None
                        fills_append(s)
                        fillw_append(w)
                    # Every miss set takes at least one fill (the first
                    # occurrence of a snapshot-missing tag cannot hit), so
                    # the row is always dirty here.
                    tag_array[s] = row
                    run_end(s, ctx)
                    lo = hi
                if ev_pairs:
                    ev_pairs.sort()
                    evictions = [line for _, line in ev_pairs]
                else:
                    evictions = []
                stats_evictions = evict_count
            else:
                run_touch = policy.run_touch
                run_victim = policy.run_victim
                states: Dict[int, list] = {}
                states_get = states.get
                # Per-set state: [row, tag->way, free allowed ways, next
                # free, policy run ctx, row dirty].
                for i, s, t in zip(
                    slow_idx.tolist(),
                    sets_arr[slow_idx].tolist(),
                    tags_arr[slow_idx].tolist(),
                ):
                    st = states_get(s)
                    if st is None:
                        row = tag_array[s].tolist()
                        way_of = {}
                        for w in range(len(row) - 1, -1, -1):
                            rt = row[w]
                            if rt != invalid:
                                way_of[rt] = w
                        free = [w for w in allowed if row[w] == invalid]
                        st = [row, way_of, free, 0, policy.run_begin(s), False]
                        states[s] = st
                    way_of = st[1]
                    w = way_of.get(t)
                    if w is not None:
                        run_touch(st[4], w, i)
                        hits += 1
                        if want_flags:
                            flags[i] = True
                        continue
                    if want_flags:
                        flags[i] = False
                    row = st[0]
                    pos = st[3]
                    free = st[2]
                    if pos < len(free):
                        w = free[pos]
                        st[3] = pos + 1
                    else:
                        w = run_victim(st[4], allowed, fill_mask)
                        old = row[w]
                        # No free allowed way remains, so the victim held a
                        # line.
                        evict_append(old * num_sets + s)
                        del way_of[old]
                    row[w] = t
                    way_of[t] = w
                    st[5] = True
                    fills_append(s)
                    fillw_append(w)
                    run_touch(st[4], w, i)
                for s, st in states.items():
                    if st[5]:
                        tag_array[s] = st[0]
                    policy.run_end(s, st[4])
                stats_evictions = len(evictions)
        policy.batch_end(n)

        if fill_sets:
            self._owner_cos[fill_sets, fill_ways] = cos
        stats = self.stats
        misses = n - hits
        stats.hits += hits
        stats.misses += misses
        if hits:
            stats.per_cos_hits[cos] = stats.per_cos_hits.get(cos, 0) + hits
        if misses:
            stats.per_cos_misses[cos] = stats.per_cos_misses.get(cos, 0) + misses
        if stats_evictions:
            stats.evictions += stats_evictions
            callback = self._eviction_callback
            if callback is not None:
                for line_id in evictions:
                    callback(line_id)
        return hits, flags

    # -- maintenance ----------------------------------------------------------

    def flush_ways(self, mask: int) -> int:
        """Invalidate every line in the masked ways; returns lines dropped.

        Models the paper's user-level "cache-way flush" helper used after an
        allocation change (Intel has no per-way flush instruction).  Every
        dropped line is also reported to the replacement policy's
        ``invalidate`` hook so a flushed-then-refilled set evicts in true
        recency order instead of trusting stale stamps/ages.
        """
        self.validate_mask(mask)
        dropped = 0
        geo = self.geometry
        for way in range(geo.num_ways):
            if not (mask >> way) & 1:
                continue
            col = self._tags[:, way]
            valid = np.nonzero(col != self.INVALID_TAG)[0]
            for s in valid.tolist():
                self._policy.invalidate(s, way)
                if self._eviction_callback is not None:
                    self._eviction_callback(geo.line_id_of(s, int(col[s])))
            dropped += int(valid.size)
            col.fill(self.INVALID_TAG)
            self._owner_cos[:, way].fill(-1)
        return dropped

    def invalidate_line(self, paddr: int) -> bool:
        """Silently drop the line holding ``paddr``; True if it was resident.

        This is the inclusive back-invalidation primitive: no eviction
        callback fires and no stats move, but the owner tracking and the
        replacement policy's recency state are both cleared so the inner
        cache does not later evict in stale order.
        """
        geo = self.geometry
        set_index = geo.set_index(paddr)
        ways = np.nonzero(self._tags[set_index] == geo.tag(paddr))[0]
        if not ways.size:
            return False
        way = int(ways[0])
        self._tags[set_index, way] = self.INVALID_TAG
        self._owner_cos[set_index, way] = -1
        self._policy.invalidate(set_index, way)
        return True

    def occupancy_by_cos(self) -> Dict[int, int]:
        """Lines currently resident, keyed by the COS that filled them.

        This is the same signal Intel CMT (Cache Monitoring Technology)
        reports as LLC occupancy.
        """
        valid = self._tags != self.INVALID_TAG
        out: Dict[int, int] = {}
        cos_values, counts = np.unique(self._owner_cos[valid], return_counts=True)
        for cos, count in zip(cos_values, counts):
            out[int(cos)] = int(count)
        return out

    def contains_line(self, line_id: int) -> bool:
        """True if the physical line id is resident (for inclusivity checks)."""
        geo = self.geometry
        set_index = line_id % geo.num_sets
        tag = line_id // geo.num_sets
        return bool(np.any(self._tags[set_index] == tag))
