"""A small LRU cache model: the SCU's Set Metadata Buffer (SMB).

The SCU caches set metadata (representation, size, address) in a 32 KB
scratchpad (paper Sections 3 and 8.4).  A hit costs a couple of cycles;
a miss is one additional memory access to the in-memory SM structure.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class LruCache:
    """Fixed-capacity LRU set of keys with hit/miss accounting."""

    def __init__(self, capacity: int):
        self.capacity = max(0, int(capacity))
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.stats = CacheStats()

    def access(self, key: int) -> bool:
        """Touch ``key``; returns True on hit, False on miss (and inserts)."""
        if self.capacity == 0:
            self.stats.misses += 1
            return False
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._entries[key] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    def access_many(self, keys) -> list[bool]:
        """Touch ``keys`` in order; returns one hit flag per access.

        Exactly equivalent to calling :meth:`access` on each key in
        turn (same LRU order, evictions and hit/miss counters), in one
        call: an instruction burst's metadata lookups replay as one
        tight loop."""
        stats = self.stats
        if self.capacity == 0:
            stats.misses += len(keys)
            return [False] * len(keys)
        entries = self._entries
        capacity = self.capacity
        move = entries.move_to_end
        evict = entries.popitem
        hits: list[bool] = []
        flag = hits.append
        for key in keys:
            if key in entries:
                move(key)
                flag(True)
            else:
                entries[key] = None
                if len(entries) > capacity:
                    evict(last=False)
                flag(False)
        n_hits = hits.count(True)
        stats.hits += n_hits
        stats.misses += len(hits) - n_hits
        return hits

    def access_freeing(self, keys, frees) -> list[bool]:
        """Touch ``keys`` in order, invalidating each key whose
        ``frees`` flag is set right after its access; returns one hit
        flag per access.

        Exactly equivalent to :meth:`access` on each key in turn, with
        :meth:`invalidate` after the flagged ones (a DELETE's metadata
        lookup, then its invalidation), in one call."""
        stats = self.stats
        if self.capacity == 0:
            stats.misses += len(keys)
            return [False] * len(keys)
        entries = self._entries
        capacity = self.capacity
        move = entries.move_to_end
        evict = entries.popitem
        hits: list[bool] = []
        flag = hits.append
        for key, free in zip(keys, frees):
            if key in entries:
                move(key)
                flag(True)
            else:
                entries[key] = None
                if len(entries) > capacity:
                    evict(last=False)
                flag(False)
            if free:
                del entries[key]
        n_hits = hits.count(True)
        stats.hits += n_hits
        stats.misses += len(hits) - n_hits
        return hits

    def invalidate(self, key: int) -> None:
        self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)
