"""Cross-request caching of verdict-relevant probe state.

The monitor probes the same cloud state on every monitored request, yet
it also *forwards every mutation*: it knows exactly which roots a
POST/PUT/DELETE dirties.  Between mutations the probed bindings cannot
have changed (the monitor is the only write path in the deployment), so
pre-phase probes for untouched roots can be served from a cache instead
of re-issuing their GETs -- that is the "stop re-probing state that
rarely changes" half of the optimization story, complementing the static
probe planning of :mod:`repro.core.planning`.

Design points, in decreasing order of how much they matter:

* **Keys carry the requesting token.**  Probes run with the requesting
  user's own token (exactly what the paper's wrapper does), so a binding
  is an *authorization-scoped* observation: what alice may see is not
  what bob may see.  Serving alice's cached ``project`` to bob would
  change verdicts -- entries are namespaced ``(root, resource id,
  token)`` and never cross tokens.
* **Explicit invalidation.**  The monitor calls
  :meth:`ProbeCache.invalidate` with the dirty roots right after
  forwarding a mutation; invalidation crosses *all* tokens and resource
  ids for those roots, because a mutation by one user changes what every
  user observes.
* **Copy-on-store and copy-on-read.**  Bindings are mutable dicts/lists
  that reach OCL evaluation and callers beyond our control; like the
  identity cache, a shared structure would let one request's mutation
  poison every later hit.
* **Failures are never cached.**  A ``ProbeFailure`` (transport gave up)
  is not an observation of cloud state; only successful bindings enter
  the cache.

Instances are **not** shared across monitors: every monitor built with
``MonitorOptions(probe_cache=True)`` (``monitor.probe_cache: true`` in a
config) builds its own, so each :class:`~repro.core.fleet.MonitorFleet`
shard has a private cache and shard isolation stays intact.  The owning
monitor reports the ``monitor_probe_cache_{hits,misses,invalidations}_total``
metric family from the counters this class maintains.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Dict, Iterable, Optional, Tuple

#: A cache key: (root, resource id or None, requesting token).
CacheKey = Tuple[str, Optional[str], str]


class ProbeCache:
    """Cross-request cache of probed OCL root bindings.

    Thread-safe: one lock guards the entry map and the counters, so a
    fleet shard driven from many threads (probe fan-out) sees consistent
    state.  The cache is unbounded by design -- the key space is (roots x
    active tokens x monitored items), which the deployment bounds far
    below any practical memory concern.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[CacheKey, Any] = {}
        #: Lifetime counters, mirrored into the metric family by the
        #: owning provider/monitor.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, root: str, resource_id: Optional[str],
            token: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for one probe lookup; the value is a copy."""
        key = (root, resource_id, token)
        with self._lock:
            if key in self._entries:
                self.hits += 1
                return True, copy.deepcopy(self._entries[key])
            self.misses += 1
            return False, None

    def put(self, root: str, resource_id: Optional[str], token: str,
            value: Any) -> None:
        """Store one successfully probed binding (copied on store)."""
        key = (root, resource_id, token)
        with self._lock:
            self._entries[key] = copy.deepcopy(value)

    def invalidate(self, roots: Iterable[str]) -> int:
        """Drop every entry for *roots*, across all tokens and ids.

        Returns the number of entries evicted (the unit the
        ``monitor_probe_cache_invalidations_total`` counter ticks in).
        """
        dirty = frozenset(roots)
        with self._lock:
            stale = [key for key in self._entries if key[0] in dirty]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop everything (e.g. after out-of-band cloud changes)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.invalidations += count
            return count

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus the current entry count."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"<ProbeCache entries={stats['entries']} "
                f"hits={stats['hits']} misses={stats['misses']}>")
