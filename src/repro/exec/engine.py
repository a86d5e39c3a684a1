"""The deterministic execution engine: policy, pool, and the cache.

:class:`ExecutionPolicy` is the user-facing knob (``--workers N``,
``--no-cache``); :class:`ExecutionEngine` turns it into concrete
resources for one run — one worker pool for the enrichment precompute
and an :class:`~repro.exec.cache.EnrichmentCache` for memoisation — and
owns their lifecycle (the engine is a context manager; the pool it
built is shut down on exit). The worker count alone picks the pool:
one worker runs serially, more than one runs a process pool.

The equivalence argument, stated once
=====================================

The headline guarantee is that for any seed, fault plan, and worker
count, the :class:`~repro.core.pipeline.PipelineRun` is byte-identical
to the sequential uncached run. The engine earns that by splitting work
into two phases with very different rules:

* **The parallel phase is pure.** Enrichment precompute shards
  per-unique-subject and calls only the *uncharged, unfaulted* compute
  paths of the deterministic simulators — no meter, no clock, no fault
  proxy, no retries — so any worker schedule produces identical values.
  The parent ships only the subjects the cache does not already hold,
  then stores the results in canonical subject order, so the cache's
  counters follow the serial fill exactly.
* **Effectful phases are serial.** Collection (five forums, in order),
  curation, and everything that charges a meter, consults a fault rule,
  advances the clock, retries, or trips a breaker runs in the parent in
  exactly the order the sequential pipeline uses. A cached value changes
  *what is computed* inside a service call, never whether the call
  happens, so call indices, meter charges, backoff, and gap timestamps
  are untouched.

The same phase split is what makes checkpoint/resume exact
(:mod:`repro.checkpoint`): the parallel phase is pure, so a resumed
run simply re-executes it (the precompute refills an identical cache
from the restored dataset), while the serial effects replay is the only
place state mutates between barriers — which is why journaling one
record per guarded lookup, with a changed-state delta, reconstructs a
crashed run bit-for-bit under any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError
from .cache import EnrichmentCache
from .pool import POOL_KINDS, WorkerPool, make_pool


@dataclass(frozen=True)
class ExecutionPolicy:
    """How one pipeline run schedules and memoises its work.

    The default — one worker, cache on — is safe everywhere: the cache
    only deduplicates pure compute, so enabling it never changes a run's
    outputs (that is the engine's proven guarantee, not an aspiration).
    """

    #: Maximum concurrent tasks per parallel phase; 1 means fully serial.
    workers: int = 1
    #: Memoise per-(service, subject) enrichment lookups.
    cache: bool = True
    #: Optional cache bound (oldest-first eviction); None = unbounded.
    cache_max_entries: Optional[int] = None
    #: Which pool backs the precompute. None (the default) derives it
    #: from ``workers``: ``serial`` for one worker, ``process`` above.
    #: ``serial`` may still be forced explicitly for any worker count.
    pool: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.pool is None:
            object.__setattr__(
                self, "pool", "serial" if self.workers == 1 else "process")
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ConfigurationError(
                f"cache_max_entries must be >= 1 or None, "
                f"got {self.cache_max_entries}"
            )
        if self.pool not in POOL_KINDS:
            raise ConfigurationError(
                f"pool must be one of {POOL_KINDS}, got {self.pool!r}"
            )

    def describe(self) -> str:
        """One-line summary for logs, manifests, and `repro resume`."""
        cache = "on" if self.cache else "off"
        if self.cache and self.cache_max_entries is not None:
            cache = f"on(max={self.cache_max_entries})"
        return f"workers={self.workers} cache={cache} pool={self.pool}"


#: The reference semantics every other policy must be equivalent to.
SEQUENTIAL = ExecutionPolicy(workers=1, cache=False)


class ExecutionEngine:
    """Builds and owns the enrichment pool + cache for one run."""

    def __init__(self, policy: Optional[ExecutionPolicy] = None):
        self.policy = policy or ExecutionPolicy()
        self._pool: Optional[WorkerPool] = None
        #: Task accounting of pools already closed — :meth:`stats` keeps
        #: reporting them after the engine context exits.
        self._retired_stats: List[Dict[str, Any]] = []

    # -- resources ------------------------------------------------------------

    def build_cache(self) -> Optional[EnrichmentCache]:
        """A fresh cache per run, or None when the policy disables it."""
        if not self.policy.cache:
            return None
        return EnrichmentCache(max_entries=self.policy.cache_max_entries)

    def enrichment_pool(self) -> WorkerPool:
        """The pool for the per-unique-subject precompute shards.

        Built on first use and shared by every later caller until
        :meth:`close` — a stream's epochs and a service's batches reuse
        one set of worker processes instead of leaking one per call.
        """
        if self._pool is None:
            self._pool = make_pool(self.policy.workers, self.policy.pool)
            self._pool.label = "enrichment"
        return self._pool

    # -- observability --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Per-pool task/busy accounting (live and retired pools)."""
        pools = self._retired_stats + ([self._pool.stats()]
                                       if self._pool is not None else [])
        return {
            "policy": self.policy.describe(),
            "pools": pools,
            "tasks": sum(int(p["tasks"]) for p in pools),
            "busy_seconds": sum(float(p["busy_seconds"]) for p in pools),
        }

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._retired_stats.append(self._pool.stats())
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecutionEngine(workers={self.policy.workers}, "
                f"cache={self.policy.cache})")


__all__ = ["ExecutionPolicy", "ExecutionEngine", "SEQUENTIAL"]
