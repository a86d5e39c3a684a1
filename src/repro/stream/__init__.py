"""Continuous incremental ingestion (``repro watch`` / ``repro ingest``).

The batch pipeline answers "what did the full collection window hold?";
this package answers it *incrementally*: a :class:`StreamSession` pages
the same simulated forums epoch by epoch, deduplicates across epochs
with per-forum watermarks and a durable content-hash ledger, enriches
only each epoch's delta, and merges everything into a growing
:class:`StreamState` whose final contents are provably equivalent to a
single full-window batch run (``tests/test_stream_equivalence.py``) at
a fraction of the charged service calls.
"""

from .epochs import (
    EpochScheduler,
    EpochWindow,
    clamp_windows,
    global_window,
    plan_epochs,
)
from .ledger import DedupDivision, DedupLedger, content_hash
from .runner import StreamSession
from .state import EpochStats, StreamState
from .watermarks import ForumCursor, WatermarkStore

__all__ = [
    "DedupDivision",
    "DedupLedger",
    "EpochScheduler",
    "EpochStats",
    "EpochWindow",
    "ForumCursor",
    "StreamSession",
    "StreamState",
    "WatermarkStore",
    "clamp_windows",
    "content_hash",
    "global_window",
    "plan_epochs",
]
