"""Resilience primitives for calls to flaky external services.

The package is the engineered counterpart to the luck the paper's
pipeline needed (§3.1: the Twitter academic API shutdown, Smishing.eu
ceasing operations, hard API quotas). It splits into two layers:

* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (capped
  exponential backoff with deterministic jitter on simulated time) and
  :func:`call_with_policy`, the loop that applies a policy to any call.
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`, a
  per-service closed/open/half-open state machine cooling down on the
  simulated clock.

Everything is deterministic: same seed, same fault plan, same schedule.
"""

from .breaker import (
    BreakerObserver,
    BreakerState,
    CircuitBreaker,
    breaker_provider,
)
from .retry import RetryPolicy, RetryObserver, breaker_counts, call_with_policy

__all__ = [
    "BreakerObserver",
    "BreakerState",
    "CircuitBreaker",
    "RetryPolicy",
    "RetryObserver",
    "breaker_counts",
    "breaker_provider",
    "call_with_policy",
]
