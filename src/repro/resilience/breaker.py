"""Per-service circuit breakers on simulated time.

A :class:`CircuitBreaker` protects callers from hammering a service that
is clearly down: after ``failure_threshold`` consecutive infrastructure
failures it *opens* and rejects calls instantly (no request charged, no
backoff burned) until ``cooldown`` simulated seconds have passed. The
first call after the cool-down *half-opens* the breaker as a probe — one
success closes it again, one failure re-opens it for another cool-down.

State transitions are observable two ways: an optional ``observer``
callback ``(service, event, value)`` (mirroring the meter observer shape
so :class:`~repro.obs.Telemetry` can count them) and :meth:`snapshot`
for end-of-run reporting.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Optional


class BreakerState(str, enum.Enum):
    """The classic three circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Observer signature: ``(service, event, value)`` where event is one of
#: ``open`` / ``half_open`` / ``close`` / ``fast_fail``.
BreakerObserver = Callable[[str, str, float], None]


class CircuitBreaker:
    """Consecutive-failure breaker cooling down on the simulated clock."""

    def __init__(
        self,
        service: str,
        clock,
        *,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        observer: Optional[BreakerObserver] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown < 0:
            raise ValueError("cooldown cannot be negative")
        self.service = service
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.observer = observer
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._opens = 0
        self._fast_fails = 0
        self._half_open_probes = 0
        self._half_open_successes = 0

    # -- introspection --------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        return self._state

    @property
    def opens(self) -> int:
        """How many times the breaker has tripped open."""
        return self._opens

    @property
    def fast_fails(self) -> int:
        """Calls rejected without reaching the service."""
        return self._fast_fails

    @property
    def half_open_probes(self) -> int:
        """Probe calls allowed through a half-open breaker."""
        return self._half_open_probes

    @property
    def half_open_successes(self) -> int:
        """Probes that succeeded and closed the breaker."""
        return self._half_open_successes

    @property
    def retry_at(self) -> float:
        """Simulated time at which an open breaker will half-open."""
        if self._opened_at is None:
            return self.clock.now
        return self._opened_at + self.cooldown

    def snapshot(self) -> Dict[str, Any]:
        return {
            "state": self._state.value,
            "opens": self._opens,
            "fast_fails": self._fast_fails,
            "consecutive_failures": self._consecutive_failures,
            "opened_at": self._opened_at,
            "half_open_probes": self._half_open_probes,
            "half_open_successes": self._half_open_successes,
        }

    def state_dict(self) -> Dict[str, Any]:
        """Complete internal state for the run journal."""
        return {
            "state": self._state.value,
            "consecutive_failures": self._consecutive_failures,
            "opened_at": self._opened_at,
            "opens": self._opens,
            "fast_fails": self._fast_fails,
            "half_open_probes": self._half_open_probes,
            "half_open_successes": self._half_open_successes,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore journaled state without emitting observer events (the
        transitions were already counted in the crashed run)."""
        self._state = BreakerState(state["state"])
        self._consecutive_failures = int(state["consecutive_failures"])
        opened = state["opened_at"]
        self._opened_at = None if opened is None else float(opened)
        self._opens = int(state["opens"])
        self._fast_fails = int(state["fast_fails"])
        # Journals written before probe accounting existed lack these.
        self._half_open_probes = int(state.get("half_open_probes", 0))
        self._half_open_successes = int(state.get("half_open_successes", 0))

    # -- state machine --------------------------------------------------------

    def _emit(self, event: str, value: float = 1.0) -> None:
        if self.observer is not None:
            self.observer(self.service, event, value)

    def allow(self) -> bool:
        """Whether a call may proceed; open breakers count a fast-fail."""
        if self._state is BreakerState.OPEN:
            if self.clock.now >= self.retry_at:
                self._state = BreakerState.HALF_OPEN
                self._emit("half_open")
            else:
                self._fast_fails += 1
                self._emit("fast_fail")
                return False
        if self._state is BreakerState.HALF_OPEN:
            # Every call allowed while half-open is one recovery probe;
            # the probe/success ratio is how the serve degradation
            # controller tells "recovering" from "still failing".
            self._half_open_probes += 1
        return True

    def record_success(self) -> None:
        if self._state is BreakerState.HALF_OPEN:
            self._half_open_successes += 1
        if self._state is not BreakerState.CLOSED:
            self._state = BreakerState.CLOSED
            self._emit("close")
        self._consecutive_failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            self._trip()
        elif (self._state is BreakerState.CLOSED
              and self._consecutive_failures >= self.failure_threshold):
            self._trip()

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self.clock.now
        self._opens += 1
        self._emit("open")


def breaker_provider(breakers: Dict[str, CircuitBreaker], clock,
                     observer: Optional[BreakerObserver] = None
                     ) -> Callable[[str], CircuitBreaker]:
    """Create-or-return the breaker for a service in ``breakers`` — how
    an enricher creates its breakers lazily and a resumed session
    recreates the ones its committed state knew about."""
    def provide(service: str) -> CircuitBreaker:
        if service not in breakers:
            breakers[service] = CircuitBreaker(service, clock,
                                               observer=observer)
        return breakers[service]
    return provide
