"""Circuit breaker around storage reads (closed / open / half-open).

When the storage backend goes bad — transient-fault storms, latency
spikes from the injector's slow reads — every query that touches it
burns its whole deadline before degrading.  The breaker caps that waste:
once the recent failure rate crosses the threshold it *opens*, and the
service answers degraded immediately (still all-positive, still
correct) without touching storage at all.  After ``open_ns`` of
simulated time it goes *half-open* and lets a few probe requests
through; all-success closes it, any failure re-opens it.

States and transitions (driven entirely by ``record_success`` /
``record_failure`` plus the simulated clock — no hidden timers)::

    closed ──(failure rate ≥ threshold over window)──▶ open
    open ──(open_ns elapsed)──▶ half-open
    half-open ──(all probes succeed)──▶ closed
    half-open ──(any probe fails)──▶ open
"""

from __future__ import annotations

import threading
from collections import deque

from repro.storage.env import SimulatedClock

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Failure-rate circuit breaker on the simulated clock.

    Parameters
    ----------
    clock:
        The shared simulated clock (same one the env charges I/O to).
    window:
        How many recent outcomes the failure rate is computed over.
    failure_threshold:
        Failure fraction (over the window) at which the breaker trips.
    min_samples:
        Don't trip before this many outcomes are in the window — one
        early fault shouldn't open a cold breaker.
    open_ns:
        Simulated time the breaker stays open before probing.
    half_open_probes:
        Number of consecutive successful probes needed to close again.
    """

    def __init__(
        self,
        clock: SimulatedClock,
        *,
        window: int = 32,
        failure_threshold: float = 0.5,
        min_samples: int = 8,
        open_ns: int = 200_000_000,
        half_open_probes: int = 2,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_samples < 1 or min_samples > window:
            raise ValueError(
                f"min_samples must be in [1, window], got {min_samples}"
            )
        if open_ns < 0:
            raise ValueError(f"open_ns must be >= 0, got {open_ns}")
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.clock = clock
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.open_ns = open_ns
        self.half_open_probes = half_open_probes
        self._lock = threading.Lock()
        self._state = "closed"
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._opened_at_ns = 0
        self._probes_issued = 0
        self._probes_succeeded = 0
        self.trips = 0
        self.denials = 0
        self.half_opens = 0
        self.closes = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (clock-refreshed)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        """open → half-open once the open window has elapsed (lock held)."""
        if (
            self._state == "open"
            and self.clock.now_ns() >= self._opened_at_ns + self.open_ns
        ):
            self._state = "half-open"
            self._probes_issued = 0
            self._probes_succeeded = 0
            self.half_opens += 1

    def allow(self) -> bool:
        """May the caller touch storage for this request?

        ``False`` means answer degraded right now.  In half-open, only
        ``half_open_probes`` callers are let through until their
        outcomes are known.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half-open":
                if self._probes_issued < self.half_open_probes:
                    self._probes_issued += 1
                    return True
                self.denials += 1
                return False
            self.denials += 1
            return False

    def record_success(self) -> None:
        """A storage-touching request completed within its budget."""
        with self._lock:
            if self._state == "half-open":
                self._probes_succeeded += 1
                if self._probes_succeeded >= self.half_open_probes:
                    self._state = "closed"
                    self._outcomes.clear()
                    self.closes += 1
                return
            if self._state == "closed":
                self._outcomes.append(False)

    def release(self) -> None:
        """Return an admitted request that settled neither way.

        A request that fails apart from storage (it was malformed) says
        nothing about the backend.  In half-open its probe slot goes
        back, so a later request can still close or re-open the breaker;
        in any other state this is a no-op.
        """
        with self._lock:
            if self._state == "half-open" and self._probes_issued > 0:
                self._probes_issued -= 1

    def record_failure(self) -> None:
        """A storage-touching request failed (fault or deadline overrun)."""
        with self._lock:
            if self._state == "half-open":
                self._trip()
                return
            if self._state == "closed":
                self._outcomes.append(True)
                if len(self._outcomes) >= self.min_samples:
                    rate = sum(self._outcomes) / len(self._outcomes)
                    if rate >= self.failure_threshold:
                        self._trip()

    def _trip(self) -> None:
        """Open the breaker (lock held)."""
        self._state = "open"
        self._opened_at_ns = self.clock.now_ns()
        self._outcomes.clear()
        self.trips += 1

    def retry_after_ns(self) -> int:
        """Simulated time until the breaker will next admit traffic.

        While open this is the remainder of the open window — the
        honest backpressure hint for a ``breaker-open`` degraded
        response.  Closed or half-open, it is 0 (the caller may try
        immediately; half-open admission is probe-limited, not timed).
        """
        with self._lock:
            self._maybe_half_open()
            if self._state != "open":
                return 0
            return max(
                0, self._opened_at_ns + self.open_ns - self.clock.now_ns()
            )

    def force_open(self) -> None:
        """Trip the breaker manually (tests, drills, emergency levers)."""
        with self._lock:
            self._trip()

    def snapshot(self) -> dict:
        """State + counters for the health endpoint."""
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "trips": self.trips,
                "denials": self.denials,
                "transitions": {
                    "opened": self.trips,
                    "half_opened": self.half_opens,
                    "closed": self.closes,
                },
                "window_failures": sum(self._outcomes),
                "window_samples": len(self._outcomes),
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircuitBreaker(state={self.state}, trips={self.trips})"
