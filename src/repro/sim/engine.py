"""Deterministic discrete-event simulation engine.

The engine is a classic calendar built on :mod:`heapq`. Three properties
matter for reproducing the paper:

* **Determinism** — ties in event time are broken by insertion order, so the
  same scenario with the same seeds produces the same packet trace.
* **Cancellation** — TCP retransmission timers are cancelled far more often
  than they fire; cancelled events are tombstoned and skipped on pop, and
  the calendar is compacted in place whenever tombstones outnumber live
  events (see ``docs/PERFORMANCE.md``).
* **Speed** — the calendar is a heap of plain tuples, so :mod:`heapq`
  orders it in C: fire-and-forget events (:meth:`Simulator.schedule_fire`)
  are bare ``(time, seq, fn, args)`` entries and build no :class:`Event`;
  cancellable ones are ``(time, seq, None, event)`` entries carrying the
  :class:`Event` handle. ``seq`` is unique, so a comparison never reaches
  the third field.

The simulator also carries the run's :class:`~repro.obs.Telemetry`: the
profiler (when attached) has the run loop time every callback, and
components reach the trace bus / metrics registry via
``sim.telemetry``.

**One execution mode.** Every packet is an event: A-Gap updates, limit
drops and CC feedback all run per packet, as in the paper's NS3/BMv2
evaluation. **Sharding** (:mod:`repro.sim.shard`) only changes how many
calendars there are: one simulator per partition, run in lockstep
epochs of :meth:`Simulator.run` bounded by the conservative lookahead,
with cross-partition arrivals re-entering via
:meth:`Simulator.schedule_fire_at` at barriers. Telemetry composes with it.

Event times must be ordered numbers: scheduling at (or running until) a
NaN raises, because NaN compares false both ways and would fire out of
order and leave the clock at NaN.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from typing import Any, Callable, Optional

from ..errors import SimulationError


class Event:
    """A cancellable scheduled callback; returned by :meth:`Simulator.schedule`.

    Instances are handles: the only public operations are :meth:`cancel`
    and inspecting :attr:`time` / :attr:`cancelled`. The calendar orders
    the ``(time, seq, None, event)`` entry that carries the handle, never
    the handle itself.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Simulator",
    ):
        self.time = time
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing. Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # ``fn`` is None once the run loop has consumed the event, so the
        # live-event counter only moves for genuinely pending events.
        if self.fn is not None:
            # Drop references early so cancelled timers do not pin packets
            # alive while their tombstones wait in the heap.
            self.fn = None
            self.args = ()
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} {state}>"


class Simulator:
    """The event loop that every simulated component shares.

    Typical use::

        sim = Simulator()
        sim.schedule(0.001, my_callback, arg1, arg2)
        sim.run(until=1.0)

    ``telemetry`` defaults to the ambient instance installed by
    :meth:`repro.obs.Telemetry.activate` (so a CLI flag can instrument
    scenarios that build their own simulators), falling back to a fresh
    disabled instance.
    """

    #: Compaction does not kick in below this calendar size: rebuilding a
    #: tiny heap costs more than skipping its tombstones ever will.
    COMPACT_MIN_CALENDAR = 64

    def __init__(self, telemetry=None) -> None:
        #: ``(time, seq, fn, args)`` or ``(time, seq, None, event)``.
        self._heap: list[tuple] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._events_processed = 0
        self._live = 0
        self.compactions = 0
        #: Fault-event observers (see :meth:`add_fault_listener`). Kept off
        #: the run-loop hot path entirely: the list is only walked when a
        #: fault injector calls :meth:`notify_fault`.
        self._fault_listeners: list[Callable[[Any], None]] = []
        if telemetry is None:
            from ..obs.telemetry import Telemetry, get_active_telemetry

            telemetry = get_active_telemetry()
            if telemetry is None:
                telemetry = Telemetry()
        self.telemetry = telemetry

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed by completed :meth:`run` calls (for
        performance reporting)."""
        return self._events_processed

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time}: not at or after now ({self._now})"
            )
        self._seq += 1
        event = Event(time, fn, args, self)
        heapq.heappush(self._heap, (time, self._seq, None, event))
        self._live += 1
        return event

    def schedule_fire(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned and the
        event can never be cancelled, so the calendar entry is a bare
        ``(time, seq, fn, args)`` tuple and no :class:`Event` is built.
        Use this for hot-path events whose handle would be discarded
        anyway (packet deliveries, serialization completions)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        self.schedule_fire_at(self._now + delay, fn, *args)

    def schedule_fire_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_fire`."""
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time}: not at or after now ({self._now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._live += 1

    # -- fault events ------------------------------------------------------------

    def add_fault_listener(self, listener: Callable[[Any], None]) -> None:
        """Register ``listener(fault_event)`` to run whenever an injected
        fault fires in this simulation (see :mod:`repro.faults`). The
        engine itself never originates faults; this is the rendezvous
        point between the injector and components (recovery managers,
        meters) that need to observe topology state changes without the
        injector knowing about them."""
        self._fault_listeners.append(listener)

    def notify_fault(self, fault_event: Any) -> None:
        """Deliver ``fault_event`` to every registered listener, in
        registration order. Called by the fault injector at the moment a
        scheduled fault is applied."""
        for listener in self._fault_listeners:
            listener(fault_event)

    # -- execution ---------------------------------------------------------------

    def _note_cancel(self) -> None:
        """Bookkeeping for one cancellation; compacts the calendar when
        tombstones outnumber live events (>50% of a non-trivial heap)."""
        self._live -= 1
        heap = self._heap
        size = len(heap)
        if size >= self.COMPACT_MIN_CALENDAR and (size - self._live) * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the calendar without its tombstones.

        Mutates the heap list *in place* so the run loop's local alias
        stays valid, and re-heapifies; pop order is unaffected because
        ordering is total on ``(time, seq)``."""
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        self.compactions += 1

    def calendar_size(self) -> int:
        """Number of heap slots in use, tombstones included (for tests
        and the hot-path benchmarks; compare with :meth:`pending_events`)."""
        return len(self._heap)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the calendar drains, ``until`` is reached,
        or ``max_events`` have executed.

        Returns the number of events processed by this call. The clock is
        advanced to ``until`` when provided and the calendar drained (or
        only holds later events), so periodic samplers observe a consistent
        end time — but **not** when the ``max_events`` cap stopped the run
        early: then the clock stays at the last processed event so the
        remaining work can resume where it left off.

        With a profiler attached, every callback is timed and the run is
        reported to it; otherwise the loop does no bookkeeping beyond the
        clock and the live-event counter.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if until is not None and until != until:  # NaN
            raise SimulationError("cannot run until NaN")
        self._running = True
        profiler = self.telemetry.profiler if self.telemetry is not None else None
        if profiler is not None:
            perf = _time.perf_counter
            site_name = profiler.site_name
            start_sim = self._now
            run_start = perf()
        heap = self._heap
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        processed = 0
        hit_cap = False
        try:
            while heap:
                time, _, fn, args = heap[0]
                if time > horizon:
                    break
                pop(heap)
                if fn is None:
                    # A cancellable entry; ``args`` is its Event handle.
                    event = args
                    if event.cancelled:
                        continue  # tombstone: already off the live count
                    fn, args = event.fn, event.args
                    event.fn, event.args = None, ()
                self._live -= 1
                self._now = time
                if profiler is None:
                    fn(*args)
                else:
                    profiler.note_heap_depth(len(heap) + 1)  # before the pop
                    site = site_name(fn)
                    t0 = perf()
                    fn(*args)
                    profiler.record_callback(site, perf() - t0)
                processed += 1
                if max_events is not None and processed >= max_events:
                    hit_cap = True
                    break
        finally:
            self._running = False
            self._events_processed += processed
            if profiler is not None:
                if hit_cap or until is None or until <= self._now:
                    end_sim = self._now
                else:
                    end_sim = until
                profiler.note_run(processed, perf() - run_start, end_sim - start_sim)
        if until is not None and not hit_cap and self._now < until:
            self._now = until
        return processed

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the calendar is
        empty. Pops the tombstones above it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is not None or not entry[3].cancelled:
                return entry[0]
            heapq.heappop(heap)
        return None

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the calendar. O(1): a live
        counter is maintained on schedule/cancel/pop."""
        return self._live


class PeriodicTask:
    """Re-arms ``fn()`` every ``interval`` seconds until :meth:`stop`.

    Used by the weighted-mode allocator, ElasticSwitch's adjustment loop,
    and throughput samplers.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[[], Any],
        start_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._stopped = False
        self._event: Optional[Event] = sim.schedule(
            interval if start_delay is None else start_delay, self._fire
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        self._fn()
        if not self._stopped:
            self._event = self._sim.schedule(self._interval, self._fire)

    def stop(self) -> None:
        """Cancel the task; the callback will not fire again."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def interval(self) -> float:
        return self._interval
