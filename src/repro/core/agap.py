"""The A-Gap discrepancy measure (paper Section 3.2-3.3).

This module contains the paper's mathematical core:

* :class:`AGapTracker` — the streaming algorithm (Algorithm 1) computing
  the A-Gap of Theorem 3.2 per packet arrival:

  .. math::

      A(p_k.time) = \\max(0, A(p_{k-1}.time) - \\Delta(k) R) + p_k.size

* :class:`DGapTracker` — the strawman integrated-difference function
  ``D(t)`` of Expressions (4)-(5), kept for the Figure 3 comparison;
* :func:`simulate_discrepancy_control` — the fluid-model experiment behind
  Figure 3 showing that a CC driven by ``D(t)`` lets its rate peaks escalate
  (surplus abuse) while the A-Gap pins them.

Units: the allocated rate ``R`` is in bits/second (like everything else in
this package); gaps are in **bytes**, so the drain term is ``Δ · R / 8``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError


class AGapTracker:
    """Streaming A-Gap (Algorithm 1).

    The tracker is deliberately tiny — two floats of state, exactly the
    ``AQ gap`` and ``AQ last_time`` fields a switch register would hold
    (Table 1).
    """

    __slots__ = ("rate_bps", "gap", "last_time")

    def __init__(self, rate_bps: float, start_time: float = 0.0) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"allocated rate must be positive, got {rate_bps}")
        self.rate_bps = rate_bps
        self.gap = 0.0  # bytes
        self.last_time = start_time

    def on_arrival(self, time: float, size_bytes: float) -> float:
        """Update for a packet of ``size_bytes`` arriving at ``time``;
        returns the new A-Gap (Theorem 3.2)."""
        delta = time - self.last_time
        if delta < 0:
            raise ConfigurationError(
                f"packet arrival at {time} precedes last arrival {self.last_time}"
            )
        drained = self.gap - delta * (self.rate_bps / 8.0)
        self.gap = (drained if drained > 0.0 else 0.0) + size_bytes
        self.last_time = time
        return self.gap

    def peek(self, time: float) -> float:
        """The A-Gap at ``time`` if no packet arrives in between."""
        delta = time - self.last_time
        if delta < 0:
            raise ConfigurationError(f"cannot peek into the past ({time})")
        drained = self.gap - delta * (self.rate_bps / 8.0)
        return drained if drained > 0.0 else 0.0

    def undo_arrival(self, size_bytes: float) -> None:
        """Remove a just-added packet from the gap (Algorithm 2, line 3:
        dropped packets do not consume the entity's allocation)."""
        self.gap -= size_bytes
        if self.gap < 0.0:
            self.gap = 0.0

    def set_rate(self, time: float, rate_bps: float) -> None:
        """Change the allocated rate (weighted-mode updates), draining at
        the old rate up to ``time`` first so history stays consistent."""
        if rate_bps <= 0:
            raise ConfigurationError(f"allocated rate must be positive, got {rate_bps}")
        self.gap = self.peek(time)
        self.last_time = time
        self.rate_bps = rate_bps

    def virtual_queuing_delay(self) -> float:
        """Time to drain the current gap at the allocated rate —
        the paper's *virtual queuing delay* ``A(k)/R`` (Section 3.3.2)."""
        return self.gap / (self.rate_bps / 8.0)


class DGapTracker:
    """The strawman ``D(t)`` (Expressions 4-5): like the A-Gap but the
    clamp to zero applies only in *empty* periods, so surplus (negative
    ``D``) accumulates inside a backlogged period.

    The discrete form treats the interval between two packets of a
    backlogged period as part of that period (no clamp) and applies the
    clamp when an *empty period* is declared via :meth:`on_empty_until`.
    """

    __slots__ = ("rate_bps", "gap", "last_time")

    def __init__(self, rate_bps: float, start_time: float = 0.0) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"allocated rate must be positive, got {rate_bps}")
        self.rate_bps = rate_bps
        self.gap = 0.0
        self.last_time = start_time

    def on_arrival(self, time: float, size_bytes: float) -> float:
        delta = time - self.last_time
        if delta < 0:
            raise ConfigurationError(
                f"packet arrival at {time} precedes last arrival {self.last_time}"
            )
        self.gap += size_bytes - delta * (self.rate_bps / 8.0)
        self.last_time = time
        return self.gap

    def on_empty_until(self, time: float) -> float:
        """Declare ``(last_time, time]`` an empty period: drain and clamp."""
        delta = time - self.last_time
        if delta < 0:
            raise ConfigurationError(f"cannot move time backwards to {time}")
        self.gap = max(0.0, self.gap - delta * (self.rate_bps / 8.0))
        self.last_time = time
        return self.gap


# --------------------------------------------------------------------------
# Figure 3: fluid-model comparison of D(t) vs A(t) driving an aggressive CC
# --------------------------------------------------------------------------


@dataclass
class FluidTrace:
    """Result of :func:`simulate_discrepancy_control`."""

    times: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    measures: List[float] = field(default_factory=list)

    def rate_peaks(self) -> List[float]:
        """Local maxima of the rate trajectory (the r0, r1, r2 of Fig 3)."""
        peaks = []
        rates = self.rates
        for i in range(1, len(rates) - 1):
            if rates[i] >= rates[i - 1] and rates[i] > rates[i + 1]:
                peaks.append(rates[i])
        return peaks

    def cycle_peaks(self) -> List[float]:
        """The rate at the onset of each congestion episode — one value per
        contiguous ``measure > 0`` period. This is the clean reading of
        Figure 3's r0, r1, r2: the rate reached just as the discrepancy
        turns positive and the CC starts its back-off."""
        peaks: List[float] = []
        in_episode = False
        for rate, measure in zip(self.rates, self.measures):
            if measure > 0.0 and not in_episode:
                peaks.append(rate)
                in_episode = True
            elif measure <= 0.0:
                in_episode = False
        return peaks


def simulate_discrepancy_control(
    use_agap: bool,
    allocated_rate_bps: float = 5e9,
    duration: float = 0.25,
    dt: float = 2e-6,
    increase_slope: float = 200.0,
    decrease_factor: float = 8000.0,
    over_correction: float = 1.5,
) -> FluidTrace:
    """Fluid model of an entity whose CC *overly reduces* its rate, driven
    by either the strawman ``D(t)`` or the A-Gap (Figure 3).

    The CC climbs additively (``increase_slope`` allocated-rates per
    second) when not backing off. When the measure turns positive it backs
    off multiplicatively and — because it "aims for zero queuing delay" and
    over-corrects — keeps backing off until the measure has been driven
    ``over_correction`` times the positive excursion *below* zero.

    With ``D(t)`` that over-correction is banked as surplus: the deeper
    the dig, the longer the next climb stays above the allocated rate
    before the measure turns positive again, so each peak exceeds the last
    (``r0 < r1 < r2``, Figure 3(a)) and congestion worsens without bound.
    The A-Gap clamps the measure at zero — the surplus is discarded, the
    back-off ends as soon as the gap drains, and every peak tops out at
    the same ``r0`` (Figure 3(b)).
    """
    trace = FluidTrace()
    allocated = allocated_rate_bps
    rate = allocated  # r(t), bits/s
    measure = 0.0  # bytes
    episode_peak_measure = 0.0
    backing_off = False
    steps = int(duration / dt)
    for step in range(steps):
        t = step * dt
        measure += (rate - allocated) / 8.0 * dt
        if use_agap and measure < 0.0:
            measure = 0.0
        if measure > 0.0:
            backing_off = True
            if measure > episode_peak_measure:
                episode_peak_measure = measure
        elif backing_off:
            # The CC resumes once its over-correction target is reached.
            # Under the A-Gap the measure bottoms out at zero — the surplus
            # the CC would have banked is discarded, so it resumes at once.
            target = 0.0 if use_agap else -over_correction * episode_peak_measure
            if measure <= target:
                backing_off = False
                episode_peak_measure = 0.0
        if backing_off:
            rate *= max(0.0, 1.0 - decrease_factor * dt)
        else:
            rate += increase_slope * allocated * dt
        trace.times.append(t)
        trace.rates.append(rate)
        trace.measures.append(measure)
    return trace


# --------------------------------------------------------------------------
# Reference evaluators used by property-based tests and the run auditor
# --------------------------------------------------------------------------


class AGapReplay:
    """Re-derives the Theorem 3.2 recurrence from a trace event stream.

    The conservation-law auditor (:mod:`repro.obs.audit`) feeds this the
    same observations :class:`AGapTracker` consumed live — arrivals
    (``agap_update`` events), limit-drop undos (``rate_limit`` events),
    and rate changes (``aq_rate`` events) — and compares the replayed gap
    against the value the data plane reported. The arithmetic mirrors the
    tracker expression-for-expression so a clean run replays exactly.
    """

    __slots__ = ("rate_bps", "gap", "last_time")

    def __init__(self) -> None:
        self.rate_bps: float = 0.0
        self.gap = 0.0
        self.last_time: float = 0.0

    def on_rate(self, time: float, rate_bps: float) -> None:
        """Apply a rate change: drain at the old rate first (set_rate)."""
        if self.rate_bps > 0.0:
            self.gap = self._drained(time)
        self.last_time = time
        self.rate_bps = rate_bps

    def expected_on_arrival(self, time: float, size_bytes: float) -> float:
        """The gap an uncorrupted tracker would report for this arrival."""
        return self._drained(time) + size_bytes

    def commit_arrival(self, time: float, gap: float) -> None:
        """Adopt the data plane's reported gap as ground truth, so one
        discrepancy yields one violation instead of a cascade."""
        self.gap = gap
        self.last_time = time

    def on_undo(self, size_bytes: float) -> None:
        """Mirror ``undo_arrival``: a limit-dropped packet is backed out."""
        self.gap -= size_bytes
        if self.gap < 0.0:
            self.gap = 0.0

    def _drained(self, time: float) -> float:
        delta = time - self.last_time
        if delta < 0:
            return self.gap
        drained = self.gap - delta * (self.rate_bps / 8.0)
        return drained if drained > 0.0 else 0.0


def agap_reference(
    arrivals: Sequence[Tuple[float, float]], rate_bps: float
) -> List[float]:
    """Direct evaluation of Theorem 3.2 over a full arrival sequence.

    ``arrivals`` is a list of ``(time, size_bytes)`` with non-decreasing
    times. Returns the A-Gap after each arrival. Used as the oracle against
    which the streaming tracker (and checkpoint-invariance properties) are
    tested.
    """
    gaps: List[float] = []
    gap = 0.0
    last_time = 0.0
    for time, size in arrivals:
        delta = time - last_time
        gap = max(0.0, gap - delta * rate_bps / 8.0) + size
        last_time = time
        gaps.append(gap)
    return gaps
