"""The event calendar against a reference model.

Random interleavings of ``schedule``, ``schedule_at``, ``schedule_fire``
and ``schedule_fire_at`` (with tied times), cancels (before firing,
twice, after firing, from inside another event's callback, and in bursts
large enough to compact the calendar mid-run) and bounded runs
(``until`` and ``max_events``) are applied both to a :class:`Simulator`
and to a sorted-list model keyed on ``(time, insertion order)``. After
every step both must agree on the firing order, ``pending_events()``,
``peek_time()``, ``now`` and the events processed.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

#: Few distinct offsets, so many events tie on time.
OFFSETS = (0.0, 0.25, 0.5, 1.0)
KINDS = ("schedule", "schedule_at", "schedule_fire", "schedule_fire_at")
HANDLE_KINDS = ("schedule", "schedule_at")


def perform(side, label, action) -> None:
    """Run one event's planned side effect (identical on both sides)."""
    if action is None:
        return
    op = action[0]
    if op == "cancel":
        side.cancel(action[1])
    elif op == "cancel_range":
        _, start, count = action
        for index in range(start, start + count):
            side.cancel(index)
    else:  # "spawn": children carry no action, so chains stay finite
        side.schedule(action[1], action[2], label + "c", None)


class RealSide:
    def __init__(self) -> None:
        self.sim = Simulator()
        self.handles = []
        self.log = []

    def schedule(self, kind, offset, label, action) -> None:
        sim = self.sim
        if kind == "schedule":
            self.handles.append(sim.schedule(offset, self._fire, label, action))
        elif kind == "schedule_at":
            self.handles.append(sim.schedule_at(sim.now + offset, self._fire, label, action))
        elif kind == "schedule_fire":
            sim.schedule_fire(offset, self._fire, label, action)
        else:
            sim.schedule_fire_at(sim.now + offset, self._fire, label, action)

    def _fire(self, label, action) -> None:
        self.log.append(label)
        perform(self, label, action)

    def cancel(self, index) -> None:
        if self.handles:
            self.handles[index % len(self.handles)].cancel()

    def run(self, until, max_events) -> int:
        return self.sim.run(until=until, max_events=max_events)

    def observe(self):
        sim = self.sim
        return sim.now, sim.pending_events(), sim.peek_time(), sim.events_processed


class ModelSide:
    """Pending events in a dict keyed by insertion order; the next one to
    fire is the minimum of ``(time, order)``."""

    def __init__(self) -> None:
        self.now = 0.0
        self.order = 0
        self.pending = {}
        self.handles = []
        self.log = []

    def schedule(self, kind, offset, label, action) -> None:
        self.order += 1
        self.pending[self.order] = (self.now + offset, label, action)
        if kind in HANDLE_KINDS:
            self.handles.append(self.order)

    def cancel(self, index) -> None:
        if self.handles:
            self.pending.pop(self.handles[index % len(self.handles)], None)

    def run(self, until, max_events) -> int:
        processed = 0
        hit_cap = False
        while self.pending:
            order = min(self.pending, key=lambda o: (self.pending[o][0], o))
            time, label, action = self.pending[order]
            if until is not None and time > until:
                break
            del self.pending[order]
            self.now = time
            self.log.append(label)
            perform(self, label, action)
            processed += 1
            if max_events is not None and processed >= max_events:
                hit_cap = True
                break
        if until is not None and not hit_cap and self.now < until:
            self.now = until
        return processed

    def observe(self):
        times = [entry[0] for entry in self.pending.values()]
        return self.now, len(self.pending), min(times) if times else None, len(self.log)


def play(program) -> RealSide:
    """Apply ``program`` to both sides, checking agreement after every
    step and after a final drain; returns the simulator side."""
    real, model = RealSide(), ModelSide()
    for step_no, step in enumerate(program + [("run", None, None)]):
        op = step[0]
        sides = (real, model)
        if op == "schedule":
            _, kind, offset, action = step
            for side in sides:
                side.schedule(kind, offset, f"s{step_no}", action)
        elif op == "cancel":
            for side in sides:
                side.cancel(step[1])
        elif op == "burst":
            # ``size`` future handles, plus an immediate event whose
            # callback cancels ``count`` of them mid-run.
            _, size, count = step
            base = len(real.handles)
            assert base == len(model.handles)
            for side in sides:
                side.schedule("schedule_fire", 0.0, f"t{step_no}", ("cancel_range", base, count))
                for j in range(size):
                    side.schedule(
                        HANDLE_KINDS[j % 2], OFFSETS[1 + j % 3], f"b{step_no}.{j}", None
                    )
        else:
            _, until_offset, max_events = step
            until = None if until_offset is None else real.sim.now + until_offset
            assert real.run(until, max_events) == model.run(until, max_events)
        assert real.log == model.log, step
        assert real.observe() == model.observe(), step
    return real


actions = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("spawn"), st.sampled_from(KINDS), st.sampled_from(OFFSETS)),
)
steps = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(KINDS), st.sampled_from(OFFSETS), actions),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from(OFFSETS + (3.0,))),
        st.one_of(st.none(), st.integers(1, 6)),
    ),
    st.tuples(st.just("burst"), st.integers(64, 120), st.integers(0, 120)),
)

BURST_THEN_DRAIN = [("burst", 100, 90), ("run", None, None)]


@settings(max_examples=200, deadline=None)
@given(st.lists(steps, max_size=40))
@example(BURST_THEN_DRAIN)
def test_calendar_matches_reference_model(program):
    play(program)


def test_burst_cancel_compacts_the_calendar_mid_run():
    sim = play(BURST_THEN_DRAIN).sim
    assert sim.compactions >= 1
    assert sim.pending_events() == 0
