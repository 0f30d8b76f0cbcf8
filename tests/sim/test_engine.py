"""Unit tests for the event-driven execution engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import EventLoop, StepOutcome


class CountdownAgent:
    """Performs `work` steps of the given cost, then finishes."""

    def __init__(self, work, cost=10):
        self.work = work
        self.cost = cost
        self.steps_at = []

    def step(self, now):
        self.steps_at.append(now)
        self.work -= 1
        if self.work <= 0:
            return StepOutcome(cost=self.cost, done=True)
        return StepOutcome(cost=self.cost)


class LoggingAgent:
    """Runs a fixed list of step costs, appending ``(now, tag)`` to a
    shared log at every step."""

    def __init__(self, tag, costs, log):
        self.tag = tag
        self.costs = list(costs)
        self.log = log

    def step(self, now):
        self.log.append((now, self.tag))
        cost = self.costs.pop(0)
        return StepOutcome(cost=cost, done=not self.costs)


class TestEventLoop:
    def test_single_agent_runs_to_completion(self):
        a = CountdownAgent(5, cost=7)
        res = EventLoop([a], is_terminated=lambda: False).run()
        assert len(a.steps_at) == 5
        assert res.steps == 5
        assert a.steps_at == [0, 7, 14, 21, 28]

    def test_cycles_reflect_last_event_time(self):
        a = CountdownAgent(3, cost=100)
        res = EventLoop([a], is_terminated=lambda: False).run()
        assert res.cycles == 200  # events at 0, 100, 200

    def test_agents_interleave_by_time(self):
        fast = CountdownAgent(4, cost=5)
        slow = CountdownAgent(2, cost=50)
        EventLoop([fast, slow], is_terminated=lambda: False).run()
        assert fast.steps_at == [0, 5, 10, 15]
        assert slow.steps_at == [0, 50]

    def test_deterministic_tie_break_by_insertion(self):
        order = []

        class Recorder:
            def __init__(self, tag):
                self.tag = tag

            def step(self, now):
                order.append(self.tag)
                return StepOutcome(cost=10, done=True)

        EventLoop([Recorder("a"), Recorder("b"), Recorder("c")],
                  is_terminated=lambda: False).run()
        assert order == ["a", "b", "c"]

    def test_termination_predicate_stops_early(self):
        a = CountdownAgent(1000)
        counter = {"n": 0}

        def terminated():
            counter["n"] += 1
            return counter["n"] > 10

        res = EventLoop([a], is_terminated=terminated).run()
        assert res.steps <= 10

    def test_no_agents_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop([], is_terminated=lambda: False)

    def test_zero_cost_without_done_rejected(self):
        class Bad:
            def step(self, now):
                return StepOutcome(cost=0)

        with pytest.raises(SimulationError, match="non-positive cost"):
            EventLoop([Bad()], is_terminated=lambda: False).run()

    def test_max_cycles_guard(self):
        a = CountdownAgent(10**9, cost=1000)
        loop = EventLoop([a], is_terminated=lambda: False, max_cycles=5000)
        with pytest.raises(SimulationError, match="max_cycles"):
            loop.run()

    def test_deadlock_detection(self):
        class Spinner:
            def step(self, now):
                return StepOutcome(cost=10, made_progress=False)

        loop = EventLoop([Spinner()], is_terminated=lambda: False,
                         deadlock_window=100)
        with pytest.raises(DeadlockError):
            loop.run()

    def test_progress_resets_deadlock_window(self):
        class Mostly:
            def __init__(self):
                self.n = 0

            def step(self, now):
                self.n += 1
                if self.n >= 500:
                    return StepOutcome(cost=1, done=True)
                # Progress every 50 steps keeps the guard quiet.
                return StepOutcome(cost=1, made_progress=self.n % 50 == 0)

        loop = EventLoop([Mostly()], is_terminated=lambda: False,
                         deadlock_window=100)
        loop.run()  # must not raise

    def test_engine_result_seconds(self):
        a = CountdownAgent(2, cost=1000)
        res = EventLoop([a], is_terminated=lambda: False).run()
        assert res.seconds(1e9) == pytest.approx(res.cycles / 1e9)


class TestMaxCyclesBoundary:
    """The budget is checked against ``ready_at`` *before* executing."""

    #: Both drains check the budget: the calendar queue and the
    #: fuzzer's perturbed heap.
    DRAINS = pytest.mark.parametrize("perturb_seed", [None, 0],
                                     ids=["calendar", "perturbed"])

    @DRAINS
    def test_event_exactly_at_budget_executes(self, perturb_seed):
        # Events at 0, 10, 20; max_cycles=20 admits all three.
        a = CountdownAgent(3, cost=10)
        res = EventLoop([a], is_terminated=lambda: False, max_cycles=20,
                        perturb_seed=perturb_seed).run()
        assert a.steps_at == [0, 10, 20]
        assert res.cycles == 20 and res.steps == 3

    @DRAINS
    def test_over_budget_event_never_executes(self, perturb_seed):
        # The event at 20 exceeds max_cycles=19 and must raise without
        # the agent ever observing now=20.
        a = CountdownAgent(3, cost=10)
        loop = EventLoop([a], is_terminated=lambda: False, max_cycles=19,
                         perturb_seed=perturb_seed)
        with pytest.raises(SimulationError, match="max_cycles"):
            loop.run()
        assert a.steps_at == [0, 10]


def _sort_model_order(cost_lists):
    """Execution log of a reference drain: repeatedly run the pending
    event with the smallest ``(ready_at, seq)``, where ``seq`` numbers
    events in the order they were scheduled."""
    remaining = [list(costs) for costs in cost_lists]
    pending = [(0, agent, agent) for agent in range(len(remaining))]
    next_seq = len(pending)
    log = []
    while pending:
        pending.sort()
        ready_at, _, agent = pending.pop(0)
        log.append((ready_at, agent))
        cost = remaining[agent].pop(0)
        if remaining[agent]:
            pending.append((ready_at + cost, next_seq, agent))
            next_seq += 1
    return log


class TestSchedulerEquivalence:
    """The calendar drain is equivalent to a sort model of the
    ``(ready_at, seq)`` total order; it is the only unperturbed drain."""

    @given(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=10),
                    min_size=1, max_size=8))
    # Same-cycle FIFO: agent 1 is rescheduled for cycle 4 (at cycle 1)
    # before agent 0 is (at cycle 2), so at cycle 4 it must run first.
    @example([[2, 2, 1], [1, 3, 1]])
    @settings(max_examples=150, deadline=None)
    def test_identical_step_order_and_result(self, cost_lists):
        # Costs in 1..4 make same-cycle events common, so the FIFO
        # tie-break among them is exercised on most examples.
        log = []
        agents = [LoggingAgent(i, costs, log)
                  for i, costs in enumerate(cost_lists)]
        res = EventLoop(agents, is_terminated=lambda: False).run()
        assert log == _sort_model_order(cost_lists)
        assert res.steps == len(log)
        assert res.cycles == log[-1][0]

    def test_unknown_scheduler_rejected(self):
        """The heap drain and its ``scheduler`` selector are gone."""
        with pytest.raises(TypeError):
            EventLoop([CountdownAgent(1)], is_terminated=lambda: False,
                      scheduler="heap")

    def test_poll_interval_validation(self):
        """Termination is polled before every event; the interval is no
        longer a parameter."""
        with pytest.raises(TypeError):
            EventLoop([CountdownAgent(1)], is_terminated=lambda: False,
                      poll_interval=1)
