"""Pool admission-window accounting under timeouts (two bugfix pins), and
what a stopped pool does with the turns queued behind a busy slot.

1. A waiter that times out on ``PoolTicket.result`` abandons the ticket;
   when the turn eventually finishes, its admission slot must be returned —
   the original bug left the slot leaked, shrinking the window by one per
   timeout until the pump wedged with ready turns it could never admit.
2. ``ClientPool.evaluate_all`` used to hard-code a per-ticket timeout and
   demand each ticket only when its blocking ``result()`` came around; now
   the timeout is configurable (default ``None``: wait indefinitely) and
   the whole sweep is demanded up front in submission order, so dispatch
   order is deterministic and independent of result-consumption order.

3. ``ClientPool.stop`` fails every turn still queued and lets the started
   ones finish.

All tests run against a stub broker so completion timing is scripted, not
raced.
"""

import inspect
import threading
import time

import pytest

from repro.engine.client_state import ClientStateStore
from repro.runtime.broker import TurnBroker
from repro.runtime.pool import ClientPool


class StubBroker(TurnBroker):
    """Records dispatched tickets; the test completes them explicitly."""

    scheme = "stub"

    def __init__(self, capacity=1_000_000):
        super().__init__("stub://")
        self.store = ClientStateStore()
        self.started = []
        self._capacity = capacity
        self._busy = 0

    def start(self):
        pass

    def shutdown(self):
        pass

    @property
    def pool_size(self):
        return 4

    def capacity_free(self):
        return self._busy < self._capacity

    def execute(self, ticket):
        self._busy += 1
        self.started.append(ticket)

    def finish(self, ticket, value):
        def release():
            self._busy -= 1

        self.pool.turn_done(ticket, value, None, release=release)

    def queue_depth(self):
        return self._busy

    def idle_workers(self):
        return self._capacity - self._busy


def make_pool(window=None, num_clients=4, capacity=1_000_000):
    broker = StubBroker(capacity=capacity)
    pool = ClientPool(num_clients, broker, None, window=window)
    pool.start()  # the stub needs no bring-up; the pool resolves its window here
    return pool, broker


# --------------------------------------------------------------------------
# the slot leak: timeout -> abandon -> late completion returns the slot
# --------------------------------------------------------------------------
def test_timed_out_ticket_returns_window_slot_on_completion():
    pool, broker = make_pool(window=1)
    t0 = pool.submit(0, "step")
    t1 = pool.submit(1, "step")
    assert broker.started == [t0]  # window of 1: t1 must wait

    with pytest.raises(TimeoutError, match="still pending"):
        t0.result(timeout=0.05)
    assert t0._abandoned
    # the turn finishes after the waiter gave up: the admission slot comes
    # back in turn_done and the pump starts t1 (pre-fix, _unconsumed stayed
    # pinned at 1 and t1 never ran)
    broker.finish(t0, "late")
    assert broker.started == [t0, t1]
    assert pool._unconsumed == 1  # t1's slot only; t0's was reclaimed
    broker.finish(t1, "ok")
    assert t1.result(timeout=5) == "ok"
    assert pool._unconsumed == 0


def test_abandon_after_completion_releases_immediately():
    # the race the fix also covers: the turn completed between the waiter's
    # timeout expiring and the abandon taking the lock
    pool, broker = make_pool(window=1)
    t0 = pool.submit(0, "step")
    t1 = pool.submit(1, "step")
    broker.finish(t0, "done")  # completed but never consumed
    assert broker.started == [t0]
    pool._abandon(t0)
    assert broker.started == [t0, t1]


# --------------------------------------------------------------------------
# evaluate_all: configurable timeout, demand in submission order
# --------------------------------------------------------------------------
def test_evaluate_all_default_timeout_is_none():
    sig = inspect.signature(ClientPool.evaluate_all)
    assert sig.parameters["timeout"].default is None


def test_evaluate_all_demands_past_window_in_submission_order():
    # window far smaller than the cohort: only demand lets the sweep through
    pool, broker = make_pool(window=1, num_clients=5)

    def complete():
        done = set()
        deadline = time.monotonic() + 10
        while len(done) < 5 and time.monotonic() < deadline:
            for t in list(broker.started):
                if t.seq not in done:
                    done.add(t.seq)
                    broker.finish(t, (1.0 + t.client, 0.5))
            time.sleep(0.005)

    worker = threading.Thread(target=complete, daemon=True)
    worker.start()
    loss, acc = pool.evaluate_all()
    worker.join(timeout=10)
    assert loss == pytest.approx(3.0)  # mean of 1..5
    assert acc == pytest.approx(0.5)
    # up-front demand dispatches the sweep in submission (client) order
    assert [t.client for t in broker.started] == [0, 1, 2, 3, 4]


def test_evaluate_all_timeout_propagates():
    pool, broker = make_pool(num_clients=3)
    broker._capacity = 0  # nothing ever starts, so nothing ever finishes
    with pytest.raises(TimeoutError, match="still pending"):
        pool.evaluate_all(timeout=0.05)


# --------------------------------------------------------------------------
# stop: queued turns fail, started ones finish
# --------------------------------------------------------------------------
def test_pool_stop_fails_queued_tickets():
    pool, broker = make_pool(num_clients=3, capacity=1)
    # saturate the single slot, then stop with turns still queued
    tickets = [pool.submit(c, "step") for c in (0, 1, 2)]
    assert broker.started == tickets[:1]
    pool.stop()
    broker.finish(tickets[0], "ok")
    # started turns finish; queued ones fail loudly instead of hanging
    outcomes = []
    for t in tickets:
        try:
            t.result(5)
            outcomes.append("ok")
        except RuntimeError:
            outcomes.append("stopped")
    assert "stopped" in outcomes  # at least the tail of the queue
    assert outcomes == sorted(outcomes, key=("ok", "stopped").index)
    assert broker.started == tickets[:1]  # nothing started after the stop
