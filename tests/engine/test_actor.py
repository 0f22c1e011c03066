import threading
import time

import pytest

from repro.engine.actor import ActorHandle, wait_all


class Counter:
    def __init__(self):
        self.value = 0
        self.thread_ids = set()

    def bump(self, by=1):
        self.thread_ids.add(threading.get_ident())
        self.value += by
        return self.value

    def boom(self):
        raise RuntimeError("kaboom")

    def slow(self, seconds):
        time.sleep(seconds)
        return "done"


def test_calls_run_on_actor_thread():
    actor = ActorHandle(Counter(), name="c")
    try:
        assert actor.call("bump") == 1
        assert actor.call("bump", by=4) == 5
        assert threading.get_ident() not in actor.obj.thread_ids
    finally:
        actor.stop()


def test_same_actor_calls_serialize():
    actor = ActorHandle(Counter(), name="c")
    try:
        futures = [actor.submit("bump") for _ in range(50)]
        results = wait_all(futures)
        assert sorted(results) == list(range(1, 51))
        assert len(actor.obj.thread_ids) == 1
    finally:
        actor.stop()


def test_cross_actor_concurrency():
    actors = [ActorHandle(Counter(), name=f"a{i}") for i in range(4)]
    try:
        start = time.perf_counter()
        futures = [a.submit("slow", 0.2) for a in actors]
        wait_all(futures, timeout=5)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.6  # parallel, not 0.8s serial
    finally:
        for a in actors:
            a.stop()


def test_exception_propagates():
    actor = ActorHandle(Counter(), name="c")
    try:
        with pytest.raises(RuntimeError, match="kaboom"):
            actor.call("boom")
    finally:
        actor.stop()


def test_wait_all_fails_fast_on_exception():
    a, b = ActorHandle(Counter(), "a"), ActorHandle(Counter(), "b")
    try:
        futures = [b.submit("slow", 3.0), a.submit("boom")]
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="kaboom"):
            wait_all(futures, timeout=10)
        assert time.perf_counter() - start < 2.0
    finally:
        a.stop()
        b.stop()


def test_wait_all_timeout():
    actor = ActorHandle(Counter(), "slowpoke")
    try:
        with pytest.raises(TimeoutError):
            wait_all([actor.submit("slow", 2.0)], timeout=0.1)
    finally:
        actor.stop()


def test_stopped_actor_rejects_calls():
    actor = ActorHandle(Counter(), "c")
    actor.stop()
    with pytest.raises(RuntimeError, match="stopped"):
        actor.submit("bump")
