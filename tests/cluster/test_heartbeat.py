"""Heartbeater: periodic beats, stop propagation, failure accounting."""

import time

import pytest

from repro.cluster.heartbeat import Heartbeater


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_beats_flow_and_counter_advances():
    beats = []

    def beat():
        beats.append(1)
        return {"ok": True}

    hb = Heartbeater(beat, period=0.02).start()
    try:
        assert wait_for(lambda: hb.beats_sent >= 3)
    finally:
        hb.stop()
    assert not hb.stopped.is_set()
    assert not hb.lost.is_set()


def test_stop_flag_in_reply_fires_on_stop_once():
    beats = []

    def beat():
        beats.append(1)
        return {"ok": True, "stop": True}

    hb = Heartbeater(beat, period=0.02).start()
    try:
        assert wait_for(hb.stopped.is_set)
        time.sleep(0.1)  # several periods: a loop still running would beat again
    finally:
        hb.stop()
    assert beats == [1]
    assert not hb.lost.is_set()


def test_membership_revoked_sets_lost():
    hb = Heartbeater(lambda: {"ok": False}, period=0.02).start()
    try:
        assert wait_for(hb.lost.is_set)
        assert not hb.stopped.is_set()
    finally:
        hb.stop()


def test_transient_failures_are_forgiven():
    state = {"n": 0}

    def flaky():
        state["n"] += 1
        if state["n"] % 2:  # every other beat fails
            raise ConnectionError("blip")
        return {"ok": True}

    hb = Heartbeater(flaky, period=0.01, max_failures=3).start()
    try:
        assert wait_for(lambda: hb.beats_sent >= 4)
        assert not hb.lost.is_set()
    finally:
        hb.stop()


def test_consecutive_failures_declare_coordinator_lost():
    def dead():
        raise ConnectionError("gone")

    hb = Heartbeater(dead, period=0.01, max_failures=3).start()
    try:
        assert wait_for(hb.lost.is_set)
    finally:
        hb.stop()


def test_rejects_non_positive_period():
    with pytest.raises(ValueError):
        Heartbeater(lambda: {"ok": True}, period=0.0)
