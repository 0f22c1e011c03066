import threading

import pytest

from repro.utils.timer import SimClock


def test_sim_clock_buckets():
    c = SimClock()
    c.advance(1.5, "a")
    c.advance(0.5, "a")
    c.advance(2.0, "b")
    assert c.read("a") == pytest.approx(2.0)
    assert c.total == pytest.approx(4.0)
    assert c.snapshot() == {"a": 2.0, "b": 2.0}


def test_sim_clock_rejects_negative():
    c = SimClock()
    with pytest.raises(ValueError):
        c.advance(-1.0)


def test_sim_clock_thread_safety():
    c = SimClock()

    def work():
        for _ in range(1000):
            c.advance(0.001, "x")

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.read("x") == pytest.approx(8.0, rel=1e-6)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_sim_clock_rejects_non_finite(bad):
    c = SimClock()
    with pytest.raises(ValueError):
        c.advance(bad)
    assert c.total == 0.0


def test_sim_clock_readings_do_not_depend_on_charge_order():
    """Two site heads charge the same bucket from their own threads, in
    whichever order they arrive; a round's ``sim_comm_seconds`` must not
    depend on who won.  One multiset of charges, many orders and thread
    interleavings: every reading is the same float, bit for bit."""
    import math
    import random
    import sys

    rnd = random.Random(7)
    charges = [(rnd.choice([1e-9, 3.3e-5, 0.1, 0.3384468333333333, 7.0, 1e9]) * rnd.random(),
                rnd.choice(["rpc", "broadcast", "gather"])) for _ in range(600)]
    charges += [(0.1, "rpc")] * 10 + [(0.0, "idle")]

    def run(order, threads):
        clock = SimClock()
        shares = [order[i::threads] for i in range(threads)]

        def work(share):
            for seconds, label in share:
                clock.advance(seconds, label)

        workers = [threading.Thread(target=work, args=(s,)) for s in shares]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in workers)
        return clock.total, {lb: clock.read(lb) for lb in ("rpc", "broadcast", "gather", "idle")}, clock.snapshot()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        baseline = run(charges, 1)
        for trial in range(12):
            order = charges[:]
            rnd.shuffle(order)
            assert run(order, 1 + trial % 5) == baseline
    finally:
        sys.setswitchinterval(old_interval)
    total, reads, snapshot = baseline
    assert reads == snapshot
    # and the one value every order agrees on is the correctly rounded sum
    assert total == math.fsum(s for s, _ in charges)
    assert reads["rpc"] == math.fsum(s for s, lb in charges if lb == "rpc")
    # which plain left-to-right addition does not deliver for these charges
    naive = {sum(s for s, lb in order if lb == "rpc")
             for order in (charges, charges[::-1], sorted(charges))}
    assert len(naive) > 1
