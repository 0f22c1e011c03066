"""Fused turns: the broker's choice to fuse must be invisible in results.

The ``memory://`` broker (and the ``redis://`` one, across the process
edge) stacks every turn it can prove exact into one batched tensor pass —
no option turns this on or sizes it.  Its entire
contract is *bitwise invisibility*: same records, same final state as
per-turn execution, for every scheduling policy — fusion may only change how
fast results arrive.  These tests pin that contract against the same spec
with ``MemoryBroker.fusable`` patched to ``False`` (and that fusion actually
engaged, so the identity is not vacuously comparing the per-turn path to
itself), that returning clients get the per-turn path's loader streams
back, that the runner's fusion verdict is computed once per payload schema,
that configurations which cannot fuse keep eager per-turn dispatch
and the pool-sized window and run one turn at a time on the caller's thread,
that a long run's turns all run at one stack depth, the pump's
defer-until-demand-or-window rule (by hand and under seeded random
interleavings), and that ``materialize_batches`` hands the runner the
DataLoader's own batches.
"""

import dataclasses
import random
import sys
import threading
import types

import numpy as np
import pytest

import repro.runtime.fused as fused_mod
from repro.data.dataloader import DataLoader, materialize_batches
from repro.data.dataset import ArrayDataset
from repro.engine.client_state import ClientStateStore
from repro.experiment import Experiment, ExperimentSpec
from repro.node.node import Node
from repro.runtime.broker import MemoryBroker, TurnBroker
from repro.runtime.pool import ClientPool

_WALL_FIELDS = ("wall_seconds",)

POLICIES = {
    "sync": {"name": "sync"},
    "fedasync": {"name": "fedasync", "heterogeneity": {
        "latency": "lognormal", "mean": 0.5, "sigma": 0.5,
    }},
    "fedbuff": {"name": "fedbuff", "buffer_size": 3, "heterogeneity": {
        "latency": "lognormal", "mean": 0.5, "sigma": 0.5,
    }},
}


def make_spec(policy, algorithm="fedavg", **overrides):
    spec = ExperimentSpec(
        topology="centralized",
        num_clients=8,
        pool_size=4,
        data={
            "dataset": "blobs",
            "kwargs": {"train_size": 256, "test_size": 64},
            "partition": "dirichlet",
            "partition_alpha": 0.5,
            "batch_size": 32,
        },
        train={
            "algorithm": algorithm,
            "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1},
            "model": "mlp",
            "global_rounds": 2,
        },
        scheduler=POLICIES[policy],
        total_updates=16,
        seed=0,
    )
    return dataclasses.replace(spec, **overrides)


def records_of(result):
    out = []
    for rec in result.history:
        d = rec.as_dict()
        for f in _WALL_FIELDS:
            d.pop(f, None)
        out.append(d)
    return out


def assert_identical(a, b):
    assert records_of(a) == records_of(b)
    assert set(a.final_state) == set(b.final_state)
    for key in a.final_state:
        np.testing.assert_array_equal(a.final_state[key], b.final_state[key],
                                      err_msg=key)


@pytest.fixture
def fused_batches(monkeypatch):
    """Sizes of every batch the fused runner ran."""
    sizes = []
    orig = fused_mod.FusedTurnRunner.run_batch

    def counting(self, jobs, baseline):
        sizes.append(len(jobs))
        return orig(self, jobs, baseline)

    monkeypatch.setattr(fused_mod.FusedTurnRunner, "run_batch", counting)
    return sizes


def run_per_turn(spec, monkeypatch):
    """The reference arm: the same spec with the broker refusing to fuse."""
    with monkeypatch.context() as patch:
        patch.setattr(MemoryBroker, "fusable", lambda self, ticket: False)
        return Experiment(spec).run()


# --------------------------------------------------------------------------
# the contract: fused == per-turn, bit for bit, and fusion really ran
# --------------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["sync", "fedasync", "fedbuff"])
def test_batched_turns_bit_identical_to_per_turn(policy, monkeypatch, fused_batches):
    plain = run_per_turn(make_spec(policy), monkeypatch)
    assert fused_batches == []  # nothing fusable: the runner must stay cold
    batched = Experiment(make_spec(policy)).run()
    assert fused_batches and max(fused_batches) > 1, "fusion never engaged"
    assert_identical(batched, plain)


def test_batched_turns_with_persistent_model_keys(monkeypatch, fused_batches):
    # fedper keeps personalization layers per client: fused swap-out must
    # persist exactly those keys, and results must still match per-turn
    plain = run_per_turn(make_spec("sync", algorithm="fedper"), monkeypatch)
    batched = Experiment(make_spec("sync", algorithm="fedper")).run()
    assert fused_batches and max(fused_batches) > 1
    assert_identical(batched, plain)


def test_a_stacked_pass_that_fails_reruns_per_turn_identically(monkeypatch):
    # the fallback rule the redis worker shares: every turn of the failed
    # pass reruns through the exact per-turn path from untouched state
    plain = run_per_turn(make_spec("fedasync"), monkeypatch)
    failed = []

    def failing(self, jobs, baseline):
        failed.append(len(jobs))
        raise FloatingPointError("injected failure in the stacked pass")

    monkeypatch.setattr(fused_mod.FusedTurnRunner, "run_batch", failing)
    rerun = Experiment(make_spec("fedasync")).run()
    assert failed and max(failed) > 1
    assert_identical(rerun, plain)


def test_fusion_ineligible_algorithm_falls_back_identically(monkeypatch, fused_batches):
    # scaffold carries per-client algo state, which rules fusion out: the
    # broker builds no runner, so patching ``fusable`` changes nothing
    plain = run_per_turn(make_spec("sync", algorithm="scaffold"), monkeypatch)
    unpatched = Experiment(make_spec("sync", algorithm="scaffold")).run()
    assert fused_batches == []
    assert_identical(unpatched, plain)


def test_one_runner_serves_fused_batches_and_singletons_on_one_node(monkeypatch, fused_batches):
    # the broker builds one runner from its node's context; with the window
    # squeezed to the pool-sized default, fused batches interleave with
    # per-turn singletons (demanded past the full window) on that one node,
    # whose own algorithm state the singletons swap in and out
    import repro.runtime.broker as broker_mod

    spec = make_spec("fedbuff", num_clients=24, total_updates=72)
    plain = run_per_turn(spec, monkeypatch)
    monkeypatch.setattr(broker_mod, "RESULT_BUDGET_BYTES", 0)
    experiment = Experiment(spec)
    squeezed = experiment.run()
    assert experiment.engine.pool._window == 2 * 4
    assert len(fused_batches) > 1 and max(fused_batches) > 1
    assert_identical(squeezed, plain)


def test_later_turn_batches_hand_back_the_per_turn_loader_streams(monkeypatch):
    # a batch restores every returning client's loader stream into one shared
    # generator and reads it back after that client's batches are drawn: each
    # new snapshot's loader_rng must be the state the per-turn path stores
    per_turn = {}
    orig_put = ClientStateStore.put

    def recording_put(self, client, snapshot):
        per_turn[(client, snapshot.turns)] = snapshot.loader_rng
        return orig_put(self, client, snapshot)

    spec = make_spec("sync")
    with monkeypatch.context() as patch:
        patch.setattr(ClientStateStore, "put", recording_put)
        run_per_turn(spec, monkeypatch)

    returning = []
    orig_run = fused_mod.FusedTurnRunner.run_batch

    def recording_run(self, jobs, baseline):
        results = orig_run(self, jobs, baseline)
        if len(jobs) > 1 and all(snapshot is not None for _, snapshot, _ in jobs):
            returning.append([(ticket.client, new.turns, new.loader_rng)
                              for (ticket, _, _), (_, new) in zip(jobs, results)])
        return results

    monkeypatch.setattr(fused_mod.FusedTurnRunner, "run_batch", recording_run)
    Experiment(spec).run()
    assert returning, "no fused batch of returning clients ran"
    for batch in returning:
        for client, turns, loader_rng in batch:
            assert turns > 1 and loader_rng == per_turn[(client, turns)]


# --------------------------------------------------------------------------
# the fusion verdict: a pure function of the payload's keys, cached per schema
# --------------------------------------------------------------------------
def _training_turn(payload):
    return types.SimpleNamespace(method="local_update", args=(payload, 0, 0), kwargs={}, client=0)


def test_the_fusion_verdict_is_a_function_of_the_payload_schema():
    from repro.engine.engine import Engine

    engine = Engine.from_spec(make_spec("fedasync"))
    try:
        broker = engine.pool.broker
        broker.start()
        runner = broker._runner
        assert runner is not None and not runner.persistent  # fedavg keeps no model key
        model = broker._baseline["model"]
        covering = {key: np.zeros_like(value) for key, value in model.items()}
        assert runner.turn_eligible(_training_turn(covering))
        # a missing non-persistent key is refused, with the covering schema cached
        lacking = dict(covering)
        del lacking[runner.state_keys[-1]]
        assert not runner.turn_eligible(_training_turn(lacking))
        # a new dict with the covering keys gets the cached verdict
        assert runner.turn_eligible(_training_turn(dict(covering)))
        assert len(runner._schemas) == 2
    finally:
        engine.shutdown()


def test_fused_round_start_keys_runs_once_per_schema(monkeypatch, fused_batches):
    # fedasync hands every dispatch a new payload (the version moves on each
    # merge); submits and batches alike must reuse the one schema's verdict
    from repro.algorithms.base import Algorithm

    schemas, payloads = [], {}
    orig_keys = Algorithm.fused_round_start_keys
    orig_eligible = fused_mod.FusedTurnRunner.turn_eligible

    def spy_keys(self, payload_keys):
        schemas.append(tuple(payload_keys))
        return orig_keys(self, payload_keys)

    def spy_eligible(self, ticket):
        payload = ticket.args[0] if ticket.args else None
        payloads[id(payload)] = payload  # held, so ids stay distinct
        return orig_eligible(self, ticket)

    monkeypatch.setattr(Algorithm, "fused_round_start_keys", spy_keys)
    monkeypatch.setattr(fused_mod.FusedTurnRunner, "turn_eligible", spy_eligible)
    Experiment(make_spec("fedasync", total_updates=32)).run()
    assert fused_batches and max(fused_batches) > 1
    assert len(payloads) > 2
    distinct = {tuple(p) for p in payloads.values() if isinstance(p, dict)}
    assert len(distinct) == 1 and schemas == list(distinct)


def _frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("fuses", [True, False], ids=["fused", "per-turn"])
def test_turn_one_and_turn_three_thousand_run_at_the_same_stack_depth(fuses, monkeypatch):
    # a completion re-pumps the pool, and on memory:// the turn it starts
    # runs on the same thread.  Were that a call from inside the completion,
    # every turn would sit a few frames deeper than the last; the run list
    # is drained by one loop instead, so depth does not grow with the run.
    # The run has its own thread so that a turn re-entering the pool lock it
    # already holds shows up as a hang, not a stuck suite.
    depths = []
    if fuses:
        run_batch = fused_mod.FusedTurnRunner.run_batch

        def deep(self, jobs, baseline):
            depths.append(_frame_depth())
            return run_batch(self, jobs, baseline)

        monkeypatch.setattr(fused_mod.FusedTurnRunner, "run_batch", deep)
    else:
        run_turn = Node.run_client_turn

        def deep(self, *args, **kwargs):
            depths.append(_frame_depth())
            return run_turn(self, *args, **kwargs)

        monkeypatch.setattr(MemoryBroker, "fusable", lambda self, ticket: False)
        monkeypatch.setattr(Node, "run_client_turn", deep)
    outcome = []
    runner = threading.Thread(target=lambda: outcome.append(
        Experiment(make_spec("fedasync", total_updates=3000)).run()), daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "the run deadlocked on the pool lock"
    assert outcome and outcome[0].metrics.total_applied() == 3000
    if fuses:
        # batches start from submit, result or drain: a frame apart at most
        assert len(depths) > 100 and max(depths) - min(depths) <= 1
    else:
        assert len(depths) >= 3000 and depths[2999] == depths[0]
        assert max(depths) == min(depths)


_RESNET = {
    "data": {"dataset": "cifar10", "kwargs": {"train_size": 48, "test_size": 16},
             "partition": "iid", "batch_size": 8},
    "train": {"algorithm": "fedavg", "model": "resnet18", "global_rounds": 1,
              "eval_every": 0,
              "algorithm_kwargs": {"lr": 0.02, "local_epochs": 1,
                                   "max_batches_per_epoch": 1}},
    "num_clients": 3, "pool_size": 2, "total_updates": 3,
}


@pytest.mark.parametrize("overrides", [
    pytest.param(_RESNET, id="resnet18"),
    pytest.param({"train": {**dataclasses.asdict(make_spec("sync").train),
                            "algorithm": "scaffold"}}, id="scaffold"),
    pytest.param({"plugins": {"compressor": "topk",
                              "compressor_kwargs": {"ratio": 4}}}, id="codec"),
    pytest.param({"attack": {"kind": "sign_flip", "fraction": 0.25}}, id="attacked"),
])
def test_configurations_that_do_not_fuse_keep_per_turn_dispatch(overrides, monkeypatch):
    """No runner, no ``execute_batch``, the pool-sized window, and one turn
    at a time on the caller's thread, however many dispatch slots the pool
    has: ``memory://`` runs every turn on the thread that pumps it."""
    monkeypatch.setattr(MemoryBroker, "execute_batch", lambda self, tickets: pytest.fail(
        "a configuration that cannot fuse reached execute_batch"))
    # count the turns inside run_client_turn at once: never more than one
    active, most, turns = [0], [0], [0]
    run_turn = Node.run_client_turn

    def one_at_a_time(self, *args, **kwargs):
        active[0] += 1
        turns[0] += 1
        most[0] = max(most[0], active[0])
        try:
            return run_turn(self, *args, **kwargs)
        finally:
            active[0] -= 1

    monkeypatch.setattr(Node, "run_client_turn", one_at_a_time)
    # dispatch is eager: the first pool_size turns start inside submit(),
    # before any consumer has blocked on a ticket
    depth, eager = [0], []
    submit, execute = ClientPool.submit, MemoryBroker.execute

    def submitting(self, *args, **kwargs):
        depth[0] += 1
        try:
            return submit(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    def executing(self, ticket):
        eager.append(depth[0] > 0 and not ticket.demanded)
        return execute(self, ticket)

    monkeypatch.setattr(ClientPool, "submit", submitting)
    monkeypatch.setattr(MemoryBroker, "execute", executing)

    experiment = Experiment(make_spec("sync", **overrides))
    experiment.run()
    pool = experiment.engine.pool
    assert pool.broker._runner is None
    assert pool._window == max(2 * pool.pool_size, 4) == TurnBroker.default_window(pool.broker)
    assert len(eager) >= pool.pool_size and all(eager[:pool.pool_size])
    assert turns[0] >= pool.pool_size and most[0] == 1


def test_a_fusing_configuration_sizes_its_window_in_bytes():
    from repro.runtime.broker import RESULT_BUDGET_BYTES

    experiment = Experiment(make_spec("sync"))
    result = experiment.run()
    pool = experiment.engine.pool
    nbytes = sum(a.nbytes for a in result.final_state.values())
    assert pool.broker._runner is not None
    assert pool._window == RESULT_BUDGET_BYTES // nbytes > 2 * pool.pool_size


# --------------------------------------------------------------------------
# pool-side plumbing: what defers, what fuses, what never does
# --------------------------------------------------------------------------
class StubBroker(TurnBroker):
    """Fuses training turns; a dispatch (single or batch) holds one of
    ``capacity`` slots until the test finishes it."""

    scheme = "stub"

    def __init__(self, capacity=1_000_000):
        super().__init__("stub://")
        self.store = ClientStateStore()
        self.singles = []
        self.batches = []
        self.running = []  # dispatches in flight: a list of tickets each
        self.completions = {}  # ticket -> times reported done
        self._capacity = capacity

    def start(self):
        pass

    def shutdown(self):
        pass

    @property
    def pool_size(self):
        return 4

    def capacity_free(self):
        return len(self.running) < self._capacity

    def fusable(self, ticket):
        return ticket.method == "local_update"

    def execute(self, ticket):
        self.singles.append(ticket)
        self.running.append([ticket])

    def execute_batch(self, tickets):
        assert len(tickets) > 1 and all(self.fusable(t) for t in tickets)
        self.batches.append(list(tickets))
        self.running.append(list(tickets))

    def finish(self, dispatch):
        """Complete one in-flight dispatch the way a real broker would."""
        for ticket in dispatch:
            self.completions[ticket] = self.completions.get(ticket, 0) + 1
        release = lambda: self.running.remove(dispatch)  # noqa: E731
        if len(dispatch) == 1:
            self.pool.turn_done(dispatch[0], "ok", None, release=release)
        else:
            self.pool.turns_done_batch([(t, "ok", None) for t in dispatch], release)

    def queue_depth(self):
        return len(self.running)

    def idle_workers(self):
        return self._capacity - len(self.running)


class NeverFuses(StubBroker):
    fusable = TurnBroker.fusable  # the contract's default: False

    def execute_batch(self, tickets):
        raise AssertionError("a broker whose fusable() is False saw execute_batch")


def make_pool(broker, window, num_clients=8):
    pool = ClientPool(num_clients, broker, None, window=window)
    pool.start()
    return pool


PAYLOAD = {"w": np.zeros(2)}


def test_pump_accumulates_until_a_full_batch_or_a_demand():
    broker = StubBroker()
    pool = make_pool(broker, window=3)
    t0 = pool.submit(0, "local_update", PAYLOAD, 0, 0)
    t1 = pool.submit(1, "local_update", PAYLOAD, 0, 0)
    # two of a window of three, nobody waiting: nothing may dispatch yet
    assert broker.singles == [] and broker.batches == []
    t2 = pool.submit(2, "local_update", PAYLOAD, 0, 0)
    # a window's worth is pending: one fused dispatch of all three
    assert broker.singles == [] and broker.batches == [[t0, t1, t2]]
    broker.finish(broker.running[0])
    assert [t.result(0) for t in (t0, t1, t2)] == ["ok"] * 3
    # accumulation starts over; a demanded turn does not wait for company
    # (a lone one dispatches as a plain single)
    t3 = pool.submit(3, "local_update", PAYLOAD, 0, 0)
    assert broker.singles == [] and len(broker.batches) == 1
    pool._demand(t3)
    assert broker.singles == [t3]
    # ...and takes every startable fusable head with it when there are some
    t4 = pool.submit(4, "local_update", PAYLOAD, 0, 0)
    t5 = pool.submit(5, "local_update", PAYLOAD, 0, 0)
    assert len(broker.batches) == 1
    pool._demand(t5)
    assert broker.batches[1:] == [[t5, t4]]


def test_broker_that_cannot_fuse_never_sees_execute_batch():
    # what replaced the batch_turns downgrade warning: nothing to downgrade,
    # every turn dispatches eagerly, alone, the moment it may start
    broker = NeverFuses()
    pool = make_pool(broker, window=8)
    tickets = [pool.submit(c, "local_update", PAYLOAD, 0, 0) for c in range(5)]
    assert broker.singles == tickets and all(not t.fusable for t in tickets)


def test_incompatible_turns_never_fuse():
    broker = StubBroker()
    pool = make_pool(broker, window=8)
    e0 = pool.submit(0, "evaluate", None, 4)  # not a training turn: eager
    assert broker.singles == [e0]
    t1 = pool.submit(1, "local_update", PAYLOAD, 0, 0)
    e2 = pool.submit(2, "evaluate", None, 4)
    t3 = pool.submit(3, "local_update", PAYLOAD, 0, 0)
    # a demanded training turn gathers the other training head and leaves the
    # evaluation between them to start on its own right after
    pool._demand(t1)
    assert broker.batches == [[t1, t3]]
    assert broker.singles == [e0, e2]


def test_redis_broker_matches_fused_memory_broker(fused_batches):
    # both sides fuse — in-process threads here, worker processes there,
    # which report the size of each stacked pass in their result frames —
    # and the outcomes match bit for bit (the cross-broker identity the
    # bench records rely on)
    from repro.runtime.miniredis import MiniRedis

    fused = Experiment(make_spec("fedasync")).run()
    assert fused_batches and max(fused_batches) > 1
    with MiniRedis() as server:
        experiment = Experiment(make_spec(
            "fedasync", broker=f"{server.url}?workers=2&lease=30", pool_size=None,
        ))
        over_redis = experiment.run()
    assert max(experiment.engine.pool.broker.describe()["batch_sizes"]) > 1
    assert_identical(over_redis, fused)


@pytest.mark.parametrize("seed", range(40))
def test_random_interleavings_keep_the_pool_invariants(seed):
    """submit / demand / consume / abandon / turn_done / turns_done_batch in
    a seeded random order: every ticket completes exactly once, turns
    admitted without demand never hold more than a window of unconsumed
    results, and nothing demanded stays pending while it could start."""
    rng = random.Random(seed)
    window, clients = rng.choice([1, 2, 4, 6]), rng.choice([3, 6, 12])
    broker = StubBroker(capacity=rng.choice([1, 2, 3]))
    pool = make_pool(broker, window=window, num_clients=clients)
    tickets, undemanded_admits = [], set()
    seen_started = set()

    def note_admissions():
        for dispatch in broker.running:
            for t in dispatch:
                if t not in seen_started:
                    seen_started.add(t)
                    if not t.demanded:
                        undemanded_admits.add(t)

    def check():
        note_admissions()
        assert all(n == 1 for n in broker.completions.values())
        assert sum(1 for t in undemanded_admits if not t._consumed) <= window
        if broker.capacity_free():
            running = {t.client for d in broker.running for t in d}
            for t in tickets:
                head = not t.started and pool._queues[t.client][0] is t
                assert not (head and t.demanded and t.client not in running), (
                    f"{t!r} is demanded, startable and still pending"
                )

    for _ in range(300):
        op = rng.random()
        waiting = [t for t in tickets if not t.done()]
        if op < 0.40 or not tickets:
            method = "local_update" if rng.random() < 0.8 else "evaluate"
            tickets.append(pool.submit(rng.randrange(clients), method, PAYLOAD, 0, 0))
        elif op < 0.55 and waiting:
            pool._demand(rng.choice(waiting))
        elif op < 0.65 and waiting:
            with pytest.raises(TimeoutError):  # demands, then abandons
                rng.choice(waiting).result(timeout=0)
        elif op < 0.80:
            ready = [t for t in tickets if t.done() and not t._consumed]
            if ready:
                assert rng.choice(ready).result(0) == "ok"
        elif broker.running:
            broker.finish(rng.choice(broker.running))
        check()

    # wind down the way a scheduler's drain does: block on every ticket
    for ticket in tickets:
        while not ticket.done():
            pool._demand(ticket)
            check()
            broker.finish(broker.running[0])
            check()
        assert ticket.result(0) == "ok"
    assert set(broker.completions) == set(tickets)
    assert all(n == 1 for n in broker.completions.values())
    assert pool._unconsumed == 0 and pool.pending_turns() == 0 and not broker.running


# --------------------------------------------------------------------------
# materialize_batches == DataLoader, batches and rng consumption both
# --------------------------------------------------------------------------
def loader_batches(dataset, batch_size, rng, epochs, cap=None):
    out = []
    for _ in range(epochs):
        for b, batch in enumerate(DataLoader(dataset, batch_size, shuffle=True,
                                             rng=rng)):
            if cap is not None and b >= cap:
                break
            out.append(batch)
    return out


@pytest.mark.parametrize("n,cap", [(10, None), (10, 2), (1, None), (7, 1)])
def test_materialize_batches_matches_dataloader(n, cap):
    x = np.arange(n * 3, dtype=np.float64).reshape(n, 3)
    y = np.arange(n) % 2
    ds = ArrayDataset(x, y)
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    got = materialize_batches(ds, 3, rng_a, epochs=2, max_batches=cap)
    want = loader_batches(ds, 3, rng_b, epochs=2, cap=cap)
    assert len(got) == len(want)
    for (gx, gy), (wx, wy) in zip(got, want):
        assert gx.dtype == wx.dtype and gy.dtype == wy.dtype
        np.testing.assert_array_equal(gx, wx)
        np.testing.assert_array_equal(gy, wy)
    # identical rng consumption: the next draw agrees (an epoch's shuffle is
    # drawn in full even when the cap truncates the epoch)
    assert rng_a.random() == rng_b.random()


# --------------------------------------------------------------------------
# the runner stacks and calls; it computes nothing itself
# --------------------------------------------------------------------------
def test_fused_runner_carries_no_arithmetic_of_its_own():
    # forward, backward and the optimizer step live in nn/ and are called on
    # the stacks; a matmul, exp, log, where or ``@`` in fused.py is a second
    # copy of a kernel growing back
    import ast

    tree = ast.parse(open(fused_mod.__file__, encoding="utf8").read())
    banned = {"matmul", "exp", "log", "where"}
    found = [
        f"line {node.lineno}: np.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in banned
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ] + [
        f"line {node.lineno}: @"
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not found, found
