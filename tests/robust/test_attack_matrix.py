"""Attack-matrix regression tests.

Every {attack} x {aggregator} x {policy} cell must run to completion with
the byzantine cohort actually counted, robust rules must recover accuracy
the plain mean loses under a sign-flip barrage, and ``attack.fraction: 0``
must be record-byte-identical to a spec with no attack block at all (the
attack machinery may not perturb any honest RNG stream).
"""

import numpy as np
import pytest

from repro import DataSpec, ExperimentSpec, SchedulerSpec, TrainSpec
from repro.engine import Engine

ATTACKS = ("label_flip", "sign_flip", "scaled_update")

AGGREGATORS = {
    "mean": None,
    "median": {"robust": "median"},
    "trimmed_mean": {"robust": "trimmed_mean", "kwargs": {"trim_ratio": 0.3}},
    "krum": {"robust": "krum"},
    "norm_clip": {"robust": "norm_clip", "kwargs": {"clip_norm": 2.0}},
}

POLICIES = ("sync", "fedasync", "gossip_async")

#: fields that measure the host machine, not the federation
_WALL_FIELDS = ("wall_seconds",)


def make_spec(
    port,
    policy,
    aggregation=None,
    attack=None,
    *,
    clients=4,
    train_size=192,
    rounds=2,
    eval_every=0,
    seed=0,
):
    return ExperimentSpec(
        topology="ring" if policy == "gossip_async" else "centralized",
        topology_kwargs={
            "num_clients": clients,
            "inner_comm": {"backend": "torchdist", "master_port": port},
        },
        data=DataSpec(
            dataset="blobs",
            kwargs={"train_size": train_size, "test_size": 64, "num_classes": 4},
            partition="iid",
        ),
        train=TrainSpec(
            algorithm="fedavg",
            algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
            model="mlp",
            global_rounds=rounds,
            eval_every=eval_every,
        ),
        scheduler=SchedulerSpec(name=policy),
        attack=attack,
        aggregation=aggregation,
        total_updates=rounds * clients,
        seed=seed,
    )


def _records(metrics):
    out = []
    for rec in metrics.history:
        d = rec.as_dict()
        for f in _WALL_FIELDS:
            d.pop(f, None)
        d["per_edge"] = dict(rec.per_edge)
        d["per_node"] = {k: dict(v) for k, v in rec.per_node.items()}
        out.append(d)
    return out


def run_spec(spec):
    eng = Engine.from_spec(spec)
    metrics = eng.run_async(total_updates=spec.total_updates)
    records = _records(metrics)
    state = {k: np.copy(v) for k, v in eng.global_state().items()}
    counters = eng.scheduler.robust_counters()
    eng.shutdown()
    return records, state, counters


# ----------------------------------------------------------------------------
# the full matrix: every cell completes and really runs its byzantine cohort
# ----------------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("aggregator", sorted(AGGREGATORS))
@pytest.mark.parametrize("attack_kind", ATTACKS)
def test_matrix_cell_runs_and_counts_attackers(
    fresh_port, attack_kind, aggregator, policy
):
    spec = make_spec(
        fresh_port,
        policy,
        AGGREGATORS[aggregator],
        {"kind": attack_kind, "fraction": 0.3, "scale": 5.0},
    )
    records, state, counters = run_spec(spec)
    assert records, "run produced no round records"
    assert all(np.all(np.isfinite(v)) for v in state.values())
    assert counters["attacked"] > 0, counters


# ----------------------------------------------------------------------------
# robust recovers what the mean loses
# ----------------------------------------------------------------------------
SIGN_FLIP = {"kind": "sign_flip", "fraction": 0.3, "scale": 10.0}


def _accuracy_run(port, policy, aggregation, attack):
    spec = make_spec(
        port,
        policy,
        aggregation,
        attack,
        clients=10,
        train_size=512,
        rounds=3,
        eval_every=1,
    )
    eng = Engine.from_spec(spec)
    eng.run_async(total_updates=spec.total_updates)
    _, accuracy = eng.evaluate()
    eng.shutdown()
    return float(accuracy)


@pytest.mark.parametrize("policy", ("sync", "fedasync"))
def test_robust_recovers_where_mean_degrades(fresh_port, policy):
    """30% sign-flip attackers: the undefended mean drops well below the
    clean baseline while the coordinate-wise median stays near it."""
    clean = _accuracy_run(fresh_port, policy, None, None)
    mean_attacked = _accuracy_run(fresh_port + 1, policy, None, SIGN_FLIP)
    median_attacked = _accuracy_run(
        fresh_port + 2, policy, AGGREGATORS["median"], SIGN_FLIP
    )
    assert clean > 0.8, clean  # blobs/MLP is an easy problem; sanity-check it
    assert median_attacked >= 0.8 * clean, (clean, median_attacked)
    assert mean_attacked < median_attacked, (mean_attacked, median_attacked)
    assert mean_attacked < 0.8 * clean, (clean, mean_attacked)


def _honest_peer_accuracy(eng):
    """Mean clean-test accuracy over the honest gossip peers' own models."""
    from repro.experiment import spec as spec_mod
    from repro.nn.tensor import Tensor

    datamodule = spec_mod.resolve_datamodule(eng.spec)
    model_fn = spec_mod.resolve_model_fn(eng.spec, datamodule)
    x = np.asarray(datamodule.test.x, dtype=np.float32)
    y = np.asarray(datamodule.test.y)
    sched, nodes = eng.scheduler, eng.nodes
    scores = []
    for peer in sched.peers:
        if nodes[sched._node_pos[peer]].is_attacker:
            continue
        model = model_fn()
        model.load_state_dict(sched.peer_states[peer], strict=False)
        model.eval()
        preds = np.argmax(model(Tensor(x)).data, axis=1)
        scores.append(float(np.mean(preds == y)))
    assert scores, "every peer was an attacker?"
    return float(np.mean(scores))


# The attacker's own model diverges by design (sign flip at scale 10): its
# logits overflow in the linear layer's GEMM and the overflowed rows turn to
# NaN in cross-entropy's max shift.  Both warnings are expected here and
# nowhere else.  This is the suite's only run with non-finite activations; the
# ones reaching relu are +-inf (NaN appears only after it, inside
# cross-entropy), so relu's NaN -> +0 is pinned by tests/nn/test_functional.py.
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_gossip_robust_mixing_protects_honest_peers(fresh_port):
    """On a gossip ring under sign-flip, median mixing keeps the honest
    peers' own models accurate; plain mixing lets the poison spread.

    One attacker on a 6-ring: pairwise gossip exchanges only ever pit one
    incoming state against the local one, so the median cannot out-vote a
    byzantine *majority* of a tiny exchange — the ring fraction stays below
    the rule's breakdown point instead."""

    def once(port, aggregation):
        spec = make_spec(
            port,
            "gossip_async",
            aggregation,
            {"kind": "sign_flip", "fraction": 0.17, "scale": 10.0},
            clients=6,
            train_size=512,
            rounds=4,
        )
        eng = Engine.from_spec(spec)
        eng.run_async(total_updates=spec.total_updates)
        accuracy = _honest_peer_accuracy(eng)
        eng.shutdown()
        return accuracy

    plain = once(fresh_port, None)
    robust = once(fresh_port + 1, AGGREGATORS["median"])
    assert robust > plain + 0.05, (plain, robust)
    assert robust > 0.8, robust


# ----------------------------------------------------------------------------
# attack.fraction: 0 must be indistinguishable from "no attack block"
# ----------------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES)
def test_fraction_zero_is_byte_identical_to_no_attack(fresh_port, policy):
    zero = run_spec(
        make_spec(
            fresh_port,
            policy,
            attack={"kind": "sign_flip", "fraction": 0.0, "scale": 5.0},
        )
    )
    none = run_spec(make_spec(fresh_port + 3, policy))
    recs_a, state_a, counters_a = zero
    recs_b, state_b, _ = none
    assert counters_a == {"attacked": 0, "clipped": 0, "rejected": 0}
    assert recs_a == recs_b
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert state_a[key].tobytes() == state_b[key].tobytes(), key


# ----------------------------------------------------------------------------
# attacked runs replay bit-identically (same config + seed, twice)
# ----------------------------------------------------------------------------
@pytest.mark.parametrize("aggregator", ("mean", "trimmed_mean"))
def test_attacked_runs_are_bitwise_deterministic(fresh_port, aggregator):
    def once(port):
        return run_spec(
            make_spec(
                port,
                "fedasync",
                AGGREGATORS[aggregator],
                {"kind": "scaled_update", "fraction": 0.3, "scale": 5.0},
            )
        )

    recs_a, state_a, counters_a = once(fresh_port)
    recs_b, state_b, counters_b = once(fresh_port + 1)
    assert recs_a == recs_b
    assert counters_a == counters_b and counters_a["attacked"] > 0
    for key in state_a:
        assert state_a[key].tobytes() == state_b[key].tobytes(), key
