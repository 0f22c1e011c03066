"""One shared worker node serving several logical clients in turn must draw
exactly what a dedicated node per client draws: a swap-in assigns the
snapshot's generator state to the worker's two generators instead of building
new ones, so nothing of the previous client may survive in them."""

import copy

import numpy as np

from repro.algorithms.base import build_algorithm
from repro.data.dataset import ArrayDataset
from repro.models.registry import build_model
from repro.node.node import Node
from repro.topology.base import NodeRole, NodeSpec

SEED = 123


class _DrawingNode(Node):
    def draw(self):
        """A turn that consumes both per-client streams: fault coins, then
        one shuffled batch."""
        coins = self._rng.random(3)
        _, labels = next(iter(self.train_loader()))
        return coins, labels


def _node(shard):
    node = _DrawingNode(
        spec=NodeSpec(name=f"n{shard}", index=1, role=NodeRole.TRAINER, shard=shard),
        model=build_model("mlp", num_classes=4, in_features=8, seed=0),
        algorithm=build_algorithm("fedavg"),
        batch_size=4,
        seed=SEED,
    )
    node.setup_local()
    return node


def _shard(client):
    # labels name the sample, so a batch shows both whose data and which order
    x = np.zeros((12, 8), dtype=np.float32)
    return ArrayDataset(x, np.arange(12, dtype=np.int64) + 100 * client)


def test_shared_worker_draws_what_dedicated_nodes_draw():
    worker = _node(shard=None)
    baseline = worker.pool_baseline()
    dedicated, snapshots = {}, {}
    # 5's first turn falls between later turns of 3 and 8
    for client in (3, 8, 3, 5, 8, 3, 5):
        if client not in dedicated:
            dedicated[client] = _node(shard=client)
            dedicated[client].train_dataset = _shard(client)
        want_coins, want_labels = dedicated[client].draw()

        (coins, labels), error, snapshot = worker.run_client_turn(
            client, snapshots.get(client), _shard(client), baseline, "draw"
        )
        assert error is None
        snapshots[client] = snapshot
        np.testing.assert_array_equal(coins, want_coins)
        np.testing.assert_array_equal(labels, want_labels)
        assert snapshot.fault_rng == dedicated[client]._rng.bit_generator.state
        assert snapshot.loader_rng == dedicated[client]._loader_rng.bit_generator.state
    assert worker._rng is not worker._loader_rng


def test_snapshot_does_not_alias_the_reused_generator():
    """A stored snapshot must stay what it was when the worker's generators
    move on under the next client."""
    worker = _node(shard=None)
    baseline = worker.pool_baseline()
    _, _, first = worker.run_client_turn(3, None, _shard(3), baseline, "draw")
    kept = copy.deepcopy((first.fault_rng, first.loader_rng))
    _, _, second = worker.run_client_turn(3, first, _shard(3), baseline, "draw")
    worker.run_client_turn(8, None, _shard(8), baseline, "draw")
    assert (first.fault_rng, first.loader_rng) == kept
    assert second.loader_rng != first.loader_rng
