"""The four workloads as plain spec mappings (no program import: the
adapter turns them into ``ExperimentSpec``).  ``seed`` feeds both the run
seed and the data seed; no spec sets ``mode`` — it stays derived."""

from __future__ import annotations

from typing import Any, Callable, Dict

#: stands for "the adapter's MiniRedis, one external worker"; the adapter
#: swaps in the real URL (port, run namespace) when it builds the engine
REDIS_PLACEHOLDER = "redis://bench"

_LOGNORMAL = {"latency": "lognormal", "mean": 1.0, "sigma": 0.5}


def _pool_federation(seed: int, clients: int, concurrency: int) -> Dict[str, Any]:
    """fedasync over a tiny MLP, one 4-sample batch per turn: the turn's
    training is so small that selection, dispatch, queueing and state swaps
    are most of its cost."""
    return {
        "topology": "centralized",
        "num_clients": clients,
        "data": {
            "dataset": "blobs",
            "kwargs": {"train_size": 4 * clients, "test_size": 128, "seed": seed},
            "partition": "iid",
            "batch_size": 4,
        },
        "train": {
            "algorithm": "fedavg",
            "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1, "max_batches_per_epoch": 1},
            "model": "mlp",
            "global_rounds": 1,
            "eval_every": 0,
        },
        # bounded concurrency: an unbounded window trains the whole cohort
        # and throws all but the applied updates away (ROADMAP 1(a))
        "scheduler": {"name": "fedasync", "concurrency": concurrency,
                      "heterogeneity": dict(_LOGNORMAL)},
        "seed": seed,
    }


def pool_async(seed: int) -> Dict[str, Any]:
    spec = _pool_federation(seed, clients=2000, concurrency=8)
    spec["pool_size"] = 2
    return spec


def redis_worker(seed: int, clients: int = 256) -> Dict[str, Any]:
    spec = _pool_federation(seed, clients=clients, concurrency=4)
    spec["broker"] = REDIS_PLACEHOLDER
    return spec


def train_sync(seed: int) -> Dict[str, Any]:
    return {
        "topology": "centralized",
        "num_clients": 4,
        "pool_size": 2,
        "data": {
            "dataset": "cifar10",
            "kwargs": {"train_size": 256, "test_size": 64, "seed": seed},
            "partition": "iid",
            "batch_size": 16,
        },
        "train": {
            "algorithm": "fedavg",
            "algorithm_kwargs": {"lr": 0.02, "local_epochs": 1, "max_batches_per_epoch": 1},
            "model": "resnet18",
            "global_rounds": 1,
            "eval_every": 1,
            "eval_max_batches": 1,
        },
        "scheduler": {"name": "sync"},
        "aggregation": {"robust": "trimmed_mean"},
        "seed": seed,
    }


def hier_rounds(seed: int) -> Dict[str, Any]:
    return {
        "topology": "hierarchical",
        "topology_kwargs": {
            "num_sites": 2,
            "clients_per_site": 3,
            "inner_comm": {"backend": "torchdist", "master_port": 29500,
                           "network_preset": "hpc_interconnect"},
            "outer_comm": {"backend": "grpc", "master_port": 30000,
                           "transport": "inproc", "network_preset": "wan"},
        },
        "data": {
            "dataset": "blobs",
            "kwargs": {"train_size": 768, "test_size": 64, "n_features": 64, "seed": seed},
            "partition": "iid",
            "batch_size": 8,
        },
        "train": {
            "algorithm": "fedavg",
            "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1, "max_batches_per_epoch": 1},
            "model": "mlp",
            "model_kwargs": {"hidden": [128, 128]},
            "global_rounds": 1,
            "eval_every": 0,
        },
        "plugins": {"compressor": "topk", "compressor_kwargs": {"ratio": 10}},
        "seed": seed,
    }


SPECS: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "pool_async": pool_async,
    "train_sync": train_sync,
    "hier_rounds": hier_rounds,
    "redis_worker": redis_worker,
}
