"""Lazy per-client partition views.

``ClientDataProvider`` computes the partition *index arrays* once (cheap:
integers, one pass over the labels) and materializes each client's dataset
view only when asked.  Dedicated-node engines fetch every view up front —
identical to the old eager path — while the client-pool runtime fetches a
view right before a client's turn and drops it right after, so a
1000-client cohort holds at most ``pool_size`` views (and, with
``feature_noniid``, at most ``pool_size`` spawned feature-shifted datasets)
in memory at a time.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from repro.data.dataset import Dataset, Subset

__all__ = ["ClientDataProvider"]


class ClientDataProvider:
    """Builds per-client training views of a datamodule on demand."""

    def __init__(
        self,
        datamodule,
        num_clients: int,
        partition: str = "iid",
        alpha: float = 0.5,
        seed: int = 0,
        feature_noniid: float = 0.0,
    ) -> None:
        self.datamodule = datamodule
        self.num_clients = int(num_clients)
        self.partition = partition
        self.alpha = float(alpha)
        self.seed = int(seed)
        self.feature_noniid = float(feature_noniid)
        self._indices: Optional[List[np.ndarray]] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def indices(self) -> List[np.ndarray]:
        """The partition's index arrays (computed once, then cached)."""
        cached = self._indices  # lock-free fast path: write-once, read-hot
        if cached is not None:
            return cached
        with self._lock:
            if self._indices is None:
                shards = self.datamodule.partition(
                    self.num_clients, self.partition, alpha=self.alpha, seed=self.seed
                )
                self._indices = [np.asarray(s.indices, dtype=np.int64) for s in shards]
            return self._indices

    def view(self, client: int) -> Dataset:
        """Client ``client``'s training view (a Subset, or — under feature
        non-IID — a freshly spawned feature-shifted dataset).

        Reproduces the eager path exactly: same partition arrays, same
        per-client spawn seed, so pooled and dedicated runs train on
        identical bytes.
        """
        client = int(client)
        if not (0 <= client < self.num_clients):
            raise IndexError(f"client {client} out of range [0, {self.num_clients})")
        subset = Subset(self.datamodule.train, self.indices()[client])
        if self.feature_noniid > 0.0 and hasattr(subset.dataset, "spawn"):
            # regenerate this client's shard with a per-site feature shift
            # (non-IID features; FedBN's setting)
            shift = self.datamodule.feature_shift_for(client, self.feature_noniid)
            return subset.dataset.spawn(
                len(subset), seed=self.seed + 1000 + client, feature_shift=shift
            )
        return subset
