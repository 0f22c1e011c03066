"""Minibatch iteration with deterministic shuffling.

Batches are stacked into contiguous float32/int64 arrays — the NumPy
substrate trains on whole batches, so the loader is where samples meet
vectorization (per the HPC guide: batch the work, don't loop per sample).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset, Dataset, Subset

__all__ = ["DataLoader", "materialize_batches"]


def materialize_batches(
    dataset: Dataset,
    batch_size: int,
    rng: np.random.Generator,
    epochs: int,
    max_batches: Optional[int] = None,
) -> list:
    """The ``(x, y)`` batches of ``epochs`` passes over
    ``DataLoader(dataset, batch_size, shuffle=True, rng=rng)``, each capped at
    ``max_batches`` (at least 1), as one flat list — what a fused client turn
    stacks.

    ``rng`` ends where the per-turn loop leaves it: every epoch's shuffle is
    drawn in full even when the cap truncates the epoch, and a capped epoch
    gathers no batch past its cap.
    """
    loader = DataLoader(dataset, batch_size, shuffle=True, rng=rng)
    return [batch for _ in range(epochs) for batch in islice(loader, max_batches)]


class DataLoader:
    """Iterate ``(x_batch, y_batch)`` pairs over a dataset.

    >>> ds = ArrayDataset(np.zeros((10, 3)), np.zeros(10, dtype=np.int64))
    >>> len(DataLoader(ds, batch_size=3))
    4
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 32,
        shuffle: bool = False,
        drop_last: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.rng = rng if rng is not None else np.random.default_rng()

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def _fast_arrays(self) -> Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        """Zero-copy access for the common Array/Subset-of-Array case:
        ``(x, y, rows)``, where sample ``i`` is row ``rows[i]`` of the backing
        arrays (``None``: row ``i``) — batches gather their own rows, so a
        turn copies what it reads, not the shard."""
        ds = self.dataset
        if isinstance(ds, ArrayDataset):
            return ds.x, ds.y, None
        if isinstance(ds, Subset) and isinstance(ds.dataset, ArrayDataset):
            return ds.dataset.x, ds.dataset.y, ds.indices
        return None

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self.rng.shuffle(order)
        fast = self._fast_arrays()
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                return
            if fast is not None:
                xs, ys, rows = fast
                if rows is not None:
                    idx = rows[idx]
                yield (
                    np.ascontiguousarray(xs[idx], dtype=np.float32),
                    np.ascontiguousarray(ys[idx], dtype=np.int64),
                )
            else:
                samples = [self.dataset[int(i)] for i in idx]
                x = np.stack([s[0] for s in samples]).astype(np.float32, copy=False)
                y = np.asarray([s[1] for s in samples], dtype=np.int64)
                yield x, y
