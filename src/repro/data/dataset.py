"""Dataset containers: map-style access over arrays, subsets for partitions."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["Dataset", "ArrayDataset", "Subset"]


class Dataset:
    """Map-style dataset: ``len(ds)`` items, ``ds[i] -> (x, y)``."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError

    @property
    def labels(self) -> np.ndarray:
        """All labels as one array (partitioners need this without iteration)."""
        return np.asarray([self[i][1] for i in range(len(self))])


class ArrayDataset(Dataset):
    """Dataset over in-memory arrays."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        if len(x) != len(y):
            raise ValueError(f"x has {len(x)} samples but y has {len(y)}")
        self.x = np.asarray(x)
        self.y = np.asarray(y)

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.x[index], int(self.y[index])

    @property
    def labels(self) -> np.ndarray:
        return self.y


class Subset(Dataset):
    """View of a dataset restricted to ``indices`` (a client's shard)."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]) -> None:
        self.dataset = dataset
        self.indices = np.asarray(indices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.dataset[int(self.indices[index])]

    @property
    def labels(self) -> np.ndarray:
        return np.asarray(self.dataset.labels)[self.indices]
