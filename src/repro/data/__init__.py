"""Data substrate: datasets, loaders, partitioners.

Substitutes for torchvision datasets + torch DataLoader.  Synthetic image
tasks stand in for CIFAR10/CIFAR100/Caltech101/Caltech256 with matched class
counts and channel layout; partitioners create the IID/non-IID client splits
FL experiments need.
"""

from repro.data.dataloader import DataLoader
from repro.data.dataset import ArrayDataset, Dataset, Subset
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    label_skew_partition,
    quantity_skew_partition,
)
from repro.data.registry import DATAMODULES, DataModule, build_datamodule
from repro.data.synthetic import (
    SyntheticImageDataset,
    make_image_classification,
    make_tabular_classification,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "DataLoader",
    "iid_partition",
    "dirichlet_partition",
    "label_skew_partition",
    "quantity_skew_partition",
    "DATAMODULES",
    "DataModule",
    "build_datamodule",
    "SyntheticImageDataset",
    "make_image_classification",
    "make_tabular_classification",
]
