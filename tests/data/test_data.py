import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    Dataset,
    Subset,
    SyntheticImageDataset,
    build_datamodule,
    make_tabular_classification,
)
from repro.data.dataloader import materialize_batches


# ------------------------------------------------------------ datasets
def test_array_dataset_basics(rng):
    x = rng.standard_normal((10, 3)).astype(np.float32)
    y = np.arange(10) % 3
    ds = ArrayDataset(x, y)
    assert len(ds) == 10
    sample, label = ds[4]
    assert np.allclose(sample, x[4]) and label == 4 % 3
    assert np.array_equal(ds.labels, y)


def test_array_dataset_length_mismatch():
    with pytest.raises(ValueError):
        ArrayDataset(np.zeros((3, 2)), np.zeros(4))


def test_subset_view(rng):
    ds = ArrayDataset(np.arange(20).reshape(10, 2).astype(np.float32), np.arange(10))
    sub = Subset(ds, [2, 5, 7])
    assert len(sub) == 3
    assert sub[1][1] == 5
    assert np.array_equal(sub.labels, [2, 5, 7])


# ------------------------------------------------------------ dataloader
def test_dataloader_batching(rng):
    ds = ArrayDataset(np.arange(10, dtype=np.float32).reshape(10, 1), np.arange(10))
    dl = DataLoader(ds, batch_size=4)
    batches = list(dl)
    assert [len(b[1]) for b in batches] == [4, 4, 2]
    assert len(dl) == 3


def test_dataloader_drop_last(rng):
    ds = ArrayDataset(np.zeros((10, 1), np.float32), np.zeros(10))
    dl = DataLoader(ds, batch_size=4, drop_last=True)
    assert len(dl) == 2
    assert len(list(dl)) == 2


def test_dataloader_shuffle_deterministic():
    ds = ArrayDataset(np.arange(8, dtype=np.float32).reshape(8, 1), np.arange(8))
    a = [b[1].tolist() for b in DataLoader(ds, 8, shuffle=True, rng=np.random.default_rng(1))]
    b = [b[1].tolist() for b in DataLoader(ds, 8, shuffle=True, rng=np.random.default_rng(1))]
    assert a == b
    c = [b[1].tolist() for b in DataLoader(ds, 8, shuffle=True, rng=np.random.default_rng(2))]
    assert a != c


def test_dataloader_dtypes(rng):
    ds = ArrayDataset(np.zeros((6, 2), np.float64), np.zeros(6, np.int32))
    x, y = next(iter(DataLoader(ds, 3)))
    assert x.dtype == np.float32 and y.dtype == np.int64


def test_dataloader_subset_fast_path_matches_slow(rng):
    base = ArrayDataset(rng.standard_normal((12, 2)).astype(np.float32), np.arange(12))
    sub = Subset(base, [1, 3, 5, 7])
    fast = list(DataLoader(sub, 2))
    # force the slow path: a plain Dataset has no backing arrays to gather from
    class Plain(Dataset):
        def __len__(self):
            return len(base)

        def __getitem__(self, index):
            return base[index]

    slow = list(DataLoader(Subset(Plain(), [1, 3, 5, 7]), 2))
    for (xf, yf), (xs, ys) in zip(fast, slow):
        assert np.allclose(xf, xs) and np.array_equal(yf, ys)


def test_subset_loader_gathers_the_batch_not_the_shard(rng):
    """Same batches as gathering the whole shard first and indexing into the
    copy — values, order, stream — but the backing array is asked for one
    batch of rows at a time, for the loader and for ``materialize_batches``."""

    class Counting(np.ndarray):
        rows = 0

        def __getitem__(self, idx):
            out = super().__getitem__(idx)
            Counting.rows += len(out)
            return out

    base = ArrayDataset(rng.standard_normal((64, 3)).astype(np.float32), np.arange(64))
    shard = Subset(base, rng.permutation(64)[:40])
    order = np.arange(40)
    np.random.default_rng(1).shuffle(order)
    want_x, want_y = base.x[shard.indices][order], base.y[shard.indices][order]
    base.x = base.x.view(Counting)

    loader_rng = np.random.default_rng(1)
    x, y = next(iter(DataLoader(shard, 4, shuffle=True, rng=loader_rng)))
    assert Counting.rows == 4
    assert np.array_equal(x, want_x[:4]) and np.array_equal(y, want_y[:4])
    assert type(x) is np.ndarray and x.flags["C_CONTIGUOUS"]

    Counting.rows = 0
    fused_rng = np.random.default_rng(1)
    batches = materialize_batches(shard, 4, fused_rng, epochs=1, max_batches=3)
    assert Counting.rows == 12
    for b, (bx, by) in enumerate(batches):
        assert np.array_equal(bx, want_x[4 * b:4 * b + 4]) and np.array_equal(by, want_y[4 * b:4 * b + 4])
    assert fused_rng.random() == loader_rng.random()

    # a one-sample shard shuffles nothing and still reads its own row
    (bx, by), = materialize_batches(Subset(base, [17]), 4, fused_rng, epochs=1)
    assert np.array_equal(bx, np.asarray(base.x)[[17]]) and by.tolist() == [17]


def test_dataloader_invalid_batch_size():
    with pytest.raises(ValueError):
        DataLoader(ArrayDataset(np.zeros((2, 1)), np.zeros(2)), batch_size=0)


# ------------------------------------------------------------ synthetic tasks
def test_synthetic_images_shapes():
    ds = SyntheticImageDataset(50, num_classes=5, image_size=8, channels=3, seed=1)
    x, y = ds[0]
    assert x.shape == (3, 8, 8)
    assert set(np.unique(ds.labels)).issubset(set(range(5)))


def test_synthetic_task_is_learnable_signal():
    # same class => same prototype: within-class distance < between-class
    ds = SyntheticImageDataset(200, num_classes=4, image_size=8, noise=0.3, seed=0)
    x, y = ds.x, ds.y
    within, between = [], []
    for c in range(4):
        cls = x[y == c]
        other = x[y != c]
        centroid = cls.mean(axis=0)
        within.append(np.sqrt(((cls - centroid) ** 2).sum(axis=(1, 2, 3))).mean())
        between.append(np.sqrt(((other - centroid) ** 2).sum(axis=(1, 2, 3))).mean())
    assert np.mean(within) < np.mean(between)


def test_spawn_shares_prototypes():
    ds = SyntheticImageDataset(20, num_classes=3, image_size=8, seed=0)
    test_split = ds.spawn(10, seed=99)
    assert np.array_equal(ds.prototypes, test_split.prototypes)


def test_feature_shift_changes_statistics():
    ds = SyntheticImageDataset(64, num_classes=3, image_size=8, seed=0)
    shifted = ds.spawn(64, seed=1, feature_shift=(np.array([2.0, 1.0, 1.0]), np.array([0.5, 0.0, 0.0])))
    assert shifted.x[:, 0].std() > 1.5 * ds.x[:, 0].std()


def test_tabular_blobs_reuse_centers(rng):
    x1, y1, centers = make_tabular_classification(50, 4, 8, rng=rng)
    x2, y2, _ = make_tabular_classification(50, 4, 8, rng=rng, centers=centers)
    assert x1.shape == (50, 8) and x2.shape == (50, 8)


# ------------------------------------------------------------ datamodules
@pytest.mark.parametrize(
    "name,classes", [("cifar10", 10), ("cifar100", 100), ("caltech101", 101), ("caltech256", 256)]
)
def test_datamodules_match_paper_class_counts(name, classes):
    dm = build_datamodule(name, train_size=64, test_size=32, num_classes=classes)
    assert dm.num_classes == classes
    assert dm.in_channels == 3
    assert len(dm.train) == 64 and len(dm.test) == 32


def test_datamodule_partition_strategies():
    dm = build_datamodule("cifar10", train_size=120, test_size=16)
    for strategy in ["iid", "dirichlet", "label_skew", "quantity_skew"]:
        shards = dm.partition(4, strategy)
        assert sum(len(s) for s in shards) == 120


def test_datamodule_unknown_strategy():
    dm = build_datamodule("blobs", train_size=32, test_size=8)
    with pytest.raises(ValueError, match="strategy"):
        dm.partition(2, "bogus")


def test_blobs_exposes_in_features():
    dm = build_datamodule("blobs", train_size=32, test_size=8, n_features=12)
    assert dm.in_features == 12


def test_feature_shift_deterministic_per_client():
    dm = build_datamodule("cifar10", train_size=32, test_size=8)
    g1, o1 = dm.feature_shift_for(3)
    g2, o2 = dm.feature_shift_for(3)
    assert np.array_equal(g1, g2) and np.array_equal(o1, o2)
    g3, _ = dm.feature_shift_for(4)
    assert not np.array_equal(g1, g3)
