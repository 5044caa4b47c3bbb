"""Partitions, synthetic clusters, and IDX file handling."""
import gzip

import numpy as np
import pytest

from slowcal_lab.data import (
    IdxFormatError,
    dirichlet_partition,
    load_mnist,
    parse_idx_images,
    parse_idx_labels,
    serialize_idx_images,
    serialize_idx_labels,
    synth_clusters,
)


def balanced_labels(n, num_classes=10):
    return np.arange(n, dtype=np.int64) % num_classes


class TestDirichletPartition:
    def test_partition_is_a_bijection_on_indices(self):
        labels = balanced_labels(500)
        part = dirichlet_partition(labels, 8, alpha=0.3, seed=0)
        assert all(np.array_equal(idx, np.sort(idx)) for idx in part)
        merged = np.concatenate(part)
        assert len(merged) == 500
        np.testing.assert_array_equal(np.sort(merged), np.arange(500))

    def test_partition_is_deterministic(self):
        labels = balanced_labels(300)
        a = dirichlet_partition(labels, 5, alpha=0.5, seed=7)
        b = dirichlet_partition(labels, 5, alpha=0.5, seed=7)
        for ia, ib in zip(a, b):
            np.testing.assert_array_equal(ia, ib)
        c = dirichlet_partition(labels, 5, alpha=0.5, seed=8)
        assert any(
            not np.array_equal(ia, ic)
            for ia, ic in zip(a, c)
        )

    def test_every_machine_gets_at_least_one_example(self):
        # tiny alpha on a tiny pool forces the empty-machine repair path
        labels = balanced_labels(12, num_classes=2)
        for seed in range(20):
            part = dirichlet_partition(labels, 12, alpha=0.01, seed=seed)
            assert min(len(idx) for idx in part) >= 1
            merged = np.concatenate(part)
            np.testing.assert_array_equal(np.sort(merged), np.arange(12))

    def test_small_alpha_concentrates_labels(self):
        labels = balanced_labels(4000)
        def top_share(alpha):
            part = dirichlet_partition(labels, 8, alpha=alpha, seed=3)
            shares = []
            for idx in part:
                counts = np.bincount(labels[idx], minlength=10)
                shares.append(counts.max() / counts.sum())
            return float(np.mean(shares))
        assert top_share(0.05) > top_share(100.0) + 0.2

    def test_validation_errors(self):
        labels = balanced_labels(10)
        with pytest.raises(ValueError):
            dirichlet_partition(labels, 0, alpha=1.0, seed=0)
        with pytest.raises(ValueError):
            dirichlet_partition(labels, 2, alpha=0.0, seed=0)
        with pytest.raises(ValueError):
            dirichlet_partition(labels, 11, alpha=1.0, seed=0)


class TestSynthClusters:
    def test_shapes_and_label_range(self):
        features, labels = synth_clusters(4, dim=6, num_classes=3, spread=0.3,
                                          per_machine_skew=0.5, seed=0)
        assert len(features) == len(labels) == 4
        assert sum(len(f) for f in features) == 4 * 64
        for f, l in zip(features, labels):
            assert f.dtype == np.float64 and f.shape == (len(l), 6)
            assert l.dtype == np.int64
            assert l.min() >= 0 and l.max() < 3

    def test_deterministic(self):
        a = synth_clusters(3, dim=5, num_classes=2, spread=0.2,
                           per_machine_skew=1.0, seed=4)
        b = synth_clusters(3, dim=5, num_classes=2, spread=0.2,
                           per_machine_skew=1.0, seed=4)
        for blocks_a, blocks_b in zip(a, b):
            for xa, xb in zip(blocks_a, blocks_b, strict=True):
                np.testing.assert_array_equal(xa, xb)

    def test_clusters_are_separable_at_low_spread(self):
        # class means are unit basis vectors, so nearest-mean classification
        # should be nearly perfect when the noise is small
        features, labels = synth_clusters(4, dim=10, num_classes=4, spread=0.2,
                                          per_machine_skew=1.0, seed=1)
        feats = np.concatenate(features)
        labs = np.concatenate(labels)
        means = np.zeros((4, 10))
        means[np.arange(4), np.arange(4)] = 1.0
        pred = np.argmin(
            ((feats[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert (pred == labs).mean() >= 0.9

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            synth_clusters(2, dim=4, num_classes=1, spread=0.1,
                           per_machine_skew=1.0, seed=0)
        with pytest.raises(ValueError):
            synth_clusters(2, dim=2, num_classes=4, spread=0.1,
                           per_machine_skew=1.0, seed=0)
        with pytest.raises(ValueError):
            synth_clusters(2, dim=4, num_classes=2, spread=-0.5,
                           per_machine_skew=1.0, seed=0)


class TestIdxFiles:
    def test_images_round_trip_bit_exactly(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(7, 12), dtype=np.uint8)
        pixels = raw.astype(np.float64) / 255.0
        blob = serialize_idx_images(pixels, rows=4, cols=3)
        back = parse_idx_images(blob)
        np.testing.assert_array_equal(back, pixels)
        assert serialize_idx_images(back, rows=4, cols=3) == blob

    def test_labels_round_trip(self):
        labs = np.array([0, 9, 3, 3, 7], dtype=np.int64)
        np.testing.assert_array_equal(parse_idx_labels(serialize_idx_labels(labs)), labs)

    def test_bad_magic_rejected(self):
        # long enough that the image header parses, but with the label magic
        blob = serialize_idx_labels(np.arange(20) % 10)
        with pytest.raises(IdxFormatError, match="magic"):
            parse_idx_images(blob)
        blob = serialize_idx_images(np.zeros((1, 4)), rows=2, cols=2)
        with pytest.raises(IdxFormatError, match="magic"):
            parse_idx_labels(blob)

    def test_truncated_payloads_rejected(self):
        blob = serialize_idx_images(np.zeros((3, 4)), rows=2, cols=2)
        with pytest.raises(IdxFormatError, match="truncated"):
            parse_idx_images(blob[:-1])
        with pytest.raises(IdxFormatError, match="truncated"):
            parse_idx_images(blob[:10])
        labs = serialize_idx_labels(np.array([1, 2, 3]))
        with pytest.raises(IdxFormatError, match="truncated"):
            parse_idx_labels(labs[:-1])

    def test_shape_mismatch_rejected_on_serialize(self):
        with pytest.raises(ValueError):
            serialize_idx_images(np.zeros((2, 5)), rows=2, cols=2)


def write_mnist_fixture(root, n_train=40, n_test=16, gzipped=False):
    rng = np.random.default_rng(2)
    train = rng.integers(0, 256, size=(n_train, 6), dtype=np.uint8)
    test = rng.integers(0, 256, size=(n_test, 6), dtype=np.uint8)
    train_y = balanced_labels(n_train)
    test_y = balanced_labels(n_test)
    blobs = {
        "train-images-idx3-ubyte": serialize_idx_images(train / 255.0, rows=2, cols=3),
        "train-labels-idx1-ubyte": serialize_idx_labels(train_y),
        "t10k-images-idx3-ubyte": serialize_idx_images(test / 255.0, rows=2, cols=3),
        "t10k-labels-idx1-ubyte": serialize_idx_labels(test_y),
    }
    for stem, blob in blobs.items():
        if gzipped:
            (root / (stem + ".gz")).write_bytes(gzip.compress(blob))
        else:
            (root / stem).write_bytes(blob)
    return train / 255.0, train_y, test / 255.0, test_y


class TestLoadMnist:
    def test_loads_plain_files(self, tmp_path):
        want = write_mnist_fixture(tmp_path)
        got = load_mnist(tmp_path)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)

    def test_loads_gzipped_files(self, tmp_path):
        want = write_mnist_fixture(tmp_path, gzipped=True)
        got = load_mnist(tmp_path)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)

    def test_missing_file_is_reported(self, tmp_path):
        write_mnist_fixture(tmp_path)
        (tmp_path / "t10k-labels-idx1-ubyte").unlink()
        with pytest.raises(FileNotFoundError, match="t10k-labels"):
            load_mnist(tmp_path)
