"""Partitions, synthetic clusters, and IDX file handling."""
import gzip
import struct

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
        features, labels, sizes = synth_clusters(4, dim=6, num_classes=3, spread=0.3,
                                                 per_machine_skew=0.5, seed=0)
        assert len(sizes) == 4 and sum(sizes) == 4 * 64
        assert features.dtype == np.float64 and features.shape == (4 * 64, 6)
        assert labels.dtype == np.int64 and labels.shape == (4 * 64,)
        assert labels.min() >= 0 and labels.max() < 3

    def test_rows_are_dealt_in_machine_order(self):
        # machine i's rows are the pool's rows of its partition indices, in order
        num_machines, n_per_machine, seed = 3, 20, 4
        features, labels, sizes = synth_clusters(num_machines, dim=5, num_classes=2,
                                                 spread=0.2, per_machine_skew=1.0, seed=seed,
                                                 n_per_machine=n_per_machine)
        pool = np.arange(num_machines * n_per_machine) % 2
        part = dirichlet_partition(pool, num_machines, 1.0, seed)
        assert sizes == tuple(len(idx) for idx in part)
        np.testing.assert_array_equal(labels, pool[np.concatenate(part)])

    def test_deterministic(self):
        a = synth_clusters(3, dim=5, num_classes=2, spread=0.2,
                           per_machine_skew=1.0, seed=4)
        b = synth_clusters(3, dim=5, num_classes=2, spread=0.2,
                           per_machine_skew=1.0, seed=4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_clusters_are_separable_at_low_spread(self):
        # class means are unit basis vectors, so nearest-mean classification
        # should be nearly perfect when the noise is small
        feats, labs, _ = synth_clusters(4, dim=10, num_classes=4, spread=0.2,
                                        per_machine_skew=1.0, seed=1)
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
        blob = serialize_idx_images(raw, rows=4, cols=3)
        back = parse_idx_images(blob)
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, raw)
        assert serialize_idx_images(back, rows=4, cols=3) == blob

    def test_images_parse_to_a_read_only_view_of_the_payload(self):
        # a hand-made payload: two 1x3 images holding every edge byte
        blob = struct.pack(">IIII", 2051, 2, 1, 3) + bytes([0, 1, 127, 128, 254, 255])
        back = parse_idx_images(blob)
        assert back.dtype == np.uint8 and back.shape == (2, 3)
        assert not back.flags.writeable
        assert back.tolist() == [[0, 1, 127], [128, 254, 255]]
        assert serialize_idx_images(back, rows=1, cols=3) == blob

    def test_images_that_are_not_bytes_are_rejected(self):
        raw = np.array([[0, 128, 255]], dtype=np.uint8)
        for pixels in (raw / 255.0, raw.astype(np.int64)):
            with pytest.raises(TypeError, match="uint8"):
                serialize_idx_images(pixels, rows=1, cols=3)

    def test_labels_round_trip(self):
        labs = np.array([0, 9, 3, 3, 7], dtype=np.int64)
        np.testing.assert_array_equal(parse_idx_labels(serialize_idx_labels(labs)), labs)

    def test_edge_labels_round_trip(self):
        labs = np.array([0, 255, 0], dtype=np.int64)
        np.testing.assert_array_equal(parse_idx_labels(serialize_idx_labels(labs)), labs)

    def test_labels_that_are_not_integers_are_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            serialize_idx_labels(np.array([1.7, 2.2]))

    @pytest.mark.parametrize("labels,first", [
        ([256, -1, 3, 300], 256), ([3, -1, 300], -1)])
    def test_labels_outside_a_byte_are_rejected(self, labels, first):
        with pytest.raises(ValueError, match=f"got {first}$"):
            serialize_idx_labels(np.array(labels))

    def test_bad_magic_rejected(self):
        # long enough that the image header parses, but with the label magic
        blob = serialize_idx_labels(np.arange(20) % 10)
        with pytest.raises(IdxFormatError, match="magic"):
            parse_idx_images(blob)
        blob = serialize_idx_images(np.zeros((1, 4), dtype=np.uint8), rows=2, cols=2)
        with pytest.raises(IdxFormatError, match="magic"):
            parse_idx_labels(blob)

    def test_truncated_payloads_rejected(self):
        blob = serialize_idx_images(np.zeros((3, 4), dtype=np.uint8), rows=2, cols=2)
        with pytest.raises(IdxFormatError, match="truncated"):
            parse_idx_images(blob[:-1])
        with pytest.raises(IdxFormatError, match="truncated"):
            parse_idx_images(blob[:10])
        labs = serialize_idx_labels(np.array([1, 2, 3]))
        with pytest.raises(IdxFormatError, match="truncated"):
            parse_idx_labels(labs[:-1])

    def test_shape_mismatch_rejected_on_serialize(self):
        with pytest.raises(ValueError):
            serialize_idx_images(np.zeros((2, 5), dtype=np.uint8), rows=2, cols=2)


def write_mnist_fixture(root, n_train=40, n_test=16, gzipped=False):
    rng = np.random.default_rng(2)
    train = rng.integers(0, 256, size=(n_train, 6), dtype=np.uint8)
    test = rng.integers(0, 256, size=(n_test, 6), dtype=np.uint8)
    train_y = balanced_labels(n_train)
    test_y = balanced_labels(n_test)
    blobs = {
        "train-images-idx3-ubyte": serialize_idx_images(train, rows=2, cols=3),
        "train-labels-idx1-ubyte": serialize_idx_labels(train_y),
        "t10k-images-idx3-ubyte": serialize_idx_images(test, rows=2, cols=3),
        "t10k-labels-idx1-ubyte": serialize_idx_labels(test_y),
    }
    for stem, blob in blobs.items():
        if gzipped:
            (root / (stem + ".gz")).write_bytes(gzip.compress(blob))
        else:
            (root / stem).write_bytes(blob)
    return train, train_y, test, test_y


class TestLoadMnist:
    def test_loads_plain_files(self, tmp_path):
        want = write_mnist_fixture(tmp_path)
        got = load_mnist(tmp_path)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)
        assert [g.dtype for g in got] == [np.uint8, np.int64, np.uint8, np.int64]

    def test_loads_gzipped_files(self, tmp_path):
        want = write_mnist_fixture(tmp_path, gzipped=True)
        got = load_mnist(tmp_path)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)
        assert [g.dtype for g in got] == [np.uint8, np.int64, np.uint8, np.int64]

    def test_missing_file_is_reported(self, tmp_path):
        write_mnist_fixture(tmp_path)
        (tmp_path / "t10k-labels-idx1-ubyte").unlink()
        with pytest.raises(FileNotFoundError, match="t10k-labels"):
            load_mnist(tmp_path)
