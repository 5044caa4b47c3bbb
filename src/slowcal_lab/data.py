"""Heterogeneous partitions, synthetic clusters, and IDX file handling.

Per-machine data are plain arrays: a partition is a tuple of sorted index
arrays, one per machine, and a synthetic pool is dealt out as per-machine
feature and label tuples, the form ``LogisticEnsemble`` takes."""
from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049

_IMAGE_HEADER = struct.Struct(">IIII")
_LABEL_HEADER = struct.Struct(">II")


class IdxFormatError(ValueError):
    """Malformed IDX data: a payload with a bad magic or a truncated body, a
    file that cannot be read, or MNIST files that do not fit together."""


def dirichlet_partition(labels: np.ndarray, num_machines: int, alpha: float,
                        seed: int) -> tuple[np.ndarray, ...]:
    """Label-skewed split: per class, machine shares are drawn from a
    symmetric Dirichlet(alpha) (normalized Gamma variates) and each example
    of the class is assigned multinomially. Small alpha concentrates a
    class on few machines; large alpha approaches a uniform spread. Returns
    each machine's example indices, sorted: disjoint, and together exactly
    range(len(labels)).

    Machines left empty are repaired deterministically by stealing one
    example from the currently largest machine.
    """
    labs = np.asarray(labels)
    n = labs.shape[0]
    if num_machines < 1:
        raise ValueError(f"need at least one machine, got {num_machines}")
    if alpha <= 0:
        raise ValueError(f"Dirichlet alpha must be positive, got {alpha}")
    if n < num_machines:
        raise ValueError(f"cannot give {num_machines} machines at least one of {n} examples")

    rng = np.random.default_rng(seed)
    assigned: list[list[int]] = [[] for _ in range(num_machines)]
    for cls in np.unique(labs):
        gamma = rng.gamma(alpha, 1.0, size=num_machines)
        total = gamma.sum()
        shares = gamma / total if total > 0 else np.full(num_machines, 1.0 / num_machines)
        class_idx = np.flatnonzero(labs == cls)
        choices = rng.choice(num_machines, size=class_idx.size, p=shares)
        for machine, example in zip(choices, class_idx):
            assigned[machine].append(int(example))

    for machine in range(num_machines):
        if not assigned[machine]:
            donor = max(range(num_machines), key=lambda m: len(assigned[m]))
            assigned[machine].append(assigned[donor].pop())

    return tuple(np.sort(np.asarray(ix, dtype=np.int64)) for ix in assigned)


def synth_clusters(
    num_machines: int,
    dim: int,
    num_classes: int,
    spread: float,
    per_machine_skew: float,
    seed: int,
    n_per_machine: int = 64,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Gaussian point clouds around simplex-vertex class means, dealt to
    machines with Dirichlet(per_machine_skew) label skew. Returns (features,
    labels): per machine, its (N_i, dim) float64 features and (N_i,) int64
    labels.

    Class c's mean is the unit basis vector e_c, so class separation is
    sqrt(2) and `spread` is the per-coordinate noise scale. The global pool
    holds num_machines * n_per_machine examples with balanced labels.
    """
    if num_classes < 2:
        raise ValueError(f"need at least two classes, got {num_classes}")
    if dim < num_classes:
        raise ValueError(f"dim {dim} too small to place {num_classes} simplex means")
    if spread < 0:
        raise ValueError(f"spread must be nonnegative, got {spread}")

    total = num_machines * n_per_machine
    labels = np.arange(total, dtype=np.int64) % num_classes
    part = dirichlet_partition(labels, num_machines, per_machine_skew, seed)

    feature_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    means = np.zeros((num_classes, dim))
    means[np.arange(num_classes), np.arange(num_classes)] = 1.0
    features = means[labels] + spread * feature_rng.standard_normal((total, dim))

    return tuple(features[idx] for idx in part), tuple(labels[idx] for idx in part)


def parse_idx_images(data: bytes) -> np.ndarray:
    """Decode an image IDX payload to an (N, rows*cols) float64 matrix with
    pixels rescaled to [0, 1]."""
    if len(data) < _IMAGE_HEADER.size:
        raise IdxFormatError(
            f"truncated header: got {len(data)} bytes, need {_IMAGE_HEADER.size}"
        )
    magic, count, rows, cols = _IMAGE_HEADER.unpack_from(data)
    if magic != IMAGES_MAGIC:
        raise IdxFormatError(f"bad magic for images: expected {IMAGES_MAGIC}, got {magic}")
    expected = _IMAGE_HEADER.size + count * rows * cols
    if len(data) != expected:
        raise IdxFormatError(f"truncated images: expected {expected} bytes, got {len(data)}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=_IMAGE_HEADER.size)
    return pixels.reshape(count, rows * cols).astype(np.float64) / 255.0


def parse_idx_labels(data: bytes) -> np.ndarray:
    if len(data) < _LABEL_HEADER.size:
        raise IdxFormatError(
            f"truncated header: got {len(data)} bytes, need {_LABEL_HEADER.size}"
        )
    magic, count = _LABEL_HEADER.unpack_from(data)
    if magic != LABELS_MAGIC:
        raise IdxFormatError(f"bad magic for labels: expected {LABELS_MAGIC}, got {magic}")
    expected = _LABEL_HEADER.size + count
    if len(data) != expected:
        raise IdxFormatError(f"truncated labels: expected {expected} bytes, got {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, offset=_LABEL_HEADER.size).astype(np.int64)


def serialize_idx_images(pixels01: np.ndarray, rows: int, cols: int) -> bytes:
    """Inverse of parse_idx_images; exact for byte-valued inputs because
    u/255 -> round(x*255) round-trips every u in 0..255 in float64."""
    mat = np.asarray(pixels01, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != rows * cols:
        raise ValueError(f"pixel matrix shape {mat.shape} does not match {rows}x{cols}")
    body = np.rint(mat * 255.0).astype(np.uint8)
    header = _IMAGE_HEADER.pack(IMAGES_MAGIC, mat.shape[0], rows, cols)
    return header + body.tobytes()


def serialize_idx_labels(labels: np.ndarray) -> bytes:
    labs = np.asarray(labels)
    header = _LABEL_HEADER.pack(LABELS_MAGIC, labs.shape[0])
    return header + labs.astype(np.uint8).tobytes()


def _read_maybe_gzip(path: Path) -> bytes:
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def _load_idx(root: Path, stem: str, parse) -> np.ndarray:
    """Parse the IDX file ``stem`` (plain, else ``stem.gz``) under root."""
    for path in (root / stem, root / (stem + ".gz")):
        if path.exists():
            try:
                return parse(_read_maybe_gzip(path))
            except (OSError, EOFError, zlib.error, IdxFormatError) as exc:
                raise IdxFormatError(f"{path}: {exc}") from exc
    raise FileNotFoundError(f"missing {stem}[.gz] under {root}")


def load_mnist(data_dir: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Load the four canonical MNIST IDX files (plain or gzipped) from a
    local directory. Returns (train_x, train_y, test_x, test_y). A file that
    cannot be read or parsed raises IdxFormatError naming it, and so does a
    split whose image and label counts differ, or test images whose width
    differs from the train images'."""
    root = Path(data_dir)
    arrays = []
    for images, labels in (("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
                           ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")):
        x = _load_idx(root, images, parse_idx_images)
        y = _load_idx(root, labels, parse_idx_labels)
        if len(x) != len(y):
            raise IdxFormatError(f"{images} holds {len(x)} images but {labels} holds "
                                 f"{len(y)} labels under {root}")
        arrays += [x, y]
    train_x, _, test_x, _ = arrays
    if test_x.shape[1] != train_x.shape[1]:
        raise IdxFormatError(f"test images have {test_x.shape[1]} pixels but train images "
                             f"have {train_x.shape[1]} under {root}")
    return tuple(arrays)
