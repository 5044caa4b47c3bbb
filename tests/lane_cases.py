"""Lane shapes and problems shared by the batched-oracle and batched-
diagnostics tests."""
import numpy as np

from slowcal_lab.objectives import LogisticEnsemble, heterogeneous_quadratic

# (lanes, machines, d); logistic d = num_classes * feature_dim, so d >= 2 there.
# 7 and 13 lanes cross BLAS's column groups of 4; d = 4 gives a four-class
# softmax on one feature; d = 1 from 8 machines on is where numpy sums a
# machine axis pairwise, not in ascending order.
LANE_SHAPES = [(1, 1, 1), (1, 3, 2), (4, 1, 2), (3, 2, 1), (2, 9, 1), (3, 16, 1), (5, 8, 2),
               (3, 4, 6), (6, 16, 20), (7, 3, 4), (13, 5, 8), (13, 2, 4)]


def _softmax(m: int, num_classes: int, features: int, rng) -> LogisticEnsemble:
    sizes = [2 + 3 * i % 7 for i in range(m)]
    return LogisticEnsemble(
        features=np.concatenate([rng.standard_normal((n, features)) for n in sizes]),
        labels=np.concatenate([rng.integers(0, num_classes, n) for n in sizes]),
        sizes=sizes,
        num_classes=num_classes,
        l2=0.1,
    )


def lane_problems(m: int, d: int, seed: int) -> list:
    """A noisy quadratic ensemble; for even d a two-class softmax ensemble
    over d // 2 features, and for d divisible by 4 a four-class one over
    d // 4 features, both on machines of unequal sizes."""
    problems = [heterogeneous_quadratic(m, d, sigma=0.3, seed=seed)]
    rng = np.random.default_rng(seed)
    for num_classes in (2, 4):
        if d % num_classes == 0:
            problems.append(_softmax(m, num_classes, d // num_classes, rng))
    return problems
