"""Lane shapes and problems shared by the batched-oracle and batched-
diagnostics tests."""
import numpy as np

from slowcal_lab.objectives import LogisticEnsemble, heterogeneous_quadratic

# (lanes, machines, d); logistic d = num_classes * feature_dim, so d >= 2 there
LANE_SHAPES = [(1, 1, 1), (1, 3, 2), (4, 1, 2), (3, 2, 1), (2, 9, 1), (5, 8, 2), (3, 4, 6),
               (6, 16, 20)]


def lane_problems(m: int, d: int, seed: int) -> list:
    """A noisy quadratic ensemble, and for even d a two-class softmax
    ensemble over d // 2 features on machines of unequal sizes."""
    problems = [heterogeneous_quadratic(m, d, sigma=0.3, seed=seed)]
    if d % 2 == 0:
        rng = np.random.default_rng(seed)
        sizes = [2 + 3 * i % 7 for i in range(m)]
        problems.append(LogisticEnsemble(
            features=tuple(rng.standard_normal((n, d // 2)) for n in sizes),
            labels=tuple(rng.integers(0, 2, n) for n in sizes),
            num_classes=2,
            l2=0.1,
        ))
    return problems
