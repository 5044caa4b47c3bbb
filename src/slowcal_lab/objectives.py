"""Convex objectives split across machines.

Two ensemble families share one oracle surface:

* ``QuadraticEnsemble`` -- per-machine quadratics f_i(x) = 0.5 (x-b_i)' A_i (x-b_i)
  with isotropic Gaussian gradient noise of total power sigma^2.
* ``LogisticEnsemble`` -- per-machine softmax regression with L2 weight decay;
  stochastic gradients sample one local example uniformly.

The global objective is always the machine average f = (1/M) sum_i f_i.
Stochastic gradients are addressed by an explicit (seed, machine, round, step)
key so trajectories are reproducible under any execution interleaving; see
``rng`` for the block convention: one stream per (seed, machine, round),
step k's draw is its k-th row.

The runners use the batched oracle. ``round_draws(seed, rnd, steps)`` stacks
one round's draws for every machine (scaled noise ``(M, steps, d)`` for the
quadratic, ``(M, steps)`` example rows for softmax regression), and
``sampled_gradients(points, draws, k)`` evaluates step k at query points of
shape ``(..., M, d)``, row i on machine i, any leading (lane) axes. Row i of
its result equals ``round_sampler(seed, i, rnd, steps)(k, points[..., i, :])``
bitwise; ``round_sampler`` and ``stochastic_gradient`` stay as that
per-machine reference. For lanes of several seeds, ``round_draws`` takes a
seed list and stacks the draws of each seed once, with a leading seed
axis, and ``sampled_gradients(points, draws, k, lanes)`` gathers step k's
rows of lane j's seed from row ``lanes[j]`` of that stack. ``exact_gradients(points)`` is the noise-free
counterpart with one row per machine; it, ``global_gradient(x)`` and
``global_value(x)`` take the same leading lane axes, so one call measures
every lane of a round (``global_value`` of a single point stays a float).
Each lane's result is bitwise equal to a call of its own. The softmax
oracle has one lane body: per machine, one strided matmul over every
lane's weight matrix for the logits and one for the gradient, with the
log-sum-exp and label picks on (lanes, n, C) arrays; the one-point methods
(``machine_value``, ``exact_gradient``) are its one-lane calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .metrics import squared_norms
from .rng import RngKey, index_rows, normal_rows

GROWTH_SLACK_FLOOR = -1e-9
_POWER_TOL = 1e-9
_POWER_MAX_ITERS = 10_000
_PSD_EIG_FLOOR = -1e-10
_OPTIMUM_GRAD_TOL = 1e-10
_OPTIMUM_MAX_ITERS = 4_000_000

GradSampler = Callable[[int, np.ndarray], np.ndarray]


class DegenerateProblemError(RuntimeError):
    """The ensemble has no usable finite optimum."""


@dataclass(frozen=True)
class ProblemMetadata:
    """Scalars the step-size theory consumes, plus the optimum itself."""

    smoothness: float
    sigma: float
    gstar: float
    w_star: np.ndarray
    f_star: float
    b0: float


def _top_eigenvalue(mat: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    dim = mat.shape[0]
    rng = np.random.default_rng(0x5EED)
    vec = rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    rayleigh = float(vec @ mat @ vec)
    for _ in range(_POWER_MAX_ITERS):
        nxt = mat @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return 0.0
        vec = nxt / norm
        fresh = float(vec @ mat @ vec)
        if abs(fresh - rayleigh) <= _POWER_TOL * max(1.0, abs(fresh)):
            return fresh
        rayleigh = fresh
    raise DegenerateProblemError(
        f"power iteration did not converge within {_POWER_MAX_ITERS} iterations"
    )


def _check_key(machine: int, rng_key: RngKey) -> tuple[int, int, int, int]:
    seed, key_machine, rnd, step = (int(v) for v in rng_key)
    if key_machine != machine:
        raise ValueError(f"rng_key names machine {key_machine}, oracle called for {machine}")
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step}")
    return seed, key_machine, rnd, step


@dataclass(frozen=True, eq=False)
class QuadraticEnsemble:
    curvatures: np.ndarray  # (M, d, d), symmetric PSD
    centers: np.ndarray     # (M, d)
    sigma: float = 0.0

    def __post_init__(self) -> None:
        mats = np.asarray(self.curvatures, dtype=np.float64)
        cents = np.asarray(self.centers, dtype=np.float64)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"curvatures must be (M, d, d), got {mats.shape}")
        if cents.shape != mats.shape[:2]:
            raise ValueError(f"centers shape {cents.shape} does not match {mats.shape[:2]}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        for i, mat in enumerate(mats):
            if not np.allclose(mat, mat.T, atol=1e-10):
                raise ValueError(f"curvature matrix {i} is not symmetric")
            floor = float(np.linalg.eigvalsh(mat).min())
            if floor < _PSD_EIG_FLOOR:
                raise ValueError(f"curvature matrix {i} is not PSD: min eigenvalue {floor:g}")
        object.__setattr__(self, "curvatures", mats)
        object.__setattr__(self, "centers", cents)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def num_machines(self) -> int:
        return self.curvatures.shape[0]

    @property
    def dim(self) -> int:
        return self.curvatures.shape[1]

    def machine_value(self, machine: int, x: np.ndarray) -> float:
        diff = x - self.centers[machine]
        return 0.5 * float(diff @ self.curvatures[machine] @ diff)

    def exact_gradient(self, machine: int, x: np.ndarray) -> np.ndarray:
        return self.curvatures[machine] @ (x - self.centers[machine])

    def exact_gradients(self, points: np.ndarray) -> np.ndarray:
        """grad f_i at points[..., i, :] for every machine i, any leading
        (lane) axes; a stacked matrix-vector product, so row i equals
        exact_gradient(i, .) bitwise."""
        return (self.curvatures @ (points - self.centers)[..., None])[..., 0]

    def global_value(self, x: np.ndarray) -> float | np.ndarray:
        """f at x of shape (..., d): a float for one point, else one value
        per lane. Each lane's machine values are its own einsum (a batched
        einsum is not bitwise equal to the one-lane call); their means are
        one reduction over the machine axis, which is."""
        x = np.asarray(x)
        vals = np.array([self._machine_values(point) for point in x.reshape(-1, x.shape[-1])])
        values = (vals.sum(axis=-1) / self.num_machines).reshape(x.shape[:-1])
        return float(values) if x.ndim == 1 else values

    def _machine_values(self, x: np.ndarray) -> np.ndarray:
        diff = x[None, :] - self.centers
        return 0.5 * np.einsum("mi,mij,mj->m", diff, self.curvatures, diff)

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad f at x of shape (..., d), any leading (lane) axes; each
        lane's row equals its own call bitwise."""
        diff = x[..., None, :] - self.centers
        return np.einsum("mij,...mj->...i", self.curvatures, diff) / self.num_machines

    def round_sampler(self, seed: int, machine: int, rnd: int, steps: int) -> GradSampler:
        """Per-round gradient oracle; sample(k, x) is the step-k stochastic
        gradient at x. Noise rows are pre-drawn for the whole round."""
        mat = self.curvatures[machine]
        center = self.centers[machine]
        if self.sigma == 0.0:
            def sample(k: int, x: np.ndarray) -> np.ndarray:
                return mat @ (x - center)
            return sample
        scale = self.sigma / math.sqrt(self.dim)
        noise = normal_rows(seed, machine, rnd, steps, self.dim) * scale

        def sample(k: int, x: np.ndarray) -> np.ndarray:
            return mat @ (x - center) + noise[k]
        return sample

    def stochastic_gradient(self, machine: int, x: np.ndarray, rng_key: RngKey) -> np.ndarray:
        seed, _, rnd, step = _check_key(machine, rng_key)
        return self.round_sampler(seed, machine, rnd, step + 1)(step, x)

    def round_draws(self, seed, rnd: int, steps: int) -> np.ndarray | None:
        """(M, steps, d) scaled noise for one round of one seed, or
        (seeds, M, steps, d) for a sequence of seeds; None when sigma=0."""
        if self.sigma == 0.0:
            return None
        scale = self.sigma / math.sqrt(self.dim)
        return np.array([[normal_rows(s, i, rnd, steps, self.dim)
                          for i in range(self.num_machines)]
                         for s in _seed_list(seed)]).reshape(
                             np.shape(seed) + (self.num_machines, steps, self.dim)) * scale

    def sampled_gradients(self, points: np.ndarray, draws: np.ndarray | None,
                          k: int, lanes: np.ndarray | None = None) -> np.ndarray:
        grads = self.exact_gradients(points)
        if draws is not None:
            grads += _step_draws(draws, k, lanes)
        return grads

    @cached_property
    def _optimum_point(self) -> np.ndarray:
        total = self.curvatures.sum(axis=0)
        rhs = np.einsum("mij,mj->i", self.curvatures, self.centers)
        try:
            sol = np.linalg.solve(total, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateProblemError(f"averaged curvature is singular: {exc}") from exc
        residual = np.linalg.norm(total @ sol - rhs)
        if not np.all(np.isfinite(sol)) or residual > 1e-8 * max(1.0, np.linalg.norm(rhs)):
            raise DegenerateProblemError(
                f"optimum solve is unreliable (residual {residual:g}); problem is degenerate"
            )
        return sol

    @property
    def w_star(self) -> np.ndarray:
        return self._optimum_point

    @cached_property
    def f_star(self) -> float:
        return self.global_value(self._optimum_point)

    def optimum(self) -> np.ndarray:
        return self._optimum_point.copy()

    @cached_property
    def _smoothness(self) -> float:
        return max(_top_eigenvalue(mat) for mat in self.curvatures)

    def smoothness(self) -> float:
        return self._smoothness

    @cached_property
    def _gstar(self) -> float:
        diff = self.w_star[None, :] - self.centers
        grads = np.einsum("mij,mj->mi", self.curvatures, diff)
        return math.sqrt(2.0 * float((grads ** 2).sum(axis=1).mean()))

    def gstar(self) -> float:
        return self._gstar

    def check_growth_bound(self, x: np.ndarray) -> tuple[bool, float]:
        return _growth_slack(self, x)

    def g_dissimilarity(self, probes: np.ndarray) -> float:
        return _dissimilarity_estimate(self, probes)

    def metadata(self, x0: np.ndarray) -> ProblemMetadata:
        return ProblemMetadata(
            smoothness=self.smoothness(),
            sigma=self.sigma,
            gstar=self.gstar(),
            w_star=self.optimum(),
            f_star=self.f_star,
            b0=float(np.linalg.norm(np.asarray(x0, dtype=np.float64) - self.w_star)),
        )


@dataclass(frozen=True, eq=False)
class LogisticEnsemble:
    """Softmax regression over per-machine datasets, parameters flattened
    from a (num_classes, d) weight matrix. With l2 > 0 the global optimum
    is unique and found by full-batch gradient descent to tiny gradient
    norm; ``reference_point`` short-circuits that oracle for large corpora
    where only reference-based excess curves are needed."""

    features: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]
    num_classes: int
    l2: float = 0.0
    reference_point: np.ndarray | None = None

    def __post_init__(self) -> None:
        feats = tuple(np.asarray(f, dtype=np.float64) for f in self.features)
        labs = tuple(np.asarray(l, dtype=np.int64) for l in self.labels)
        if not feats:
            raise ValueError("need at least one machine")
        if len(feats) != len(labs):
            raise ValueError(f"{len(feats)} feature blocks vs {len(labs)} label blocks")
        if self.num_classes < 2:
            raise ValueError(f"need at least two classes, got {self.num_classes}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be nonnegative, got {self.l2}")
        width = feats[0].shape[1]
        for i, (f, l) in enumerate(zip(feats, labs)):
            if f.ndim != 2 or f.shape[1] != width:
                raise ValueError(f"machine {i} features shape {f.shape} != (N, {width})")
            if f.shape[0] == 0:
                raise ValueError(f"machine {i} has no examples")
            if l.shape != (f.shape[0],):
                raise ValueError(f"machine {i} labels shape {l.shape} mismatched")
            if l.min() < 0 or l.max() >= self.num_classes:
                raise ValueError(f"machine {i} labels outside [0, {self.num_classes})")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def from_datasets(cls, datasets, num_classes: int, l2: float = 0.0,
                      reference_point: np.ndarray | None = None) -> "LogisticEnsemble":
        return cls(
            features=tuple(ds.features for ds in datasets),
            labels=tuple(ds.labels for ds in datasets),
            num_classes=num_classes,
            l2=l2,
            reference_point=reference_point,
        )

    @property
    def num_machines(self) -> int:
        return len(self.features)

    @property
    def feature_dim(self) -> int:
        return self.features[0].shape[1]

    @property
    def dim(self) -> int:
        return self.num_classes * self.feature_dim

    def _matrix(self, w: np.ndarray) -> np.ndarray:
        """(..., d) parameters as (..., num_classes, feature_dim) weight matrices."""
        return w.reshape(*w.shape[:-1], self.num_classes, self.feature_dim)

    @cached_property
    def _label_picks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per machine, the (rows, labels) index pair of its true-class entries."""
        return tuple((np.arange(l.shape[0]), l) for l in self.labels)

    def _log_probs(self, machine: int, weight_mats: np.ndarray) -> np.ndarray:
        """(..., n, C) log-probabilities of the machine's examples under
        (..., C, f) weight matrices: one strided matmul over the lanes, so
        each lane's slice is the same BLAS call as a one-lane call."""
        logits = self.features[machine] @ weight_mats.swapaxes(-1, -2)
        peak = logits.max(axis=-1, keepdims=True)
        lse = peak + np.log(np.exp(logits - peak).sum(axis=-1, keepdims=True))
        return logits - lse

    def _values(self, machine: int, w: np.ndarray) -> np.ndarray:
        """f_i at w of shape (..., d), one value per lane."""
        logp = self._log_probs(machine, self._matrix(w))
        # contiguous picks, so each lane's mean is the pairwise sum of a 1-D one
        picks = np.ascontiguousarray(logp[(..., *self._label_picks[machine])])
        return -picks.mean(axis=-1) + 0.5 * self.l2 * squared_norms(w)

    def _gradients(self, machine: int, w: np.ndarray) -> np.ndarray:
        """grad f_i at w of shape (..., d), one row per lane."""
        mats = self._matrix(w)
        probs = np.exp(self._log_probs(machine, mats))
        probs[(..., *self._label_picks[machine])] -= 1.0
        feats = self.features[machine]
        grad = probs.swapaxes(-1, -2) @ feats / feats.shape[0] + self.l2 * mats
        return grad.reshape(w.shape)

    def machine_value(self, machine: int, w: np.ndarray) -> float:
        return float(self._values(machine, np.asarray(w)))

    def exact_gradient(self, machine: int, w: np.ndarray) -> np.ndarray:
        return self._gradients(machine, np.asarray(w))

    def global_value(self, x: np.ndarray) -> float | np.ndarray:
        """f at x of shape (..., d): a float for one point, else one value
        per lane, each bitwise equal to its own call."""
        x = np.asarray(x)
        values = np.empty(x.shape[:-1] + (self.num_machines,))
        for i in range(self.num_machines):
            values[..., i] = self._values(i, x)
        mean = values.mean(axis=-1)
        return float(mean) if x.ndim == 1 else mean

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad f at x of shape (..., d), any leading (lane) axes; each
        lane's row equals its own call bitwise."""
        x = np.asarray(x)
        acc = np.zeros(x.shape)
        for i in range(self.num_machines):
            acc += self._gradients(i, x)
        return acc / self.num_machines

    def _example_gradient(self, machine: int, example: int, w: np.ndarray) -> np.ndarray:
        mat = self._matrix(np.asarray(w))
        row = self.features[machine][example]
        logits = mat @ row
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        probs[self.labels[machine][example]] -= 1.0
        return (np.outer(probs, row) + self.l2 * mat).reshape(-1)

    def round_sampler(self, seed: int, machine: int, rnd: int, steps: int) -> GradSampler:
        picks = index_rows(seed, machine, rnd, steps, self.features[machine].shape[0])

        def sample(k: int, x: np.ndarray) -> np.ndarray:
            return self._example_gradient(machine, int(picks[k]), x)
        return sample

    def stochastic_gradient(self, machine: int, x: np.ndarray, rng_key: RngKey) -> np.ndarray:
        seed, _, rnd, step = _check_key(machine, rng_key)
        return self.round_sampler(seed, machine, rnd, step + 1)(step, x)

    def exact_gradients(self, points: np.ndarray) -> np.ndarray:
        """Full-batch gradients at points[..., i, :] on machine i, any
        leading (lane) axes; one oracle call per machine for all lanes."""
        points = np.asarray(points)
        grads = np.empty(points.shape)
        for i in range(self.num_machines):
            grads[..., i, :] = self._gradients(i, points[..., i, :])
        return grads

    @cached_property
    def _pooled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every machine's features and labels concatenated, and the index of
        each machine's first row in them."""
        sizes = [f.shape[0] for f in self.features]
        offsets = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.int64)
        return np.concatenate(self.features), np.concatenate(self.labels), offsets

    def round_draws(self, seed, rnd: int, steps: int) -> np.ndarray:
        """(M, steps) rows of the pooled examples: machine i's step-k pick,
        shifted by the machine's offset (machines hold unequal counts); for
        a sequence of seeds, (seeds, M, steps)."""
        _, _, offsets = self._pooled
        picks = np.array([[index_rows(s, i, rnd, steps, f.shape[0])
                           for i, f in enumerate(self.features)]
                          for s in _seed_list(seed)])
        return picks.reshape(np.shape(seed) + picks.shape[1:]) + offsets[:, None]

    def sampled_gradients(self, points: np.ndarray, draws: np.ndarray, k: int,
                          lanes: np.ndarray | None = None) -> np.ndarray:
        """Single-example gradients, the batched form of _example_gradient.
        With per-lane picks, the lane's label is subtracted in its own lane."""
        feats, labels, _ = self._pooled
        picks = _step_draws(draws, k, lanes)           # (M,) or (lanes, M)
        rows = feats[picks]                            # (..., M, f)
        mats = points.reshape(*points.shape[:-1], self.num_classes, self.feature_dim)
        logits = (mats @ rows[..., :, None])[..., 0]   # (..., M, C)
        logits -= logits.max(axis=-1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=-1, keepdims=True)
        lane_axis = () if picks.ndim == 1 else (np.arange(picks.shape[0])[:, None],)
        probs[(..., *lane_axis, np.arange(picks.shape[-1]), labels[picks])] -= 1.0
        grads = probs[..., :, None] * rows[..., None, :] + self.l2 * mats
        return grads.reshape(points.shape)

    @cached_property
    def _smoothness(self) -> float:
        # softmax cross-entropy curvature in the logits is at most 1/2
        sq = max(float((f ** 2).sum(axis=1).max()) for f in self.features)
        return 0.5 * sq + self.l2

    def smoothness(self) -> float:
        return self._smoothness

    @cached_property
    def _optimum_point(self) -> np.ndarray:
        if self.l2 <= 0:
            raise DegenerateProblemError(
                "unregularized logistic optimum may be unattained; set l2 > 0"
            )
        step = 1.0 / self.smoothness()
        w = np.zeros(self.dim)
        for _ in range(_OPTIMUM_MAX_ITERS):
            grad = self.global_gradient(w)
            if np.linalg.norm(grad) <= _OPTIMUM_GRAD_TOL:
                return w
            w = w - step * grad
        raise DegenerateProblemError(
            f"optimum oracle did not reach gradient norm {_OPTIMUM_GRAD_TOL:g} "
            f"within {_OPTIMUM_MAX_ITERS} full-batch steps"
        )

    @property
    def w_star(self) -> np.ndarray:
        if self.reference_point is not None:
            return np.asarray(self.reference_point, dtype=np.float64)
        return self._optimum_point

    @cached_property
    def f_star(self) -> float:
        return self.global_value(self.w_star)

    def optimum(self) -> np.ndarray:
        return self._optimum_point.copy()

    @cached_property
    def _gstar(self) -> float:
        w = self.w_star
        mean_sq = np.mean(
            [float(g @ g) for g in (self.exact_gradient(i, w) for i in range(self.num_machines))]
        )
        return math.sqrt(2.0 * mean_sq)

    def gstar(self) -> float:
        return self._gstar

    def sampling_noise_std(self, at: np.ndarray | None = None) -> float:
        """Single-example gradient noise std sqrt(mean_i E_n ||g_n - grad_i||^2),
        evaluated at the optimum unless another point is given. Closed form;
        no sampling involved."""
        w = self.w_star if at is None else np.asarray(at, dtype=np.float64)
        mat = self._matrix(w)
        sq_l2w = float((mat ** 2).sum())
        total = 0.0
        for i in range(self.num_machines):
            feats = self.features[i]
            probs = np.exp(self._log_probs(i, mat))
            probs[self._label_picks[i]] -= 1.0
            qnorm = (probs ** 2).sum(axis=1)
            anorm = (feats ** 2).sum(axis=1)
            cross = (probs * (feats @ mat.T)).sum(axis=1)
            second_moment = float(
                np.mean(qnorm * anorm + 2.0 * self.l2 * cross) + self.l2 ** 2 * sq_l2w
            )
            mean_grad = self.exact_gradient(i, w)
            total += second_moment - float(mean_grad @ mean_grad)
        return math.sqrt(max(total / self.num_machines, 0.0))

    def check_growth_bound(self, x: np.ndarray) -> tuple[bool, float]:
        return _growth_slack(self, x)

    def g_dissimilarity(self, probes: np.ndarray) -> float:
        return _dissimilarity_estimate(self, probes)

    def metadata(self, x0: np.ndarray) -> ProblemMetadata:
        return ProblemMetadata(
            smoothness=self.smoothness(),
            sigma=self.sampling_noise_std(),
            gstar=self.gstar(),
            w_star=np.array(self.w_star, copy=True),
            f_star=self.f_star,
            b0=float(np.linalg.norm(np.asarray(x0, dtype=np.float64) - self.w_star)),
        )


def _seed_list(seed) -> list[int]:
    """One seed, or a sequence of them, as a list."""
    return [seed] if np.ndim(seed) == 0 else list(seed)


def _step_draws(draws: np.ndarray, k: int, lanes: np.ndarray | None) -> np.ndarray:
    """Step k's draws of every machine: the shared (M[, d]) rows of one
    seed's round, or, from a (seeds, M, steps[, d]) stack, the (lanes,
    M[, d]) rows of each lane's seed, ``lanes`` giving each lane's row."""
    return draws[:, k] if lanes is None else draws[lanes, :, k]


def _growth_slack(ensemble, x: np.ndarray) -> tuple[bool, float]:
    """Slack in mean_i ||grad_i(x)||^2 <= gstar^2 + 4 L (f(x) - f*)."""
    point = np.asarray(x, dtype=np.float64)
    mean_sq = np.mean(
        [float(g @ g) for g in (ensemble.exact_gradient(i, point)
                                for i in range(ensemble.num_machines))]
    )
    bound = ensemble.gstar() ** 2 + 4.0 * ensemble.smoothness() * (
        ensemble.global_value(point) - ensemble.f_star
    )
    slack = float(bound - mean_sq)
    return slack >= GROWTH_SLACK_FLOOR, slack


def _dissimilarity_estimate(ensemble, probes: np.ndarray) -> float:
    """Probe-point estimate of the uniform gradient-dissimilarity constant:
    sqrt(2 max_p mean_i ||grad_i - grad||^2). A lower bound on the true sup;
    reported for diagnostics only, never fed into step-size formulas."""
    pts = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    worst = 0.0
    for point in pts:
        grads = [ensemble.exact_gradient(i, point) for i in range(ensemble.num_machines)]
        mean_grad = ensemble.global_gradient(point)
        spread = float(np.mean([(g - mean_grad) @ (g - mean_grad) for g in grads]))
        worst = max(worst, spread)
    return math.sqrt(2.0 * worst)


def heterogeneous_quadratic(
    num_machines: int,
    dim: int,
    *,
    curvature: str = "per-machine",
    eig_range: tuple[float, float] = (0.5, 2.0),
    center_spread: float = 1.0,
    sigma: float = 0.0,
    target_gstar: float | None = None,
    seed: int = 0,
) -> QuadraticEnsemble:
    """Random well-conditioned quadratic ensemble.

    ``curvature`` picks shared vs per-machine curvature matrices; shared
    curvature makes the local-update query bias vanish identically, which
    is the control case for bias diagnostics. Center offsets scale G*
    linearly, so ``target_gstar`` rescales them to hit a requested value
    exactly (requires a heterogeneous start, i.e. center_spread > 0).
    """
    if curvature not in ("shared", "per-machine"):
        raise ValueError(f"curvature must be 'shared' or 'per-machine', got {curvature!r}")
    lo, hi = eig_range
    if not 0 < lo <= hi:
        raise ValueError(f"eig_range must be 0 < lo <= hi, got {eig_range}")
    rng = np.random.default_rng(seed)

    def random_psd() -> np.ndarray:
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = rng.uniform(lo, hi, size=dim)
        mat = (basis * eigs) @ basis.T
        return 0.5 * (mat + mat.T)

    if curvature == "shared":
        shared = random_psd()
        mats = np.repeat(shared[None, :, :], num_machines, axis=0)
    else:
        mats = np.stack([random_psd() for _ in range(num_machines)])

    centers = center_spread * rng.standard_normal((num_machines, dim)) / math.sqrt(dim)
    ensemble = QuadraticEnsemble(mats, centers, sigma)
    if target_gstar is None:
        return ensemble
    if target_gstar < 0:
        raise ValueError(f"target_gstar must be nonnegative, got {target_gstar}")
    if target_gstar == 0.0:
        return QuadraticEnsemble(mats, np.zeros_like(centers), sigma)
    base = ensemble.gstar()
    if base == 0.0:
        raise ValueError("cannot rescale centers to positive target_gstar from G*=0")
    return QuadraticEnsemble(mats, centers * (target_gstar / base), sigma)
