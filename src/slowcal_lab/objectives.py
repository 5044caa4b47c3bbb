"""Convex objectives split across machines.

Two ensemble families share one oracle surface:

* ``QuadraticEnsemble`` -- per-machine quadratics f_i(x) = 0.5 (x-b_i)' A_i (x-b_i)
  with isotropic Gaussian gradient noise of total power sigma^2.
* ``LogisticEnsemble`` -- per-machine softmax regression with L2 weight decay;
  stochastic gradients sample one local example uniformly.

The global objective is always the machine average f = (1/M) sum_i f_i. The
``_Ensemble`` base derives the problem scalars (f*, G*, the smoothness L,
the growth and dissimilarity probes, ``metadata``) from each class's
oracles. The quadratic L is exact: the largest curvature eigenvalue, from the
one batched eigen-solve that also checks every matrix is PSD. The softmax
optimum is full-batch gradient descent to gradient norm 1e-10; it raises
``DegenerateProblemError`` when a step leaves the iterate unchanged or its
iteration cap runs out.
Stochastic gradients are addressed by an explicit (seed, machine, round, step)
key so trajectories are reproducible under any execution interleaving; see
``rng`` for the block convention: one stream per (seed, machine, round),
step k's draw is its k-th row.

The runners use the batched oracle. ``round_draws(seeds, rnd, steps)``
stacks one round's draws for every machine of every seed in the list
(scaled noise ``(seeds, M, steps, d)`` for the quadratic, ``(seeds, M,
steps)`` example rows for softmax regression), and
``sampled_gradients(points, draws, k, lanes)`` evaluates step k at query
points of shape ``(lanes, M, d)``, row i on machine i, lane j taking the
draws of row ``lanes[j]`` of that stack. Row i of lane j's result equals
``round_sampler(seeds[lanes[j]], i, rnd, steps)(k, points[j, i])``
bitwise; ``round_sampler`` stays as that per-machine reference.
``exact_gradients(points)`` is the noise-free counterpart with one row
per machine; it, ``global_gradient(x)`` and
``global_value(x)`` take any leading lane axes, so one call measures
every lane of a round (``global_value`` of a single point stays a float).
Each lane's result is bitwise equal to a call of its own. The softmax
oracle has one lane body: per machine, one strided matmul over every
lane's weight matrix for the logits and one for the gradient, with the
log-sum-exp and label picks on (lanes, n, C) arrays; the one-point methods
(``machine_value``, ``exact_gradient``) are its one-lane calls. A one-point
``global_value`` or ``global_gradient`` (the optimum's descent, ``f_star``,
output points, MNIST's L-BFGS reference) pools instead: each machine's
logits, still its own matmul, fill one (N, C) buffer in ``_pooled`` row
order, and the log-softmax, exp and label picks run once on it; the pick
means and gradient products stay per machine, summed in machine order. Lane
calls stay per machine, where pooled (lanes, N, C) temporaries cost more
than the saved calls. The class-axis max chains whole columns, where
numpy's reduce walks the short axis once per row; the sum chains them below
8 classes and keeps numpy's reduce from 8, where its sum is pairwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .metrics import squared_norms
from .rng import index_rows, normal_rows

GROWTH_SLACK_FLOOR = -1e-9
_PSD_EIG_FLOOR = -1e-10
_OPTIMUM_GRAD_TOL = 1e-10
_OPTIMUM_MAX_ITERS = 4_000_000
_PAIRWISE_BLOCK = 8  # numpy sums 8 or more contiguous values pairwise

GradSampler = Callable[[int, np.ndarray], np.ndarray]


def _class_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True). numpy's reduce walks a short class
    axis once per row, so chain whole columns instead; the maximum of
    non-NaN values is exact in any order, only the sign of a zero or a NaN
    can differ from the reduce's pick."""
    peak = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(peak, a[..., j:j + 1], out=peak)
    return peak


def _class_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True). Below numpy's 8-wide pairwise block
    its reduce adds the columns in ascending order, one row at a time; this
    adds whole columns in that order (a row of zeros may sum to another zero
    sign). From 8 columns numpy's sum is pairwise, so keep its reduce."""
    if a.shape[-1] >= _PAIRWISE_BLOCK:
        return a.sum(axis=-1, keepdims=True)
    total = a[..., :1] + a[..., 1:2]
    for j in range(2, a.shape[-1]):
        total += a[..., j:j + 1]
    return total


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last (class) axis, shifted by each row's peak."""
    peak = _class_max(logits)
    return logits - (peak + np.log(_class_sum(np.exp(logits - peak))))


class DegenerateProblemError(RuntimeError):
    """The ensemble has no usable finite optimum."""


@dataclass(frozen=True)
class ProblemMetadata:
    """Scalars the step-size theory consumes, and the optimal value."""

    smoothness: float
    sigma: float
    gstar: float
    f_star: float
    b0: float


class _Ensemble:
    """What both ensembles derive from their oracles. A subclass supplies
    ``num_machines``, ``sigma`` (the gradient-noise std the step-size theory
    reads), ``_smoothness``, ``w_star`` (the optimum, the one accessor for
    it), ``exact_gradient``, ``global_value``, ``global_gradient``,
    ``round_sampler`` and its own ``_optimum_point`` cached_property, which
    also sets ``_optimum_report``."""

    @cached_property
    def f_star(self) -> float:
        return self.global_value(self.w_star)

    def optimum_report(self) -> dict:
        """How exact the optimum is: the method and its convergence measure,
        recorded by ``_optimum_point`` as it computed the point."""
        self._optimum_point  # computes the point and its report, once
        return dict(self._optimum_report)

    def smoothness(self) -> float:
        return self._smoothness

    def _mean_squared_gradient(self, x: np.ndarray) -> float:
        """mean_i ||grad f_i(x)||^2, one machine at a time."""
        return np.mean(
            [float(g @ g) for g in (self.exact_gradient(i, x) for i in range(self.num_machines))]
        )

    @cached_property
    def _gstar(self) -> float:
        return math.sqrt(2.0 * self._mean_squared_gradient(self.w_star))

    def gstar(self) -> float:
        """G* = sqrt(2 mean_i ||grad f_i(w*)||^2)."""
        return self._gstar

    def check_growth_bound(self, x: np.ndarray) -> tuple[bool, float]:
        """Slack in mean_i ||grad_i(x)||^2 <= gstar^2 + 4 L (f(x) - f*)."""
        point = np.asarray(x, dtype=np.float64)
        mean_sq = self._mean_squared_gradient(point)
        bound = self.gstar() ** 2 + 4.0 * self.smoothness() * (
            self.global_value(point) - self.f_star
        )
        slack = float(bound - mean_sq)
        return slack >= GROWTH_SLACK_FLOOR, slack

    def g_dissimilarity(self, probes: np.ndarray) -> float:
        """Probe-point estimate of the uniform gradient-dissimilarity constant:
        sqrt(2 max_p mean_i ||grad_i - grad||^2). A lower bound on the true sup;
        reported for diagnostics only, never fed into step-size formulas."""
        pts = np.atleast_2d(np.asarray(probes, dtype=np.float64))
        worst = 0.0
        for point in pts:
            grads = [self.exact_gradient(i, point) for i in range(self.num_machines)]
            mean_grad = self.global_gradient(point)
            spread = float(np.mean([(g - mean_grad) @ (g - mean_grad) for g in grads]))
            worst = max(worst, spread)
        return math.sqrt(2.0 * worst)

    def metadata(self, x0: np.ndarray) -> ProblemMetadata:
        return ProblemMetadata(
            smoothness=self.smoothness(),
            sigma=self.sigma,
            gstar=self.gstar(),
            f_star=self.f_star,
            b0=float(np.linalg.norm(np.asarray(x0, dtype=np.float64) - self.w_star)),
        )


@dataclass(frozen=True, eq=False)
class QuadraticEnsemble(_Ensemble):
    curvatures: np.ndarray  # (M, d, d), symmetric PSD
    centers: np.ndarray     # (M, d)
    sigma: float = 0.0

    def __post_init__(self) -> None:
        mats = np.asarray(self.curvatures, dtype=np.float64)
        cents = np.asarray(self.centers, dtype=np.float64)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.size == 0:
            raise ValueError(f"curvatures must be a nonempty (M, d, d) stack, got {mats.shape}")
        if not np.isfinite(mats).all():  # eigvalsh turns inf into nan, which passes the PSD test
            raise ValueError("curvatures must be finite")
        if cents.shape != mats.shape[:2]:
            raise ValueError(f"centers shape {cents.shape} does not match {mats.shape[:2]}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        eigs = np.linalg.eigvalsh(mats)  # (M, d); one batched solve, bitwise per matrix
        for i, mat in enumerate(mats):
            if not np.allclose(mat, mat.T, atol=1e-10):
                raise ValueError(f"curvature matrix {i} is not symmetric")
            floor = float(eigs[i].min())
            if floor < _PSD_EIG_FLOOR:
                raise ValueError(f"curvature matrix {i} is not PSD: min eigenvalue {floor:g}")
        object.__setattr__(self, "_smoothness", float(eigs.max()))
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

    def round_draws(self, seeds, rnd: int, steps: int) -> np.ndarray | None:
        """(seeds, M, steps, d) scaled noise for one round of every seed;
        None when sigma=0."""
        if self.sigma == 0.0:
            return None
        scale = self.sigma / math.sqrt(self.dim)
        return np.array([[normal_rows(seed, i, rnd, steps, self.dim)
                          for i in range(self.num_machines)]
                         for seed in seeds]) * scale

    def sampled_gradients(self, points: np.ndarray, draws: np.ndarray | None,
                          k: int, lanes: np.ndarray) -> np.ndarray:
        grads = self.exact_gradients(points)
        if draws is not None:
            grads += draws[lanes, :, k]
        return grads

    @cached_property
    def _optimum_point(self) -> np.ndarray:
        total = self.curvatures.sum(axis=0)
        rhs = np.einsum("mij,mj->i", self.curvatures, self.centers)
        try:
            sol = np.linalg.solve(total, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateProblemError(f"averaged curvature is singular: {exc}") from exc
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is unreliable too
            residual = np.linalg.norm(total @ sol - rhs)
            scale = np.linalg.norm(rhs)
        if (not np.all(np.isfinite(sol)) or not math.isfinite(residual)
                or residual > 1e-8 * max(1.0, scale)):
            raise DegenerateProblemError(
                f"optimum solve is unreliable (residual {residual:g}); problem is degenerate"
            )
        object.__setattr__(self, "_optimum_report", {"method": "solve", "residual": float(residual)})
        return sol

    @property
    def w_star(self) -> np.ndarray:
        return self._optimum_point

    @cached_property
    def _gstar(self) -> float:
        # one einsum over the machines, not the base's per-machine dot
        # products: target_gstar rescales the centers by this value, and the
        # two forms differ in the last bits
        diff = self.w_star[None, :] - self.centers
        grads = np.einsum("mij,mj->mi", self.curvatures, diff)
        return math.sqrt(2.0 * float((grads ** 2).sum(axis=1).mean()))


@dataclass(frozen=True, eq=False)
class LogisticEnsemble(_Ensemble):
    """Softmax regression over per-machine data, parameters flattened from
    a (num_classes, d) weight matrix. Machine i holds the (N_i, d) feature
    block ``features[i]`` and its (N_i,) integer labels ``labels[i]``. With
    l2 > 0 the global optimum is unique and found by full-batch gradient
    descent to tiny gradient norm; ``reference_point`` short-circuits that
    oracle for large corpora where only reference-based excess curves are
    needed."""

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
        for i, f in enumerate(feats):
            if f.ndim != 2:
                raise ValueError(f"machine {i} features must be 2-D, got shape {f.shape}")
        width = feats[0].shape[1]
        for i, (f, l) in enumerate(zip(feats, labs)):
            if f.shape[1] != width:
                raise ValueError(f"machine {i} features shape {f.shape} != (N, {width})")
            if f.shape[0] == 0:
                raise ValueError(f"machine {i} has no examples")
            if l.shape != (f.shape[0],):
                raise ValueError(f"machine {i} labels shape {l.shape} mismatched")
            if l.min() < 0 or l.max() >= self.num_classes:
                raise ValueError(f"machine {i} labels outside [0, {self.num_classes})")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

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
        return _log_softmax(self.features[machine] @ weight_mats.swapaxes(-1, -2))

    def _pooled_log_probs(self, mat: np.ndarray) -> np.ndarray:
        """(N, C) log-probabilities of every machine's examples under one
        (C, f) weight matrix, rows in ``_pooled`` order. Each machine's
        logits are its own matmul, as in ``_log_probs``: one product over
        all N rows is not bitwise equal when a machine holds one example."""
        _, labels, _ = self._pooled
        logits = np.empty((labels.shape[0], self.num_classes))
        for f, rows in zip(self.features, self._pooled_spans):
            logits[rows] = f @ mat.T
        return _log_softmax(logits)

    @cached_property
    def _pooled_spans(self) -> tuple[slice, ...]:
        """Each machine's rows of the pooled examples."""
        _, _, offsets = self._pooled
        return tuple(slice(start, start + f.shape[0])
                     for start, f in zip(offsets.tolist(), self.features))

    @cached_property
    def _pooled_picks(self) -> tuple[np.ndarray, np.ndarray]:
        """The (rows, labels) index pair of every pooled example's
        true-class entry."""
        _, labels, _ = self._pooled
        return np.arange(labels.shape[0]), labels

    def _values(self, machine: int, w: np.ndarray) -> np.ndarray:
        """f_i at w of shape (..., d), one value per lane."""
        logp = self._log_probs(machine, self._matrix(w))
        # contiguous picks, so each lane's mean is the pairwise sum of a 1-D one
        picks = np.ascontiguousarray(logp[(..., *self._label_picks[machine])])
        return -picks.mean(axis=-1) + 0.5 * self.l2 * squared_norms(w)

    def _gradient(self, probs: np.ndarray, feats: np.ndarray, mats: np.ndarray) -> np.ndarray:
        """A machine's (..., C, f) gradient from its (..., n, C) probabilities
        with the true-class entries already less one."""
        return probs.swapaxes(-1, -2) @ feats / feats.shape[0] + self.l2 * mats

    def _gradients(self, machine: int, w: np.ndarray) -> np.ndarray:
        """grad f_i at w of shape (..., d), one row per lane."""
        mats = self._matrix(w)
        probs = np.exp(self._log_probs(machine, mats))
        probs[(..., *self._label_picks[machine])] -= 1.0
        return self._gradient(probs, self.features[machine], mats).reshape(w.shape)

    def machine_value(self, machine: int, w: np.ndarray) -> float:
        return float(self._values(machine, np.asarray(w)))

    def exact_gradient(self, machine: int, w: np.ndarray) -> np.ndarray:
        return self._gradients(machine, np.asarray(w))

    def global_value(self, x: np.ndarray) -> float | np.ndarray:
        """f at x of shape (..., d): a float for one point, else one value
        per lane, each bitwise equal to its own call. One point runs one
        log-softmax over the pooled rows; lanes run one per machine."""
        x = np.asarray(x)
        values = np.empty(x.shape[:-1] + (self.num_machines,))
        if x.ndim == 1:
            picks = self._pooled_log_probs(self._matrix(x))[self._pooled_picks]
            decay = 0.5 * self.l2 * squared_norms(x)
            for i, rows in enumerate(self._pooled_spans):
                values[i] = -picks[rows].mean() + decay
            return float(values.mean())
        for i in range(self.num_machines):
            values[..., i] = self._values(i, x)
        return values.mean(axis=-1)

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad f at x of shape (..., d), any leading (lane) axes; each
        lane's row equals its own call bitwise. One point runs one
        log-softmax over the pooled rows; lanes run one per machine."""
        x = np.asarray(x)
        acc = np.zeros(x.shape)
        if x.ndim == 1:
            mat = self._matrix(x)
            probs = np.exp(self._pooled_log_probs(mat))
            probs[self._pooled_picks] -= 1.0
            for feats, rows in zip(self.features, self._pooled_spans):
                acc += self._gradient(probs[rows], feats, mat).reshape(x.shape)
        else:
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

    def round_draws(self, seeds, rnd: int, steps: int) -> np.ndarray:
        """(seeds, M, steps) rows of the pooled examples: machine i's step-k
        pick of each seed, shifted by the machine's offset (machines hold
        unequal counts)."""
        _, _, offsets = self._pooled
        picks = np.array([[index_rows(seed, i, rnd, steps, f.shape[0])
                           for i, f in enumerate(self.features)]
                          for seed in seeds])
        return picks + offsets[:, None]

    def sampled_gradients(self, points: np.ndarray, draws: np.ndarray, k: int,
                          lanes: np.ndarray) -> np.ndarray:
        """Single-example gradients, the batched form of _example_gradient;
        each lane's label is subtracted in its own lane."""
        feats, labels, _ = self._pooled
        picks = draws[lanes, :, k]                     # (lanes, M)
        rows = feats[picks]                            # (lanes, M, f)
        mats = points.reshape(*points.shape[:-1], self.num_classes, self.feature_dim)
        logits = (mats @ rows[..., :, None])[..., 0]   # (lanes, M, C)
        logits -= _class_max(logits)
        probs = np.exp(logits)
        probs /= _class_sum(probs)
        probs[np.arange(len(picks))[:, None], np.arange(picks.shape[1]), labels[picks]] -= 1.0
        grads = probs[..., :, None] * rows[..., None, :] + self.l2 * mats
        return grads.reshape(points.shape)

    @cached_property
    def _smoothness(self) -> float:
        # softmax cross-entropy curvature in the logits is at most 1/2
        with np.errstate(over="ignore"):  # +inf for huge features; the optimum rejects it
            sq = max(float((f ** 2).sum(axis=1).max()) for f in self.features)
        return 0.5 * sq + self.l2

    @cached_property
    def _optimum_point(self) -> np.ndarray:
        if self.l2 <= 0:
            raise DegenerateProblemError(
                "unregularized logistic optimum may be unattained; set l2 > 0"
            )
        if not math.isfinite(self.smoothness()):  # the step 1/L would be 0
            raise DegenerateProblemError(f"smoothness {self.smoothness():g} is not finite")
        step = 1.0 / self.smoothness()
        w = np.zeros(self.dim)
        for steps in range(_OPTIMUM_MAX_ITERS):
            grad = self.global_gradient(w)
            norm = np.linalg.norm(grad)
            if norm <= _OPTIMUM_GRAD_TOL:
                object.__setattr__(self, "_optimum_report", {
                    "method": "gradient-descent", "steps": steps, "grad_norm": float(norm)})
                return w
            if not math.isfinite(norm):
                raise DegenerateProblemError(f"optimum oracle met gradient norm {norm:g}")
            nxt = w - step * grad
            if np.array_equal(nxt, w):  # a fixed point of the float map: no later step moves
                raise DegenerateProblemError(
                    f"optimum oracle stalled at gradient norm {norm:g}: a full-batch step "
                    f"leaves the iterate unchanged, so {_OPTIMUM_GRAD_TOL:g} is out of reach"
                )
            w = nxt
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
    def sigma(self) -> float:
        """Single-example gradient noise std sqrt(mean_i E_n ||g_n - grad_i||^2)
        at the optimum. Closed form; no sampling involved."""
        w = self.w_star
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
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
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
