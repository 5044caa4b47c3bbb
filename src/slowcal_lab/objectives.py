"""Convex objectives split across machines.

Two ensemble families share one oracle surface:

* ``QuadraticEnsemble`` -- per-machine quadratics f_i(x) = 0.5 (x-b_i)' A_i (x-b_i)
  with isotropic Gaussian gradient noise of total power sigma^2.
* ``LogisticEnsemble`` -- per-machine softmax regression with L2 weight decay;
  stochastic gradients sample one local example uniformly.

The global objective is always the machine average f = (1/M) sum_i f_i. The
``_Ensemble`` base reads w* and its report from each class's one
``_optimum_point`` and derives f*, G*, the growth and dissimilarity probes
and ``metadata`` from the oracles; each problem scalar is one attribute.
The quadratic L is exact: the largest curvature eigenvalue, from the one
batched eigen-solve that also checks every matrix is PSD. The softmax
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
steps)`` example rows for softmax regression) from one block call of
``normal_rows`` or ``index_rows``, which seeds every (seed, machine)
stream of the round in one pass, and
``sampled_gradients(points, draws, k, lanes)`` evaluates step k at query
points of shape ``(lanes, M, d)``, row i on machine i, lane j taking the
draws of row ``lanes[j]`` of that stack. Row i of lane j's result equals
``round_sampler(seeds[lanes[j]], i, rnd, steps)(k, points[j, i])``
bitwise. ``round_sampler``, that per-machine reference, draws from each
key's own ``machine_round_stream``, so a fault in the block seeding shows.
``fixed_point_gradients(points, draws, steps, lanes)`` yields
``sampled_gradients(points, draws, k, lanes)`` for k = 0, ..., steps - 1,
bitwise, at points fixed for the round (minibatch SGD's): the quadratic
computes the noise-free part once and adds each step's noise to it.
``exact_gradients(points)`` is the noise-free counterpart with one row
per machine; it, ``global_gradient(x)`` and
``global_value(x)`` take any leading lane axes, so one call measures
every lane of a round (``global_value`` of a single point stays a float).
Each lane's result is bitwise equal to a call of its own; the quadratic
``global_value`` is one batched einsum over every lane (one call per lane
for a one-machine, 2-D ensemble, where einsum's order moves with the row
count). The softmax
oracle has one lane body: per machine, one strided matmul over every
lane's weight matrix for the logits and one for the gradient, with the
log-sum-exp and label picks on (lanes, n, C) arrays; the one-point methods
(``machine_value``, ``exact_gradient``, ``global_value``) are its one-lane
calls. A one-point ``global_gradient`` (the optimum's descent) pools
instead, through ``log_probs``: each machine's logits, still its own
matmul, fill one (N, C) buffer in machine order, and the log-softmax, exp
and label picks run once on it; the gradient products stay per machine,
summed in machine order. Lane calls stay per machine, where pooled (lanes,
N, C) temporaries cost more than the saved calls. The class-axis max
chains whole columns, where numpy's reduce walks the short axis once per
row; the sum chains them below 8 classes and keeps numpy's reduce from 8.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .metrics import squared_norms
from .rng import index_rows, machine_round_stream, normal_rows, sizable

GROWTH_SLACK_FLOOR = -1e-9
_PSD_EIG_FLOOR = -1e-10
_OPTIMUM_GRAD_TOL = 1e-10
_OPTIMUM_MAX_ITERS = 4_000_000
_PAIRWISE_BLOCK = 8  # numpy sums 8 or more contiguous values pairwise


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
    reads), ``smoothness`` (the L it reads), the lane oracles
    ``exact_gradients``, ``global_value`` and ``global_gradient``,
    ``round_sampler`` and its own ``_optimum_point`` cached_property: the
    optimum and the report of how exact it is, computed together, once."""

    @property
    def w_star(self) -> np.ndarray:
        return self._optimum_point[0]

    def optimum_report(self) -> dict:
        """How exact the optimum is: the method and its convergence measure,
        recorded by ``_optimum_point`` as it computed the point."""
        return dict(self._optimum_point[1])

    @cached_property
    def f_star(self) -> float:
        return self.global_value(self.w_star)

    def _mean_squared_gradient(self, x: np.ndarray) -> float:
        """mean_i ||grad f_i(x)||^2, from one call at x on every machine."""
        grads = self.exact_gradients(np.broadcast_to(x, (self.num_machines, x.shape[-1])))
        return float(squared_norms(grads).mean())

    @cached_property
    def gstar(self) -> float:
        """G* = sqrt(2 mean_i ||grad f_i(w*)||^2)."""
        return math.sqrt(2.0 * self._mean_squared_gradient(self.w_star))

    def check_growth_bound(self, x: np.ndarray) -> tuple[bool, float]:
        """Slack in mean_i ||grad_i(x)||^2 <= gstar^2 + 4 L (f(x) - f*)."""
        point = np.asarray(x, dtype=np.float64)
        mean_sq = self._mean_squared_gradient(point)
        bound = self.gstar ** 2 + 4.0 * self.smoothness * (
            self.global_value(point) - self.f_star
        )
        slack = float(bound - mean_sq)
        return slack >= GROWTH_SLACK_FLOOR, slack

    def g_dissimilarity(self, probes: np.ndarray) -> float:
        """Probe-point estimate of the uniform gradient-dissimilarity constant:
        sqrt(2 max_p mean_i ||grad_i - grad||^2). A lower bound on the true sup;
        reported for diagnostics only, never fed into step-size formulas."""
        pts = np.atleast_2d(np.asarray(probes, dtype=np.float64))
        grads = self.exact_gradients(
            np.broadcast_to(pts[:, None, :], (len(pts), self.num_machines, pts.shape[1])))
        spreads = squared_norms(grads - self.global_gradient(pts)[:, None, :]).mean(axis=-1)
        # fmax skips a NaN spread, as a max that starts from zero
        return math.sqrt(2.0 * float(np.fmax.reduce(spreads, initial=0.0)))

    def fixed_point_gradients(self, points: np.ndarray, draws, steps: int,
                              lanes: np.ndarray):
        """Yields ``sampled_gradients(points, draws, k, lanes)`` for k = 0,
        ..., steps - 1, at query points that stay fixed through the round
        (minibatch SGD's): softmax regression picks other examples at each
        step, so each is its own call."""
        for k in range(steps):
            yield self.sampled_gradients(points, draws, k, lanes)

    def metadata(self, x0: np.ndarray) -> ProblemMetadata:
        """The problem scalars; b0 is +inf for a start past float range,
        which the runs then diverge from."""
        with np.errstate(over="ignore", invalid="ignore"):
            b0 = float(np.linalg.norm(np.asarray(x0, dtype=np.float64) - self.w_star))
        return ProblemMetadata(
            smoothness=self.smoothness,
            sigma=self.sigma,
            gstar=self.gstar,
            f_star=self.f_star,
            b0=b0,
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
        if not np.isfinite(cents).all():
            raise ValueError("centers must be finite")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        eigs = np.linalg.eigvalsh(mats)  # (M, d); one batched solve, bitwise per matrix
        for i, mat in enumerate(mats):
            if not np.allclose(mat, mat.T, atol=1e-10):
                raise ValueError(f"curvature matrix {i} is not symmetric")
            floor = float(eigs[i].min())
            if floor < _PSD_EIG_FLOOR:
                raise ValueError(f"curvature matrix {i} is not PSD: min eigenvalue {floor:g}")
        object.__setattr__(self, "smoothness", float(eigs.max()))
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
        per lane. Every lane's machine values come from one batched einsum,
        each row bitwise the one-lane einsum's whatever the row count; their
        means are one reduction over the machine axis, which is too."""
        x = np.asarray(x)
        diff = x.reshape(-1, 1, x.shape[-1]) - self.centers  # (rows, M, d)
        if self.curvatures.shape[:2] == (1, 2):
            # one machine in 2-D: einsum sums a row's four terms pairwise for
            # one or two rows and in sequence for more, so each row is its own call
            vals = np.array([0.5 * np.einsum("mi,mij,mj->m", row, self.curvatures, row)
                             for row in diff])
        else:
            vals = 0.5 * np.einsum("nmi,mij,nmj->nm", diff, self.curvatures, diff)
        values = (vals.sum(axis=-1) / self.num_machines).reshape(x.shape[:-1])
        return float(values) if x.ndim == 1 else values

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad f at x of shape (..., d), any leading (lane) axes; each
        lane's row equals its own call bitwise."""
        diff = x[..., None, :] - self.centers
        return np.einsum("mij,...mj->...i", self.curvatures, diff) / self.num_machines

    def round_sampler(self, seed: int, machine: int, rnd: int, steps: int):
        """The per-machine reference oracle: sample(k, x) is the step-k
        stochastic gradient at x, the round's noise drawn from the key's
        own ``machine_round_stream``, not through ``normal_rows``."""
        mat = self.curvatures[machine]
        center = self.centers[machine]
        if self.sigma == 0.0:
            def sample(k: int, x: np.ndarray) -> np.ndarray:
                return mat @ (x - center)
            return sample
        scale = self.sigma / math.sqrt(self.dim)
        noise = machine_round_stream(seed, machine, rnd).standard_normal((steps, self.dim)) * scale

        def sample(k: int, x: np.ndarray) -> np.ndarray:
            return mat @ (x - center) + noise[k]
        return sample

    def round_draws(self, seeds, rnd: int, steps: int) -> np.ndarray | None:
        """(seeds, M, steps, d) scaled noise for one round of every seed;
        None when sigma=0."""
        if self.sigma == 0.0:
            return None
        draws = normal_rows(seeds, range(self.num_machines), rnd, steps, self.dim)
        draws *= self.sigma / math.sqrt(self.dim)
        return draws

    def sampled_gradients(self, points: np.ndarray, draws: np.ndarray | None,
                          k: int, lanes: np.ndarray) -> np.ndarray:
        grads = self.exact_gradients(points)
        if draws is not None:
            grads += draws[lanes, :, k]
        return grads

    def fixed_point_gradients(self, points: np.ndarray, draws: np.ndarray | None,
                              steps: int, lanes: np.ndarray):
        """``_Ensemble.fixed_point_gradients`` with the noise-free part
        computed once: each step adds its noise to it, the sum
        ``sampled_gradients`` makes, bitwise. With sigma=0 every step yields
        that one array."""
        exact = self.exact_gradients(points)
        for k in range(steps):
            if draws is None:
                yield exact
                continue
            grads = draws[lanes, :, k]  # a fresh copy
            grads += exact
            yield grads

    @cached_property
    def _optimum_point(self) -> tuple[np.ndarray, dict]:
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
        return sol, {"method": "solve", "residual": float(residual)}

    @cached_property
    def gstar(self) -> float:
        # one einsum over the machines, not the base's per-machine dot
        # products: target_gstar rescales the centers by this value, and the
        # two forms differ in the last bits
        diff = self.w_star[None, :] - self.centers
        grads = np.einsum("mij,mj->mi", self.curvatures, diff)
        with np.errstate(over="ignore"):  # an overflow is rejected by name below
            gstar = math.sqrt(2.0 * float((grads ** 2).sum(axis=1).mean()))
        if not math.isfinite(gstar):
            raise DegenerateProblemError(f"G* = {gstar:g} is not finite")
        return gstar


@dataclass(frozen=True, eq=False)
class LogisticEnsemble(_Ensemble):
    """Softmax regression over per-machine data, parameters flattened from
    a (num_classes, d) weight matrix. The examples are held once, in
    machine order: the (N, d) ``features`` and (N,) integer ``labels``,
    of which machine i holds the next ``sizes[i]`` rows; each machine's
    block is a view of its row span. With l2 > 0 the global optimum is
    unique and found by full-batch gradient descent to tiny gradient norm;
    ``reference_point`` short-circuits that oracle for large corpora where
    only reference-based excess curves are needed; its optimum report is
    ``{"method": "reference"}``."""

    features: np.ndarray
    labels: np.ndarray
    sizes: tuple[int, ...]
    num_classes: int
    l2: float = 0.0
    reference_point: np.ndarray | None = None

    def __post_init__(self) -> None:
        # a float64 (int64) C-contiguous array is kept, not copied
        feats = np.asarray(self.features, dtype=np.float64, order="C")
        labs = np.asarray(self.labels, dtype=np.int64, order="C")
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes:
            raise ValueError("need at least one machine")
        if self.num_classes < 2:
            raise ValueError(f"need at least two classes, got {self.num_classes}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be nonnegative, got {self.l2}")
        if feats.ndim != 2 or feats.shape[1] == 0:
            raise ValueError(f"features must be 2-D with a column, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ValueError(f"labels shape {labs.shape} does not match {feats.shape[0]} examples")
        for i, n in enumerate(sizes):
            if n <= 0:
                raise ValueError(f"machine {i} has no examples (size {n})")
        if sum(sizes) != feats.shape[0]:
            raise ValueError(f"machine sizes sum to {sum(sizes)}, not the {feats.shape[0]} examples")
        offsets = np.cumsum((0,) + sizes[:-1], dtype=np.int64)
        outside = (labs < 0) | (labs >= self.num_classes)
        if outside.any():
            machine = int(np.searchsorted(offsets, outside.argmax(), side="right")) - 1
            raise ValueError(f"machine {machine} labels outside [0, {self.num_classes})")
        spans = tuple(slice(start, start + n) for start, n in zip(offsets.tolist(), sizes))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_spans", spans)
        object.__setattr__(self, "_blocks", tuple(feats[rows] for rows in spans))

    @property
    def num_machines(self) -> int:
        return len(self.sizes)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.num_classes * self.feature_dim

    def _matrix(self, w: np.ndarray) -> np.ndarray:
        """(..., d) parameters as (..., num_classes, feature_dim) weight matrices."""
        return w.reshape(*w.shape[:-1], self.num_classes, self.feature_dim)

    @cached_property
    def _label_picks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per machine, the (rows, labels) index pair of its true-class entries."""
        return tuple((np.arange(n), self.labels[rows]) for n, rows in zip(self.sizes, self._spans))

    def _log_probs(self, machine: int, weight_mats: np.ndarray) -> np.ndarray:
        """(..., n, C) log-probabilities of the machine's examples under
        (..., C, f) weight matrices: one strided matmul over the lanes, so
        each lane's slice is the same BLAS call as a one-lane call."""
        return _log_softmax(self._blocks[machine] @ weight_mats.swapaxes(-1, -2))

    def log_probs(self, w: np.ndarray) -> np.ndarray:
        """(N, C) log-probabilities of every example at one point w, rows in
        machine order, each machine's bitwise its ``_log_probs``: its logits
        are its own matmul, as one product over all N rows is not bitwise
        equal when a machine holds one example."""
        mat = self._matrix(w)
        logits = np.empty((self.labels.shape[0], self.num_classes))
        for f, rows in zip(self._blocks, self._spans):
            logits[rows] = f @ mat.T
        return _log_softmax(logits)

    @cached_property
    def _pooled_picks(self) -> tuple[np.ndarray, np.ndarray]:
        """The (rows, labels) index pair of every example's true-class entry."""
        return np.arange(self.labels.shape[0]), self.labels

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
        return self._gradient(probs, self._blocks[machine], mats).reshape(w.shape)

    def machine_value(self, machine: int, w: np.ndarray) -> float:
        return float(self._values(machine, np.asarray(w)))

    def exact_gradient(self, machine: int, w: np.ndarray) -> np.ndarray:
        return self._gradients(machine, np.asarray(w))

    def global_value(self, x: np.ndarray) -> float | np.ndarray:
        """f at x of shape (..., d): a float for one point, else one value
        per lane, each bitwise equal to its own call; one lane body call
        per machine."""
        x = np.asarray(x)
        values = np.empty(x.shape[:-1] + (self.num_machines,))
        for i in range(self.num_machines):
            values[..., i] = self._values(i, x)
        return float(values.mean()) if x.ndim == 1 else values.mean(axis=-1)

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad f at x of shape (..., d), any leading (lane) axes; each
        lane's row equals its own call bitwise. One point runs one
        log-softmax over the pooled rows; lanes run one per machine."""
        x = np.asarray(x)
        acc = np.zeros(x.shape)
        if x.ndim == 1:
            mat = self._matrix(x)
            probs = np.exp(self.log_probs(x))
            probs[self._pooled_picks] -= 1.0
            for feats, rows in zip(self._blocks, self._spans):
                acc += self._gradient(probs[rows], feats, mat).reshape(x.shape)
        else:
            for i in range(self.num_machines):
                acc += self._gradients(i, x)
        return acc / self.num_machines

    def _example_gradient(self, machine: int, example: int, w: np.ndarray) -> np.ndarray:
        mat = self._matrix(np.asarray(w))
        rows = self._spans[machine]
        row = self.features[rows][example]
        logits = mat @ row
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        probs[self.labels[rows][example]] -= 1.0
        return (np.outer(probs, row) + self.l2 * mat).reshape(-1)

    def round_sampler(self, seed: int, machine: int, rnd: int, steps: int):
        """The per-machine reference oracle: sample(k, x) is the gradient at x
        of step k's example, picked from the key's own ``machine_round_stream``."""
        stream = machine_round_stream(seed, machine, rnd)
        picks = stream.integers(0, self.sizes[machine], size=steps)

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

    def round_draws(self, seeds, rnd: int, steps: int) -> np.ndarray:
        """(seeds, M, steps) rows of ``features``: machine i's step-k pick
        of each seed, shifted by the machine's first row (machines hold
        unequal counts)."""
        picks = index_rows(seeds, range(self.num_machines), rnd, steps, self.sizes)
        picks += self._offsets[:, None]
        return picks

    def sampled_gradients(self, points: np.ndarray, draws: np.ndarray, k: int,
                          lanes: np.ndarray) -> np.ndarray:
        """Single-example gradients, the batched form of _example_gradient;
        each lane's label is subtracted in its own lane."""
        picks = draws[lanes, :, k]                     # (lanes, M)
        rows = self.features[picks]                    # (lanes, M, f)
        mats = points.reshape(*points.shape[:-1], self.num_classes, self.feature_dim)
        logits = (mats @ rows[..., :, None])[..., 0]   # (lanes, M, C)
        logits -= _class_max(logits)
        probs = np.exp(logits)
        probs /= _class_sum(probs)
        probs[np.arange(len(picks))[:, None], np.arange(picks.shape[1]), self.labels[picks]] -= 1.0
        grads = probs[..., :, None] * rows[..., None, :] + self.l2 * mats
        return grads.reshape(points.shape)

    @cached_property
    def smoothness(self) -> float:
        # softmax cross-entropy curvature in the logits is at most 1/2; the
        # squares are taken per machine, never as a second copy of all the features
        with np.errstate(over="ignore"):  # +inf for huge features; the optimum rejects it
            sq = max(float((f ** 2).sum(axis=1).max()) for f in self._blocks)
        return 0.5 * sq + self.l2

    @cached_property
    def _optimum_point(self) -> tuple[np.ndarray, dict]:
        if self.reference_point is not None:
            return np.asarray(self.reference_point, dtype=np.float64), {"method": "reference"}
        if self.l2 <= 0:
            raise DegenerateProblemError(
                "unregularized logistic optimum may be unattained; set l2 > 0"
            )
        if not math.isfinite(self.smoothness):  # the step 1/L would be 0
            raise DegenerateProblemError(f"smoothness {self.smoothness:g} is not finite")
        step = 1.0 / self.smoothness
        w = np.zeros(self.dim)
        for steps in range(_OPTIMUM_MAX_ITERS):
            grad = self.global_gradient(w)
            norm = np.linalg.norm(grad)
            if norm <= _OPTIMUM_GRAD_TOL:
                return w, {"method": "gradient-descent", "steps": steps, "grad_norm": float(norm)}
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

    @cached_property
    def sigma(self) -> float:
        """Single-example gradient noise std sqrt(mean_i E_n ||g_n - grad_i||^2)
        at the optimum. Closed form; no sampling involved. A
        DegenerateProblemError where its terms leave float range."""
        w = self.w_star
        mat = self._matrix(w)
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total is rejected below
            try:
                sq_l2 = self.l2 ** 2
            except OverflowError:  # a Python float power past float range raises
                sq_l2 = math.inf
            sq_l2w = float((mat ** 2).sum())
            for i in range(self.num_machines):
                feats = self._blocks[i]
                probs = np.exp(self._log_probs(i, mat))
                probs[self._label_picks[i]] -= 1.0
                qnorm = (probs ** 2).sum(axis=1)
                anorm = (feats ** 2).sum(axis=1)
                cross = (probs * (feats @ mat.T)).sum(axis=1)
                second_moment = float(
                    np.mean(qnorm * anorm + 2.0 * self.l2 * cross) + sq_l2 * sq_l2w
                )
                mean_grad = self._gradient(probs, feats, mat).reshape(-1)  # the same forward
                total += second_moment - float(mean_grad @ mean_grad)
        if not math.isfinite(total):
            raise DegenerateProblemError(
                f"the gradient-noise sigma is not finite (its second moments sum to {total:g})")
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

    # allocated first, so a machine count numpy cannot hold fails before any QR;
    # QuadraticEnsemble rejects a curvature past float range by name
    mats = np.empty(sizable((num_machines, dim, dim)))
    with np.errstate(over="ignore", invalid="ignore"):
        if curvature == "shared":
            mats[:] = random_psd()
        else:
            for mat in mats:
                mat[:] = random_psd()

    with np.errstate(over="ignore"):  # QuadraticEnsemble rejects a non-finite center
        centers = center_spread * rng.standard_normal((num_machines, dim)) / math.sqrt(dim)
    ensemble = QuadraticEnsemble(mats, centers, sigma)
    if target_gstar is None:
        return ensemble
    if target_gstar < 0:
        raise ValueError(f"target_gstar must be nonnegative, got {target_gstar}")
    if target_gstar == 0.0:
        return QuadraticEnsemble(mats, np.zeros_like(centers), sigma)
    base = ensemble.gstar
    if base == 0.0:
        raise ValueError("cannot rescale centers to positive target_gstar from G*=0")
    return QuadraticEnsemble(mats, centers * (target_gstar / base), sigma)
