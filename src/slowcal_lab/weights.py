"""Step-weight schedules for weighted-averaging SGD variants.

A schedule assigns a positive weight alpha_t to every global step t >= 0.
Three families are supported:

    uniform      alpha_t = 1
    linear       alpha_t = t + 1
    poly:<p>     alpha_t = (t + 1) ** p   (uniform is p=0, linear is p=1)

The averaging coefficient gamma_{t+1} = alpha_{t+1} / alpha_{0:t+1} is what
the query-averaging recursions consume: folding it step by step reproduces
the weighted running average of the iterates exactly.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

_KINDS = ("uniform", "linear", "polynomial")

# Kahan-compensated partial sums per polynomial power, grown on demand.
# Closed forms cover p in {0, 1}; anything else lands here.
_prefix_cache: dict[float, list[float]] = {}
_prefix_carry: dict[float, float] = {}
_prefix_lock = threading.Lock()


@dataclass(frozen=True)
class WeightSchedule:
    """Immutable description of one weight family."""

    kind: str
    power: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "polynomial" and self.power < 0:
            raise ValueError(f"polynomial power must be nonnegative, got {self.power}")

    @property
    def effective_power(self) -> float:
        if self.kind == "uniform":
            return 0.0
        if self.kind == "linear":
            return 1.0
        return float(self.power)


UNIFORM = WeightSchedule("uniform")
LINEAR = WeightSchedule("linear")


def parse_schedule(text: str) -> WeightSchedule:
    """Parse ``uniform | linear | poly:<p>`` config syntax."""
    name = text.strip()
    if name == "uniform":
        return UNIFORM
    if name == "linear":
        return LINEAR
    if name.startswith("poly:"):
        try:
            power = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad polynomial power in schedule {text!r}") from exc
        if not math.isfinite(power):
            raise ValueError(f"polynomial power must be finite, got {text!r}")
        return WeightSchedule("polynomial", power)
    raise ValueError(f"unknown schedule {text!r}, expected uniform | linear | poly:<p>")


def _check_step(t: int) -> int:
    step = int(t)
    if step < 0:
        raise ValueError(f"step index must be nonnegative, got {t}")
    return step


def weight_at(schedule: WeightSchedule, t: int) -> float:
    """alpha_t."""
    step = _check_step(t)
    p = schedule.effective_power
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return float(step + 1)
    return float(step + 1) ** p


def prefix_weight(schedule: WeightSchedule, t: int) -> float:
    """alpha_{0:t} = sum of alpha_tau for tau = 0..t inclusive.

    Closed forms for p in {0, 1} are exact in float64 up to t ~ 1e6
    (integer-valued below 2**53); other powers use cached compensated
    running sums so repeated queries stay O(1) amortized and drift-free.
    """
    step = _check_step(t)
    p = schedule.effective_power
    if p == 0.0:
        return float(step + 1)
    if p == 1.0:
        return float(step + 1) * float(step + 2) / 2.0
    with _prefix_lock:
        sums = _prefix_cache.setdefault(p, [])
        carry = _prefix_carry.get(p, 0.0)
        total = sums[-1] if sums else 0.0
        for n in range(len(sums), step + 1):
            term = float(n + 1) ** p - carry
            fresh = total + term
            carry = (fresh - total) - term
            total = fresh
            sums.append(total)
        _prefix_carry[p] = carry
        return sums[step]


def averaging_coeff(schedule: WeightSchedule, t: int) -> float:
    """gamma_{t+1} = alpha_{t+1} / alpha_{0:t+1}, the fold-in coefficient
    that moves a weighted running average from step t to step t+1."""
    step = _check_step(t)
    return weight_at(schedule, step + 1) / prefix_weight(schedule, step + 1)
