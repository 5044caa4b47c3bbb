"""Step-weight schedules for weighted-averaging SGD variants.

A schedule assigns a positive weight alpha_t to every global step t >= 0,
and is nothing but its power p >= 0:

    poly:<p>     alpha_t = (t + 1) ** p
    uniform      p = 0, alpha_t = 1        (``UNIFORM``)
    linear       p = 1, alpha_t = t + 1    (``LINEAR``)

The averaging coefficient gamma_{t+1} = alpha_{t+1} / alpha_{0:t+1} is what
the query-averaging recursions consume: folding it step by step reproduces
the weighted running average of the iterates exactly.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

# Kahan-compensated partial sums per polynomial power, grown on demand.
# Closed forms cover p in {0, 1}; anything else lands here.
_prefix_cache: dict[float, list[float]] = {}
_prefix_carry: dict[float, float] = {}
_prefix_lock = threading.Lock()


@dataclass(frozen=True)
class WeightSchedule:
    """alpha_t = (t + 1) ** power."""

    power: float

    def __post_init__(self) -> None:
        if not (self.power >= 0 and math.isfinite(self.power)):
            raise ValueError(f"schedule power must be nonnegative and finite, got {self.power}")


UNIFORM = WeightSchedule(0.0)
LINEAR = WeightSchedule(1.0)


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
        return WeightSchedule(power)
    raise ValueError(f"unknown schedule {text!r}, expected uniform | linear | poly:<p>")


def _check_step(t: int) -> int:
    step = int(t)
    if step < 0:
        raise ValueError(f"step index must be nonnegative, got {t}")
    return step


def weight_at(schedule: WeightSchedule, t: int) -> float:
    """alpha_t."""
    step = _check_step(t)
    p = schedule.power
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
    p = schedule.power
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
