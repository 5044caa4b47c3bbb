"""Deterministic keyed random streams.

Every stochastic draw in a run is addressed by the 4-tuple
(seed, machine, round, step). One numpy stream is keyed per
(seed, machine, round); the draw for step k is the k-th fixed-width row
pulled from that stream. numpy Generators fill requested arrays in
stream order, so a block of `steps` rows extends a block of fewer rows
without changing the shared prefix: row k is a pure function of the full
4-tuple no matter how many rows are materialized. That lets the oracles
pre-draw one block per machine-round.
"""
from __future__ import annotations

import numpy as np


def machine_round_stream(seed: int, machine: int, rnd: int) -> np.random.Generator:
    if seed < 0 or machine < 0 or rnd < 0:
        raise ValueError(f"stream key parts must be nonnegative, got {(seed, machine, rnd)}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(machine), int(rnd)))
    return np.random.default_rng(ss)


def normal_rows(seed: int, machine: int, rnd: int, steps: int, dim: int) -> np.ndarray:
    """(steps, dim) standard-normal block; row k is step k's draw."""
    return machine_round_stream(seed, machine, rnd).standard_normal((steps, dim))


def index_rows(seed: int, machine: int, rnd: int, steps: int, n: int) -> np.ndarray:
    """(steps,) uniform indices in [0, n); entry k is step k's draw."""
    return machine_round_stream(seed, machine, rnd).integers(0, n, size=steps)
