"""Deterministic keyed random streams.

Every stochastic draw in a run is addressed by the 4-tuple
(seed, machine, round, step). One numpy stream is keyed per
(seed, machine, round); the draw for step k is the k-th fixed-width row
pulled from that stream. numpy Generators fill requested arrays in
stream order, so a block of `steps` rows extends a block of fewer rows
without changing the shared prefix: row k is a pure function of the full
4-tuple no matter how many rows are materialized. That lets the oracles
pre-draw one block per machine-round.

The stream of a key is numpy's ``default_rng(SeedSequence(seed,
spawn_key=(machine, round)))``; ``machine_round_stream`` builds it that
way, and stays the per-key reference. ``normal_rows`` and ``index_rows``
take a list of seeds and a list of machines and draw a round's rows for
every (seed, machine) key of that block at once. A block takes one of two
paths. When every seed is below 2**128 and every machine and the round
are below 2**32, it seeds every stream in one vectorised pass:
``_state_words`` runs SeedSequence's hash in uint32 numpy arithmetic over
every key (the ``hashmix``/``mix`` entropy pool over the seed's four
little-endian 32-bit words, zero-padded, then the machine and the round,
then ``generate_state(4, np.uint64)``), and each key's PCG64 takes its
four state words from it, so every stream is bitwise numpy's own. A key
with a larger part has more entropy words than that layout holds, so a
block with one builds every key's stream with ``machine_round_stream``.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_INTP_MAX = np.iinfo(np.intp).max
_WORD_BITS = 32
_WORD_MASK = (1 << _WORD_BITS) - 1
_POOL_WORDS = 4  # SeedSequence's pool size
_SEED_LIMIT = 1 << _WORD_BITS * _POOL_WORDS  # seeds below this fill exactly the pool

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _multipliers(start: int, mult: int, calls: int) -> np.ndarray:
    """The running hash multiplier before each of `calls` hashes, and after
    the last, as a column: one row per call, to broadcast over keys."""
    out = [start]
    for _ in range(calls):
        out.append(out[-1] * mult & _WORD_MASK)
    return np.array(out, dtype=np.uint32)[:, None]


# a pool build hashes 4 pool words, 12 cross-mixes and 2 x 4 spawn-key
# mixes; generate_state(4, np.uint64) hashes 8 words
_HASH_A = _multipliers(_INIT_A, _MULT_A, 24)
_HASH_B = _multipliers(_INIT_B, _MULT_B, 8)


def _hash(values: np.ndarray, mults: np.ndarray, first: int, count: int) -> np.ndarray:
    """numpy's hashmix as calls first, ..., first + count - 1 of a run of
    hashes with multipliers `mults`: row i of the result is `values`
    (broadcast against the rows) hashed by call first + i."""
    out = (values ^ mults[first:first + count]) * mults[first + 1:first + count + 1]
    return out ^ (out >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def _state_words(seeds: list[int], machines: list[int], rnd: int) -> np.ndarray:
    """(seeds, machines, 4) uint64: ``SeedSequence(seed, spawn_key=(machine,
    rnd)).generate_state(4, np.uint64)`` for every pair, each seed below
    2**128 and each machine and `rnd` below 2**32."""
    pool = np.array([[seed >> _WORD_BITS * i & _WORD_MASK for seed in seeds]
                     for i in range(_POOL_WORDS)], dtype=np.uint32)
    pool = _hash(pool, _HASH_A, 0, _POOL_WORDS)
    call = _POOL_WORDS
    for src in range(_POOL_WORDS):  # mix every pool word into every other
        dst = [i for i in range(_POOL_WORDS) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], _HASH_A, call, len(dst)))
        call += len(dst)
    # then the spawn key's two words, each into every pool word; machines on the last axis
    spawn = np.array(machines, dtype=np.uint32)
    pool = _mix(pool[:, :, None], _hash(spawn, _HASH_A, call, _POOL_WORDS)[:, None])
    pool = _mix(pool, _hash(np.uint32(rnd), _HASH_A, call + _POOL_WORDS, _POOL_WORDS)[:, None])
    state = _hash(np.concatenate([pool, pool]), _HASH_B[:, None], 0, 2 * _POOL_WORDS)
    state = state.astype(np.uint64)
    words = state[0::2] | state[1::2] << np.uint64(_WORD_BITS)  # little-endian pairs
    return np.ascontiguousarray(np.moveaxis(words, 0, -1))


class _StateWords(ISeedSequence):
    """Hands a PCG64 its precomputed ``generate_state(4, np.uint64)`` words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words  # contiguous: PCG64 reads the array's buffer

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _streams(seeds, machines, rnd: int):
    """The stream of the key (seed, machine, rnd) of every pair, seed by
    seed and, within a seed, machine by machine: all from one vectorised
    pass when the block fits its word layout, else all from numpy's own
    constructor."""
    seeds, machines, rnd = [int(seed) for seed in seeds], [int(m) for m in machines], int(rnd)
    if min(seeds + machines + [rnd]) < 0:
        raise ValueError(f"stream key parts must be nonnegative, got seeds {seeds}, "
                         f"machines {machines}, round {rnd}")
    if max(seeds, default=0) < _SEED_LIMIT and max(machines + [rnd]) <= _WORD_MASK:
        for key_words in _state_words(seeds, machines, rnd).reshape(-1, _POOL_WORDS):
            yield np.random.Generator(np.random.PCG64(_StateWords(key_words)))
    else:
        for seed in seeds:
            for machine in machines:
                yield machine_round_stream(seed, machine, rnd)


def sizable(shape: tuple[int, ...]) -> tuple[int, ...]:
    """``shape``, if numpy can size an 8-byte-item array of it; else a
    MemoryError, as for an array too large to allocate."""
    if math.prod(shape) * 8 > _INTP_MAX:
        raise MemoryError(f"an array of shape {shape} is more than numpy can address")
    return shape


def machine_round_stream(seed: int, machine: int, rnd: int) -> np.random.Generator:
    if seed < 0 or machine < 0 or rnd < 0:
        raise ValueError(f"stream key parts must be nonnegative, got {(seed, machine, rnd)}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(machine), int(rnd)))
    return np.random.default_rng(ss)


def normal_rows(seeds, machines, rnd: int, steps: int, dim: int) -> np.ndarray:
    """Standard-normal rows of round `rnd` for every (seed, machine) key of
    the sequences `seeds` and `machines`: shape (seeds, machines, steps,
    dim); row k of a key is its step k's draw."""
    block = np.empty(sizable((len(seeds) * len(machines), steps, dim)))
    for rows, stream in zip(block, _streams(seeds, machines, rnd)):
        stream.standard_normal(out=rows)
    return block.reshape(len(seeds), len(machines), steps, dim)


def index_rows(seeds, machines, rnd: int, steps: int, n) -> np.ndarray:
    """Uniform indices of round `rnd` for every (seed, machine) key, shaped
    (seeds, machines, steps) as in ``normal_rows``; entry k of a key is its
    step k's draw, in [0, n), `n` an int or one bound per machine."""
    bounds = np.broadcast_to(n, (len(machines),)).tolist() * len(seeds)
    block = np.empty(sizable((len(bounds), steps)), dtype=np.int64)
    for rows, stream, bound in zip(block, _streams(seeds, machines, rnd), bounds):
        rows[:] = stream.integers(0, bound, size=steps)
    return block.reshape(len(seeds), len(machines), steps)
