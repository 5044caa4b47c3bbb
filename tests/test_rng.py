"""Keyed random streams: prefix stability, stream separation, and the
vectorised seeding pass against numpy's own constructor."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowcal_lab import rng
from slowcal_lab.algorithms import RunConfig, run_lanes
from slowcal_lab.objectives import heterogeneous_quadratic
from slowcal_lab.rng import index_rows, machine_round_stream, normal_rows

# the edges of the seeds whose pool is their four 32-bit words, and past them
EDGE_SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 96 + 5, 2 ** 128 - 1]
FALLBACK_SEED = 2 ** 128


@pytest.fixture
def seed_sequences(monkeypatch):
    """The arguments of every SeedSequence numpy builds in the test."""
    built = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    return built


def one_key(draw, seed, machine, rnd, *args, **kwargs):
    """The rows of the one key of a one-seed, one-machine block."""
    return draw([seed], [machine], rnd, *args, **kwargs)[0, 0]


class TestPrefixStability:
    def test_normal_rows_prefix_is_stable(self):
        # row k must not depend on how many rows were materialized
        full = one_key(normal_rows, 7, 2, 5, steps=16, dim=3)
        short = one_key(normal_rows, 7, 2, 5, steps=4, dim=3)
        np.testing.assert_array_equal(full[:4], short)

    def test_single_row_matches_block_row(self):
        block = one_key(normal_rows, 0, 0, 0, steps=10, dim=4)
        lone = one_key(normal_rows, 0, 0, 0, steps=1, dim=4)
        np.testing.assert_array_equal(block[0], lone[0])

    def test_index_rows_prefix_is_stable(self):
        full = one_key(index_rows, 3, 1, 9, steps=32, n=50)
        short = one_key(index_rows, 3, 1, 9, steps=8, n=50)
        np.testing.assert_array_equal(full[:8], short)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        machine=st.integers(0, 32),
        rnd=st.integers(0, 64),
        small=st.integers(1, 8),
        extra=st.integers(1, 8),
    )
    def test_prefix_property(self, seed, machine, rnd, small, extra):
        big = one_key(normal_rows, seed, machine, rnd, steps=small + extra, dim=2)
        np.testing.assert_array_equal(
            big[:small], one_key(normal_rows, seed, machine, rnd, steps=small, dim=2)
        )


class TestStreamSeparation:
    def test_streams_differ_across_each_key_part(self):
        base = one_key(normal_rows, 1, 1, 1, steps=4, dim=4)
        assert not np.array_equal(base, one_key(normal_rows, 2, 1, 1, steps=4, dim=4))
        assert not np.array_equal(base, one_key(normal_rows, 1, 2, 1, steps=4, dim=4))
        assert not np.array_equal(base, one_key(normal_rows, 1, 1, 2, steps=4, dim=4))

    def test_same_key_is_bitwise_reproducible(self):
        a = one_key(normal_rows, 11, 3, 7, steps=6, dim=5)
        b = one_key(normal_rows, 11, 3, 7, steps=6, dim=5)
        np.testing.assert_array_equal(a, b)

    def test_machine_zero_and_round_zero_are_distinct_streams(self):
        # (machine, round) enters as a spawn key tuple, not a sum
        a = one_key(normal_rows, 5, 0, 1, steps=4, dim=2)
        b = one_key(normal_rows, 5, 1, 0, steps=4, dim=2)
        assert not np.array_equal(a, b)


class TestValidation:
    @pytest.mark.parametrize("key", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_key_parts_rejected(self, key):
        with pytest.raises(ValueError):
            machine_round_stream(*key)

    def test_index_rows_bounds(self):
        picks = one_key(index_rows, 0, 0, 0, steps=200, n=7)
        assert picks.min() >= 0 and picks.max() < 7


def assert_blocks_match_numpy(seeds, machines, rnd, steps=3, dim=2):
    """normal_rows and index_rows blocks equal numpy's constructor per key,
    bitwise; index_rows with a bound of its own for each machine."""
    normals = normal_rows(seeds, machines, rnd, steps, dim)
    bounds = [3 + 5 * j for j in range(len(machines))]
    picks = index_rows(seeds, machines, rnd, steps, bounds)
    assert normals.shape == (len(seeds), len(machines), steps, dim)
    assert picks.shape == (len(seeds), len(machines), steps)
    for i, seed in enumerate(seeds):
        for j, machine in enumerate(machines):
            stream = machine_round_stream(seed, machine, rnd)
            np.testing.assert_array_equal(normals[i, j], stream.standard_normal((steps, dim)))
            stream = machine_round_stream(seed, machine, rnd)
            np.testing.assert_array_equal(picks[i, j], stream.integers(0, bounds[j], steps))


class TestVectorisedSeeding:
    """A block's streams are seeded from SeedSequence's hash run in numpy
    arithmetic; each must be numpy's own stream. If a numpy release changes
    SeedSequence, these are the first tests to fail."""

    @pytest.mark.parametrize("num_machines", range(1, 18))
    def test_edge_seeds_match_numpy_for_every_machine_count(self, num_machines):
        assert_blocks_match_numpy(EDGE_SEEDS, range(num_machines), 7)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seeds=st.lists(st.integers(0, 2 ** 128 - 1), min_size=1, max_size=4),
        num_machines=st.integers(1, 5),
        rnd=st.integers(0, 2 ** 32 - 1),
    )
    def test_random_keys_match_numpy(self, seeds, num_machines, rnd):
        assert_blocks_match_numpy(seeds, range(num_machines), rnd)

    def test_fallback_seed_matches_numpy(self):
        # past 2**128 a seed has five entropy words: numpy's constructor seeds it
        assert_blocks_match_numpy([FALLBACK_SEED, 2 ** 200 + 3], range(3), 2)

    def test_block_mixing_fast_and_fallback_seeds_matches_numpy(self):
        assert_blocks_match_numpy([5, FALLBACK_SEED, 2 ** 64 - 1, FALLBACK_SEED + 1], range(4), 9)

    @pytest.mark.parametrize("machines,rnd", [
        ([0, 2 ** 32 - 1, 2 ** 32, 3], 5),
        ([0, 1, 2], 2 ** 32 - 1),
        ([0, 1, 2], 2 ** 32),
    ], ids=["machine-2**32", "round-2**32-1", "round-2**32"])
    def test_machine_or_round_past_one_word_matches_numpy(self, machines, rnd):
        assert_blocks_match_numpy([0, 2 ** 40], machines, rnd)

    def test_negative_key_parts_rejected_in_a_block(self):
        with pytest.raises(ValueError):
            normal_rows([0, -1], range(2), 0, 2, 2)
        with pytest.raises(ValueError):
            index_rows([0], [0, -1], 0, 2, 4)

    def test_empty_seed_list_draws_an_empty_block(self):
        assert normal_rows([], range(3), 0, 2, 2).shape == (0, 3, 2, 2)
        assert index_rows([], range(3), 0, 2, [4, 5, 6]).shape == (0, 3, 2)

    @pytest.mark.parametrize("seeds,machines,rnd,constructions", [
        ([0, 2 ** 128 - 1, 5], range(3), 2 ** 32 - 1, 0),
        # one key past the layout: every key of its block from numpy's constructor
        ([0, FALLBACK_SEED, 5], range(3), 0, 3 * 3),
        ([0, 2 ** 40], [0, 2 ** 32, 3], 5, 2 * 3),
        ([0, 1], range(2), 2 ** 32, 2 * 2),
    ], ids=["inside", "seed-2**128", "machine-2**32", "round-2**32"])
    def test_a_block_takes_one_seeding_path(self, seed_sequences, seeds, machines, rnd,
                                            constructions):
        normal_rows(seeds, machines, rnd, 2, 2)
        assert len(seed_sequences) == constructions
        seed_sequences.clear()
        index_rows(seeds, machines, rnd, 2, 4)
        assert len(seed_sequences) == constructions

    @pytest.mark.parametrize("draw", [
        lambda: normal_rows([0, FALLBACK_SEED], range(3), 0, 2 ** 62, 2),
        lambda: index_rows([0, FALLBACK_SEED], range(3), 0, 2 ** 62, 4),
    ], ids=["normal_rows", "index_rows"])
    def test_size_check_runs_before_any_stream_is_seeded(self, monkeypatch, draw):
        seeded = []
        monkeypatch.setattr(rng, "_state_words", lambda *args: seeded.append(args))
        monkeypatch.setattr(rng, "machine_round_stream", lambda *args: seeded.append(args))
        with pytest.raises(MemoryError):
            draw()
        assert seeded == []

    @pytest.mark.parametrize("base,constructions", [
        (2 ** 32, 0), (2 ** 128 - 20, 0),
        # the fallback: one per (seed, machine, round) key of each method's run
        (FALLBACK_SEED, 2 * 4 * 2 * 2)])
    def test_no_numpy_constructor_on_the_fast_path(self, seed_sequences, base, constructions):
        # quad-grid's shape, scaled down: minibatch and slowcal over a seed
        # and step-size grid on a noisy quadratic, seeds past 2**32
        problem = heterogeneous_quadratic(4, 5, eig_range=(0.02, 0.08), center_spread=0.0,
                                          sigma=5.0, seed=1)
        cfg = RunConfig(K=3, R=2, x0=np.ones(5))
        seeds = [base, base, base + 7, base + 7]
        for method in ("minibatch", "slowcal"):
            run_lanes(problem, method, cfg, [0.01, 0.1, 0.01, 0.1], seeds)
        assert len(seed_sequences) == constructions
