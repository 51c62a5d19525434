"""Tests for the row-vectorized SeedSequence hash, with numpy's own as the oracle."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbcid import seeding
from stbcid.baseline_corr import calibrate_threshold, synth_batch
from stbcid.dataset import DatasetConfig, generate_dataset
from stbcid.errors import ParameterError
from stbcid.signal_model import CodingScheme

EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96 + 5]
VALUES = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**32), st.integers(0, 2**130))


@st.composite
def entropy_rows(draw):
    width = draw(st.integers(1, 6))
    return draw(st.lists(st.lists(VALUES, min_size=width, max_size=width),
                         min_size=1, max_size=8))


def columns_of(rows):
    return [[row[j] for row in rows] for j in range(len(rows[0]))]


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(entropy_rows())
    def test_pool_and_state_equal_seed_sequence(self, rows):
        columns = columns_of(rows)
        pool = seeding.pool(columns)
        states = {n: seeding.generate_state(columns, n) for n in (1, 3, 4, 8)}
        for i, row in enumerate(rows):
            ss = np.random.SeedSequence(row)
            assert pool[i].tolist() == ss.pool.tolist()
            for n, state in states.items():
                expected = ss.generate_state(n, np.uint64)
                assert state.dtype == expected.dtype and state[i].tolist() == expected.tolist()

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
    def test_array_and_scalar_columns(self, dtype):
        # the shapes calibrate_threshold and generate_dataset pass: scalars and int arrays
        t = np.arange(0, 3000, 7, dtype=dtype)
        for master in (0, 5, 2**40 + 3, 2**64 - 1):
            state = seeding.generate_state([master, 1, t, np.uint64(2**63) + t.astype(np.uint64)],
                                           1)
            for i in range(0, t.size, 37):
                row = [master, 1, int(t[i]), 2**63 + int(t[i])]
                assert state[i, 0] == np.random.SeedSequence(row).generate_state(1, np.uint64)[0]

    def test_generators_equal_default_rng(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1, 2**64, 2**70 + 3]
        words = seeding.rng_words(seeds)
        assert words.shape == (len(seeds), 4)
        for seed, row in zip(seeds, words):
            rng, reference = seeding.generator(row), np.random.default_rng(seed)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.integers(0, 2, 5).tolist() == reference.integers(0, 2, 5).tolist()
            assert rng.normal(size=3).tobytes() == reference.normal(size=3).tobytes()

    def test_words_serve_pcg64_only(self):
        seed_seq = seeding.generator(seeding.rng_words([3])[0]).bit_generator.seed_seq
        with pytest.raises(ParameterError):
            seed_seq.generate_state(8, np.uint32)
        with pytest.raises(ParameterError, match="shape"):
            seeding.generator(np.zeros(3, np.uint64))


class TestRejection:
    @pytest.mark.parametrize("seeds, row", [
        ([3, -1], 1),
        ([3, 4, 1.5], 2),
        ([2**70, "7"], 1),
        (np.array([0, 5, -2]), 2),
        (np.array([0.5]), None),
    ])
    def test_bad_seed_names_its_row(self, seeds, row):
        with pytest.raises(ParameterError, match=f"row {row}" if row is not None else "integers"):
            seeding.rng_words(seeds)

    def test_synth_batch_rejects_a_negative_seed(self):
        with pytest.raises(ParameterError, match="row 1"):
            synth_batch(CodingScheme.AL, 0.0, 16, [4, -3])


@pytest.fixture
def construction_counts(monkeypatch):
    """Counts of np.random.SeedSequence and np.random.default_rng built while the test runs."""
    counts = collections.Counter()
    for name in ("SeedSequence", "default_rng"):
        def counted(*args, _name=name, _build=getattr(np.random, name), **kwargs):
            counts[_name] += 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(np.random, name, counted)
    return counts


class TestHashOncePerCommand:
    """Each per-row SeedSequence or default_rng costs ~20 us; none may come back per row."""

    def test_calibration(self, construction_counts):
        calibrate_threshold(10.0, 128, 100)
        small = dict(construction_counts)
        construction_counts.clear()
        calibrate_threshold(10.0, 128, 2000)
        assert dict(construction_counts) == small and sum(small.values()) <= 2

    def test_generate_dataset(self, construction_counts):
        generate_dataset(DatasetConfig(snr_grid=(0.0,), bursts_per_cell=1))
        small = dict(construction_counts)
        construction_counts.clear()
        generate_dataset(DatasetConfig(snr_grid=tuple(-20.0 + 2 * i for i in range(21)),
                                       bursts_per_cell=10))
        assert dict(construction_counts) == small and sum(small.values()) <= 2
