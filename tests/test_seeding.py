"""Tests for the named streams and the row-vectorized SeedSequence hash, with numpy's own
as the oracle."""

import ast
import collections
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbcid import seeding
from stbcid.baseline_corr import calibrate_threshold, synth_from_words
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
        for seed, rng in zip(seeds, seeding.generators(words), strict=True):
            reference = np.random.default_rng(seed)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.integers(0, 2, 5).tolist() == reference.integers(0, 2, 5).tolist()
            assert rng.normal(size=3).tobytes() == reference.normal(size=3).tobytes()

    def test_words_serve_pcg64_only(self):
        seed_seq = next(seeding.generators(seeding.rng_words([3]))).bit_generator.seed_seq
        for n_words, dtype in [(8, np.uint32), (4, np.uint32), (8, np.uint64)]:
            with pytest.raises(ParameterError):
                seed_seq.generate_state(n_words, dtype)
        with pytest.raises(ParameterError, match="shape"):
            seeding.generators(np.zeros(3, np.uint64))


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

    def test_synthesis_rejects_a_negative_seed(self):
        with pytest.raises(ParameterError, match="row 1"):
            synth_from_words(CodingScheme.AL, 0.0, 16, seeding.rng_words([4, -3]))


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


LOW64 = 2**64 - 1
# the salt each tag's stream was first built with: the tag's ASCII word
SALTS = {b"init": 0x696E6974, b"shuf": 0x73687566, b"drop": 0x64726F70, b"spli": 0x73706C69}
SEEDS = [0, 7, -1, 2**64 + 5]


def assert_same_stream(rng, reference):
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.permutation(9).tolist() == reference.permutation(9).tolist()
    assert rng.uniform(-1, 1, 5).tobytes() == reference.uniform(-1, 1, 5).tobytes()
    assert (rng.bit_generator.random_raw(3).tolist()
            == reference.bit_generator.random_raw(3).tolist())


class TestNamedStreams:
    @pytest.mark.parametrize("tag", list(SALTS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tagged_stream_is_the_salted_one(self, seed, tag):
        reference = np.random.default_rng(np.random.SeedSequence([seed & LOW64, SALTS[tag]]))
        assert_same_stream(seeding.stream(seed, tag), reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_untagged_stream_is_the_masked_seed(self, seed):
        assert_same_stream(seeding.stream(seed), np.random.default_rng(seed & LOW64))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derive_matches_a_per_row_seed_sequence(self, seed):
        schemes = np.array([0, 1, 1, 0, 1])
        wide = np.array([3, 2**40, 2**40 + 7, 2**63, 5], dtype=np.uint64)  # words past the first
        big = [1, 2**64 - 1, 2**40, 0, 2**70 + 9]  # Python ints of one to three words
        derived = seeding.derive(seed, schemes, wide, 9, big)
        assert derived.dtype == np.uint64 and derived.shape == (5,)
        for i in range(5):
            row = [seed & LOW64, int(schemes[i]), int(wide[i]), 9, big[i]]
            assert derived[i] == np.random.SeedSequence(row).generate_state(1, np.uint64)[0]


STREAM_BUILDERS = {"default_rng", "SeedSequence"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_only_seeding_builds_a_stream():
    """Outside ``seeding``, no module builds a generator or seed sequence, masks a seed
    or carries a stream's salt: the seed rule lives in one module."""
    offences = []
    for path in sorted(pathlib.Path(seeding.__file__).parent.glob("*.py")):
        if path.name == "seeding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and _name(node.func) in STREAM_BUILDERS
                    or _name(node) == "_MASK64"
                    or isinstance(node, ast.Constant) and node.value in SALTS.values()):
                offences.append(f"{path.name}:{node.lineno}")
    assert offences == []
