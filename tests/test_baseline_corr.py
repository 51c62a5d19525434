"""Tests for the correlation statistic, threshold calibration, and the synthesis."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbcid.baseline_corr import (
    ThresholdRule,
    calibrate_from_features,
    calibrate_threshold,
    classify_corr,
    correlation_feature,
    correlation_features,
    synth_from_words,
    synth_sequence,
)
from stbcid import baseline_corr, seeding
from stbcid.errors import ParameterError, ShapeError
from stbcid.seeding import _MASK64
from stbcid.signal_model import CodingScheme, pair_signals, slot_pairs


def scalar_feature(seq) -> float:
    """The per-sequence statistic as first written: 1-D means, Python abs and max."""
    c = []
    for d in (0, 1):
        tail = seq[d:]
        k = tail.size // 2
        c.append(complex(np.mean(tail[: 2 * k : 2] * tail[1 : 2 * k : 2])))
    return max(abs(c[0]), abs(c[1]))


def scalar_calibration(snr_db, seq_len, trials, seed, normalize):
    """Frozen scalar reference of calibrate_threshold: one sequence at a time."""
    feats = []
    for scheme in (CodingScheme.AL, CodingScheme.SM):
        vals = np.empty(trials)
        for t in range(trials):
            ss = np.random.SeedSequence([seed & _MASK64, int(scheme), t])
            seq = synth_sequence(scheme, snr_db, seq_len, int(ss.generate_state(1, np.uint64)[0]))
            if normalize:
                seq = seq / np.sqrt(float(np.mean(np.abs(seq) ** 2)))
            vals[t] = scalar_feature(seq)
        feats.append(vals)
    return calibrate_from_features(*feats, snr_db=snr_db, seq_len=seq_len)


# Test ids name the AL layout the references hold for: eq2, Alamouti's coding matrix.
SCHEME_IDS = ["0-eq2", "1-eq2"]

QPSK = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)


def scalar_received(scheme, length, rng, h0, h1, std, k1):
    """Frozen per-sequence reference of the bits, noise and mixing: ``rng.integers`` bits
    that fill slots k1 .. k1+length-1, then ``rng.normal`` noise."""
    n_cols = length + k1
    n_sym = n_cols + (n_cols % 2) if scheme == CodingScheme.AL else 2 * n_cols
    bits = rng.integers(0, 2, size=2 * n_sym)
    x = QPSK[2 * bits[0::2] + bits[1::2]]
    if scheme == CodingScheme.SM:
        tx = x.reshape(-1, 2).T
    else:
        tx = np.empty((2, n_sym), dtype=np.complex128)
        tx[0, 0::2], tx[1, 0::2] = x[0::2], x[1::2]
        tx[0, 1::2], tx[1, 1::2] = -np.conj(x[1::2]), np.conj(x[0::2])
    signal = h0 * tx[0, k1 : k1 + length] + h1 * tx[1, k1 : k1 + length]
    w = rng.normal(0.0, std, size=(2, length))
    return signal + w[0] + 1j * w[1]


def scalar_channel_offset(scheme, rng):
    """Frozen reference of a sequence's first draws: channel (gamma, uniform), then k1."""
    h = np.sqrt(rng.gamma(3.0, 1.0 / 3.0, size=2)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
    return complex(h[0]), complex(h[1]), int(rng.integers(0, 2 if scheme == CodingScheme.AL else 1))


def scalar_synth(scheme, snr_db, length, seed):
    """Frozen per-sequence reference of the synthesis: one generator, one sequence,
    draws in the order channel (gamma, uniform), k1, bits, noise."""
    rng = np.random.default_rng(seed)
    h0, h1, k1 = scalar_channel_offset(scheme, rng)
    std = np.sqrt(2.0 * 10.0 ** (-snr_db / 10.0) / 2.0)
    return (h0, h1), scalar_received(scheme, length, rng, h0, h1, std, k1)


def pair_correlations(r) -> np.ndarray:
    """The lag-1 pair correlations (c_delta0, c_delta1) of one sequence, as the feature takes them."""
    return baseline_corr._pair_correlations(np.asarray(r, dtype=np.complex128)[np.newaxis])[:, 0]


class TestSynthFromWords:
    SEEDS = [0, 1, 7, 2**32 + 5, 2**63 + 11, (1 << 70) + 3, 123456789]

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 128, 301, 1024])
    @pytest.mark.parametrize("scheme", [CodingScheme.SM, CodingScheme.AL], ids=SCHEME_IDS)
    def test_rows_equal_one_row_calls(self, scheme, length):
        h, r = synth_from_words(scheme, 3.0, length, seeding.rng_words(self.SEEDS))
        assert h.shape == (len(self.SEEDS), 2) and r.shape == (len(self.SEEDS), length)
        for i, seed in enumerate(self.SEEDS):
            gains, seqs = synth_from_words(scheme, 3.0, length, seeding.rng_words([seed]))
            assert h[i].tobytes() == gains[0].tobytes()
            assert r[i].tobytes() == seqs[0].tobytes()
            assert synth_sequence(scheme, 3.0, length, seed).tobytes() == r[i].tobytes()
            frozen_gains, frozen = scalar_synth(scheme, 3.0, length, seed)
            assert tuple(gains[0]) == frozen_gains
            assert r[i].tobytes() == frozen.tobytes()

    def test_al_seeds_draw_both_offsets(self):
        # so an AL block above holds rows of both bit counts
        offsets = {scalar_channel_offset(CodingScheme.AL, np.random.default_rng(seed))[2]
                   for seed in self.SEEDS}
        assert offsets == {0, 1}

    def test_row_does_not_depend_on_its_neighbours(self):
        _, r = synth_from_words(CodingScheme.AL, 0.0, 64, seeding.rng_words(self.SEEDS))
        _, reversed_rows = synth_from_words(CodingScheme.AL, 0.0, 64,
                                            seeding.rng_words(self.SEEDS[::-1]))
        assert r.tobytes() == reversed_rows[::-1].tobytes()

    def test_calibration_memory_is_bounded_by_the_block(self):
        # the peak stays below one up-front [trials, L] complex array (8.2 MB here)
        trials, seq_len = 4000, 128
        calibrate_threshold(10.0, seq_len, 100, normalize=True)  # first-call allocations
        tracemalloc.start()
        try:
            calibrate_threshold(10.0, seq_len, trials, normalize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trials * seq_len * 16


class TestSeedWordBlock:
    """synth_from_words checks its [n, 4] seed words once per block: any integer array of
    words in [0, 2**64) gives the rows uint64 words give, and anything else raises."""

    SEEDS = TestSynthFromWords.SEEDS

    @pytest.fixture(params=[CodingScheme.SM, CodingScheme.AL], ids=SCHEME_IDS)
    def scheme(self, request):
        return request.param

    def rows(self, scheme, words):
        h, r = synth_from_words(scheme, 3.0, 37, words)
        return h.tobytes() + r.tobytes()

    def test_strided_views_equal_contiguous_words(self, scheme):
        words = seeding.rng_words(self.SEEDS)
        assert self.rows(scheme, words[::2]) == self.rows(scheme, words[::2].copy())
        wide = np.zeros((len(self.SEEDS), 7), dtype=np.uint64)
        wide[:, 2:6] = words
        assert self.rows(scheme, wide[:, 2:6]) == self.rows(scheme, words)
        assert self.rows(scheme, np.asfortranarray(words)) == self.rows(scheme, words)

    def test_int64_words_equal_uint64_words(self, scheme):
        words = seeding.rng_words(self.SEEDS) >> np.uint64(1)  # every word fits an int64
        assert self.rows(scheme, words.astype(np.int64)) == self.rows(scheme, words)
        assert self.rows(scheme, words.tolist()) == self.rows(scheme, words)

    def test_largest_words_pass(self, scheme):
        words = np.full((2, 4), 2**64 - 1, dtype=np.uint64)
        words[1] = [0, 2**63, 1, 2**64 - 1]
        for row, rng in zip(words, seeding.generators(words), strict=True):
            reference = np.random.PCG64(seeding._Words(row.copy()))
            assert rng.bit_generator.state == reference.state
        assert len(self.rows(scheme, words)) == 2 * 16 * (2 + 37)

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 1), (2, 5)])
    def test_block_of_another_shape_rejected(self, scheme, shape):
        with pytest.raises(ParameterError, match=rf"shape \({shape[0]},"):
            synth_from_words(scheme, 3.0, 16, np.zeros(shape, dtype=np.uint64))

    @pytest.mark.parametrize("words, match", [
        (np.array([[-5, 1, 2, 3]]), "got -5"),
        (np.array([[1, 2, 3, 4], [0, 0, -(2**63), 0]]), r"got -9223372036854775808"),
        (np.array([[1.7, 0, 0, 0]]), "float64"),
        (np.array([[2.0**64 - 1, 0, 0, 0]]), "float64"),  # was four zero words
        (np.ones((1, 4), dtype=bool), "bool"),
        (np.array([[2**64, 0, 0, 0]], dtype=object), "object"),
    ], ids=["negative", "int64-min", "fraction", "float-max", "bool", "object"])
    def test_words_that_would_wrap_rejected(self, scheme, words, match):
        with pytest.raises(ParameterError, match=match):
            synth_from_words(scheme, 3.0, 16, words)
        with pytest.raises(ParameterError, match=match):
            seeding.generators(words)

    def test_zero_rows_give_empty_arrays(self, scheme):
        for words in (seeding.rng_words(np.array([], dtype=np.uint64)),
                      np.empty((0, 4), dtype=np.int64)):
            h, r = synth_from_words(scheme, 3.0, 16, words)
            assert (h.shape, h.dtype, r.shape, r.dtype) == ((0, 2), np.complex128, (0, 16),
                                                            np.complex128)


class TestCorrelationFeature:
    def test_alternating_sequence(self):
        r = np.array([1, 1j, -1, -1j])
        c_delta0 = pair_correlations(r)[0]
        assert c_delta0 == pytest.approx(1j)
        assert abs(c_delta0) == pytest.approx(1.0)
        assert correlation_feature(r) == pytest.approx(1.0)

    def test_constant_sequence(self):
        r = np.array([1.0, 1.0, 1.0, 1.0])
        c_delta0, c_delta1 = pair_correlations(r)
        assert c_delta0 == pytest.approx(1.0)
        assert c_delta1 == pytest.approx(1.0)
        assert correlation_feature(r) == pytest.approx(1.0)

    def test_too_short_rejected(self):
        with pytest.raises(ShapeError):
            correlation_feature([1.0, 2.0, 3.0])

    @given(st.integers(0, 2**32 - 1), st.floats(0, 2 * np.pi))
    @settings(max_examples=40)
    def test_global_phase_invariance(self, seed, phi):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        base = correlation_feature(r)
        rotated = correlation_feature(np.exp(1j * phi) * r)
        assert rotated == pytest.approx(base, rel=1e-10)

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 50.0))
    @settings(max_examples=40)
    def test_quadratic_scaling(self, seed, a):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        base = correlation_feature(r)
        scaled = correlation_feature(a * r)
        assert scaled == pytest.approx(a * a * base, rel=1e-9)

    def test_sm_statistic_is_small(self):
        # population value is 0; the sample mean shrinks like 1/sqrt(K)
        feats = [
            correlation_feature(synth_sequence(CodingScheme.SM, 10.0, 1024, seed=t))
            for t in range(300)
        ]
        assert np.mean(feats) < 0.2


class TestCorrelationFeatures:
    @pytest.mark.parametrize("length", [4, 5, 127, 128, 1024])
    def test_rows_bit_equal_to_one_sequence(self, length):
        rng = np.random.default_rng(length)
        scales = np.logspace(-150, 150, 13)
        rows = rng.standard_normal((39, length)) + 1j * rng.standard_normal((39, length))
        rows *= np.repeat(scales, 3)[:, np.newaxis]
        rows = np.concatenate([rows, np.zeros((2, length), dtype=np.complex128)])
        batched = correlation_features(rows)
        one_at_a_time = np.array([correlation_feature(r) for r in rows])
        assert batched.tobytes() == one_at_a_time.tobytes()
        assert one_at_a_time.tobytes() == np.array([scalar_feature(r) for r in rows]).tobytes()
        assert (batched[-2:] == 0.0).all()

    def test_feature_is_the_larger_pair_correlation(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c_delta0, c_delta1 = pair_correlations(r)
        assert c_delta0 == complex(np.mean(r[0:8:2] * r[1:8:2]))
        assert c_delta1 == complex(np.mean(r[1:9:2] * r[2:9:2]))
        assert correlation_feature(r) == max(abs(c_delta0), abs(c_delta1))

    @pytest.mark.parametrize("shape", [(8,), (2, 3), (2, 2, 4)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ShapeError):
            correlation_features(np.ones(shape, dtype=np.complex128))


class TestPopulationStatistic:
    H = (0.6, 1.2 + 0.4j)  # the channel gains (h0, h1)

    def _noiseless(self, scheme, length, seed):
        """A sequence through H without noise, looked up as the synthesis looks it up from
        the bits of ``default_rng(seed)``, its pairs starting at r(0)."""
        bits = np.random.default_rng(seed).integers(0, 2, size=baseline_corr._n_bits(scheme, length))
        return pair_signals(np.array(self.H))[slot_pairs(scheme, bits)[:length]]

    def test_al_population_value_is_zero(self):
        # h0*h1*(|x0|^2 - |x1|^2) vanishes for QPSK, the rest averages out; the pairs as
        # eq. (7) prints them would give h1^2 - h0^2 at alignment 0 (|.| ~ 1.3 for H)
        seq = self._noiseless(CodingScheme.AL, 200_000, 0)
        assert np.all(np.abs(pair_correlations(seq)) < 0.03)

    def test_sm_population_value_is_zero(self):
        seq = self._noiseless(CodingScheme.SM, 200_000, 1)
        assert abs(pair_correlations(seq)[0]) < 0.03


class TestCalibration:
    def test_identical_distributions_degenerate(self):
        feats = np.linspace(0.1, 0.9, 200)
        rule = calibrate_from_features(feats, feats.copy())
        assert rule.degenerate

    def test_separable_features(self):
        rng = np.random.default_rng(0)
        low = 0.1 + 0.02 * rng.standard_normal(200)
        high = 0.9 + 0.02 * rng.standard_normal(200)
        rule = calibrate_from_features(high, low)  # AL high, SM low
        assert 0.2 < rule.threshold < 0.8
        assert rule.achieved_error == 0.0
        assert not rule.degenerate

    def test_eq2_generator_near_chance(self):
        # both classes have population statistic 0 under proper QPSK, so the
        # calibrated rule cannot do much better than guessing
        rule = calibrate_threshold(10.0, 1024, trials=400, seed=0)
        assert rule.achieved_error > 0.4

    @pytest.mark.parametrize("normalize", [False, True], ids=["False-eq2", "True-eq2"])
    def test_equals_scalar_reference(self, normalize):
        for snr_db, seq_len, seed in ((10.0, 128, 7), (-6.0, 37, 2)):
            rule = calibrate_threshold(snr_db, seq_len, trials=120, seed=seed,
                                       normalize=normalize)
            ref = scalar_calibration(snr_db, seq_len, 120, seed, normalize)
            assert (rule.threshold, rule.achieved_error, rule.degenerate) == (
                ref.threshold, ref.achieved_error, ref.degenerate)

    def test_zero_power_sequence_rejected(self, monkeypatch):
        monkeypatch.setattr(
            baseline_corr, "synth_from_words",
            lambda scheme, snr_db, length, words: (
                np.ones((len(words), 2), complex), np.zeros((len(words), length), complex)))
        with pytest.raises(ParameterError):
            calibrate_threshold(10.0, 64, trials=100, normalize=True)

    def test_trial_floor_enforced(self):
        with pytest.raises(ParameterError):
            calibrate_threshold(10.0, 1024, trials=99, seed=0)

    def test_oversized_length_rejected_before_allocating(self):
        # numpy used to fail in its own size arithmetic ("array is too big")
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="length must be"):
                calibrate_threshold(10.0, 2 ** 62, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peaked at {peak / 1e6:.1f} MB"

    def test_calibration_metadata(self):
        rule = calibrate_threshold(0.0, 64, trials=100, seed=3)
        assert rule.snr_db == 0.0
        assert rule.seq_len == 64
        assert rule.trials == 100
        assert rule.threshold >= 0.0


class TestClassify:
    RULE = ThresholdRule(
        threshold=0.5, snr_db=10.0, seq_len=64, trials=100, achieved_error=0.1
    )

    def test_above_threshold_is_al(self):
        assert classify_corr(0.9, self.RULE) == CodingScheme.AL

    def test_below_threshold_is_sm(self):
        assert classify_corr(0.1, self.RULE) == CodingScheme.SM

    def test_tie_is_sm(self):
        assert classify_corr(0.5, self.RULE) == CodingScheme.SM

    def test_accepts_feature_object(self):
        # correlation_feature's float, as the benchmark's check composes them
        feat = correlation_feature([1.0, 1.0, 1.0, 1.0])
        assert classify_corr(feat, self.RULE) == CodingScheme.AL
