"""Tests for modulation, space-time encoding, fading, and reception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbcid import seeding
from stbcid.errors import ParameterError, ShapeError
from stbcid.signal_model import (
    QPSK_PAIRS,
    CodingScheme,
    NAKAGAMI_M,
    block_slots,
    channel_gains,
    encode,
    fading_law,
    mix,
    modulate_qpsk,
    noise_variance_for_snr,
    pair_signals,
    receive,
    slot_pairs,
    synth_from_words,
)

R2 = 1.0 / np.sqrt(2.0)


class TestModulateQpsk:
    def test_gray_map_00(self):
        np.testing.assert_allclose(modulate_qpsk([0, 0]), [R2 + 1j * R2], atol=1e-12)

    def test_gray_map_11(self):
        np.testing.assert_allclose(modulate_qpsk([1, 1]), [-R2 - 1j * R2], atol=1e-12)

    def test_pairs_mapped_independently(self):
        np.testing.assert_allclose(
            modulate_qpsk([0, 0, 1, 0]), [R2 + 1j * R2, R2 - 1j * R2], atol=1e-12
        )

    def test_all_four_points(self):
        out = modulate_qpsk([0, 0, 0, 1, 1, 1, 1, 0])
        expected = [R2 + 1j * R2, -R2 + 1j * R2, -R2 - 1j * R2, R2 - 1j * R2]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ShapeError):
            modulate_qpsk([0, 1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ParameterError):
            modulate_qpsk([0, 2])

    @pytest.mark.parametrize("bad", [0.5, 2, -1])
    def test_any_non_bit_value_rejected(self, bad):
        with pytest.raises(ParameterError):
            modulate_qpsk([0, 1, 1, bad])

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
    def test_constant_modulus(self, bits):
        symbols = modulate_qpsk(bits)
        assert np.all(np.abs(np.abs(symbols) - 1.0) < 1e-12)


class TestEncode:
    def test_sm_layout(self):
        s = np.array([1 + 1j, 2 - 1j, -3 + 0j, 0 + 4j])
        tx = encode(CodingScheme.SM, s)
        np.testing.assert_array_equal(tx, [[s[0], s[2]], [s[1], s[3]]])

    def test_al_conjugate_block(self):
        tx = encode(CodingScheme.AL, [1 + 1j, 1 - 1j])
        np.testing.assert_allclose(tx, [[1 + 1j, -1 - 1j], [1 - 1j, 1 - 1j]], atol=1e-12)

    def test_al_unit_and_j(self):
        tx = encode(CodingScheme.AL, [1, 1j])
        np.testing.assert_allclose(tx, [[1, 1j], [1j, 1]], atol=1e-12)

    # ids name the AL layout: eq2, Alamouti's coding matrix
    @pytest.mark.parametrize("scheme", [CodingScheme.SM, CodingScheme.AL], ids=["0-eq2", "1-eq2"])
    def test_rows_encode_like_one_sequence(self, scheme):
        rng = np.random.default_rng(4)
        symbols = modulate_qpsk(rng.integers(0, 2, size=(3, 5, 12)))
        tx = encode(scheme, symbols)
        assert tx.shape == (3, 5, 2, 3 if scheme == CodingScheme.SM else 6)
        for i, j in np.ndindex(3, 5):
            assert tx[i, j].tobytes() == encode(scheme, symbols[i, j]).tobytes()

    def test_odd_symbol_count_rejected(self):
        with pytest.raises(ShapeError):
            encode(CodingScheme.AL, [1 + 0j])

    def test_block_slots(self):
        assert block_slots(CodingScheme.SM) == 1
        assert block_slots(CodingScheme.AL) == 2

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=50)
    def test_al_orthogonality(self, seed, n_blocks):
        rng = np.random.default_rng(seed)
        symbols = modulate_qpsk(rng.integers(0, 2, size=4 * n_blocks))
        tx = encode(CodingScheme.AL, symbols)
        for b in range(n_blocks):
            block = tx[:, 2 * b : 2 * b + 2]
            gram = block @ block.conj().T
            energy = abs(symbols[2 * b]) ** 2 + abs(symbols[2 * b + 1]) ** 2
            np.testing.assert_allclose(gram, energy * np.eye(2), atol=1e-12)


# Row p holds the four bits of pair p, most significant first: 8*b0 + 4*b1 + 2*b2 + b3 = p.
PATTERNS = np.arange(16)[:, np.newaxis] >> np.arange(3, -1, -1) & 1


class TestSlotPairs:
    """Each slot's pair index against the public layout ``encode(modulate_qpsk(bits))``."""

    @staticmethod
    def _pairs_bytes(pairs):
        """The [..., 2, L] transmit layout of pair indices [..., L], as bytes."""
        return np.moveaxis(QPSK_PAIRS[:, pairs], 0, -2).tobytes()

    def test_sm_every_four_bit_pattern(self):
        pairs = slot_pairs(CodingScheme.SM, PATTERNS)
        assert pairs.dtype == np.uint8 and pairs.tolist() == [[p] for p in range(16)]
        tx = encode(CodingScheme.SM, modulate_qpsk(PATTERNS))
        assert self._pairs_bytes(pairs) == tx.tobytes()

    def test_al_every_symbol_pair_at_both_slot_parities(self):
        # pattern p is the block (x0, x1) = (C[i0], C[i1]) with p = 4*i0 + i1
        pairs = slot_pairs(CodingScheme.AL, PATTERNS)
        i0, i1 = np.arange(16) >> 2, np.arange(16) & 3
        assert pairs[:, 0].tolist() == list(range(16))
        assert pairs[:, 1].tolist() == (4 * (i1 ^ 1) + (i0 ^ 2)).tolist()
        tx = encode(CodingScheme.AL, modulate_qpsk(PATTERNS))
        assert self._pairs_bytes(pairs) == tx.tobytes()

    @pytest.mark.parametrize("scheme", [CodingScheme.SM, CodingScheme.AL], ids=["0-eq2", "1-eq2"])
    def test_rows_of_many_blocks(self, scheme):
        bits = np.random.default_rng(6).integers(0, 2, size=(3, 5, 24)).astype(np.uint32)
        tx = encode(scheme, modulate_qpsk(bits))
        assert self._pairs_bytes(slot_pairs(scheme, bits)) == tx.tobytes()

    @pytest.mark.parametrize("shape", [(), (6,), (2, 10)])
    def test_bit_count_not_a_multiple_of_four_rejected(self, shape):
        with pytest.raises(ShapeError):
            slot_pairs(CodingScheme.SM, np.zeros(shape, dtype=np.uint32))

    @pytest.mark.parametrize("h", [(0.6, 1.2 + 0.4j), (0.0, -0.3 + 0.9j), (1.1 - 0.2j, 0.0),
                                   (0.0, 0.0), (-0.0, 2.5)])
    def test_each_table_entry_is_the_mix_of_its_column(self, h):
        # a zero gain makes signed zeros, which mix's noise sum then sees
        table = pair_signals(np.array(h))
        assert table.shape == (16,)
        rng = np.random.default_rng(8)
        for noise in (np.zeros((2, 1)), rng.standard_normal((2, 1))):
            for p, bits in enumerate(PATTERNS):
                column = encode(CodingScheme.SM, modulate_qpsk(bits))
                expected = mix(column, np.array(h), noise)
                assert (table[p] + noise[0] + 1j * noise[1]).tobytes() == expected.tobytes()

    def test_table_rows_equal_one_row_calls(self):
        h = np.random.default_rng(9).standard_normal((4, 3, 2, 2)) @ np.array([1, 1j])
        tables = pair_signals(h)
        assert tables.shape == (4, 3, 16)
        for i, j in np.ndindex(4, 3):
            assert tables[i, j].tobytes() == pair_signals(h[i, j]).tobytes()


class TestDrawChannel:
    """The channel law that synthesis draws each row's (h0, h1) from: m = 3, omega = 1."""

    def test_channel_moments(self):
        rng = np.random.default_rng(5)
        h = channel_gains(*fading_law(rng.standard_gamma(NAKAGAMI_M, size=(50_000, 2)),
                                      rng.random((50_000, 2))))
        h2 = np.abs(h.T.ravel()) ** 2
        assert abs(h2.mean() - 1.0) < 0.01
        # Gamma(m, omega/m) variance is omega^2/m = 1/3
        assert abs(h2.var() - 1.0 / 3.0) / (1.0 / 3.0) < 0.05
        # fourth-moment ratio E|h|^4 / E|h|^2^2 -> 1 + 1/m
        ratio = (h2**2).mean() / h2.mean() ** 2
        assert abs(ratio - (1 + 1 / 3.0)) < 0.05

    def test_same_seed_bit_identical(self):
        a = synth_from_words(CodingScheme.AL, 0.0, 4, seeding.rng_words([42]))[0]
        # the channel is drawn first
        b = synth_from_words(CodingScheme.SM, 10.0, 8, seeding.rng_words([42]))[0]
        assert a.tobytes() == b.tobytes()


class TestNoiseVariance:
    @pytest.mark.parametrize("snr_db,expected", [(0.0, 2.0), (10.0, 0.2), (20.0, 0.02)])
    def test_normalization(self, snr_db, expected):
        assert noise_variance_for_snr(snr_db) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [-4000.0, -1e308, np.nan, np.inf, -np.inf])
    def test_no_finite_variance_rejected(self, snr_db):
        with pytest.raises(ParameterError, match="^snr_db "):
            noise_variance_for_snr(snr_db)


class TestReceive:
    def _tx(self, n=16, seed=0):
        rng = np.random.default_rng(seed)
        return encode(CodingScheme.SM, modulate_qpsk(rng.integers(0, 2, size=4 * n)))

    def test_degenerate_channel_row0(self):
        tx = self._tx()
        r = receive(tx, (1.0, 0.0), 0.0, 0, tx.shape[1], np.random.default_rng(0))
        np.testing.assert_allclose(r, tx[0], atol=1e-15)

    def test_degenerate_channel_row1(self):
        tx = self._tx()
        r = receive(tx, (0.0, 1.0), 0.0, 0, tx.shape[1], np.random.default_rng(0))
        np.testing.assert_allclose(r, tx[1], atol=1e-15)

    def test_offset_shifts_columns(self):
        tx = self._tx()
        r = receive(tx, (1.0, 0.0), 0.0, 3, 5, np.random.default_rng(0))
        np.testing.assert_allclose(r, tx[0, 3:8], atol=1e-15)

    def test_noise_variance_oracle(self):
        # all-zero tx isolates w(k); sample variance ~ sigma_w^2 within 2%
        tx = np.zeros((2, 100_000), dtype=complex)
        variance = noise_variance_for_snr(0.0)
        r = receive(tx, (1.0, 1.0), variance, 0, 100_000, np.random.default_rng(3))
        measured = np.mean(np.abs(r) ** 2)
        assert abs(measured - variance) / variance < 0.02

    def test_linearity_in_tx(self):
        rng_tx = np.random.default_rng(9)
        a = rng_tx.standard_normal((2, 12)) + 1j * rng_tx.standard_normal((2, 12))
        b = rng_tx.standard_normal((2, 12)) + 1j * rng_tx.standard_normal((2, 12))

        def rx(tx):
            return receive(tx, (0.3 - 0.2j, 1.1 + 0.7j), 0.0, 0, 12, np.random.default_rng(0))

        np.testing.assert_allclose(rx(2.0 * a + 0.5 * b), 2.0 * rx(a) + 0.5 * rx(b), atol=1e-12)

    @pytest.mark.parametrize("k1,length", [(-1, 8), (0, 0)], ids=["k1", "length"])
    def test_bad_window_rejected(self, k1, length):
        with pytest.raises(ParameterError):
            receive(self._tx(), (1.0, 0.0), 0.0, k1, length, np.random.default_rng(0))

    def test_negative_variance_rejected(self):
        with pytest.raises(ParameterError):
            receive(self._tx(), (1.0, 0.0), -1.0, 0, 8, np.random.default_rng(0))

    def test_length_overrun_rejected(self):
        tx = self._tx(n=4)
        with pytest.raises(ShapeError):
            receive(tx, (1.0, 0.0), 0.0, 1, tx.shape[1], np.random.default_rng(0))

    def test_same_seed_identical(self):
        tx = self._tx()
        h, variance = (0.5 + 0.5j, -0.2j), noise_variance_for_snr(5.0)
        r1 = receive(tx, h, variance, 0, 8, np.random.default_rng(7))
        r2 = receive(tx, h, variance, 0, 8, np.random.default_rng(7))
        np.testing.assert_array_equal(r1, r2)
