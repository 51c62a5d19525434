"""Tests for burst synthesis, windowing, splits, and dataset serialization."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbcid import seeding
from stbcid.baseline_corr import synth_from_words, synth_sequence
from stbcid.dataset import (
    BadMagicError,
    DatasetConfig,
    DatasetFormatError,
    FRAME_LEN,
    FrameSet,
    TruncatedRecordError,
    VersionMismatchError,
    _cell_frames,
    assign_burst_ids,
    deserialize_frames,
    export_frames_csv,
    generate_dataset,
    read_frames_csv,
    read_manifest,
    serialize_frames,
    split_train_val,
    synthesize_burst,
    to_iq,
    window_frames,
    write_manifest,
)
from stbcid.errors import ParameterError, ShapeError
from stbcid.signal_model import CodingScheme


def scalar_to_iq(window, normalize):
    """One frame as first written, before frames were built a burst at a time."""
    frame = np.stack([window.real.astype(np.float64), window.imag.astype(np.float64)])
    if normalize:
        frame /= np.sqrt(float(np.sum(frame * frame)) / FRAME_LEN)
    return frame


def scalar_split(frames, fraction, seed):
    """Frozen per-frame split loop: bursts by first appearance, cells in sorted order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x73706C69]))
    first_index = {}
    for i, b in enumerate(frames.burst_ids):
        first_index.setdefault(int(b), i)
    train_bursts = set()
    cells = {}
    for b, i in first_index.items():
        cells.setdefault((int(frames.schemes[i]), float(frames.snrs_db[i])), []).append(b)
    for key in sorted(cells):
        bursts = cells[key]
        n_train = min(max(int(round(len(bursts) * fraction)), 1), len(bursts) - 1)
        perm = rng.permutation(len(bursts))
        train_bursts.update(bursts[i] for i in perm[:n_train])
    return np.array([int(b) in train_bursts for b in frames.burst_ids])


def small_config(**overrides):
    defaults = dict(
        snr_grid=(0.0, 10.0), bursts_per_cell=2, burst_len=256, seed=3, normalize=True
    )
    defaults.update(overrides)
    return DatasetConfig(**defaults)


class TestWindowFrames:
    def test_exactly_one_window(self):
        assert window_frames(np.zeros(128, complex), 128, 64).shape[0] == 1

    def test_three_windows(self):
        assert window_frames(np.zeros(256, complex), 128, 64).shape[0] == 3

    def test_tail_dropped(self):
        assert window_frames(np.zeros(191, complex), 128, 64).shape[0] == 1

    def test_window_content(self):
        samples = np.arange(300) + 0j
        w = window_frames(samples, 128, 64)
        np.testing.assert_array_equal(w[1], samples[64:192])

    def test_too_short_rejected(self):
        with pytest.raises(ShapeError):
            window_frames(np.zeros(100, complex), 128, 64)

    @given(
        st.integers(1, 400), st.integers(1, 64), st.integers(1, 64)
    )
    @settings(max_examples=80)
    def test_count_formula(self, length, window, shift):
        if shift > window or length < window:
            return
        frames = window_frames(np.zeros(length, complex), window, shift)
        assert frames.shape == ((length - window) // shift + 1, window)


class TestToIq:
    def test_rows_are_real_and_imag(self):
        w = np.zeros(FRAME_LEN, complex)
        w[0] = 1 + 2j
        frame = to_iq(w, normalize=False)
        assert frame.shape == (2, FRAME_LEN)
        assert frame[0, 0] == 1.0 and frame[1, 0] == 2.0
        assert np.all(frame[:, 1:] == 0.0)

    def test_unit_power_input_unchanged(self):
        frame = to_iq(np.ones(FRAME_LEN, complex), normalize=True)
        np.testing.assert_allclose(frame[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(frame[1], 0.0, atol=1e-12)

    def test_zero_power_rejected(self):
        with pytest.raises(ParameterError):
            to_iq(np.zeros(FRAME_LEN, complex), normalize=True)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            to_iq(np.zeros(64, complex), normalize=False)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_normalized_mean_power_is_one(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(FRAME_LEN) + 1j * rng.standard_normal(FRAME_LEN)
        frame = to_iq(w, normalize=True)
        power = float((frame**2).sum()) / FRAME_LEN
        assert abs(power - 1.0) < 1e-9


class TestSynthesizeBurst:
    def test_deterministic(self):
        a = synthesize_burst(CodingScheme.AL, 10.0, 1024, seed=1)
        b = synthesize_burst(CodingScheme.AL, 10.0, 1024, seed=1)
        np.testing.assert_array_equal(a, b)
        channels = synth_from_words(CodingScheme.AL, 10.0, 1024, seeding.rng_words([1, 1]))[0]
        assert channels[0].tobytes() == channels[1].tobytes()

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError):
            synthesize_burst(CodingScheme.SM, 0.0, 64, seed=0)

    def test_oversized_length_rejected_before_allocating(self):
        # numpy used to fail in its own size arithmetic ("Maximum allowed dimension exceeded")
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="length must be"):
                synthesize_burst(CodingScheme.SM, 0.0, 2 ** 62, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peaked at {peak / 1e6:.1f} MB"

    def test_returns_the_samples(self):
        b = synthesize_burst(CodingScheme.SM, -4.0, 256, seed=9)
        assert b.shape == (256,) and b.dtype == np.complex128

    @pytest.mark.parametrize("scheme", [CodingScheme.SM, CodingScheme.AL])
    @pytest.mark.parametrize("length", [128, 301, 1024])
    def test_same_bytes_as_calibration_sequences(self, scheme, length):
        for seed in range(5):
            burst = synthesize_burst(scheme, 4.0, length, seed)
            assert burst.tobytes() == synth_sequence(scheme, 4.0, length, seed).tobytes()

    def test_mean_power_oracle_at_0db(self):
        # E|r|^2 = E(|h0|^2 + |h1|^2) + sigma_w^2 = 2 + 2; 1e6 samples spread over
        # many bursts so the per-burst channel draw averages out as well
        total, count = 0.0, 0
        for seed in range(4000):
            b = synthesize_burst(CodingScheme.SM, 0.0, 250, seed=seed)
            total += float(np.sum(np.abs(b) ** 2))
            count += b.size
        assert count == 1_000_000
        assert abs(total / count - 4.0) / 4.0 < 0.02


class TestGenerateDataset:
    def test_frame_count_arithmetic(self):
        cfg = DatasetConfig(
            snr_grid=tuple(float(s) for s in range(-20, 22, 2)),
            bursts_per_cell=10,
            burst_len=1024,
        )
        assert cfg.frames_per_burst == 15
        assert cfg.total_frames == 21 * 2 * 10 * 15 == 6300

    def test_counts_and_balance(self):
        frames = generate_dataset(small_config())
        assert len(frames) == 2 * 2 * 2 * 3
        for snr in (0.0, 10.0):
            mask = frames.snrs_db == snr
            assert (frames.schemes[mask] == 0).sum() == (frames.schemes[mask] == 1).sum()

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.stbc", tmp_path / "b.stbc"
        serialize_frames(generate_dataset(small_config()), p1)
        serialize_frames(generate_dataset(small_config()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("snr", [float("nan"), float("inf"), 400.0, -327.68,
                                     0.0, 0.004, 0.005])
    def test_unstorable_snr_rejected(self, snr):
        # the wire format holds SNR as int16 centi-dB; 400 dB would read back as -255.36,
        # and a point whose label is 0 dB's would merge into its cell on disk
        with pytest.raises(ParameterError):
            small_config(snr_grid=(0.0, snr))

    def test_frame_labels_follow_bursts(self):
        frames = generate_dataset(small_config())
        for b in np.unique(frames.burst_ids):
            mask = frames.burst_ids == b
            assert len(set(frames.schemes[mask].tolist())) == 1
            assert len(set(frames.snrs_db[mask].tolist())) == 1


class TestBurstFrames:
    @pytest.mark.parametrize("normalize", [False, True])
    def test_bit_equal_to_one_window_at_a_time(self, normalize):
        cfg = small_config(burst_len=700, shift=50, normalize=normalize)
        for scheme in (CodingScheme.SM, CodingScheme.AL):
            frames = _cell_frames(scheme, 0.0, seeding.rng_words([11]), cfg).astype(np.float32)
            windows = window_frames(synthesize_burst(scheme, 0.0, 700, 11), 128, 50)
            stacked = np.stack([to_iq(w, normalize) for w in windows]).astype(np.float32)
            frozen = np.stack([scalar_to_iq(w, normalize) for w in windows]).astype(np.float32)
            assert frames.shape == (cfg.frames_per_burst, 2, FRAME_LEN)
            assert frames.tobytes() == stacked.tobytes() == frozen.tobytes()
            for w in windows:  # and before the float32 cast
                assert to_iq(w, normalize).tobytes() == scalar_to_iq(w, normalize).tobytes()


class TestSplit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7])
    def test_index_identical_to_frame_loop(self, seed, fraction):
        frames = generate_dataset(small_config(snr_grid=(-5.0, 0.0, 5.0), bursts_per_cell=5))
        # the same frames with burst ids relabelled out of order and frames shuffled
        rng = np.random.default_rng(seed)
        relabel = rng.permutation(frames.burst_ids.max() + 1) * 3 + 7
        shuffled = frames.subset(rng.permutation(len(frames)))
        shuffled.burst_ids = relabel[shuffled.burst_ids]
        for fs in (frames, shuffled):
            train, val = split_train_val(fs, fraction, seed)
            mask = scalar_split(fs, fraction, seed)
            np.testing.assert_array_equal(train.burst_ids, fs.burst_ids[mask])
            np.testing.assert_array_equal(val.burst_ids, fs.burst_ids[~mask])
            assert train.frames.tobytes() == fs.frames[mask].tobytes()

    def test_empty_set_rejected(self):
        frames = generate_dataset(small_config()).subset(slice(0, 0))
        with pytest.raises(ParameterError):
            split_train_val(frames, 0.5, seed=0)

    def test_five_bursts_each_side(self):
        cfg = small_config(bursts_per_cell=10, burst_len=256)
        frames = generate_dataset(cfg)
        train, val = split_train_val(frames, 0.5, seed=1)
        for side in (train, val):
            for snr in cfg.snr_grid:
                for scheme in (0, 1):
                    mask = (side.snrs_db == snr) & (side.schemes == scheme)
                    assert len(np.unique(side.burst_ids[mask])) == 5

    def test_no_frame_on_both_sides(self):
        frames = generate_dataset(small_config(bursts_per_cell=4))
        train, val = split_train_val(frames, 0.5, seed=0)
        assert len(train) + len(val) == len(frames)
        assert not set(train.burst_ids.tolist()) & set(val.burst_ids.tolist())

    def test_same_seed_same_split(self):
        frames = generate_dataset(small_config(bursts_per_cell=4))
        t1, v1 = split_train_val(frames, 0.5, seed=5)
        t2, v2 = split_train_val(frames, 0.5, seed=5)
        np.testing.assert_array_equal(t1.frames, t2.frames)
        np.testing.assert_array_equal(v1.frames, v2.frames)

    def test_single_burst_cell_rejected(self):
        frames = generate_dataset(small_config(bursts_per_cell=1))
        with pytest.raises(ParameterError):
            split_train_val(frames, 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        frames = generate_dataset(small_config())
        with pytest.raises(ParameterError):
            split_train_val(frames, 1.0, seed=0)

    def test_missing_burst_ids_rejected(self):
        frames = generate_dataset(small_config())
        frames.burst_ids = None
        with pytest.raises(ParameterError):
            split_train_val(frames, 0.5, seed=0)


class TestSerialization:
    def test_round_trip_equality(self, tmp_path):
        frames = generate_dataset(small_config())
        path = tmp_path / "d.stbc"
        serialize_frames(frames, path)
        back = deserialize_frames(path)
        np.testing.assert_array_equal(back.frames, frames.frames)
        np.testing.assert_array_equal(back.schemes, frames.schemes)
        np.testing.assert_array_equal(back.snrs_db, frames.snrs_db)
        assert back.burst_ids is None

    def test_round_trip_bytes(self, tmp_path):
        frames = generate_dataset(small_config())
        p1, p2 = tmp_path / "a.stbc", tmp_path / "b.stbc"
        serialize_frames(frames, p1)
        serialize_frames(deserialize_frames(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_snr_range_edges_round_trip(self, tmp_path):
        frames = generate_dataset(small_config()).subset(slice(0, 2))
        frames.snrs_db = np.array([327.67, -327.67])
        path = tmp_path / "edge.stbc"
        serialize_frames(frames, path)
        np.testing.assert_array_equal(deserialize_frames(path).snrs_db, frames.snrs_db)

    @pytest.mark.parametrize("snr", [float("nan"), -float("inf"), 400.0, 327.68])
    def test_unstorable_snr_rejected(self, tmp_path, snr):
        frames = generate_dataset(small_config()).subset(slice(0, 2))
        frames.snrs_db = np.array([0.0, snr])
        path = tmp_path / "bad.stbc"
        with pytest.raises(ParameterError):
            serialize_frames(frames, path)
        assert not path.exists()

    def test_empty_set_round_trips(self, tmp_path):
        empty = FrameSet(
            frames=np.empty((0, 2, FRAME_LEN), np.float32),
            schemes=np.empty(0, np.uint8),
            snrs_db=np.empty(0),
        )
        path = tmp_path / "empty.stbc"
        serialize_frames(empty, path)
        assert len(deserialize_frames(path)) == 0

    def test_snr_the_writer_refuses_rejected(self, tmp_path):
        frames = generate_dataset(small_config())
        path = tmp_path / "d.stbc"
        serialize_frames(frames, path)
        raw = bytearray(path.read_bytes())
        at = 18 + 5 * (1 + 2 + 4 * 2 * FRAME_LEN) + 1  # header, 5 records, scheme byte
        raw[at:at + 2] = (-32768).to_bytes(2, "little", signed=True)  # -327.68 dB
        path.write_bytes(raw)
        with pytest.raises(DatasetFormatError, match="-327.68 dB in record 5"):
            deserialize_frames(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.stbc"
        serialize_frames(generate_dataset(small_config()), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(BadMagicError):
            deserialize_frames(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "d.stbc"
        serialize_frames(generate_dataset(small_config()), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(raw)
        with pytest.raises(VersionMismatchError):
            deserialize_frames(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "d.stbc"
        serialize_frames(generate_dataset(small_config()), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(TruncatedRecordError):
            deserialize_frames(path)

    @pytest.mark.parametrize("window, count", [
        (FRAME_LEN, 2 ** 40), (FRAME_LEN, 2 ** 64 - 1), (2 ** 31, 5), (2 ** 31, 0),
    ], ids=["2^40-records", "2^64-1-records", "window-2^31", "window-2^31-no-records"])
    def test_header_claiming_more_than_the_file_rejected(self, tmp_path, window, count):
        path = tmp_path / "d.stbc"
        serialize_frames(generate_dataset(small_config()), path)
        records = path.read_bytes()[18:] if count else b""
        path.write_bytes(struct.pack("<4sHIQ", b"STBC", 1, window, count) + records)
        with pytest.raises(DatasetFormatError, match=str(path)):
            deserialize_frames(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "d.stbc"
        path.write_bytes(b"STB")
        with pytest.raises(TruncatedRecordError):
            deserialize_frames(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_iq_rejected(self, tmp_path, bad):
        frames = generate_dataset(small_config())
        frames.frames[5, 1, 17] = bad
        path = tmp_path / "d.stbc"
        serialize_frames(frames, path)
        with pytest.raises(DatasetFormatError, match="non-finite IQ in record 5") as err:
            deserialize_frames(path)
        assert str(path) in str(err.value)


class TestCsv:
    def test_header_and_round_trip(self, tmp_path):
        frames = generate_dataset(small_config())
        path = tmp_path / "d.csv"
        export_frames_csv(frames, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("scheme,snr_db,i0,") and header.endswith(",q127")
        back = read_frames_csv(path)
        np.testing.assert_array_equal(back.frames, frames.frames)
        np.testing.assert_array_equal(back.schemes, frames.schemes)
        np.testing.assert_array_equal(back.snrs_db, frames.snrs_db)
        export_frames_csv(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_malformed_row_names_line(self, tmp_path):
        frames = generate_dataset(small_config())
        path = tmp_path / "d.csv"
        export_frames_csv(frames, path)
        lines = path.read_text().splitlines()
        lines[2] = "1,0.0,not_a_number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match="line 3"):
            read_frames_csv(path)

    @pytest.mark.parametrize("cell, bad, what", [
        pytest.param(40, "nan", "non-finite IQ", id="nan"),
        pytest.param(40, "inf", "non-finite IQ", id="inf"),
        pytest.param(40, "-inf", "non-finite IQ", id="-inf"),
        pytest.param(40, "1e39", "non-finite IQ", id="1e39"),  # overflows float32
        # SNRs that the binary format's int16 centi-dB cannot store
        pytest.param(1, "nan", "SNR must be finite .*, got nan", id="snr-nan"),
        pytest.param(1, "-inf", "SNR must be finite .*, got -inf", id="snr-inf"),
        pytest.param(1, "400", "SNR must be finite .*, got 400.0", id="snr-400"),
        pytest.param(1, "-327.68", "SNR must be finite .*, got -327.68", id="snr--327.68"),
        pytest.param(0, "2", "scheme must be 0 or 1, got 2", id="scheme-2"),
        # cells that parse but are not the text export_frames_csv writes for their values
        pytest.param(1, "-4", "column 'snr_db' reads '-4', which is written as '-4.0',",
                     id="snr--4"),
        pytest.param(5, "0.1", "column 'i3' reads '0.1', which is written as "
                     "'0.10000000149011612',", id="iq-0.1"),  # not a float32 value
        pytest.param(0, "01", "column 'scheme' reads '01', which is written as '1',",
                     id="scheme-01"),
    ])
    def test_non_finite_iq_names_line(self, tmp_path, cell, bad, what):
        frames = generate_dataset(small_config())
        path = tmp_path / "d.csv"
        export_frames_csv(frames, path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[cell] = bad
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match=f"{what} at line 4") as err:
            read_frames_csv(path)
        assert str(path) in str(err.value)

    def test_read_peak_memory(self, tmp_path):
        # holding every cell string of the file peaked at 13.9 MB for these 630 frames;
        # checked row by row as read, the parsed values alone are 1.5 MB
        frames = generate_dataset(DatasetConfig(snr_grid=tuple(range(-10, 32, 2)),
                                                bursts_per_cell=1, burst_len=1024, seed=3))
        assert len(frames) == 630
        path = tmp_path / "d.csv"
        export_frames_csv(frames, path)
        tracemalloc.start()
        try:
            read_frames_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, f"read_frames_csv peaked at {peak / 1e6:.1f} MB"


class TestManifest:
    def test_round_trip(self, tmp_path):
        cfg = small_config()
        frames = generate_dataset(cfg)
        path = tmp_path / "d.manifest"
        write_manifest(cfg, path)
        cfg2, count = read_manifest(path)
        assert cfg2 == cfg
        assert count == len(frames)

    def test_rewrites_the_text_it_reads(self, tmp_path):
        cfg = small_config(snr_grid=(0, 10), seed=(1 << 64) + 3)  # int SNRs are written as floats
        path = tmp_path / "d.manifest"
        write_manifest(cfg, path)
        text = path.read_text()
        write_manifest(read_manifest(path)[0], path)
        assert path.read_text() == text and "snr_grid=0.0,10.0\n" in text

    def test_window_other_than_frame_len_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "d.manifest"
        write_manifest(cfg, path)
        text = path.read_text()
        assert f"window={FRAME_LEN}\n" in text
        path.write_text(text.replace(f"window={FRAME_LEN}\n", "window=64\n"))
        with pytest.raises(DatasetFormatError, match="window"):
            read_manifest(path)

    @pytest.mark.parametrize("edit, line, key", [
        # line 1 is a comment; then manifest_version, format_version, seed, snr_grid, ...
        (lambda lines: [*lines[:2], lines[3], lines[2], *lines[4:]], 3, "seed"),  # reordered
        (lambda lines: [*lines[:5], lines[4], *lines[5:]], 6, "snr_grid"),  # duplicated
        # 192-sample bursts give 2 windows, not the 3 that frames= counts
        (lambda lines: [s.replace("burst_len=256", "burst_len=192") for s in lines], 11,
         "frames"),
    ], ids=["reordered", "duplicated", "frames-not-the-config-count"])
    def test_lines_other_than_written_rejected(self, tmp_path, edit, line, key):
        cfg = small_config()
        path = tmp_path / "d.manifest"
        write_manifest(cfg, path)
        lines = edit(["# comment", *path.read_text().splitlines()])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=f"line {line} .*'{key}'"):
            read_manifest(path)

    def test_burst_id_reconstruction(self, tmp_path):
        cfg = small_config()
        frames = generate_dataset(cfg)
        data_path = tmp_path / "d.stbc"
        serialize_frames(frames, data_path)
        back = assign_burst_ids(deserialize_frames(data_path), cfg)
        np.testing.assert_array_equal(back.burst_ids, frames.burst_ids)

    def test_incompatible_count_rejected(self):
        cfg = small_config()
        frames = generate_dataset(cfg)
        with pytest.raises(ParameterError):
            assign_burst_ids(frames.subset(slice(0, 5)), cfg)
