"""Labeled IQ-frame dataset construction: bursts, windowing, splits, serialization.

A burst is a contiguous received sequence sharing one channel draw and one
block offset. Frames are 128-sample windows (64-sample shift) converted to
2 x 128 I/Q matrices. Train/validation splitting is burst-granular so the
overlapping windows of one burst can never straddle the split.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .baseline_corr import synth_batch, synth_from_words
from .signal_model import (
    _MASK64,
    CodingScheme,
    ParameterError,
    ShapeError,
    encode,  # noqa: F401 -- not called here; perfbench/spans.py patches it by name
    receive,  # noqa: F401 -- likewise
)

FRAME_LEN = 128

DATASET_MAGIC = b"STBC"
DATASET_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")

_SNR_CENTI_MAX = 32767  # the wire format stores SNR as int16 centi-dB: +-327.67 dB


def _snr_centi_db(snrs_db) -> np.ndarray:
    """SNRs as the wire format's int16 centi-dB; non-finite or out-of-range values raise."""
    snrs_db = np.asarray(snrs_db, dtype=np.float64)
    centi = np.round(snrs_db * 100.0)
    bad = ~(np.abs(centi) <= _SNR_CENTI_MAX)  # NaN compares False
    if bad.any():
        raise ParameterError(f"SNR must be finite and within +-327.67 dB, got {snrs_db[bad][0]}")
    return centi.astype(np.int16)


class DatasetFormatError(Exception):
    """The file does not conform to the binary dataset format."""


class BadMagicError(DatasetFormatError):
    pass


class VersionMismatchError(DatasetFormatError):
    pass


class TruncatedRecordError(DatasetFormatError):
    pass


@dataclass(frozen=True)
class DatasetConfig:
    snr_grid: tuple[float, ...]
    bursts_per_cell: int
    burst_len: int = 1024
    shift: int = 64  # frames are FRAME_LEN-sample windows, this many samples apart
    seed: int = 0
    normalize: bool = True

    def __post_init__(self) -> None:
        if not self.snr_grid:
            raise ParameterError("snr_grid must be non-empty")
        labels = len(set(_snr_centi_db(self.snr_grid).tolist()))  # np.unique imports numpy.ma
        if labels < len(self.snr_grid):  # their cells would merge on disk
            raise ParameterError(f"snr_grid points must have distinct centi-dB labels, got "
                                 f"{len(self.snr_grid)} points on {labels} labels")
        if self.bursts_per_cell < 1:
            raise ParameterError(f"bursts_per_cell must be >= 1, got {self.bursts_per_cell}")
        if not 0 < self.shift <= FRAME_LEN:
            raise ParameterError(f"shift must satisfy 0 < shift <= {FRAME_LEN}")
        if self.burst_len < FRAME_LEN:
            raise ParameterError(f"burst_len must be >= {FRAME_LEN}, got {self.burst_len}")

    @property
    def frames_per_burst(self) -> int:
        return (self.burst_len - FRAME_LEN) // self.shift + 1

    @property
    def total_frames(self) -> int:
        return len(self.snr_grid) * 2 * self.bursts_per_cell * self.frames_per_burst


@dataclass
class FrameSet:
    """Column-oriented set of labeled frames.

    ``burst_ids`` records which burst produced each frame; it exists only in
    memory (the wire format does not carry it) and is None after deserializing.
    """

    frames: np.ndarray  # float32 [N, 2, window]
    schemes: np.ndarray  # uint8   [N], 0=SM 1=AL
    snrs_db: np.ndarray  # float64 [N]
    burst_ids: np.ndarray | None = None  # int64 [N]

    def __len__(self) -> int:
        return self.frames.shape[0]

    def subset(self, index) -> "FrameSet":
        return FrameSet(
            frames=self.frames[index],
            schemes=self.schemes[index],
            snrs_db=self.snrs_db[index],
            burst_ids=None if self.burst_ids is None else self.burst_ids[index],
        )


def _snr_key(snr_db: float) -> int:
    """An SNR's word in a burst's seed entropy: centi-dB, offset by 2**15."""
    return int(round(snr_db * 100.0)) + (1 << 15)


def _burst_seeds(master_seed: int, schemes, snr_keys, burst_indices) -> np.ndarray:
    """uint64 seed of each burst, from entropy columns (a scalar serves every burst):
    the first uint64 of ``SeedSequence([master mod 2**64, scheme, snr key, burst
    index])``, stable across platforms and run order."""
    return seeding.generate_state([master_seed & _MASK64, schemes, snr_keys, burst_indices],
                                  1)[:, 0]


def synthesize_burst(scheme: CodingScheme, snr_db: float, burst_len: int, seed: int) -> np.ndarray:
    """The complex samples of one burst: one channel, one block offset, fresh random bits.

    They are row 0 of ``baseline_corr.synth_batch(scheme, snr_db, burst_len,
    [seed])``: one generator serves the dataset and the baseline's calibration.
    """
    if burst_len < FRAME_LEN:
        raise ParameterError(f"burst_len must be >= {FRAME_LEN}, got {burst_len}")
    return synth_batch(scheme, snr_db, burst_len, [seed])[1][0]


def window_frames(samples, window: int, shift: int) -> np.ndarray:
    """Slice a sequence into overlapping windows; the ragged tail is dropped.

    Returns an array of shape (floor((len - window)/shift) + 1, window).
    """
    samples = np.asarray(samples)
    if window <= 0 or shift <= 0:
        raise ParameterError("window and shift must be positive")
    if samples.ndim != 1 or samples.size < window:
        raise ShapeError(f"need at least {window} samples, got shape {samples.shape}")
    view = np.lib.stride_tricks.sliding_window_view(samples, window)[::shift]
    return view.copy()


def _iq_frames(windows: np.ndarray, normalize: bool) -> np.ndarray:
    """``to_iq`` of each row: complex windows [n, FRAME_LEN] -> float64 frames [n, 2, FRAME_LEN]."""
    frames = np.empty((windows.shape[0], 2, FRAME_LEN), dtype=np.float64)
    frames[:, 0] = windows.real
    frames[:, 1] = windows.imag
    if normalize:
        flat = frames.reshape(frames.shape[0], 2 * FRAME_LEN)
        power = np.sum(flat * flat, axis=1) / FRAME_LEN
        if (power == 0.0).any():
            raise ParameterError("cannot normalize a zero-power frame")
        frames /= np.sqrt(power)[:, np.newaxis, np.newaxis]
    return frames


def to_iq(window, normalize: bool = True) -> np.ndarray:
    """Convert one complex window to a 2 x 128 real frame (row 0 = I, row 1 = Q).

    With ``normalize`` the frame is scaled so its mean power
    (1/128) * sum(I^2 + Q^2) is exactly 1.
    """
    w = np.asarray(window)
    if w.shape != (FRAME_LEN,):
        raise ShapeError(f"window must have length {FRAME_LEN}, got shape {w.shape}")
    return _iq_frames(w[np.newaxis], normalize)[0]


def _cell_frames(scheme: CodingScheme, snr_db: float, words: np.ndarray,
                 cfg: DatasetConfig) -> np.ndarray:
    """Float64 frames of bursts synthesized in one batch from their ``seeding.rng_words``,
    burst-major: [len(words) * frames_per_burst, 2, FRAME_LEN]."""
    samples = synth_from_words(scheme, snr_db, cfg.burst_len, words)[1]
    windows = np.lib.stride_tricks.sliding_window_view(samples, FRAME_LEN, axis=1)[:, :: cfg.shift]
    return _iq_frames(windows.reshape(-1, FRAME_LEN), cfg.normalize)


def generate_dataset(cfg: DatasetConfig) -> FrameSet:
    """Build the full labeled frame set for every (snr, scheme) cell.

    Cell order is snr (grid order) x (SM, AL) x burst index; per-burst seeds
    are derived from the master seed, all in one pass. Each cell's bursts come
    from one ``synth_from_words`` call and are windowed in one pass.
    """
    cells = [(snr_db, scheme) for snr_db in cfg.snr_grid
             for scheme in (CodingScheme.SM, CodingScheme.AL)]
    bpc = cfg.bursts_per_cell
    scheme_ids = [int(scheme) for _, scheme in cells]
    seeds = _burst_seeds(cfg.seed, np.repeat(scheme_ids, bpc),
                         np.repeat([_snr_key(snr_db) for snr_db, _ in cells], bpc),
                         np.tile(np.arange(bpc), len(cells)))
    words = seeding.rng_words(seeds)
    per_cell = bpc * cfg.frames_per_burst
    frames = np.empty((len(cells) * per_cell, 2, FRAME_LEN), dtype=np.float32)
    for c, (snr_db, scheme) in enumerate(cells):
        frames[c * per_cell : (c + 1) * per_cell] = _cell_frames(
            scheme, snr_db, words[c * bpc : (c + 1) * bpc], cfg)

    schemes = np.repeat(scheme_ids, per_cell).astype(np.uint8)
    snrs = np.repeat([snr_db for snr_db, _ in cells], per_cell).astype(np.float64)
    burst_ids = np.repeat(np.arange(len(cells) * bpc, dtype=np.int64), cfg.frames_per_burst)
    return FrameSet(frames=frames, schemes=schemes, snrs_db=snrs, burst_ids=burst_ids)


def assign_burst_ids(frames: FrameSet, cfg: DatasetConfig) -> FrameSet:
    """Reattach burst identity to a deserialized, generation-ordered frame set."""
    wpb = cfg.frames_per_burst
    if len(frames) % wpb != 0:
        raise ParameterError(
            f"frame count {len(frames)} is not a multiple of {wpb} frames per burst"
        )
    ids = np.repeat(np.arange(len(frames) // wpb, dtype=np.int64), wpb)
    return replace(frames, burst_ids=ids)


def split_train_val(frames: FrameSet, fraction: float = 0.5, seed: int = 0) -> tuple[FrameSet, FrameSet]:
    """Split at burst granularity so overlapping windows never leak across sides.

    Every (scheme, snr) cell contributes round(n_bursts * fraction) bursts to
    the training side (at least one burst on each side).
    """
    if not 0.0 < fraction < 1.0:
        raise ParameterError(f"fraction must lie in (0, 1), got {fraction}")
    if frames.burst_ids is None:
        raise ParameterError("split requires burst identity (burst_ids is None)")
    if len(frames) == 0:
        raise ParameterError("cannot split an empty frame set")
    rng = np.random.default_rng(np.random.SeedSequence([seed & _MASK64, 0x73706C69]))

    # Bursts in order of first appearance, grouped into (scheme, snr) cells in
    # sorted cell order; the stable sort keeps first-appearance order inside a cell.
    ids, first = np.unique(frames.burst_ids, return_index=True)
    by_appearance = np.argsort(first)
    ids, first = ids[by_appearance], first[by_appearance]
    schemes = frames.schemes[first].astype(np.int64)
    snrs = frames.snrs_db[first]
    order = np.lexsort((snrs, schemes))
    ids, schemes, snrs = ids[order], schemes[order], snrs[order]
    starts = np.flatnonzero(np.r_[True, (schemes[1:] != schemes[:-1]) | (snrs[1:] != snrs[:-1])])
    train_bursts = []
    for start, stop in zip(starts, np.r_[starts[1:], ids.size]):
        bursts = ids[start:stop]
        if bursts.size < 2:
            key = (int(schemes[start]), float(snrs[start]))
            raise ParameterError(f"cell {key} has {bursts.size} burst(s); need >= 2 to split")
        n_train = int(round(bursts.size * fraction))
        n_train = min(max(n_train, 1), bursts.size - 1)
        perm = rng.permutation(bursts.size)
        train_bursts.append(bursts[perm[:n_train]])

    mask = np.isin(frames.burst_ids, np.concatenate(train_bursts))
    return frames.subset(mask), frames.subset(~mask)


def _record_dtype(window: int) -> np.dtype:
    return np.dtype([("scheme", "u1"), ("snr", "<i2"), ("iq", "<f4", (2 * window,))])


def serialize_frames(frames: FrameSet, path) -> None:
    """Write the binary dataset format (little-endian, SNR quantized to 0.01 dB)."""
    window = frames.frames.shape[2]
    rec = np.empty(len(frames), dtype=_record_dtype(window))
    rec["scheme"] = frames.schemes
    rec["snr"] = _snr_centi_db(frames.snrs_db)
    rec["iq"] = frames.frames.reshape(len(frames), 2 * window)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, window, len(frames)))
        f.write(rec.tobytes())


def deserialize_frames(path) -> FrameSet:
    """Read a binary dataset; burst identity is not part of the wire format."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedRecordError(f"{path}: file shorter than header")
        magic, version, window, count = _HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version != DATASET_VERSION:
            raise VersionMismatchError(f"{path}: version {version}, expected {DATASET_VERSION}")
        dtype = _record_dtype(window)
        payload = f.read(count * dtype.itemsize + 1)
    if len(payload) != count * dtype.itemsize:
        raise TruncatedRecordError(
            f"{path}: expected {count} records ({count * dtype.itemsize} bytes), "
            f"got {len(payload)} bytes"
        )
    rec = np.frombuffer(payload, dtype=dtype)
    if rec.size and not np.isin(rec["scheme"], (0, 1)).all():
        raise DatasetFormatError(f"{path}: invalid scheme byte")
    # a float64 sum of float32 values cannot overflow, so it is finite iff every value is;
    # unlike np.isfinite it leaves no IQ-sized temporary to raise the peak RSS
    finite = np.isfinite(rec["iq"].sum(axis=1, dtype=np.float64))
    if not finite.all():
        raise DatasetFormatError(f"{path}: non-finite IQ in record {np.argmin(finite)}")
    return FrameSet(
        frames=rec["iq"].reshape(count, 2, window).copy(),
        schemes=rec["scheme"].copy(),
        snrs_db=rec["snr"].astype(np.float64) / 100.0,
        burst_ids=None,
    )


def export_frames_csv(frames: FrameSet, path) -> None:
    """CSV mirror of the dataset: scheme and SNR first, then i0..i127, q0..q127."""
    window = frames.frames.shape[2]
    header = ["scheme", "snr_db"]
    header += [f"i{k}" for k in range(window)] + [f"q{k}" for k in range(window)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i in range(len(frames)):
            row = [int(frames.schemes[i]), repr(float(frames.snrs_db[i]))]
            row += [repr(float(v)) for v in frames.frames[i].reshape(-1)]
            writer.writerow(row)


def read_frames_csv(path) -> FrameSet:
    """Parse the CSV export back into a FrameSet; malformed rows name their line."""
    frames, schemes, snrs = [], [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file, expected header") from None
        width = len(header) - 2
        if width <= 0 or width % 2 != 0 or header[:2] != ["scheme", "snr_db"]:
            raise DatasetFormatError(f"{path}: unrecognized header")
        window = width // 2
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                scheme = int(row[0])
                if scheme not in (0, 1) or len(row) != 2 + 2 * window:
                    raise ValueError
                snrs.append(float(row[1]))
                with np.errstate(over="ignore"):  # beyond float32's range reads as inf
                    iq = np.array([float(v) for v in row[2:]], dtype=np.float32)
                schemes.append(scheme)
            except (ValueError, IndexError):
                raise DatasetFormatError(f"{path}: malformed frame row at line {lineno}") from None
            if not np.isfinite(iq).all():
                raise DatasetFormatError(f"{path}: non-finite IQ at line {lineno}")
            frames.append(iq)
    n = len(frames)
    arr = (
        np.stack(frames).reshape(n, 2, window)
        if n
        else np.empty((0, 2, window), dtype=np.float32)
    )
    return FrameSet(
        frames=arr,
        schemes=np.array(schemes, dtype=np.uint8),
        snrs_db=np.array(snrs, dtype=np.float64),
        burst_ids=None,
    )


MANIFEST_VERSION = 1


def _manifest_lines(cfg: DatasetConfig, count: int) -> list[str]:
    return [
        f"manifest_version={MANIFEST_VERSION}",
        f"format_version={DATASET_VERSION}",
        f"seed={cfg.seed}",
        "snr_grid=" + ",".join(repr(float(s)) for s in cfg.snr_grid),
        f"bursts_per_cell={cfg.bursts_per_cell}",
        f"burst_len={cfg.burst_len}",
        f"window={FRAME_LEN}",
        f"shift={cfg.shift}",
        f"normalize={int(cfg.normalize)}",
        f"frames={count}",
    ]


def write_manifest(cfg: DatasetConfig, count: int, path) -> None:
    """Text manifest recording everything needed to regenerate the dataset."""
    with open(path, "w") as f:
        f.write("\n".join(_manifest_lines(cfg, count)) + "\n")


def read_manifest(path) -> tuple[DatasetConfig, int]:
    """The config and frame count of a manifest as ``write_manifest`` writes it: each key
    once, each value in exactly the text it writes; anything else raises."""
    kv = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetFormatError(f"{path}: malformed manifest line {line!r}")
            k, v = line.split("=", 1)
            if k in kv:
                raise DatasetFormatError(f"{path}: manifest key {k!r} appears more than once")
            kv[k] = v

    def value(key: str, parse=int):
        if key not in kv:
            raise DatasetFormatError(f"{path}: manifest missing key {key!r}")
        try:
            return parse(kv[key])
        except ValueError:
            raise DatasetFormatError(
                f"{path}: manifest key {key!r} has a malformed value {kv[key]!r}") from None

    if value("manifest_version") != MANIFEST_VERSION:
        raise VersionMismatchError(f"{path}: manifest version {kv['manifest_version']}")
    if value("window") != FRAME_LEN:
        raise DatasetFormatError(f"{path}: window {kv['window']}, frames have {FRAME_LEN}")
    cfg = DatasetConfig(
        snr_grid=value("snr_grid", lambda v: tuple(float(s) for s in v.split(","))),
        bursts_per_cell=value("bursts_per_cell"),
        burst_len=value("burst_len"),
        shift=value("shift"),
        seed=value("seed"),
        normalize=bool(value("normalize")),
    )
    count = value("frames")
    written = dict(line.split("=", 1) for line in _manifest_lines(cfg, count))
    for k, v in kv.items():
        if k not in written:
            raise DatasetFormatError(f"{path}: unknown manifest key {k!r}")
        if v != written[k]:  # e.g. int() reads "1_0" and " +3"
            raise DatasetFormatError(f"{path}: manifest key {k!r} has {v!r}, which "
                                     f"write_manifest writes as {written[k]!r}")
    return cfg, count
