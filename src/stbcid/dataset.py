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

from .baseline_corr import synth_with_channel
from .signal_model import (
    _MASK64,
    CodingScheme,
    ChannelRealization,
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
class Burst:
    """One received sequence with its generation context."""

    samples: np.ndarray  # complex128, length burst_len
    scheme: CodingScheme
    snr_db: float
    channel: ChannelRealization
    seed: int


@dataclass(frozen=True)
class DatasetConfig:
    snr_grid: tuple[float, ...]
    bursts_per_cell: int
    burst_len: int = 1024
    window: int = FRAME_LEN
    shift: int = 64
    seed: int = 0
    normalize: bool = True

    def __post_init__(self) -> None:
        if not self.snr_grid:
            raise ParameterError("snr_grid must be non-empty")
        _snr_centi_db(self.snr_grid)
        if self.bursts_per_cell < 1:
            raise ParameterError("bursts_per_cell must be >= 1")
        if self.window <= 0:
            raise ParameterError("window must be positive")
        if not 0 < self.shift <= self.window:
            raise ParameterError("shift must satisfy 0 < shift <= window")
        if self.burst_len < self.window:
            raise ParameterError("burst_len must be >= window")

    @property
    def frames_per_burst(self) -> int:
        return (self.burst_len - self.window) // self.shift + 1

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


def derive_burst_seed(master_seed: int, scheme: CodingScheme, snr_db: float, burst_index: int) -> int:
    """Deterministic per-burst seed, stable across platforms and run order."""
    snr_centi = int(round(snr_db * 100.0)) + (1 << 15)
    ss = np.random.SeedSequence([master_seed & _MASK64, int(scheme), snr_centi, burst_index])
    return int(ss.generate_state(1, np.uint64)[0])


def synthesize_burst(scheme: CodingScheme, snr_db: float, burst_len: int, seed: int) -> Burst:
    """Generate one burst: one channel, one block offset, fresh random bits.

    The samples are ``baseline_corr.synth_sequence(scheme, snr_db, burst_len,
    seed)``: one generator serves the dataset and the baseline's calibration.
    """
    if burst_len < FRAME_LEN:
        raise ParameterError(f"burst_len must be >= {FRAME_LEN}, got {burst_len}")
    channel, samples = synth_with_channel(scheme, snr_db, burst_len, seed)
    return Burst(samples=samples, scheme=scheme, snr_db=snr_db, channel=channel, seed=seed)


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


def _burst_frames(job: tuple[CodingScheme, float, int, int, DatasetConfig]) -> np.ndarray:
    scheme, snr_db, burst_index, seed, cfg = job
    burst = synthesize_burst(scheme, snr_db, cfg.burst_len, seed)
    windows = window_frames(burst.samples, cfg.window, cfg.shift)
    return _iq_frames(windows, cfg.normalize).astype(np.float32)


def generate_dataset(cfg: DatasetConfig) -> FrameSet:
    """Build the full labeled frame set for every (snr, scheme) cell.

    Cell order is snr (grid order) x (SM, AL) x burst index; per-burst seeds
    are derived from the master seed.
    """
    if cfg.window != FRAME_LEN:
        raise ParameterError(f"frames are fixed at 2 x {FRAME_LEN}; cfg.window must be {FRAME_LEN}")
    jobs = []
    for snr_db in cfg.snr_grid:
        for scheme in (CodingScheme.SM, CodingScheme.AL):
            for b in range(cfg.bursts_per_cell):
                seed = derive_burst_seed(cfg.seed, scheme, snr_db, b)
                jobs.append((scheme, snr_db, b, seed, cfg))
    per_burst = [_burst_frames(job) for job in jobs]

    wpb = cfg.frames_per_burst
    frames = np.concatenate(per_burst, axis=0)
    schemes = np.repeat([int(job[0]) for job in jobs], wpb).astype(np.uint8)
    snrs = np.repeat([job[1] for job in jobs], wpb).astype(np.float64)
    burst_ids = np.repeat(np.arange(len(jobs), dtype=np.int64), wpb)
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
                frames.append(np.array([float(v) for v in row[2:]], dtype=np.float32))
                schemes.append(scheme)
            except (ValueError, IndexError):
                raise DatasetFormatError(f"{path}: malformed frame row at line {lineno}") from None
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


def write_manifest(cfg: DatasetConfig, count: int, path) -> None:
    """Text manifest recording everything needed to regenerate the dataset."""
    lines = [
        f"manifest_version={MANIFEST_VERSION}",
        f"format_version={DATASET_VERSION}",
        f"seed={cfg.seed}",
        "snr_grid=" + ",".join(repr(s) for s in cfg.snr_grid),
        f"bursts_per_cell={cfg.bursts_per_cell}",
        f"burst_len={cfg.burst_len}",
        f"window={cfg.window}",
        f"shift={cfg.shift}",
        f"normalize={int(cfg.normalize)}",
        f"frames={count}",
    ]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_manifest(path) -> tuple[DatasetConfig, int]:
    kv = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetFormatError(f"{path}: malformed manifest line {line!r}")
            k, v = line.split("=", 1)
            kv[k] = v
    try:
        if int(kv["manifest_version"]) != MANIFEST_VERSION:
            raise VersionMismatchError(f"{path}: manifest version {kv['manifest_version']}")
        cfg = DatasetConfig(
            snr_grid=tuple(float(s) for s in kv["snr_grid"].split(",")),
            bursts_per_cell=int(kv["bursts_per_cell"]),
            burst_len=int(kv["burst_len"]),
            window=int(kv["window"]),
            shift=int(kv["shift"]),
            seed=int(kv["seed"]),
            normalize=bool(int(kv["normalize"])),
        )
        return cfg, int(kv["frames"])
    except KeyError as e:
        raise DatasetFormatError(f"{path}: manifest missing key {e}") from None
