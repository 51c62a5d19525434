"""Labeled IQ-frame dataset construction: bursts, windowing, splits, serialization.

A burst is a contiguous received sequence sharing one channel draw and one
block offset. Frames are 128-sample windows (64-sample shift) converted to
2 x 128 I/Q matrices. Train/validation splitting is burst-granular so the
overlapping windows of one burst can never straddle the split.

Every reader checks its file as it reads it. ``deserialize_frames`` matches
the header to the file size before it reads the records. ``read_manifest``
writes back the values it parsed and raises ``DatasetFormatError`` for a file
that is not line for line that text. Each CSV format has one row renderer, which
its writer and ``read_csv_rows`` both call: the reader renders each row as it
parses it, keeps only the parsed values and raises ``ParameterError`` at the
first row that is not written back as read, whatever differs.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, replace
from itertools import zip_longest

import numpy as np

from . import seeding
from .errors import ParameterError, ShapeError
from .signal_model import (
    _MAX_ARRAY_BYTES,
    _SAMPLE_BYTES,
    CodingScheme,
    encode,  # noqa: F401 -- not called here; perfbench/spans.py patches it by name
    receive,  # noqa: F401 -- likewise
    synth_from_words,
)

FRAME_LEN = 128
_FRAME_BYTES = 16 * FRAME_LEN  # a float64 or complex128 frame: the most any array holds per frame

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
        per_burst = 2 * len(self.snr_grid) * (  # most bytes any array takes per burst of each cell
            _SAMPLE_BYTES * self.burst_len + _FRAME_BYTES * self.frames_per_burst)
        if per_burst >= _MAX_ARRAY_BYTES:
            raise ParameterError(f"burst_len {self.burst_len} sizes arrays of 2**62 bytes or more")
        if self.bursts_per_cell > (most := (_MAX_ARRAY_BYTES - 1) // per_burst):
            raise ParameterError(f"bursts_per_cell must be <= {most} at burst_len "
                                 f"{self.burst_len} on {len(self.snr_grid)} SNRs")

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
    """uint64 seed of each burst, ``seeding.derive(master_seed, scheme, snr key, burst
    index)`` (a scalar column serves every burst), stable across platforms and run order."""
    return seeding.derive(master_seed, schemes, snr_keys, burst_indices)


def synthesize_burst(scheme: CodingScheme, snr_db: float, burst_len: int, seed: int) -> np.ndarray:
    """The complex samples of one burst: one channel, one block offset, fresh random bits.

    They are row 0 of ``signal_model.synth_from_words`` for the seed: one
    generator serves the dataset and the baseline's calibration.
    """
    if burst_len < FRAME_LEN:
        raise ParameterError(f"burst_len must be >= {FRAME_LEN}, got {burst_len}")
    return synth_from_words(scheme, snr_db, burst_len, seeding.rng_words([seed]))[1][0]


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
    """``to_iq`` of each window: complex windows [..., FRAME_LEN] (a strided view will do)
    -> float64 frames [..., 2, FRAME_LEN]."""
    frames = np.empty((*windows.shape[:-1], 2, FRAME_LEN), dtype=np.float64)
    frames[..., 0, :] = windows.real
    frames[..., 1, :] = windows.imag
    if normalize:
        flat = frames.reshape(-1, 2 * FRAME_LEN)
        power = np.sum(flat * flat, axis=1) / FRAME_LEN
        if (power == 0.0).any():
            raise ParameterError("cannot normalize a zero-power frame")
        flat /= np.sqrt(power)[:, np.newaxis]
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
    return _iq_frames(windows, cfg.normalize).reshape(-1, 2, FRAME_LEN)


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
    rng = seeding.stream(seed, b"spli")

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
        f.write(rec)  # through the buffer protocol: no bytes copy of the records


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
        size = count * (3 + 8 * window)  # Python ints: no claim overflows, nothing is sized
        left = os.fstat(f.fileno()).st_size - _HEADER.size
        if size != left:
            raise TruncatedRecordError(
                f"{path}: expected {count} records ({size} bytes), got {left} bytes")
        try:
            dtype = _record_dtype(window)
        except ValueError:  # numpy caps a record below 2 GiB
            raise DatasetFormatError(f"{path}: window {window} is too large") from None
        rec = np.frombuffer(f.read(size), dtype=dtype)
    if rec.size and not np.isin(rec["scheme"], (0, 1)).all():
        raise DatasetFormatError(f"{path}: invalid scheme byte")
    unwritable = rec["snr"] == -_SNR_CENTI_MAX - 1  # -327.68 dB, which _snr_centi_db refuses
    if unwritable.any():
        raise DatasetFormatError(f"{path}: SNR -327.68 dB in record {np.argmax(unwritable)}")
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


# ---------------------------------------------------------------------------
# CSV: the one writer and reader of every CSV in the package


def write_csv_rows(path, header: list[str], render, values) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(render(k, v) for k, v in enumerate(values))


def read_csv_rows(path, what: str, header: list[str], parse, build, render):
    """``build`` of the ``parse(cells)`` of each non-blank row of a CSV under ``header``.
    Each row is checked as it is read: the first of another width, that ``parse`` rejects
    with a ``ValueError``, or that ``render`` writes back as other cells raises
    ``ParameterError`` that ends "at line N" (after the ``ValueError``'s message, if any)."""
    parsed = []
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            if next(reader, None) != header:
                raise ParameterError(f"{path}: not {what} CSV")
            for cells in filter(None, reader):
                try:
                    if len(cells) != len(header):
                        raise ValueError
                    parsed.append(parse(cells))
                    written = render(len(parsed) - 1, parsed[-1])
                    if cells != written:  # e.g. an SNR of "5", or epochs out of order
                        k = next(k for k, (a, b) in enumerate(zip(cells, written)) if a != b)
                        raise ValueError(f"column {header[k]!r} reads {cells[k]!r}, which is "
                                         f"written as {written[k]!r},")
                except ValueError as err:
                    raise ParameterError(
                        f"{path}: {err or 'malformed row'} at line {reader.line_num}") from None
    except (UnicodeDecodeError, csv.Error) as err:  # bytes of no text, or a 1 MB cell
        raise ParameterError(f"{path}: not {what} CSV ({err})") from None
    try:
        return build(parsed)
    except ParameterError as err:
        raise ParameterError(f"{path}: {err}") from None


def _frame_header(window: int) -> list[str]:
    return ["scheme", "snr_db", *(f"i{k}" for k in range(window)),
            *(f"q{k}" for k in range(window))]


def _frame_row(k: int, frame) -> list[str]:
    """Scheme, SNR, then the frame's I and Q values at full float32 precision."""
    scheme, snr, iq = frame
    return [str(scheme), repr(snr), *map(repr, iq.tolist())]


def _parse_frame_row(cells: list[str]) -> tuple[int, float, np.ndarray]:
    scheme, snr = int(cells[0]), float(cells[1])
    if scheme not in (0, 1):
        raise ValueError(f"scheme must be 0 or 1, got {scheme}")
    _snr_centi_db(snr)  # an SNR the binary format could store
    with np.errstate(over="ignore"):  # beyond float32's range reads as inf
        iq = np.array([float(v) for v in cells[2:]], dtype=np.float32)
    if not np.isfinite(iq).all():
        raise ValueError("non-finite IQ")
    return scheme, snr, iq


def _frame_set(rows) -> FrameSet:
    return FrameSet(
        frames=np.array([iq for _, _, iq in rows], np.float32).reshape(len(rows), 2, FRAME_LEN),
        schemes=np.array([scheme for scheme, _, _ in rows], dtype=np.uint8),
        snrs_db=np.array([snr for _, snr, _ in rows], dtype=np.float64),
    )


def export_frames_csv(frames: FrameSet, path) -> None:
    """CSV mirror of the dataset: scheme and SNR first, then i0..i127, q0..q127."""
    write_csv_rows(path, _frame_header(frames.frames.shape[2]), _frame_row, zip(
        frames.schemes.tolist(), frames.snrs_db.tolist(), frames.frames.reshape(len(frames), -1)))


def read_frames_csv(path) -> FrameSet:
    """The FRAME_LEN-sample frames of a CSV that is exactly what ``export_frames_csv``
    writes for them; anything else raises ``ParameterError`` naming the line."""
    return read_csv_rows(path, "a frames", _frame_header(FRAME_LEN), _parse_frame_row,
                         _frame_set, _frame_row)


MANIFEST_VERSION = 1


def _manifest_lines(cfg: DatasetConfig) -> list[str]:
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
        f"frames={cfg.total_frames}",
    ]


def write_manifest(cfg: DatasetConfig, path) -> None:
    """Text manifest recording everything needed to regenerate the dataset, and its size."""
    with open(path, "w") as f:
        f.write("\n".join(_manifest_lines(cfg)) + "\n")


def read_manifest(path) -> tuple[DatasetConfig, int]:
    """The config and frame count of a manifest, which must be line for line what
    ``write_manifest`` writes for the config (blank and ``#`` lines aside); anything else raises."""
    try:
        with open(path) as f:
            lines = [(n, s) for n, s in enumerate(map(str.strip, f), start=1) if s and s[0] != "#"]
    except UnicodeDecodeError as err:
        raise DatasetFormatError(f"{path}: manifest is not text ({err})") from None
    kv = dict(line.partition("=")[::2] for _, line in lines)  # a line without "=" never matches

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
    cfg = DatasetConfig(
        snr_grid=value("snr_grid", lambda v: tuple(float(s) for s in v.split(","))),
        bursts_per_cell=value("bursts_per_cell"),
        burst_len=value("burst_len"),
        shift=value("shift"),
        seed=value("seed"),
        normalize=bool(value("normalize")),
    )
    count = value("frames")
    # the file has a frames= line, the last one written, so it never runs out first
    for (n, line), written in zip_longest(lines, _manifest_lines(cfg)):
        if line != written:  # e.g. a reordered or repeated line, or int() reading "1_0" as 10
            raise DatasetFormatError(f"{path}: manifest line {n} (key {line.partition('=')[0]!r}) "
                                     f"is {line!r}; write_manifest writes {written!r}")
    return cfg, count
