"""Per-SNR accuracy curves, confusion matrices, loss curves; CSV and SVG export.

SVG output is hand-rolled rather than delegated to a plotting stack: the files
are self-contained, deterministic, and cheap to assert on in tests (one
``<polyline>`` element per series).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import FrameSet
from .errors import ParameterError, ShapeError

CLASS_NAMES = ("SM", "AL")


@dataclass(frozen=True)
class AccuracyCurve:
    """(snr_db, accuracy, n_frames) triples, sorted by unique SNR."""

    points: tuple[tuple[float, float, int], ...]

    def __post_init__(self) -> None:
        snrs = [p[0] for p in self.points]
        if sorted(set(snrs)) != snrs:
            raise ParameterError("snr points must be unique and sorted")
        if any(not 0.0 <= p[1] <= 1.0 for p in self.points):
            raise ParameterError("accuracies must lie in [0, 1]")


@dataclass(frozen=True)
class LossCurve:
    """Per-epoch train/validation losses, epochs consecutive from 1."""

    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.train_loss) != len(self.val_loss):
            raise ShapeError("train and validation loss lengths differ")

    @property
    def epochs(self) -> range:
        return range(1, len(self.train_loss) + 1)


def confusion_matrix(preds, truths) -> np.ndarray:
    """2x2 counts, rows = true class (SM, AL), columns = predicted; any class but 0 or 1 raises."""
    preds, truths = np.asarray(preds), np.asarray(truths)
    if preds.ndim != 1 or preds.size == 0 or preds.shape != truths.shape:
        raise ShapeError(
            f"need equal-length non-empty prediction/truth lists, "
            f"got {preds.shape} and {truths.shape}"
        )
    if not (np.isin(preds, (0, 1)).all() and np.isin(truths, (0, 1)).all()):
        raise ParameterError("classes must be 0 (SM) or 1 (AL)")
    cm = np.zeros((2, 2), dtype=np.int64)
    np.add.at(cm, (truths.astype(np.int64), preds.astype(np.int64)), 1)
    return cm


def accuracy_vs_snr(classify_fn, frames: FrameSet, vectorized: bool = False):
    """Bucket frames by their exact SNR label and score the classifier per bucket.

    Returns (AccuracyCurve, {snr_db: confusion matrix}). ``vectorized`` means
    classify_fn maps an [N, 2, window] array to N predictions in one call.
    """
    if len(frames) == 0:
        raise ParameterError("cannot evaluate an empty frame set")
    if vectorized:
        preds = np.asarray(classify_fn(frames.frames), dtype=np.int64)
    else:
        preds = np.asarray([int(classify_fn(f)) for f in frames.frames], dtype=np.int64)
    truths = frames.schemes.astype(np.int64)
    points = []
    confusions = {}
    for snr in sorted(set(float(s) for s in frames.snrs_db)):
        mask = frames.snrs_db == snr
        cm = confusion_matrix(preds[mask], truths[mask])
        n = int(cm.sum())
        points.append((snr, float(np.trace(cm)) / n, n))
        confusions[snr] = cm
    return AccuracyCurve(points=tuple(points)), confusions


# ---------------------------------------------------------------------------
# CSV


def _read_rows(path, what: str, parse, header: list[str]) -> list:
    """``parse(cells)`` of each non-blank row of a CSV whose first row is ``header``;
    a row of another width, or one whose cells ``parse`` rejects with a ``ValueError``,
    raises ``ParameterError`` naming its line."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        raise ParameterError(f"{path}: not {what} CSV")
    parsed = []
    for lineno, cells in enumerate(rows[1:], start=2):
        if not cells:
            continue
        try:
            if len(cells) != len(rows[0]):
                raise ValueError
            parsed.append(parse(cells))
        except ValueError:
            raise ParameterError(f"{path}: malformed row at line {lineno}") from None
    return parsed


def write_accuracy_csv(curve: AccuracyCurve, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["snr_db", "accuracy", "n"])
        for snr, acc, n in curve.points:
            w.writerow([repr(snr), repr(acc), n])


def read_accuracy_csv(path) -> AccuracyCurve:
    points = _read_rows(path, "an accuracy", lambda r: (float(r[0]), float(r[1]), int(r[2])),
                        ["snr_db", "accuracy", "n"])
    try:
        return AccuracyCurve(points=tuple(points))
    except ParameterError as err:
        raise ParameterError(f"{path}: {err}") from None


def write_confusion_csv(matrix: np.ndarray, path, snr_db: float) -> None:
    """Four data rows (snr_db, true, pred, count), one per cell."""
    matrix = np.asarray(matrix)
    if matrix.shape != (2, 2):
        raise ShapeError(f"confusion matrix must be 2x2, got {matrix.shape}")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["snr_db", "true", "pred", "count"])
        for i in range(2):
            for j in range(2):
                w.writerow([repr(snr_db), CLASS_NAMES[i], CLASS_NAMES[j], int(matrix[i, j])])


def read_confusion_csv(path) -> tuple[np.ndarray, float]:
    """The matrix and SNR of a confusion CSV, which must give each of the four cells once
    and one SNR on every row."""
    def parse(r):
        snr, true, pred, count = r
        return float(snr), (CLASS_NAMES.index(true), CLASS_NAMES.index(pred)), int(count)

    rows = _read_rows(path, "a confusion", parse, ["snr_db", "true", "pred", "count"])
    counts = {cell: count for _, cell, count in rows}
    if len(rows) != 4 or len(counts) != 4:
        raise ParameterError(f"{path}: need each of the 4 confusion cells once, "
                             f"got {len(rows)} rows for {len(counts)} cells")
    if len({snr for snr, _, _ in rows}) != 1:
        raise ParameterError(f"{path}: rows give different snr_db values")
    cm = np.zeros((2, 2), dtype=np.int64)
    for cell, count in counts.items():
        cm[cell] = count
    return cm, rows[-1][0]


def write_loss_csv(curve: LossCurve, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "val_loss"])
        for e, (tl, vl) in zip(curve.epochs, zip(curve.train_loss, curve.val_loss)):
            w.writerow([e, repr(tl), repr(vl)])


def read_loss_csv(path) -> LossCurve:
    rows = _read_rows(path, "a loss", lambda r: (int(r[0]), float(r[1]), float(r[2])),
                      ["epoch", "train_loss", "val_loss"])
    return LossCurve(train_loss=tuple(r[1] for r in rows), val_loss=tuple(r[2] for r in rows))


# ---------------------------------------------------------------------------
# SVG

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 24, 36, 52


def _scale(lo: float, hi: float, pixel_lo: float, pixel_hi: float):
    span = hi - lo
    if span == 0:
        span = 1.0
    return lambda v: pixel_lo + (v - lo) / span * (pixel_hi - pixel_lo)

def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if lo == hi:
        return [lo]
    raw = np.linspace(lo, hi, n)
    step = (hi - lo) / (n - 1)
    digits = max(0, -int(np.floor(np.log10(step))) + 1)
    return sorted(set(round(float(v), digits) for v in raw))


def _epoch_ticks(n_epochs: int) -> list[int]:
    step = max(1, int(np.ceil(n_epochs / 10)))
    ticks = list(range(1, n_epochs + 1, step))
    if ticks[-1] != n_epochs:
        ticks.append(n_epochs)
    return ticks


def _line_plot_svg(series, x_ticks, y_ticks, x_label, y_label, title) -> str:
    """series: list of (name, color, [(x, y), ...])."""
    xs = [x for _, _, pts in series for x, _ in pts]
    ys = [y for _, _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs + list(x_ticks)), max(xs + list(x_ticks))
    y_lo, y_hi = min(ys + list(y_ticks)), max(ys + list(y_ticks))
    sx = _scale(x_lo, x_hi, _ML, _W - _MR)
    sy = _scale(y_lo, y_hi, _H - _MB, _MT)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]
    axis = f'stroke="black" stroke-width="1"'
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')
    for t in x_ticks:
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 5}" {axis}/>')
        out.append(
            f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle" font-size="11">{t:g}</text>'
        )
    for t in y_ticks:
        py = sy(t)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" {axis}/>')
        out.append(
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end" font-size="11">{t:g}</text>'
        )
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{y_label}</text>'
    )
    for k, (name, color, pts) in enumerate(series):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        lx, ly = _W - _MR - 150, _MT + 16 + 18 * k
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 30}" y="{ly}" font-size="12">{name}</text>')
    out.append("</svg>")
    return "\n".join(out)


def render_accuracy_svg(curve: AccuracyCurve, path) -> None:
    if not curve.points:
        raise ParameterError("cannot plot an empty accuracy curve")
    pts = [(snr, acc) for snr, acc, _ in curve.points]
    x_ticks = _ticks(min(p[0] for p in pts), max(p[0] for p in pts))
    svg = _line_plot_svg(
        [("accuracy", "#1f77b4", pts)],
        x_ticks,
        [0.0, 0.25, 0.5, 0.75, 1.0],
        "SNR (dB)",
        "accuracy",
        "Classification accuracy vs SNR",
    )
    with open(path, "w") as f:
        f.write(svg)


def render_loss_svg(curve: LossCurve, path) -> None:
    if not curve.train_loss:
        raise ParameterError("cannot plot an empty loss curve")
    epochs = list(curve.epochs)
    train = list(zip(epochs, curve.train_loss))
    val = list(zip(epochs, curve.val_loss))
    y_hi = max(max(curve.train_loss), max(curve.val_loss))
    svg = _line_plot_svg(
        [("train loss", "#1f77b4", train), ("validation loss", "#d62728", val)],
        _epoch_ticks(len(epochs)),
        _ticks(0.0, y_hi, 6),
        "epoch",
        "loss",
        "Training and validation loss",
    )
    with open(path, "w") as f:
        f.write(svg)


def render_confusion_svg(matrix: np.ndarray, path, snr_db: float) -> None:
    matrix = np.asarray(matrix)
    if matrix.shape != (2, 2):
        raise ShapeError(f"confusion matrix must be 2x2, got {matrix.shape}")
    total = max(int(matrix.sum()), 1)
    cell = 130
    x0, y0 = 150, 70
    title = f"Confusion matrix at {snr_db:g} dB"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="480" height="420" viewBox="0 0 480 420">',
        '<rect width="480" height="420" fill="white"/>',
        f'<text x="240" y="32" text-anchor="middle" font-size="15">{title}</text>',
        '<text x="240" y="52" text-anchor="middle" font-size="12">rows: true, columns: predicted</text>',
    ]
    for j, name in enumerate(CLASS_NAMES):
        out.append(
            f'<text x="{x0 + cell * j + cell / 2:.0f}" y="{y0 - 10}" text-anchor="middle" '
            f'font-size="13">{name}</text>'
        )
    for i, name in enumerate(CLASS_NAMES):
        out.append(
            f'<text x="{x0 - 12}" y="{y0 + cell * i + cell / 2 + 4:.0f}" text-anchor="end" '
            f'font-size="13">{name}</text>'
        )
    for i in range(2):
        for j in range(2):
            count = int(matrix[i, j])
            shade = 255 - int(195 * count / total)
            out.append(
                f'<rect x="{x0 + cell * j}" y="{y0 + cell * i}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)" stroke="black"/>'
            )
            out.append(
                f'<text x="{x0 + cell * j + cell / 2:.0f}" y="{y0 + cell * i + cell / 2 + 5:.0f}" '
                f'text-anchor="middle" font-size="16">{count}</text>'
            )
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out))
