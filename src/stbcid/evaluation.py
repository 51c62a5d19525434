"""Per-SNR accuracy curves, confusion matrices, loss curves; CSV and SVG export.

SVG output is hand-rolled rather than delegated to a plotting stack: the files
are self-contained, deterministic, and cheap to assert on in tests (one
``<polyline>`` element per series).

Every text reader checks its input by writing it back as it reads it. The CSVs
here go through ``dataset``'s shared CSV code, as the frames CSV does: the
accuracy and loss readers render each row they parse with the writer's row
renderer and hold no copy of the file. The dataset manifest is checked the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FrameSet, read_csv_rows, write_csv_rows
from .errors import ParameterError, ShapeError

CLASS_NAMES = ("SM", "AL")


@dataclass(frozen=True)
class AccuracyCurve:
    """(snr_db, accuracy, n_frames) triples, sorted by unique finite SNR, each of n >= 1."""

    points: tuple[tuple[float, float, int], ...]

    def __post_init__(self) -> None:
        snrs = [p[0] for p in self.points]
        if not np.isfinite(snrs).all() or sorted(set(snrs)) != snrs:
            raise ParameterError("snr points must be finite, unique and sorted")
        if any(not (0.0 <= acc <= 1.0 and n >= 1) for _, acc, n in self.points):
            raise ParameterError("accuracies must lie in [0, 1], each over n >= 1 frames")


@dataclass(frozen=True)
class LossCurve:
    """Per-epoch train/validation losses, epochs consecutive from 1, each finite and >= 0."""

    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.train_loss) != len(self.val_loss):
            raise ShapeError("train and validation loss lengths differ")
        if any(not 0.0 <= loss < np.inf for loss in (*self.train_loss, *self.val_loss)):
            raise ParameterError("losses must be finite and >= 0")

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


def accuracy_vs_snr(score_fn, frames: FrameSet, vectorized: bool = True):
    """Call each frame from its score and count the calls per exact SNR label.

    ``score_fn`` maps the whole [N, 2, window] array to N scores in one call.
    This is the one place where eval turns a method's output into a class: AL iff
    the score is > 0, so a tie at 0 goes to SM and 0/1 labels are scores too. Any
    count but N raises ``ShapeError``, a non-finite score ``ParameterError`` naming
    the first such frame by its index, its burst id (when ``frames`` carries
    them; ``cli`` attaches file-order ids) and its SNR. Returns (AccuracyCurve,
    {snr_db: confusion matrix}). ``vectorized`` selects nothing: it remains
    only because the two ``accuracy_vs_snr`` calls in ``perfbench/workloads.py``
    pass ``vectorized=True``, and ``False`` raises ``ParameterError``.
    """
    if not vectorized:
        raise ParameterError("score_fn is called once on all frames; vectorized must be True")
    if len(frames) == 0:
        raise ParameterError("cannot evaluate an empty frame set")
    scores = np.asarray(score_fn(frames.frames), dtype=np.float64)
    if scores.shape != (len(frames),):
        raise ShapeError(f"need {len(frames)} scores, one per frame, got shape {scores.shape}")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        i = bad[0]
        burst = "" if frames.burst_ids is None else f"burst {frames.burst_ids[i]}, "
        raise ParameterError(f"frame {i} of {len(frames)} ({burst}{frames.snrs_db[i]:g} dB): "
                             f"non-finite score {scores[i]}")
    preds = (scores > 0).astype(np.int64)
    confusions = {}
    labels = np.sort(frames.snrs_db) + 0.0  # a -0.0 joins 0.0 under the label 0.0
    for snr in labels[np.r_[True, labels[1:] != labels[:-1]]].tolist():
        mask = frames.snrs_db == snr
        confusions[snr] = confusion_matrix(preds[mask], frames.schemes[mask])
    points = tuple((snr, float(np.trace(cm) / cm.sum()), int(cm.sum()))
                   for snr, cm in confusions.items())
    return AccuracyCurve(points=points), confusions


# ---------------------------------------------------------------------------
# CSV


def _accuracy_row(k: int, point) -> list[str]:
    snr, acc, n = point
    return [repr(snr), repr(acc), str(n)]


def _loss_row(k: int, losses) -> list[str]:
    return [str(k + 1), *map(repr, losses)]  # the epoch, then train and validation loss


def write_accuracy_csv(curve: AccuracyCurve, path) -> None:
    write_csv_rows(path, ["snr_db", "accuracy", "n"], _accuracy_row, curve.points)


def read_accuracy_csv(path) -> AccuracyCurve:
    return read_csv_rows(path, "an accuracy", ["snr_db", "accuracy", "n"],
                         lambda r: (float(r[0]), float(r[1]), int(r[2])),
                         lambda points: AccuracyCurve(points=tuple(points)), _accuracy_row)


def write_confusion_csv(matrix: np.ndarray, path, snr_db: float) -> None:
    """Four data rows (snr_db, true, pred, count), one per cell."""
    matrix = np.asarray(matrix)
    if matrix.shape != (2, 2):
        raise ShapeError(f"confusion matrix must be 2x2, got {matrix.shape}")
    write_csv_rows(path, ["snr_db", "true", "pred", "count"],
                   lambda k, count: [repr(snr_db), CLASS_NAMES[k // 2], CLASS_NAMES[k % 2],
                                     int(count)],
                   matrix.ravel())


def write_loss_csv(curve: LossCurve, path) -> None:
    write_csv_rows(path, ["epoch", "train_loss", "val_loss"], _loss_row,
                   zip(curve.train_loss, curve.val_loss))


def read_loss_csv(path) -> LossCurve:
    return read_csv_rows(path, "a loss", ["epoch", "train_loss", "val_loss"],
                         lambda r: (float(r[1]), float(r[2])),
                         lambda rows: LossCurve(tuple(r[0] for r in rows),
                                                tuple(r[1] for r in rows)),
                         _loss_row)


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
