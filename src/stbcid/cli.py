"""Command-line entry point: generate, train, eval, classify, gradcheck.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error. All commands
are deterministic given identical flags and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys

import numpy as np

from . import baseline_corr, classifier, dataset, evaluation, tensor_nn
from .errors import ParameterError, ShapeError

CALIBRATE_SNR_DB = 10.0  # eval --baseline corr calibrates its threshold at this SNR


class UsageError(Exception):
    """Semantically invalid flags (exit code 2)."""


@contextlib.contextmanager
def _flags(**flag_of):
    """Report a library ``ParameterError`` about a flag's value as a usage error naming it.

    ``flag_of`` maps a library parameter name, the word its messages begin
    with, to the flag that sets it; any other ``ParameterError`` passes.
    """
    try:
        yield
    except ParameterError as e:
        flag = flag_of.get(str(e).split(" ", 1)[0])
        if flag is None:
            raise
        raise UsageError(f"{flag}: {e}") from None


def _finite_float(raw: str) -> float:
    """argparse type of every float flag: NaN and infinities are usage errors."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value


# Words argparse takes for a negative number, not a flag: its own pattern misses the
# exponent form and -inf/-nan, so `--snr-min -2e1` would read as a missing value and
# `--snr-min -inf` would not reach _finite_float's message.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


def _common_flags(p: argparse.ArgumentParser, seed_help: str | None = "master seed") -> None:
    if seed_help is not None:
        p.add_argument("--seed", type=int, default=7, help=f"{seed_help} (default 7)")
    p.add_argument("--threads", type=int, default=1, choices=(1,),
                   help="only 1 is accepted; set OPENBLAS_NUM_THREADS to parallelize BLAS")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of all five subcommands, built once per process: parsing only reads it.

    ``main`` looks up ``cmd_<command>`` when it runs one, so no function is bound here.
    """
    parser = argparse.ArgumentParser(
        prog="stbcid", description="SM vs Alamouti space-time code recognition toolkit"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="synthesize a labeled IQ frame dataset")
    g.add_argument("--snr-min", type=_finite_float, default=-20.0)
    g.add_argument("--snr-max", type=_finite_float, default=20.0)
    g.add_argument("--snr-step", type=_finite_float, default=2.0)
    g.add_argument("--bursts", type=int, default=10, help="bursts per (scheme, SNR) cell")
    g.add_argument("--burst-len", type=int, default=1024, help="received samples per burst")
    g.add_argument("--no-normalize", action="store_true",
                   help="keep absolute frame power instead of unit mean power")
    g.add_argument("-o", "--out", required=True, help="output dataset path")
    _common_flags(g)

    t = subs.add_parser("train", help="train the CNN on a generated dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("-o", "--out-dir", required=True)
    t.add_argument("--epochs", type=int, default=50)
    t.add_argument("--batch-size", type=int, default=128)
    t.add_argument("--lr", type=_finite_float, default=1e-3)
    t.add_argument("--dropout", type=_finite_float, default=0.5)
    t.add_argument("--patience", type=int, default=5, help="early-stop patience (0 disables)")
    _common_flags(t, "seeds weight init, shuffling and dropout, not the split")

    e = subs.add_parser("eval", help="accuracy-vs-SNR and confusion matrices")
    e.add_argument("--dataset", required=True)
    e.add_argument("--checkpoint", help="trained model (omit with --baseline corr)")
    e.add_argument("-o", "--out-dir", required=True)
    e.add_argument("--split", choices=("val", "train", "all"), default="val",
                   help="which side of the dataset's own burst split to score (default val)")
    e.add_argument("--baseline", choices=("corr",),
                   help="score the correlation baseline instead of the CNN")
    e.add_argument("--calibrate-trials", type=int,
                   help="--baseline corr only: sequences per class at 10 dB (default 2000)")
    _common_flags(e, "seeds the --baseline corr calibration")

    c = subs.add_parser("classify", help="per-frame probabilities for a dataset or CSV")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--input", required=True,
                   help="binary dataset, or a CSV exactly as export_frames_csv writes it "
                        "(IQ values at full float32 precision)")
    _common_flags(c, seed_help=None)

    about = (f"finite-difference check of backpropagation: central differences of step "
             f"{tensor_nn.GRAD_STEP:g} agree within relative error {tensor_nn.GRAD_TOLERANCE:g}")
    gc = subs.add_parser("gradcheck", help=about, description=about)
    gc.add_argument("--nets", type=int, default=20, help="number of random micro-networks")
    _common_flags(gc)

    for sub in subs.choices.values():
        sub._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _snr_grid(args) -> tuple[float, ...]:
    if args.snr_step <= 0:
        raise UsageError(f"--snr-step must be positive, got {args.snr_step}")
    if args.snr_max < args.snr_min:
        raise UsageError("--snr-max must be >= --snr-min")
    with _flags(SNR="--snr-min/--snr-max"):  # the storable range, before any grid is built
        dataset._snr_centi_db((args.snr_min, args.snr_max))
    steps = (args.snr_max - args.snr_min) / args.snr_step + 1e-9
    if not steps < 2 ** 16:  # more points than the int16 centi-dB labels
        raise UsageError(f"the SNR grid from --snr-min/--snr-max/--snr-step has over "
                         f"{2 ** 16} points, more than the format can label")
    return tuple(args.snr_min + i * args.snr_step for i in range(int(np.floor(steps)) + 1))


def cmd_generate(args) -> int:
    with _flags(snr_grid="--snr-min/--snr-max/--snr-step", bursts_per_cell="--bursts",
                burst_len="--burst-len"):
        cfg = dataset.DatasetConfig(
            snr_grid=_snr_grid(args),
            bursts_per_cell=args.bursts,
            burst_len=args.burst_len,
            seed=args.seed,
            normalize=not args.no_normalize,
        )
    frames = dataset.generate_dataset(cfg)
    dataset.serialize_frames(frames, args.out)
    dataset.write_manifest(cfg, args.out + ".manifest")
    print(f"wrote {len(frames)} frames to {args.out} "
          f"({len(cfg.snr_grid)} SNRs x 2 schemes x {cfg.bursts_per_cell} bursts "
          f"x {cfg.frames_per_burst} windows)")
    print(f"wrote manifest to {args.out}.manifest")
    return 0


def _load_dataset(path: str) -> tuple[dataset.FrameSet, dataset.DatasetConfig]:
    """Read the dataset and its manifest once: (frames with burst ids, manifest config)."""
    frames = dataset.deserialize_frames(path)
    manifest_path = path + ".manifest"
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(
            f"{manifest_path} not found; the manifest is required: it holds the "
            f"config and burst boundaries that the split and the baseline read"
        )
    cfg, count = dataset.read_manifest(manifest_path)
    if count != len(frames) or frames.frames.shape[2] != dataset.FRAME_LEN:
        raise dataset.DatasetFormatError(
            f"manifest says {count} frames of {dataset.FRAME_LEN} samples, dataset has "
            f"{len(frames)} of {frames.frames.shape[2]}"
        )
    return dataset.assign_burst_ids(frames, cfg), cfg


def cmd_train(args) -> int:
    with _flags(dropout="--dropout", epochs="--epochs", batch_size="--batch-size",
                learning_rate="--lr", patience="--patience"):
        spec = classifier.build_cnn2(args.dropout)
        cfg = classifier.TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.lr,
            seed=args.seed,
            patience=args.patience,
        )
    frames, data_cfg = _load_dataset(args.dataset)
    train_set, val_set = dataset.split_train_val(frames, seed=data_cfg.seed)
    del frames  # the sides are copies; training holds only them
    print(f"split: {np.unique(train_set.burst_ids).size} train / "
          f"{np.unique(val_set.burst_ids).size} val bursts (dataset seed {data_cfg.seed})")
    os.makedirs(args.out_dir, exist_ok=True)
    model = classifier.initialize(spec, seed=args.seed)
    model, history = classifier.train(model, train_set, val_set, cfg)
    ckpt = os.path.join(args.out_dir, "checkpoint.stbcnn")
    classifier.save_checkpoint(model, ckpt)
    curve = evaluation.LossCurve(
        train_loss=tuple(history.train_loss), val_loss=tuple(history.val_loss)
    )
    evaluation.write_loss_csv(curve, os.path.join(args.out_dir, "loss.csv"))
    evaluation.render_loss_svg(curve, os.path.join(args.out_dir, "loss.svg"))
    best = history.best_epoch
    print(f"trained {history.epochs_run} epoch(s) on {len(train_set)} frames "
          f"(validation {len(val_set)}); early stop: {history.stopped_early}")
    print(f"best epoch {best}: val_loss={history.val_loss[best - 1]:.4f} "
          f"val_accuracy={history.val_accuracy[best - 1]:.4f}")
    print(f"wrote {ckpt}, loss.csv, loss.svg")
    return 0


def _baseline_scorer(args, normalize: bool):
    """Calibrate the correlation rule and return its scorer, ``baseline_corr.frame_scores``."""
    trials = 2000 if args.calibrate_trials is None else args.calibrate_trials
    with _flags(trials="--calibrate-trials"):
        rule = baseline_corr.calibrate_threshold(
            CALIBRATE_SNR_DB, dataset.FRAME_LEN, trials, seed=args.seed, normalize=normalize,
        )
    print(f"calibrated threshold {rule.threshold:.5f} at {rule.snr_db:g} dB "
          f"(training error {rule.achieved_error:.3f}"
          + (", degenerate)" if rule.degenerate else ")"))
    return lambda arr: baseline_corr.frame_scores(arr, rule)


def _cnn_scorer(args):
    """Score P_AL - P_SM of each frame: > 0 exactly where ``classifier.decide`` says AL.

    numpy's overflow warnings are silenced: ``accuracy_vs_snr`` names a non-finite score.
    """
    model = classifier.load_checkpoint(args.checkpoint)

    def score(arr):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.diff(classifier.predict_batch(model, arr))[:, 0]
    return score


def cmd_eval(args) -> int:
    if args.baseline is None and not args.checkpoint:
        raise UsageError("--checkpoint is required unless --baseline corr is given")
    # a flag that the chosen path does not read is a usage error naming it
    flag, value = (("--checkpoint", args.checkpoint) if args.baseline
                   else ("--calibrate-trials", args.calibrate_trials))
    if value is not None:
        path = "with --baseline corr" if args.baseline else "without --baseline"
        raise UsageError(f"{flag}: not read by eval {path}")
    frames, data_cfg = _load_dataset(args.dataset)
    if args.split != "all":
        train_side, val_side = dataset.split_train_val(frames, seed=data_cfg.seed)
        frames = val_side if args.split == "val" else train_side
    score_fn = _baseline_scorer(args, data_cfg.normalize) if args.baseline else _cnn_scorer(args)
    curve, counts = evaluation.accuracy_vs_snr(score_fn, frames)
    os.makedirs(args.out_dir, exist_ok=True)
    evaluation.write_accuracy_csv(curve, os.path.join(args.out_dir, "accuracy.csv"))
    evaluation.render_accuracy_svg(curve, os.path.join(args.out_dir, "accuracy.svg"))
    print(f"{'snr_db':>8}  {'accuracy':>8}  {'n':>6}")
    for (snr, acc, n), cm in zip(curve.points, counts):
        stem = os.path.join(args.out_dir, f"confusion_{snr:g}dB")
        evaluation.write_confusion_csv(cm, stem + ".csv", snr_db=snr)
        evaluation.render_confusion_svg(cm, stem + ".svg", snr_db=snr)
        print(f"{snr:>8g}  {acc:>8.4f}  {n:>6d}")
    correct, total = int(np.trace(counts, axis1=1, axis2=2).sum()), int(counts.sum())
    print(f"{'overall':>8}  {correct / total:>8.4f}  {total:>6d}")
    print(f"wrote accuracy.csv/.svg and {len(counts)} confusion CSV/SVG pairs "
          f"to {args.out_dir}")
    return 0


def cmd_classify(args) -> int:
    model = classifier.load_checkpoint(args.checkpoint)
    with open(args.input, "rb") as f:
        magic = f.read(len(dataset.DATASET_MAGIC))
    if magic == dataset.DATASET_MAGIC:
        frames = dataset.deserialize_frames(args.input)
    else:
        frames = dataset.read_frames_csv(args.input)
    if len(frames) == 0:
        return 0
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports the failure
        probs = classifier.predict_batch(model, frames.frames)
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise ParameterError(f"frame {bad[0]} of {len(frames)} has non-finite probabilities "
                             f"P_SM={probs[bad[0], 0]}, P_AL={probs[bad[0], 1]}")
    for i, ((p_sm, p_al), label) in enumerate(zip(probs, classifier.decide(probs))):
        print(f"{i},{p_sm:.6f},{p_al:.6f},{evaluation.CLASS_NAMES[label]}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.nets < 1:
        raise UsageError(f"--nets must be >= 1, got {args.nets}")
    worst_by_kind: dict[str, float] = {}
    failures = []
    total_kinks = 0
    for i in range(args.nets):
        net, x, onehot = tensor_nn.random_micro_network(seed=args.seed + i)
        report = tensor_nn.grad_check(net, x, onehot)
        total_kinks += report.n_kink_skipped
        owners = [layer.spec.kind for layer in net.layers for _ in layer.params()]
        for kind, err in zip(owners, report.per_param_max):
            worst_by_kind[kind] = max(worst_by_kind.get(kind, 0.0), err)
        if not report.passed:
            pi, k = report.worst_param
            failures.append(f"FAIL net {i}: max relative error {report.max_rel_error:.3e} "
                            f"(tolerance {tensor_nn.GRAD_TOLERANCE:g}) at parameter tensor {pi}, "
                            f"element {k}")
    for kind in sorted(worst_by_kind):
        print(f"{kind:>8}: max relative error {worst_by_kind[kind]:.3e}")
    print(f"checked {args.nets} micro-network(s), "
          f"{total_kinks} coordinate(s) skipped at ReLU kinks")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(f"all gradients within tolerance {tensor_nn.GRAD_TOLERANCE:g}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as e:  # argparse: 2 on a usage error, 0 after --help
        return int(e.code or 0)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (
        OSError,
        MemoryError,  # a size flag that asks for more memory than there is
        ParameterError,
        ShapeError,
        dataset.DatasetFormatError,
        classifier.CheckpointError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
