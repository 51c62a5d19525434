"""Command-line entry point: generate, train, eval, classify, gradcheck.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error. All commands
are deterministic given identical flags and seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import baseline_corr, classifier, dataset, evaluation, tensor_nn
from .errors import ParameterError, ShapeError


# Frames scored per correlation_features call: bounds its complex temporaries
# (scoring all 6300 frames of the default grid at once took peak RSS from 67
# to 78 MB in `perfbench/run.py --workload baseline`).
CORR_BLOCK = 256


class UsageError(Exception):
    """Semantically invalid flags (exit code 2)."""


def _finite_float(raw: str) -> float:
    """argparse type of every float flag: NaN and infinities are usage errors."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=7, help="master seed (default 7)")
    p.add_argument("--threads", type=int, default=1, choices=(1,),
                   help="only 1 is accepted; set OPENBLAS_NUM_THREADS to parallelize BLAS")
    p.add_argument("--config", metavar="FILE",
                   help="key=value defaults; explicit flags win")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="stbcid", description="SM vs Alamouti space-time code recognition toolkit"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    by_name = {}

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
    g.set_defaults(func=cmd_generate)
    by_name["generate"] = g

    t = subs.add_parser("train", help="train the CNN on a generated dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("-o", "--out-dir", required=True)
    t.add_argument("--epochs", type=int, default=50)
    t.add_argument("--batch-size", type=int, default=128)
    t.add_argument("--lr", type=_finite_float, default=1e-3)
    t.add_argument("--dropout", type=_finite_float, default=0.5)
    t.add_argument("--patience", type=int, default=5, help="early-stop patience (0 disables)")
    t.add_argument("--val-fraction", type=_finite_float, default=0.5)
    _common_flags(t)
    t.set_defaults(func=cmd_train)
    by_name["train"] = t

    e = subs.add_parser("eval", help="accuracy-vs-SNR and confusion matrices")
    e.add_argument("--dataset", required=True)
    e.add_argument("--checkpoint", help="trained model (omit with --baseline corr)")
    e.add_argument("-o", "--out-dir", required=True)
    e.add_argument("--split", choices=("val", "train", "all"), default="val",
                   help="which side of the burst-level split to score (default val)")
    e.add_argument("--val-fraction", type=_finite_float, default=0.5)
    e.add_argument("--baseline", choices=("corr",),
                   help="score the correlation baseline instead of the CNN")
    e.add_argument("--calibrate-snr", type=_finite_float, default=10.0)
    e.add_argument("--calibrate-trials", type=int, default=2000)
    _common_flags(e)
    e.set_defaults(func=cmd_eval)
    by_name["eval"] = e

    c = subs.add_parser("classify", help="per-frame probabilities for a dataset or CSV")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--input", required=True, help="binary dataset or CSV frame rows")
    _common_flags(c)
    c.set_defaults(func=cmd_classify)
    by_name["classify"] = c

    gc = subs.add_parser("gradcheck", help="finite-difference check of backpropagation")
    gc.add_argument("--tolerance", type=_finite_float, default=1e-4)
    gc.add_argument("--linear-only", action="store_true",
                    help="check ReLU-free stacks (finite differences are near-exact)")
    gc.add_argument("--nets", type=int, default=20, help="number of random micro-networks")
    gc.add_argument("--step", type=_finite_float, default=None,
                    help="finite-difference step (default 1e-5, or 1e-4 with --linear-only "
                         "where roundoff dominates truncation)")
    _common_flags(gc)
    gc.set_defaults(func=cmd_gradcheck)
    by_name["gradcheck"] = gc

    return parser, by_name


def _parse_config_file(path: str) -> dict[str, str]:
    pairs = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            k, v = line.split("=", 1)
            pairs[k.strip()] = v.strip()
    return pairs


def _apply_config(sub: argparse.ArgumentParser, path: str) -> None:
    actions = {}
    for action in sub._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                actions[opt[2:]] = action
    for key, raw in _parse_config_file(path).items():
        if key == "config" or key not in actions:
            raise UsageError(f"unknown config key {key!r}")
        action = actions[key]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            if raw not in ("0", "1", "true", "false"):
                raise UsageError(f"config key {key!r} wants a boolean, got {raw!r}")
            value = raw in ("1", "true")
        elif action.type is not None:
            try:
                value = action.type(raw)
            except (ValueError, argparse.ArgumentTypeError):
                raise UsageError(f"config key {key!r}: cannot parse {raw!r}") from None
        else:
            value = raw
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config key {key!r}: {raw!r} is not one of "
                             f"{', '.join(map(str, action.choices))}")
        sub.set_defaults(**{action.dest: value})


def _snr_grid(args) -> tuple[float, ...]:
    if args.snr_step <= 0:
        raise UsageError(f"--snr-step must be positive, got {args.snr_step}")
    if args.snr_max < args.snr_min:
        raise UsageError("--snr-max must be >= --snr-min")
    n = int(np.floor((args.snr_max - args.snr_min) / args.snr_step + 1e-9)) + 1
    return tuple(args.snr_min + i * args.snr_step for i in range(n))


def cmd_generate(args) -> int:
    if args.bursts < 1:
        raise UsageError(f"--bursts must be >= 1, got {args.bursts}")
    if args.burst_len < dataset.FRAME_LEN:
        raise UsageError(f"--burst-len must be >= {dataset.FRAME_LEN}, got {args.burst_len}")
    cfg = dataset.DatasetConfig(
        snr_grid=_snr_grid(args),
        bursts_per_cell=args.bursts,
        burst_len=args.burst_len,
        seed=args.seed,
        normalize=not args.no_normalize,
    )
    frames = dataset.generate_dataset(cfg)
    dataset.serialize_frames(frames, args.out)
    dataset.write_manifest(cfg, len(frames), args.out + ".manifest")
    print(f"wrote {len(frames)} frames to {args.out} "
          f"({len(cfg.snr_grid)} SNRs x 2 schemes x {cfg.bursts_per_cell} bursts "
          f"x {cfg.frames_per_burst} windows)")
    print(f"wrote manifest to {args.out}.manifest")
    return 0


def _load_split(args) -> tuple[dataset.FrameSet, dataset.FrameSet]:
    """Load the dataset once and split it at burst granularity: (train, val)."""
    frames = dataset.deserialize_frames(args.dataset)
    manifest_path = args.dataset + ".manifest"
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(
            f"{manifest_path} not found; the manifest is required to reconstruct "
            f"burst boundaries for a leakage-free split"
        )
    cfg, count = dataset.read_manifest(manifest_path)
    if count != len(frames):
        raise dataset.DatasetFormatError(
            f"manifest says {count} frames, dataset has {len(frames)}"
        )
    frames = dataset.assign_burst_ids(frames, cfg)
    return dataset.split_train_val(frames, args.val_fraction, args.seed)


def cmd_train(args) -> int:
    if args.epochs < 1:
        raise UsageError(f"--epochs must be >= 1, got {args.epochs}")
    if args.batch_size < 1:
        raise UsageError(f"--batch-size must be >= 1, got {args.batch_size}")
    if not 0.0 < args.val_fraction < 1.0:
        raise UsageError(f"--val-fraction must lie in (0, 1), got {args.val_fraction}")
    train_set, val_set = _load_split(args)
    os.makedirs(args.out_dir, exist_ok=True)
    model = classifier.initialize(classifier.build_cnn2(args.dropout), seed=args.seed)
    cfg = classifier.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=args.seed,
        patience=args.patience,
    )
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


def _baseline_classifier(args, frames: dataset.FrameSet):
    window = frames.frames.shape[2]
    manifest_path = args.dataset + ".manifest"
    normalize = True
    if os.path.exists(manifest_path):
        cfg, _ = dataset.read_manifest(manifest_path)
        normalize = cfg.normalize
    rule = baseline_corr.calibrate_threshold(
        args.calibrate_snr, window, args.calibrate_trials,
        seed=args.seed, normalize=normalize,
    )
    print(f"calibrated threshold {rule.threshold:.5f} at {rule.snr_db:g} dB "
          f"(training error {rule.achieved_error:.3f}"
          + (", degenerate)" if rule.degenerate else ")"))

    def classify_frames(arr: np.ndarray) -> np.ndarray:
        out = np.empty(arr.shape[0], dtype=np.int64)
        for start in range(0, arr.shape[0], CORR_BLOCK):
            block = arr[start : start + CORR_BLOCK]
            feats = baseline_corr.correlation_features(block[:, 0] + 1j * block[:, 1])
            out[start : start + CORR_BLOCK] = feats > rule.threshold  # classify_corr: ties -> SM
        return out

    return classify_frames


def _cnn_classifier(args, frames: dataset.FrameSet):
    model = classifier.load_checkpoint(args.checkpoint)
    window = frames.frames.shape[2]
    if model.spec.input_shape != (1, 2, window):
        raise ShapeError(
            f"checkpoint expects input {model.spec.input_shape}, dataset frames are "
            f"(2, {window})"
        )

    def classify_frames(arr: np.ndarray) -> np.ndarray:
        probs = classifier.predict_batch(model, arr)
        return (probs[:, 1] > probs[:, 0]).astype(np.int64)

    return classify_frames


def cmd_eval(args) -> int:
    if args.baseline is None and not args.checkpoint:
        raise UsageError("--checkpoint is required unless --baseline corr is given")
    if args.split == "all":
        frames = dataset.deserialize_frames(args.dataset)
    else:
        train_side, val_side = _load_split(args)
        frames = val_side if args.split == "val" else train_side
    os.makedirs(args.out_dir, exist_ok=True)
    classify_frames = (
        _baseline_classifier(args, frames) if args.baseline else _cnn_classifier(args, frames)
    )
    curve, confusions = evaluation.accuracy_vs_snr(classify_frames, frames, vectorized=True)
    evaluation.write_accuracy_csv(curve, os.path.join(args.out_dir, "accuracy.csv"))
    evaluation.render_accuracy_svg(curve, os.path.join(args.out_dir, "accuracy.svg"))
    for snr, cm in confusions.items():
        stem = os.path.join(args.out_dir, f"confusion_{snr:g}dB")
        evaluation.write_confusion_csv(cm, stem + ".csv", snr_db=snr)
        evaluation.render_confusion_svg(cm, stem + ".svg", snr_db=snr)
    print(f"{'snr_db':>8}  {'accuracy':>8}  {'n':>6}")
    for snr, acc, n in curve.points:
        print(f"{snr:>8g}  {acc:>8.4f}  {n:>6d}")
    total = sum(n for _, _, n in curve.points)
    overall = sum(acc * n for _, acc, n in curve.points) / total
    print(f"{'overall':>8}  {overall:>8.4f}  {total:>6d}")
    print(f"wrote accuracy.csv/.svg and {len(confusions)} confusion CSV/SVG pairs "
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
    window = frames.frames.shape[2]
    if model.spec.input_shape != (1, 2, window):
        raise ShapeError(
            f"checkpoint expects input {model.spec.input_shape}, frames are (2, {window})"
        )
    probs = classifier.predict_batch(model, frames.frames)
    for i, (p_sm, p_al) in enumerate(probs):
        label = evaluation.CLASS_NAMES[1 if p_al > p_sm else 0]
        print(f"{i},{p_sm:.6f},{p_al:.6f},{label}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.nets < 1:
        raise UsageError(f"--nets must be >= 1, got {args.nets}")
    step = args.step if args.step is not None else (1e-4 if args.linear_only else 1e-5)
    worst_by_kind: dict[str, float] = {}
    failures = []
    total_kinks = 0
    for i in range(args.nets):
        net, x, onehot = tensor_nn.random_micro_network(
            seed=args.seed + i, linear_only=args.linear_only
        )
        report = tensor_nn.grad_check(net, x, onehot, step=step, tolerance=args.tolerance)
        total_kinks += report.n_kink_skipped
        owners = [
            layer.spec.kind for layer in net.layers for _ in layer.params()
        ]
        for kind, err in zip(owners, report.per_param_max):
            worst_by_kind[kind] = max(worst_by_kind.get(kind, 0.0), err)
        if not report.passed:
            failures.append((i, report))
    for kind in sorted(worst_by_kind):
        print(f"{kind:>8}: max relative error {worst_by_kind[kind]:.3e}")
    print(f"checked {args.nets} micro-network(s), "
          f"{total_kinks} coordinate(s) skipped at ReLU kinks")
    if failures:
        for i, report in failures:
            pi, k = report.worst_param
            print(
                f"FAIL net {i}: max relative error {report.max_rel_error:.3e} "
                f"(tolerance {report.tolerance:g}) at parameter tensor {pi}, element {k}",
                file=sys.stderr,
            )
        return 1
    print(f"all gradients within tolerance {args.tolerance:g}")
    return 0


def main(argv=None) -> int:
    parser, by_name = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(by_name[args.command], args.config)
            args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (
        OSError,
        ParameterError,
        ShapeError,
        dataset.DatasetFormatError,
        classifier.CheckpointError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
