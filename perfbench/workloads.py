"""The benchmark's workloads: set-up, the timed CLI commands, and output checks.

What a workload times runs through ``stbcid.cli.main([...])`` in-process,
which is the path a user takes. Set-up and the checks use the public API.
Every seed-dependent input derives from the one ``--seed``: it is the
``--seed`` of each command and the seed of the untrained checkpoint.

- ``train``: ``train`` on the paper grid (-20..20 dB step 2, SM and AL),
  batch 128, one epoch, early stopping off. CNN2 forward, backward, dropout
  and Adam do nearly all the work.
- ``infer``: ``eval --split val`` of a seeded, untrained CNN2 checkpoint:
  checkpoint load, dataset load and split, ``predict_batch`` in eval mode,
  per-SNR scoring and the CSV/SVG writes. No backward, dropout or Adam.
- ``baseline``: ``generate`` on the default 10-burst grid, then
  ``eval --baseline corr --split all`` (2000-trial calibration and per-frame
  correlation). Synthesis, serialization and the correlation baseline; no CNN.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from stbcid import baseline_corr, classifier, cli, dataset, evaluation

PINNED_COUNTS = [1280, 122960, 2683136, 514]
VAL_FRACTION = 0.5  # the CLI default; train and eval both split with it
# Largest |P32 - P64| allowed between the float32 network and a float64 copy
# of its weights. Untrained CNN2 shows gaps near 3e-7; the margin leaves room
# for the larger logits of a trained network, while a wrong layer moves
# probabilities by far more.
PROB_TOL = 1e-4
SAMPLE_FRAMES = 64  # frames of the float64 comparison
TRAIN_EPOCHS = 1
BATCH = 128


@dataclass(frozen=True)
class Command:
    name: str  # names the command's span: cli.<name>
    argv: tuple[str, ...]
    frames: int  # frames it processes, the numerator of frames/s
    ops: int  # operations attempted: training steps or scored frames
    outputs: tuple[str, ...]  # files whose bytes must repeat exactly on every pass
    rate_name: str  # name under which its own frames/s is printed


@dataclass(frozen=True)
class Result:
    seconds: float
    rc: int
    stdout: str
    stderr: str


class SetupError(RuntimeError):
    pass


def run_cli(argv) -> Result:
    """One in-process ``stbcid`` command, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(list(argv))
        seconds = time.perf_counter() - start
    return Result(seconds, rc, out.getvalue(), err.getvalue())


def digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _grid_flags(tiny: bool) -> list[str]:
    return ["--snr-min", "-20", "--snr-max", "20", "--snr-step", "10" if tiny else "2"]


class Workload:
    """Base: subclasses fill in set-up, commands, checks and their results."""

    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.dir = ""
        # Filled in by check():
        self.nonfinite_ops = 0  # ops per pass whose loss or probability was not finite
        self.accuracy = 0.0  # the accuracy the workload's output reports
        self.accuracy_curves = {}  # {"val_acc" | "corr_acc": {snr_db: accuracy}}
        self.info = {}  # extra result values to print: {name: (value, unit)}

    def path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def setup(self, directory: str) -> None:
        """Build the inputs in ``directory``; the last set-up's inputs are used."""
        os.makedirs(directory)
        self.dir = directory
        self._setup()

    def _setup(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def check(self, last: list[Result]) -> list[str]:
        """Check the outputs of the last pass; return a description of each failure."""
        raise NotImplementedError

    def seeds(self) -> dict:
        return {"cli": self.seed}

    # -- helpers shared by the workloads --

    def _generate(self, out: str, bursts: int) -> None:
        r = run_cli(["generate", *_grid_flags(self.tiny), "--bursts", str(bursts),
                     "--seed", str(self.seed), "--threads", "1", "-o", out])
        if r.rc != 0:
            raise SetupError(f"generate exited {r.rc}: {r.stderr.strip()}")

    def _split(self, data: str):
        frames = dataset.deserialize_frames(data)
        cfg, _ = dataset.read_manifest(data + ".manifest")
        return dataset.split_train_val(dataset.assign_burst_ids(frames, cfg),
                                       VAL_FRACTION, self.seed)


def _roundtrip_failures(data: str, checkpoint: str | None, work_dir: str) -> list[str]:
    failures = []
    copy = os.path.join(work_dir, "roundtrip.bin")
    dataset.serialize_frames(dataset.deserialize_frames(data), copy)
    if digest(copy) != digest(data):
        failures.append(f"{data}: dataset bytes change on deserialize + serialize")
    if checkpoint:
        copy = os.path.join(work_dir, "roundtrip.stbcnn")
        classifier.save_checkpoint(classifier.load_checkpoint(checkpoint), copy)
        if digest(copy) != digest(checkpoint):
            failures.append(f"{checkpoint}: checkpoint bytes change on load + save")
    return failures


def _count_failures(model) -> list[str]:
    failures = []
    for what, counts in (("build_cnn2", classifier.parameter_counts(classifier.build_cnn2())),
                         ("checkpoint", classifier.parameter_counts(model))):
        if counts != PINNED_COUNTS:
            failures.append(f"{what} parameter counts {counts} != {PINNED_COUNTS}")
    return failures


def _curve(path) -> dict:
    return {snr: acc for snr, acc, _ in evaluation.read_accuracy_csv(path).points}


def _overall(path) -> tuple[float, int]:
    points = evaluation.read_accuracy_csv(path).points
    total = sum(n for _, _, n in points)
    return sum(acc * n for _, acc, n in points) / total, total


def _predict(model, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    probs = classifier.predict_batch(model, frames)
    return (probs[:, 1] > probs[:, 0]).astype(np.int64), probs


class Train(Workload):
    name = "train"
    why = ("train on the paper grid at batch 128: CNN2 conv fwd/bwd, ReLU/dropout and "
           "Adam do nearly all the work")

    def _setup(self):
        self.data = self.path("paper.bin")
        self._generate(self.data, bursts=2)
        train_side, val_side = self._split(self.data)
        self.n_train = len(train_side)
        self.val = val_side

    def commands(self):
        steps = math.ceil(self.n_train / BATCH) * TRAIN_EPOCHS
        out = self.path("train")
        argv = ("train", "--dataset", self.data, "-o", out, "--epochs", str(TRAIN_EPOCHS),
                "--batch-size", str(BATCH), "--patience", "0", "--seed", str(self.seed),
                "--threads", "1")
        return [Command("train", argv, self.n_train * TRAIN_EPOCHS, steps,
                        (os.path.join(out, "checkpoint.stbcnn"), os.path.join(out, "loss.csv")),
                        "train_frames_per_s")]

    def check(self, last):
        (cmd,) = self.commands()
        ckpt, loss_csv = cmd.outputs
        model = classifier.load_checkpoint(ckpt)
        failures = _count_failures(model)
        failures += _roundtrip_failures(self.data, ckpt, self.dir)
        curve = evaluation.read_loss_csv(loss_csv)
        bad_epochs = sum(1 for t, v in zip(curve.train_loss, curve.val_loss)
                         if not (math.isfinite(t) and math.isfinite(v)))
        if bad_epochs:
            failures.append(f"{bad_epochs} epoch(s) with a non-finite loss")
        self.nonfinite_ops = bad_epochs * cmd.ops // TRAIN_EPOCHS
        match = re.search(r"val_accuracy=([0-9.]+)", last[0].stdout)
        if not match:
            failures.append("train printed no val_accuracy")
            return failures
        self.accuracy = float(match.group(1))
        preds, _ = _predict(model, self.val.frames)
        recomputed = float(np.mean(preds == self.val.schemes))
        if abs(recomputed - self.accuracy) > 1.0 / len(self.val) + 5e-5:
            failures.append(f"printed val_accuracy {self.accuracy} but the checkpoint "
                            f"scores {recomputed:.4f} on the validation side")
        self.info = {
            "val_accuracy": (self.accuracy, "ratio"),
            "train_loss_last": (curve.train_loss[-1], "nat"),
        }
        return failures


class Infer(Workload):
    name = "infer"
    why = ("eval --split val of a seeded untrained CNN2: forward only in eval mode, plus "
           "checkpoint and dataset reads; no backward, dropout or Adam")

    def _setup(self):
        self.data = self.path("paper.bin")
        self._generate(self.data, bursts=2)
        self.ckpt = self.path("untrained.stbcnn")
        model = classifier.initialize(classifier.build_cnn2(), seed=self.seed)
        classifier.save_checkpoint(model, self.ckpt)
        self.val = self._split(self.data)[1]

    def commands(self):
        out = self.path("eval")
        argv = ("eval", "--dataset", self.data, "--checkpoint", self.ckpt, "-o", out,
                "--split", "val", "--seed", str(self.seed), "--threads", "1")
        n = len(self.val)
        return [Command("eval", argv, n, n, (os.path.join(out, "accuracy.csv"),),
                        "eval_frames_per_s")]

    def check(self, last):
        (cmd,) = self.commands()
        model = classifier.load_checkpoint(self.ckpt)
        failures = _count_failures(model)
        failures += _roundtrip_failures(self.data, self.ckpt, self.dir)

        preds, probs = _predict(model, self.val.frames)
        self.nonfinite_ops = int((~np.isfinite(probs).all(axis=1)).sum())
        if self.nonfinite_ops:
            failures.append(f"{self.nonfinite_ops} frame(s) with non-finite probabilities")
        model64 = classifier.initialize(classifier.build_cnn2(), dtype=np.float64)
        for p64, p32 in zip(model64.net.parameters(), model.net.parameters()):
            p64[...] = p32
        pick = np.random.default_rng(self.seed).choice(
            len(self.val), size=min(SAMPLE_FRAMES, len(self.val)), replace=False)
        gap = float(np.max(np.abs(
            classifier.predict_batch(model64, self.val.frames[pick]) - probs[pick])))
        if not gap <= PROB_TOL:
            failures.append(f"float32 probabilities differ from float64 by {gap:.3g}")

        csv_path = cmd.outputs[0]
        curve, _ = evaluation.accuracy_vs_snr(lambda a: preds, self.val, vectorized=True)
        if _curve(csv_path) != {snr: acc for snr, acc, _ in curve.points}:
            failures.append("accuracy.csv disagrees with predict_batch on the val side")
        self.accuracy, _ = _overall(csv_path)
        self.accuracy_curves = {"val_acc": _curve(csv_path)}
        self.info = {
            "val_accuracy": (self.accuracy, "ratio"),
            "float64_max_prob_gap": (gap, "1"),
        }
        return failures

    def seeds(self):
        return {"cli": self.seed, "checkpoint_init": self.seed}


class Baseline(Workload):
    name = "baseline"
    why = ("generate on the 10-burst grid, then eval --baseline corr --split all: synthesis, "
           "serialize and the correlation baseline; no CNN, so CNN changes read no change")

    @property
    def bursts(self):
        return 2 if self.tiny else 10

    @property
    def trials(self):
        return 100 if self.tiny else 2000

    def _config(self):
        step = 10.0 if self.tiny else 2.0
        grid = tuple(-20.0 + i * step for i in range(int(40 / step) + 1))
        return dataset.DatasetConfig(snr_grid=grid, bursts_per_cell=self.bursts, seed=self.seed)

    def _setup(self):
        # The reference bytes that the timed generate must reproduce.
        self.reference = self.path("reference.bin")
        cfg = self._config()
        dataset.serialize_frames(dataset.generate_dataset(cfg), self.reference)
        self.n_frames = cfg.total_frames

    def commands(self):
        data = self.path("grid.bin")
        gen = ("generate", *_grid_flags(self.tiny), "--bursts", str(self.bursts),
               "--seed", str(self.seed), "--threads", "1", "-o", data)
        out = self.path("corr")
        ev = ("eval", "--dataset", data, "--baseline", "corr", "-o", out, "--split", "all",
              "--calibrate-trials", str(self.trials), "--seed", str(self.seed),
              "--threads", "1")
        n = self.n_frames
        return [Command("generate", gen, n, 0, (data, data + ".manifest"),
                        "generate_frames_per_s"),
                Command("eval_corr", ev, n, n, (os.path.join(out, "accuracy.csv"),),
                        "corr_eval_frames_per_s")]

    def check(self, last):
        gen, ev = self.commands()
        data = gen.outputs[0]
        failures = []
        if digest(data) != digest(self.reference):
            failures.append("generate output differs from generate_dataset + serialize_frames")
        failures += _roundtrip_failures(data, None, self.dir)

        frames = dataset.deserialize_frames(data)
        rule = baseline_corr.calibrate_threshold(10.0, frames.frames.shape[2], self.trials,
                                                 seed=self.seed, normalize=True)
        preds = np.array([
            int(baseline_corr.classify_corr(
                baseline_corr.correlation_feature(f[0] + 1j * f[1]), rule))
            for f in frames.frames])
        curve, _ = evaluation.accuracy_vs_snr(lambda a: preds, frames, vectorized=True)
        csv_path = ev.outputs[0]
        if _curve(csv_path) != {snr: acc for snr, acc, _ in curve.points}:
            failures.append("accuracy.csv disagrees with the correlation rule recomputed")
        self.accuracy, total = _overall(csv_path)
        if total != len(frames):
            failures.append(f"accuracy.csv scores {total} frames, dataset has {len(frames)}")
        self.accuracy_curves = {"corr_acc": _curve(csv_path)}
        self.info = {
            "corr_accuracy": (self.accuracy, "ratio"),
            "corr_threshold": (rule.threshold, "1"),
        }
        return failures


WORKLOADS = {w.name: w for w in (Train, Infer, Baseline)}


class Pipeline(Workload):
    """The commands of every workload in one pass, so that a traced run reaches
    every layer whichever workload it is started for."""

    name = "pipeline"
    why = "train, then infer, then baseline commands in each pass"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.parts = [cls(seed, tiny) for cls in WORKLOADS.values()]

    def setup(self, directory):
        os.makedirs(directory)
        self.dir = directory
        for part in self.parts:
            part.setup(os.path.join(directory, part.name))

    def commands(self):
        return [cmd for part in self.parts for cmd in part.commands()]

    def check(self, last):
        failures, start = [], 0
        for part in self.parts:
            n = len(part.commands())
            failures += part.check(last[start:start + n])
            start += n
            self.nonfinite_ops += part.nonfinite_ops
            self.accuracy_curves.update(part.accuracy_curves)
        return failures

    def seeds(self):
        return {k: v for part in self.parts for k, v in part.seeds().items()}
