"""The two-class IQ-frame CNN: architecture, training loop, inference, checkpoints.

A model maps a 1 x 2 x 128 frame to two class probabilities (P_SM, P_AL), which
``decide`` turns into classes; ``load_checkpoint`` rejects any other stack.

The architecture is pinned by its parameter counts (1280, 122960, 2683136,
514): 1280 = 256*(1*1*4+1) forces a 1x4 kernel on the first conv layer;
122960 = 80*(256*2*3+1) forces 2x3 on the second; the stated activation
widths 129 = (128+4)-4+1 and 131 = (129+4)-3+1 force two zero columns of
padding on each side before each convolution. Any deviation from the four
counts is a build failure, so ``parameter_counts`` is part of the public API.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .dataset import FRAME_LEN, FrameSet
from .errors import ParameterError, ShapeError
from .tensor_nn import (
    LAYER_KINDS,
    LAYER_TABLE,
    LayerSpec,
    Network,
    adam_init,
    adam_step,
    batch_cross_entropy,
    weight_shapes,
)

CHECKPOINT_MAGIC = b"STBCNN"
CHECKPOINT_VERSION = 1

# predict_batch block sizes: frames per call of the conv layers (up to the Flatten),
# at most tensor_nn.CONV_BLOCK so each conv call is one chunk, and rows per call of
# the dense head after it, a multiple of INFER_BLOCK
INFER_BLOCK = 16
HEAD_BLOCK = 128


class CheckpointError(Exception):
    """The file is not a usable checkpoint."""


class CorruptCheckpointError(CheckpointError):
    """Bad magic, truncation, or garbage where structure was expected."""


class CheckpointVersionError(CheckpointError):
    pass


class DescriptorMismatchError(CheckpointError):
    """The stored tensors disagree with the descriptors, or the stack is not a frame classifier."""


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, ...] = (1, 2, FRAME_LEN)


@dataclass
class Model:
    spec: ModelSpec
    net: Network


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0
    patience: int = 5  # 0 disables early stopping

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate >= 0.0:  # 0 freezes the parameters
            raise ParameterError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.patience < 0:
            raise ParameterError(f"patience must be >= 0, got {self.patience}")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


def build_cnn2(dropout_rate: float = 0.5) -> ModelSpec:
    """The reconstructed four-layer CNN (two conv, two dense) over 1 x 2 x 128 input.

    ``dropout_rate`` applies to all three dropout layers and is stored in the
    checkpoint descriptors as float32, which ``load_checkpoint`` reads back to
    6 decimals; a rate outside [0, 1), or one that would not read back as
    itself, raises ``ParameterError`` (``LayerSpec`` checks it).
    """
    pad, relu, drop = (LayerSpec("zeropad", pad=2), LayerSpec("relu"),
                       LayerSpec("dropout", rate=dropout_rate))
    layers = (
        pad, LayerSpec("conv2d", filters=256, kernel=(1, 4)), relu, drop,
        pad, LayerSpec("conv2d", filters=80, kernel=(2, 3)), relu, drop,
        LayerSpec("flatten"), LayerSpec("dense", units=256), relu, drop,
        LayerSpec("dense", units=2), LayerSpec("softmax"),
    )
    return ModelSpec(layers=layers, input_shape=(1, 2, FRAME_LEN))


def _check_frame_classifier(net: Network) -> None:
    """``ShapeError`` unless ``net`` maps a (1, 2, FRAME_LEN) frame to the two classes (2,)."""
    if net.input_shape != (1, 2, FRAME_LEN) or net.output_shape != (2,):
        raise ShapeError(f"the model maps {net.input_shape} to {net.output_shape}, not a "
                         f"(1, 2, {FRAME_LEN}) frame to the two classes (2,)")


def initialize(spec: ModelSpec, seed: int = 0, dtype=np.float32) -> Model:
    """Materialize a frame classifier's spec with seeded He/Glorot-uniform weights."""
    net = Network(spec.layers, spec.input_shape, seeding.stream(seed, b"init"), dtype=dtype)
    _check_frame_classifier(net)
    return Model(spec=spec, net=net)


def parameter_counts(model_or_spec) -> list[int]:
    """Trainable parameter count per parameterized layer, in stack order; a spec allocates none."""
    if isinstance(model_or_spec, Model):  # the arrays it holds
        return [sum(p.size for p in layer.params()) for layer in model_or_spec.net.layers
                if layer.params()]
    shapes = weight_shapes(model_or_spec.layers, model_or_spec.input_shape)
    return [math.prod(s) + s[0] for s in shapes]  # weights and bias


def _as_batch(frames: np.ndarray, dtype) -> np.ndarray:
    if frames.ndim != 3 or frames.shape[1:] != (2, FRAME_LEN):
        raise ShapeError(f"frames must be [N, 2, {FRAME_LEN}], got {frames.shape}")
    return frames[:, None, :, :].astype(dtype, copy=False)  # Network.forward copies


def predict_batch(model: Model, frames: np.ndarray) -> np.ndarray:
    """Eval-mode class probabilities, shape [N, 2] (columns P_SM, P_AL).

    The forward is split after the Flatten and runs in two block sizes. The
    conv layers take ``INFER_BLOCK`` frames per call: at 16, conv1's output,
    the largest activation (16 x 129 x 2 x 256 float32 = 4.2 MB), stays far
    below glibc's 32 MiB mmap threshold, so each block's arrays come back from
    the heap instead of being mapped and page-faulted in afresh. Each block's
    flat rows go into one [``HEAD_BLOCK``, 10480] buffer, and the dense head
    runs once per ``HEAD_BLOCK`` rows: dense1 streams its 10.7 MB weight once
    per call, and its GEMM runs about twice as fast per row at 128 rows as at 32.

    A short last block is zero-filled to ``INFER_BLOCK`` frames, and the unused
    rows of the buffer are zeroed, so every frame meets the same GEMM shapes and
    its probabilities do not depend on how many frames came with it (BLAS picks
    other kernels for a few rows).
    """
    net = model.net
    x = _as_batch(np.asarray(frames), net.dtype)
    n = x.shape[0]
    out = np.empty((n, 2), dtype=np.float64)
    rows = None
    for start in range(0, n, HEAD_BLOCK):
        used = min(HEAD_BLOCK, n - start)
        for at in range(0, used, INFER_BLOCK):
            block = x[start + at:start + at + INFER_BLOCK]
            if block.shape[0] < INFER_BLOCK:
                fill = np.zeros((INFER_BLOCK - block.shape[0],) + block.shape[1:], block.dtype)
                block = np.concatenate([block, fill])
            flat = net.forward(block, part="features")
            if rows is None:
                rows = np.empty((HEAD_BLOCK, flat.shape[1]), dtype=net.dtype)
            rows[at:at + INFER_BLOCK] = flat
            del flat  # not held through the next block's conv layers
        rows[used:] = 0.0
        out[start:start + used] = net.forward(rows, part="head")[:used]
    return out


def decide(probs) -> np.ndarray:
    """Class of each row (P_SM, P_AL) of [N, 2]: AL (1) iff P_AL > P_SM, ties go to SM (0)."""
    probs = np.asarray(probs)
    return (probs[:, 1] > probs[:, 0]).astype(np.int64)


def _eval_metrics(model: Model, frames: FrameSet) -> tuple[float, float]:
    """Mean loss and accuracy of a frame set, scored by predict_batch."""
    probs = predict_batch(model, frames.frames)
    onehot = np.eye(2)[frames.schemes]
    return batch_cross_entropy(probs, onehot), float(np.mean(decide(probs) == frames.schemes))


def train(model: Model, train_set: FrameSet, val_set: FrameSet,
          cfg: TrainConfig) -> tuple[Model, TrainHistory]:
    """Minibatch Adam on softmax cross-entropy with seeded shuffling.

    Tracks validation loss each epoch, stops early after ``patience`` epochs
    without improvement, and restores the best-validation parameters before
    returning. An epoch whose train or validation loss is not finite raises
    ``ParameterError`` naming it.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ParameterError("train and validation sets must be non-empty")
    dtype = model.net.dtype
    x_train = _as_batch(train_set.frames, dtype)
    y_train = np.eye(2, dtype=dtype)[train_set.schemes]

    params = model.net.parameters()
    state = adam_init(params, lr=cfg.learning_rate)
    shuffle_rng = seeding.stream(cfg.seed, b"shuf")
    dropout_rng = seeding.stream(cfg.seed, b"drop")

    history = TrainHistory()
    best_val = np.inf
    best_params = None  # epoch 1's finite val_loss always beats inf and sets it
    bad_epochs = 0
    n = x_train.shape[0]
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        running = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            loss, grads = model.net.loss_and_grads(x_train[idx], y_train[idx], rng=dropout_rng)
            adam_step(params, grads, state)
            running += loss * idx.size
        train_loss = running / n
        val_loss, val_acc = _eval_metrics(model, val_set)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise ParameterError(f"epoch {epoch}: loss is not finite (train {train_loss}, "
                                 f"val {val_loss}); the learning rate may be too high")
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.val_accuracy.append(val_acc)
        if val_loss < best_val:
            best_val = val_loss
            best_params = [p.copy() for p in params]
            history.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if cfg.patience and bad_epochs >= cfg.patience:
                history.stopped_early = True
                break
    for p, bp in zip(params, best_params):
        p[...] = bp
    return model, history


# ---------------------------------------------------------------------------
# checkpoints

_DESC = struct.Struct("<BIIIf")  # kind index, count (filters, units or pad), kernel, rate


def _layer_descriptor(spec: LayerSpec) -> bytes:
    count = spec.filters or spec.units or spec.pad or 0  # a spec sets at most one of them
    return _DESC.pack(LAYER_KINDS.index(spec.kind), count, *(spec.kernel or (0, 0)),
                      0.0 if spec.rate is None else spec.rate)


def _spec_from_descriptor(kind_idx, count, kh, kw, rate) -> LayerSpec:
    """The spec with exactly the fields its kind sets, read from a descriptor's columns."""
    if kind_idx >= len(LAYER_KINDS):
        raise CorruptCheckpointError(f"unknown layer kind index {kind_idx}")
    kind = LAYER_KINDS[kind_idx]
    stored = {"filters": count, "units": count, "pad": count, "kernel": (kh, kw),
              "rate": round(float(rate), 6)}
    return LayerSpec(kind, **{name: stored[name] for name in LAYER_TABLE[kind].fields})


def _tensor_header(shape) -> bytes:
    """The rank, then the dimensions: of the input frame and of each parameter tensor."""
    return struct.pack(f"<B{len(shape)}I", len(shape), *shape)


def save_checkpoint(model: Model, path) -> None:
    """Write magic, version, architecture descriptors, then f32 parameter tensors."""
    tensors = model.net.parameters()
    header = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION),
              _tensor_header(model.spec.input_shape), struct.pack("<I", len(model.spec.layers)),
              *map(_layer_descriptor, model.spec.layers), struct.pack("<I", len(tensors))]
    with open(path, "wb") as f:
        f.write(b"".join(header))
        for t in tensors:  # written from their own buffers: no joined copy of the weights
            f.write(_tensor_header(t.shape))
            # a conv kernel, held transposed, one filter at a time, as load_checkpoint reads it
            for part in (t,) if t.flags.c_contiguous else t:
                f.write(np.ascontiguousarray(part, dtype="<f4").data)


def load_checkpoint(path) -> Model:
    """Rebuild a model bit-exactly; ``DescriptorMismatchError`` unless its stack maps a
    (1, 2, FRAME_LEN) frame to two class probabilities, so callers check no shapes.
    It holds no copy of the file: after the descriptors, one size comparison rejects a
    truncated or over-claimed file and trailing bytes, then each tensor is read in place
    (a conv kernel, held transposed, through a one-filter temporary).
    The model holds its parameters only; gradient buffers wait for a first training step."""
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def take(n: int) -> bytes:  # never asks read() for more than the file has left
            nonlocal left
            if n > left:
                raise CorruptCheckpointError(f"{path}: truncated checkpoint")
            left -= n
            return f.read(n)

        if take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CorruptCheckpointError(f"{path}: bad checkpoint magic")
        (version,) = struct.unpack("<H", take(2))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
        ndim = take(1)[0]
        input_shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        raw = take(_DESC.size * struct.unpack("<I", take(4))[0])
        try:
            specs = tuple(_spec_from_descriptor(*d) for d in _DESC.iter_unpack(raw))
        except ParameterError as e:
            raise CorruptCheckpointError(f"{path}: invalid layer descriptor ({e})") from None
        if b"".join(map(_layer_descriptor, specs)) != raw:  # junk in a field, or a rounded rate
            raise CorruptCheckpointError(f"{path}: a layer descriptor does not re-encode as stored")
        try:
            shapes = [s for w in weight_shapes(specs, input_shape) for s in (w, w[:1])]  # and bias
            need = 4 + sum(len(_tensor_header(s)) + 4 * math.prod(s) for s in shapes)
            if need != left:  # before anything is allocated
                raise CorruptCheckpointError(f"{path}: {left - need} trailing bytes" if need < left
                                             else f"{path}: descriptors ask for more parameters "
                                             "than it has")
            net = Network(specs, input_shape, None, dtype="<f4")  # zeros, in the stored byte order
        except (ParameterError, ShapeError) as e:
            raise CorruptCheckpointError(
                f"{path}: descriptors do not form a network ({e})") from None
        try:
            _check_frame_classifier(net)
        except ShapeError as e:
            raise DescriptorMismatchError(f"{path}: {e}") from None
        (n_tensors,) = struct.unpack("<I", take(4))
        params = net.parameters()
        if n_tensors != len(params):
            raise DescriptorMismatchError(
                f"{path}: {n_tensors} stored tensors, architecture has {len(params)}")
        for i, p in enumerate(params):
            if take(len(header := _tensor_header(p.shape))) != header:
                raise DescriptorMismatchError(f"{path}: tensor {i} is not stored as {p.shape}")
            if p.flags.c_contiguous:
                f.readinto(p)
            else:  # a transposed conv kernel, one filter at a time through a small temporary
                row = np.empty(p.shape[1:], dtype=p.dtype)
                for out in p:
                    f.readinto(row)
                    out[...] = row
            if not np.isfinite(p.sum(dtype=np.float64)):  # as in dataset.deserialize_frames
                raise CorruptCheckpointError(f"{path}: non-finite values in tensor {i}")
    return Model(spec=ModelSpec(layers=specs, input_shape=input_shape), net=net)
