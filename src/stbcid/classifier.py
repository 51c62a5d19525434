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

import struct
from dataclasses import dataclass, field

import numpy as np

from .dataset import FRAME_LEN, FrameSet
from .errors import ParameterError, ShapeError
from .signal_model import _MASK64
from .tensor_nn import (
    LAYER_KINDS,
    LayerSpec,
    Network,
    adam_init,
    adam_step,
    batch_cross_entropy,
    conv_spec,
    dense_spec,
    dropout_spec,
    flatten_spec,
    relu_spec,
    softmax_spec,
    zeropad_spec,
)

CHECKPOINT_MAGIC = b"STBCNN"
CHECKPOINT_VERSION = 1

INFER_BLOCK = 32  # frames per Network.forward call when scoring; see predict_batch


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
    checkpoint descriptors; a rate outside [0, 1) raises ``ParameterError``.
    """
    layers = (
        zeropad_spec(2),
        conv_spec(256, 1, 4),
        relu_spec(),
        dropout_spec(dropout_rate),
        zeropad_spec(2),
        conv_spec(80, 2, 3),
        relu_spec(),
        dropout_spec(dropout_rate),
        flatten_spec(),
        dense_spec(256),
        relu_spec(),
        dropout_spec(dropout_rate),
        dense_spec(2),
        softmax_spec(),
    )
    return ModelSpec(layers=layers, input_shape=(1, 2, FRAME_LEN))


def initialize(spec: ModelSpec, seed: int = 0, dtype=np.float32) -> Model:
    """Materialize a spec with seeded He/Glorot-uniform weights."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & _MASK64, 0x696E6974]))
    net = Network(spec.layers, spec.input_shape, rng, dtype=dtype)
    if net.output_shape != (2,):
        raise ShapeError(f"stack produces {net.output_shape}, expected the two classes (2,)")
    return Model(spec=spec, net=net)


def parameter_counts(model_or_spec) -> list[int]:
    """Trainable parameter count per parameterized layer, in stack order."""
    if isinstance(model_or_spec, Model):
        net = model_or_spec.net
    else:  # zero weights: nothing is drawn
        net = Network(model_or_spec.layers, model_or_spec.input_shape, None)
    return [sum(p.size for p in layer.params()) for layer in net.layers if layer.params()]


def _as_batch(frames: np.ndarray, dtype) -> np.ndarray:
    if frames.ndim != 3 or frames.shape[1:] != (2, FRAME_LEN):
        raise ShapeError(f"frames must be [N, 2, {FRAME_LEN}], got {frames.shape}")
    return frames[:, None, :, :].astype(dtype, copy=False)  # Network.forward copies


def predict_batch(model: Model, frames: np.ndarray) -> np.ndarray:
    """Eval-mode class probabilities, shape [N, 2] (columns P_SM, P_AL).

    Frames stream through the network ``INFER_BLOCK`` at a time. At 32,
    conv1's output, the largest activation (32 x 129 x 2 x 256 float32 =
    8.5 MB), stays below glibc's 32 MiB mmap threshold and near cache size:
    each block's arrays come back from the heap instead of being mapped and
    page-faulted in afresh, as the 70 MB arrays of a 256-frame block were.
    A short last block is zero-filled to ``INFER_BLOCK`` frames, so every frame
    meets the same GEMM shapes and its probabilities do not depend on how many
    frames came with it (BLAS picks other kernels for a few rows).
    """
    x = _as_batch(np.asarray(frames), model.net.dtype)
    n = x.shape[0]
    out = np.empty((n, 2), dtype=np.float64)
    for start in range(0, n, INFER_BLOCK):
        block = x[start:start + INFER_BLOCK]
        if block.shape[0] < INFER_BLOCK:
            fill = np.zeros((INFER_BLOCK - block.shape[0],) + block.shape[1:], dtype=block.dtype)
            block = np.concatenate([block, fill])
        out[start:start + INFER_BLOCK] = model.net.forward(block)[:n - start]
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
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & _MASK64, 0x73687566]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & _MASK64, 0x64726F70]))

    history = TrainHistory()
    best_val = np.inf
    best_params = [p.copy() for p in params]
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

_DESC = struct.Struct("<BIIIf")  # kind, three ints, rate


def _layer_descriptor(spec: LayerSpec) -> bytes:
    kind = LAYER_KINDS.index(spec.kind)
    a = b = c = 0
    rate = 0.0
    if spec.kind == "conv2d":
        a, (b, c) = spec.filters, spec.kernel
    elif spec.kind == "dense":
        a = spec.units
    elif spec.kind == "zeropad":
        a = spec.pad
    elif spec.kind == "dropout":
        rate = spec.rate
    return _DESC.pack(kind, a, b, c, rate)


def _spec_from_descriptor(raw: bytes) -> LayerSpec:
    kind_idx, a, b, c, rate = _DESC.unpack(raw)
    if kind_idx >= len(LAYER_KINDS):
        raise CorruptCheckpointError(f"unknown layer kind index {kind_idx}")
    kind = LAYER_KINDS[kind_idx]
    if kind == "conv2d":
        return conv_spec(a, b, c)
    if kind == "dense":
        return dense_spec(a)
    if kind == "zeropad":
        return zeropad_spec(a)
    if kind == "dropout":
        return dropout_spec(round(float(rate), 6))
    return LayerSpec(kind=kind)


def save_checkpoint(model: Model, path) -> None:
    """Write magic, version, architecture descriptors, then f32 parameter tensors."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    shape = model.spec.input_shape
    parts.append(struct.pack("<B", len(shape)))
    parts.append(struct.pack(f"<{len(shape)}I", *shape))
    parts.append(struct.pack("<I", len(model.spec.layers)))
    parts += [_layer_descriptor(ls) for ls in model.spec.layers]
    tensors = model.net.parameters()
    parts.append(struct.pack("<I", len(tensors)))
    with open(path, "wb") as f:
        f.write(b"".join(parts))
        for t in tensors:  # written from their own buffers: no joined copy of the weights
            f.write(struct.pack("<B", t.ndim))
            f.write(struct.pack(f"<{t.ndim}I", *t.shape))
            f.write(np.ascontiguousarray(t, dtype="<f4").data)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptCheckpointError(f"{self.path}: truncated checkpoint")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: struct.Struct):
        return fmt.unpack(self.take(fmt.size))


def load_checkpoint(path) -> Model:
    """Rebuild a model bit-exactly; ``DescriptorMismatchError`` unless its stack maps a
    (1, 2, FRAME_LEN) frame to two class probabilities, so callers check no shapes."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: bad checkpoint magic")
    (version,) = struct.unpack("<H", r.take(2))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
    (ndim,) = struct.unpack("<B", r.take(1))
    input_shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
    (n_layers,) = struct.unpack("<I", r.take(4))
    try:
        specs = tuple(_spec_from_descriptor(r.take(_DESC.size)) for _ in range(n_layers))
    except ParameterError as e:
        raise CorruptCheckpointError(f"{path}: invalid layer descriptor ({e})") from None
    try:
        net = Network(specs, input_shape, None, dtype=np.float32)  # zeros, filled below
    except (ParameterError, ShapeError) as e:
        raise CorruptCheckpointError(f"{path}: descriptors do not form a network ({e})") from None
    if input_shape != (1, 2, FRAME_LEN) or net.output_shape != (2,):
        raise DescriptorMismatchError(
            f"{path}: the model maps {input_shape} to {net.output_shape}, not a "
            f"(1, 2, {FRAME_LEN}) frame to the two classes (2,)"
        )
    (n_tensors,) = struct.unpack("<I", r.take(4))
    params = net.parameters()
    if n_tensors != len(params):
        raise DescriptorMismatchError(
            f"{path}: {n_tensors} stored tensors, architecture has {len(params)}"
        )
    for i, p in enumerate(params):
        (tnd,) = struct.unpack("<B", r.take(1))
        tshape = struct.unpack(f"<{tnd}I", r.take(4 * tnd))
        if tshape != p.shape:
            raise DescriptorMismatchError(
                f"{path}: stored tensor shape {tshape} != expected {p.shape}"
            )
        raw = r.take(4 * int(np.prod(tshape)))
        p[...] = np.frombuffer(raw, dtype="<f4").reshape(tshape)
        if not np.isfinite(p.sum(dtype=np.float64)):  # as in dataset.deserialize_frames
            raise CorruptCheckpointError(f"{path}: non-finite values in tensor {i}")
    if r.pos != len(r.data):
        raise CorruptCheckpointError(f"{path}: {len(r.data) - r.pos} trailing bytes")
    return Model(spec=ModelSpec(layers=specs, input_shape=input_shape), net=net)
