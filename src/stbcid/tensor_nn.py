"""Minimal conv/dense network engine: exact backprop, Adam, finite-difference checks.

Layers operate on batched arrays (leading batch axis). A ``Network`` takes
channel-first ``[B, C, H, W]`` input, copies and transposes it once and
stores every activation width-major, ``[B, W, H, C]``; ``Flatten`` emits
channel-first order, so shapes, parameter layouts and checkpoints stay
channel-first. The engine is deliberately small: stride-1 convolutions along
the width only (kernel height 1 or the full input height), column-only zero
padding, inverted dropout, softmax + cross-entropy fused in the backward
pass. A ``zeropad`` must come directly before a ``conv2d``, which owns that
padding: ``Network`` hands the conv the pad width, the conv reads its unpadded
input as if zero columns flanked it (no padded copy is made), and the ZeroPad
layer passes activations and gradients through. Besides the batch loss
``batch_cross_entropy``, the functional section holds only the references that
the tests compare the layers with: single-sample, channel-first float64
``conv2d_forward``, ``dense_forward``, ``relu`` and ``softmax``.

Three rules keep the layers lean and let a library caller run one shared model
in eval mode from several threads:

- Ownership: a layer owns the array ``forward`` is given and the gradient
  ``backward`` is given, and may overwrite either (ReLU and Dropout work in
  place). ``Network.forward`` copies the caller's input, so nothing outside
  the network is written.
- Locals only: ``forward`` computes its output from its arguments and locals
  and only *stores* what ``backward`` reads; it never reads ``self`` state
  back within the call, and no array is kept for reuse by a later call.
- Only a training step holds activations: ``train`` means "a backward
  follows". An eval forward (``train=False``) writes nothing to a layer; a
  training forward's state lives until its backward, which releases it.
  Dropout drops units only in a training forward given an ``rng``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError

LAYER_KINDS = ("conv2d", "dense", "relu", "softmax", "dropout", "zeropad", "flatten")

LOSS_CLAMP = 1e-12


@dataclass(frozen=True)
class LayerSpec:
    """Declarative layer description; only the fields its kind uses are set."""

    kind: str
    filters: int | None = None
    kernel: tuple[int, int] | None = None
    units: int | None = None
    rate: float | None = None
    pad: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ParameterError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv2d" and (
            not self.filters or not self.kernel or min(self.kernel) < 1
        ):
            raise ParameterError("conv2d spec needs filters and a kernel with dims >= 1")
        if self.kind == "dense" and not self.units:
            raise ParameterError("dense spec needs units")
        if self.kind == "dropout" and not 0.0 <= (self.rate or 0.0) < 1.0:
            raise ParameterError(f"dropout rate must lie in [0, 1), got {self.rate}")
        if self.kind == "zeropad" and (self.pad is None or self.pad < 0):
            raise ParameterError("zeropad spec needs pad >= 0")


def conv_spec(filters: int, kh: int, kw: int) -> LayerSpec:
    return LayerSpec(kind="conv2d", filters=filters, kernel=(kh, kw))


def dense_spec(units: int) -> LayerSpec:
    return LayerSpec(kind="dense", units=units)


def relu_spec() -> LayerSpec:
    return LayerSpec(kind="relu")


def softmax_spec() -> LayerSpec:
    return LayerSpec(kind="softmax")


def dropout_spec(rate: float) -> LayerSpec:
    return LayerSpec(kind="dropout", rate=rate)


def zeropad_spec(pad: int) -> LayerSpec:
    return LayerSpec(kind="zeropad", pad=pad)


def flatten_spec() -> LayerSpec:
    return LayerSpec(kind="flatten")


# ---------------------------------------------------------------------------
# layers


class Layer:
    """Forward/backward node. backward() consumes and releases what forward(train=True) stored.

    Both calls may overwrite the array they are given (the caller hands it
    over), and forward() computes from its arguments only, storing for
    backward() without reading that state back (see the module docstring).
    """

    def __init__(self, spec: LayerSpec):
        self.spec = spec

    def forward(self, x: np.ndarray, train: bool = False, rng=None, sign_trace=None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Input gradient; layers with parameters also fill their grads()."""
        raise NotImplementedError

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []


class _Weighted(Layer):
    """A layer with weights w (filters or units first) and bias b.

    The weights are drawn He- or Glorot-uniform from ``rng``, or left zero when
    ``rng`` is None (a checkpoint is about to overwrite them).
    """

    def __init__(self, spec: LayerSpec, shape: tuple[int, ...], fan_in: int,
                 rng: np.random.Generator | None, dtype, init: str):
        super().__init__(spec)
        if rng is None:
            self.w = np.zeros(shape, dtype=dtype)
        else:
            limit = np.sqrt(6.0 / (fan_in if init == "he" else fan_in + shape[0]))
            self.w = rng.uniform(-limit, limit, size=shape).astype(dtype)
        self.b = np.zeros(shape[0], dtype=dtype)
        self.gw = np.zeros(shape, dtype=dtype)  # not zeros_like, which writes every page
        self.gb = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.gw, self.gb]


def _flip(x: np.ndarray) -> np.ndarray:
    """Reverse the non-batch axes: channel-first [B, C, H, W] <-> width-major [B, W, H, C]."""
    return x.transpose(0, *range(x.ndim - 1, 0, -1))


class Conv2D(_Weighted):
    """Stride-1 cross-correlation along the width of width-major [B, W, H, C] input.

    The kernel [F, C, kh, kw] has kh = 1 (each row on its own) or kh = H (full
    height), so the input reads as [B, W, G, K] with G = H // kh row groups of
    K = kh*C values. The conv owns the zero padding of the ZeroPad before it
    (``pad``, set by ``Network``): it reads the unpadded input as if ``pad``
    zero columns flanked it, so the output is [B, OW, G, F] with
    OW = W + 2*pad - kw + 1 and no padded copy is made.

    Forward is one GEMM of the unpadded input against all kw shift weights,
    [B*W*G, K] @ [K, kw*F]. Output column o starts from the bias and adds
    shift j's product of input column o + j - pad, for j = 0..kw-1 in order;
    the column ranges are clipped, so a shift that would read padding adds
    nothing, as a zero column would have added an exact zero.

    Backward writes the output gradient once per shift into a zeroed
    [B, W, G, kw, F] array whose slot j holds it j - pad columns over, clipped
    the same way, so the weight gradient is one GEMM (input^T @ shifted
    gradient) and the unpadded input gradient another (shifted gradient @
    weights^T), both with kw*F on the shared side. The stored input is dead
    once the weight gradient is formed, so the input gradient is written over
    it (the windowed path below stores patches instead and allocates it).

    When a kw-wide window of K values is no larger than the F outputs it feeds
    (conv1 of CNN2), forward instead pads the tiny input and builds its window
    patch matrix with a ones column, so the bias rides in the GEMM, and
    backward gets the weight and bias gradients from one stacked GEMM per
    batch element.
    """

    def __init__(self, in_channels: int, spec: LayerSpec, rng: np.random.Generator | None,
                 dtype=np.float32, init: str = "he"):
        kh, kw = spec.kernel
        fan_in = in_channels * kh * kw
        super().__init__(spec, (spec.filters, in_channels, kh, kw), fan_in, rng, dtype, init)
        self.pad = 0  # zero columns on each side of the input
        self._windowed = fan_in <= spec.filters
        self._x = None  # [B, W, G, K] input, or its [B, OW*G, K*kw + 1] patches when windowed

    def _shifts(self, w: int, ow: int):
        """(j, lo, hi): shift j adds to output columns [lo, hi) from input columns j - pad over."""
        p = self.pad
        for j in range(self.w.shape[3]):
            lo, hi = max(0, p - j), min(ow, w + p - j)
            if lo < hi:
                yield j, lo, hi

    def forward(self, x, train=False, rng=None, sign_trace=None):
        f, c, kh, kw = self.w.shape
        if x.ndim != 4 or x.shape[3] != c:
            raise ShapeError(f"conv2d expects [B, W, H, {c}], got {x.shape}")
        b, w, h, _ = x.shape
        p = self.pad
        trace_shapes([self.spec], (c, h, w + 2 * p))  # kernel height 1 or h, width at most w + 2p
        g, k, ow = h // kh, kh * c, w + 2 * p - kw + 1
        x = np.ascontiguousarray(x).reshape(b, w, g, k)
        wt = self.w.transpose(2, 1, 3, 0).reshape(k, kw, f)  # [:, j] multiplies shift j
        if self._windowed:
            padded = np.zeros((b, w + 2 * p, g, k), dtype=x.dtype)
            padded[:, p:p + w] = x
            windows = np.lib.stride_tricks.sliding_window_view(padded, kw, axis=1)
            patches = np.empty((b, ow, g, k * kw + 1), dtype=x.dtype)
            patches[..., :-1] = windows.reshape(b, ow, g, k * kw)
            patches[..., -1] = 1.0
            if train:
                self._x = patches.reshape(b, ow * g, -1)
            out = patches.reshape(-1, k * kw + 1) @ np.vstack([wt.reshape(k * kw, f), self.b])
            return out.reshape(b, ow, g, f)
        if train:
            self._x = x
        per_shift = (x.reshape(-1, k) @ wt.reshape(k, kw * f)).reshape(b, w, g, kw, f)
        out = np.empty((b, ow, g, f), dtype=per_shift.dtype)
        out[...] = self.b
        for j, lo, hi in self._shifts(w, ow):
            out[:, lo:hi] += per_shift[:, lo + j - p:hi + j - p, :, j]
        return out

    def backward(self, grad, input_grad=True):
        """Fills gw and gb; returns the unpadded input gradient unless ``input_grad`` is False."""
        x, self._x = self._x, None
        f, c, kh, kw = self.w.shape
        b, ow, g, _ = grad.shape
        p = self.pad
        k, w = kh * c, ow + kw - 1 - 2 * p
        if input_grad or not self._windowed:
            shifted = np.zeros((b, w, g, kw, f), dtype=grad.dtype)
            for j, lo, hi in self._shifts(w, ow):
                shifted[:, lo + j - p:hi + j - p, :, j] = grad[:, lo:hi]
            shifted = shifted.reshape(-1, kw * f)
        if self._windowed:
            # per element [K*kw + 1, OW*G] @ [OW*G, F]: reads a strided gradient without a copy
            gwb = np.matmul(x.transpose(0, 2, 1), grad.reshape(b, ow * g, f)).sum(axis=0)
            gwt, self.gb[...] = gwb[:-1], gwb[-1]
        else:
            gwt = x.reshape(-1, k).T @ shifted
            self.gb[...] = grad.sum(axis=(0, 1, 2))
        self.gw[...] = gwt.reshape(kh, c, kw, f).transpose(3, 1, 0, 2)
        if not input_grad:
            return None
        # a windowed x holds patches; otherwise it is the input, dead now and owned by this layer
        dx = np.empty((b * w, k), dtype=grad.dtype) if self._windowed else x.reshape(-1, k)
        np.matmul(shifted, self.w.transpose(2, 1, 3, 0).reshape(k, kw * f).T, out=dx)
        return dx.reshape(b, w, kh * g, c)


class Dense(_Weighted):
    def __init__(self, in_features: int, spec: LayerSpec, rng: np.random.Generator,
                 dtype=np.float32, init: str = "he"):
        super().__init__(spec, (spec.units, in_features), in_features, rng, dtype, init)
        self._x = None

    def forward(self, x, train=False, rng=None, sign_trace=None):
        if x.ndim != 2 or x.shape[1] != self.w.shape[1]:
            raise ShapeError(f"dense expects [B, {self.w.shape[1]}], got {x.shape}")
        if train:
            self._x = x
        return x @ self.w.T + self.b

    def backward(self, grad, input_grad=True):
        x, self._x = self._x, None
        np.matmul(grad.T, x, out=self.gw)
        self.gb[...] = grad.sum(axis=0)
        return grad @ self.w if input_grad else None


class ReLU(Layer):
    """In place, forward and backward; builds the bool mask of positive inputs only when read."""

    def forward(self, x, train=False, rng=None, sign_trace=None):
        mask = x > 0 if train or sign_trace is not None else None
        if train:
            self._mask = mask
        if sign_trace is not None:
            sign_trace.append(mask)
        return np.maximum(x, 0, out=x)

    def backward(self, grad):
        mask, self._mask = self._mask, None
        grad *= mask
        return grad


class Softmax(Layer):
    """Forward only: Network.loss_and_grads fuses its backward into the loss gradient."""

    def forward(self, x, train=False, rng=None, sign_trace=None):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)


class Dropout(Layer):
    """Inverted dropout, in place: survivors scaled by 1/(1-rate).

    A training forward given an ``rng`` draws the keep bits width-major with
    ``keep_mask`` (PCG64 only) and backward reuses that mask; any other forward
    is the identity, and so is the backward after it.
    """

    def _scale(self, dtype):
        return dtype.type(1.0) / dtype.type(1.0 - self.spec.rate)

    def forward(self, x, train=False, rng=None, sign_trace=None):
        if not train:
            return x
        self._keep = None
        if rng is not None and self.spec.rate != 0.0:
            self._keep = keep = keep_mask(rng, x.shape, self.spec.rate)
            x *= keep
            x *= self._scale(x.dtype)
        return x

    def backward(self, grad):
        keep, self._keep = self._keep, None
        if keep is not None:
            grad *= keep
            grad *= self._scale(grad.dtype)
        return grad


def keep_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Bool keep-mask of ``shape``, drawn in the array's own (width-major) order.

    Each batch element of n units reads ceil(n/2) PCG64 ``random_raw`` words as
    uint32 pairs, low half first, and keeps a unit iff its ``u >= ceil(rate *
    2**32)``: P(keep) = 1 - rate to within 2**-32. An odd n leaves the last high
    half unused. Other bit generators are rejected (MT19937's raw words hold
    only 32 bits).
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise ParameterError(f"dropout needs a PCG64 generator, got {type(bitgen).__name__}")
    threshold = math.ceil(rate * 2 ** 32)
    keep = np.empty(shape, dtype=bool)
    n = int(np.prod(shape[1:]))
    for element in keep:
        u = bitgen.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")[:n]
        np.greater_equal(u.reshape(element.shape), threshold, out=element)
    return keep


class ZeroPad(Layer):
    """A pass-through: ``Network`` hands ``spec.pad`` to the Conv2D right after it, which pads."""

    def forward(self, x, train=False, rng=None, sign_trace=None):
        return x

    def backward(self, grad):
        return grad


class Flatten(Layer):
    def forward(self, x, train=False, rng=None, sign_trace=None):
        x = _flip(x)  # channel-first order, which the dense weights after a conv expect
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        shape, self._shape = self._shape, None
        return np.ascontiguousarray(_flip(grad.reshape(shape)))


# ---------------------------------------------------------------------------
# network assembly


def trace_shapes(specs, input_shape) -> list[tuple[int, ...]]:
    """Propagate the (batchless) activation shape through a spec stack.

    A zeropad followed by anything but a conv2d raises ``ShapeError``: the
    conv applies the padding. A zeropad that ends ``specs`` passes, so a
    partial stack can be traced; a network ends in softmax.
    """
    specs = tuple(specs)
    shape = tuple(input_shape)
    out = []
    for i, spec in enumerate(specs):
        if spec.kind == "conv2d":
            if len(shape) != 3:
                raise ShapeError(f"conv2d needs a [C, H, W] input, got {shape}")
            c, h, w = shape
            kh, kw = spec.kernel
            if kh not in (1, h) or kw > w:
                raise ShapeError(f"kernel {kh}x{kw} does not fit input {h}x{w}: convolutions "
                                 f"run along the width, so its height must be 1 or {h}")
            shape = (spec.filters, h - kh + 1, w - kw + 1)
        elif spec.kind == "dense":
            if len(shape) != 1:
                raise ShapeError(f"dense needs a flat input, got {shape}")
            shape = (spec.units,)
        elif spec.kind == "zeropad":
            if len(shape) != 3:
                raise ShapeError(f"zeropad needs a [C, H, W] input, got {shape}")
            if specs[i + 1:] and specs[i + 1].kind != "conv2d":
                raise ShapeError(f"zeropad is followed by {specs[i + 1].kind}: only a conv2d, "
                                 f"which applies the padding, may follow it")
            c, h, w = shape
            shape = (c, h, w + 2 * spec.pad)
        elif spec.kind == "flatten":
            shape = (int(np.prod(shape)),)
        out.append(shape)
    return out


_LAYER_CLASSES = {"conv2d": Conv2D, "dense": Dense, "relu": ReLU, "softmax": Softmax,
                  "dropout": Dropout, "zeropad": ZeroPad, "flatten": Flatten}


def _init_for(following_specs) -> str:
    """He-uniform when the next activation is a ReLU, Glorot for the output."""
    for spec in following_specs:
        if spec.kind == "relu":
            return "he"
        if spec.kind == "softmax":
            return "glorot"
    return "he"


class Network:
    """An ordered layer stack ending in Softmax, with fused softmax/CE backprop."""

    def __init__(self, specs, input_shape, rng: np.random.Generator | None,
                 dtype=np.float32):
        """``rng`` draws the initial weights; None leaves them zero, for a checkpoint to fill.

        Each zeropad's width goes to the conv2d after it (see ``Conv2D``).
        """
        specs = tuple(specs)
        if not specs or specs[-1].kind != "softmax":
            raise ParameterError("network must end with a softmax layer")
        shapes = trace_shapes(specs, input_shape)  # validates the stack
        self.specs = specs
        self.input_shape = tuple(input_shape)
        self.dtype = np.dtype(dtype)
        self.layers: list[Layer] = []
        for i, (spec, shape) in enumerate(zip(specs, (self.input_shape, *shapes))):
            cls = _LAYER_CLASSES[spec.kind]
            if issubclass(cls, _Weighted):
                layer = cls(shape[0], spec, rng, dtype=dtype, init=_init_for(specs[i + 1:]))
            else:
                layer = cls(spec)
            if i and specs[i - 1].kind == "zeropad":  # a conv2d, checked by trace_shapes
                layer.pad = specs[i - 1].pad
            self.layers.append(layer)
        self.output_shape = shapes[-1]
        # backprop reaches the first layer that is not a ZeroPad, which stores nothing
        first = next(i for i, layer in enumerate(self.layers) if not isinstance(layer, ZeroPad))
        self._backprop_layers = self.layers[first:-1]

    def forward(self, x, train: bool = False, rng=None, sign_trace=None) -> np.ndarray:
        x = np.array(x, dtype=self.dtype)  # the layers may overwrite it; the caller's stays
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"expected input [B, {self.input_shape}], got {x.shape}")
        x = _flip(x)
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng, sign_trace=sign_trace)
        return x

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def loss(self, x, onehot, sign_trace=None) -> float:
        probs = self.forward(x, train=False, sign_trace=sign_trace)
        return batch_cross_entropy(probs, np.asarray(onehot, dtype=self.dtype))

    def loss_and_grads(self, x, onehot, rng=None):
        """Mean cross-entropy over the batch and its exact parameter gradients.

        A training forward: dropout drops units only given an ``rng``. Softmax
        and cross-entropy are fused: backprop starts from (p - y)/B at the
        softmax input. It runs down to the first layer that is not a ZeroPad,
        so every layer releases what its forward stored; if that layer has
        weights it skips its input gradient, which nothing reads.
        """
        onehot = np.asarray(onehot, dtype=self.dtype)
        probs = self.forward(x, train=True, rng=rng)
        if probs.shape != onehot.shape:
            raise ShapeError(f"one-hot shape {onehot.shape} != output shape {probs.shape}")
        loss = batch_cross_entropy(probs, onehot)
        grad = (probs - onehot) / self.dtype.type(probs.shape[0])
        for layer in reversed(self._backprop_layers[1:]):
            grad = layer.backward(grad)
        if self._backprop_layers:
            first = self._backprop_layers[0]
            if first.params():  # nothing reads its input gradient
                first.backward(grad, input_grad=False)
            else:
                first.backward(grad)
        return loss, self.gradients()


# ---------------------------------------------------------------------------
# functional references and the batch loss


def conv2d_forward(x, weights, bias) -> np.ndarray:
    """Valid cross-correlation of one [C, H, W] input, plus per-filter bias."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 3 or weights.ndim != 4 or weights.shape[1] != x.shape[0]:
        raise ShapeError(f"incompatible conv shapes {x.shape} and {weights.shape}")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} != ({weights.shape[0]},)")
    _, _, kh, kw = weights.shape
    _, h, w = x.shape
    if kh > h or kw > w:
        raise ShapeError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    patches = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    out = np.einsum("chwij,fcij->fhw", patches, weights, optimize=True)
    return out + bias[:, None, None]


def dense_forward(x, weights, bias) -> np.ndarray:
    """y = W x + b for one flat input."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 1 or weights.ndim != 2 or weights.shape[1] != x.size:
        raise ShapeError(f"incompatible dense shapes {x.shape} and {weights.shape}")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} != ({weights.shape[0]},)")
    return weights @ x + bias


def relu(x) -> np.ndarray:
    x = np.asarray(x)
    return np.where(x > 0, x, np.zeros((), dtype=x.dtype))


def softmax(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_onehot(onehot) -> None:
    if not (np.isin(onehot, (0, 1)).all() and (onehot.sum(axis=-1) == 1).all()):
        raise ParameterError("target must be one-hot (exactly one 1 per row)")


def batch_cross_entropy(probs, onehot) -> float:
    """Mean clamped cross-entropy, -mean(sum(y * ln(max(p, 1e-12)))), over a [B, k] batch."""
    probs = np.asarray(probs, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if probs.shape != onehot.shape or probs.ndim != 2:
        raise ShapeError(f"shapes {probs.shape} and {onehot.shape} must match ([B, k])")
    _check_onehot(onehot)
    per = -(onehot * np.log(np.maximum(probs, LOSS_CLAMP))).sum(axis=-1)
    return float(per.mean())


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 65536  # elements per block of adam_step's two scratch arrays


@dataclass
class OptimizerState:
    """Adam accumulators; shapes mirror the parameter list."""

    lr: float
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(params, lr: float) -> OptimizerState:
    return OptimizerState(lr=lr, m=[np.zeros_like(p) for p in params],
                          v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: OptimizerState):
    """One bias-corrected Adam update, in place; returns (params, state).

    Bit-identical to ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``, where b1, b2 and eps are
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``. Each parameter is updated
    in flat blocks of ``ADAM_BLOCK`` elements through two block-sized scratch
    arrays (256 KB each in float32), not a temporary per operation; every
    operation is elementwise, so the blocking changes no value. Parameters and
    the state's m and v are updated through flat views, so they must be
    C-contiguous.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads, and optimizer state must align")
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ShapeError("adam_step updates C-contiguous parameters and state only")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        p, g, m, v = (a.reshape(-1) for a in (p, g, m, v))
        scratch = np.empty((2, min(p.size, ADAM_BLOCK)), dtype=p.dtype)
        for lo in range(0, p.size, ADAM_BLOCK):
            pb, gb, mb, vb = (a[lo:lo + ADAM_BLOCK] for a in (p, g, m, v))
            step, denom = scratch[:, :pb.size]
            mb *= ADAM_BETA1
            mb += np.multiply(gb, 1.0 - ADAM_BETA1, out=step)
            vb *= ADAM_BETA2
            np.multiply(gb, gb, out=step)
            vb += np.multiply(step, 1.0 - ADAM_BETA2, out=step)
            np.divide(mb, bc1, out=step)
            step *= state.lr
            np.divide(vb, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            pb -= step
    return params, state


# ---------------------------------------------------------------------------
# gradient checking

GRAD_ZERO_TOL = 1e-8  # below this gradient magnitude grad_check counts a coordinate as exact


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: tuple[int, int]  # (parameter tensor index, flat element index)
    n_checked: int
    n_kink_skipped: int
    kink_indices: list
    tolerance: float
    passed: bool
    per_param_max: list = field(default_factory=list)  # max rel error per tensor


def _signs_differ(a, b) -> bool:
    return any(not np.array_equal(x, y) for x, y in zip(a, b))


def grad_check(network: Network, x, onehot, step: float = 1e-5,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare backprop against central finite differences, one parameter at a time.

    Coordinates whose perturbation flips any ReLU activation pattern sit on a
    kink where the two-sided difference is meaningless; they are excluded from
    the max and reported separately. ``step`` and ``tolerance`` must be > 0.
    """
    for name, value in (("step", step), ("tolerance", tolerance)):
        if not value > 0.0:
            raise ParameterError(f"{name} must be > 0, got {value}")
    x = np.asarray(x)
    onehot = np.asarray(onehot)
    if x.shape[1:] != network.input_shape:
        x = x[None]
        onehot = onehot[None]
    _, analytic = network.loss_and_grads(x, onehot)
    analytic = [g.copy() for g in analytic]

    max_rel = 0.0
    worst = (-1, -1)
    kinks = []
    n_checked = 0
    per_param_max = [0.0 for _ in network.parameters()]
    for pi, p in enumerate(network.parameters()):
        flat = p.reshape(-1)
        gflat = analytic[pi].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            signs_hi: list = []
            signs_lo: list = []
            flat[k] = orig + step
            hi = network.loss(x, onehot, sign_trace=signs_hi)
            flat[k] = orig - step
            lo = network.loss(x, onehot, sign_trace=signs_lo)
            flat[k] = orig
            if _signs_differ(signs_hi, signs_lo):
                kinks.append((pi, k))
                continue
            fd = (hi - lo) / (2.0 * step)
            bp = float(gflat[k])
            denom = max(abs(fd), abs(bp))
            rel = 0.0 if denom < GRAD_ZERO_TOL else abs(fd - bp) / denom
            n_checked += 1
            per_param_max[pi] = max(per_param_max[pi], rel)
            if rel > max_rel:
                max_rel = rel
                worst = (pi, k)
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_param=worst,
        n_checked=n_checked,
        n_kink_skipped=len(kinks),
        kink_indices=kinks,
        tolerance=tolerance,
        passed=max_rel < tolerance,
        per_param_max=per_param_max,
    )


def random_micro_network(seed: int, linear_only: bool = False) -> tuple[Network, np.ndarray, np.ndarray]:
    """A small random conv+dense stack (<= ~5k params) with a matching input/target.

    Used by the gradient-check suite; always float64 so finite differences are
    trustworthy.
    """
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 3))
    h = int(rng.integers(2, 4))
    w = int(rng.integers(6, 10))
    f1 = int(rng.integers(2, 5))
    f2 = int(rng.integers(2, 5))
    k1w = int(rng.integers(2, 4))
    units = int(rng.integers(4, 9))
    classes = 2
    act = [] if linear_only else [relu_spec()]
    specs = [conv_spec(f1, 1, k1w), *act, conv_spec(f2, h, 2), *act,
             flatten_spec(), dense_spec(units), *act, dense_spec(classes), softmax_spec()]
    net = Network(specs, (c, h, w), rng, dtype=np.float64)
    x = rng.standard_normal((c, h, w))
    onehot = np.zeros(classes)
    onehot[int(rng.integers(0, classes))] = 1.0
    return net, x, onehot
