"""Minimal conv/dense network engine: exact backprop, Adam, finite-difference checks.

Layers operate on batched arrays (leading batch axis). A ``Network`` takes
channel-first ``[B, C, H, W]`` input, transposes it once and stores every
activation width-major, ``[B, W, H, C]``; ``Flatten`` emits channel-first
order, so shapes, parameter layouts and checkpoints stay channel-first. The
engine is deliberately small: stride-1 valid convolutions along the width
only (kernel height 1 or the full input height), column-only zero padding,
inverted dropout, softmax + cross-entropy fused in the backward pass. The
single-sample functional forms (``conv2d_forward``, ``relu``, ...) are
channel-first float64 references that the tests compare the layers with.
"""

from __future__ import annotations

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
    """Forward/backward node. backward() consumes state cached by forward()."""

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
    """A layer with weights w (filters or units first) and bias b, He- or Glorot-uniform."""

    def __init__(self, spec: LayerSpec, shape: tuple[int, ...], fan_in: int,
                 rng: np.random.Generator, dtype, init: str):
        super().__init__(spec)
        limit = np.sqrt(6.0 / (fan_in if init == "he" else fan_in + shape[0]))
        self.w = rng.uniform(-limit, limit, size=shape).astype(dtype)
        self.b = np.zeros(shape[0], dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.gw, self.gb]


def _flip(x: np.ndarray) -> np.ndarray:
    """Reverse the non-batch axes: channel-first [B, C, H, W] <-> width-major [B, W, H, C]."""
    return x.transpose(0, *range(x.ndim - 1, 0, -1))


class Conv2D(_Weighted):
    """Stride-1 valid cross-correlation along the width of width-major [B, W, H, C] input.

    The kernel [F, C, kh, kw] has kh = 1 (each row on its own) or kh = H (full
    height), so the input reads as [B, W, G, K] with G = H // kh row groups of
    K = kh*C values, and the output is [B, W - kw + 1, G, F]. Width shift j is
    one GEMM over the flattened [B*W*G, K] rows offset by j*G; rows that run
    into the next batch element land on the kw - 1 output columns past
    W - kw + 1, which forward drops and backward pads with zero gradient. When
    a kw-wide window of K values is no larger than the F outputs it feeds, a
    cached window patch matrix makes forward and the weight gradient one GEMM
    each; otherwise nothing the size of a patch matrix is built.
    """

    def __init__(self, in_channels: int, spec: LayerSpec, rng: np.random.Generator,
                 dtype=np.float32, init: str = "he"):
        kh, kw = spec.kernel
        fan_in = in_channels * kh * kw
        super().__init__(spec, (spec.filters, in_channels, kh, kw), fan_in, rng, dtype, init)
        self._windowed = fan_in <= spec.filters
        self._x = None  # [B, W, G, K] input, or its [B*OW*G, K*kw] patch matrix when windowed

    def forward(self, x, train=False, rng=None, sign_trace=None):
        f, c, kh, kw = self.w.shape
        if x.ndim != 4 or x.shape[3] != c:
            raise ShapeError(f"conv2d expects [B, W, H, {c}], got {x.shape}")
        b, w, h, _ = x.shape
        trace_shapes([self.spec], (c, h, w))  # kernel height 1 or h, width at most w
        g, k, ow = h // kh, kh * c, w - kw + 1
        x = np.ascontiguousarray(x).reshape(b, w, g, k)
        wt = self.w.transpose(2, 1, 3, 0).reshape(k, kw, f)  # [:, j] multiplies shift j
        if self._windowed:
            self._x = np.lib.stride_tricks.sliding_window_view(x, kw, axis=1).reshape(-1, k * kw)
            out = self._x @ wt.reshape(k * kw, f)
            out += self.b
            return out.reshape(b, ow, g, f)
        self._x = x
        # one GEMM against all kw shift weights, then the shifted row ranges summed
        per_shift = (x.reshape(-1, k) @ wt.reshape(k, kw * f)).reshape(-1, kw, f)
        rows = (b * w - kw + 1) * g
        out = np.empty((b * w * g, f), dtype=per_shift.dtype)
        np.add(per_shift[:rows, 0], self.b, out=out[:rows])
        for j in range(1, kw):
            out[:rows] += per_shift[j * g:j * g + rows, j]
        return out.reshape(b, w, g, f)[:, :ow]

    def backward(self, grad, input_grad=True):
        """Fills gw and gb; returns the input gradient unless ``input_grad`` is False."""
        f, c, kh, kw = self.w.shape
        b, ow, g, _ = grad.shape
        k, w = kh * c, ow + kw - 1
        rows = (b * w - kw + 1) * g
        self.gb[...] = grad.sum(axis=(0, 1, 2))
        if input_grad or not self._windowed:
            padded = np.zeros((b, w, g, f), dtype=grad.dtype)
            padded[:, :ow] = grad
            dy = padded.reshape(-1, f)[:rows]
        if self._windowed:
            gwt = self._x.T @ grad.reshape(-1, f)
        else:
            x = self._x.reshape(-1, k)
            gwt = np.stack([x[j * g:j * g + rows].T @ dy for j in range(kw)], axis=1)
        self.gw[...] = gwt.reshape(kh, c, kw, f).transpose(3, 1, 0, 2)
        if not input_grad:
            return None
        wt = self.w.transpose(2, 1, 3, 0).reshape(k, kw, f)
        dx = np.empty((b * w * g, k), dtype=grad.dtype)
        dx[rows:] = 0.0
        np.matmul(dy, wt[:, 0].T, out=dx[:rows])
        for j in range(1, kw):
            dx[j * g:j * g + rows] += dy @ wt[:, j].T
        return dx.reshape(b, w, kh * g, c)


class Dense(_Weighted):
    def __init__(self, in_features: int, spec: LayerSpec, rng: np.random.Generator,
                 dtype=np.float32, init: str = "he"):
        super().__init__(spec, (spec.units, in_features), in_features, rng, dtype, init)
        self._x = None

    def forward(self, x, train=False, rng=None, sign_trace=None):
        if x.ndim != 2 or x.shape[1] != self.w.shape[1]:
            raise ShapeError(f"dense expects [B, {self.w.shape[1]}], got {x.shape}")
        self._x = x
        return x @ self.w.T + self.b

    def backward(self, grad, input_grad=True):
        self.gw[...] = grad.T @ self._x
        self.gb[...] = grad.sum(axis=0)
        return grad @ self.w if input_grad else None


class ReLU(Layer):
    def forward(self, x, train=False, rng=None, sign_trace=None):
        self._mask = x > 0
        if sign_trace is not None:
            sign_trace.append(self._mask)
        return np.maximum(x, 0)

    def backward(self, grad):
        return grad * self._mask


class Softmax(Layer):
    """Forward only: Network.loss_and_grads fuses its backward into the loss gradient."""

    def forward(self, x, train=False, rng=None, sign_trace=None):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)


class Dropout(Layer):
    """Inverted dropout: survivors scaled by 1/(1-rate); eval mode is identity."""

    def __init__(self, spec: LayerSpec):
        super().__init__(spec)
        self.rate = spec.rate  # mutable so a training config can override it
        self._keep = None

    def forward(self, x, train=False, rng=None, sign_trace=None):
        rate = self.rate
        if not train or rate == 0.0:
            self._keep = None
            return x
        if rng is None:
            raise ParameterError("train-mode dropout needs an rng")
        # keep-bits drawn channel-first: a seed drops the same units in any layout
        uniform = rng.random(_flip(x).shape, dtype=np.float32)
        self._keep = np.ascontiguousarray(_flip(uniform >= rate))
        self._scale = x.dtype.type(1.0) / x.dtype.type(1.0 - rate)
        return self._apply(x)

    def backward(self, grad):
        return grad if self._keep is None else self._apply(grad)

    def _apply(self, x):
        out = x * self._keep
        out *= self._scale
        return out


class ZeroPad(Layer):
    """Pads the width axis of [B, W, H, C] with spec.pad zero columns on each side."""

    def forward(self, x, train=False, rng=None, sign_trace=None):
        if x.ndim != 4:
            raise ShapeError(f"zeropad expects [B, W, H, C], got {x.shape}")
        p, w = self.spec.pad, x.shape[1]
        out = np.zeros((x.shape[0], w + 2 * p) + x.shape[2:], dtype=x.dtype)
        out[:, p:p + w] = x
        return out

    def backward(self, grad):
        p = self.spec.pad
        return grad[:, p:grad.shape[1] - p]


class Flatten(Layer):
    def forward(self, x, train=False, rng=None, sign_trace=None):
        x = _flip(x)  # channel-first order, which the dense weights after a conv expect
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return _flip(grad.reshape(self._shape))


# ---------------------------------------------------------------------------
# network assembly


def trace_shapes(specs, input_shape) -> list[tuple[int, ...]]:
    """Propagate the (batchless) activation shape through a spec stack."""
    shape = tuple(input_shape)
    out = []
    for spec in specs:
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

    def __init__(self, specs, input_shape, rng: np.random.Generator, dtype=np.float32):
        specs = tuple(specs)
        if not specs or specs[-1].kind != "softmax":
            raise ParameterError("network must end with a softmax layer")
        trace_shapes(specs, input_shape)  # validates the stack
        self.specs = specs
        self.input_shape = tuple(input_shape)
        self.dtype = np.dtype(dtype)
        self.layers: list[Layer] = []
        shape = tuple(input_shape)
        for i, spec in enumerate(specs):
            cls = _LAYER_CLASSES[spec.kind]
            if issubclass(cls, _Weighted):
                layer = cls(shape[0], spec, rng, dtype=dtype, init=_init_for(specs[i + 1:]))
            else:
                layer = cls(spec)
            self.layers.append(layer)
            shape = trace_shapes([spec], shape)[0]
        self.output_shape = shape
        # backprop stops at the first layer with parameters: nothing reads its input gradient
        weighted = [i for i, layer in enumerate(self.layers) if layer.params()]
        self._backprop_layers = self.layers[weighted[0]:-1] if weighted else []

    def forward(self, x, train: bool = False, rng=None, sign_trace=None) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
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

    def loss_and_grads(self, x, onehot, train: bool = False, rng=None):
        """Mean cross-entropy over the batch and its exact parameter gradients.

        Softmax and cross-entropy are fused: backprop starts from (p - y)/B at
        the softmax input, so the softmax layer's own backward is bypassed.
        """
        onehot = np.asarray(onehot, dtype=self.dtype)
        probs = self.forward(x, train=train, rng=rng)
        if probs.shape != onehot.shape:
            raise ShapeError(f"one-hot shape {onehot.shape} != output shape {probs.shape}")
        loss = batch_cross_entropy(probs, onehot)
        grad = (probs - onehot) / self.dtype.type(probs.shape[0])
        for layer in reversed(self._backprop_layers[1:]):
            grad = layer.backward(grad)
        if self._backprop_layers:
            self._backprop_layers[0].backward(grad, input_grad=False)
        return loss, self.gradients()


# ---------------------------------------------------------------------------
# single-sample functional surface


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


def cross_entropy_loss(probs, onehot) -> float:
    """-sum(y * ln(max(p, 1e-12))) for a single probability vector."""
    probs = np.asarray(probs, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if probs.shape != onehot.shape or probs.ndim != 1:
        raise ShapeError(f"shapes {probs.shape} and {onehot.shape} must match (1-D)")
    _check_onehot(onehot)
    return float(-(onehot * np.log(np.maximum(probs, LOSS_CLAMP))).sum())


def batch_cross_entropy(probs, onehot) -> float:
    """Mean clamped cross-entropy over a [B, k] batch."""
    probs = np.asarray(probs, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    _check_onehot(onehot)
    per = -(onehot * np.log(np.maximum(probs, LOSS_CLAMP))).sum(axis=-1)
    return float(per.mean())


def dropout(x, rate: float, mode: str, rng=None) -> np.ndarray:
    """Inverted dropout on an arbitrary tensor; mode is 'train' or 'eval'."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x)
    if mode == "eval" or rate == 0.0:
        return x.copy()
    if rng is None:
        raise ParameterError("train-mode dropout needs an rng")
    keep = rng.random(x.shape) >= rate
    return np.where(keep, x / (1.0 - rate), 0.0)


def backprop(network: Network, x, onehot):
    """Single-sample loss and exact gradients w.r.t. every parameter."""
    x = np.asarray(x)
    onehot = np.asarray(onehot)
    loss, grads = network.loss_and_grads(x[None], onehot[None])
    return loss, [g.copy() for g in grads]


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    """Adam accumulators; shapes mirror the parameter list."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> OptimizerState:
    return OptimizerState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(params, grads, state: OptimizerState):
    """One bias-corrected Adam update, in place; returns (params, state)."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads, and optimizer state must align")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state


# ---------------------------------------------------------------------------
# gradient checking


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
               tolerance: float = 1e-4, zero_tol: float = 1e-8) -> GradCheckReport:
    """Compare backprop against central finite differences, one parameter at a time.

    Coordinates whose perturbation flips any ReLU activation pattern sit on a
    kink where the two-sided difference is meaningless; they are excluded from
    the max and reported separately.
    """
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
            rel = 0.0 if denom < zero_tol else abs(fd - bp) / denom
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
