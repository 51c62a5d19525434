"""Minimal conv/dense network engine: exact backprop, Adam, finite-difference checks.

Layers operate on batched arrays (leading batch axis). A ``Network`` takes
channel-first ``[B, C, H, W]`` input, copies and transposes it once and
stores every activation width-major, ``[B, W, H, C]``; ``Flatten`` emits
channel-first order, so shapes, parameter layouts and checkpoints stay
channel-first. A parameter may be a transposed view of one contiguous array
(a Conv2D kernel is stored in the order its GEMMs read it), so code that
writes a parameter's elements never goes through ``reshape(-1)``, which would
return a copy. The engine is deliberately small: stride-1 convolutions along
the width only (kernel height 1 or the full input height), column-only zero
padding, inverted dropout, softmax + cross-entropy fused in the backward
pass. A ``zeropad`` must come directly before a ``conv2d``, which owns that
padding: ``Network`` hands the conv the pad width, the conv reads its unpadded
input as if zero columns flanked it (no padded copy is made), and the ZeroPad
layer passes activations and gradients through. The functional section holds
only the batch loss, ``batch_cross_entropy``.

Three rules keep the layers lean and let a library caller run one shared model
in eval mode from several threads:

- Ownership: a layer owns the array ``forward`` is given and the gradient
  ``backward`` is given, and may overwrite either (ReLU and Dropout work in
  place). ``Network.forward`` copies the caller's input, so nothing outside
  the network is written, except the flat rows a ``part="head"`` call hands over.
- Locals only: ``forward`` computes its output from its arguments and locals
  and only *stores* what ``backward`` reads; it never reads ``self`` state
  back within the call, and no array is kept for reuse by a later call.
- Only a training step holds activations: ``train`` means "a backward
  follows". An eval forward (``train=False``) writes nothing to a layer; a
  training forward's state lives until its backward, which releases it.
  Dropout drops units only in a training forward given an ``rng``.

Gradient buffers arrive with the first training step, so only a model that
has run a backward holds them: a model that only scores frames holds its
parameters and nothing else.

Between a training forward and its backward a layer holds only what that
backward reads: a Dense its input, a shifted Conv2D its input (a windowed one
its patch matrix), a Flatten the shape, and a ReLU or Dropout its mask, packed
8 to a byte. ``Network`` folds a ReLU directly before a Dropout into it, as it
folds a ZeroPad into its Conv2D: the ReLU passes activations and gradients
through, and the Dropout applies the max and holds the pair's one mask, so
relu1 and drop1 of a B=128 CNN2 step hold 1.1 MB. A training pass works one
slab of about ``SLAB_UNITS`` units at a time, so no whole-batch bool mask is
made; an eval forward applies the max in one pass. A shifted Conv2D makes its
per-shift products and shifted gradients ``CONV_BLOCK`` batch elements at a
time, and none of them outlives the call.

Every GEMM whose shared dimension K can exceed 400 goes through ``_matmul``,
which sums a K above 400 as a multiple of 32 plus the rest, so a training
step's bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import seeding
from .errors import ParameterError, ShapeError

LOSS_CLAMP = 1e-12
INIT_BLOCK = 65536  # weights per uniform call of a layer's initialization, in whole rows
# batch elements per chunk of a shifted Conv2D's passes; a multiple of 32, so a full
# chunk's weight-gradient GEMM sums over K = 32*W*G rows, a multiple of 32 (see _matmul)
CONV_BLOCK = 32
SLAB_UNITS = 65536  # units per slab of a ReLU's or Dropout's masked pass (see _Masked)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, a shared dimension K above 400 summed as its largest multiple of 32 + the rest.

    OpenBLAS (0.3.31, Haswell kernels) gives a float32 GEMM the same bits at any
    thread count when K is a multiple of 32 or at most 400, and other bits at one
    thread than at two or more for other K above 512. Both parts are of the first
    kind, so the result does not depend on the thread count. A K of 400 or less
    stays whole: its tail's product would need a temporary of the output's size.
    Every GEMM whose K can exceed 400 comes here: a Dense forward (K = 10480 for
    CNN2's dense1), a Dense weight gradient (K = the batch) and a shifted Conv2D's
    chunk weight gradient (K = n*W*G).
    """
    k = a.shape[-1]
    cut = k // 32 * 32
    if k <= 400 or cut == k:
        return np.matmul(a, b, out=out)
    out = np.matmul(a[..., :cut], b[:cut], out=out)
    out += a[..., cut:] @ b[cut:]
    return out


@dataclass(frozen=True)
class LayerSpec:
    """Declarative layer description: ``LAYER_TABLE`` names the fields its kind sets.

    Every other field is None. Counts (filters, units, each kernel dimension)
    are integers >= 1 and the pad an integer >= 0, all below 2**32; a rate lies
    in [0, 1) and reads back as itself from float32 to 6 decimals. So a spec is
    exactly what a checkpoint descriptor writes and reads back. Any other raises
    ``ParameterError``; for a known kind its message begins with the kind, which
    ``cli`` reads to name the flag (``--dropout``).
    """

    kind: str
    filters: int | None = None
    kernel: tuple[int, int] | None = None
    units: int | None = None
    rate: float | None = None
    pad: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in LAYER_TABLE:
            raise ParameterError(f"unknown layer kind {self.kind!r}")
        used = LAYER_TABLE[self.kind].fields
        for f in fields(self)[1:]:
            if (getattr(self, f.name) is None) == (f.name in used):
                verb = "needs" if f.name in used else "takes no"
                raise ParameterError(f"{self.kind} spec {verb} {f.name}, got {self}")
        kernel = (1, 1) if self.kernel is None else self.kernel
        if not (type(kernel) is tuple and len(kernel) == 2 and _is_count(self.pad, 0)
                and all(_is_count(n, 1) for n in (self.filters, self.units, *kernel))):
            raise ParameterError(f"{self.kind} spec needs a (height, width) kernel tuple, counts "
                                 f">= 1 and pad >= 0, all below 2**32, got {self}")
        if self.rate is not None and not (
                0.0 <= self.rate < 1.0 and round(float(np.float32(self.rate)), 6) == self.rate):
            raise ParameterError(f"{self.kind} rate must lie in [0, 1) and read back as itself "
                                 f"from float32 to 6 decimals, got {self.rate}")


def _is_count(n, low: int) -> bool:
    """True for None, or an integer in [low, 2**32): a descriptor stores counts as uint32."""
    return n is None or isinstance(n, (int, np.integer)) and low <= n < 2 ** 32


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
    """A layer with weights w of its ``weight_shapes`` shape (filters or units first) and bias b.

    w is a view of one contiguous array that holds w's axes in ``stored_as``
    order. The weights are drawn He- or Glorot-uniform from ``rng`` straight
    into w, whole rows (filters or units) of about ``INIT_BLOCK`` weights at a
    time in w's own (C) element order (each float64 uniform takes one stream
    word, so w equals one whole-tensor draw cast to its dtype), or left zero
    when ``rng`` is None (a checkpoint is about to overwrite them). The
    gradients gw and gb, laid out as w and b, wait for ``make_grads``, and
    ``grads()`` is empty until then.
    """

    stored_as = (0, 1)  # w's axes in the order its storage array holds them

    def __init__(self, spec: LayerSpec, shape: tuple[int, ...], rng: np.random.Generator | None,
                 dtype=np.float32, init: str = "he"):
        super().__init__(spec)
        storage = np.zeros([shape[a] for a in self.stored_as], dtype=dtype)
        self.w = storage.transpose([self.stored_as.index(a) for a in range(len(shape))])
        if rng is not None:
            fan_in = math.prod(shape[1:])
            limit = np.sqrt(6.0 / (fan_in if init == "he" else fan_in + shape[0]))
            rows = max(1, INIT_BLOCK // fan_in)
            for lo in range(0, shape[0], rows):
                block = self.w[lo:lo + rows]
                block[...] = rng.uniform(-limit, limit, size=block.shape)
        self.b = np.zeros(shape[0], dtype=dtype)
        self.gw = self.gb = None
        self._x = None  # what forward(train=True) stores for backward

    def make_grads(self) -> None:
        """Allocate gw and gb, once: ``Network.loss_and_grads`` calls it before its forward."""
        if self.gw is None:  # empty_like keeps w's memory order
            self.gw, self.gb = np.empty_like(self.w), np.empty_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [] if self.gw is None else [self.gw, self.gb]


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

    The kernel w is a [F, C, kh, kw] view of one contiguous [kh, C, kw, F]
    array (``stored_as``), which is the [K, kw*F] matrix every GEMM below reads
    (row k*kw + j of [K*kw, F] for the windowed path); gw is stored the same
    way. So ``w.transpose(2, 1, 3, 0).reshape(...)`` is a view, the GEMMs read
    the parameter itself, and backward sums the weight gradient into gw in
    place.

    Forward multiplies the unpadded input by all kw shift weights at once,
    ``CONV_BLOCK`` batch elements (n) at a time, [n*W*G, K] @ [K, kw*F], into
    one product buffer allocated per call, and adds each chunk's product into
    the output: output column o starts from the bias and adds shift j's
    product of input column o + j - pad, for j = 0..kw-1 in order; the column
    ranges are clipped, so a shift that would read padding adds nothing, as a
    zero column would have added an exact zero.

    Backward forms the bias gradient, then makes one pass over the batch,
    ``CONV_BLOCK`` elements (n) at a time. Each chunk's output gradient goes
    into an [n, W, G, kw, F] array, allocated once per call, whose slot j holds
    it j - pad columns over, clipped the same way (the columns no shift writes
    are zeroed once; CNN2's conv2 has none). The chunk's weight-gradient term,
    input^T @ shifted, is added into the weight gradient, so gw sums chunk by
    chunk. It goes through ``_matmul``: a K = n*W*G above 400 that is not a
    multiple of 32 is summed in two parts, and a full chunk's K = 32*W*G needs
    no split. That slice of the stored input is then dead, so the chunk's
    unpadded input gradient, shifted @ weights^T, is written over it (the
    windowed path below stores patches instead and allocates it).

    When a kw-wide window of K values is no larger than the F outputs it feeds
    (conv1 of CNN2), forward instead pads the tiny input and builds its window
    patch matrix with a ones column, so the bias rides in the GEMM, and
    backward gets the weight and bias gradients from one stacked GEMM per
    batch element.
    """

    stored_as = (2, 1, 3, 0)  # [kh, C, kw, F]

    def __init__(self, spec: LayerSpec, shape: tuple[int, ...], rng: np.random.Generator | None,
                 dtype=np.float32, init: str = "he"):
        super().__init__(spec, shape, rng, dtype, init)
        self.pad = 0  # zero columns on each side of the input
        self._windowed = math.prod(shape[1:]) <= spec.filters  # fan-in
        # _x: the [B, W, G, K] input, or its [B, OW*G, K*kw + 1] patches when windowed

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
        wt = self.w.transpose(2, 1, 3, 0).reshape(k, kw, f)  # a view; [:, j] multiplies shift j
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
        wt = wt.reshape(k, kw * f)
        out = np.empty((b, ow, g, f), dtype=x.dtype)
        out[...] = self.b
        products = np.empty((min(b, CONV_BLOCK) * w * g, kw * f), dtype=x.dtype)
        for start in range(0, b, CONV_BLOCK):
            chunk = x[start:start + CONV_BLOCK].reshape(-1, k)
            per_shift = np.matmul(chunk, wt, out=products[:len(chunk)]).reshape(-1, w, g, kw, f)
            for j, lo, hi in self._shifts(w, ow):
                out[start:start + CONV_BLOCK, lo:hi] += per_shift[:, lo + j - p:hi + j - p, :, j]
        return out

    def backward(self, grad, input_grad=True):
        """Fills gw and gb; returns the unpadded input gradient unless ``input_grad`` is False."""
        x, self._x = self._x, None
        f, c, kh, kw = self.w.shape
        b, ow, g, _ = grad.shape
        p = self.pad
        k, w = kh * c, ow + kw - 1 - 2 * p
        gwt = self.gw.transpose(2, 1, 3, 0).reshape(k, kw * f)  # a view, as in forward
        if self._windowed:
            # per element [K*kw + 1, OW*G] @ [OW*G, F]: reads a strided gradient without a copy
            gwb = np.matmul(x.transpose(0, 2, 1), grad.reshape(b, ow * g, f)).sum(axis=0)
            gwt[...], self.gb[...] = gwb[:-1].reshape(k, kw * f), gwb[-1]
            if not input_grad:
                return None
            dx = np.empty((b * w * g, k), dtype=grad.dtype)  # x holds patches
        else:
            self.gb[...] = grad.sum(axis=(0, 1, 2))
            gwt[...] = 0.0
            x = dx = x.reshape(-1, k)  # the input, owned by this layer: dx goes over it
        wt = self.w.transpose(2, 1, 3, 0).reshape(k, kw * f).T
        rows = w * g  # of x and dx per batch element
        shifted = np.empty((min(b, CONV_BLOCK), w, g, kw, f), dtype=grad.dtype)
        written = {j: (lo + j - p, hi + j - p) for j, lo, hi in self._shifts(w, ow)}
        for j in range(kw):  # every chunk writes the same columns; zero the others once
            first, end = written.get(j, (0, 0))
            shifted[:, :first, :, j] = shifted[:, end:, :, j] = 0.0
        for start in range(0, b, CONV_BLOCK):
            chunk = grad[start:start + CONV_BLOCK]
            n = chunk.shape[0]
            for j, (first, end) in written.items():
                shifted[:n, first:end, :, j] = chunk[:, first - j + p:end - j + p]
            part, flat = slice(start * rows, (start + n) * rows), shifted[:n].reshape(-1, kw * f)
            if not self._windowed:  # this chunk's term, before dx overwrites its input
                gwt += _matmul(x[part].T, flat)
            if input_grad:
                np.matmul(flat, wt, out=dx[part])
        return dx.reshape(b, w, kh * g, c) if input_grad else None


class Dense(_Weighted):
    def forward(self, x, train=False, rng=None, sign_trace=None):
        if x.ndim != 2 or x.shape[1] != self.w.shape[1]:
            raise ShapeError(f"dense expects [B, {self.w.shape[1]}], got {x.shape}")
        if train:
            self._x = x
        return _matmul(x, self.w.T) + self.b

    def backward(self, grad, input_grad=True):
        x, self._x = self._x, None
        _matmul(grad.T, x, out=self.gw)
        self.gb[...] = grad.sum(axis=0)
        return grad @ self.w if input_grad else None


class _Masked(Layer):
    """The one masked pass of ReLU and Dropout, in place: ``x * mask * scale`` after the max.

    A ReLU applies the max, ``x > 0`` is its mask, and it scales nothing. A
    Dropout draws its keep bits width-major with ``keep_mask`` (PCG64 only) and
    scales the survivors by 1/(1-rate), but only in a training forward given an
    ``rng``, at a rate above 0. A ReLU directly before a Dropout is folded into
    it (``relu``, set by ``Network``): the ReLU passes activations and
    gradients through, and the Dropout applies the max and holds the pair's one
    mask, ``keep & (x > 0)``. A training forward holds its mask packed 8 to a
    byte for backward, which multiplies the gradient by it and by the scale.

    A training forward and its backward work one slab of whole batch elements
    at a time, while it is in cache: about ``SLAB_UNITS`` units, and a whole
    number of bytes of bits in every slab but the last, so the held bytes
    equal the whole batch's ``np.packbits`` and ``keep_mask`` draws each slab
    in turn on one stream. An eval forward makes no mask and applies the max
    in one pass.
    """

    def __init__(self, spec: LayerSpec):
        super().__init__(spec)
        self.rate = spec.rate or 0.0  # a ReLU's spec has none
        self.relu = spec.kind == "relu"  # whether this layer applies a ReLU's max
        self._bits = self._scale = None  # what forward(train=True) stores for backward

    def forward(self, x, train=False, rng=None, sign_trace=None):
        if sign_trace is not None and self.spec.kind == "relu":
            sign_trace.append(x > 0)
        if not train:
            return np.maximum(x, 0, out=x) if self.relu else x
        draws = rng is not None and self.rate != 0.0
        self._bits = self._scale = None
        if not (self.relu or draws):
            return x
        scale = x.dtype.type(1.0) / x.dtype.type(1.0 - self.rate)
        bits = np.empty(-(-x.size // 8), dtype=np.uint8)
        for slab, held in _slabs(x, bits):
            mask = keep_mask(rng, slab.shape, self.rate) if draws else None
            if self.relu:
                mask = slab > 0 if mask is None else np.logical_and(mask, slab > 0, out=mask)
                np.maximum(slab, 0, out=slab)
            if draws:
                slab *= mask
                slab *= scale
            held[...] = np.packbits(mask)
        self._bits, self._scale = bits, scale if draws else None
        return x

    def backward(self, grad):
        bits, scale, self._bits, self._scale = self._bits, self._scale, None, None
        if bits is not None:
            for slab, held in _slabs(grad, bits):
                slab *= np.unpackbits(held, count=slab.size).reshape(slab.shape).view(bool)
                if scale is not None:
                    slab *= scale
        return grad


def _slabs(x, packed):
    """(slab, its bytes of ``packed``) for each slab of whole batch elements of x."""
    per = math.prod(x.shape[1:])
    step = 8 // math.gcd(per, 8)  # elements whose bits fill whole bytes
    n = max(1, SLAB_UNITS // (per * step)) * step
    for start in range(0, x.shape[0], n):
        slab = x[start:start + n]
        yield slab, packed[start * per // 8:-(-(start * per + slab.size) // 8)]


class ReLU(_Masked):
    """max(x, 0); see ``_Masked``."""


class Softmax(Layer):
    """Forward only: Network.loss_and_grads fuses its backward into the loss gradient."""

    def forward(self, x, train=False, rng=None, sign_trace=None):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)


class Dropout(_Masked):
    """Inverted dropout: survivors scaled by 1/(1-rate); see ``_Masked``."""


def keep_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Bool keep-mask of ``shape``, drawn in the array's own (width-major) order.

    Each batch element of n units reads ceil(n/2) PCG64 ``random_raw`` words as
    uint32 pairs, low half first, and keeps a unit iff its ``u >= ceil(rate *
    2**32)``: P(keep) = 1 - rate to within 2**-32. An odd n leaves the last high
    half unused. All elements' words come from one ``random_raw`` call. Other bit
    generators are rejected (MT19937's raw words hold only 32 bits).
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise ParameterError(f"dropout needs a PCG64 generator, got {type(bitgen).__name__}")
    threshold = math.ceil(rate * 2 ** 32)
    n = math.prod(shape[1:])
    u = bitgen.random_raw(shape[0] * ((n + 1) // 2)).astype("<u8", copy=False).view("<u4")
    # each element's 2 ceil(n/2) halves, cut to its n
    return (u.reshape(-1, n + n % 2)[:, :n] >= threshold).reshape(shape)


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
            shape = (math.prod(shape),)  # exact: a checkpoint's descriptors may claim any size
        out.append(shape)
    return out


def weight_shapes(specs, input_shape) -> list[tuple[int, ...]]:
    """Weights of each conv2d, [F, C, kh, kw], and dense layer, [units, in], in stack order.

    Each bias is [shape[0]]. Only the shapes are traced; nothing is allocated.
    """
    inputs = (tuple(input_shape), *trace_shapes(specs, input_shape))
    return [(s.filters, x[0], *s.kernel) if s.kind == "conv2d" else (s.units, x[0])
            for s, x in zip(specs, inputs) if s.kind in ("conv2d", "dense")]


class LayerKind(NamedTuple):
    layer: type  # the Layer subclass that runs it
    fields: tuple[str, ...]  # the LayerSpec fields it sets; the others stay None


# Every layer kind. Its position is its checkpoint kind index, so entries are only appended.
LAYER_TABLE = {
    "conv2d": LayerKind(Conv2D, ("filters", "kernel")),
    "dense": LayerKind(Dense, ("units",)),
    "relu": LayerKind(ReLU, ()),
    "softmax": LayerKind(Softmax, ()),
    "dropout": LayerKind(Dropout, ("rate",)),
    "zeropad": LayerKind(ZeroPad, ("pad",)),
    "flatten": LayerKind(Flatten, ()),
}
LAYER_KINDS = tuple(LAYER_TABLE)


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

        Each zeropad's width goes to the conv2d after it (see ``Conv2D``), and
        each ReLU directly before a dropout is folded into it: the ReLU passes
        activations and gradients through, and the Dropout applies the max in
        its one masked pass and holds the pair's one mask (see ``_Masked``).
        """
        specs = tuple(specs)
        if not specs or specs[-1].kind != "softmax":
            raise ParameterError("network must end with a softmax layer")
        shapes = trace_shapes(specs, input_shape)  # validates the stack
        self.specs = specs
        self.input_shape = tuple(input_shape)
        self.dtype = np.dtype(dtype)
        self.layers: list[Layer] = []
        weights = iter(weight_shapes(specs, input_shape))
        for i, spec in enumerate(specs):
            cls = LAYER_TABLE[spec.kind].layer
            if issubclass(cls, _Weighted):
                layer = cls(spec, next(weights), rng, dtype=dtype, init=_init_for(specs[i + 1:]))
            else:
                layer = cls(spec)
            if i and specs[i - 1].kind == "zeropad":  # a conv2d, checked by trace_shapes
                layer.pad = specs[i - 1].pad
            if i and spec.kind == "dropout" and specs[i - 1].kind == "relu":
                self.layers[i - 1].relu, layer.relu = False, True
            self.layers.append(layer)
        self.output_shape = shapes[-1]
        # backprop reaches the first layer that is not a ZeroPad, which stores nothing
        first = next(i for i, layer in enumerate(self.layers) if not isinstance(layer, ZeroPad))
        self._backprop_layers = self.layers[first:-1]
        head = next((i + 1 for i, s in enumerate(specs) if s.kind == "flatten"), 0)
        self._parts = {"all": self.layers, "features": self.layers[:head],
                       "head": self.layers[head:]}

    def forward(self, x, train: bool = False, rng=None, sign_trace=None,
                part: str = "all") -> np.ndarray:
        """Run ``part`` of the stack: "all", or the two halves split after the first Flatten.

        "all" and "features" take [B, *input_shape] input; "features" stops
        after the Flatten and returns its [B, n] rows. "head" runs the layers
        after it on such rows of the network's dtype, which it hands over to
        them (they may overwrite them), so head(features(x)) is all(x).
        """
        if part != "head":
            x = np.array(x, dtype=self.dtype)  # the layers may overwrite it; the caller's stays
            if x.shape[1:] != self.input_shape:
                raise ShapeError(f"expected input [B, {self.input_shape}], got {x.shape}")
            x = _flip(x)
        for layer in self._parts[part]:
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

        The first call allocates the gradient buffers before its forward: made
        among a B=128 CNN2 step's activations, they raised the process peak ~5 MB.
        """
        onehot = np.asarray(onehot, dtype=self.dtype)
        for layer in self._backprop_layers:
            if isinstance(layer, _Weighted):
                layer.make_grads()
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
# the batch loss


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
    operation is elementwise, so the blocking changes no value. Each parameter,
    its gradient and the state's m and v are walked through flat views in
    memory order (``ravel(order="K")``), so each must be one dense block, and
    the four must share one memory order (equal strides on every axis longer
    than 1), as ``empty_like`` and ``zeros_like`` give a transposed Conv2D
    kernel; a strided array, or one in another order, raises ``ShapeError``.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads, and optimizer state must align")
    flats = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        group = (p, g, m, v)
        flat = [a.ravel(order="K") for a in group]  # a copy unless a is one dense block
        orders = {tuple(s // a.itemsize for s, n in zip(a.strides, a.shape) if n > 1)
                  for a in group}
        if len(orders) > 1 or not all(map(np.may_share_memory, flat, group)):
            raise ShapeError("adam_step updates a parameter, gradient and state that are each "
                             "one dense block, in one memory order")
        flats.append(flat)
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in flats:
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
GRAD_STEP = 1e-4  # central-difference step of grad_check
GRAD_TOLERANCE = 1e-4  # grad_check passes when every checked relative error is below this


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: tuple[int, int]  # (parameter tensor index, flat element index)
    n_checked: int
    n_kink_skipped: int
    kink_indices: list
    passed: bool
    per_param_max: list = field(default_factory=list)  # max rel error per tensor


def _signs_differ(a, b) -> bool:
    return any(not np.array_equal(x, y) for x, y in zip(a, b))


def grad_check(network: Network, x, onehot) -> GradCheckReport:
    """Compare backprop against central finite differences, one parameter at a time.

    Each parameter moves by +-``GRAD_STEP`` (1e-4); the check passes when the
    largest relative error is below ``GRAD_TOLERANCE`` (1e-4). Coordinates whose
    perturbation flips any ReLU activation pattern sit on a kink where the
    two-sided difference is meaningless; they are excluded from the max and
    reported separately.
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
        flat = p.flat  # element k in C order, also of a transposed view (reshape would copy)
        gflat = analytic[pi].reshape(-1)  # a C-order copy
        for k in range(p.size):
            orig = flat[k]
            signs_hi: list = []
            signs_lo: list = []
            flat[k] = orig + GRAD_STEP
            hi = network.loss(x, onehot, sign_trace=signs_hi)
            flat[k] = orig - GRAD_STEP
            lo = network.loss(x, onehot, sign_trace=signs_lo)
            flat[k] = orig
            if _signs_differ(signs_hi, signs_lo):
                kinks.append((pi, k))
                continue
            fd = (hi - lo) / (2.0 * GRAD_STEP)
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
        passed=max_rel < GRAD_TOLERANCE,
        per_param_max=per_param_max,
    )


def random_micro_network(seed: int) -> tuple[Network, np.ndarray, np.ndarray]:
    """A small random conv+dense stack (<= ~5k params) with a matching input/target.

    Used by the gradient-check suite; always float64 so finite differences are
    trustworthy. The seed counts by its low 64 bits, as the CLI's other seeds do.
    """
    rng = seeding.stream(seed)
    c = int(rng.integers(1, 3))
    h = int(rng.integers(2, 4))
    w = int(rng.integers(6, 10))
    f1 = int(rng.integers(2, 5))
    f2 = int(rng.integers(2, 5))
    k1w = int(rng.integers(2, 4))
    units = int(rng.integers(4, 9))
    classes = 2
    specs = [LayerSpec("conv2d", filters=f1, kernel=(1, k1w)), LayerSpec("relu"),
             LayerSpec("conv2d", filters=f2, kernel=(h, 2)), LayerSpec("relu"),
             LayerSpec("flatten"), LayerSpec("dense", units=units), LayerSpec("relu"),
             LayerSpec("dense", units=classes), LayerSpec("softmax")]
    net = Network(specs, (c, h, w), rng, dtype=np.float64)
    x = rng.standard_normal((c, h, w))
    onehot = np.zeros(classes)
    onehot[int(rng.integers(0, classes))] = 1.0
    return net, x, onehot
